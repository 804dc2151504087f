import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

from butterfly_coding import (
    ConfigError,
    DivergenceDetected,
    InfeasibleExtension,
    InfeasibleSpec,
    InvalidSpan,
    ProblemInstance,
    ResultRecord,
    SyntheticSpec,
    ToleranceConfig,
    TrainConfig,
    flat_tail_profile,
    gen_synthetic,
    instance_to_json,
    join,
    lower_bound_of,
    main,
    orthonormal_basis,
    read_config,
    read_csv,
    run_sweep,
    spectrum,
    sufficient_report,
    task_pca,
    train,
    write_csv,
)
import butterfly_coding
import butterfly_coding.analytic as analytic_module
import butterfly_coding.bench as bench_module
from butterfly_coding.bench import (
    _FIELD_NAMES,
    FLAT_TAIL_MAX_SHARED,
    _format_cell,
)
from butterfly_coding import code_from_json

from conftest import (achievable_dichotomy_instance, random_pd_instance, readme_config,
                      unachievable_dichotomy_instance)
from test_properties import identity_specs

# the module, which the package's `train` attribute (the function) shadows
train_module = sys.modules["butterfly_coding.train"]


class TestFlatTailProfile:
    def test_shape_and_order(self):
        prof = flat_tail_profile(16, 8)
        assert prof.shape == (16,)
        assert np.all(prof > 0)
        assert np.all(np.diff(prof) <= 1e-12)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            flat_tail_profile(4, 5)

    def test_shared_shelf_limit(self):
        assert flat_tail_profile(128, FLAT_TAIL_MAX_SHARED)[-1] > 0
        with pytest.raises(InfeasibleSpec, match=str(FLAT_TAIL_MAX_SHARED)):
            flat_tail_profile(128, FLAT_TAIL_MAX_SHARED + 1)


class TestGenSynthetic:
    def test_full_scale_overlap_only(self):
        spec = SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=16, seed=0)
        inst = gen_synthetic(spec)
        assert inst.n == 32 and inst.a == 24
        assert np.allclose(inst.psi, np.eye(32))
        # r_plus equals the rank of the stacked task matrices exactly
        assert orthonormal_basis(np.vstack([inst.k3, inst.k4]).T).dim == 16
        rep = sufficient_report(spectrum(inst))
        assert rep.r_plus_34 == 16
        assert rep.sf1_ok and rep.sf2_ok and rep.necessary_ok

    def test_full_scale_with_exclusives(self):
        spec = SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=24, seed=1)
        inst = gen_synthetic(spec)
        assert orthonormal_basis(np.vstack([inst.k3, inst.k4]).T).dim == 24
        rep = sufficient_report(spectrum(inst))
        assert rep.sufficient_ok
        # default eigenvalues vanish past index 2Z, so the bound is zero
        assert lower_bound_of(inst) == 0.0

    def test_necessary_follows_joint_rank(self):
        for target, want in ((20, True), (24, True), (25, False), (32, False)):
            spec = SyntheticSpec(n=32, z=8, a=24, b=24,
                                 r_plus_target=target, seed=2)
            inst = gen_synthetic(spec)
            rep = sufficient_report(spectrum(inst))
            assert rep.necessary_ok == want, target
            assert rep.sf1_ok and rep.sf2_ok

    def test_generic_placement_starves_small_observations(self):
        m = 16
        prof = flat_tail_profile(m, 2 * m - 18)
        small = gen_synthetic(SyntheticSpec(
            n=32, z=8, a=16, b=16, r_plus_target=18,
            eig_profile=prof, keep_sf3=False, seed=0))
        rep = sufficient_report(spectrum(small))
        assert not rep.necessary_ok
        assert rep.sf1_ok and rep.sf2_ok
        wide = gen_synthetic(SyntheticSpec(
            n=32, z=8, a=24, b=24, r_plus_target=18,
            eig_profile=prof, keep_sf3=False, seed=0))
        rep = sufficient_report(spectrum(wide))
        assert rep.sufficient_ok

    def test_target_out_of_range(self):
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24,
                                        r_plus_target=33, seed=0))
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24,
                                        r_plus_target=15, seed=0))

    @pytest.mark.parametrize("n, a, b, problem", [
        (0, 0, 0, "bad dimensions"), (8, 9, 6, "need max"), (8, 3, 4, "need max"),
    ], ids=["no_coordinates", "a_above_n", "a_plus_b_below_n"])
    def test_bad_dimensions_rejected(self, n, a, b, problem):
        with pytest.raises(InfeasibleSpec, match=problem):
            gen_synthetic(SyntheticSpec(n=n, z=2, a=a, b=b, r_plus_target=4))

    def test_bad_profiles_rejected(self):
        base = dict(n=8, z=2, a=6, b=6, r_plus_target=6, seed=0)
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(eig_profile=(3.0, 2.0), **base))
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(eig_profile=(1.0, 2.0, 3.0, 4.0), **base))
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(eig_profile=(2.0, 1.0, 0.0, -1.0), **base))

    @pytest.mark.parametrize("keep_sf3", [True, False])
    def test_flat_tail_sentinel_is_the_explicit_profile(self, keep_sf3):
        base = dict(n=32, z=8, a=24, b=24, r_plus_target=20, keep_sf3=keep_sf3, seed=3)
        named = gen_synthetic(SyntheticSpec(eig_profile="flat_tail", **base))
        explicit = gen_synthetic(SyntheticSpec(
            eig_profile=tuple(flat_tail_profile(16, 2 * 16 - 20)), **base))
        for name in ("psi", "k3", "k4"):
            assert np.array_equal(getattr(named, name), getattr(explicit, name))
        with pytest.raises(InfeasibleSpec, match="flat_tail"):
            gen_synthetic(SyntheticSpec(eig_profile="flat", **base))

    @pytest.mark.parametrize("rank_tol", [0.0, 1e-16, ToleranceConfig().rank_tol])
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(spec=identity_specs())
    def test_joint_rank_is_the_joins_dimension(self, rank_tol, spec):
        # the joint-rank check counts the directions join would add, without
        # building the join: a cell is accepted exactly when
        # join(U3, U4).dim is the target, the rank check's only refusal
        tol = ToleranceConfig(rank_tol)
        seen, join_dim = [], bench_module._join_dim

        def recorded(a, b, tol):
            seen.append((a, b))
            return join_dim(a, b, tol)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench_module, "_join_dim", recorded)
            try:
                gen_synthetic(spec, tol)
                accepted = True
            except InfeasibleSpec as exc:
                accepted = False
                ranked = "joint task rank" in str(exc)
        assume(seen)
        assert accepted or ranked
        assert accepted == (join(*seen[0], tol).dim == spec.r_plus_target)

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n=16, z=4, a=12, b=12, r_plus_target=12, seed=5)
        i1 = gen_synthetic(spec)
        i2 = gen_synthetic(spec)
        assert np.array_equal(i1.k3, i2.k3) and np.array_equal(i1.k4, i2.k4)
        other = gen_synthetic(SyntheticSpec(n=16, z=4, a=12, b=12,
                                            r_plus_target=12, seed=6))
        assert not np.array_equal(i1.k3, other.k3)


def small_sweep_config(**overrides):
    config = {
        "sweep": {
            "param": "r_plus",
            "values": [4, 6],
            "approaches": ["task_aware_coding"],
            "n": 8, "z": 2, "a": 6, "b": 6,
        },
        "train": {"epochs": 60, "learning_rate": 0.02},
        "seeds": [0, 1],
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in config:
            config[key] = {**config[key], **value}
        else:
            config[key] = value
    return config


class TestRunSweep:
    def test_record_grid_with_auto_construction(self):
        records = run_sweep(small_sweep_config())
        # both r_plus values are sufficient here, so each (value, seed) cell
        # gains an analytic_construction record next to the trained one
        assert len(records) == 2 * 2 * 2
        keys = [(r.sweep_param_value, r.approach, r.seed) for r in records]
        assert keys == sorted(
            keys, key=lambda k: (k[0], ("analytic_construction",
                                        "task_aware_coding").index(k[1]), k[2]))
        for rec in records:
            assert rec.status == "ok"
            assert abs(rec.L_total - rec.L3 - rec.L4) <= 1e-9 * (1 + rec.L_total)
            assert rec.L_total >= rec.lower_bound - 1e-9 * (1 + rec.lower_bound)
        constructed = [r for r in records if r.approach == "analytic_construction"]
        assert all(r.epochs_run == 0 for r in constructed)
        assert all(r.L_total <= r.lower_bound + 1e-8 * (1 + r.lower_bound)
                   for r in constructed)
        trained = [r for r in records if r.approach == "task_aware_coding"]
        assert all(r.epochs_run == 60 for r in trained)
        # r_plus = 7 > 3Z: the rejected construction leaves no record, ok or
        # failed, beside the trained ones
        rejected = run_sweep(small_sweep_config(sweep={"values": [7]}))
        assert [(r.approach, r.status) for r in rejected] == [
            ("task_aware_coding", "ok")] * 2

    def test_one_spectrum_and_one_analysis_per_constructed_cell(self, monkeypatch):
        calls = {"spectrum": 0, "analyze": 0}

        def counted(module, name, key):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(bench_module, "spectrum", "spectrum")
        counted(analytic_module, "_analyze", "analyze")
        config = small_sweep_config(sweep={"approaches": ["analytic_construction"]},
                                    seeds=[0])
        records = run_sweep(config)
        assert [r.status for r in records] == ["ok", "ok"]
        assert calls == {"spectrum": 2, "analyze": 2}

    def test_explicit_construction_not_duplicated(self):
        config = small_sweep_config()
        config["sweep"]["approaches"] = ["analytic_construction"]
        records = run_sweep(config)
        assert len(records) == 2 * 2

    def test_empty_approaches(self):
        config = small_sweep_config()
        config["sweep"]["approaches"] = []
        assert run_sweep(config) == []

    def test_infeasible_value_marks_failed(self):
        config = small_sweep_config()
        config["sweep"]["values"] = [4, 9]  # 9 > 2*min{2Z, n} = 8
        records = run_sweep(config)
        failed = [r for r in records if r.sweep_param_value == 9.0]
        assert failed and all(r.status.startswith("failed: ") for r in failed)
        assert all(math.isnan(r.L_total) for r in failed)
        ok = [r for r in records if r.sweep_param_value == 4.0]
        assert ok and all(r.status == "ok" for r in ok)

    def test_observation_sweep(self):
        config = small_sweep_config()
        config["sweep"].update({"param": "a", "values": [6, 8], "r_plus": 6,
                                "approaches": ["analytic_construction"]})
        records = run_sweep(config)
        assert len(records) == 2 * 2
        assert {r.sweep_param_value for r in records} == {6.0, 8.0}

    def test_flat_tail_sentinel_profile(self):
        config = small_sweep_config()
        config["sweep"]["eig_profile"] = "flat_tail"
        records = run_sweep(config)
        assert all(r.status == "ok" for r in records)

    def test_flat_tail_past_its_limit_fails_cells(self):
        # m = 128 and r_plus = 160 ask for 96 shared directions; the profile
        # error becomes failed records instead of aborting the sweep
        config = {
            "sweep": {"param": "r_plus", "values": [160, 208],
                      "approaches": ["analytic_construction"],
                      "n": 256, "z": 64, "a": 192, "b": 192,
                      "eig_profile": "flat_tail"},
            "seeds": [0],
        }
        records = run_sweep(config)
        assert [r.sweep_param_value for r in records] == [160.0, 208.0]
        bad = records[0]
        assert bad.status.startswith("failed: InfeasibleSpec: ")
        assert f"at most {FLAT_TAIL_MAX_SHARED} shared" in bad.status
        assert "descending and positive" not in bad.status
        assert "InfeasibleSpec" not in records[1].status

    def test_bad_profile_list_rejected(self):
        config = small_sweep_config()
        config["sweep"]["eig_profile"] = ["x", "y"]
        with pytest.raises(ConfigError, match="eig_profile"):
            run_sweep(config)

    def test_bad_param_rejected(self):
        config = small_sweep_config()
        config["sweep"]["param"] = "capacity"
        with pytest.raises(ConfigError):
            run_sweep(config)

    def test_unknown_approach_rejected(self):
        config = small_sweep_config()
        config["sweep"]["approaches"] = ["magic"]
        with pytest.raises(ConfigError):
            run_sweep(config)

    def test_bad_train_key_rejected(self):
        config = small_sweep_config()
        config["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError):
            run_sweep(config)

    @pytest.mark.parametrize("change, message", [
        ({"n": 8.9}, '"n" must be an integer, got 8.9'),
        ({"z": 2.0}, '"z" must be an integer, got 2.0'),
        ({"a": True}, '"a" must be an integer, got True'),
        ({"b": "6"}, '"b" must be an integer, got \'6\''),
        ({"values": [4, 6.5]}, '"values" must be integers, got 6.5'),
        ({"param": "a", "values": [6], "r_plus": 6.0},
         '"r_plus" must be an integer, got 6.0'),
    ], ids=["n", "z", "a", "b", "values", "r_plus"])
    def test_non_integer_dimension_rejected(self, change, message):
        # a float used to be truncated: "n": 8.9 ran at n = 8
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_sweep(small_sweep_config(sweep=change))

    @pytest.mark.parametrize("key, value, source", [
        ("mode", "coding_benchmark", "approaches"), ("seed", 99, "seeds")])
    def test_train_key_the_sweep_sets_rejected(self, key, value, source):
        # each cell's mode comes from "approaches" and its seed from "seeds",
        # so the sweep would overwrite these fields silently
        config = small_sweep_config(train={key: value})
        with pytest.raises(ConfigError, match=f'"{key}" in "train" is set per cell by "{source}"'):
            run_sweep(config)

    def test_missing_sweep_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep({"train": {}})

    @pytest.mark.parametrize("key, entries, repeated", [
        ("approaches", ["task_aware_coding", "analytic_construction", "task_aware_coding"],
         "'task_aware_coding'"),
        ("values", [4, 6, 6], "6"),
        ("seeds", [0, 1, 0], "0"),
    ])
    def test_repeated_entry_rejected(self, key, entries, repeated):
        # a repeated entry used to write each of its records twice
        config = small_sweep_config(**({"seeds": entries} if key == "seeds"
                                       else {"sweep": {key: entries}}))
        with pytest.raises(ConfigError, match=re.escape(f'"{key}" lists {repeated} twice')):
            run_sweep(config)

    def test_failed_evaluation_fails_its_record_alone(self, monkeypatch):
        # the utilities of the first cell's construction and of the last
        # cell's trained code raise; each fails its own record, and the
        # others stay ok
        built = []
        construct, evaluate = bench_module.construct_lb_code, bench_module.utilities

        def recorded(spec, tol):
            built.append((spec, construct(spec, tol)))
            return built[-1][1]

        def failing(code, spec, tol):
            constructed = any(code is c for _, c in built)
            if code is built[0][1] or (not constructed and spec is built[-1][0]):
                raise InvalidSpan("phi13 leaves node 1's observation span")
            return evaluate(code, spec, tol)

        monkeypatch.setattr(bench_module, "construct_lb_code", recorded)
        monkeypatch.setattr(bench_module, "utilities", failing)
        records = run_sweep(small_sweep_config())
        assert len(built) == 4 and len(records) == 8
        failed = {(r.sweep_param_value, r.approach, r.seed): r for r in records
                  if r.status != "ok"}
        assert set(failed) == {(4.0, "analytic_construction", 0), (6.0, "task_aware_coding", 1)}
        for rec in failed.values():
            assert rec.status == "failed: InvalidSpan: phi13 leaves node 1's observation span"
            assert all(math.isnan(getattr(rec, name))
                       for name in ("L3", "L4", "L_total", "u56", "u13", "u24"))
            assert (rec.epochs_run, rec.wall_ms) == (0, 0.0)
            assert not math.isnan(rec.lower_bound)

    def test_deterministic_modulo_wall_time(self, tmp_path):
        config = small_sweep_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(config), p1)
        write_csv(run_sweep(config), p2)
        col = _FIELD_NAMES.index("wall_ms")

        def strip_wall(path):
            rows = path.read_text().strip().split("\n")
            return ["," .join(v for i, v in enumerate(row.split(","))
                              if i != col) for row in rows]

        assert strip_wall(p1) == strip_wall(p2)


def non_timing(record):
    return tuple(_format_cell(getattr(record, name))
                 for name in _FIELD_NAMES if name != "wall_ms")


ALL_TRAINED = ["task_aware_coding", "task_aware_no_coding",
               "task_agnostic_coding", "coding_benchmark"]


class TestLockstepSweep:
    def test_member_independent_of_batch(self):
        config = small_sweep_config(seeds=[0])
        config["sweep"]["approaches"] = ALL_TRAINED
        alone = [non_timing(r) for r in run_sweep(config)]
        config["seeds"] = [0, 1]
        batched = [non_timing(r) for r in run_sweep(config) if r.seed == 0]
        assert len(alone) == 2 * 5
        assert batched == alone

    def test_split_batches_change_no_result(self, monkeypatch):
        config = small_sweep_config(seeds=[0, 1])
        config["sweep"]["approaches"] = ALL_TRAINED
        together = [non_timing(r) for r in run_sweep(config)]
        monkeypatch.setattr(train_module, "_LOCKSTEP_BYTES", 1)
        assert [non_timing(r) for r in run_sweep(config)] == together

    def test_one_train_lockstep_call_per_sweep(self, monkeypatch):
        # a sweep over two values and two seeds, cut into batches of one
        # member, still hands all of its trained cells to one call
        calls = []
        lockstep = bench_module.train_lockstep
        monkeypatch.setattr(bench_module, "train_lockstep",
                            lambda jobs, tol: calls.append(len(jobs)) or lockstep(jobs, tol))
        monkeypatch.setattr(train_module, "_LOCKSTEP_BYTES", 1)
        config = small_sweep_config(seeds=[0, 1])
        config["sweep"]["approaches"] = ALL_TRAINED
        records = run_sweep(config)
        assert calls == [2 * 2 * len(ALL_TRAINED)]
        assert all(r.status == "ok" for r in records)

    def test_one_spectrum_per_trained_cell(self, monkeypatch):
        # the coding_benchmark start reads the cell's spectrum off its job
        calls = []
        for module in (bench_module, train_module):
            monkeypatch.setattr(module, "spectrum", lambda *args, _spectrum=module.spectrum:
                                calls.append(1) or _spectrum(*args))
        config = small_sweep_config(seeds=[0, 1])
        config["sweep"]["approaches"] = ALL_TRAINED
        records = run_sweep(config)
        assert all(r.status == "ok" for r in records)
        assert len(calls) == 2 * 2

    def test_agnostic_cells_share_a_descent(self, monkeypatch):
        # each seed's agnostic cells share one descent across the values;
        # the sweep equals its one-value sweeps, which share nothing
        rows = []
        descend = train_module._descend
        monkeypatch.setattr(train_module, "_descend",
                            lambda bt, *args: rows.append(len(bt.rows)) or descend(bt, *args))
        config = small_sweep_config(seeds=[0, 1])
        config["sweep"]["approaches"] = ALL_TRAINED
        whole = [non_timing(r) for r in run_sweep(config)]
        assert rows == [2 * 2 * len(ALL_TRAINED) - 2]
        parts = []
        for value in config["sweep"]["values"]:
            config["sweep"]["values"] = [value]
            parts += [non_timing(r) for r in run_sweep(config)]
        assert whole == parts

    def test_diverging_member_fails_alone(self):
        # steep eigenvalues make the task-aware objective diverge at this
        # rate while the identity objective of the agnostic mode stays calm
        config = small_sweep_config(seeds=[0])
        config["sweep"].update({
            "values": [4], "eig_profile": [40.0, 30.0, 20.0, 10.0],
            "approaches": ["task_aware_coding", "task_agnostic_coding"]})
        records = {r.approach: r for r in run_sweep(config)}
        inst = gen_synthetic(SyntheticSpec(n=8, z=2, a=6, b=6, r_plus_target=4,
                                           eig_profile=(40.0, 30.0, 20.0, 10.0),
                                           seed=0))
        with pytest.raises(DivergenceDetected) as alone:
            train(inst, TrainConfig(epochs=60, learning_rate=0.02, seed=0))
        assert records["task_aware_coding"].status == (
            f"failed: DivergenceDetected: {alone.value}")
        assert records["task_agnostic_coding"].status == "ok"
        assert records["analytic_construction"].status == "ok"
        config["sweep"]["approaches"] = ["task_agnostic_coding"]
        calm, = [r for r in run_sweep(config) if r.approach == "task_agnostic_coding"]
        assert non_timing(calm) == non_timing(records["task_agnostic_coding"])


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        records = run_sweep(small_sweep_config())
        records.append(ResultRecord(
            approach="task_aware_coding", sweep_param_name="r_plus",
            sweep_param_value=9.0, seed=3, L3=math.nan, L4=math.nan,
            L_total=math.nan, lower_bound=0.1234567890123456789,
            u56=math.nan, u13=math.nan, u24=math.nan, epochs_run=0,
            wall_ms=0.0, status="failed: InfeasibleSpec: joint rank 9, max 8"))
        path = tmp_path / "records.csv"
        write_csv(records, path)
        back = read_csv(path)
        assert len(back) == len(records)
        for got, want in zip(back, records):
            for name in _FIELD_NAMES:
                g, w = getattr(got, name), getattr(want, name)
                if isinstance(w, float) and math.isnan(w):
                    assert math.isnan(g)
                else:
                    assert g == w, name

    @pytest.mark.parametrize("edit, problem", [
        (lambda row: row + ["extra"], "15 cells, expected 14"),
        (lambda row: row[:-2], "12 cells, expected 14"),
        (lambda row: row[:3] + ["three"] + row[4:], "invalid literal for int"),
        (lambda row: row[:6] + ["low"] + row[7:], "could not convert string to float"),
    ], ids=["extra_cell", "short_row", "bad_int", "bad_float"])
    def test_malformed_row_rejected(self, tmp_path, edit, problem):
        record = ResultRecord(
            approach="task_aware_coding", sweep_param_name="r_plus",
            sweep_param_value=6.0, seed=1, L3=0.5, L4=0.25, L_total=0.75,
            lower_bound=0.5, u56=1.0, u13=1.0, u24=1.0, epochs_run=10,
            wall_ms=1.0, status="ok")
        path = tmp_path / "records.csv"
        write_csv([record, record], path)
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, ",".join(edit(second.split(",")))]) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path} line 3: {problem}")):
            read_csv(path)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,beta\n1,2\n")
        with pytest.raises(ConfigError):
            read_csv(path)


class TestReadConfig:
    def test_reads_json_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"sweep": {"param": "r_plus"}}))
        assert read_config(path)["sweep"]["param"] == "r_plus"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            read_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            read_config(path)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def instance_payload(instance):
    return json.loads(instance_to_json(instance))


# a JSON value of the wrong type for each declared field type of a config block
WRONG_TYPED = {"int": 2.5, "float": True, "bool": "no", "str": 5, "str | None": 5,
               "tuple | str | None": [1.0, "x"], "np.ndarray": "x"}


class TestCli:
    def test_analyze_instance_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "an.json",
                           {"instance": instance_payload(
                               achievable_dichotomy_instance())})
        out = tmp_path / "report.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["sufficient_ok"] is True
        assert report["necessary_ok"] is True
        assert "r_plus_34" in report

    def test_analyze_to_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "an2.json", {
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6,
                          "r_plus_target": 6, "seed": 0}})
        assert main(["analyze", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sf1_ok"] and report["sf2_ok"]

    def test_construct_emits_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"instance": instance_payload(
                               achievable_dichotomy_instance())})
        out = tmp_path / "code.json"
        assert main(["construct", "--config", cfg, "--out", str(out)]) == 0
        code = code_from_json(out.read_text())
        assert code.e13.shape == (1, 2)
        assert "L_total=" in capsys.readouterr().err

    def test_construct_unachievable_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "u.json",
                           {"instance": instance_payload(
                               unachievable_dichotomy_instance())})
        assert main(["construct", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol, status", [(None, 0), (0.1, 1)])
    def test_construct_that_misses_the_bound_fails(self, tmp_path, capsys, tol, status):
        # at rank_tol 0.1 the construction on the README's instance drops a
        # direction that its report counted, and L_total lands near 2
        # against a bound of 0 (CHANGES.md, FOUND 44)
        cfg = write_config(tmp_path, "analyze.json", readme_config("analyze.json"))
        args = ["construct", "--config", cfg, "--out", str(tmp_path / "code.json")]
        assert main(args + ([] if tol is None else ["--tol", str(tol)])) == status
        last = capsys.readouterr().err.strip().splitlines()[-1]
        fields = dict(item.split("=") for item in last.split() if "=" in item)
        assert float(fields["lower_bound"]) == 0.0
        if status:
            assert last.startswith("error: ") and float(fields["L_total"]) > 1.0
            assert not (tmp_path / "code.json").exists()
        else:
            assert float(fields["L_total"]) <= 1e-8

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tol", [0.0, 1e-16, 1e-14, None])
    def test_construct_agrees_with_the_report(self, tmp_path, capsys, tol):
        # construct reaches the bound where analyze reports sufficient_ok and
        # refuses where it does not, down to tolerances below rounding
        cfg = write_config(tmp_path, "analyze.json", readme_config("analyze.json"))
        flag = [] if tol is None else ["--tol", str(tol)]
        assert main(["analyze", "--config", cfg] + flag) == 0
        sufficient = json.loads(capsys.readouterr().out)["sufficient_ok"]
        status = main(["construct", "--config", cfg, "--out", str(tmp_path / "code.json")] + flag)
        last = capsys.readouterr().err.strip().splitlines()[-1]
        if sufficient:
            fields = {key: float(value) for key, value in (item.split("=") for item in last.split())}
            assert status == 0
            assert fields["L_total"] <= fields["lower_bound"] + 1e-8 * max(1.0, abs(fields["lower_bound"]))
        else:
            assert status == 1 and last.startswith("error: sufficient conditions fail"), last

    @pytest.mark.filterwarnings("error")
    def test_construction_out_of_pool_vectors_is_an_error(self, tmp_path, capsys, monkeypatch):
        # an InfeasibleExtension, which is no ValueError, reaching the CLI
        # exits 1 cleanly
        cfg = write_config(tmp_path, "pool.json", {
            "synthetic": {"n": 32, "z": 8, "a": 24, "b": 24, "r_plus_target": 20, "seed": 7},
            "train": {"mode": "coding_benchmark"}})
        flag = ["--tol", "1e-15"]
        with monkeypatch.context() as patch:
            def exhausted(spec, tol):
                raise InfeasibleExtension("pool exhausted after 7 of 8 extension vectors")
            patch.setattr(bench_module, "construct_lb_code", exhausted)
            assert main(["construct", "--config", cfg, "--out", str(tmp_path / "pool.out")]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1] == "error: pool exhausted after 7 of 8 extension vectors"
        assert "Traceback" not in err
        # the coding_benchmark start extends from no pool, so this cell,
        # whose pool once ran out at rank_tol 1e-15, trains
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "code.json")] + flag) == 0
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("final L_total=")
        assert math.isfinite(float(last.split()[1].removeprefix("L_total=")))
        # the analytic construction builds what analyze promised at 1e-15 on
        # this instance (n=6, a=5, b=4, z=2), with extensions of bases it
        # built inside their targets
        instance = random_pd_instance(np.random.default_rng(250), n_max=12)
        cfg = write_config(tmp_path, "built.json", {"instance": instance_payload(instance)})
        assert main(["analyze", "--config", cfg] + flag) == 0
        assert json.loads(capsys.readouterr().out)["sufficient_ok"] is True
        assert main(["construct", "--config", cfg, "--out", str(tmp_path / "built.out")] + flag) == 0
        last = capsys.readouterr().err.strip().splitlines()[-1]
        fields = {key: float(value) for key, value in (item.split("=") for item in last.split())}
        assert fields["L_total"] <= fields["lower_bound"] + 1e-8 * max(1.0, abs(fields["lower_bound"]))

    def test_train_with_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.csv"
        cfg = write_config(tmp_path, "t.json", {
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6,
                          "r_plus_target": 6, "seed": 0},
            "train": {"epochs": 40, "learning_rate": 0.02,
                      "trace_csv": str(trace_path)}})
        out = tmp_path / "trained.json"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        code_from_json(out.read_text())
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "epoch,L3,L4,L_total"
        assert len(lines) == 41
        assert "final L_total=" in capsys.readouterr().err

    def test_train_float_epochs_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tf.json", {
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6,
                          "r_plus_target": 6, "seed": 0},
            "train": {"epochs": 20.0}})
        assert main(["train", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert 'error: "epochs" must be an integer, got 20.0' in err

    def test_package_runs_as_a_module_without_warnings(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6, "r_plus_target": 6}})
        src = str(Path(butterfly_coding.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "butterfly_coding",
             "analyze", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["sufficient_ok"] is True

    @pytest.mark.parametrize("command, change, message", [
        ("analyze", {"tolerances": 5}, '"tolerances" must be an object'),
        ("analyze", {"tolerances": {"rank_tol": "1e-10"}},
         '"rank_tol" must be a real number, got \'1e-10\''),
        ("sweep", {"sweep": {"values": 6}}, '"values" must be a list'),
        ("sweep", {"sweep": {"approaches": "task_aware_coding"}},
         '"approaches" must be a list'),
        ("sweep", {"train": [1, 2]}, '"train" must be an object'),
        ("sweep", {"seeds": [1.5]}, '"seeds" must be integers, got 1.5'),
        ("sweep", {"sweep": {"n": 8.9}}, '"n" must be an integer, got 8.9'),
        ("sweep", {"sweep": {"values": [6.5]}}, '"values" must be integers, got 6.5'),
        ("analyze", {"instance": 5}, '"instance" must be an object, got 5'),
        ("analyze", {"synthetic": [1]}, '"synthetic" must be an object, got [1]'),
        ("pca", {"pca": 5}, '"pca" must be an object, got 5'),
        ("analyze", {"instance": {"samples_csv": ["1,2"]}},
         '"samples_csv" must be a string, got [\'1,2\']'),
        ("analyze", {"tolerance": {"rank_tol": 0.5}},
         '"tolerance" is an unknown top-level key'),
        ("pca", {"pca": {"taks": "k4"}}, '"taks" is an unknown key in "pca"'),
        ("analyze", {"instance": {"n": 2, "a": 2, "b": 2, "z": 1,
                                  "psi": [[1, {}], [0, 1]], "k3": [[1, 0]], "k4": [[0, 1]]}},
         '"psi" must be a nested number list, got [[1, {}], [0, 1]]'),
        ("analyze", {"instance": {"n": 2, "a": 2, "b": 2, "z": 1,
                                  "psi": [[1, 0], [0, 1]], "k3": [["1", 0]], "k4": [[0, 1]]}},
         '"k3" must be a nested number list'),
    ], ids=["tolerances", "rank_tol", "values", "approaches", "train", "seeds",
            "float_n", "float_value", "instance", "synthetic", "pca", "samples_csv",
            "top_level_key", "pca_key", "matrix_entry", "matrix_string"])
    def test_malformed_field_is_an_error(self, tmp_path, capsys, command,
                                         change, message):
        config = small_sweep_config(**{
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6, "r_plus_target": 6},
            **change})
        cfg = write_config(tmp_path, "bad.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, block, key, value", [
        pytest.param(command, block, key, value, id=f"{block}.{key}")
        for command, block, cls in [
            ("analyze", "synthetic", SyntheticSpec),
            ("sweep", "sweep", SyntheticSpec),
            ("train", "train", bench_module._TrainBlock),
            ("analyze", "tolerances", ToleranceConfig),
            ("analyze", "instance", ProblemInstance),
        ]
        for key, value in [(f.name, WRONG_TYPED[f.type]) for f in fields(cls)]
        + [("unknown_key", 0)]
    ])
    def test_block_field_of_wrong_type_is_an_error(self, tmp_path, capsys, command,
                                                   block, key, value):
        # the sweep block takes r_plus for r_plus_target and every cell's seed
        # from "seeds", so those two are unknown keys there
        source = ({"instance": instance_payload(achievable_dichotomy_instance())}
                  if block == "instance" else
                  {"synthetic": {"n": 8, "z": 2, "a": 6, "b": 6, "r_plus_target": 6}})
        config = {**small_sweep_config(), **source, "tolerances": {}}
        config[block] = {**config[block], key: value}
        cfg = write_config(tmp_path, "bad.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f'error: "{key}" '), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, message", [
        ("train", {"synthetic": {"n": 8, "z": 2, "a": 6, "b": 6, "r_plus_target": 6},
                   "train": {"epochs": 5, "init_scale": 1e308}},
         "init_scale must be at most"),
        *[(command, {"instance": {"n": 2, "a": 2, "b": 2, "z": 1, "psi": [[1, 0], [0, 1]],
                                  "k3": [[1e308, 0]], "k4": [[0, 1]]}},
           "k3 entries up to 1e+308")
          for command in ("analyze", "construct", "pca", "train")],
        # 1e13 epochs or samples ask for hundreds of TiB, past any address space
        *[(command, {**small_sweep_config(), "train": train_block,
                     "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6, "r_plus_target": 6}},
           "Unable to allocate")
          for train_block in ({"epochs": 10**13},
                              {"epochs": 5, "gradient": "empirical_batch",
                               "batch_size": 10**13})
          for command in ("train", "sweep")],
        ("analyze", {"instance": instance_payload(achievable_dichotomy_instance()),
                     "tolerances": {"rank_tol": 0.9}},
         "1/sqrt(2)"),
    ], ids=["init_scale", "analyze", "construct", "pca", "train",
            "epochs_train", "epochs_sweep", "batch_size_train", "batch_size_sweep",
            "rank_tol"])
    def test_out_of_range_input_is_an_error(self, tmp_path, capsys, command, config,
                                            message):
        # a start draw of range 2 * 1e308, task Gram products that overflow,
        # a training run too large to allocate, and a rank_tol at which the
        # intersections would normalize zero vectors each fail as a domain
        # error, with warnings as errors
        cfg = write_config(tmp_path, "big.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ") and message in err, err
        assert "Traceback" not in err

    def test_tol_flag_below_one_over_sqrt_two(self, tmp_path, capsys):
        # from rank_tol * sqrt(2) = 1 on, intersect's test passes orthogonal
        # directions; just below, analyze runs cleanly
        cfg = write_config(tmp_path, "t.json", {
            "instance": instance_payload(achievable_dichotomy_instance())})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--config", cfg, "--tol", "0.7071067811865474"]) == 0
            capsys.readouterr()
            assert main(["analyze", "--config", cfg, "--tol", "0.75"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1/sqrt(2)" in err, err

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, "s.json", small_sweep_config())
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        records = read_csv(out)
        assert len(records) == 8
        assert "wrote 8 records" in capsys.readouterr().err

    def test_pca_single_link(self, tmp_path, capsys):
        inst = achievable_dichotomy_instance()
        cfg = write_config(tmp_path, "p.json", {
            "instance": instance_payload(inst), "pca": {"task": "k4"}})
        assert main(["pca", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["task"] == "k4"
        _, _, loss = task_pca(spectrum(inst), "k4")
        assert abs(doc["loss"] - loss) <= 1e-12 * (1 + loss)
        assert np.asarray(doc["encoder"]).shape == (1, 3)

    def test_pca_capacity_past_n(self, tmp_path, capsys):
        # a capacity-4 link on n = 3 gets a 4-row encoder, its last row zero
        inst = achievable_dichotomy_instance()
        cfg = write_config(tmp_path, "p4.json", {
            "instance": {**instance_payload(inst), "z": 4}})
        assert main(["pca", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        encoder, decoder = np.asarray(doc["encoder"]), np.asarray(doc["decoder"])
        assert encoder.shape == (4, 3) and decoder.shape == (3, 4)
        assert not encoder[3].any() and not decoder[:, 3].any()

    def test_pca_bad_task(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "pb.json", {
            "instance": instance_payload(achievable_dichotomy_instance()),
            "pca": {"task": "k5"}})
        assert main(["pca", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_samples_csv_ingestion(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(5000, 3)) @ np.diag([1.0, 0.7, 0.4])
        lines = "\n".join(",".join(repr(float(v)) for v in row)
                          for row in samples)
        samples_path = tmp_path / "samples.csv"
        samples_path.write_text(lines + "\n")
        payload = instance_payload(achievable_dichotomy_instance())
        del payload["psi"]
        payload["samples_csv"] = str(samples_path)
        cfg = write_config(tmp_path, "ing.json", {"instance": payload})
        out = tmp_path / "rep.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert "r_plus_34" in json.loads(out.read_text())

    @pytest.mark.parametrize("command", ["analyze", "construct", "pca", "train"])
    def test_samples_csv_with_fewer_rows_than_coordinates(self, tmp_path, capsys, command):
        # four samples of six coordinates estimate a singular covariance,
        # which every command that factors it names as the cause
        samples = np.random.default_rng(1).normal(size=(4, 6))
        samples_path = tmp_path / "few.csv"
        samples_path.write_text("\n".join(",".join(repr(float(v)) for v in row)
                                          for row in samples) + "\n")
        rng = np.random.default_rng(2)
        cfg = write_config(tmp_path, "few.json", {
            "instance": {"samples_csv": str(samples_path), "a": 4, "b": 4, "z": 2,
                         "k3": rng.normal(size=(2, 6)).tolist(),
                         "k4": rng.normal(size=(2, 6)).tolist()},
            "train": {"epochs": 5, "mode": "coding_benchmark"}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and (
            "covariance is singular or not positive definite, e.g. estimated from "
            "fewer samples than coordinates") in last, last

    def test_tol_flag_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "tol.json", {
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6,
                          "r_plus_target": 6, "seed": 0}})
        assert main(["analyze", "--config", cfg, "--tol", "1e-8"]) == 0
        capsys.readouterr()

    def test_flat_tail_sentinel_in_synthetic_block(self, tmp_path, capsys):
        # same shorthand the sweep runner takes: two-level profile with
        # 2m - r_plus_target directions on the low shelf
        cfg = write_config(tmp_path, "ft.json", {
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6, "r_plus_target": 6,
                          "eig_profile": "flat_tail", "seed": 0}})
        assert main(["analyze", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r_plus_34"] == 6

    def test_bad_eig_profile_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bp.json", {
            "synthetic": {"n": 8, "z": 2, "a": 6, "b": 6, "r_plus_target": 6,
                          "eig_profile": "bogus", "seed": 0}})
        assert main(["analyze", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["analyze", "--config", str(tmp_path / "ghost.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_without_instance(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "empty.json", {})
        assert main(["analyze", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["resolve", "--config", "x.json"])
