import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from butterfly_coding import (
    ConfigError,
    DivergenceDetected,
    InfeasibleSpec,
    ResultRecord,
    SyntheticSpec,
    TrainConfig,
    flat_tail_profile,
    gen_synthetic,
    instance_to_json,
    lower_bound_of,
    main,
    rank_of,
    read_config,
    read_csv,
    run_sweep,
    spectrum,
    sufficient_report,
    task_pca,
    train,
    write_csv,
)
import butterfly_coding.bench as bench_module
from butterfly_coding.bench import (
    _FIELD_NAMES,
    FLAT_TAIL_MAX_SHARED,
    _format_cell,
    _lockstep_batches,
)
from butterfly_coding import code_from_json

from conftest import achievable_dichotomy_instance, unachievable_dichotomy_instance


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
        assert rank_of(np.vstack([inst.k3, inst.k4]).T) == 16
        rep = sufficient_report(spectrum(inst), inst)
        assert rep.r_plus_34 == 16
        assert rep.sf1_ok and rep.sf2_ok and rep.necessary_ok

    def test_full_scale_with_exclusives(self):
        spec = SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=24, seed=1)
        inst = gen_synthetic(spec)
        assert rank_of(np.vstack([inst.k3, inst.k4]).T) == 24
        rep = sufficient_report(spectrum(inst), inst)
        assert rep.sufficient_ok
        # default eigenvalues vanish past index 2Z, so the bound is zero
        assert lower_bound_of(inst) == 0.0

    def test_necessary_follows_joint_rank(self):
        for target, want in ((20, True), (24, True), (25, False), (32, False)):
            spec = SyntheticSpec(n=32, z=8, a=24, b=24,
                                 r_plus_target=target, seed=2)
            inst = gen_synthetic(spec)
            rep = sufficient_report(spectrum(inst), inst)
            assert rep.necessary_ok == want, target
            assert rep.sf1_ok and rep.sf2_ok

    def test_generic_placement_starves_small_observations(self):
        m = 16
        prof = flat_tail_profile(m, 2 * m - 18)
        small = gen_synthetic(SyntheticSpec(
            n=32, z=8, a=16, b=16, r_plus_target=18,
            eig_profile=prof, keep_sf3=False, seed=0))
        rep = sufficient_report(spectrum(small), small)
        assert not rep.necessary_ok
        assert rep.sf1_ok and rep.sf2_ok
        wide = gen_synthetic(SyntheticSpec(
            n=32, z=8, a=24, b=24, r_plus_target=18,
            eig_profile=prof, keep_sf3=False, seed=0))
        rep = sufficient_report(spectrum(wide), wide)
        assert rep.sufficient_ok

    def test_target_out_of_range(self):
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24,
                                        r_plus_target=33, seed=0))
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24,
                                        r_plus_target=15, seed=0))

    def test_bad_profiles_rejected(self):
        base = dict(n=8, z=2, a=6, b=6, r_plus_target=6, seed=0)
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(eig_profile=(3.0, 2.0), **base))
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(eig_profile=(1.0, 2.0, 3.0, 4.0), **base))
        with pytest.raises(InfeasibleSpec):
            gen_synthetic(SyntheticSpec(eig_profile=(2.0, 1.0, 0.0, -1.0), **base))

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

    def test_missing_sweep_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep({"train": {}})

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
        monkeypatch.setattr(bench_module, "_LOCKSTEP_BYTES", 1)
        assert [non_timing(r) for r in run_sweep(config)] == together

    def test_batches_shrink_as_n_grows(self):
        def sizes(n, cells):
            cell = SimpleNamespace(instance=SimpleNamespace(n=n, a=n, b=n, z=1))
            return [len(batch) for batch in _lockstep_batches([cell] * cells)]

        assert sizes(32, 30) == [24, 6]
        assert sizes(64, 7) == [6, 1]
        assert sizes(128, 3) == [1, 1, 1]

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
        _, _, loss = task_pca(inst.k4, inst.psi, inst.z)
        assert abs(doc["loss"] - loss) <= 1e-12 * (1 + loss)
        assert np.asarray(doc["encoder"]).shape == (1, 3)

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
