"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
from collections import Counter
from dataclasses import replace

import pytest

import program
import run
from checks import check_records, csv_digest
from tracer import LAYERS, Span, Tracer, self_times
from workloads import CONSTRUCTION, WORKLOADS

bc = program.import_program()

TINY = {
    "sweep": {"param": "r_plus", "values": [4, 6], "approaches": ["task_aware_coding"],
              "n": 8, "z": 2, "a": 6, "b": 6, "eig_profile": "flat_tail"},
    "train": {"epochs": 5},
    "seeds": [3],
}


def test_self_time_subtracts_nested_children():
    spans = [
        Span(1, 0, 0, "bench.run_sweep", 0, 100),
        Span(2, 1, 1, "train.train", 10, 60),
        Span(3, 2, 1, "train.greedy_benchmark_code", 20, 30),
        Span(4, 1, 1, "code.utilities", 70, 90),
    ]
    assert self_times(spans) == {1: 30, 2: 40, 3: 10, 4: 20}


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(1, 0, 0, "a", 0, 100),
        Span(2, 1, 0, "b", 10, 50),
        Span(3, 1, 0, "c", 40, 70),
        Span(4, 1, 0, "d", 90, 120),  # runs past its parent's end
    ]
    assert self_times(spans)[1] == 100 - (60 + 10)


def test_self_times_add_up_to_the_top_level_spans():
    with Tracer(bc) as tracer:
        records = bc.bench.run_sweep(TINY)
    own = self_times(tracer.spans)
    top = sum(s.end - s.start for s in tracer.spans if s.parent == 0)
    assert sum(own.values()) == top
    assert all(v >= 0 for v in own.values())
    m = {key: value for key, (value, _) in tracer.metrics().items()}
    assert m["bench.run_sweep.calls"] == 1
    assert m["train.train.calls"] == 2
    assert m["train.epochs"] == 10
    assert m["subspace.svd_calls"] > 0 and m["code.lstsq_calls"] > 0
    assert m["bench.gen_synthetic.calls"] == tracer.cells == 2
    assert m["model.spectrum.per_cell"] == m["model.spectrum.calls"] / 2
    assert math.isclose(sum(m[f"{layer}.self_s"] for layer in LAYERS), top / 1e9)
    # every span inside run_sweep belongs to one of the two cells
    assert {s.cell for s in tracer.spans if s.parent} == {1, 2}
    assert len(records) == 2 + m["analytic.construct_lb_code.calls"]


def test_times_scale_by_the_reference_around_them():
    scaled = run.at_reference_speed([2.0, 3.0], [0.1, 0.3, 0.15])
    assert scaled == pytest.approx([2.0 * run.REFERENCE_S / 0.2,
                                    3.0 * run.REFERENCE_S / 0.225])


def test_tracer_restores_the_program():
    before = (bc.bench.train, bc.subspace.orthonormal_basis, bc.run_sweep)
    import numpy as np
    svd = np.linalg.svd
    with Tracer(bc):
        assert bc.bench.train is not before[0]
        assert np.linalg.svd is not svd
    assert (bc.bench.train, bc.subspace.orthonormal_basis, bc.run_sweep) == before
    assert np.linalg.svd is svd


def _good_records():
    return bc.run_sweep(TINY)


def test_checks_pass_on_the_program_output():
    records = _good_records()
    expected = {"task_aware_coding": 2,
                CONSTRUCTION: sum(r.approach == CONSTRUCTION for r in records)}
    assert check_records(records, expected) == []


@pytest.mark.parametrize("defect", [
    "below_bound", "construction_gap", "missing_record", "nan_loss",
])
def test_checks_reject_a_wrong_record(defect):
    records = _good_records()
    expected = dict(Counter(r.approach for r in records))
    built = next(i for i, r in enumerate(records) if r.approach == CONSTRUCTION)
    trained = next(i for i, r in enumerate(records) if r.approach != CONSTRUCTION)
    if defect == "below_bound":
        r = records[trained]
        records[trained] = replace(r, L_total=r.lower_bound - 1e-3)
    elif defect == "construction_gap":
        r = records[built]
        records[built] = replace(r, L_total=r.lower_bound + 1e-6)
    elif defect == "missing_record":
        del records[trained]
    else:
        records[trained] = replace(records[trained], L_total=math.nan)
    assert check_records(records, expected) != []


@pytest.fixture
def work_dir():
    path = program.ROOT / ".perfbench_work" / "tests"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)


def test_digest_ignores_only_the_timing_column(work_dir):
    path = work_dir / "sweep.csv"
    records = _good_records()
    bc.write_csv(records, path)
    base = csv_digest(path.read_text())
    bc.write_csv([replace(r, wall_ms=r.wall_ms + 1.0) for r in records], path)
    assert csv_digest(path.read_text()) == base
    bc.write_csv([replace(records[0], epochs_run=records[0].epochs_run + 1)]
                 + records[1:], path)
    assert csv_digest(path.read_text()) != base


def test_workload_configs_come_from_the_seed():
    for workload in WORKLOADS.values():
        assert workload.config(7) == workload.config(7)
        assert workload.config(7) != workload.config(8)
        assert workload.config(-1)["seeds"][0] >= 0
    paper = WORKLOADS["sweep_paper"]
    counts = paper.expected_counts(paper.config(0))
    assert counts[CONSTRUCTION] == 3
    assert counts["task_aware_coding"] == 5


def _contract():
    return json.loads((program.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_the_contract():
    contract = _contract()
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_runs_print_exactly_the_contract_metrics(work_dir):
    contract = _contract()
    runner = run.SweepRunner(bc, TINY, dict(Counter(r.approach for r in _good_records())),
                             work_dir / "sweep.csv")
    layers, _ = run.per_layer(runner, seconds=0)
    assert {n: u for n, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in contract["per_layer"]}
    totals, _ = run.end_to_end(runner, seconds=0)
    assert {n: u for n, (_, u) in totals.items()} == {
        m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert all(value > 0 for value, _ in totals.values())
    assert runner.problems == [] and runner.digest_problems() == []
