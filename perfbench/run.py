"""Sweep benchmark for butterfly_coding.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process runs one sweep after another (a
closed loop with one client) on the workload's generated config until
`--seconds` have passed, with BLAS pinned to one thread and the process and
its children pinned to one CPU. Each sweep is `bench.run_sweep` followed by
`bench.write_csv`, as the CLI's `sweep` command does it. Every sweep's
records are checked (see checks.py) and its CSV digested; all sweeps of a run
must give the same digest.

`--trace 0` prints the end-to-end metrics:
  setup_s      median time to import the package and its dependencies and
               warm up BLAS, over SETUP_PROBES fresh processes, each scaled
               to DEPENDENCIES_S for importing numpy and scipy.linalg
  sweep_s      median time of one sweep
  cells_per_s  status-ok records per sweep divided by sweep_s
  peak_rss_mb  peak resident memory of this process
Scaling cancels the drift of a shared machine's speed (see
at_reference_speed); the report gives the wall-clock figures as well. `--trace 1` alternates untraced
and traced sweeps and prints the per-layer metrics of the traced ones (median
over sweeps, wall clock), plus the tracing overhead: traced minus untraced
sweep time, both scaled like sweep_s.

Before the metrics the run prints a report: the machine facts, the workload's
config and why it was chosen, the digest and any failed check. The last line
is one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 means every check passed, 1 that a check failed, 2 that the
program could not be set up.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program
from checks import check_records, csv_digest
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

SETUP_PROBES = 15
# seconds that the reported times are scaled to: the reference kernel's for
# sweeps, importing numpy and scipy.linalg for set-up
REFERENCE_S = 0.15
DEPENDENCIES_S = 0.35
MIN_SWEEPS = 3
PROBE_TIMEOUT_S = 60
WORK_DIR = program.ROOT / ".perfbench_work"


def measure_setup() -> list[tuple[float, float]]:
    """(seconds importing the dependencies, seconds of the whole set-up) of
    SETUP_PROBES fresh set-ups, each in its own process."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(Path(program.__file__).resolve())],
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        dependencies_s, setup_s = done.stdout.split()[-2:]
        probes.append((float(dependencies_s), float(setup_s)))
    return probes


def blas_threads() -> dict[str, int]:
    """Thread count each bundled OpenBLAS reports, by library file name."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    out[Path(path).name] = getter()
                    break
    return out


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads_pinned": int(program.BLAS_THREADS),
        "blas_threads_reported": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


class SweepRunner:
    """Runs one workload config through the program and checks each sweep."""

    def __init__(self, package, config: dict, expected: dict, csv_path: Path):
        self.package = package
        self.config = config
        self.expected = expected
        self.csv_path = csv_path
        self.digests = set()
        self.problems: list[str] = []
        self.records = self.failed = self.ok = 0
        self.excess: list[float] = []

    def sweep(self) -> float:
        """One timed sweep; returns its wall time in seconds."""
        bench = self.package.bench
        t0 = time.perf_counter()
        records = bench.run_sweep(self.config)
        bench.write_csv(records, self.csv_path)
        elapsed = time.perf_counter() - t0
        self._check(records)
        return elapsed

    def _check(self, records):
        self.digests.add(csv_digest(self.csv_path.read_text()))
        for problem in check_records(records, self.expected):
            if problem not in self.problems:
                self.problems.append(problem)
        ok = [r for r in records if r.status == "ok"]
        self.records += len(records)
        self.ok += len(ok)
        self.failed += len(records) - len(ok)
        self.excess = [r.L_total - r.lower_bound for r in ok
                       if r.approach == "task_aware_coding"]

    def digest_problems(self) -> list[str]:
        if len(self.digests) > 1:
            return [f"sweeps of one config gave {len(self.digests)} different "
                    f"CSV digests"]
        return []


def reference_s() -> float:
    """Wall time of a fixed kernel that does not use the program: a Python
    loop, small matrix products and SVDs, the mix the sweeps spend time on."""
    import numpy as np

    rng = np.random.default_rng(0)
    small, big = rng.normal(size=(48, 48)), rng.normal(size=(128, 128))
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    x = small
    for _ in range(2000):
        x = np.tanh(small @ x * 0.01)
    for _ in range(20):
        np.linalg.svd(big)
    return time.perf_counter() - t0


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Each time scaled to a machine on which the reference kernel takes
    REFERENCE_S; refs[i] and refs[i + 1] were taken just before and after
    times[i].

    On a shared two-core virtual machine the speed drifted by up to 1.6x
    within a minute, slowing the program and the reference alike; scaled
    times of runs made at different moments compare, wall times do not.
    """
    return [t * REFERENCE_S / (0.5 * (before + after))
            for t, before, after in zip(times, refs, refs[1:])]


def end_to_end(runner: SweepRunner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, plus the raw wall-clock timings for the report."""
    probes = measure_setup()
    times, refs = [], [reference_s()]
    start = time.perf_counter()
    while len(times) < MIN_SWEEPS or time.perf_counter() - start < seconds:
        times.append(runner.sweep())
        refs.append(reference_s())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cells = runner.ok / len(times)
    sweep_s = statistics.median(at_reference_speed(times, refs))
    metrics = {
        "setup_s": (statistics.median(
            total * DEPENDENCIES_S / deps for deps, total in probes), "s"),
        "sweep_s": (sweep_s, "s"),
        "cells_per_s": (cells / sweep_s, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    notes = {
        "wall_setup_s": statistics.median(total for _, total in probes),
        "wall_sweep_s": statistics.median(times),
        "wall_cells_per_s": cells / statistics.median(times),
        "setup_probes_s": probes,
        "sweep_times_s": times,
        "reference_times_s": refs,
    }
    return metrics, notes


def per_layer(runner: SweepRunner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics of the traced sweeps, plus notes for the report."""
    times, refs, samples = [], [reference_s()], []
    start = time.perf_counter()
    while len(samples) < MIN_SWEEPS or time.perf_counter() - start < seconds:
        times.append(runner.sweep())
        refs.append(reference_s())
        with Tracer(runner.package) as tracer:
            times.append(runner.sweep())
        refs.append(reference_s())
        samples.append(tracer.metrics())
    out = {key: (statistics.median(s[key][0] for s in samples), unit)
           for key, (_, unit) in samples[0].items()}
    out["bench.csv_bytes"] = (runner.csv_path.stat().st_size, "B")
    out["train.task_aware_excess"] = (
        statistics.fmean(runner.excess) if runner.excess else 0.0, "1")
    scaled = at_reference_speed(times, refs)
    out["trace.overhead_s"] = (
        statistics.median(scaled[1::2]) - statistics.median(scaled[0::2]), "s")
    notes = {
        "layer_self_share": layer_shares(out),
        "sweep_times_s": times[0::2],
        "traced_sweep_times_s": times[1::2],
        "reference_times_s": refs,
    }
    return out, notes


def layer_shares(metrics: dict) -> dict[str, float]:
    """Each layer's share of the traced self time, for the report."""
    layer_s = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS}
    total = sum(layer_s.values())
    return {layer: s / total if total else 0.0 for layer, s in layer_s.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.pin_blas()
    try:
        package = program.import_program()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    program.warm_blas()
    machine = machine_facts()
    machine["pinned_cpu"] = program.pin_cpu()

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    expected = workload.expected_counts(config)
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = SweepRunner(package, config, expected, work / "sweep.csv")
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = runner.problems + runner.digest_problems()
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "config": config,
        "expected_records": expected,
        "machine": machine,
        "digest": sorted(runner.digests),
        "problems": problems,
        **notes,
    }
    print(json.dumps({"report": report}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.records,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
