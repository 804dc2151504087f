"""Synthetic instance generation, the sweep runner, and the CLI.

Instances are built from standard-basis and rotated orthonormal eigenvectors
so the span ranks are exact integers by counting; the sweep runner reproduces
the loss-versus-rank and loss-versus-observability curves as CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .analytic import PreconditionNotMet, construct_lb_code, sufficient_report
from .code import exact_loss, utilities, code_to_json
from .model import (
    ProblemInstance,
    covariance_from_samples,
    instance_from_json,
    load_samples_csv,
    lower_bound,
    spectrum,
    task_pca,
    validate,
)
from .subspace import DEFAULT_TOL, InfeasibleExtension, ToleranceConfig, rank_of
from .train import (
    DivergenceDetected,
    TrainConfig,
    TrainJob,
    export_trace_csv,
    train,
    train_lockstep,
)


class InfeasibleSpec(ValueError):
    """The requested span ranks cannot be realized with these dimensions."""


class ConfigError(ValueError):
    """Experiment config is missing or malforms a required field."""


@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    z: int
    a: int
    b: int
    r_plus_target: int
    eig_profile: tuple | None = None
    keep_sf3: bool = True
    seed: int = 0


# the shared shelf falls by 2% of lo per direction, so its 51st value is 0
FLAT_TAIL_MAX_SHARED = 50


def flat_tail_profile(m: int, s: int, hi: float = 2.0, lo: float = 1.0) -> np.ndarray:
    """Descending eigenvalues with a gentle slope: m-s exclusive directions
    from hi down toward 1.1*lo, then s shared ones from lo down. The small
    dynamic range keeps plain gradient descent stable at the default rate.
    At most FLAT_TAIL_MAX_SHARED shared directions stay positive."""
    if not (0 <= s <= m):
        raise ValueError(f"need 0 <= s <= m, got m={m}, s={s}")
    if s > FLAT_TAIL_MAX_SHARED:
        raise InfeasibleSpec(
            f"flat_tail profile keeps at most {FLAT_TAIL_MAX_SHARED} shared "
            f"directions positive, got s={s}")
    k = m - s
    ex = hi - (hi - 1.1 * lo) * np.arange(k) / max(k, 1)
    sh = lo * (1.0 - 0.02 * np.arange(s))
    return np.concatenate([ex, sh])


def _profile(spec: SyntheticSpec, m: int) -> np.ndarray:
    if spec.eig_profile is None:
        mu = 2.0 * spec.z - np.arange(m)
    else:
        mu = np.asarray(spec.eig_profile, dtype=float)
    if mu.shape != (m,):
        raise InfeasibleSpec(
            f"eig_profile must supply exactly {m} values, got shape {mu.shape}")
    if np.any(mu <= 0) or np.any(np.diff(mu) > 0):
        raise InfeasibleSpec("eig_profile must be descending and positive")
    return mu


def _embed(n: int, coords: list[int], block: np.ndarray) -> np.ndarray:
    out = np.zeros((n, block.shape[1]))
    out[coords, :] = block
    return out


def _columns(n: int, cols: list[np.ndarray]) -> np.ndarray:
    return np.column_stack(cols) if cols else np.zeros((n, 0))


def gen_synthetic(spec: SyntheticSpec,
                  tol: ToleranceConfig = DEFAULT_TOL) -> ProblemInstance:
    """Identity-covariance instance whose task spans overlap in exactly
    2*min{2Z,n} - r_plus_target dimensions.

    keep_sf3 places the shared directions inside the observation overlap so
    the task intersection stays jointly observable; otherwise they sit
    generically across the coordinates left free by the exclusives, which
    shrinks each task's overlap with a single observation as a or b shrinks.
    """
    n, z, a, b = spec.n, spec.z, spec.a, spec.b
    if n < 1 or z < 1 or a < 0 or b < 0:
        raise InfeasibleSpec(f"bad dimensions n={n}, z={z}, a={a}, b={b}")
    if max(a, b) > n or a + b < n:
        raise InfeasibleSpec(f"need max(a,b) <= n <= a+b, got n={n}, a={a}, b={b}")
    m = min(2 * z, n)
    if not (m <= spec.r_plus_target <= min(2 * m, n)):
        raise InfeasibleSpec(
            f"r_plus_target {spec.r_plus_target} outside [{m}, {min(2 * m, n)}]")
    s = 2 * m - spec.r_plus_target
    k = m - s
    mu = _profile(spec, m)
    rng = np.random.default_rng(spec.seed)

    if spec.keep_sf3:
        overlap = list(range(n - b, a))
        o = len(overlap)
        spill3 = max(0, k - (n - b))
        spill4 = max(0, k - (n - a))
        if s + spill3 + spill4 > o:
            raise InfeasibleSpec(
                f"{s} shared plus {spill3 + spill4} spilled exclusive directions "
                f"exceed the observation overlap of size {o}")
        q_full = np.linalg.qr(rng.normal(size=(o, o)))[0] if o else np.zeros((0, 0))
        shared = _embed(n, overlap, q_full[:, :s])
        used = s
        ex3 = [np.eye(n)[:, c] for c in range(min(k, n - b))]
        if spill3:
            block = _embed(n, overlap, q_full[:, used:used + spill3])
            ex3 += [block[:, j] for j in range(spill3)]
            used += spill3
        ex4 = [np.eye(n)[:, c] for c in range(n - 1, n - 1 - min(k, n - a), -1)]
        if spill4:
            block = _embed(n, overlap, q_full[:, used:used + spill4])
            ex4 += [block[:, j] for j in range(spill4)]
    else:
        k3p = min(k, n - b)
        k4p = min(k, n - a)
        if k > k3p and k < n - a:
            raise InfeasibleSpec(
                "task-3 exclusives would leave the first observation's span")
        if k > k4p and k < n - b:
            raise InfeasibleSpec(
                "task-4 exclusives would leave the second observation's span")
        ex3_coords = list(range(k3p))
        ex4_coords = list(range(n - 1, n - 1 - k4p, -1))
        taken = set(ex3_coords) | set(ex4_coords)
        rest = [c for c in range(n) if c not in taken]
        need = s + (k - k3p) + (k - k4p)
        if need > len(rest):
            raise InfeasibleSpec(
                f"{need} generic directions needed but only {len(rest)} "
                f"coordinates remain")
        q = (np.linalg.qr(rng.normal(size=(len(rest), need)))[0]
             if need else np.zeros((len(rest), 0)))
        shared = _embed(n, rest, q[:, :s])
        ex3 = [np.eye(n)[:, c] for c in ex3_coords]
        spill = _embed(n, rest, q[:, s:s + (k - k3p)])
        ex3 += [spill[:, j] for j in range(k - k3p)]
        ex4 = [np.eye(n)[:, c] for c in ex4_coords]
        spill = _embed(n, rest, q[:, s + (k - k3p):need])
        ex4 += [spill[:, j] for j in range(k - k4p)]

    u3 = np.hstack([_columns(n, ex3), shared])
    u4 = np.hstack([_columns(n, ex4), shared])
    root = np.sqrt(mu)
    instance = validate(
        ProblemInstance(n=n, psi=np.eye(n), a=a, b=b, z=z,
                        k3=root[:, None] * u3.T, k4=root[:, None] * u4.T),
        tol,
    )
    got = rank_of(np.hstack([u3, u4]), tol)
    if got != spec.r_plus_target:
        raise InfeasibleSpec(
            f"generated spectrum has joint task rank {got}, "
            f"wanted {spec.r_plus_target}")
    return instance


_APPROACHES = (
    "analytic_construction",
    "task_aware_coding",
    "task_aware_no_coding",
    "task_agnostic_coding",
    "coding_benchmark",
)


@dataclass(frozen=True)
class ResultRecord:
    approach: str
    sweep_param_name: str
    sweep_param_value: float
    seed: int
    L3: float
    L4: float
    L_total: float
    lower_bound: float
    u56: float
    u13: float
    u24: float
    epochs_run: int
    wall_ms: float
    status: str


_FIELD_NAMES = tuple(f.name for f in fields(ResultRecord))
_SWEEP_ERRORS = (
    PreconditionNotMet, DivergenceDetected, InfeasibleSpec,
    InfeasibleExtension, ValueError, np.linalg.LinAlgError,
)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"config is missing \"{key}\" in {where}")
    return mapping[key]


def _train_config(config: dict, overrides: dict | None = None) -> TrainConfig:
    params = dict(config.get("train", {}))
    params.pop("trace_csv", None)
    if overrides:
        params.update(overrides)
    try:
        return TrainConfig(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad train settings: {exc}") from exc


def _tolerance(config: dict) -> ToleranceConfig:
    return ToleranceConfig(
        rank_tol=config.get("tolerances", {}).get("rank_tol", 1e-10))


def _eig_profile(profile_cfg, n: int, z: int, r_plus: int) -> tuple | None:
    """The eig_profile a config asks for: none, a number list, or the
    "flat_tail" sentinel sized to the instance's joint task rank."""
    if profile_cfg is None:
        return None
    if profile_cfg == "flat_tail":
        m = min(2 * z, n)
        return tuple(flat_tail_profile(m, 2 * m - r_plus))
    try:
        return tuple(float(x) for x in profile_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"eig_profile must be a number list or \"flat_tail\": {exc}") from exc


# Cap on each (members, n, n) float array of a lockstep batch, and so on the
# members trained at once (a batch holds 20-24 such arrays). Batching pays
# while per-call overhead dominates an epoch and stops paying once a batch
# outgrows the cache: measured on one thread of a 2-vCPU Xeon, the per-member
# epoch time was best at 16-32 members for n=32 and 4-8 for n=64, and at
# n=128 rose from 1.85 ms alone to 2.2-2.4 ms in batches of 2-8. 192 KiB
# gives 24 members at n=32, 6 at n=64 and 1 from n=128 up.
_LOCKSTEP_BYTES = 192 * 2**10


@dataclass(frozen=True)
class _TrainedCell:
    approach: str
    value: float
    seed: int
    instance: ProblemInstance
    lower_bound: float


def _lockstep_batches(cells: list[_TrainedCell]) -> list[list[_TrainedCell]]:
    """Cells grouped by instance dimensions (n, a, b, z), in first-seen
    order, and cut to at most _LOCKSTEP_BYTES per (members, n, n) array."""
    groups: dict[tuple, list[_TrainedCell]] = {}
    for cell in cells:
        inst = cell.instance
        groups.setdefault((inst.n, inst.a, inst.b, inst.z), []).append(cell)
    batches = []
    for (n, _, _, _), group in groups.items():
        size = max(1, _LOCKSTEP_BYTES // (8 * n * n))
        batches += [group[i:i + size] for i in range(0, len(group), size)]
    return batches


def _ok_record(approach, param, value, seed, lb, code, instance, epochs_run,
               started, tol, shared_s=0.0) -> ResultRecord:
    """The record of a finished cell, evaluated now; its wall time runs from
    `started`, plus `shared_s` of batch time spent before that."""
    l3, l4, total = exact_loss(code, instance)
    u56, u13, u24 = utilities(code, instance, tol)
    return ResultRecord(
        approach=approach,
        sweep_param_name=param,
        sweep_param_value=float(value),
        seed=seed,
        L3=l3, L4=l4, L_total=total,
        lower_bound=lb,
        u56=u56, u13=u13, u24=u24,
        epochs_run=epochs_run,
        wall_ms=(shared_s + time.perf_counter() - started) * 1e3,
        status="ok",
    )


def run_sweep(config: dict, tol: ToleranceConfig | None = None) -> list[ResultRecord]:
    sweep = _require(config, "sweep", "the top level")
    param = _require(sweep, "param", "\"sweep\"")
    values = _require(sweep, "values", "\"sweep\"")
    approaches = list(_require(sweep, "approaches", "\"sweep\""))
    if param not in ("r_plus", "a"):
        raise ConfigError(f"sweep param must be \"r_plus\" or \"a\", got {param!r}")
    for approach in approaches:
        if approach not in _APPROACHES:
            raise ConfigError(f"unknown approach {approach!r}")
    if tol is None:
        tol = _tolerance(config)
    seeds = [int(s) for s in config.get("seeds", [0])]
    base_cfg = _train_config(config)
    n = int(sweep.get("n", 32))
    z = int(sweep.get("z", 8))
    keep_sf3 = bool(sweep.get("keep_sf3", True))
    profile_cfg = sweep.get("eig_profile")

    records: list[ResultRecord] = []
    trained: list[_TrainedCell] = []
    for value in values:
        if param == "r_plus":
            a = int(sweep.get("a", 24))
            b = int(sweep.get("b", a))
            r_plus = int(value)
        else:
            a = b = int(value)
            r_plus = int(sweep.get("r_plus", 24))

        todo = list(approaches)
        auto_construct = bool(approaches) and "analytic_construction" not in approaches
        for seed in seeds:
            instance = None
            report = None
            lb = math.nan
            try:
                profile = _eig_profile(profile_cfg, n, z, r_plus)
                instance = gen_synthetic(
                    SyntheticSpec(n=n, z=z, a=a, b=b, r_plus_target=r_plus,
                                  eig_profile=profile, keep_sf3=keep_sf3,
                                  seed=seed),
                    tol,
                )
                spec_obj = spectrum(instance, tol)
                lb = lower_bound(spec_obj, z)
                report = sufficient_report(spec_obj, instance, tol)
            except ConfigError:
                raise
            except _SWEEP_ERRORS as exc:
                for approach in todo:
                    records.append(_failed_record(
                        approach, param, value, seed, lb, exc))
                continue
            cell = todo + (["analytic_construction"]
                           if auto_construct and report.sufficient_ok else [])
            for approach in cell:
                if approach != "analytic_construction":
                    trained.append(_TrainedCell(approach, value, seed, instance, lb))
                    continue
                t0 = time.perf_counter()
                try:
                    code = construct_lb_code(spectrum(instance, tol), instance, tol)
                    records.append(_ok_record(
                        approach, param, value, seed, lb, code, instance, 0,
                        t0, tol))
                except _SWEEP_ERRORS as exc:
                    records.append(_failed_record(
                        approach, param, value, seed, lb, exc))

    for batch in _lockstep_batches(trained):
        t0 = time.perf_counter()
        results = train_lockstep(
            [TrainJob(cell.instance, replace(base_cfg, mode=cell.approach, seed=cell.seed))
             for cell in batch], tol)
        share = (time.perf_counter() - t0) / len(batch)
        for cell, result in zip(batch, results):
            args = (cell.approach, param, cell.value, cell.seed, cell.lower_bound)
            if isinstance(result, Exception):
                records.append(_failed_record(*args, result))
                continue
            code, trace = result
            try:
                records.append(_ok_record(
                    *args, code, cell.instance, trace.shape[0],
                    time.perf_counter(), tol, share))
            except _SWEEP_ERRORS as exc:
                records.append(_failed_record(*args, exc))
    records.sort(key=_record_order)
    return records


def _record_order(rec: ResultRecord):
    approach_rank = (_APPROACHES.index(rec.approach)
                     if rec.approach in _APPROACHES else len(_APPROACHES))
    return (rec.sweep_param_value, approach_rank, rec.seed)


def _failed_record(approach, param, value, seed, lb, exc) -> ResultRecord:
    return ResultRecord(
        approach=approach,
        sweep_param_name=param,
        sweep_param_value=float(value),
        seed=int(seed),
        L3=math.nan, L4=math.nan, L_total=math.nan,
        lower_bound=lb,
        u56=math.nan, u13=math.nan, u24=math.nan,
        epochs_run=0,
        wall_ms=0.0,
        status=f"failed: {type(exc).__name__}: {exc}",
    )


def write_csv(records: list[ResultRecord], path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_FIELD_NAMES)
            for rec in records:
                writer.writerow([_format_cell(getattr(rec, name))
                                 for name in _FIELD_NAMES])
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc


def _format_cell(value):
    # plain float() first: numpy scalars repr as "np.float64(...)" otherwise
    if isinstance(value, float):
        return repr(float(value))
    return value


def read_csv(path) -> list[ResultRecord]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if tuple(header or ()) != _FIELD_NAMES:
                raise ConfigError(f"unexpected CSV header in {path}: {header}")
            out = []
            for row in reader:
                named = dict(zip(_FIELD_NAMES, row))
                out.append(ResultRecord(
                    approach=named["approach"],
                    sweep_param_name=named["sweep_param_name"],
                    sweep_param_value=float(named["sweep_param_value"]),
                    seed=int(named["seed"]),
                    L3=float(named["L3"]),
                    L4=float(named["L4"]),
                    L_total=float(named["L_total"]),
                    lower_bound=float(named["lower_bound"]),
                    u56=float(named["u56"]),
                    u13=float(named["u13"]),
                    u24=float(named["u24"]),
                    epochs_run=int(named["epochs_run"]),
                    wall_ms=float(named["wall_ms"]),
                    status=named["status"],
                ))
            return out
    except OSError as exc:
        raise OSError(f"cannot read records from {path}: {exc}") from exc


def read_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config


def _instance_from_config(config: dict, tol: ToleranceConfig) -> ProblemInstance:
    if "instance" in config:
        block = dict(config["instance"])
        samples_path = block.pop("samples_csv", None)
        if samples_path is not None:
            psi = covariance_from_samples(load_samples_csv(samples_path))
            block["psi"] = psi.tolist()
            block.setdefault("n", psi.shape[0])
        try:
            return instance_from_json(json.dumps(block), tol)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad \"instance\" block: {exc}") from exc
    if "synthetic" in config:
        block = dict(config["synthetic"])
        try:
            block["eig_profile"] = _eig_profile(
                block.get("eig_profile"), int(block["n"]), int(block["z"]),
                int(block["r_plus_target"]))
            spec = SyntheticSpec(**block)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad \"synthetic\" block: {exc}") from exc
        return gen_synthetic(spec, tol)
    raise ConfigError("config needs an \"instance\" or \"synthetic\" section")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise OSError(f"cannot write output to {out}: {exc}") from exc
    else:
        print(text)


def _cmd_analyze(config, out, tol) -> int:
    instance = _instance_from_config(config, tol)
    report = sufficient_report(spectrum(instance, tol), instance, tol)
    _emit(json.dumps(report.to_dict(), indent=2), out)
    return 0


def _cmd_construct(config, out, tol) -> int:
    instance = _instance_from_config(config, tol)
    spec = spectrum(instance, tol)
    code = construct_lb_code(spec, instance, tol)
    _, _, total = exact_loss(code, instance)
    _emit(code_to_json(code), out)
    print(f"L_total={float(total)!r} "
          f"lower_bound={float(lower_bound(spec, instance.z))!r}",
          file=sys.stderr)
    return 0


def _cmd_train(config, out, tol) -> int:
    instance = _instance_from_config(config, tol)
    cfg = _train_config(config)
    code, trace = train(instance, cfg, tol=tol)
    _emit(code_to_json(code), out)
    trace_path = config.get("train", {}).get("trace_csv")
    if trace_path:
        export_trace_csv(trace, trace_path)
    print(f"final L_total={float(trace[-1, 2])!r} after {trace.shape[0]} epochs",
          file=sys.stderr)
    return 0


def _cmd_sweep(config, out, tol) -> int:
    records = run_sweep(config, tol)
    write_csv(records, out or "sweep.csv")
    print(f"wrote {len(records)} records to {out or 'sweep.csv'}",
          file=sys.stderr)
    return 0


def _cmd_pca(config, out, tol) -> int:
    instance = _instance_from_config(config, tol)
    which = config.get("pca", {}).get("task", "k3")
    if which not in ("k3", "k4"):
        raise ConfigError(f"pca task must be \"k3\" or \"k4\", got {which!r}")
    k = instance.k3 if which == "k3" else instance.k4
    encoder, decoder, loss = task_pca(k, instance.psi, instance.z, tol)
    _emit(json.dumps({
        "task": which,
        "encoder": encoder.tolist(),
        "decoder": decoder.tolist(),
        "loss": loss,
    }, indent=2), out)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "pca": _cmd_pca,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="butterfly-coding",
        description="Task-aware linear coding over the butterfly network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("analyze", "print the achievability report for an instance"),
        ("construct", "emit a bound-achieving code as JSON"),
        ("train", "gradient-descent training; emits the trained code"),
        ("sweep", "run a parameter sweep and write a CSV of records"),
        ("pca", "single-link task PCA for one task matrix"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the rank tolerance")
    args = parser.parse_args(argv)
    try:
        config = read_config(args.config)
        if args.tol is not None:
            tol = ToleranceConfig(rank_tol=args.tol)
        else:
            tol = _tolerance(config)
        return _COMMANDS[args.command](config, args.out, tol)
    except (ConfigError, InfeasibleSpec, PreconditionNotMet,
            DivergenceDetected, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
