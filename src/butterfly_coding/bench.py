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
import numbers
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .analytic import PreconditionNotMet, construct_lb_code, sufficient_report
from .code import exact_loss, utilities, code_to_json
from .model import (
    ProblemInstance,
    _non_reals,
    covariance_from_samples,
    load_samples_csv,
    lower_bound,
    spectrum,
    task_pca,
    validate,
)
from .subspace import DEFAULT_TOL, Basis, InfeasibleExtension, ToleranceConfig, _join_dim
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
    # descending eigenvalues, FLAT_TAIL for flat_tail_profile sized to the
    # instance, or None for 2Z, 2Z-1, ...
    eig_profile: tuple | str | None = None
    keep_sf3: bool = True
    seed: int = 0


FLAT_TAIL = "flat_tail"
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
    elif isinstance(spec.eig_profile, str):
        if spec.eig_profile != FLAT_TAIL:
            raise InfeasibleSpec(
                f"eig_profile must be a number list or \"{FLAT_TAIL}\", "
                f"got {spec.eig_profile!r}")
        mu = flat_tail_profile(m, 2 * m - spec.r_plus_target)
    else:
        mu = np.asarray(spec.eig_profile, dtype=float)
    if mu.shape != (m,):
        raise InfeasibleSpec(
            f"eig_profile must supply exactly {m} values, got shape {mu.shape}")
    if np.any(mu <= 0) or np.any(np.diff(mu) > 0):
        raise InfeasibleSpec("eig_profile must be descending and positive")
    return mu


def gen_synthetic(spec: SyntheticSpec,
                  tol: ToleranceConfig = DEFAULT_TOL) -> ProblemInstance:
    """Identity-covariance instance whose task spans overlap in exactly
    s = 2*min{2Z,n} - r_plus_target dimensions.

    Each task's k = min{2Z,n} - s exclusive directions take the axes at its
    end of x, up to min{k, n-b} for task 3 and min{k, n-a} for task 4; the
    shared directions, then the exclusives left over, are columns of one
    random orthonormal block on a coordinate pool. With keep_sf3 the pool is
    the observation overlap n-b ... a-1, so the task intersection stays
    jointly observable; otherwise it is every coordinate no axis takes.
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
    eye = np.eye(n)

    k3, k4 = min(k, n - b), min(k, n - a)
    need = s + (k - k3) + (k - k4)
    if spec.keep_sf3:
        pool = np.arange(n - b, a)
        if need > pool.size:
            raise InfeasibleSpec(
                f"{s} shared plus {need - s} spilled exclusive directions "
                f"exceed the observation overlap of size {pool.size}")
    else:
        if k > k3 and k < n - a:
            raise InfeasibleSpec(
                "task-3 exclusives would leave the first observation's span")
        if k > k4 and k < n - b:
            raise InfeasibleSpec(
                "task-4 exclusives would leave the second observation's span")
        # n - k3 - k4 >= need, as that reads r_plus_target = s + 2k <= n
        pool = np.arange(k3, n - k4)
    # keep_sf3 draws a square block over the whole overlap and uses its first
    # `need` columns; a seed's instance depends on that width
    width = pool.size if spec.keep_sf3 else need
    block = np.zeros((n, width))
    if width:
        block[pool] = np.linalg.qr(rng.normal(size=(pool.size, width)))[0]
    shared, spill = block[:, :s], block[:, s:need]
    u3 = np.hstack([eye[:, :k3], spill[:, :k - k3], shared])
    u4 = np.hstack([eye[:, ::-1][:, :k4], spill[:, k - k3:], shared])
    root = np.sqrt(mu)
    instance = validate(
        ProblemInstance(n=n, psi=eye, a=a, b=b, z=z,
                        k3=root[:, None] * u3.T, k4=root[:, None] * u4.T),
        tol,
    )
    # dim join: the larger basis and the directions of the other outside it,
    # counted without building the join
    got = _join_dim(Basis(u3), Basis(u4), tol)
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
# each CSV column parsed by its field's declared type (a string here, since
# annotations are postponed)
_FIELD_PARSERS = tuple({"str": str, "int": int, "float": float}[f.type]
                       for f in fields(ResultRecord))
# the "sweep" block's own keys; the rest are the cells' SyntheticSpec fields
_SWEEP_KEYS = ("param", "values", "approaches", "r_plus")
# the domain errors: a sweep records them as a failed cell, and the CLI
# reports them as `error: ...` (ConfigError, InfeasibleSpec, the model's
# errors and np.linalg.LinAlgError are all ValueErrors)
_SWEEP_ERRORS = (ValueError, InfeasibleExtension, PreconditionNotMet, DivergenceDetected)


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"config is missing \"{key}\" in {where}")
    return mapping[key]


def _typed(value, kind, field: str, what: str):
    """`value` if it is a `kind`, else a ConfigError naming the field. A bool
    never passes, although Python counts it as an int."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"\"{field}\" must be {what}, got {value!r}")
    return value


def _integer(value, field: str, what: str = "an integer") -> int:
    return int(_typed(value, (int, np.integer), field, what))


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# what next() returns once _non_reals runs out; it may yield {}, False or None
_END = object()
# the JSON values a config field takes, by its declared type (a string, as
# in _FIELD_PARSERS); a bool is never a number
_JSON_TYPES = {
    "int": (lambda v: _real(v) and isinstance(v, (int, np.integer)), "an integer"),
    "float": (_real, "a real number"),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string"),
    "np.ndarray": (lambda v: isinstance(v, (list, np.ndarray))
                   and next(_non_reals(v), _END) is _END, "a nested number list"),
    "tuple | str | None": (
        lambda v: (v == FLAT_TAIL) if isinstance(v, str) else (
            v is None or isinstance(v, (list, tuple, np.ndarray)) and all(map(_real, v))),
        f"a number list or \"{FLAT_TAIL}\""),
}


def _block(cls, obj, where: str, **given):
    """`cls` built from the config block `obj` (named `where` in messages)
    and the fields in `given`. The block must be an object holding fields of
    `cls` outside `given`, all the required ones, each of the JSON type its
    declaration names; JSON lists become tuples, and any error `cls` raises
    becomes a ConfigError."""
    block = _typed(obj, dict, where, "an object")
    declared = {f.name: f for f in fields(cls) if f.name not in given}
    for key, value in block.items():
        if key not in declared:
            raise ConfigError(f"\"{key}\" is an unknown key in \"{where}\"")
        accepts, what = _JSON_TYPES[declared[key].type]
        if not accepts(value):
            raise ConfigError(f"\"{key}\" must be {what}, got {value!r}")
    for name, f in declared.items():
        if f.default is MISSING and f.default_factory is MISSING:
            _require(block, name, f"\"{where}\"")
    try:
        return cls(**{key: tuple(value) if isinstance(value, list) else value
                      for key, value in block.items()}, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad \"{where}\": {exc}") from exc


@dataclass(frozen=True)
class _TrainBlock(TrainConfig):
    """A config's "train" block: TrainConfig plus the CSV path the train
    command writes the loss trace to (the sweep ignores it)."""
    trace_csv: str | None = None


def _record(cell, result, spec, started, tol, shared_s=0.0) -> ResultRecord:
    """The record of one cell, (approach, param, value, seed, lower bound).
    `result` is the cell's (code, epochs run) or the exception that stopped
    it. A code is evaluated now on the cell's spectrum `spec`, and its wall
    time runs from `started` plus `shared_s`, its share of the training
    before that; an error of that evaluation fails the record instead."""
    approach, param, value, seed, lb = cell
    if not isinstance(result, Exception):
        code, epochs_run = result
        try:
            l3, l4, total = exact_loss(code, spec.instance)
            u56, u13, u24 = utilities(code, spec, tol)
        except _SWEEP_ERRORS as exc:
            result = exc
    if isinstance(result, Exception):
        l3 = l4 = total = u56 = u13 = u24 = math.nan
        epochs_run, wall_ms, status = 0, 0.0, f"failed: {type(result).__name__}: {result}"
    else:
        wall_ms, status = (shared_s + time.perf_counter() - started) * 1e3, "ok"
    return ResultRecord(approach, param, float(value), seed, l3, l4, total, lb,
                        u56, u13, u24, epochs_run, wall_ms, status)


def run_sweep(config: dict, tol: ToleranceConfig | None = None) -> list[ResultRecord]:
    sweep = _typed(_require(config, "sweep", "the top level"), dict, "sweep", "an object")
    param = _require(sweep, "param", "\"sweep\"")
    values = _typed(_require(sweep, "values", "\"sweep\""), (list, tuple), "values", "a list")
    approaches = list(_typed(_require(sweep, "approaches", "\"sweep\""), (list, tuple),
                             "approaches", "a list"))
    if param not in ("r_plus", "a"):
        raise ConfigError(f"sweep param must be \"r_plus\" or \"a\", got {param!r}")
    for approach in approaches:
        if approach not in _APPROACHES:
            raise ConfigError(f"unknown approach {approach!r}")
    if tol is None:
        tol = _block(ToleranceConfig, config.get("tolerances", {}), "tolerances")
    seeds = [_integer(seed, "seeds", "integers") for seed in
             _typed(config.get("seeds", [0]), (list, tuple), "seeds", "a list")]
    values = [_integer(value, "values", "integers") for value in values]
    for key, entries in (("approaches", approaches), ("values", values), ("seeds", seeds)):
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                raise ConfigError(f"\"{key}\" lists {entry!r} twice")
    train_block = config.get("train", {})
    base_cfg = _block(_TrainBlock, train_block, "train")
    for key, source in (("mode", "approaches"), ("seed", "seeds")):
        if key in train_block:
            raise ConfigError(f"\"{key}\" in \"train\" is set per cell by \"{source}\" in a sweep")
    # every cell is this spec with its swept value and seed
    spec_fields = {"n": 32, "z": 8, "a": 24, **{key: value for key, value in sweep.items()
                                                if key not in _SWEEP_KEYS}}
    spec_fields.setdefault("b", spec_fields["a"])
    r_plus = _integer(sweep.get("r_plus", 24), "r_plus")
    template = _block(SyntheticSpec, spec_fields, "sweep", r_plus_target=r_plus, seed=0)
    # without an explicit construction, one is tried on every cell and kept
    # where the conditions allow it
    auto_construct = bool(approaches) and "analytic_construction" not in approaches
    per_cell = approaches + (["analytic_construction"] if auto_construct else [])

    records: list[ResultRecord] = []
    # (cell, job); each job carries its cell's spectrum
    trained: list[tuple[tuple, TrainJob]] = []
    for value in values:
        swept = ({"r_plus_target": value} if param == "r_plus"
                 else {"a": value, "b": value})
        for seed in seeds:
            lb = math.nan
            try:
                instance = gen_synthetic(replace(template, seed=seed, **swept), tol)
                spec_obj = spectrum(instance, tol)
                lb = lower_bound(spec_obj, tol)
            except _SWEEP_ERRORS as exc:
                records += [_record((approach, param, value, seed, lb), exc, None, None, tol)
                            for approach in approaches]
                continue
            for approach in per_cell:
                cell = (approach, param, value, seed, lb)
                if approach != "analytic_construction":
                    trained.append((cell, TrainJob(
                        instance, replace(base_cfg, mode=approach, seed=seed),
                        spectrum=spec_obj)))
                    continue
                t0 = time.perf_counter()
                try:
                    result = (construct_lb_code(spec_obj, tol), 0)
                except _SWEEP_ERRORS as exc:
                    if auto_construct and isinstance(exc, PreconditionNotMet):
                        continue
                    result = exc
                records.append(_record(cell, result, spec_obj, t0, tol))

    t0 = time.perf_counter()
    results = train_lockstep([job for _, job in trained], tol)
    share = (time.perf_counter() - t0) / max(1, len(trained))
    for (cell, job), result in zip(trained, results):
        if not isinstance(result, Exception):
            result = (result[0], len(result[1]))
        records.append(_record(cell, result, job.spectrum, time.perf_counter(), tol, share))
    records.sort(key=_record_order)
    return records


def _record_order(rec: ResultRecord):
    return (rec.sweep_param_value, _APPROACHES.index(rec.approach), rec.seed)


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
            return [_parse_row(row, f"{path} line {reader.line_num}") for row in reader]
    except OSError as exc:
        raise OSError(f"cannot read records from {path}: {exc}") from exc


def _parse_row(row: list[str], where: str) -> ResultRecord:
    """The record of one CSV row, which must hold one parsable cell per field."""
    if len(row) != len(_FIELD_NAMES):
        raise ConfigError(f"{where}: {len(row)} cells, expected {len(_FIELD_NAMES)}")
    try:
        return ResultRecord(*(parse(cell) for parse, cell in zip(_FIELD_PARSERS, row)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


# the blocks a config may hold; each command reads the ones it needs
_CONFIG_KEYS = ("instance", "synthetic", "sweep", "seeds", "train", "tolerances", "pca")


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
    for key in config:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"\"{key}\" is an unknown top-level key")
    return config


def _instance_from_config(config: dict, tol: ToleranceConfig) -> ProblemInstance:
    if "instance" in config:
        block = dict(_typed(config["instance"], dict, "instance", "an object"))
        samples_path = block.pop("samples_csv", None)
        if samples_path is not None:
            block["psi"] = covariance_from_samples(load_samples_csv(
                _typed(samples_path, str, "samples_csv", "a string")))
            block.setdefault("n", block["psi"].shape[0])
        return validate(_block(ProblemInstance, block, "instance"), tol)
    if "synthetic" in config:
        return gen_synthetic(_block(SyntheticSpec, config["synthetic"], "synthetic"), tol)
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
    report = sufficient_report(spectrum(instance, tol), tol)
    _emit(json.dumps(report.to_dict(), indent=2), out)
    return 0


# a construction reaches the bound when its loss exceeds it by at most this
# times max(1, |bound|): the synthetic tasks' bound is zero up to rounding
_BOUND_RTOL = 1e-8


def _cmd_construct(config, out, tol) -> int:
    instance = _instance_from_config(config, tol)
    spec = spectrum(instance, tol)
    code = construct_lb_code(spec, tol)
    _, _, total = exact_loss(code, instance)
    bound = float(lower_bound(spec, tol))
    losses = f"L_total={float(total)!r} lower_bound={bound!r}"
    if not total <= bound + _BOUND_RTOL * max(1.0, abs(bound)):
        raise ValueError(f"the construction misses the lower bound: {losses}")
    _emit(code_to_json(code), out)
    print(losses, file=sys.stderr)
    return 0


def _cmd_train(config, out, tol) -> int:
    instance = _instance_from_config(config, tol)
    cfg = _block(_TrainBlock, config.get("train", {}), "train")
    code, trace = train(instance, cfg, tol=tol)
    _emit(code_to_json(code), out)
    if cfg.trace_csv:
        export_trace_csv(trace, cfg.trace_csv)
    print(f"final L_total={float(trace[-1, 2])!r} after {trace.shape[0]} epochs",
          file=sys.stderr)
    return 0


def _cmd_sweep(config, out, tol) -> int:
    records = run_sweep(config, tol)
    write_csv(records, out or "sweep.csv")
    print(f"wrote {len(records)} records to {out or 'sweep.csv'}",
          file=sys.stderr)
    return 0


@dataclass(frozen=True)
class _PcaBlock:
    """A config's "pca" block: the task matrix the pca command compresses."""
    task: str = "k3"


def _cmd_pca(config, out, tol) -> int:
    which = _block(_PcaBlock, config.get("pca", {}), "pca").task
    instance = _instance_from_config(config, tol)
    encoder, decoder, loss = task_pca(spectrum(instance, tol), which, tol)
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
        tol = _block(ToleranceConfig, config.get("tolerances", {}), "tolerances")
        if args.tol is not None:
            tol = ToleranceConfig(rank_tol=args.tol)
        return _COMMANDS[args.command](config, args.out, tol)
    except (*_SWEEP_ERRORS, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
