"""Gradient training of butterfly codes, plus the greedy spectral benchmark.

The trainer runs plain gradient descent on the exact quadratic objective (or
its batch estimate) with simultaneous updates, matching the contractual update
rule. Modes restrict which matrices move or which objective drives them
(task_agnostic_coding descends on the identity task, K = I); the loss trace
always reports the true task losses.

One batched kernel does all training: every array carries a leading member
axis, so the runs of a whole sweep step in lockstep (`train_lockstep`), and
`train` is the batch of one; the two sinks' arrays stack on one more leading
axis, so each product serves both. The kernel works on each task's thin
factor C, the R of a QR of K (min(rows, n) x n), and never forms the n x n
residual R = I - DA: ||K R||^2 = ||C R||^2 = ||C - (C D) A||^2. Members that
descend on the identity task keep R dense. The batch keeps its shape for the
whole run: a member that diverges is retired in place and comes back as its
error. Members never mix, and step in sub-batches of one factor height and
descent kind, so each one's arithmetic, and result, is the same in any batch.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from .code import (
    _MATRIX_FIELDS,
    ButterflyCode,
    CodeSpans,
    _encoder_maps,
    _field_shapes,
    check_code_shapes,
    realize_spans,
)
from .model import ProblemInstance, spectrum
from .subspace import (
    DEFAULT_TOL,
    InfeasibleExtension,
    ToleranceConfig,
    extend_from_pool,
    orthonormal_basis,
)


class DivergenceDetected(RuntimeError):
    """Total loss blew past 10x its initial value; lower the learning rate."""


MODES = (
    "task_aware_coding",
    "task_aware_no_coding",
    "task_agnostic_coding",
    "coding_benchmark",
)
GRADIENTS = ("exact_expectation", "empirical_batch")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    learning_rate: float = 0.05
    batch_size: int = 64
    seed: int = 0
    mode: str = "task_aware_coding"
    gradient: str = "exact_expectation"
    init_scale: float = 0.1

    def __post_init__(self):
        for names, kind, what in (
                (("epochs", "batch_size", "seed"), (int, np.integer), "an integer"),
                (("learning_rate", "init_scale"), numbers.Real, "a real number")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.gradient not in GRADIENTS:
            raise ValueError(f"unknown gradient {self.gradient!r}; expected one of {GRADIENTS}")
        if not self.init_scale > 0:
            raise ValueError(f"init_scale must be positive, got {self.init_scale}")


def _philox(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair. The key is built
    as uint64, so negative seeds and seeds past 2**63 wrap modulo 2**64."""
    key = np.array([seed % 2**64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_BATCH_STREAM = 10_000


def init_code(instance: ProblemInstance, seed: int, init_scale: float = 0.1) -> ButterflyCode:
    """Uniform random code; one counter-based stream per matrix so any single
    matrix replays independently of the others."""
    if init_scale < 0:
        raise ValueError(f"init_scale must be nonnegative, got {init_scale}")
    shapes = _field_shapes(instance.n, instance.a, instance.b, instance.z)
    mats = {name: _philox(seed, idx).uniform(-init_scale, init_scale, shapes[name])
            for idx, name in enumerate(_MATRIX_FIELDS)}
    return ButterflyCode(**mats)


def _selection_e56(z: int) -> np.ndarray:
    """0/1 relay matrix forwarding the first ceil(Z/2) relay-input coordinates
    from source 1 and the first floor(Z/2) from source 2."""
    e56 = np.zeros((z, 2 * z))
    head = (z + 1) // 2
    for i in range(head):
        e56[i, i] = 1.0
    for j in range(z - head):
        e56[head + j, z + j] = 1.0
    return e56


def greedy_benchmark_code(instance: ProblemInstance,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    """Relay carries the top-Z directions of the summed task Gram matrix;
    each direct link then adds its task's best directions from what its
    source can see beyond the relay's columns."""
    spec = spectrum(instance, tol)
    n, z = instance.n, instance.z
    w, v = np.linalg.eigh(spec.s3 + spec.s4)
    order = np.argsort(w)[::-1]
    t56 = min(z, n)
    phi56 = np.zeros((n, z))
    phi56[:, :t56] = v[:, order[:t56]]
    b56 = orthonormal_basis(phi56, tol, ambient_dim=n)

    def side(obs: np.ndarray, gram: np.ndarray) -> np.ndarray:
        pool = orthonormal_basis(obs, tol, ambient_dim=n)
        joint = orthonormal_basis(np.hstack([b56.vectors, pool.vectors]), tol, ambient_dim=n)
        resid = joint.vectors - b56.vectors @ (b56.vectors.T @ joint.vectors)
        comp = orthonormal_basis(resid, tol, ambient_dim=n)
        t = min(z, comp.dim)
        if t > 0:
            m = comp.vectors.T @ gram @ comp.vectors
            mw, mv = np.linalg.eigh(m)
            morder = np.argsort(mw)[::-1]
            tilde = comp.vectors @ mv[:, morder[:t]]
        else:
            tilde = np.zeros((n, 0))
        target = orthonormal_basis(np.hstack([tilde, phi56[:, :t56]]), tol, ambient_dim=n)
        picked = extend_from_pool(b56, pool, target, tol)
        direct = np.zeros((n, z))
        for j, vec in enumerate(picked):
            direct[:, j] = vec
        return direct

    spans = CodeSpans(
        phi13=side(spec.obs1, spec.s3),
        phi24=side(spec.obs2, spec.s4),
        phi56=phi56,
    )
    return realize_spans(spans, instance, tol)


@dataclass(frozen=True)
class TrainJob:
    """One run of `train`, as a member of a lockstep batch."""

    instance: ProblemInstance
    config: TrainConfig
    init: ButterflyCode | None = None


# errors that fail one member while its start point is built; the rest of
# its batch trains on
_MEMBER_ERRORS = (ValueError, InfeasibleExtension, np.linalg.LinAlgError)


def _sym(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=float)
    return 0.5 * (psi + psi.T)


def _t(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _factors(k3, k4, n: int) -> np.ndarray:
    """(2, h, n) thin task factors C_i with C_i^T C_i = K_i^T K_i: the R of a
    QR of each task matrix, min(rows_i, n) x n, zero-padded to the taller of
    the two. Zero rows change no loss or gradient, and the padding is the
    member's own, so its arithmetic does not depend on its batch."""
    rs = [np.linalg.qr(np.atleast_2d(np.asarray(k, dtype=float)), mode="r")
          for k in (k3, k4)]
    c = np.zeros((2, max(r.shape[0] for r in rs), n))
    for ci, r in zip(c, rs):
        ci[: r.shape[0]] = r
    return c


def _start(job: TrainJob, tol: ToleranceConfig):
    """A member's starting matrices, the names it trains, for the empirical
    gradient the factor F with psi = F F^T that colours its sample batches,
    and its task factors."""
    instance, config = job.instance, job.config
    if job.init is None:
        init = init_code(instance, config.seed, config.init_scale)
    else:
        check_code_shapes(job.init, instance)
        init = job.init
    mats = {name: np.array(getattr(init, name), dtype=float, copy=True)
            for name in _MATRIX_FIELDS}
    trainable = set(_MATRIX_FIELDS)
    if config.mode == "task_aware_no_coding":
        mats["e56"] = _selection_e56(instance.z)
        trainable.discard("e56")
    elif config.mode == "coding_benchmark":
        bench = greedy_benchmark_code(instance, tol)
        for name in ("e13", "e15", "e24", "e25", "e56"):
            mats[name] = np.array(getattr(bench, name), dtype=float, copy=True)
        trainable = {"d3", "d4"}
    colour = None
    if config.gradient == "empirical_batch":
        w, v = np.linalg.eigh(_sym(instance.psi))
        colour = v * np.sqrt(np.clip(w, 0.0, None))
    return mats, trainable, colour, _factors(instance.k3, instance.k4, instance.n)


def _times_psi(x: np.ndarray, psi) -> np.ndarray:
    """x @ psi, where psi=None stands for a batch whose covariances are all
    exactly I, as for every synthetic instance: x @ I == x bitwise for
    finite x, so skipping the product changes no result. It made a
    paper-scale sweep (n=32) a fifth faster."""
    return x if psi is None else x @ psi


@dataclass
class _Batch:
    """Stacked state of a lockstep run; axis 0 runs over members, in job
    order, and keeps every member to the end: one that diverges is retired
    in place, as a zero code that no longer moves. Arrays of both sinks
    carry the sink on a leading axis of 2 before the member axis."""

    ids: np.ndarray                # job index of each member
    mats: dict[str, np.ndarray]    # (B, rows, cols) per code matrix
    d: np.ndarray                  # (2, B, n, 2Z); mats d3 and d4 are its halves
    steps: dict[str, np.ndarray]   # (B, 1, 1): 2 * learning_rate, 0 if frozen
    psi: np.ndarray | None         # (B, n, n); None when every psi is I
    factors: np.ndarray            # (2, B, h, n) thin task factors C_i
    agnostic: bool                 # members descend on the identity task
    colour: np.ndarray | None      # (B, n, n) F with psi = F F^T, empirical only
    rngs: list                     # batch streams, empirical gradient only
    trace: np.ndarray              # (B, epochs, 3)
    initial: np.ndarray            # (B,) total loss before the first update
    bufs: tuple                    # link maps into5 (B, 2Z, n), A (2, B, 2Z, n)


def _dims(instance: ProblemInstance) -> tuple[int, int, int, int]:
    return instance.n, instance.a, instance.b, instance.z


def _stack(jobs: list[TrainJob], started: list) -> _Batch:
    """The batch of the started members, which share their factor height
    and descent kind."""
    ids = np.array([i for i, *_ in started])
    members = [jobs[i] for i in ids]
    n, _, _, z = _dims(members[0].instance)
    config = members[0].config
    psi = np.stack([_sym(job.instance.psi) for job in members])
    empirical = config.gradient == "empirical_batch"
    mats = {name: np.stack([m[name] for _, m, *_ in started])
            for name in _MATRIX_FIELDS}
    d = np.stack([mats["d3"], mats["d4"]])
    mats["d3"], mats["d4"] = d
    return _Batch(
        ids=ids,
        mats=mats,
        d=d,
        steps={name: np.array([2.0 * jobs[i].config.learning_rate
                               if name in trainable else 0.0
                               for i, _, trainable, *_ in started])[:, None, None]
               for name in _MATRIX_FIELDS},
        psi=None if np.all(psi == np.eye(n)) else psi,
        factors=np.stack([f for *_, f in started], axis=1),
        agnostic=config.mode == "task_agnostic_coding",
        colour=np.stack([c for *_, c, _ in started]) if empirical else None,
        rngs=[_philox(job.config.seed, _BATCH_STREAM) for job in members]
        if empirical else [],
        trace=np.zeros((len(ids), config.epochs, 3)),
        initial=np.zeros(len(ids)),
        bufs=(np.zeros((len(ids), 2 * z, n)), np.zeros((2, len(ids), 2 * z, n))),
    )


def _evaluate(bt: _Batch, dims):
    """One residual pass: the link maps into5 and A_i, the thin residuals
    P_i = C_i R_i = C_i - (C_i D_i) A_i of R_i = I - D_i A_i with their
    products P_i psi, and the true task losses Tr(K_i R_i psi R_i^T K_i^T)
    per member, (2, B), summed as (P psi) * P so that they stay accurate,
    and nonnegative for psi = I, down to zero loss."""
    into5, amap = bt.bufs
    _encoder_maps(ButterflyCode(**bt.mats), *dims, out=(into5, *amap))
    cd = bt.factors @ bt.d
    p = bt.factors - cd @ amap
    q = _times_psi(p, bt.psi)
    return (into5, amap, cd, p, q), (q * p).reshape(2, len(bt.ids), -1).sum(axis=2)


def _directions(bt: _Batch, ev, psi, dims) -> dict[str, np.ndarray]:
    """Descent direction X = -grad / 2 of each matrix for the objective
    sum_i Tr(F_i R_i psi R_i^T F_i^T), with F_i the task factor C_i, or I
    for members that descend on the identity task (they keep R_i dense).
    With M_i = F_i R_i psi, the link maps get (F_i D_i)^T M_i, chained
    through the encoders, and the decoders F_i^T (M_i A_i^T)."""
    n, a, b, z = dims
    into5, amap, cd, p, q = ev
    if bt.agnostic:
        fd, m = bt.d, _times_psi(np.eye(n) - bt.d @ amap, psi)
        dd = m @ _t(amap)
    else:
        # the exact gradient reuses the loss pass's P psi
        fd, m = cd, q if psi is bt.psi else _times_psi(p, psi)
        dd = _t(bt.factors) @ (m @ _t(amap))
    y = _t(fd) @ m
    relay = y[0, :, z:] + y[1, :, z:]
    into = _t(bt.mats["e56"]) @ relay
    return {
        "e13": y[0, :, :z, :a],
        "e15": into[..., :z, :a],
        "e24": y[1, :, :z, n - b:],
        "e25": into[..., z:, n - b:],
        "e56": relay @ _t(into5),
        "d3": dd[0],
        "d4": dd[1],
    }


def _descend(bt: _Batch, dims, epochs: int, batch_size: int, out: list) -> None:
    """Plain simultaneous gradient descent on every member at once. Pass t
    evaluates the code after t updates: its losses are the trace row of
    epoch t-1 and its residuals give the gradient of epoch t, so a run makes
    epochs + 1 residual passes. A member that diverges is retired in place:
    its error goes to `out`, its matrices and steps to zero, and the pass is
    rerun so that its residuals are finite again."""
    # matrices no member trains (the encoders of a coding_benchmark batch)
    # skip the zero update
    moving = [name for name in _MATRIX_FIELDS if bt.steps[name].any()]
    noise = None
    if bt.colour is not None:
        noise = np.empty((len(bt.ids), batch_size, dims[0]))
    live = np.ones(len(bt.ids), dtype=bool)
    for t in range(epochs + 1):
        ev, (l3, l4) = _evaluate(bt, dims)
        total = l3 + l4
        if t == 0:
            bt.initial = total
        else:
            bt.trace[:, t - 1] = np.stack([l3, l4, total], axis=1)
            failed = live & (~np.isfinite(total) | (total > 10.0 * bt.initial))
            if failed.any():
                for j in np.flatnonzero(failed):
                    out[bt.ids[j]] = DivergenceDetected(
                        f"L_total={float(total[j]):.6g} exceeded 10x initial "
                        f"{float(bt.initial[j]):.6g} at epoch {t - 1}; "
                        f"reduce learning_rate")
                for name in _MATRIX_FIELDS:
                    bt.mats[name][failed] = 0.0
                    bt.steps[name][failed] = 0.0
                live &= ~failed
                if not live.any():
                    return
                # the retired members' residuals are those of a zero code now
                ev, _ = _evaluate(bt, dims)
        if t == epochs:
            break
        psi_step = bt.psi
        if noise is not None:
            for j, rng in enumerate(bt.rngs):
                rng.standard_normal(out=noise[j])
            x = noise @ _t(bt.colour)
            psi_step = _t(x) @ x / batch_size
        step = _directions(bt, ev, psi_step, dims)
        for name in moving:
            bt.mats[name] += bt.steps[name] * step[name]
    for j in np.flatnonzero(live):
        code = ButterflyCode(**{name: bt.mats[name][j].copy() for name in _MATRIX_FIELDS})
        out[bt.ids[j]] = (code, bt.trace[j].copy())


def train_lockstep(jobs, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Train every job at once with one batched loss-and-gradient kernel.

    Jobs must share the instance dimensions (n, a, b, z) and the epochs,
    gradient and batch_size settings; instances, inits, modes, seeds and
    learning rates may differ. Returns one entry per job, in order: the
    (code, trace) pair `train` would return, or the exception that stopped
    that job alone -- DivergenceDetected, or an error building its start
    point. Members step in sub-batches keyed by what each one fixes alone,
    its task factor height and whether it descends on the identity task, so
    each member's arithmetic is the same as when it trains alone, and its
    result does not depend on the rest of the batch.
    """
    jobs = list(jobs)
    out: list = [None] * len(jobs)
    if not jobs:
        return out
    dims = _dims(jobs[0].instance)
    shared = ("epochs", "gradient", "batch_size")
    first = tuple(getattr(jobs[0].config, key) for key in shared)
    for job in jobs[1:]:
        if _dims(job.instance) != dims:
            raise ValueError(f"lockstep jobs must share (n, a, b, z) {dims}, "
                             f"got {_dims(job.instance)}")
        if tuple(getattr(job.config, key) for key in shared) != first:
            raise ValueError(f"lockstep jobs must share {shared}")
    groups: dict[tuple, list] = {}
    for i, job in enumerate(jobs):
        try:
            started = (i, *_start(job, tol))
        except _MEMBER_ERRORS as exc:
            out[i] = exc
            continue
        key = (started[-1].shape[1], job.config.mode == "task_agnostic_coding")
        groups.setdefault(key, []).append(started)
    for started in groups.values():
        _descend(_stack(jobs, started), dims, jobs[0].config.epochs,
                 jobs[0].config.batch_size, out)
    return out


def train(instance: ProblemInstance, config: TrainConfig,
          init: ButterflyCode | None = None,
          tol: ToleranceConfig = DEFAULT_TOL) -> tuple[ButterflyCode, np.ndarray]:
    """Run gradient descent; returns the final code and an (epochs, 3) trace
    of per-epoch (L3, L4, L_total) true-task losses after each update. The
    one-member case of train_lockstep."""
    (result,) = train_lockstep([TrainJob(instance, config, init)], tol)
    if isinstance(result, Exception):
        raise result
    return result


def _single(mats, k3, k4, psi, dims) -> _Batch:
    """One code, with the task factors of k3 and k4, as a batch of one."""
    n, a, b, z = dims
    job = TrainJob(ProblemInstance(n=n, psi=psi, a=a, b=b, z=z, k3=k3, k4=k4),
                   TrainConfig(epochs=1))
    mats = {name: np.asarray(mats[name], dtype=float) for name in _MATRIX_FIELDS}
    return _stack([job], [(0, mats, set(_MATRIX_FIELDS), None, _factors(k3, k4, n))])


def _true_losses(mats, k3, k4, psi, n, a, b, z) -> tuple[float, float]:
    """(L3, L4) of one code, as the kernel reads them."""
    dims = (n, a, b, z)
    _, (l3, l4) = _evaluate(_single(mats, k3, k4, psi, dims), dims)
    return float(l3[0]), float(l4[0])


def _gradients(mats, c3, c4, psi, n, a, b, z) -> dict[str, np.ndarray]:
    """Gradient of Tr(C3 R3 psi R3' C3') + Tr(C4 R4 psi R4' C4') for one
    code, as the kernel computes it; any C_i with the task's Gram will do,
    such as the task matrix itself."""
    dims = (n, a, b, z)
    bt = _single(mats, c3, c4, psi, dims)
    ev, _ = _evaluate(bt, dims)
    step = _directions(bt, ev, bt.psi, dims)
    return {name: -2.0 * step[name][0] for name in _MATRIX_FIELDS}


def export_trace_csv(trace: np.ndarray, path) -> None:
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 2 or trace.shape[1] != 3:
        raise ValueError(f"trace must have shape (epochs, 3), got {trace.shape}")
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "L3", "L4", "L_total"])
            for i, row in enumerate(trace):
                writer.writerow(
                    [i, repr(float(row[0])), repr(float(row[1])), repr(float(row[2]))]
                )
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc
