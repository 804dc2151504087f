"""Gradient training of butterfly codes, plus the greedy spectral benchmark.

The trainer runs plain gradient descent on the exact quadratic objective (or
its batch estimate) with simultaneous updates, matching the contractual update
rule. Modes restrict which matrices move or which objective drives them; the
loss trace always reports the true task losses.

One batched kernel does all training: every array carries a leading member
axis, so the runs of a whole sweep step in lockstep (`train_lockstep`), and
`train` is the batch of one. Members never mix, so each one's arithmetic,
and result, is the same in any batch.
"""

from __future__ import annotations

import csv
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


def _start(job: TrainJob, tol: ToleranceConfig):
    """A member's starting matrices, the names it trains, and for the
    empirical gradient the factor F with psi = F F^T that colours its
    sample batches."""
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
    return mats, trainable, colour


def _buffers(size: int, dims: tuple[int, int, int, int]) -> tuple[np.ndarray, ...]:
    """Work arrays of one residual pass: into5, A3, A4, R3, R4."""
    n, _, _, z = dims
    return tuple(np.zeros((size, 2 * z, n)) for _ in range(3)) + tuple(
        np.zeros((size, n, n)) for _ in range(2))


def _residuals(mats, dims, bufs) -> tuple[np.ndarray, ...]:
    """Link maps and sink residuals R_i = I - D_i A_i over a batch, written
    into bufs: (into5, A3, A4, R3, R4)."""
    into5, a3, a4 = _encoder_maps(ButterflyCode(**mats), *dims, out=bufs[:3])
    eye = np.eye(dims[0])
    for d, amap, r in zip((mats["d3"], mats["d4"]), (a3, a4), bufs[3:]):
        np.matmul(d, amap, out=r)
        np.subtract(eye, r, out=r)
    return bufs


def _task_factor(k: np.ndarray, n: int) -> np.ndarray:
    """n x n factor C with C^T C = K^T K: the R of a QR of K, zero-padded."""
    c = np.zeros((n, n))
    r = np.linalg.qr(np.atleast_2d(np.asarray(k, dtype=float)), mode="r")
    c[: r.shape[0]] = r
    return c


def _times_psi(x: np.ndarray, psi) -> np.ndarray:
    """x @ psi, where psi=None stands for a batch whose covariances are all
    exactly I, as for every synthetic instance: x @ I == x bitwise for
    finite x, so skipping the product changes no result. It made a
    paper-scale sweep (n=32) a fifth faster."""
    return x if psi is None else x @ psi


def _losses(c: np.ndarray, r: np.ndarray, psi) -> np.ndarray:
    """True task losses Tr(K R psi R^T K^T) per member, summed as
    (C R psi) * (C R) so that they stay accurate, and nonnegative for
    psi = I, down to zero loss."""
    p = c @ r
    return (_times_psi(p, psi) * p).reshape(len(p), -1).sum(axis=1)


def _weighted(gram: np.ndarray, r: np.ndarray, psi, task: np.ndarray) -> np.ndarray:
    """M = G R psi per member: G is the task Gram K^T K where `task` holds
    and the identity elsewhere (task_agnostic_coding)."""
    m = _times_psi(gram @ r, psi)
    if task.all():
        return m
    return np.where(task, m, _times_psi(r, psi))


def _directions(mats, into5, a3, a4, m3, m4, dims) -> dict[str, np.ndarray]:
    """Descent direction X = -grad / 2 of each matrix for the objective
    Tr(G3 R3 psi R3') + Tr(G4 R4 psi R4') with R_i = I - D_i A_i, chained
    through the link maps from M_i = G_i R_i psi."""
    n, a, b, z = dims
    y3 = _t(mats["d3"]) @ m3
    y4 = _t(mats["d4"]) @ m4
    relay = y3[..., z:, :] + y4[..., z:, :]
    into = _t(mats["e56"]) @ relay
    return {
        "e13": y3[..., :z, :a],
        "e15": into[..., :z, :a],
        "e24": y4[..., :z, n - b:],
        "e25": into[..., z:, n - b:],
        "e56": relay @ _t(into5),
        "d3": m3 @ _t(a3),
        "d4": m4 @ _t(a4),
    }


@dataclass
class _Batch:
    """Stacked state of the live members of a lockstep run; axis 0 runs over
    members, in job order."""

    ids: np.ndarray                # job index of each member
    mats: dict[str, np.ndarray]    # (B, rows, cols) per code matrix
    steps: dict[str, np.ndarray]   # (B, 1, 1): 2 * learning_rate, 0 if frozen
    psi: np.ndarray | None         # (B, n, n); None when every psi is I
    grams: tuple[np.ndarray, np.ndarray]    # K_i^T K_i
    factors: tuple[np.ndarray, np.ndarray]  # C_i with C_i^T C_i = K_i^T K_i
    task: np.ndarray               # (B, 1, 1) bool; False: identity objective
    colour: np.ndarray | None      # (B, n, n) F with psi = F F^T, empirical only
    rngs: list                     # batch streams, empirical gradient only
    trace: np.ndarray              # (B, epochs, 3)
    initial: np.ndarray            # (B,) total loss before the first update
    bufs: tuple                    # work arrays, see _buffers

    def keep(self, alive: np.ndarray) -> _Batch:
        def rows(x):
            return None if x is None else x[alive]

        return _Batch(
            ids=self.ids[alive],
            mats={k: v[alive] for k, v in self.mats.items()},
            steps={k: v[alive] for k, v in self.steps.items()},
            psi=rows(self.psi),
            grams=tuple(map(rows, self.grams)),
            factors=tuple(map(rows, self.factors)),
            task=self.task[alive],
            colour=rows(self.colour),
            rngs=[g for g, ok in zip(self.rngs, alive) if ok],
            trace=self.trace[alive],
            initial=self.initial[alive],
            bufs=tuple(map(rows, self.bufs)),
        )


def _dims(instance: ProblemInstance) -> tuple[int, int, int, int]:
    return instance.n, instance.a, instance.b, instance.z


def _stack(jobs: list[TrainJob], started: list) -> _Batch:
    ids = np.array([i for i, *_ in started])
    members = [jobs[i] for i in ids]
    dims = _dims(members[0].instance)
    config = members[0].config
    k3s = [np.atleast_2d(np.asarray(job.instance.k3, dtype=float)) for job in members]
    k4s = [np.atleast_2d(np.asarray(job.instance.k4, dtype=float)) for job in members]
    psi = np.stack([_sym(job.instance.psi) for job in members])
    empirical = config.gradient == "empirical_batch"
    return _Batch(
        ids=ids,
        mats={name: np.stack([mats[name] for _, mats, _, _ in started])
              for name in _MATRIX_FIELDS},
        steps={name: np.array([2.0 * jobs[i].config.learning_rate
                               if name in trainable else 0.0
                               for i, _, trainable, _ in started])[:, None, None]
               for name in _MATRIX_FIELDS},
        psi=None if np.all(psi == np.eye(dims[0])) else psi,
        grams=(np.stack([k.T @ k for k in k3s]), np.stack([k.T @ k for k in k4s])),
        factors=(np.stack([_task_factor(k, dims[0]) for k in k3s]),
                 np.stack([_task_factor(k, dims[0]) for k in k4s])),
        task=np.array([job.config.mode != "task_agnostic_coding"
                       for job in members])[:, None, None],
        colour=np.stack([f for *_, f in started]) if empirical else None,
        rngs=[_philox(job.config.seed, _BATCH_STREAM) for job in members]
        if empirical else [],
        trace=np.zeros((len(ids), config.epochs, 3)),
        initial=np.zeros(len(ids)),
        bufs=_buffers(len(ids), dims),
    )


def _evaluate(bt: _Batch, dims):
    """One residual pass: link maps, residuals and (L3, L4) per member."""
    into5, a3, a4, r3, r4 = _residuals(bt.mats, dims, bt.bufs)
    l3 = _losses(bt.factors[0], r3, bt.psi)
    l4 = _losses(bt.factors[1], r4, bt.psi)
    return (into5, a3, a4, r3, r4), l3, l4


def _descend(bt: _Batch, dims, epochs: int, batch_size: int, out: list) -> None:
    """Plain simultaneous gradient descent on every member at once. Pass t
    evaluates the code after t updates: its losses are the trace row of
    epoch t-1 and its residuals give the gradient of epoch t, so a run makes
    epochs + 1 residual passes. Members that diverge leave the batch."""
    # matrices no member trains (the encoders of a coding_benchmark batch)
    # skip the zero update
    moving = [name for name in _MATRIX_FIELDS if bt.steps[name].any()]
    noise = None
    if bt.colour is not None:
        noise = np.empty((len(bt.ids), batch_size, dims[0]))
    for t in range(epochs + 1):
        maps, l3, l4 = _evaluate(bt, dims)
        total = l3 + l4
        if t == 0:
            bt.initial = total
        else:
            bt.trace[:, t - 1] = np.stack([l3, l4, total], axis=1)
            alive = np.isfinite(total) & ~(total > 10.0 * bt.initial)
            if not alive.all():
                for j in np.flatnonzero(~alive):
                    out[bt.ids[j]] = DivergenceDetected(
                        f"L_total={float(total[j]):.6g} exceeded 10x initial "
                        f"{float(bt.initial[j]):.6g} at epoch {t - 1}; "
                        f"reduce learning_rate")
                bt = bt.keep(alive)
                moving = [name for name in moving if bt.steps[name].any()]
                if not len(bt.ids):
                    return
                if noise is not None:
                    noise = noise[alive]
                maps, _, _ = _evaluate(bt, dims)
        if t == epochs:
            break
        into5, a3, a4, r3, r4 = maps
        psi_step = bt.psi
        if noise is not None:
            for j, rng in enumerate(bt.rngs):
                rng.standard_normal(out=noise[j])
            x = noise @ _t(bt.colour)
            psi_step = _t(x) @ x / batch_size
        m3 = _weighted(bt.grams[0], r3, psi_step, bt.task)
        m4 = _weighted(bt.grams[1], r4, psi_step, bt.task)
        step = _directions(bt.mats, into5, a3, a4, m3, m4, dims)
        for name in moving:
            bt.mats[name] += bt.steps[name] * step[name]
    for j, i in enumerate(bt.ids):
        code = ButterflyCode(**{name: bt.mats[name][j].copy() for name in _MATRIX_FIELDS})
        out[i] = (code, bt.trace[j].copy())


def train_lockstep(jobs, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Train every job at once with one batched loss-and-gradient kernel.

    Jobs must share the instance dimensions (n, a, b, z) and the epochs,
    gradient and batch_size settings; instances, inits, modes, seeds and
    learning rates may differ. Returns one entry per job, in order: the
    (code, trace) pair `train` would return, or the exception that stopped
    that job alone -- DivergenceDetected, or an error building its start
    point. Each member's arithmetic is the same as when it trains alone, so
    its result does not depend on the rest of the batch.
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
    started = []
    for i, job in enumerate(jobs):
        try:
            started.append((i, *_start(job, tol)))
        except _MEMBER_ERRORS as exc:
            out[i] = exc
    if started:
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


def _single(mats, dims) -> tuple[dict[str, np.ndarray], tuple[np.ndarray, ...]]:
    """One code's matrices as a batch of one, and its residual pass."""
    one = {name: np.asarray(mats[name], dtype=float)[None] for name in _MATRIX_FIELDS}
    return one, _residuals(one, dims, _buffers(1, dims))


def _true_losses(mats, k3, k4, psi, n, a, b, z) -> tuple[float, float]:
    """(L3, L4) of one code, as the kernel reads them."""
    _, (_, _, _, r3, r4) = _single(mats, (n, a, b, z))
    psi = _sym(psi)[None]
    return (float(_losses(_task_factor(k3, n)[None], r3, psi)[0]),
            float(_losses(_task_factor(k4, n)[None], r4, psi)[0]))


def _gradients(mats, g3, g4, psi, n, a, b, z) -> dict[str, np.ndarray]:
    """Gradient of Tr(G3 R3 psi R3') + Tr(G4 R4 psi R4') for one code, as
    the kernel computes it."""
    dims = (n, a, b, z)
    one, (into5, a3, a4, r3, r4) = _single(mats, dims)
    psi, task = _sym(psi)[None], np.ones((1, 1, 1), dtype=bool)
    m3 = _weighted(np.asarray(g3, dtype=float)[None], r3, psi, task)
    m4 = _weighted(np.asarray(g4, dtype=float)[None], r4, psi, task)
    step = _directions(one, into5, a3, a4, m3, m4, dims)
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
