"""Gradient training of butterfly codes, plus the greedy spectral benchmark.

The trainer runs plain gradient descent on the exact quadratic objective (or
its batch estimate) with simultaneous updates, matching the contractual update
rule. Modes restrict which matrices move or which objective drives them
(task_agnostic_coding descends on the identity task, K = I); the loss trace
always reports the true task losses.

One batched kernel does all training: every array carries a leading descent
axis, so many runs step in lockstep, and the two sinks' arrays stack on one
more leading axis, so each product serves both. `train_lockstep` owns the
batching: it takes any list of jobs, such as every trained cell of a sweep,
groups them by shape and schedule, and caps each batch at _LOCKSTEP_BYTES;
`train` is the batch of one. Each job passes one input gate first
(train_lockstep), so all past it reads the float arrays of `validate` and
`check_code_shapes`. A descent is one code that steps, and a view is one job
that reads it. A task_agnostic_coding code never reads its tasks, so such
jobs whose descents read byte-equal inputs (factor height, learning rate,
psi, start matrices and, for the empirical gradient, the seed) share one
descent, with one view each; every other job is a descent with one view. A
descent starts once, on its first view (`_start`: its matrices, the names of
those it trains and its colour), and each view brings only its task factors.
Each descent's code is one row of a preallocated array, in code.py's layout
(`_offsets`), so that its matrices are views into the encoder maps the
products need. The kernel works on each task's thin factor C, the R of a QR
of K (min(rows, n) x n), since Tr(K R psi R^T K^T) = Tr(C R psi R^T C^T): a
view's loss is one dot product (P psi) . P over its thin residual P = C R.
Task-aware descents never form the n x n residual R = I - DA and take
P = C - (C D) A; descents on the identity task form R once per pass, for
their directions too, and each view's P is C R. One epoch loop steps the
whole batch: the encoder maps, the relay chain, the descent directions and
the update run once per descent, and each view keeps its own thin loss pass,
trace row and divergence check against its own initial loss. The update is
one masked multiply-add over the batch: each descent's step is
2 * learning_rate on the matrices its mode trains and 0 elsewhere. The batch
keeps its shape for the whole run: a view that diverges comes back as its
error, and its descent steps on unread. Descents never mix, so each job's
arithmetic, and result, is the same in any batch.
"""

from __future__ import annotations

import csv
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .code import (
    _MATRIX_FIELDS,
    ButterflyCode,
    CodeSpans,
    _field_shapes,
    _offsets,
    _realize_encoders,
    _views,
    check_code_shapes,
    realize_spans,
)
from .model import ProblemInstance, TaskSpectrum, _is_identity, spectrum, validate
from .subspace import (
    Basis,
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
        _check_draw_range(self.init_scale)


def _philox(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair. The key is built
    as uint64, so negative seeds and seeds past 2**63 wrap modulo 2**64."""
    key = np.array([seed % 2**64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_BATCH_STREAM = 10_000


def _check_draw_range(init_scale) -> None:
    """The start draw is uniform on [-init_scale, init_scale]; its range,
    2 * init_scale, must be a finite float."""
    if not init_scale <= sys.float_info.max / 2:
        raise ValueError(f"init_scale must be at most {sys.float_info.max / 2:.6g}, "
                         f"so that the draw's range 2 * init_scale is finite, "
                         f"got {init_scale}")


def init_code(instance: ProblemInstance, seed: int, init_scale: float = 0.1) -> ButterflyCode:
    """Uniform random code; one counter-based stream per matrix so any single
    matrix replays independently of the others."""
    if not init_scale >= 0:
        raise ValueError(f"init_scale must be nonnegative, got {init_scale}")
    _check_draw_range(init_scale)
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


def greedy_benchmark_code(spec: TaskSpectrum,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    """Relay carries the top-Z directions of the summed task Gram matrix;
    each direct link then adds its task's best directions from what its
    source can see beyond the relay's columns."""
    return realize_spans(_benchmark_spans(spec, tol), spec, tol)


def _benchmark_spans(spec: TaskSpectrum, tol: ToleranceConfig) -> CodeSpans:
    """The link spans greedy_benchmark_code realizes."""
    n, z = spec.n, spec.z
    w, v = np.linalg.eigh(spec.s3 + spec.s4)
    order = np.argsort(w)[::-1]
    t56 = min(z, n)
    phi56 = np.zeros((n, z))
    phi56[:, :t56] = v[:, order[:t56]]
    b56 = orthonormal_basis(phi56, tol)

    def side(obs: np.ndarray, gram: np.ndarray) -> np.ndarray:
        # an SVD even of exact axes (psi = I): the signs of its zeros steer
        # the stack's SVD below (CHANGES.md, FOUND 46)
        pool = orthonormal_basis(obs, tol)
        # one SVD of the stack, not join: the picks below follow this
        # basis's rotation, and the trained loss follows the picks (CHANGES.md,
        # FOUND 16)
        joint = orthonormal_basis(np.hstack([b56.vectors, pool.vectors]), tol)
        resid = joint.vectors - b56.vectors @ (b56.vectors.T @ joint.vectors)
        # a residual of Frobenius norm <= rank_tol holds no direction, as in
        # subspace._outside_residual; its SVD's relative rule would keep
        # rounding noise
        comp = (orthonormal_basis(resid, tol) if np.linalg.norm(resid) > tol.rank_tol
                else Basis.empty(n))
        mw, mv = np.linalg.eigh(comp.vectors.T @ gram @ comp.vectors)
        tilde = comp.vectors @ mv[:, np.argsort(mw)[::-1][:z]]
        target = orthonormal_basis(np.hstack([tilde, phi56[:, :t56]]), tol)
        picked = extend_from_pool(b56, pool, target, tol)
        direct = np.zeros((n, z))
        direct[:, :picked.shape[1]] = picked
        return direct

    chol, a, b = spec.cholesky_l, spec.instance.a, spec.instance.b
    return CodeSpans(
        phi13=side(chol[:a, :].T.copy(), spec.s3),
        phi24=side(chol[n - b :, :].T.copy(), spec.s4),
        phi56=phi56,
    )


@dataclass(frozen=True, eq=False)
class TrainJob:
    """One run of `train`, as a member of a lockstep batch. `spectrum`, the
    instance's spectrum if the caller holds it, saves the coding_benchmark
    start (_start) from computing it; its `.instance` must be `instance`."""

    instance: ProblemInstance
    config: TrainConfig
    init: ButterflyCode | None = None
    spectrum: TaskSpectrum | None = None


# errors that fail one job at its input gate or its descent's start; the
# rest of the call trains on
_MEMBER_ERRORS = (ValueError, InfeasibleExtension)


def _t(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _factors(k3, k4, n: int) -> np.ndarray:
    """(2, h, n) thin task factors C_i with C_i^T C_i = K_i^T K_i: the R of a
    QR of each task matrix, min(rows_i, n) x n, zero-padded to the taller of
    the two. Zero rows change no loss or gradient, and the padding is the
    member's own, so its arithmetic does not depend on its batch."""
    rs = [np.linalg.qr(k, mode="r") for k in (k3, k4)]
    c = np.zeros((2, max(r.shape[0] for r in rs), n))
    for ci, r in zip(c, rs):
        ci[: r.shape[0]] = r
    return c


def _start(job: TrainJob, tol: ToleranceConfig):
    """A descent's starting matrices, the names of those it trains and, for
    the empirical gradient, the factor F with psi = F F^T that colours its
    sample batches. Its views bring their own task factors (_factors)."""
    instance, config = job.instance, job.config
    init = init_code(instance, config.seed, config.init_scale) if job.init is None else job.init
    mats = {name: getattr(init, name) for name in _MATRIX_FIELDS}
    trained = _MATRIX_FIELDS
    if config.mode == "task_aware_no_coding":
        mats["e56"] = _selection_e56(instance.z)
        trained = tuple(name for name in _MATRIX_FIELDS if name != "e56")
    elif config.mode == "coding_benchmark":
        # the benchmark code's encoders; the descent trains its own decoders
        spec = spectrum(instance, tol) if job.spectrum is None else job.spectrum
        bench = _realize_encoders(_benchmark_spans(spec, tol), spec, tol)
        for name in ("e13", "e15", "e24", "e25", "e56"):
            mats[name] = getattr(bench, name)
        trained = ("d3", "d4")
    colour = None
    if config.gradient == "empirical_batch":
        w, v = np.linalg.eigh(instance.psi)
        colour = v * np.sqrt(np.clip(w, 0.0, None))
    return mats, trained, colour


def _bytes(x: np.ndarray) -> tuple:
    return x.shape, x.tobytes()


def _descent_key(i: int, job: TrainJob):
    """What a job's descent reads beyond its shape and schedule. Equal keys
    mean bit-identical descents, so one start serves them all:
    task_agnostic_coding jobs that share the task factor height (as _factors
    pads it), the step, psi, the start matrices (the seed and init_scale, or
    an explicit init; arrays by shape and bytes) and, for the empirical
    gradient, the seed's sample stream. Every other job reads its own task
    factors and keys alone, by its index. The job has passed the input gate
    of train_lockstep, so its instance and init hold float arrays."""
    config, instance = job.config, job.instance
    if config.mode != "task_agnostic_coding":
        return i
    rows = min(max(len(instance.k3), len(instance.k4)), instance.n)
    start = ((config.seed, float(config.init_scale)) if job.init is None else
             tuple(_bytes(getattr(job.init, name)) for name in _MATRIX_FIELDS))
    sampled = config.seed if config.gradient == "empirical_batch" else None
    return rows, float(2.0 * config.learning_rate), _bytes(instance.psi), start, sampled


@dataclass
class _Batch:
    """Stacked state of a lockstep run. A descent is one code that steps;
    a view is one job that reads it, with its own task factors, loss trace
    and divergence check. Only task_agnostic_coding descents have more than
    one view. Axis 0 of the code arrays runs over descents, sorted into
    groups (contiguous slices of one factor height, descent kind and view
    count), and keeps every descent to the end, also one whose views have
    all diverged. The view arrays run over views, descent by descent.
    Arrays of both sinks carry the sink on a leading axis of 2. A descent's
    code, step and colour come from its one start, and each view brings its
    task factors. `_stack` allocates every array a pass writes, once."""

    ids: np.ndarray                # (W,) job index of each view
    owner: np.ndarray              # (W,) descent of each view
    rows: np.ndarray               # (B, P) each descent's code, laid out as in _offsets
    grad: np.ndarray               # (B, P) descent directions, same layout
    # (B, P) 2 * learning_rate where a descent's trained matrices sit, 0
    # elsewhere: outside the link blocks, on A's relay rows and on the
    # matrices its mode freezes
    step: np.ndarray
    maps: dict[str, np.ndarray]    # _views of rows
    dirs: dict[str, np.ndarray]    # _views of grad
    # per group of descents that share a factor height, descent kind and
    # view count V, one contiguous slice of the descents and of the views:
    # agnostic (descents on the identity task); psi, (Bg, 1, n, n), or None
    # when every psi is exactly I, as for every synthetic instance (x @ I ==
    # x bitwise for finite x, so skipping the product changes no result; it
    # made a paper-scale sweep (n=32) a fifth faster); C (2, Bg, V, h, n),
    # the views' thin task factors; d and A, its slices of the maps, and y
    # and dd, their directions, each with a view axis of length 1 that
    # broadcasts over the views; loss (2, Bg, V); psi_step, its batch
    # estimates of psi for the empirical gradient; the work arrays p and q
    # (2, Bg, V, h, n) and, for descents on the identity task, r and m
    # (2, Bg, 1, n, n), or else cd (2, Bg, V, h, 2Z); transposes (Ct, dt, At,
    # cdt); and p2 and q2, p and q flattened to (2, Bg, V, h n) for the
    # loss's dot products
    groups: list[dict]
    relay: np.ndarray              # (B, Z, n) e56 @ into5, then the relay's direction
    losses: np.ndarray             # (2, W) task losses of the last pass
    # empirical gradient only: the F with psi = F F^T that colours each
    # descent's samples, (B, n, n); the descents' batch streams; the noise
    # and samples, (B, batch, n); and their psi estimates, (B, n, n)
    samples: tuple
    trace: np.ndarray              # (W, epochs, 3)


def _dims(instance: ProblemInstance) -> tuple[int, int, int, int]:
    return instance.n, instance.a, instance.b, instance.z


def _stack(jobs: list[TrainJob], started: list) -> _Batch:
    """The batch of the started descents, each its start and the (job index,
    task factors) of its views in job order, sorted into groups of one
    factor height, descent kind and view count. One pass over the groups
    allocates each group's arrays and copies its descents in: codes, steps,
    colours and factors. It empties `started` as it goes, so that no start
    outlives its copy."""
    first = jobs[started[0][1][0][0]]
    config, dims = first.config, _dims(first.instance)
    n, _, _, z = dims

    def key(descent):
        i, factors = descent[1][0]
        return factors.shape[1], jobs[i].config.mode == "task_agnostic_coding", len(descent[1])

    started.sort(key=key)
    count = len(started)
    keys = [key(descent) for descent in started]
    cuts = [j for j in range(1, count) if keys[j] != keys[j - 1]]
    ids = np.array([i for _, views in started for i, _ in views])
    owner = np.repeat(np.arange(count), [len(views) for _, views in started])
    sampled = config.gradient == "empirical_batch"
    rows = np.zeros((count, _offsets(dims)["end"]))
    grad, step = np.zeros_like(rows), np.zeros_like(rows)
    maps, dirs, steps = _views(rows, dims), _views(grad, dims), _views(step, dims)
    losses = np.empty((2, len(ids)))
    samples = (np.empty((count, n, n)), [], np.empty((count, config.batch_size, n)),
               np.empty((count, config.batch_size, n)),
               np.empty((count, n, n))) if sampled else ()
    eye = np.eye(n)
    groups = []
    seen = 0                       # views of the groups before this one
    for lo, hi in zip([0, *cuts], [*cuts, count]):
        (h, agnostic, width), descents = keys[lo], slice(lo, hi)
        viewed = slice(seen, seen + (hi - lo) * width)
        seen = viewed.stop
        c, psis = np.empty((2, hi - lo, width, h, n)), []
        for j in range(lo, hi):
            ((mats, trained, colour), views), started[j] = started[j], None
            lead = jobs[views[0][0]]
            for name in _MATRIX_FIELDS:
                maps[name][j] = mats[name]
            for name in trained:
                steps[name][j] = 2.0 * lead.config.learning_rate
            if sampled:
                samples[0][j] = colour
                samples[1].append(_philox(lead.config.seed, _BATCH_STREAM))
            psis.append(lead.instance.psi)
            for k, (_, factors) in enumerate(views):
                c[:, j - lo, k] = factors
        thin = (2, hi - lo, width, h, n)
        v = dict(agnostic=agnostic, eye=eye, C=c, Ct=_t(c),
                 psi=None if all(map(_is_identity, psis)) else np.stack(psis)[:, None],
                 p=np.empty(thin), q=np.empty(thin),
                 d=maps["d"][:, descents, None], A=maps["amap"][:, descents, None],
                 y=dirs["amap"][:, descents, None], dd=dirs["d"][:, descents, None],
                 loss=losses[:, viewed].reshape(2, hi - lo, width))
        flat = (2, hi - lo, width, h * n)
        v.update(dt=_t(v["d"]), At=_t(v["A"]),
                 p2=v["p"].reshape(flat), q2=v["q"].reshape(flat))
        if agnostic:
            v["r"], v["m"] = np.empty((2, 2, hi - lo, 1, n, n))
        else:
            v["cd"] = np.empty((2, hi - lo, width, h, 2 * z))
            v["cdt"] = _t(v["cd"])
        if sampled:
            v["psi_step"] = samples[4][descents, None]
        groups.append(v)
    maps.update(e56t=_t(maps["e56"]), into5t=_t(maps["into5"]))
    return _Batch(
        ids=ids,
        owner=owner,
        rows=rows,
        grad=grad,
        step=step,
        maps=maps,
        dirs=dirs,
        groups=groups,
        relay=np.empty((count, z, n)),
        losses=losses,
        samples=samples,
        trace=np.zeros((len(ids), config.epochs, 3)),
    )


def _evaluate(bt: _Batch, directions: bool = False) -> np.ndarray:
    """One residual pass; returns the true task losses Tr(K_i R_i psi R_i^T
    K_i^T) per view, (2, W). It completes the encoder maps A_i (their relay
    rows are e56 @ into5), then, group by group, forms each view's thin
    residuals P_i = C_i R_i of its descent's R_i = I - D_i A_i: as
    C_i - (C_i D_i) A_i for a task-aware descent, and as C_i R_i from the
    dense R_i that a descent on the identity task forms once, here, for its
    views and its directions. With the products P_i psi, each loss is one dot
    product (P psi) . P over the flattened P, so that it stays accurate, and
    nonnegative for psi = I, down to zero loss. With `directions` it also
    writes each descent's directions into bt.grad."""
    maps, dirs = bt.maps, bt.dirs
    np.matmul(maps["e56"], maps["into5"], out=bt.relay)
    np.copyto(maps["relay"], bt.relay)
    for v in bt.groups:
        if v["agnostic"]:
            np.matmul(v["d"], v["A"], out=v["r"])
            np.subtract(v["eye"], v["r"], out=v["r"])
            np.matmul(v["C"], v["r"], out=v["p"])
        else:
            np.matmul(v["C"], v["d"], out=v["cd"])
            np.matmul(v["cd"], v["A"], out=v["p"])
            np.subtract(v["C"], v["p"], out=v["p"])
        if v["psi"] is None:
            q, q2 = v["p"], v["p2"]
        else:
            q, q2 = np.matmul(v["p"], v["psi"], out=v["q"]), v["q2"]
        np.vecdot(q2, v["p2"], out=v["loss"])
        if directions:
            _directions(v, q)
    if directions:
        # the sink maps' relay rows, chained through the encoders
        np.add(dirs["relay"][0], dirs["relay"][1], out=bt.relay)
        np.matmul(maps["e56t"], bt.relay, out=dirs["into5"])
        np.matmul(bt.relay, maps["into5t"], out=dirs["e56"])
    return bt.losses


def _directions(v: dict, q: np.ndarray) -> None:
    """Descent directions X = -grad / 2 of one group's sink maps and decoders
    for the objective sum_i Tr(F_i R_i psi R_i^T F_i^T), with F_i the task
    factor C_i of the descent's one view, or I for descents on the identity
    task (they read the dense R_i of the loss pass), and psi the batch
    estimate for the empirical gradient. With M_i = F_i R_i psi, the sink
    maps get (F_i D_i)^T M_i and the decoders F_i^T (M_i A_i^T)."""
    psi = v.get("psi_step", v["psi"])
    if v["agnostic"]:
        m = v["r"] if psi is None else np.matmul(v["r"], psi, out=v["m"])
        np.matmul(m, v["At"], out=v["dd"])
        np.matmul(v["dt"], m, out=v["y"])
    else:
        # the exact gradient reuses the loss pass's P psi
        m = q if psi is v["psi"] else np.matmul(v["p"], psi, out=v["q"])
        np.matmul(v["cdt"], m, out=v["y"])
        np.matmul(m, v["At"], out=v["cd"])
        np.matmul(v["Ct"], v["cd"], out=v["dd"])


def _sample_psi(bt: _Batch, batch_size: int) -> None:
    """Each descent's batch estimate of psi, from its own stream."""
    colour, rngs, noise, x, psi = bt.samples
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=noise[j])
    np.matmul(noise, _t(colour), out=x)
    np.matmul(_t(x), x, out=psi)
    psi /= batch_size


def _descend(bt: _Batch, epochs: int, batch_size: int, out: list) -> None:
    """Plain simultaneous gradient descent on every descent at once. Pass t
    evaluates the codes after t updates: its losses are the views' trace
    row of epoch t-1 and its residuals give the gradient of epoch t, so a
    run makes epochs + 1 residual passes. The update is one masked
    multiply-add, rows += step * grad. Each view checks its own total
    against its own initial loss; a view that diverges gets its error in
    `out`, and its descent steps on, also once none of its views is left,
    since no product mixes descents. Overflow in a diverging descent is
    expected and only live views are read, so numpy's floating-point
    warnings are off for the loop."""
    live = np.ones(len(bt.ids), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(epochs + 1):
            descend = t < epochs
            if bt.samples and descend:
                _sample_psi(bt, batch_size)
            losses = _evaluate(bt, descend)
            if t == 0:
                initial = losses[0] + losses[1]
                limit = 10.0 * initial
            else:
                row = bt.trace[:, t - 1]
                row[:, :2] = losses.T
                total = np.add(losses[0], losses[1], out=row[:, 2])
                failed = live & (~np.isfinite(total) | (total > limit))
                if failed.any():
                    for j in np.flatnonzero(failed):
                        out[bt.ids[j]] = DivergenceDetected(
                            f"L_total={float(total[j]):.6g} exceeded 10x initial "
                            f"{float(initial[j]):.6g} at epoch {t - 1}; "
                            f"reduce learning_rate")
                    live &= ~failed
                    if not live.any():
                        return
            if not descend:
                break
            np.multiply(bt.grad, bt.step, out=bt.grad)
            bt.rows += bt.grad
    for j in np.flatnonzero(live):
        code = ButterflyCode(**{name: bt.maps[name][bt.owner[j]].copy()
                                for name in _MATRIX_FIELDS})
        out[bt.ids[j]] = (code, bt.trace[j])


# Cap on the descents trained at once, counted as 8 n^2 bytes, one n x n
# float64 matrix, per descent. A descent's working set grows as n^2 and is
# about eleven such matrices on a synthetic instance (Z = n/4, h = n/2 task
# rows): its code row, direction row and step row, 2.6 n^2 floats each, and
# its task factors and its two thin residual work arrays p and q, (2, h, n) =
# n^2 floats each; each further view of a task_agnostic_coding descent adds
# about three more. Batching pays while per-call overhead dominates an epoch
# and stops paying once a batch outgrows the cache: measured on one thread of
# a 2-vCPU Xeon (the four modes in turn, best of 5 runs), with the kernel as
# it was before each view's loss became one dot product, the per-member epoch
# time at n=32 fell from 0.04 ms alone to 0.02-0.03 ms at 8-48 members,
# lowest at 16-24; at n=64 it was 0.09-0.12 ms alone, 0.07-0.10 ms at 2
# members and 0.11-0.17 ms at 3-16; at n=128 0.52-0.56 ms alone and at 2,
# 1.1 ms at 4-8. 192 KiB gives 24 descents at n=32, 6 at n=64 and 1 from
# n=128 up.
_LOCKSTEP_BYTES = 192 * 2**10


def train_lockstep(jobs, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Train every job with one batched loss-and-gradient kernel.

    Jobs may mix shapes and schedules. They are grouped by the instance
    dimensions (n, a, b, z) and the epochs, gradient and batch_size
    settings, in first-seen order. Within a group, task_agnostic_coding
    jobs whose descents read byte-equal inputs (_descent_key: the task
    factor height, learning rate, psi, start matrices and, for the
    empirical gradient, the seed) share one descent, since their code does
    not depend on their tasks; every other job is a descent of its own.
    Each group's descents are cut into batches of at most
    _LOCKSTEP_BYTES // (8 n^2) descents, with all of a descent's views in
    its batch; instances, inits, modes, seeds and learning rates may differ
    within a batch. Returns one entry per job, in job order: the (code,
    trace) pair `train` would return, or the exception that stopped that
    job alone. Each job first passes one input gate, before it is grouped:
    its instance becomes validate(instance, tol), a given init becomes
    check_code_shapes(init, instance), float arrays that fit it, and a
    given spectrum must be of that very instance object; a job that fails
    returns the error. Each descent then starts once, on its first view,
    and a start that fails is every view's error.
    One epoch loop steps each batch: each pass forms the encoder maps, the
    relay chain, the descent directions and the update once per descent,
    and each view's thin loss pass, trace row and divergence check on its
    own task factors. The residual products run per group of descents that
    share a task factor height, descent kind and view count, so each job's
    arithmetic is the same as when it trains alone, and its result does not
    depend on the rest of the batch.
    """
    jobs = list(jobs)
    out: list = [None] * len(jobs)
    groups: dict[tuple, dict] = {}
    for i, job in enumerate(jobs):
        try:
            instance = validate(job.instance, tol)
            init = None if job.init is None else check_code_shapes(job.init, instance)
            if job.spectrum is not None and job.spectrum.instance is not job.instance:
                raise ValueError("TrainJob.spectrum was computed from another instance")
        except _MEMBER_ERRORS as exc:
            out[i] = exc
            continue
        jobs[i] = job = replace(job, instance=instance, init=init)
        c = job.config
        key = (*_dims(instance), c.epochs, c.gradient, c.batch_size)
        groups.setdefault(key, {}).setdefault(_descent_key(i, job), []).append(i)
    for (n, _, _, _, epochs, _, batch_size), descents in groups.items():
        descents = list(descents.values())
        size = max(1, _LOCKSTEP_BYTES // (8 * n * n))
        for lo in range(0, len(descents), size):
            started = []
            for views in descents[lo:lo + size]:
                try:
                    start = _start(jobs[views[0]], tol)
                except _MEMBER_ERRORS as exc:
                    for i in views:
                        out[i] = exc
                    continue
                factors = [_factors(jobs[i].instance.k3, jobs[i].instance.k4, n) for i in views]
                started.append((start, list(zip(views, factors))))
            if started:
                # _stack empties `started`, and the batch is dropped as soon
                # as it has trained, before the next one is built
                _descend(_stack(jobs, started), epochs, batch_size, out)
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
