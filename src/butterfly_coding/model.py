"""Problem instances, whitening, Gram spectra, and what is read off a
spectrum at its instance's capacity Z: the total-loss lower bound and the
single-link optimum.

A TaskSpectrum holds only what `spectrum` factors: the instance, L, the
whitened task Grams and their eigenpairs. Whatever else is derived from
them (the top eigenvector blocks, the eigengaps, the observation spans) is
computed where it is read.

Conventions fixed here and relied on everywhere else:
  - Observation 1 is the first `a` coordinates of x, observation 2 the last `b`.
  - Whitened coordinates are h = L^{-1} x with psi = L L^T (Cholesky).
  - Node i's observation span in whitened coordinates is spanned by the first a
    (resp. last b) rows of L, i.e. columns of L^T. L is lower-triangular and
    nonsingular, so node 1's span is exactly the first a axes, span(e_1 ...
    e_a); node 2's is a general subspace. It is the last b axes exactly when
    the last b rows of L vanish left of column n - b (_node2_on_axes): for
    psi = I, and for any psi with no covariance between the first n - b
    coordinates and the last b. The analysis and realize_spans then take
    node 2's span as those axes, as they take node 1's.
  - psi = I is decided by _is_identity, exactly, with no tolerance: then L = I,
    and the closed-form path (validate, spectrum, exact_loss,
    optimal_decoders) neither factors psi nor multiplies by it. It returns the
    general path's bits. whiten keeps its tolerance-based identity
    pass-through, since it returns the instance itself rather than a value
    computed from psi.
  - Eigen-decompositions are returned in descending order with each eigenvector's
    largest-magnitude entry positive.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .subspace import (
    Basis,
    DEFAULT_TOL,
    ToleranceConfig,
    _extensions,
    _fix_signs,
    intersect,
    orthonormal_basis,
)


class BadDimensions(ValueError):
    """Field shapes are inconsistent."""


class ObservationConstraintViolated(ValueError):
    """max{a, b} <= n <= a + b does not hold."""


class NotPSD(ValueError):
    """Covariance has an eigenvalue below -tol."""


class CholeskyFailed(ValueError):
    """Covariance is not positive definite at the working tolerance."""


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    n: int
    psi: np.ndarray   # n x n covariance
    a: int
    b: int
    z: int
    k3: np.ndarray    # m3 x n task matrix for sink 3
    k4: np.ndarray    # m4 x n task matrix for sink 4


def _non_reals(value):
    """The entries of a nested matrix that are not real numbers. numpy reads
    booleans and numeric strings as numbers, even a JSON true inside a list
    of numbers, so they are looked for entry by entry; an array of a numeric
    dtype has none."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":
            return
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for entry in value:
            yield from _non_reals(entry)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        yield value


def _real_array(name: str, value) -> np.ndarray:
    """`value` as a float array, once it is checked to hold only real
    numbers; BadDimensions, naming the field `name`, otherwise."""
    for entry in _non_reals(value):
        raise BadDimensions(f"{name} must be an array of real numbers, got the entry {entry!r}")
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadDimensions(f"{name} must be an array of real numbers: {exc}") from None


def _is_identity(psi) -> bool:
    """True iff psi is exactly the identity matrix, with no tolerance: its
    diagonal is all ones and it has no other nonzero entry (NaN counts as
    nonzero). Counts in place, with no n x n temporary."""
    psi = np.asarray(psi)
    return (psi.ndim == 2 and psi.shape[0] == psi.shape[1]
            and bool(np.all(np.diagonal(psi) == 1.0))
            and np.count_nonzero(psi) == psi.shape[0])


def validate(instance: ProblemInstance, tol: ToleranceConfig = DEFAULT_TOL) -> ProblemInstance:
    """Check invariants and return the instance with a symmetrized covariance."""
    n, a, b, z = instance.n, instance.a, instance.b, instance.z
    for name, value in (("n", n), ("a", a), ("b", b), ("z", z)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise BadDimensions(f"{name} must be an integer, got {value!r}")
    mats = {name: _real_array(name, getattr(instance, name)) for name in ("psi", "k3", "k4")}
    psi = mats["psi"]
    k3, k4 = np.atleast_2d(mats["k3"]), np.atleast_2d(mats["k4"])
    for name, k in (("k3", k3), ("k4", k4)):
        if not np.all(np.isfinite(k)):
            raise BadDimensions(f"{name} contains non-finite entries")
    if not np.all(np.isfinite(psi)):
        raise NotPSD("covariance contains non-finite entries")
    if n < 1 or z < 1:
        raise BadDimensions(f"need n >= 1 and z >= 1, got n={n}, z={z}")
    if psi.shape != (n, n):
        raise BadDimensions(f"psi shape {psi.shape}, expected ({n}, {n})")
    if k3.shape[1] != n or k4.shape[1] != n:
        raise BadDimensions(
            f"task matrices must have {n} columns, got {k3.shape} and {k4.shape}"
        )
    # ||K L||_F^2 <= rows * n * max|K|^2 * n * max|psi| (with psi = L L^T)
    # bounds every partial sum of the Gram products L^T K^T K L and the
    # zero code's loss; a bound past the float range may overflow them
    top = float(np.abs(psi).max())
    for name, k in (("k3", k3), ("k4", k4)):
        big = float(np.abs(k).max(initial=0.0))
        if not np.isfinite(float(k.shape[0] * int(n) ** 2) * top * big * big):
            raise BadDimensions(f"{name} entries up to {big:.6g} with psi entries up to "
                                f"{top:.6g} overflow the task's Gram products")
    if a < 0 or b < 0 or max(a, b) > n or n > a + b:
        raise ObservationConstraintViolated(
            f"need max(a, b) <= n <= a + b, got a={a}, b={b}, n={n}"
        )
    psi = 0.5 * (psi + psi.T)
    if not _is_identity(psi):      # the identity's eigenvalues are all exactly 1
        w = np.linalg.eigvalsh(psi)
        if w[0] < -tol.rank_tol * max(1.0, float(w[-1])):
            raise NotPSD(f"covariance eigenvalue {w[0]} below tolerance")
    return ProblemInstance(n=n, psi=psi, a=a, b=b, z=z, k3=k3, k4=k4)


def _cholesky(psi: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    if _is_identity(psi):
        return np.eye(len(psi))
    try:
        chol = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailed("covariance is singular or not positive definite, e.g. "
                             "estimated from fewer samples than coordinates") from exc
    d = np.diag(chol)
    if d.min() <= np.sqrt(tol.rank_tol) * d.max():
        raise CholeskyFailed("covariance numerically rank-deficient; whiten first")
    return chol


def _node2_on_axes(chol: np.ndarray, b: int) -> bool:
    """True iff node 2's observation span is the last b whitened axes: the
    last b rows of L are zero left of column n - b, so, L being nonsingular,
    they span exactly those axes."""
    n = len(chol)
    return not np.any(chol[n - b:, :n - b])


def _descending_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    return w[::-1].copy(), _fix_signs(v[:, ::-1].copy())


@dataclass(frozen=True, eq=False)
class TaskSpectrum:
    instance: ProblemInstance  # what spectrum(instance, tol) was computed from
    cholesky_l: np.ndarray   # psi = L L^T
    s3: np.ndarray           # L^T K3^T K3 L
    s4: np.ndarray
    mu3: np.ndarray          # descending eigenvalues
    mu4: np.ndarray
    u3: np.ndarray           # full eigenvector matrices, column i for mu_i
    u4: np.ndarray

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def z(self) -> int:
        return self.instance.z


def spectrum(instance: ProblemInstance, tol: ToleranceConfig = DEFAULT_TOL) -> TaskSpectrum:
    """Cholesky factor, Gram matrices and their ordered eigen-systems.

    Takes a validated instance (`validate`), and requires a positive
    definite covariance; whiten rank-deficient instances first. A raw
    instance is not symmetrized here: the Cholesky factor reads only the
    lower triangle of psi, so an asymmetric psi gives another spectrum.
    When the tasks are the same, S3 = S4 bit for bit (the paper's
    K3^T K3 = K4^T K4), S3 alone is decomposed and task 4 gets copies of its
    eigenpairs: the bits _descending_eigh(S4) would give.
    """
    inst = instance
    chol = _cholesky(inst.psi, tol)
    if _is_identity(inst.psi):
        # L = I, so S = K^T K; K^T is copied because numpy sends a product
        # of one buffer with its own transpose to syrk, whose bits differ
        s3, s4 = (k.T.copy() @ k for k in (inst.k3, inst.k4))
    else:
        s3 = chol.T @ inst.k3.T @ inst.k3 @ chol
        s4 = chol.T @ inst.k4.T @ inst.k4 @ chol
    mu3, u3 = _descending_eigh(s3)
    mu4, u4 = (mu3.copy(), u3.copy()) if np.array_equal(s3, s4) else _descending_eigh(s4)
    return TaskSpectrum(instance=inst, cholesky_l=chol, s3=s3, s4=s4,
                        mu3=mu3, mu4=mu4, u3=u3, u4=u4)


def _tail(w: np.ndarray, n: int, cut: int, tol: ToleranceConfig) -> float:
    """Sum past index `cut` of the descending eigenvalues w, truncated or
    padded with zeros to length n. Eigenvalues at or below rank_tol * max(1, w[0]),
    the relative rule of the eigengap flags, count as zero: on a
    rank-deficient Gram they are rounding noise, and dropping them can only
    lower the loss they sum to."""
    padded = np.zeros(n)
    padded[: min(w.size, n)] = w[:n]
    floor = tol.rank_tol * max(1.0, float(w[0])) if w.size else 0.0
    padded[padded <= floor] = 0.0
    return float(padded[cut:].sum())


def lower_bound(spec: TaskSpectrum, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Sum of both tasks' eigenvalues past index 2Z, at the spectrum's
    capacity Z, each task's noise floor counted as zero (see _tail). Zero
    when 2Z >= n."""
    cut = 2 * spec.z
    return _tail(spec.mu3, spec.n, cut, tol) + _tail(spec.mu4, spec.n, cut, tol)


def lower_bound_of(instance: ProblemInstance, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Lower bound straight from the instance; also valid for singular psi.

    The nonzero eigenvalues of L^T K^T K L coincide with those of K psi K^T, so
    the trailing sums can be read off the small task-side matrices without a
    Cholesky factor.
    """
    return sum(_tail(np.linalg.eigvalsh(k @ instance.psi @ k.T)[::-1], instance.n,
                     2 * instance.z, tol)
               for k in (instance.k3, instance.k4))


def task_pca(spec: TaskSpectrum, task: str, tol: ToleranceConfig = DEFAULT_TOL):
    """Single-link optimum of task "k3" or "k4" at the spectrum's capacity Z:
    (encoder Z x n, decoder n x Z, loss).

    The encoder projects onto the top-Z eigenvectors of the task's Gram
    matrix in whitened coordinates; the decoder is the closed-form
    least-squares inverse. The loss is the sum of the trailing eigenvalues,
    the noise floor counted as zero (see _tail). When Z > n the link has
    more dimensions than there are eigenvectors: the encoder's rows past n
    and the decoder's columns past n are zero, which changes no loss.
    """
    if task not in ("k3", "k4"):
        raise ValueError(f"pca task must be \"k3\" or \"k4\", got {task!r}")
    mu, u = (spec.mu3, spec.u3) if task == "k3" else (spec.mu4, spec.u4)
    chol, n, z = spec.cholesky_l, spec.n, spec.z
    uz = u[:, :z]
    # encoder = U_Z^T L^{-1}; solve L^T X = U_Z instead of forming the inverse
    enc = np.zeros((z, n))
    enc[:uz.shape[1]] = solve_triangular(chol, uz, lower=True, trans="T").T
    dec = np.zeros((n, z))
    dec[:, :uz.shape[1]] = chol @ uz
    return enc, dec, _tail(mu, n, z, tol)


@dataclass(frozen=True, eq=False)
class WhitenedInstance:
    """Full-rank reparameterization preserving both task losses.

    forward_map sends a sample x to the inner coordinates; backward_map returns
    (backward_map @ forward_map @ x recovers x almost surely). obs1_map and
    obs2_map express the inner observations in terms of the original ones:
    inner x(1) = obs1_map @ original x(1), likewise for node 2. Codes found on
    the inner instance lift through these maps without changing either loss.
    """

    inner: ProblemInstance
    forward_map: np.ndarray    # n_tilde x n
    backward_map: np.ndarray   # n x n_tilde
    a_tilde: int
    b_tilde: int
    obs1_map: np.ndarray       # a_tilde x a
    obs2_map: np.ndarray       # b_tilde x b


def whiten(instance: ProblemInstance, tol: ToleranceConfig = DEFAULT_TOL) -> WhitenedInstance:
    """Reduce to a full-rank instance with the same optimal losses.

    The inner covariance is positive definite with rank equal to the rank of
    psi. Identity covariances pass through unchanged.
    """
    inst = validate(instance, tol)
    n, a, b = inst.n, inst.a, inst.b
    eye = np.eye(n)
    if np.max(np.abs(inst.psi - eye)) <= tol.rank_tol:
        return WhitenedInstance(
            inner=inst,
            forward_map=eye.copy(),
            backward_map=eye.copy(),
            a_tilde=a,
            b_tilde=b,
            obs1_map=np.eye(a),
            obs2_map=np.eye(b),
        )
    w, q = np.linalg.eigh(inst.psi)
    order = np.argsort(w)[::-1]
    w = w[order]
    q = q[:, order]
    keep = w > tol.rank_tol * max(1.0, float(w[0]))
    n_t = int(np.sum(keep))
    if n_t == 0:
        raise BadDimensions("covariance is numerically zero")
    root = np.sqrt(w[:n_t])
    qp = q[:, :n_t]
    theta = (qp * root).T            # n_tilde x n, theta^T theta = psi restricted
    theta1 = theta[:, :a]
    theta2 = theta[:, n - b :]
    b1 = orthonormal_basis(theta1, tol)
    b2 = orthonormal_basis(theta2, tol)
    a_t, b_t = b1.dim, b2.dim
    shared = intersect(b1, b2, tol)
    ext1, ext2 = _extensions(shared, [(b1, a_t - shared.dim), (b2, b_t - shared.dim)], tol)
    omega = np.hstack([ext1, shared.vectors, ext2])
    if omega.shape != (n_t, n_t):
        raise BadDimensions(
            f"whitening basis came out {omega.shape}, expected ({n_t}, {n_t})"
        )
    forward = omega.T @ ((qp / root).T)
    backward = np.linalg.solve(omega, theta).T
    psi_inner = omega.T @ omega
    inner = validate(
        ProblemInstance(
            n=n_t,
            psi=psi_inner,
            a=a_t,
            b=b_t,
            z=inst.z,
            k3=inst.k3 @ backward,
            k4=inst.k4 @ backward,
        ),
        tol,
    )
    obs1_map = np.linalg.lstsq(theta1, omega[:, :a_t], rcond=tol.rank_tol)[0].T
    obs2_map = np.linalg.lstsq(theta2, omega[:, n_t - b_t :], rcond=tol.rank_tol)[0].T
    return WhitenedInstance(
        inner=inner,
        forward_map=forward,
        backward_map=backward,
        a_tilde=a_t,
        b_tilde=b_t,
        obs1_map=obs1_map,
        obs2_map=obs2_map,
    )


def task_bases(spec: TaskSpectrum) -> tuple[Basis, Basis]:
    """The two tasks' top m = min{2Z, n} eigenvector columns as Basis values."""
    m = min(2 * spec.z, spec.n)
    return Basis(spec.u3[:, :m].copy()), Basis(spec.u4[:, :m].copy())


def instance_to_json(instance: ProblemInstance) -> str:
    doc = {
        "n": instance.n,
        "a": instance.a,
        "b": instance.b,
        "z": instance.z,
        "psi": np.asarray(instance.psi, dtype=float).tolist(),
        "k3": np.atleast_2d(np.asarray(instance.k3, dtype=float)).tolist(),
        "k4": np.atleast_2d(np.asarray(instance.k4, dtype=float)).tolist(),
    }
    return json.dumps(doc)


def instance_from_json(text: str, tol: ToleranceConfig = DEFAULT_TOL) -> ProblemInstance:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise BadDimensions(f"instance document must be a JSON object, got {doc!r}")
    names = ("n", "psi", "a", "b", "z", "k3", "k4")
    missing = set(names) - set(doc)
    if missing:
        raise BadDimensions(f"instance document missing fields: {sorted(missing)}")
    # validate converts the matrices and rejects non-integer dimensions
    return validate(ProblemInstance(**{name: doc[name] for name in names}), tol)


def covariance_from_samples(samples: np.ndarray) -> np.ndarray:
    """Empirical covariance (1/N) sum x x^T after mean removal. Rows are samples."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    if x.shape[0] == 0:
        raise BadDimensions("sample matrix has no rows")
    x = x - x.mean(axis=0, keepdims=True)
    return x.T @ x / x.shape[0]


def load_samples_csv(path) -> np.ndarray:
    """Numeric CSV with one sample per row; an empty file gives no rows."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise OSError(f"cannot read sample matrix from {path}: {exc}") from exc
