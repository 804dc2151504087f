"""Problem instances, whitening, Gram spectra, the total-loss lower bound,
and the single-link optimum.

Conventions fixed here and relied on everywhere else:
  - Observation 1 is the first `a` coordinates of x, observation 2 the last `b`.
  - Whitened coordinates are h = L^{-1} x with psi = L L^T (Cholesky).
  - Node i's observation span in whitened coordinates is spanned by the first a
    (resp. last b) rows of L, i.e. columns of L^T.
  - Eigen-decompositions are returned in descending order with each eigenvector's
    largest-magnitude entry positive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .subspace import (
    Basis,
    DEFAULT_TOL,
    ToleranceConfig,
    extend_from_pool,
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


@dataclass(frozen=True)
class ProblemInstance:
    n: int
    psi: np.ndarray   # n x n covariance
    a: int
    b: int
    z: int
    k3: np.ndarray    # m3 x n task matrix for sink 3
    k4: np.ndarray    # m4 x n task matrix for sink 4


def validate(instance: ProblemInstance, tol: ToleranceConfig = DEFAULT_TOL) -> ProblemInstance:
    """Check invariants and return the instance with a symmetrized covariance."""
    n, a, b, z = instance.n, instance.a, instance.b, instance.z
    for name, value in (("n", n), ("a", a), ("b", b), ("z", z)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise BadDimensions(f"{name} must be an integer, got {value!r}")
    psi = np.asarray(instance.psi, dtype=float)
    k3 = np.atleast_2d(np.asarray(instance.k3, dtype=float))
    k4 = np.atleast_2d(np.asarray(instance.k4, dtype=float))
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
    if a < 0 or b < 0 or max(a, b) > n or n > a + b:
        raise ObservationConstraintViolated(
            f"need max(a, b) <= n <= a + b, got a={a}, b={b}, n={n}"
        )
    psi = 0.5 * (psi + psi.T)
    w = np.linalg.eigvalsh(psi)
    if w[0] < -tol.rank_tol * max(1.0, float(w[-1])):
        raise NotPSD(f"covariance eigenvalue {w[0]} below tolerance")
    return ProblemInstance(n=n, psi=psi, a=a, b=b, z=z, k3=k3, k4=k4)


def _cholesky(psi: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailed(str(exc)) from exc
    d = np.diag(chol)
    if d.min() <= np.sqrt(tol.rank_tol) * d.max():
        raise CholeskyFailed("covariance numerically rank-deficient; whiten first")
    return chol


def _descending_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    # deterministic sign: largest-magnitude entry of each eigenvector positive
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return w, v * signs


@dataclass(frozen=True)
class TaskSpectrum:
    cholesky_l: np.ndarray   # psi = L L^T
    s3: np.ndarray           # L^T K3^T K3 L
    s4: np.ndarray
    mu3: np.ndarray          # descending eigenvalues
    mu4: np.ndarray
    u3: np.ndarray           # full eigenvector matrices, column i for mu_i
    u4: np.ndarray
    top3: np.ndarray         # first min{2Z, n} eigenvector columns
    top4: np.ndarray
    obs1: np.ndarray         # observation span of node 1: first a rows of L, as columns
    obs2: np.ndarray
    eigengap3: float         # mu_m - mu_{m+1} at m = min{2Z, n} (mu_m itself if m = n)
    eigengap4: float
    z: int

    @property
    def n(self) -> int:
        return self.cholesky_l.shape[0]


def spectrum(instance: ProblemInstance, tol: ToleranceConfig = DEFAULT_TOL) -> TaskSpectrum:
    """Cholesky factor, Gram matrices and their ordered eigen-systems.

    Requires a positive definite covariance; whiten rank-deficient instances
    first.
    """
    inst = instance
    chol = _cholesky(inst.psi, tol)
    s3 = chol.T @ inst.k3.T @ inst.k3 @ chol
    s4 = chol.T @ inst.k4.T @ inst.k4 @ chol
    mu3, u3 = _descending_eigh(s3)
    mu4, u4 = _descending_eigh(s4)
    m = min(2 * inst.z, inst.n)
    gap3 = float(mu3[m - 1] - (mu3[m] if m < inst.n else 0.0))
    gap4 = float(mu4[m - 1] - (mu4[m] if m < inst.n else 0.0))
    return TaskSpectrum(
        cholesky_l=chol,
        s3=s3, s4=s4,
        mu3=mu3, mu4=mu4,
        u3=u3, u4=u4,
        top3=u3[:, :m], top4=u4[:, :m],
        obs1=chol[: inst.a, :].T.copy(),
        obs2=chol[inst.n - inst.b :, :].T.copy(),
        eigengap3=gap3, eigengap4=gap4,
        z=inst.z,
    )


def lower_bound(spec: TaskSpectrum, z: int) -> float:
    """Sum of both tasks' eigenvalues past index 2Z. Zero when 2Z >= n."""
    tail3 = np.clip(spec.mu3[2 * z :], 0.0, None)
    tail4 = np.clip(spec.mu4[2 * z :], 0.0, None)
    return float(tail3.sum() + tail4.sum())


def lower_bound_of(instance: ProblemInstance) -> float:
    """Lower bound straight from the instance; also valid for singular psi.

    The nonzero eigenvalues of L^T K^T K L coincide with those of K psi K^T, so
    the trailing sums can be read off the small task-side matrices without a
    Cholesky factor.
    """
    total = 0.0
    for k in (instance.k3, instance.k4):
        w = np.linalg.eigvalsh(k @ instance.psi @ k.T)[::-1]
        w = np.clip(w, 0.0, None)
        padded = np.zeros(instance.n)
        padded[: min(w.size, instance.n)] = w[: instance.n]
        total += float(padded[2 * instance.z :].sum())
    return total


def task_pca(k: np.ndarray, psi: np.ndarray, z: int,
             tol: ToleranceConfig = DEFAULT_TOL):
    """Single-link optimum: (encoder Z x n, decoder n x Z, loss).

    The encoder projects onto the top-Z eigenvectors of the Gram matrix in
    whitened coordinates; the decoder is the closed-form least-squares inverse.
    The loss is the sum of the trailing eigenvalues.
    """
    k = np.atleast_2d(np.asarray(k, dtype=float))
    psi = np.asarray(psi, dtype=float)
    chol = _cholesky(0.5 * (psi + psi.T), tol)
    s = chol.T @ k.T @ k @ chol
    mu, u = _descending_eigh(s)
    uz = u[:, :z]
    # encoder = U_Z^T L^{-1}; solve L^T X = U_Z instead of forming the inverse
    enc = solve_triangular(chol, uz, lower=True, trans="T").T
    dec = chol @ uz
    loss = float(np.clip(mu[z:], 0.0, None).sum())
    return enc, dec, loss


@dataclass(frozen=True)
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
    b1 = orthonormal_basis(theta1, tol, ambient_dim=n_t)
    b2 = orthonormal_basis(theta2, tol, ambient_dim=n_t)
    a_t, b_t = b1.dim, b2.dim
    shared = intersect(b1, b2, tol)
    ext1 = extend_from_pool(shared, b1, b1, tol)
    ext2 = extend_from_pool(shared, b2, b2, tol)
    blocks = []
    if ext1:
        blocks.append(np.column_stack(ext1))
    if shared.dim:
        blocks.append(shared.vectors)
    if ext2:
        blocks.append(np.column_stack(ext2))
    omega = np.hstack(blocks) if blocks else np.zeros((n_t, 0))
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


def observation_bases(spec: TaskSpectrum, tol: ToleranceConfig = DEFAULT_TOL):
    """Orthonormal bases of the two observation spans in whitened coordinates."""
    n = spec.n
    return (
        orthonormal_basis(spec.obs1, tol, ambient_dim=n),
        orthonormal_basis(spec.obs2, tol, ambient_dim=n),
    )


def task_bases(spec: TaskSpectrum) -> tuple[Basis, Basis]:
    """The two top eigenvector blocks as Basis values."""
    n = spec.n
    return Basis(n, spec.top3.copy()), Basis(n, spec.top4.copy())


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
    missing = {"n", "a", "b", "z", "psi", "k3", "k4"} - set(doc)
    if missing:
        raise BadDimensions(f"instance document missing fields: {sorted(missing)}")
    return validate(
        ProblemInstance(
            n=int(doc["n"]),
            psi=np.asarray(doc["psi"], dtype=float),
            a=int(doc["a"]),
            b=int(doc["b"]),
            z=int(doc["z"]),
            k3=np.asarray(doc["k3"], dtype=float),
            k4=np.asarray(doc["k4"], dtype=float),
        ),
        tol,
    )


def covariance_from_samples(samples: np.ndarray) -> np.ndarray:
    """Empirical covariance (1/N) sum x x^T after mean removal. Rows are samples."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    x = x - x.mean(axis=0, keepdims=True)
    return x.T @ x / x.shape[0]


def load_samples_csv(path) -> np.ndarray:
    """Numeric CSV with one sample per row."""
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise OSError(f"cannot read sample matrix from {path}: {exc}") from exc
