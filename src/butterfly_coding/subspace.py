"""Tolerance-aware numerical subspace algebra.

Every subspace is represented by an orthonormal column basis together with a
relative singular-value tolerance that decides all rank questions. The same
ToleranceConfig instance is threaded through the higher-level modules so the
whole library shares one rank knob.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr


class DimensionMismatch(ValueError):
    """Inputs do not share an ambient dimension."""


class InfeasibleExtension(RuntimeError):
    """The pool cannot extend the core to span the target."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative rank threshold: singular values below rank_tol * s_max count as zero."""

    rank_tol: float = 1e-10

    def __post_init__(self):
        if isinstance(self.rank_tol, bool) or not isinstance(self.rank_tol, numbers.Real):
            raise ValueError(f"rank_tol must be a real number, got {self.rank_tol!r}")
        # rank_tol < 1/sqrt(2) in floating point iff rank_tol * sqrt(2) < 1
        if not (0.0 <= self.rank_tol < 1.0 / math.sqrt(2.0)):
            raise ValueError(f"rank_tol must lie in [0, 1/sqrt(2)), where intersect's test "
                             f"still refuses orthogonal directions; got {self.rank_tol}")


DEFAULT_TOL = ToleranceConfig()


def _require_matrix(vectors) -> None:
    """Raise unless `vectors` is a 2-D array: the (n, k) matrix of k column vectors."""
    if not (isinstance(vectors, np.ndarray) and vectors.ndim == 2):
        got = (f"shape {vectors.shape}" if isinstance(vectors, np.ndarray)
               else type(vectors).__name__)
        raise DimensionMismatch(f"expected an (n, k) array of column vectors, got {got}")


def _as_matrix(vectors) -> np.ndarray:
    """The (n, k) array of column vectors as a float matrix with finite entries."""
    _require_matrix(vectors)
    m = np.asarray(vectors, dtype=float)
    bad = ~np.isfinite(m)
    if bad.any():
        rows, cols = np.nonzero(bad)
        entries = ", ".join(f"{m[i, j]} at ({i}, {j})" for i, j in zip(rows[:3], cols[:3]))
        more = f" and {rows.size - 3} more" if rows.size > 3 else ""
        raise ValueError(f"vectors hold non-finite entries: {entries}{more}")
    return m


def _fix_signs(m: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    if m.size == 0:
        return m
    idx = np.argmax(np.abs(m), axis=0)
    signs = np.sign(m[idx, np.arange(m.shape[1])])
    signs[signs == 0] = 1.0
    return m * signs


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal column basis of a subspace of R^n: the (n, k) matrix of
    its k basis vectors. k = 0 is a valid empty basis."""

    vectors: np.ndarray

    def __post_init__(self):
        _require_matrix(self.vectors)
        if self.dim > self.ambient_dim:
            raise DimensionMismatch("more basis vectors than ambient dimensions")

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @staticmethod
    def empty(ambient_dim: int) -> "Basis":
        return Basis(np.zeros((ambient_dim, 0)))


def orthonormal_basis(vectors: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> Basis:
    """Orthonormal basis of the span of a (n, k) array's columns; the column
    count equals the numerical rank. Columns come out ordered by descending
    singular value with a deterministic sign convention.
    """
    m = _as_matrix(vectors)
    n = m.shape[0]
    if m.shape[1] == 0:
        return Basis.empty(n)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return Basis.empty(n)
    rank = int(np.sum(s > tol.rank_tol * s[0]))
    return Basis(_fix_signs(u[:, :rank]))


def _check_same_ambient(a: Basis, b: Basis):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def _sine_test(resid: np.ndarray, rank: int, tol: ToleranceConfig):
    """SVD U, V^T of `resid` and the mask of the angles that pass
    intersect's test, one entry per row of V^T.

    `resid` holds the part of an orthonormal basis S outside another span,
    in any orthonormal coordinates, so its singular values are the sines of
    the principal angles between the spans, S V are the principal vectors
    and U the directions of S outside the other span. `rank` bounds the
    residual's rank (n less the other span's dimension); the sines past it
    are zero by construction and are set so exactly. Sines descend, so the
    angles that fail the test come first.
    """
    k = resid.shape[1]
    u, s, vh = np.linalg.svd(resid, full_matrices=resid.shape[0] < k)
    sines = np.zeros(k)
    top = min(s.size, rank)
    sines[:top] = np.minimum(s[:top], 1.0)
    cosines = np.sqrt(1.0 - sines**2)
    # the last cosine is cos(theta_1), the smallest angle's
    keep = sines <= tol.rank_tol * np.sqrt((1.0 + cosines) * (1.0 + cosines[-1]))
    return u, vh, keep


def _principal_vectors(resid: np.ndarray, rank: int, tol: ToleranceConfig) -> np.ndarray:
    """Right singular vectors V of `resid` whose angle passes intersect's
    test (see _sine_test)."""
    if resid.shape[1] == 0:
        return np.zeros((0, 0))
    _, vh, keep = _sine_test(resid, rank, tol)
    return vh[keep].T


def _residual(a: Basis, b: Basis) -> tuple[np.ndarray, np.ndarray, int]:
    """(A^T B, (I - G G^T) S, n - dim G) for S the smaller basis (A on a
    tie) and G the larger."""
    cross = a.vectors.T @ b.vectors
    if a.dim <= b.dim:
        return cross, a.vectors - b.vectors @ cross.T, a.ambient_dim - b.dim
    return cross, b.vectors - a.vectors @ cross, a.ambient_dim - a.dim


def _unit_basis(vectors: np.ndarray) -> Basis:
    """Basis of mutually orthogonal nonzero columns, scaled to unit length."""
    return Basis(_fix_signs(vectors / np.linalg.norm(vectors, axis=0)))


def intersect(a: Basis, b: Basis, tol: ToleranceConfig = DEFAULT_TOL) -> Basis:
    """Basis of the intersection, from the sines of the principal angles.

    With S the smaller basis (A on a tie) and G the larger, the residual
    (I - G G^T) S has the sines of the principal angles
    theta_1 <= ... <= theta_k between the spans as singular values, and its
    right singular vectors V give the principal vectors S V. The
    intersection holds the angles that pass

        sin(theta) <= rank_tol * sqrt((1 + cos(theta)) * (1 + cos(theta_1))).

    That is the rank rule of the stacked system [A | -B] rewritten. For
    orthonormal A and B, [A | -B] has singular values sqrt(1 +- cos(theta_i)),
    plus 1 for each column the larger basis has more, so its largest is
    sqrt(1 + cos(theta_1)). A null vector under the relative threshold is a
    value sqrt(1 - cos(theta)) = sqrt(2) sin(theta/2) at most
    rank_tol * sqrt(1 + cos(theta_1)), and 1 - cos(theta) =
    sin(theta)^2 / (1 + cos(theta)) turns that into the test above. The
    values of 1 and above never pass while rank_tol < 1/sqrt(2), so both
    rules count the same dimensions. The sine form resolves angles down to
    rounding, where the cosine form (singular values of A^T B) stops near
    1e-8 (Bjorck & Golub, Math. Comp. 1973; Knyazev & Argentati, SIAM J.
    Sci. Comput. 2002).

    The basis spans A's principal vectors, as the null vectors (alpha, beta)
    of [A | -B] gave A alpha: when B is the smaller basis, A's partners of
    B V are A A^T B V, normalized.
    """
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return Basis.empty(a.ambient_dim)
    cross, resid, rank = _residual(a, b)
    v = _principal_vectors(resid, rank, tol)
    return _unit_basis(a.vectors @ v if a.dim <= b.dim else a.vectors @ (cross @ v))


def _coordinate_cut(basis: Basis, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> Basis:
    """intersect(span(e_1 ... e_k), basis), by the test intersect applies:
    the residual of the basis against the first k axes is its rows past k,
    and the result lies on those axes."""
    v = _principal_vectors(basis.vectors[k:], basis.ambient_dim - k, tol)
    vecs = np.zeros((basis.ambient_dim, v.shape[1]))
    vecs[:k] = basis.vectors[:k] @ v
    return _unit_basis(vecs)


def _outside(a: Basis, b: Basis, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """(G, U): the larger basis G (B on a tie) and the directions of the
    smaller basis S outside G whose angle fails intersect's test, the left
    singular vectors of the residual (I - G G^T) S with those sines.

    No SVD runs when ||(I - G G^T) S||_F <= rank_tol: every sine is a
    singular value of the residual, so none exceeds its Frobenius norm, and
    intersect's test passes every sine up to rank_tol, as
    rank_tol * sqrt((1 + cos(theta)) * (1 + cos(theta_1))) >= rank_tol.
    U is then empty, as the SVD would give (at rank_tol = 0, only an
    exactly zero residual qualifies).
    """
    _, resid, rank = _residual(a, b)
    g = b.vectors if a.dim <= b.dim else a.vectors
    if np.linalg.norm(resid) <= tol.rank_tol:
        return g, resid[:, :0]
    u, _, keep = _sine_test(resid, rank, tol)
    return g, u[:, :int(np.count_nonzero(~keep))]


def join(a: Basis, b: Basis, tol: ToleranceConfig = DEFAULT_TOL) -> Basis:
    """Basis of the sum A + B: the larger basis G followed by the directions
    of the smaller basis outside it (see _outside). The count reads the
    residual and the test that intersect reads, so dim join = dim A + dim B
    - dim intersect holds in floating point too. A left singular vector of
    sine s is orthogonal to G only to rounding / s, so the new directions
    are projected against G and re-orthonormalized by a QR, twice: the
    second pass restores orthogonality to rounding after the first has
    normalized what it left (Gram-Schmidt "twice is enough", Parlett, The
    Symmetric Eigenvalue Problem, 1980).
    """
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return b if a.dim == 0 else a
    g, new = _outside(a, b, tol)
    if new.shape[1] == 0:
        return Basis(g.copy())
    for _ in range(2):
        new = np.linalg.qr(new - g @ (g.T @ new))[0]
    return Basis(np.hstack([g, new]))


def is_subspace_of(a: Basis, b: Basis, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff no direction of A lies outside B by intersect's test, i.e.
    dim intersect(A, B) = dim A: the decision join makes (see _outside)."""
    _check_same_ambient(a, b)
    return a.dim == 0 or (a.dim <= b.dim and _outside(a, b, tol)[1].shape[1] == 0)


def _greedy_pick(current: np.ndarray, pool: np.ndarray, count: int,
                 tol: ToleranceConfig) -> np.ndarray:
    """The (n, count) matrix of pool columns picked each with the largest
    residual against the running span. Raises if the pool runs out of
    independent directions first.

    The pool is projected against the current span once. The picks are then
    the pivots of a QR with column pivoting of that residual (Businger &
    Golub, Numer. Math. 1965; LAPACK xGEQP3), which takes the column of
    largest residual norm at each step, and |R_jj| is the j-th pick's
    residual. Ties fall to xGEQP3's pivot order."""
    if count == 0:
        return pool[:, :0]
    resid = pool
    if current.shape[1]:
        q = orthonormal_basis(current, tol).vectors
        resid = pool - q @ (q.T @ pool)
    r, order = qr(resid, mode="r", pivoting=True)
    found = np.abs(np.diag(r)[:count]) > tol.rank_tol
    picked = found.size if found.all() else int(np.argmin(found))
    if picked < count:
        raise InfeasibleExtension(
            f"pool exhausted after {picked} of {count} extension vectors"
        )
    return pool[:, order[:count]]


def extend_from_pool(core: Basis, pool: Basis, target: Basis,
                     tol: ToleranceConfig = DEFAULT_TOL,
                     cover: Basis | None = None) -> np.ndarray:
    """The (n, target.dim - core.dim) matrix of pool vectors that extend the
    core to a basis of the target.

    The core must lie inside the target; the pool need not, in which case
    selection happens inside pool intersect target (by modularity this
    preserves feasibility whenever span(core union pool) covers the target).
    `cover` is join(core, pool) when the caller has already built it (None
    builds it).
    """
    _check_same_ambient(core, pool)
    _check_same_ambient(core, target)
    if not is_subspace_of(core, target, tol):
        raise ValueError("core must be a subspace of target")
    need = target.dim - core.dim
    if need < 0:
        raise ValueError("core dimension exceeds target dimension")
    if need == 0:
        return np.zeros((core.ambient_dim, 0))
    if cover is None:
        cover = join(core, pool, tol)
    if not is_subspace_of(target, cover, tol):
        raise InfeasibleExtension("span(core union pool) does not cover target")
    effective = pool
    if not is_subspace_of(pool, target, tol):
        effective = intersect(pool, target, tol)
    return _greedy_pick(core.vectors, effective.vectors, need, tol)
