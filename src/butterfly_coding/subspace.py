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
import scipy.linalg
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
    its k basis vectors. k = 0 is a valid empty basis. The vectors are not
    checked: every function here reads them as orthonormal."""

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
    return _basis_and_top(vectors, tol)[0]


def _basis_and_top(vectors: np.ndarray, tol: ToleranceConfig) -> tuple[Basis, float]:
    """orthonormal_basis(vectors, tol) and the largest singular value of
    the vectors, 0.0 when they are all zero or there are none."""
    m = _as_matrix(vectors)
    n = m.shape[0]
    if m.shape[1] == 0:
        return Basis.empty(n), 0.0
    u, s, _ = _svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return Basis.empty(n), 0.0
    rank = int(np.sum(s > tol.rank_tol * s[0]))
    return Basis(_fix_signs(u[:, :rank])), float(s[0])


def _svd(m: np.ndarray, full_matrices: bool):
    """np.linalg.svd(m, full_matrices): LAPACK's dgesdd, bit for bit when it
    converges. When it does not, as on some finite matrices depending on the
    LAPACK build, the SVD is retried with the QR-iteration driver gesvd
    (scipy.linalg.svd); a second failure is a LinAlgError that names the
    matrix's shape."""
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError:
        pass
    try:
        return scipy.linalg.svd(m, full_matrices=full_matrices, lapack_driver="gesvd")
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"SVD of a {m.shape[0]} x {m.shape[1]} matrix did not converge "
            f"with dgesdd or gesvd") from None


def _check_same_ambient(a: Basis, b: Basis):
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )


def _sine_test(resid: np.ndarray, rank: int, tol: ToleranceConfig, left: bool = False):
    """(U, V^T, keep): the SVD factors of `resid` and the mask of the angles
    that pass intersect's test, one entry per row of V^T. U is formed only
    when `left` is set, for join, and is None otherwise.

    `resid` holds the part of an orthonormal basis S outside another span,
    in any orthonormal coordinates, so its singular values are the sines of
    the principal angles between the spans, S V are the principal vectors
    and U the directions of S outside the other span. `rank` bounds the
    residual's rank (n less the other span's dimension); the sines past it
    are zero by construction and are set so exactly. Sines descend, so the
    angles that fail the test come first.

    Without U, a residual of m >= floor(11k/6) rows is factored through
    its R factor, np.linalg.qr(resid, mode="r"), with the tall SVD's bits:
    from that height on (its MNTHR) LAPACK's dgesdd, behind np.linalg.svd,
    QR-factors first and takes the SVD of the k x k R, whose V^T and
    singular values it returns, and U as Q times R's left singular vectors.
    No m x k Q or U is formed and no m k^2 product Q U_R runs: the R-SVD
    (Chan, ACM TOMS 1982). Below that height dgesdd bidiagonalizes the
    residual itself, and the tall SVD runs as it stands.
    """
    m, k = resid.shape
    if not left and m >= 11 * k // 6:
        resid = np.linalg.qr(resid, mode="r")
    u, s, vh = _svd(resid, full_matrices=resid.shape[0] < k)
    sines = np.zeros(k)
    top = min(s.size, rank)
    sines[:top] = np.minimum(s[:top], 1.0)
    cosines = np.sqrt(1.0 - sines**2)
    # the last cosine is cos(theta_1), the smallest angle's
    keep = sines <= tol.rank_tol * np.sqrt((1.0 + cosines) * (1.0 + cosines[-1]))
    return (u if left else None), vh, keep


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


def _trailing_cut(basis: Basis, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> Basis:
    """intersect(span(e_{n-k+1} ... e_n), basis), bit for bit. When the basis
    is the smaller (dim < k), intersect's residual is the basis with its last
    k rows zeroed, and its result lies on those rows; both are read off the
    basis's rows here, with no product by the n x k axes. The residual keeps
    all n rows although only the first n - k can be nonzero, and its R
    factor (see _sine_test) gives intersect's bits; an SVD of the
    (n - k) x dim slice, as _coordinate_cut takes, would give other ones.
    On a tie intersect takes the axes as the smaller basis, so there and
    past it intersect runs as it stands."""
    n = basis.ambient_dim
    if basis.dim >= k:
        return intersect(Basis(np.eye(n, k, k - n)), basis, tol)
    resid = basis.vectors.copy()
    resid[n - k:] = 0.0
    v = _principal_vectors(resid, n - k, tol)
    vecs = np.zeros((n, v.shape[1]))
    vecs[n - k:] = basis.vectors[n - k:] @ v
    return _unit_basis(vecs)


def _outside_residual(a: Basis, b: Basis, tol: ToleranceConfig):
    """(G, R, rank): the larger basis G (B on a tie), the residual
    R = (I - G G^T) S of the smaller basis S and its rank bound, as
    _residual gives them, with R None when no sine can fail intersect's
    test.

    That is when ||R||_F <= rank_tol: every sine is a singular value of the
    residual, so none exceeds its Frobenius norm, and intersect's test
    passes every sine up to rank_tol, as
    rank_tol * sqrt((1 + cos(theta)) * (1 + cos(theta_1))) >= rank_tol.
    No SVD then runs, and none is needed to decide that no direction of S
    lies outside G (at rank_tol = 0, only an exactly zero residual
    qualifies).
    """
    _, resid, rank = _residual(a, b)
    g = b.vectors if a.dim <= b.dim else a.vectors
    return g, (None if np.linalg.norm(resid) <= tol.rank_tol else resid), rank


def _join_dim(a: Basis, b: Basis, tol: ToleranceConfig) -> int:
    """join(a, b, tol).dim, without building the join: the larger dimension
    plus the count of the sines that fail intersect's test, read with no U
    formed."""
    g, resid, rank = _outside_residual(a, b, tol)
    if resid is None:
        return g.shape[1]
    return g.shape[1] + int(np.count_nonzero(~_sine_test(resid, rank, tol)[2]))


def _beyond(g: np.ndarray, vectors: np.ndarray, top: float, tol: ToleranceConfig):
    """(U, s, V^T): the thin SVD of the residual of the columns of `vectors`
    against the span of the orthonormal columns g, cut to the directions
    they add to that span, where `top` is the largest singular value of
    the vectors g was cut from (0.0 for none). U holds the directions, and
    V s^-1 maps them back to the combinations of the vectors that leave
    them past g.

    The vectors are projected off g twice, which leaves the residual
    orthogonal to g to rounding ("twice is enough", Parlett, The Symmetric
    Eigenvalue Problem, 1980), and the directions are the residual's left
    singular vectors whose singular value exceeds

        rank_tol * max(top, largest column norm of the vectors),

    a lower estimate of the largest singular value of the stack
    [vectors | g's source]. The count then agrees with orthonormal_basis's
    rank of that stack less dim g wherever no singular value lies within a
    small factor of the threshold. A direction of small norm next to g
    keeps its accuracy: it is resolved against its own residual, not
    against the stack's largest singular value.
    """
    r = _as_matrix(vectors)
    cut = tol.rank_tol * max(top, float(np.linalg.norm(r, axis=0).max(initial=0.0)))
    for _ in range(2):
        r = r - g @ (g.T @ r)
    u, s, vh = _svd(r, full_matrices=False)
    k = int(np.count_nonzero(s > cut))
    return u[:, :k], s[:k], vh[:k]


def join(a: Basis, b: Basis, tol: ToleranceConfig = DEFAULT_TOL) -> Basis:
    """Basis of the sum A + B: the larger basis G (B on a tie) followed by
    the directions of the smaller basis S outside it, the left singular
    vectors of the residual (I - G G^T) S whose sines fail intersect's
    test; none, with no SVD, under _outside_residual's Frobenius bound.
    The count reads the residual and the test that intersect reads, so
    dim join = dim A + dim B - dim intersect holds in floating point too. A
    left singular vector of sine s is orthogonal to G only to rounding / s,
    so the new directions are projected against G and re-orthonormalized
    by a QR, twice: the second pass restores orthogonality to rounding
    after the first has normalized what it left (Gram-Schmidt "twice is
    enough", Parlett, The Symmetric Eigenvalue Problem, 1980).
    """
    _check_same_ambient(a, b)
    if a.dim == 0 or b.dim == 0:
        return b if a.dim == 0 else a
    g, resid, rank = _outside_residual(a, b, tol)
    if resid is None:
        return Basis(g.copy())
    u, _, keep = _sine_test(resid, rank, tol, left=True)
    new = u[:, :int(np.count_nonzero(~keep))]
    if new.shape[1] == 0:
        return Basis(g.copy())
    for _ in range(2):
        new = np.linalg.qr(new - g @ (g.T @ new))[0]
    return Basis(np.hstack([g, new]))


def is_subspace_of(a: Basis, b: Basis, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff no direction of A lies outside B by intersect's test, i.e.
    dim intersect(A, B) = dim A: the decision join makes, read as
    dim join(A, B) = dim B (see _join_dim)."""
    _check_same_ambient(a, b)
    return a.dim == 0 or (a.dim <= b.dim and _join_dim(a, b, tol) == b.dim)


def _greedy_pick(span: np.ndarray, pool: np.ndarray, count: int,
                 tol: ToleranceConfig) -> np.ndarray:
    """The (n, count) matrix of pool columns picked each with the largest
    residual against the running span, given as its orthonormal_basis
    vectors `span` so that picks against one span share them. Raises if the
    pool runs out of independent directions first.

    The pool is projected against the span once. The picks are then the
    pivots of a QR with column pivoting of that residual (Businger & Golub,
    Numer. Math. 1965; LAPACK xGEQP3), which takes the column of largest
    residual norm at each step, and |R_jj| is the j-th pick's residual. Ties
    fall to xGEQP3's pivot order."""
    resid = pool - span @ (span.T @ pool) if span.shape[1] else pool
    r, order = qr(resid, mode="r", pivoting=True)
    found = np.abs(np.diag(r)[:count]) > tol.rank_tol
    picked = found.size if found.all() else int(np.argmin(found))
    if picked < count:
        raise InfeasibleExtension(
            f"pool exhausted after {picked} of {count} extension vectors"
        )
    return pool[:, order[:count]]


def extend_from_pool(core: Basis, pool: Basis, target: Basis,
                     tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The (n, target.dim - core.dim) matrix of pool vectors that extend the
    core to a basis of the target.

    The core must lie inside the target, else ValueError; the pool need
    not, in which case the picks come from pool intersect target. That
    loses nothing: with the core inside the target, the modular law gives
    (core + pool) intersect target = core + (pool intersect target), so
    span(core union pool) covers the target exactly when the pool's part in
    the target extends the core to it. _greedy_pick's "pool exhausted"
    InfeasibleExtension is therefore the coverage test, made once.
    Containment is tested here only: _extensions, which the construction
    and whiten call on cores and pools built inside their targets, tests
    nothing.

    The picks project against orthonormal_basis(core) rather than the
    core's own vectors, orthonormal as they are: pool columns that tie in
    residual norm, as those orthogonal to the core do, are ordered by the
    rounding of the projection, and the picks, the construction's and
    whiten's among them, follow that order.
    """
    _check_same_ambient(core, pool)
    _check_same_ambient(core, target)
    if not is_subspace_of(core, target, tol):
        raise ValueError("core must be a subspace of target")
    # is_subspace_of passes only with core.dim <= target.dim
    need = target.dim - core.dim
    if need and not is_subspace_of(pool, target, tol):
        pool = intersect(pool, target, tol)
    return _extensions(core, [(pool, need)], tol)[0]


def _extensions(core: Basis, pairs, tol: ToleranceConfig) -> list[np.ndarray]:
    """For each (pool, need) pair in turn, the (n, need) matrix of pool
    vectors that extend the core by `need` directions, as extend_from_pool
    picks them but with no containment test: the caller built the core and
    the pool inside the span they extend to. The first pair that picks
    anything orthonormalizes the core, and every later one projects against
    that basis."""
    span, out = None, []
    for pool, need in pairs:
        if need == 0:
            out.append(np.zeros((core.ambient_dim, 0)))
            continue
        if span is None:
            span = orthonormal_basis(core.vectors, tol).vectors
        out.append(_greedy_pick(span, pool.vectors, need, tol))
    return out
