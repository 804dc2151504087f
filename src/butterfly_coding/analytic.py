"""Achievability analysis and lower-bound-achieving constructions.

sufficient_report (alias necessary_report) reports both the rank conditions
that any bound-achieving code must satisfy (given positive eigen-gaps) and the
span-coverage conditions under which construct_lb_code emits a code whose
exact loss equals the lower bound. The report and the construction are decided
on one set of bases, built once per instance by _analyze, and one span
construction on those bases serves every capacity, 2Z <= n and 2Z > n alike,
for either order of a and b.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .code import ButterflyCode, CodeSpans, realize_spans
from .model import ProblemInstance, TaskSpectrum, _node2_on_axes, task_bases
from .subspace import (
    Basis,
    DEFAULT_TOL,
    ToleranceConfig,
    _coordinate_cut,
    _extensions,
    _greedy_pick,
    _trailing_cut,
    intersect,
    is_subspace_of,
    join,
    orthonormal_basis,
)


class PreconditionNotMet(RuntimeError):
    """The sufficient conditions fail; fall back to gradient training."""


@dataclass(frozen=True)
class ConditionReport:
    eigengap_ok3: bool
    eigengap_ok4: bool
    r_plus_34: int
    r_minus_34: int
    r_minus_13: int
    r_minus_24: int
    necessary_ok: bool
    sf1_ok: bool
    sf2_ok: bool
    corollary_nc_free: bool   # col(U3) int col(U4) inside col(U1) int col(U2)
    corollary_dim: bool       # n <= Z + min{a, b}
    sufficient_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _analyze(spec: TaskSpectrum,
             tol: ToleranceConfig) -> tuple[ConditionReport, tuple[Basis, ...]]:
    """The condition report and the bases the construction reads:
    (b3, b4, i13, i24, i34). The coverage conditions sf1 and sf2 test
    b3 against i13 + i34 and b4 against i24 + i34; those joins stay local,
    since the construction's extensions decide the same coverage by their
    own picks (see extend_from_pool).

    L is lower-triangular, so node 1's observation span is exactly the first
    a whitened axes: it is never factored, and its intersections are
    coordinate cuts. Node 2's span is that of the last b rows of L. When
    they vanish left of column n - b (_node2_on_axes, e.g. psi = I), it is
    the last b axes: its intersection with node 1's span is the mutual axes
    n - b ... a - 1, and task 4's span is cut by it on its rows
    (_trailing_cut); otherwise both are factored. The eigengap flags read
    mu_m - mu_{m+1} at m = min{2Z, n} (mu_m itself if m = n)."""
    instance = spec.instance
    n, a, b, z = instance.n, instance.a, instance.b, instance.z
    b3, b4 = task_bases(spec)
    if _node2_on_axes(spec.cholesky_l, b):
        # the mutual axes n - b ... a - 1
        i12 = Basis(np.eye(n, a + b - n, b - n))
        i24 = _trailing_cut(b4, b, tol)
    else:
        b2 = orthonormal_basis(spec.cholesky_l[n - b:, :].T.copy(), tol)
        i12 = _coordinate_cut(b2, a, tol)
        i24 = intersect(b2, b4, tol)
    i34 = intersect(b3, b4, tol)
    i13 = _coordinate_cut(b3, a, tol)
    # [b3 | b4] and [b3 | -b4] share their singular values, so the joint
    # rank is the column count less the intersection's dimension
    r_plus = b3.dim + b4.dim - i34.dim
    floor = min(z, n - z)
    necessary_ok = (r_plus <= 3 * z) and (i13.dim >= floor) and (i24.dim >= floor)
    sf1 = is_subspace_of(b3, join(i13, i34, tol), tol)
    sf2 = is_subspace_of(b4, join(i24, i34, tol), tol)
    nc_free = is_subspace_of(i34, i12, tol)
    gap_scale = tol.rank_tol * max(1.0, float(spec.mu3[0]), float(spec.mu4[0]))
    m = min(2 * z, n)
    gap3, gap4 = (float(mu[m - 1] - (mu[m] if m < n else 0.0)) for mu in (spec.mu3, spec.mu4))
    report = ConditionReport(
        eigengap_ok3=gap3 > gap_scale,
        eigengap_ok4=gap4 > gap_scale,
        r_plus_34=r_plus,
        r_minus_34=i34.dim,
        r_minus_13=i13.dim,
        r_minus_24=i24.dim,
        necessary_ok=necessary_ok,
        sf1_ok=sf1,
        sf2_ok=sf2,
        corollary_nc_free=nc_free,
        corollary_dim=n <= z + min(a, b),
        sufficient_ok=necessary_ok and sf1 and sf2,
    )
    return report, (b3, b4, i13, i24, i34)


def sufficient_report(spec: TaskSpectrum,
                      tol: ToleranceConfig = DEFAULT_TOL) -> ConditionReport:
    """Rank and span-coverage conditions for achievability. necessary_ok is
    advisory when an eigen-gap flag is false (the underlying assumption
    fails); sufficient_ok guarantees construct_lb_code succeeds. Covers
    2Z > n uniformly: there both task spans fill R^n, so the coverage
    conditions hold trivially and the rank conditions reduce to a >= n - Z
    and b >= n - Z."""
    return _analyze(spec, tol)[0]


necessary_report = sufficient_report


def _construct_spans(bases: tuple[Basis, ...], instance: ProblemInstance,
                     tol: ToleranceConfig) -> CodeSpans:
    """The span construction, for every capacity.

    Each task-exclusive direction rides its direct link. Past those, each
    direct link carries t = max(r34 - Z, 0) directions of the task
    intersection: k_both = min(dim i1234, t) common to all four spans, sent
    on both direct links, and, when those run short, q = t - k_both private
    ones per sink (xi from i134, chi from i234), whose pairwise sums the
    relay carries, so that each sink subtracts its own contribution. The
    relay's other r34 - k_both - 2q columns complete the task intersection,
    and zero columns pad each link to Z. `bases` are _analyze's, on a cell
    where sufficient_ok holds; the intersections with node 1's span are
    coordinate cuts, as there. The two extensions of i34 by i13 and i24,
    built inside b3 and b4, test no containment again and share one
    orthonormal basis of i34 (see _extensions). The xi and chi picks
    project against the shared columns of i1234 as they stand, which are
    orthonormal already; the stack [shared | xi | chi] can be
    rank-deficient, so the relay's fill picks against its
    orthonormal_basis.

    For 2Z <= n, b3 and b4 hold 2Z columns each, so r+ <= 3Z leaves
    r34 = 4Z - r+ >= Z, sf1/sf2 make both extensions feasible, and every
    link is full. For 2Z > n, b3 = b4 = i34 = R^n: the extensions are empty
    and the common directions are those mutual to both nodes. sufficient_ok
    there means a >= n - Z and b >= n - Z, which leaves a - k_both >= q
    picks for xi and b - k_both >= q for chi, and the relay completes R^n
    with n - k_both - 2q = min(Z, n) - q columns. Each sink then receives
    the common, xi, chi and relay directions, all of R^n, so its loss is 0,
    the bound there.
    """
    n, a, z = instance.n, instance.a, instance.z
    b3, b4, i13, i24, i34 = bases
    r34 = i34.dim
    excl3, excl4 = _extensions(i34, [(i13, b3.dim - r34), (i24, b4.dim - r34)], tol)
    i234 = intersect(i24, b3, tol)
    i1234 = _coordinate_cut(i234, a, tol)
    t = max(r34 - z, 0)
    k_both = min(i1234.dim, t)
    shared = i1234.vectors[:, :k_both]
    q = t - k_both
    xi = chi = ext56 = np.zeros((n, 0))
    if q > 0:
        i134 = _coordinate_cut(i34, a, tol)
        xi = _greedy_pick(shared, i134.vectors, q, tol)
        chi = _greedy_pick(shared, i234.vectors, q, tol)
    rest = r34 - k_both - 2 * q
    if rest > 0:
        span = orthonormal_basis(np.hstack([shared, xi, chi]), tol).vectors
        ext56 = _greedy_pick(span, i34.vectors, rest, tol)
    phis = (np.hstack([excl3, shared, xi]), np.hstack([excl4, shared, chi]),
            np.hstack([xi + chi, ext56]))
    return CodeSpans(*(np.hstack([phi, np.zeros((n, z - phi.shape[1]))]) for phi in phis))


def construct_lb_code(spec: TaskSpectrum,
                      tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    """A code achieving the lower bound, when the sufficient conditions hold.

    Raises PreconditionNotMet otherwise; callers fall back to training.
    """
    report, bases = _analyze(spec, tol)
    if not report.sufficient_ok:
        raise PreconditionNotMet(
            f"sufficient conditions fail: necessary_ok={report.necessary_ok}, "
            f"sf1_ok={report.sf1_ok}, sf2_ok={report.sf2_ok}"
        )
    return realize_spans(_construct_spans(bases, spec.instance, tol), spec, tol)
