from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import null_space

from butterfly_coding import (
    Basis,
    DEFAULT_TOL,
    DimensionMismatch,
    InfeasibleExtension,
    ToleranceConfig,
    extend_from_pool,
    intersect,
    is_subspace_of,
    join,
    orthonormal_basis,
)
from butterfly_coding import SyntheticSpec, analytic, gen_synthetic, spectrum
from butterfly_coding.subspace import (
    _basis_and_top,
    _beyond,
    _greedy_pick,
    _join_dim,
    _residual,
    _sine_test,
)


def span(*cols):
    return orthonormal_basis(np.column_stack(cols))


def test_tolerance_config_rejects_bad_range():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_tol=-1e-3)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_tol=1.0)
    assert ToleranceConfig(rank_tol=0.0).rank_tol == 0.0
    # from rank_tol * sqrt(2) = 1 on, which the second value already reaches,
    # intersect's test keeps a sine of 1 and normalizes a zero vector
    for value in (0.75, 0.7071067811865475):
        with pytest.raises(ValueError, match=r"1/sqrt\(2\)"):
            ToleranceConfig(rank_tol=value)
    assert ToleranceConfig(rank_tol=0.7071067811865474).rank_tol == 0.7071067811865474


@pytest.mark.parametrize("value", ["1e-10", None, True, [1e-10]])
def test_tolerance_config_rejects_non_real(value):
    with pytest.raises(ValueError, match="rank_tol must be a real number"):
        ToleranceConfig(rank_tol=value)
    assert ToleranceConfig(rank_tol=np.float64(1e-8)).rank_tol == 1e-8


def test_orthonormal_basis_collinear_collapses():
    b = span([1.0, 0, 0], [2.0, 0, 0])
    assert b.dim == 1
    assert abs(abs(b.vectors[0, 0]) - 1.0) < 1e-12


def test_orthonormal_basis_empty():
    b = orthonormal_basis(np.zeros((4, 0)))
    assert b.dim == 0 and b.ambient_dim == 4


def test_orthonormal_basis_full_rank_triple():
    # determinant of the stacked matrix is -121, so all three survive
    b = span([1.0, 1, 3], [4.0, -7, 1], [-7.0, 4, 1])
    assert b.dim == 3


def test_orthonormal_basis_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        orthonormal_basis([np.ones(3), np.ones(4)])


@pytest.mark.parametrize("fn", [orthonormal_basis], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_rejected(fn, value):
    # an SVD would read inf as rank 0 and fail to converge on nan
    with pytest.raises(ValueError, match=r"non-finite entries: -?(nan|inf) at \(0, 0\)"):
        fn(np.array([[value, 1.0], [0.0, 1.0]]))


VECTOR_LIST = [[1.0, 1, 3], [4.0, -7, 1], [2.0, 2, 6]]


@pytest.mark.parametrize("vectors", [
    [np.array(v) for v in VECTOR_LIST],
    VECTOR_LIST,
    np.array([3.0, 4.0]),
    [np.ones(3), np.ones(4)],
    [],
], ids=["vector_list", "nested_list", "one_d_array", "mixed_lengths", "empty_list"])
def test_sequence_input(vectors):
    # a set of vectors is an (n, k) array only: a list would be read as rows
    # by np.asarray, and a 1-D array or an empty list has no (n, k) shape
    for fn in (orthonormal_basis, Basis):
        with pytest.raises(DimensionMismatch, match=r"expected an \(n, k\) array"):
            fn(vectors)


def test_basis_orthonormality_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(0, n + 2))
        b = orthonormal_basis(rng.normal(size=(n, k)))
        gram = b.vectors.T @ b.vectors
        assert np.allclose(gram, np.eye(b.dim), atol=1e-10)
        assert b.dim <= n


def test_rank_of_dependent_triple():
    e = np.eye(3)
    assert orthonormal_basis(np.column_stack([e[:, 0], e[:, 1], e[:, 0] + e[:, 1]])).dim == 2


def test_rank_of_joint_task_blocks():
    # two rank-2 task bases sharing e2: stacked rank 3
    e = np.eye(3)
    stacked = np.column_stack([e[:, 1], e[:, 2], e[:, 1], e[:, 0]])
    assert orthonormal_basis(stacked).dim == 3


def test_rank_of_zero_matrix():
    assert orthonormal_basis(np.zeros((5, 3))).dim == 0


def test_intersect_adjacent_coordinate_planes():
    e = np.eye(3)
    got = intersect(span(e[:, 0], e[:, 1]), span(e[:, 1], e[:, 2]))
    assert got.dim == 1
    assert abs(abs(got.vectors[:, 0] @ e[:, 1]) - 1.0) < 1e-10


def test_intersect_rotated_plane_with_coordinate_plane():
    # the only combination with third coordinate zero is proportional to [1,-2,0]
    plane = span([1.0, 1, 3], [4.0, -7, 1])
    floor = span([1.0, 0, 0], [0.0, 1, 0])
    got = intersect(plane, floor)
    assert got.dim == 1
    witness = np.array([1.0, -2.0, 0.0]) / np.sqrt(5.0)
    assert abs(abs(got.vectors[:, 0] @ witness) - 1.0) < 1e-10


def test_intersect_self_is_identity_span():
    rng = np.random.default_rng(3)
    a = orthonormal_basis(rng.normal(size=(6, 3)))
    same = intersect(a, a)
    assert same.dim == a.dim
    assert is_subspace_of(same, a) and is_subspace_of(a, same)


def test_join_disjoint_axes():
    e = np.eye(2)
    assert join(span(e[:, 0]), span(e[:, 1])).dim == 2


def test_join_task_spans_dim_three():
    u13 = np.array([1.0, 1, 3]); u23 = np.array([4.0, -7, 1]); u24 = np.array([-7.0, 4, 1])
    assert join(span(u13, u23), span(u13, u24)).dim == 3


def test_join_with_empty():
    a = span([1.0, 2, 0])
    assert join(a, Basis.empty(3)).dim == a.dim


def test_is_subspace_of_basic():
    e = np.eye(3)
    assert is_subspace_of(span(e[:, 1]), span(e[:, 0], e[:, 1]))
    assert not is_subspace_of(span([0.0, 1, 1]), span(e[:, 0], e[:, 1]))
    assert is_subspace_of(span([1.0, -2, 0]), span([1.0, 1, 3], [4.0, -7, 1]))


def test_extend_from_pool_picks_missing_direction():
    e = np.eye(3)
    got = extend_from_pool(span(e[:, 0]), span(e[:, 1], e[:, 2]),
                           span(e[:, 0], e[:, 1]))
    assert got.shape == (3, 1)
    assert abs(abs(got[:, 0] @ e[:, 1]) - np.linalg.norm(got[:, 0])) < 1e-10


def test_extend_from_pool_completes_task_span():
    u13 = np.array([1.0, 1, 3]) / np.sqrt(11)
    w = np.array([1.0, -2, 0]) / np.sqrt(5)
    target = span(u13, np.array([4.0, -7, 1]) / np.sqrt(66))
    got = extend_from_pool(span(u13), span(w), target)
    assert got.shape == (3, 1)
    joined = orthonormal_basis(np.column_stack([u13, got[:, 0]]))
    assert is_subspace_of(target, joined) and is_subspace_of(joined, target)


def test_extend_from_pool_infeasible():
    e = np.eye(3)
    with pytest.raises(InfeasibleExtension):
        extend_from_pool(span(e[:, 1]), span(e[:, 1]), span(e[:, 0], e[:, 1]))


def test_extend_from_pool_requires_core_inside_target():
    e = np.eye(3)
    with pytest.raises(ValueError):
        extend_from_pool(span(e[:, 2]), span(e[:, 1]), span(e[:, 0], e[:, 1]))


def test_property_battery():
    """Grassmann identity, containments, idempotence, scaling invariance,
    and extension feasibility on randomized subspaces."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        c = int(rng.integers(0, n + 1))
        common = rng.normal(size=(n, c))
        a = orthonormal_basis(
            np.hstack([common, rng.normal(size=(n, int(rng.integers(0, n - c + 1))))]))
        b = orthonormal_basis(
            np.hstack([common, rng.normal(size=(n, int(rng.integers(0, n - c + 1))))]))
        met = intersect(a, b)
        sup = join(a, b)
        assert a.dim + b.dim == met.dim + sup.dim
        assert is_subspace_of(met, a) and is_subspace_of(met, b)
        assert is_subspace_of(a, sup) and is_subspace_of(b, sup)

        again = orthonormal_basis(a.vectors)
        assert is_subspace_of(again, a) and is_subspace_of(a, again)

        m = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        perm = rng.permutation(m.shape[1])
        scales = rng.uniform(0.5, 2.0, m.shape[1]) * rng.choice([-1.0, 1.0], m.shape[1])
        assert orthonormal_basis(m).dim == orthonormal_basis(m[:, perm] * scales[perm]).dim

        kp = int(rng.integers(0, n + 1))
        pool = (orthonormal_basis(rng.normal(size=(n, kp)))
                if kp else Basis.empty(n))
        target = join(a, pool)
        ext = extend_from_pool(a, pool, target)
        assert ext.shape == (n, target.dim - a.dim)
        if ext.shape[1]:
            assert is_subspace_of(orthonormal_basis(ext), pool)
            grown = orthonormal_basis(np.hstack([a.vectors, ext]))
            assert grown.dim == target.dim


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_extend_from_pool_fails_exactly_when_the_pool_cannot_cover_the_target(seed):
    # the core lies in the target, and the pool mixes directions of the
    # target with random ones; by the modular law the picks run out exactly
    # when span(core union pool) misses part of the target
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    target = orthonormal_basis(rng.normal(size=(n, int(rng.integers(0, n + 1)))))
    t = target.dim
    core = orthonormal_basis(target.vectors @ rng.normal(size=(t, int(rng.integers(0, t + 1)))))
    inside = target.vectors @ rng.normal(size=(t, int(rng.integers(0, t + 1))))
    outside = rng.normal(size=(n, int(rng.integers(0, n + 1))))
    pool = orthonormal_basis(np.hstack([inside, outside]))
    covers = is_subspace_of(target, join(core, pool))
    try:
        picks = extend_from_pool(core, pool, target)
    except InfeasibleExtension:
        assert not covers
        return
    assert covers
    assert picks.shape == (n, t - core.dim)
    grown = orthonormal_basis(np.hstack([core.vectors, picks]))
    assert grown.dim == t
    assert is_subspace_of(grown, target) and is_subspace_of(target, grown)


def greedy_pick(current, pool, count, tol):
    """_greedy_pick against the span of `current`'s columns."""
    return _greedy_pick(orthonormal_basis(current, tol).vectors, pool, count, tol)


def _greedy_pick_by_loop(current, pool, count, tol):
    """Reference greedy rule as a loop: project the pool against the current
    span once, then pick the largest residual and deflate every residual by
    its direction, count times."""
    resid = pool
    if current.shape[1] and count:
        q = orthonormal_basis(current, tol).vectors
        resid = pool - q @ (q.T @ pool)
    chosen = []
    for _ in range(count):
        norms = np.linalg.norm(resid, axis=0)
        best = int(np.argmax(norms)) if norms.size else 0
        if norms.size == 0 or norms[best] <= tol.rank_tol:
            raise InfeasibleExtension(
                f"pool exhausted after {len(chosen)} of {count} extension vectors"
            )
        chosen.append(best)
        unit = resid[:, best] / norms[best]
        resid = resid - np.outer(unit, unit @ resid)
    return pool[:, chosen]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24), data=st.data())
def test_greedy_pick_matches_the_loop(seed, n, data):
    # a random core leaves the residual norms of an orthonormal pool
    # distinct, so both pick the same columns in the same order; a pool that
    # shares `inside` directions with the core runs out after its other ones
    rng = np.random.default_rng(seed)
    tol = ToleranceConfig()
    k = data.draw(st.integers(1, n - 1), label="core")
    core = rng.normal(size=(n, k))
    inside = data.draw(st.integers(0, k), label="inside")
    outside = data.draw(st.integers(0, n - k), label="outside")
    pool = orthonormal_basis(np.hstack([core[:, :inside] @ rng.normal(size=(inside, inside)),
                                        rng.normal(size=(n, outside))])).vectors
    count = data.draw(st.integers(0, pool.shape[1] + 1), label="count")
    try:
        want = _greedy_pick_by_loop(core, pool, count, tol)
    except InfeasibleExtension as exc:
        assert count > outside
        with pytest.raises(InfeasibleExtension) as got:
            greedy_pick(core, pool, count, tol)
        assert str(got.value) == str(exc)
        return
    assert np.array_equal(greedy_pick(core, pool, count, tol), want)


def _greedy_pick_by_refactoring(current, pool, count, tol):
    """Reference greedy rule: re-factor the running span before every pick."""
    span = current
    chosen = []
    for _ in range(count):
        if span.shape[1] == 0:
            resid = pool
        else:
            q = orthonormal_basis(span, tol).vectors
            resid = pool - q @ (q.T @ pool)
        norms = np.linalg.norm(resid, axis=0)
        best = int(np.argmax(norms)) if norms.size else 0
        if norms.size == 0 or norms[best] <= tol.rank_tol:
            raise InfeasibleExtension(
                f"pool exhausted after {len(chosen)} of {count} extension vectors"
            )
        chosen.append(pool[:, best].copy())
        span = np.hstack([span, pool[:, best:best + 1]])
    return chosen


def test_greedy_pick_ties_go_to_lowest_index():
    tol = ToleranceConfig()
    got = greedy_pick(np.zeros((4, 0)), np.eye(4), 3, tol)
    assert [list(v) for v in got.T] == [list(np.eye(4)[:, j]) for j in range(3)]


def test_greedy_pick_matches_refactoring_reference():
    tol = ToleranceConfig()
    rng = np.random.default_rng(12)
    exhausted = 0
    for _ in range(300):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(0, n))
        core = rng.normal(size=(n, k))
        m = int(rng.integers(0, n + 2))
        # mostly full-rank pools; the rest run out of directions early
        rank = m if rng.random() < 0.7 else int(rng.integers(0, m + 1))
        pool = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m))
        count = int(rng.integers(0, min(m, n - k) + 1))
        try:
            want = _greedy_pick_by_refactoring(core, pool, count, tol)
        except InfeasibleExtension as exc:
            exhausted += 1
            with pytest.raises(InfeasibleExtension, match=str(exc)):
                greedy_pick(core, pool, count, tol)
            continue
        got = greedy_pick(core, pool, count, tol)
        assert got.shape[1] == len(want) == count
        for g, w in zip(got.T, want):
            assert np.array_equal(g, w)
    assert exhausted >= 10


def _intersect_by_null_space(a, b, tol=DEFAULT_TOL):
    """Reference intersection: the null space of the stacked system [A | -B],
    each null vector (alpha, beta) giving the intersection vector A alpha."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Basis.empty(a.ambient_dim)
    ns = null_space(np.hstack([a.vectors, -b.vectors]), rcond=tol.rank_tol)
    if ns.shape[1] == 0:
        return Basis.empty(a.ambient_dim)
    return orthonormal_basis(a.vectors @ ns[: a.dim, :], tol)


# principal angles planted against the intersection threshold: "exact" is 0,
# "wide" is well separated, a number is that multiple of the edge angle
ANGLE_KINDS = ("exact", 0.25, 0.5, 2.0, 4.0, "wide")


def edge_angle(tol):
    """The angle at which intersect's test flips when the smallest principal
    angle is (close to) zero: sqrt(2) sin(theta/2) = rank_tol * sqrt(2)."""
    return 2.0 * np.arcsin(tol.rank_tol)


def planted_pair(rng, kinds, extra_a, extra_b, tol):
    """Bases A and B of R^n, n = 2 len(kinds) + extra_a + extra_b, with one
    principal angle per kind and extra_a (extra_b) further columns orthogonal
    to the other span; each basis is rotated at random inside its span.
    Returns (A, B, the number of angles that pass the threshold)."""
    k = len(kinds)
    n = 2 * k + extra_a + extra_b
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    angles = [0.0 if kind == "exact"
              else rng.uniform(0.3, np.pi / 2) if kind == "wide"
              else kind * edge_angle(tol) for kind in kinds]
    tilted = [np.cos(t) * q[:, j] + np.sin(t) * q[:, k + j]
              for j, t in enumerate(angles)]
    a = np.hstack([q[:, :k], q[:, 2 * k:2 * k + extra_a]])
    b = np.column_stack(tilted + [q[:, j] for j in range(2 * k + extra_a, n)])

    def rotated(m):
        return m @ np.linalg.qr(rng.normal(size=(m.shape[1],) * 2))[0]

    passing = sum(kind in ("exact", 0.25, 0.5) for kind in kinds)
    return Basis(rotated(a)), Basis(rotated(b)), passing


EDGE_TOLS = (ToleranceConfig(), ToleranceConfig(1e-7), ToleranceConfig(1e-4))


def assert_same_dimension(a, b, passing, tol):
    want = _intersect_by_null_space(a, b, tol).dim
    assert want == passing
    assert intersect(a, b, tol).dim == want
    assert intersect(b, a, tol).dim == want
    # containment and join read the same angles: one span lies in the other
    # exactly when all of its directions pass, whatever the bases' rotation
    assert is_subspace_of(a, b, tol) == (passing == a.dim)
    assert is_subspace_of(b, a, tol) == (passing == b.dim)
    assert join(a, b, tol).dim == a.dim + b.dim - passing


@pytest.mark.parametrize("tol", EDGE_TOLS, ids=lambda t: f"{t.rank_tol:g}")
def test_intersect_matches_null_space_at_the_tolerance_edge(tol):
    rng = np.random.default_rng(31)
    for _ in range(200):
        kinds = [ANGLE_KINDS[i] for i in rng.integers(0, len(ANGLE_KINDS),
                                                      int(rng.integers(1, 5)))]
        a, b, passing = planted_pair(rng, kinds, int(rng.integers(0, 4)),
                                     int(rng.integers(0, 4)), tol)
        assert_same_dimension(a, b, passing, tol)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(ANGLE_KINDS), min_size=1, max_size=5),
       extra_a=st.integers(0, 4), extra_b=st.integers(0, 4),
       tol=st.sampled_from(EDGE_TOLS))
def test_intersect_matches_null_space_on_planted_angles(seed, kinds, extra_a,
                                                         extra_b, tol):
    a, b, passing = planted_pair(np.random.default_rng(seed), kinds, extra_a,
                                 extra_b, tol)
    assert_same_dimension(a, b, passing, tol)


def test_intersect_counts_forced_dimensions_at_zero_tolerance():
    # dim A + dim B > n forces an intersection of dim A + dim B - n, which the
    # sine form gets from the residual's rank bound, not from rounding
    rng = np.random.default_rng(32)
    tol = ToleranceConfig(rank_tol=0.0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = orthonormal_basis(rng.normal(size=(n, int(rng.integers(1, n + 1)))))
        b = orthonormal_basis(rng.normal(size=(n, int(rng.integers(1, n + 1)))))
        forced = max(0, a.dim + b.dim - n)
        assert intersect(a, b, tol).dim == forced
        assert _intersect_by_null_space(a, b, tol).dim == forced


def _join_by_stacking(a, b, tol=DEFAULT_TOL):
    """Reference join: an orthonormal basis of the stack [A | B]."""
    return orthonormal_basis(np.hstack([a.vectors, b.vectors]), tol)


def max_residual(x, y):
    """Largest residual of a column of X after projection onto span(Y)."""
    resid = x.vectors - y.vectors @ (y.vectors.T @ x.vectors)
    return np.linalg.norm(resid, axis=0).max(initial=0.0)


def assert_join_matches_stacking(a, b, tol):
    got, want = join(a, b, tol), _join_by_stacking(a, b, tol)
    assert got.dim == want.dim == a.dim + b.dim - intersect(a, b, tol).dim
    assert np.abs(got.vectors.T @ got.vectors - np.eye(got.dim)).max(initial=0.0) <= 1e-12
    # an angle that passes the test merges its pair of vectors, which each
    # implementation may represent anywhere between the two, and one that
    # fails fixes its new direction only to rounding / its sine, in both
    small, large = (a, b) if a.dim <= b.dim else (b, a)
    sines = np.linalg.svd(small.vectors - large.vectors @ (large.vectors.T @ small.vectors),
                          compute_uv=False)
    failing = sines[sines > 2 * tol.rank_tol]
    slack = tol.rank_tol + 1e-14 / failing.min(initial=1.0)
    assert max_residual(got, want) <= slack
    assert max_residual(want, got) <= slack


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(("exact", 0.25, 2.0, 4.0, "wide")),
                      min_size=1, max_size=5),
       extra_a=st.integers(0, 4), extra_b=st.integers(0, 4),
       tol=st.sampled_from(EDGE_TOLS))
def test_join_matches_stacking_on_planted_angles(seed, kinds, extra_a, extra_b, tol):
    a, b, _ = planted_pair(np.random.default_rng(seed), kinds, extra_a, extra_b, tol)
    assert_join_matches_stacking(a, b, tol)
    assert_join_matches_stacking(b, a, tol)


@pytest.mark.parametrize("tol", EDGE_TOLS, ids=lambda t: f"{t.rank_tol:g}")
def test_join_matches_stacking_on_empty_identical_and_nested_bases(tol):
    rng = np.random.default_rng(34)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        a = orthonormal_basis(rng.normal(size=(n, int(rng.integers(1, n + 1)))))
        rotation = np.linalg.qr(rng.normal(size=(a.dim, a.dim)))[0]
        inner = Basis(a.vectors @ rotation[:, :int(rng.integers(0, a.dim + 1))])
        empty = Basis.empty(n)
        for x, y in ((a, empty), (empty, a), (empty, empty), (a, a),
                     (a, inner), (inner, a)):
            assert_join_matches_stacking(x, y, tol)


def test_join_stays_orthonormal_on_rounding_level_sines():
    # at rank_tol 0 the sine of an exactly shared direction is rounding
    # noise, which fails the test; the join's direction for it is arbitrary
    # but must be orthonormal to the rest
    rng = np.random.default_rng(35)
    tol = ToleranceConfig(rank_tol=0.0)
    for _ in range(300):
        a, b, _ = planted_pair(rng, ["exact"] * int(rng.integers(1, 6)),
                               int(rng.integers(0, 5)), int(rng.integers(0, 5)), tol)
        sup = join(a, b, tol)
        assert sup.dim == a.dim + b.dim - intersect(a, b, tol).dim
        assert np.abs(sup.vectors.T @ sup.vectors - np.eye(sup.dim)).max() <= 1e-13


def _join_by_sines(a, b, tol=DEFAULT_TOL):
    """Reference join that always factors the residual: the larger basis
    followed by the residual's left singular vectors whose sines fail
    intersect's test, re-orthogonalized against it twice."""
    if a.dim == 0 or b.dim == 0:
        return b if a.dim == 0 else a
    _, resid, rank = _residual(a, b)
    u, _, keep = _sine_test(resid, rank, tol, left=True)
    g = b.vectors if a.dim <= b.dim else a.vectors
    new = u[:, :int(np.count_nonzero(~keep))]
    for _ in range(2):
        new = np.linalg.qr(new - g @ (g.T @ new))[0]
    return Basis(np.hstack([g, new]))


def assert_bitwise_equal(got, want):
    assert got.vectors.shape == want.vectors.shape
    assert got.vectors.tobytes() == want.vectors.tobytes()


@contextmanager
def counting_svd():
    """A one-item list holding the number of np.linalg.svd calls made so far
    in the block."""
    calls = [0]
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    np.linalg.svd = counted
    try:
        yield calls
    finally:
        np.linalg.svd = real


JOIN_TOLS = (ToleranceConfig(), ToleranceConfig(1e-7), ToleranceConfig(0.0))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), data=st.data(),
       tol=st.sampled_from(JOIN_TOLS))
def test_join_of_a_contained_basis_equals_the_svd_path(seed, n, data, tol):
    # S = G Q, re-orthonormalized, lies in span(G) up to rounding: at a
    # nonzero rank_tol join takes the shortcut, at 0 the SVD path, and
    # either way it returns what the always-SVD join returns, bit for bit
    rng = np.random.default_rng(seed)
    g = orthonormal_basis(rng.normal(size=(n, data.draw(st.integers(1, n)))))
    k = data.draw(st.integers(1, g.dim))
    s = Basis(np.linalg.qr(g.vectors @ rng.normal(size=(g.dim, k)))[0])
    for x, y in ((s, g), (g, s)):
        assert_bitwise_equal(join(x, y, tol), _join_by_sines(x, y, tol))


@pytest.mark.parametrize("tol", JOIN_TOLS, ids=lambda t: f"{t.rank_tol:g}")
def test_join_of_coordinate_axes_takes_the_shortcut(tol):
    # the residual of axes against a superset of axes is exactly zero, so
    # even rank_tol 0 skips the SVD
    eye = np.eye(6)
    for k, m in ((1, 4), (3, 4), (4, 4)):
        small, large = Basis(eye[:, :k]), Basis(eye[:, :m])
        for x, y in ((small, large), (large, small)):
            with counting_svd() as calls:
                got = join(x, y, tol)
            assert calls == [0]
            assert_bitwise_equal(got, _join_by_sines(x, y, tol))
            assert np.array_equal(got.vectors, eye[:, :m])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), extra=st.integers(0, 4),
       tol=st.sampled_from(EDGE_TOLS))
def test_join_below_the_threshold_factors_and_adds_nothing(seed, k, extra, tol):
    # k principal angles, all equal, with sines at 0.9 x intersect's
    # threshold rank_tol (1 + cos(theta)): tan(theta / 2) = 0.9 rank_tol.
    # Their residual's Frobenius norm is 1.8 rank_tol sqrt(k) or so, past
    # the shortcut's bound, so the SVD runs, and no angle fails the test
    rng = np.random.default_rng(seed)
    n = 2 * k + extra
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    theta = 2.0 * np.arctan(0.9 * tol.rank_tol)
    g = Basis(q[:, :k + extra])
    s = Basis(np.cos(theta) * q[:, :k] + np.sin(theta) * q[:, k + extra:])
    assert np.linalg.norm(_residual(s, g)[1]) > tol.rank_tol
    for x, y in ((s, g), (g, s)):
        with counting_svd() as calls:
            got = join(x, y, tol)
        assert calls == [1]
        # the larger basis, B on a tie, and nothing more
        assert_bitwise_equal(got, y if x.dim <= y.dim else x)


@pytest.mark.parametrize("r_plus", [16, 20, 24])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analyze_on_a_nested_cell_makes_no_svd_in_join(r_plus, seed, monkeypatch):
    # the generator keeps the task intersection inside the observation
    # overlap, so i34 lies in i13 and in i24 and both coverage joins are
    # containments
    inst = gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=r_plus,
                                       seed=seed))
    spec = spectrum(inst)
    in_join, joins = [], []
    real_join = analytic.join

    def counted_join(*args, **kwargs):
        before = calls[0]
        result = real_join(*args, **kwargs)
        in_join.append(calls[0] - before)
        joins.append(result)
        return result

    monkeypatch.setattr(analytic, "join", counted_join)
    with counting_svd() as calls:
        _, (_, _, i13, i24, i34) = analytic._analyze(spec, DEFAULT_TOL)
    assert is_subspace_of(i34, i13) and is_subspace_of(i34, i24)
    assert in_join == [0, 0]
    j13, j24 = joins
    # the counter sees the analysis's other SVDs
    assert calls[0] > 0
    assert j13.dim == i13.dim and j24.dim == i24.dim


@contextmanager
def recording_factorizations():
    """Two lists, filled in the block: (input shape, singular values) of each
    np.linalg.svd call, and the input shape of each np.linalg.qr call."""
    svds, qrs = [], []
    real_svd, real_qr = np.linalg.svd, np.linalg.qr

    def svd(m, *args, **kwargs):
        out = real_svd(m, *args, **kwargs)
        svds.append((m.shape, out[1]))
        return out

    def qr(m, *args, **kwargs):
        qrs.append(m.shape)
        return real_qr(m, *args, **kwargs)

    np.linalg.svd, np.linalg.qr = svd, qr
    try:
        yield svds, qrs
    finally:
        np.linalg.svd, np.linalg.qr = real_svd, real_qr


def assert_r_factor_keeps_the_bits(resid, rank, tol):
    """_sine_test without U reads the tall SVD's V^T, sines, mask and count
    byte for byte, as _sine_test with U (the tall SVD) gives them,
    factoring R from dgesdd's MNTHR height floor(11k/6) on and the residual
    itself below it."""
    m, k = resid.shape
    _, sines, vh = np.linalg.svd(resid, full_matrices=False)
    _, want_vh, want_keep = _sine_test(resid, rank, tol, left=True)
    with recording_factorizations() as (svds, qrs):
        u, got_vh, got_keep = _sine_test(resid, rank, tol)
    assert u is None
    tall = m < 11 * k // 6
    assert [shape for shape, _ in svds] == [(m, k) if tall else (k, k)]
    assert qrs == ([] if tall else [(m, k)])
    assert svds[0][1].tobytes() == sines.tobytes()
    assert got_vh.tobytes() == vh.tobytes() == want_vh.tobytes()
    assert got_keep.tobytes() == want_keep.tobytes()
    assert np.count_nonzero(~got_keep) == np.count_nonzero(~want_keep)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 128), data=st.data(),
       tol=st.sampled_from(EDGE_TOLS))
def test_r_factor_gives_the_tall_svds_bits_around_the_threshold(seed, k, data, tol):
    # the residual of a k-column orthonormal basis against a larger one, in
    # m >= floor(11k/6) - 1 rows: one below dgesdd's QR threshold and up
    m = data.draw(st.integers(max(1, 11 * k // 6 - 1), 3 * k))
    g = data.draw(st.integers(k, m))
    rng = np.random.default_rng(seed)
    s, big = (Basis(np.linalg.qr(rng.normal(size=(m, d)))[0]) for d in (k, g))
    _, resid, rank = _residual(s, big)
    assert_r_factor_keeps_the_bits(resid, rank, tol)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 256), data=st.data(),
       tol=st.sampled_from(EDGE_TOLS))
def test_r_factor_gives_the_tall_svds_bits_on_zero_trailing_rows(seed, n, data, tol):
    # _trailing_cut's residual: a basis of dim < b with its last b rows
    # zeroed, factored in all n rows
    b = data.draw(st.integers(2, n))
    k = data.draw(st.integers(1, b - 1))
    resid = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, k)))[0]
    resid[n - b:] = 0.0
    assert_r_factor_keeps_the_bits(resid, n - b, tol)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 160), data=st.data(),
       tol=st.sampled_from(EDGE_TOLS + (ToleranceConfig(0.0),)))
def test_r_factor_gives_the_tall_svds_bits_on_rounding_level_sines(seed, n, data, tol):
    # S shares `shared` directions with G up to 1e-15 noise: a cluster of
    # rounding-level sines at the bottom of the spectrum, next to the
    # angles of S's other columns; the count join and is_subspace_of read
    # follows the tall SVD's too
    g_dim = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, g_dim))
    shared = data.draw(st.integers(0, k))
    rng = np.random.default_rng(seed)
    g = Basis(np.linalg.qr(rng.normal(size=(n, g_dim)))[0])
    cols = np.hstack([g.vectors[:, :shared] + 1e-15 * rng.normal(size=(n, shared)),
                      rng.normal(size=(n, k - shared))])
    s = Basis(np.linalg.qr(cols)[0])
    _, resid, rank = _residual(s, g)
    assert_r_factor_keeps_the_bits(resid, rank, tol)
    for x, y in ((s, g), (g, s)):
        assert _join_dim(x, y, tol) == join(x, y, tol).dim
    assert is_subspace_of(s, g, tol) == (join(s, g, tol).dim == g_dim)


def _svd_sites():
    """Each SVD call site of subspace.py on a fixed input, as a function of
    no arguments returning the arrays it computes."""
    rng = np.random.default_rng(19)
    vectors = rng.normal(size=(12, 4)) @ rng.normal(size=(4, 5))
    g = np.linalg.qr(rng.normal(size=(12, 3)))[0]
    _, resid, rank = _residual(Basis(np.linalg.qr(rng.normal(size=(12, 4)))[0]), Basis(g))
    return {
        "_basis_and_top": lambda: (lambda basis, top: (basis.vectors, np.array(top)))(
            *_basis_and_top(vectors, DEFAULT_TOL)),
        "_sine_test, R factor": lambda: _sine_test(resid, rank, DEFAULT_TOL)[1:],
        "_sine_test, tall": lambda: _sine_test(resid, rank, DEFAULT_TOL, left=True),
        "_beyond": lambda: (_beyond(g, vectors, 1.0, DEFAULT_TOL),),
    }


def _gesvd(m, full_matrices=True, **kwargs):
    return scipy.linalg.svd(m, full_matrices=full_matrices, lapack_driver="gesvd")


def _not_converging(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("site", sorted(_svd_sites()))
def test_an_svd_that_dgesdd_cannot_converge_is_retried_with_gesvd(monkeypatch, site):
    # where np.linalg.svd (dgesdd) raises, each site returns what it
    # computes from gesvd's factors, bit for bit
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", _gesvd)
        want = _svd_sites()[site]()
    drivers, real = [], scipy.linalg.svd

    def recorded(*args, **kwargs):
        drivers.append(kwargs.get("lapack_driver"))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", _not_converging)
    monkeypatch.setattr(scipy.linalg, "svd", recorded)
    got = _svd_sites()[site]()
    assert drivers == ["gesvd"]
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_an_svd_that_gesvd_cannot_converge_either_names_the_shape(monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", _not_converging)
    monkeypatch.setattr(scipy.linalg, "svd", _not_converging)
    with pytest.raises(np.linalg.LinAlgError, match="SVD of a 12 x 5 matrix did not converge"):
        _svd_sites()["_basis_and_top"]()
