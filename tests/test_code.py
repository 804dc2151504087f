import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import butterfly_coding.code as code_module
from butterfly_coding import (
    BadDimensions,
    ButterflyCode,
    CodeSpans,
    DEFAULT_TOL,
    InvalidSpan,
    ProblemInstance,
    ToleranceConfig,
    check_code_shapes,
    code_from_json,
    code_to_json,
    exact_loss,
    flow_spans,
    instance_from_json,
    lower_bound_of,
    optimal_decoders,
    orthonormal_basis,
    realize_spans,
    spectrum,
    utilities,
    validate,
    with_optimal_decoders,
)

from conftest import decoupled_instance, random_pd_instance
from test_model import simple_instance


def random_code(instance, rng, scale=1.0):
    n, a, b, z = instance.n, instance.a, instance.b, instance.z
    return ButterflyCode(
        e13=scale * rng.normal(size=(z, a)),
        e15=scale * rng.normal(size=(z, a)),
        e24=scale * rng.normal(size=(z, b)),
        e25=scale * rng.normal(size=(z, b)),
        e56=scale * rng.normal(size=(z, 2 * z)),
        d3=scale * rng.normal(size=(n, 2 * z)),
        d4=scale * rng.normal(size=(n, 2 * z)),
    )


def zero_code(instance):
    n, a, b, z = instance.n, instance.a, instance.b, instance.z
    return ButterflyCode(
        e13=np.zeros((z, a)), e15=np.zeros((z, a)),
        e24=np.zeros((z, b)), e25=np.zeros((z, b)),
        e56=np.zeros((z, 2 * z)),
        d3=np.zeros((n, 2 * z)), d4=np.zeros((n, 2 * z)),
    )


class TestShapes:
    def test_accepts_correct_shapes(self):
        inst = simple_instance(n=3, a=2, b=2, z=1)
        check_code_shapes(random_code(inst, np.random.default_rng(0)), inst)

    def test_rejects_wrong_block(self):
        inst = simple_instance(n=3, a=2, b=2, z=1)
        code = random_code(inst, np.random.default_rng(0))
        bad = ButterflyCode(code.e13, code.e15, code.e24, code.e25,
                            np.zeros((1, 3)), code.d3, code.d4)
        with pytest.raises(BadDimensions):
            check_code_shapes(bad, inst)

    def test_rejects_non_finite(self):
        inst = simple_instance(n=3, a=2, b=2, z=1)
        code = random_code(inst, np.random.default_rng(0))
        e13 = code.e13.copy()
        e13[0, 0] = np.nan
        bad = ButterflyCode(e13, code.e15, code.e24, code.e25, code.e56,
                            code.d3, code.d4)
        with pytest.raises(BadDimensions):
            check_code_shapes(bad, inst)


class TestExactLoss:
    def test_zero_code_loses_everything(self):
        rng = np.random.default_rng(1)
        inst = random_pd_instance(rng)
        spec = spectrum(inst)
        l3, l4, total = exact_loss(zero_code(inst), inst)
        assert abs(l3 - np.trace(spec.s3)) <= 1e-9 * (1 + l3)
        assert abs(l4 - np.trace(spec.s4)) <= 1e-9 * (1 + l4)
        assert abs(total - l3 - l4) <= 1e-12 * (1 + total)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2)
        inst = random_pd_instance(rng, n_max=5)
        code = random_code(inst, rng, scale=0.3)
        l3, l4, _ = exact_loss(code, inst)

        chol = np.linalg.cholesky(inst.psi)
        m = 1_000_000
        x = chol @ rng.normal(size=(inst.n, m))
        y5 = np.vstack([code.e15 @ x[: inst.a], code.e25 @ x[inst.n - inst.b :]])
        relay = code.e56 @ y5
        xh3 = code.d3 @ np.vstack([code.e13 @ x[: inst.a], relay])
        xh4 = code.d4 @ np.vstack([code.e24 @ x[inst.n - inst.b :], relay])
        err3 = np.sum((inst.k3 @ (x - xh3)) ** 2, axis=0)
        err4 = np.sum((inst.k4 @ (x - xh4)) ** 2, axis=0)
        for exact, sample in ((l3, err3), (l4, err4)):
            stderr = sample.std() / np.sqrt(m)
            assert abs(exact - sample.mean()) <= 3.5 * stderr + 1e-9

    @pytest.mark.parametrize("identity", [True, False])
    @pytest.mark.parametrize("wide", [False, True], ids=["2z_le_n", "2z_gt_n"])
    @pytest.mark.parametrize("tall", [False, True], ids=["rows_le_n", "rows_gt_n"])
    def test_thin_residual_matches_dense_reference(self, identity, wide, tall):
        # exact_loss forms K - (K D) A; the reference forms K (I - D A) with
        # the n x n product D A, for random and optimal decoders
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a = int(rng.integers(1, n + 1))
            b = int(rng.integers(max(1, n - a), n + 1))
            z = int(rng.integers(n // 2 + 1, n + 3) if wide else rng.integers(1, n // 2 + 1))
            f = rng.normal(size=(n, n))
            psi = np.eye(n) if identity else f @ f.T + 0.1 * np.eye(n)
            r3, r4 = rng.integers(n + 1, 2 * n + 2, 2) if tall else rng.integers(1, n + 1, 2)
            inst = validate(ProblemInstance(n=n, psi=psi, a=a, b=b, z=z,
                                            k3=rng.normal(size=(r3, n)),
                                            k4=rng.normal(size=(r4, n))))
            code = random_code(inst, rng)
            for c in (code, with_optimal_decoders(code, inst)):
                into5 = np.zeros((2 * z, n))
                into5[:z, :a], into5[z:, n - b:] = c.e15, c.e25
                want = []
                for k, d, direct, cols in ((inst.k3, c.d3, c.e13, slice(0, a)),
                                           (inst.k4, c.d4, c.e24, slice(n - b, n))):
                    amap = np.vstack([np.zeros((z, n)), c.e56 @ into5])
                    amap[:z, cols] = direct
                    m = k @ (np.eye(n) - d @ amap)
                    want.append(float(np.sum((m @ psi) * m)))
                got = exact_loss(c, inst)
                for g, w in zip(got, [*want, sum(want)]):
                    assert abs(g - w) <= 1e-12 * max(1.0, w)


class TestOptimalDecoders:
    def test_full_rank_relay_identity(self):
        # n = 2Z and the two direct links plus relay expose everything
        inst = simple_instance(n=2, a=1, b=1, z=1)
        code = ButterflyCode(
            e13=np.array([[1.0]]), e15=np.array([[1.0]]),
            e24=np.array([[1.0]]), e25=np.array([[1.0]]),
            e56=np.array([[1.0, 1.0]]),
            d3=np.zeros((2, 2)), d4=np.zeros((2, 2)))
        _, _, total = exact_loss(with_optimal_decoders(code, inst), inst)
        assert total <= 1e-12

    def test_zero_encoders_give_zero_decoders(self):
        inst = simple_instance(n=3, a=2, b=2, z=1)
        d3, d4 = optimal_decoders(zero_code(inst), inst)
        assert np.allclose(d3, 0) and np.allclose(d4, 0)

    def test_never_worse_than_random_decoders(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_pd_instance(rng, n_max=6)
            code = random_code(inst, rng)
            best = exact_loss(with_optimal_decoders(code, inst), inst)[2]
            for _ in range(50):
                trial = ButterflyCode(
                    code.e13, code.e15, code.e24, code.e25, code.e56,
                    rng.normal(size=code.d3.shape),
                    rng.normal(size=code.d4.shape))
                assert best <= exact_loss(trial, inst)[2] + 1e-9


class TestFlowSpans:
    def test_direct_row_picks_cholesky_row(self):
        inst = simple_instance(n=3, a=2, b=2, z=1)
        code = zero_code(inst)
        code = ButterflyCode(np.array([[1.0, 0.0]]), code.e15, code.e24,
                             code.e25, code.e56, code.d3, code.d4)
        spans = flow_spans(code, spectrum(inst))
        # with psi = I the observed row of L is the coordinate axis itself
        assert np.allclose(spans.phi13[:, 0], [1.0, 0.0, 0.0])

    def test_relay_sums_pairwise(self):
        inst = simple_instance(n=2, a=1, b=1, z=1)
        code = ButterflyCode(
            e13=np.zeros((1, 1)), e15=np.array([[1.0]]),
            e24=np.zeros((1, 1)), e25=np.array([[1.0]]),
            e56=np.array([[1.0, 1.0]]),
            d3=np.zeros((2, 2)), d4=np.zeros((2, 2)))
        spans = flow_spans(code, spectrum(inst))
        assert np.allclose(spans.phi56[:, 0], [1.0, 1.0])

    def test_signal_identity_on_samples(self):
        rng = np.random.default_rng(4)
        inst = random_pd_instance(rng, n_max=4)
        code = random_code(inst, rng)
        spans = flow_spans(code, spectrum(inst))
        chol = np.linalg.cholesky(inst.psi)
        x = chol @ rng.normal(size=(inst.n, 25))
        h = np.linalg.solve(chol, x)
        assert np.allclose(spans.phi13.T @ h, code.e13 @ x[: inst.a],
                           atol=1e-10)
        assert np.allclose(spans.phi24.T @ h, code.e24 @ x[inst.n - inst.b :],
                           atol=1e-10)
        relay = code.e56 @ np.vstack([code.e15 @ x[: inst.a],
                                      code.e25 @ x[inst.n - inst.b :]])
        assert np.allclose(spans.phi56.T @ h, relay, atol=1e-10)


def _relay_fit_by_column(spans, inst, tol=DEFAULT_TOL):
    """Reference relay realization: one fit per column, node 1 first, then
    node 2, then the split."""
    chol = np.linalg.cholesky(inst.psi)
    u1 = chol[: inst.a, :].T
    u2 = chol[inst.n - inst.b :, :].T
    scale = max(1.0, float(np.abs(chol).max()))

    def fit(basis, g):
        c = np.linalg.lstsq(basis, g, rcond=tol.rank_tol)[0]
        thr = tol.rank_tol * scale * max(1.0, np.linalg.norm(g))
        return c, np.linalg.norm(basis @ c - g) <= thr

    e15 = np.zeros((inst.z, inst.a))
    e25 = np.zeros((inst.z, inst.b))
    for j in range(inst.z):
        g = spans.phi56[:, j]
        c1, in1 = fit(u1, g)
        c2, in2 = fit(u2, g)
        if in1:
            e15[j] = c1
        elif in2:
            e25[j] = c2
        else:
            c, _ = fit(np.hstack([u1, u2]), g)
            e15[j], e25[j] = c[: inst.a], c[inst.a :]
    return e15, e25


class TestRealizeSpans:
    def test_round_trip_span_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_pd_instance(rng, n_max=6)
            chol = np.linalg.cholesky(inst.psi)
            u1 = chol[: inst.a, :].T
            u2 = chol[inst.n - inst.b :, :].T
            z = inst.z
            spans = CodeSpans(
                phi13=u1 @ rng.normal(size=(inst.a, z)),
                phi24=u2 @ rng.normal(size=(inst.b, z)),
                phi56=np.hstack([u1, u2]) @ rng.normal(size=(inst.a + inst.b, z)),
            )
            code = realize_spans(spans, spectrum(inst))
            back = flow_spans(code, spectrum(inst))
            for want, got in ((spans.phi13, back.phi13),
                              (spans.phi24, back.phi24),
                              (spans.phi56, back.phi56)):
                assert np.allclose(want, got, atol=1e-9 * (1 + np.abs(want).max()))

    def test_relay_matches_per_column_reference(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            inst = random_pd_instance(rng, n_max=6)
            chol = np.linalg.cholesky(inst.psi)
            sources = (chol[: inst.a, :].T, chol[inst.n - inst.b :, :].T, chol.T)
            relay = [sources[k] @ rng.normal(size=sources[k].shape[1])
                     for k in rng.integers(0, 3, size=inst.z)]
            spans = CodeSpans(phi13=np.zeros((inst.n, inst.z)),
                              phi24=np.zeros((inst.n, inst.z)),
                              phi56=np.column_stack(relay))
            code = realize_spans(spans, spectrum(inst))
            want15, want25 = _relay_fit_by_column(spans, inst)
            assert np.allclose(code.e15, want15, rtol=0, atol=1e-12)
            assert np.allclose(code.e25, want25, rtol=0, atol=1e-12)

    def test_relay_column_in_one_observation_only(self):
        # psi = I, n=3, a=2: node 1 sees axes 1,2 and node 2 sees axes 2,3.
        # A phi56 column on axis 1 must be produced by node 1 alone.
        inst = simple_instance(n=3, a=2, b=2, z=1)
        spans = CodeSpans(
            phi13=np.array([[1.0], [0.0], [0.0]]),
            phi24=np.array([[0.0], [0.0], [1.0]]),
            phi56=np.array([[1.0], [0.0], [0.0]]),
        )
        code = realize_spans(spans, spectrum(inst))
        assert np.allclose(code.e25, 0.0)
        assert not np.allclose(code.e15, 0.0)

    def test_relay_column_split_across_nodes(self):
        # [1,0,-1] is in neither single observation span but is reachable as
        # a sum of contributions from both nodes
        inst = simple_instance(n=3, a=2, b=2, z=1)
        spans = CodeSpans(
            phi13=np.array([[1.0], [0.0], [0.0]]),
            phi24=np.array([[0.0], [0.0], [1.0]]),
            phi56=np.array([[1.0], [0.0], [-1.0]]),
        )
        code = realize_spans(spans, spectrum(inst))
        back = flow_spans(code, spectrum(inst))
        assert np.allclose(back.phi56, spans.phi56, atol=1e-9)
        assert not np.allclose(code.e15, 0.0)
        assert not np.allclose(code.e25, 0.0)

    def test_mixed_relay_columns_are_placed_by_priority(self):
        # psi = I, n=3, a=b=2: node 1 sees axes 1,2 and node 2 sees axes 2,3.
        # Relay columns: axis 1 (node 1 only), axis 3 (node 2 only),
        # [1,0,-1] (needs both), axis 2 (both see it; node 1 sends it).
        inst = simple_instance(n=3, a=2, b=2, z=4)
        e = np.eye(3)
        spans = CodeSpans(
            phi13=np.column_stack([e[:, 0], e[:, 1], e[:, 0], e[:, 1]]),
            phi24=np.column_stack([e[:, 2], e[:, 1], e[:, 2], e[:, 1]]),
            phi56=np.column_stack([e[:, 0], e[:, 2], e[:, 0] - e[:, 2], e[:, 1]]),
        )
        code = realize_spans(spans, spectrum(inst))
        sends1 = np.any(code.e15 != 0.0, axis=1)
        sends2 = np.any(code.e25 != 0.0, axis=1)
        assert list(sends1) == [True, False, True, True]
        assert list(sends2) == [False, True, True, False]
        back = flow_spans(code, spectrum(inst))
        for want, got in ((spans.phi13, back.phi13),
                          (spans.phi24, back.phi24),
                          (spans.phi56, back.phi56)):
            assert np.allclose(want, got, atol=1e-12)

    def test_unreachable_direct_column(self):
        inst = simple_instance(n=3, a=2, b=2, z=1)
        spans = CodeSpans(
            phi13=np.array([[0.0], [0.0], [1.0]]),  # axis 3 invisible to node 1
            phi24=np.array([[0.0], [0.0], [1.0]]),
            phi56=np.array([[0.0], [1.0], [0.0]]),
        )
        with pytest.raises(InvalidSpan):
            realize_spans(spans, spectrum(inst))


def node2_on_axes_instance(rng, identity):
    """A random instance whose node 2 lies on its last b whitened axes:
    psi = I, or a block-decoupled psi != I."""
    n = int(rng.integers(2, 11))
    a = int(rng.integers(1, n + 1))
    b = int(rng.integers(max(1, n - a), n + 1))
    inst = validate(ProblemInstance(n=n, psi=np.eye(n), a=a, b=b, z=int(rng.integers(1, n + 1)),
                                    k3=rng.normal(size=(2, n)), k4=rng.normal(size=(2, n))))
    return inst if identity else decoupled_instance(inst, rng)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), identity=st.booleans(), leave=st.booleans())
def test_node2_axes_fit_matches_least_squares(seed, identity, leave):
    # where node 2 lies on its axes, its columns are fitted by a triangular
    # solve: the least-squares fit gives the same coefficients and residuals
    # to rounding, and realize_spans on the least-squares path makes the same
    # decisions (whether phi24 leaves node 2's span, as it does when `leave`
    # moves a column off it, and which relay columns each node sends)
    rng = np.random.default_rng(seed)
    inst = node2_on_axes_instance(rng, identity)
    spec = spectrum(inst)
    chol, n, a, b, z = spec.cholesky_l, inst.n, inst.a, inst.b, inst.z
    assert code_module._node2_on_axes(chol, b)
    u1, u2 = chol[:a, :].T, chol[n - b:, :].T
    sources = (u1, u2, chol.T)
    relay = np.column_stack([sources[k] @ rng.normal(size=sources[k].shape[1])
                             for k in rng.integers(0, 3, size=z)])
    phi24 = u2 @ rng.normal(size=(b, z))
    if leave and b < n:
        phi24[:, 0] += rng.normal(size=n)
    targets = np.hstack([phi24, relay, rng.normal(size=(n, 2))])
    got = code_module._fit_axes(chol, slice(n - b, n), targets)
    want = code_module._fit_columns(u2, targets, DEFAULT_TOL)
    atol = 1e-11 * max(1.0, float(np.abs(targets).max()))
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=0, atol=atol)

    spans = CodeSpans(phi13=u1 @ rng.normal(size=(a, z)), phi24=phi24, phi56=relay)
    outcomes = []
    for on_axes in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(code_module, "_node2_on_axes", lambda chol, b: on_axes)
            try:
                outcomes.append(realize_spans(spans, spec))
            except InvalidSpan as exc:
                outcomes.append(str(exc))
    fast, general = outcomes
    assert isinstance(fast, str) == isinstance(general, str) == (leave and b < n)
    if isinstance(fast, str):
        assert fast == general
        return
    for name in ("e13", "e15"):
        assert np.array_equal(getattr(fast, name), getattr(general, name))
    assert np.array_equal(fast.e25 != 0.0, general.e25 != 0.0)
    for name in ("e24", "e25"):
        assert np.allclose(getattr(fast, name), getattr(general, name), rtol=0, atol=atol)


class TestUtilities:
    def test_zero_relay_spans_zero_utility(self):
        rng = np.random.default_rng(6)
        inst = random_pd_instance(rng, n_max=5)
        code = random_code(inst, rng)
        code = ButterflyCode(code.e13, np.zeros_like(code.e15), code.e24,
                             np.zeros_like(code.e25), np.zeros_like(code.e56),
                             code.d3, code.d4)
        u56, u13, u24 = utilities(code, spectrum(inst))
        assert u56 == 0.0
        assert u13 >= -1e-12 and u24 >= -1e-12

    def test_top_relay_captures_eigensum(self):
        rng = np.random.default_rng(7)
        inst = random_pd_instance(rng, n_max=6)
        spec = spectrum(inst)
        z = inst.z
        m = min(z, inst.n)
        mu, vec = np.linalg.eigh(spec.s3 + spec.s4)
        top = vec[:, ::-1][:, :m]
        code = zero_code(inst)
        spans = CodeSpans(
            phi13=np.zeros((inst.n, z)), phi24=np.zeros((inst.n, z)),
            phi56=np.pad(top, ((0, 0), (0, z - m))))
        # bypass realize_spans: only the spans matter for the utility, so
        # check the subspace trace directly against the eigenvalue sum
        u = np.linalg.qr(spans.phi56[:, :m])[0] if m else np.zeros((inst.n, 0))
        captured = float(np.sum((spec.s3 + spec.s4) @ u * u))
        assert abs(captured - mu[::-1][:m].sum()) <= 1e-9 * (1 + abs(captured))

    def test_no_double_counting(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_pd_instance(rng, n_max=6)
            spec = spectrum(inst)
            code = random_code(inst, rng)
            u56, u13, u24 = utilities(code, spec)
            cap = np.trace(spec.s3 + spec.s4)
            assert -1e-9 <= u56 <= cap + 1e-8
            assert u13 >= -1e-9 and u24 >= -1e-9
            assert u56 + u13 + u24 <= cap + 1e-8

    def test_exhaustive_spans_capture_everything(self):
        # with full capacity every task direction is received somewhere
        rng = np.random.default_rng(9)
        n = 4
        f = rng.normal(size=(n, n))
        inst = simple_instance(n=n, a=n, b=n, z=n,
                               psi=f @ f.T + 0.5 * np.eye(n),
                               k3=rng.normal(size=(2, n)),
                               k4=rng.normal(size=(2, n)))
        spec = spectrum(inst)
        chol = np.linalg.cholesky(inst.psi)
        code = realize_spans(CodeSpans(
            phi13=chol.T @ np.eye(n), phi24=chol.T @ np.eye(n),
            phi56=chol.T @ np.eye(n)), spec)
        u56, u13, u24 = utilities(code, spec)
        cap = np.trace(spec.s3 + spec.s4)
        assert abs(u56 + u13 + u24 - cap) <= 1e-8 * (1 + cap)


    def test_matches_spectrum_grams_without_eigendecompositions(self, monkeypatch):
        # u56 is the trace of S3 + S4 over the relay's basis, and u13 and u24
        # the traces of S3 and S4 over the directions each direct link adds
        # to it, from the spectrum's Grams and with no eigendecomposition;
        # they agree with the stacked definition within the oracle's bound
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(20):
            inst = random_pd_instance(rng, n_max=8)
            code = random_code(inst, rng)
            spec = spectrum(inst)
            spans = flow_spans(code, spec)
            relay = orthonormal_basis(spans.phi56).vectors
            top = np.linalg.svd(spans.phi56, full_matrices=False)[1][0]

            def beyond(phi):
                resid = phi
                for _ in range(2):
                    resid = resid - relay @ (relay.T @ resid)
                u, s, _ = np.linalg.svd(resid, full_matrices=False)
                cut = DEFAULT_TOL.rank_tol * max(top, np.linalg.norm(phi, axis=0).max())
                return u[:, s > cut]

            def trace(s, vectors):
                return float(np.sum((s @ vectors) * vectors))

            want = (trace(spec.s3 + spec.s4, relay),
                    trace(spec.s3, beyond(spans.phi13)),
                    trace(spec.s4, beyond(spans.phi24)))
            cases.append((code, spec, want, stacked_utilities(spans, spec)))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *args, **kw: calls.append(1) or eigh(*args, **kw))
        for code, spec, want, stacked in cases:
            assert utilities(code, spec) == want
            cap = max(1.0, float(np.trace(spec.s3 + spec.s4)))
            assert np.allclose(want, stacked, rtol=0, atol=1e-10 * cap)
        assert not calls


def stacked_utilities(spans, spec, tol=DEFAULT_TOL, unit=False):
    """The stacked definition of the utilities: u56 = Tr((S3 + S4) P_56),
    u13 = Tr(S3 P_[phi13 | phi56]) - Tr(S3 P_56) and u24 likewise, with
    each P the projector onto orthonormal_basis of its columns. With `unit`,
    the zero columns are dropped and the others scaled to unit length
    first, which keeps a direct link that is small next to the relay from
    being resolved against the relay's scale."""
    def cols(m):
        if not unit:
            return m
        norms = np.linalg.norm(m, axis=0)
        return m[:, norms > 0] / norms[norms > 0]

    def trace(s, m):
        v = orthonormal_basis(m, tol).vectors
        return float(np.sum((s @ v) * v))

    relay = cols(spans.phi56)
    return (trace(spec.s3 + spec.s4, relay),
            trace(spec.s3, np.hstack([cols(spans.phi13), relay])) - trace(spec.s3, relay),
            trace(spec.s4, np.hstack([cols(spans.phi24), relay])) - trace(spec.s4, relay))


def identity_or_random_instance(rng, identity, n_max=10):
    """random_pd_instance, with psi replaced by I when `identity`."""
    inst = random_pd_instance(rng, n_max=n_max)
    if not identity:
        return inst
    return validate(ProblemInstance(n=inst.n, psi=np.eye(inst.n), a=inst.a, b=inst.b,
                                    z=inst.z, k3=inst.k3, k4=inst.k4))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), identity=st.booleans())
def test_small_direct_links_keep_their_utilities(seed, identity):
    # direct links 1e-9 the size of the relay: each adds its directions on
    # its own residual against the relay, so u13 and u24 keep their
    # accuracy; the stacked difference Tr(S3 P_135) - Tr(S3 P_56) resolved
    # them against the relay's scale and lost up to 3e-6 relative
    tol = ToleranceConfig(rank_tol=1e-14)
    rng = np.random.default_rng(seed)
    inst = identity_or_random_instance(rng, identity)
    code = random_code(inst, rng)
    code = dataclasses.replace(code, e13=1e-9 * code.e13, e24=1e-9 * code.e24)
    spec = spectrum(inst)
    got = utilities(code, spec, tol)
    want = stacked_utilities(flow_spans(code, spec), spec, tol, unit=True)
    cap = max(1.0, float(np.trace(spec.s3 + spec.s4)))
    assert np.allclose(got, want, rtol=0, atol=1e-12 * cap)


class TestInvariants:
    def test_loss_never_beats_lower_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            inst = random_pd_instance(rng, n_max=7)
            lb = lower_bound_of(inst)
            code = with_optimal_decoders(random_code(inst, rng), inst)
            total = exact_loss(code, inst)[2]
            assert total >= lb - 1e-9 * (1 + lb)

    def test_span_equal_codes_equal_losses(self):
        rng = np.random.default_rng(11)
        inst = random_pd_instance(rng, n_max=5)
        code = with_optimal_decoders(random_code(inst, rng), inst)
        spec = spectrum(inst)
        rebuilt = realize_spans(flow_spans(code, spec), spec)
        l1 = exact_loss(code, inst)[2]
        l2 = exact_loss(rebuilt, inst)[2]
        assert abs(l1 - l2) <= 1e-8 * (1 + l1)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        inst = random_pd_instance(rng)
        code = random_code(inst, rng)
        back = code_from_json(code_to_json(code))
        for name in ("e13", "e15", "e24", "e25", "e56", "d3", "d4"):
            assert np.allclose(getattr(back, name), getattr(code, name))

    @pytest.mark.parametrize("read, fields, problem", [
        (code_from_json, None, "code document must be a JSON object, got 5"),
        (code_from_json, {"e13": 5}, "code field e13 must hold"),
        (code_from_json, {"e15": {"shape": [2]}}, "code field e15 must hold"),
        (code_from_json, {"d3": {"shape": [3, 3], "data": [1.0, 2.0]}},
         "code field d3 must hold"),
        (code_from_json, {"e13": {"shape": [1, 2], "data": [True, "2"]}},
         "code field e13 must hold.*real numbers, got True"),
        (code_from_json, {"d3": {"shape": [-1, 2], "data": [0.0] * 6}},
         "code field d3 must hold.*non-negative integers"),
        (code_from_json, {"d3": {"shape": ["3", 2], "data": [0.0] * 6}},
         "code field d3 must hold.*non-negative integers"),
        (instance_from_json, None, "instance document must be a JSON object, got 5"),
    ], ids=["not_an_object", "matrix_not_an_object", "no_data", "data_off_shape",
            "data_not_real", "negative_shape", "string_shape", "instance_not_an_object"])
    def test_malformed_document_rejected(self, read, fields, problem):
        text = "5"
        if fields is not None:
            inst = simple_instance()
            doc = json.loads(code_to_json(random_code(inst, np.random.default_rng(15))))
            text = json.dumps({**doc, **fields})
        with pytest.raises(BadDimensions, match=problem):
            read(text)

    def test_missing_field_rejected(self):
        rng = np.random.default_rng(13)
        inst = random_pd_instance(rng)
        doc = json.loads(code_to_json(random_code(inst, rng)))
        del doc["e56"]
        with pytest.raises(BadDimensions):
            code_from_json(json.dumps(doc))
