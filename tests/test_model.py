import numpy as np
import pytest

from butterfly_coding import (
    BadDimensions,
    ButterflyCode,
    CholeskyFailed,
    NotPSD,
    ObservationConstraintViolated,
    ProblemInstance,
    covariance_from_samples,
    exact_loss,
    instance_from_json,
    instance_to_json,
    lift_code,
    load_samples_csv,
    lower_bound,
    lower_bound_of,
    spectrum,
    task_pca,
    validate,
    whiten,
    with_optimal_decoders,
)

from conftest import random_pd_instance, random_rank_deficient_instance


def simple_instance(n=3, a=2, b=2, z=1, psi=None, k3=None, k4=None):
    return ProblemInstance(
        n=n,
        psi=np.eye(n) if psi is None else np.asarray(psi, dtype=float),
        a=a, b=b, z=z,
        k3=np.eye(n) if k3 is None else np.atleast_2d(np.asarray(k3, dtype=float)),
        k4=np.eye(n) if k4 is None else np.atleast_2d(np.asarray(k4, dtype=float)),
    )


class TestValidate:
    def test_overlapping_observations_ok(self):
        validate(simple_instance(n=3, a=2, b=2))

    def test_uncovered_middle_coordinate(self):
        with pytest.raises(ObservationConstraintViolated):
            validate(simple_instance(n=3, a=1, b=1))

    def test_observation_wider_than_data(self):
        with pytest.raises(ObservationConstraintViolated):
            validate(simple_instance(n=3, a=4, b=3))

    def test_negative_eigenvalue_rejected(self):
        psi = np.diag([1.0, -0.5, 1.0])
        with pytest.raises(NotPSD):
            validate(simple_instance(psi=psi))

    def test_asymmetric_psi_symmetrized(self):
        psi = np.eye(3)
        psi[0, 1] = 0.5
        out = validate(simple_instance(psi=psi))
        assert np.allclose(out.psi, out.psi.T)
        assert abs(out.psi[0, 1] - 0.25) < 1e-12

    def test_task_matrix_column_mismatch(self):
        with pytest.raises(BadDimensions):
            validate(simple_instance(k3=np.ones((2, 4))))

    def test_nonpositive_capacity(self):
        with pytest.raises(BadDimensions):
            validate(simple_instance(z=0))

    @pytest.mark.parametrize("field", ["k3", "k4"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_task_matrix_rejected(self, field, bad):
        k = np.eye(3)
        k[1, 2] = bad
        with pytest.raises(BadDimensions, match=field):
            validate(simple_instance(**{field: k}))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        psi = np.eye(3)
        psi[0, 0] = bad
        with pytest.raises(NotPSD, match="non-finite"):
            validate(simple_instance(psi=psi))

    def test_non_integer_capacity_rejected(self):
        with pytest.raises(BadDimensions, match="z must be an integer"):
            validate(simple_instance(z=1.5))

    def test_numpy_integer_dimensions_accepted(self):
        inst = validate(simple_instance(n=np.int64(3), z=np.int32(1)))
        assert inst.n == 3 and inst.z == 1


class TestWhiten:
    def test_identity_covariance_passthrough(self):
        inst = simple_instance(n=3, a=2, b=2)
        w = whiten(inst)
        assert w.inner.n == 3 and w.a_tilde == 2 and w.b_tilde == 2
        assert np.allclose(w.forward_map, np.eye(3))
        assert np.allclose(w.backward_map, np.eye(3))
        assert np.allclose(w.inner.k3, inst.k3)

    def test_zero_mode_drops(self):
        inst = simple_instance(n=2, a=2, b=2, psi=np.diag([4.0, 0.0]),
                               k3=np.eye(2), k4=np.eye(2))
        w = whiten(inst)
        assert w.inner.n == 1
        assert w.a_tilde == 1 and w.b_tilde == 1
        assert np.allclose(w.inner.psi, np.eye(1))

    def test_inner_covariance_full_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            inst = random_rank_deficient_instance(rng)
            w = whiten(inst)
            eig = np.linalg.eigvalsh(w.inner.psi)
            assert eig[0] > 1e-8
            assert w.inner.n == np.linalg.matrix_rank(inst.psi, tol=1e-8)
            validate(w.inner)

    def test_task_values_preserved_through_maps(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = random_rank_deficient_instance(rng)
            w = whiten(inst)
            # samples supported on the covariance column space
            x = inst.psi @ rng.normal(size=(inst.n, 30))
            x_inner = w.forward_map @ x
            assert np.allclose(w.inner.k3 @ x_inner, inst.k3 @ x, atol=1e-8)
            assert np.allclose(w.inner.k4 @ x_inner, inst.k4 @ x, atol=1e-8)
            assert np.allclose(w.backward_map @ x_inner, x, atol=1e-8)
            # observation maps agree with the global forward map per node
            assert np.allclose(w.obs1_map @ x[: inst.a], x_inner[: w.a_tilde],
                               atol=1e-8)
            assert np.allclose(w.obs2_map @ x[inst.n - inst.b :],
                               x_inner[w.inner.n - w.b_tilde :], atol=1e-8)

    def test_lift_preserves_loss_rank3_in_r5(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(5, 3))
        inst = validate(ProblemInstance(
            n=5, psi=f @ f.T, a=4, b=4, z=1,
            k3=rng.normal(size=(2, 5)), k4=rng.normal(size=(3, 5))))
        w = whiten(inst)
        shapes = dict(e13=(1, w.a_tilde), e15=(1, w.a_tilde),
                      e24=(1, w.b_tilde), e25=(1, w.b_tilde), e56=(1, 2),
                      d3=(w.inner.n, 2), d4=(w.inner.n, 2))
        inner_code = ButterflyCode(**{k: rng.normal(size=s)
                                      for k, s in shapes.items()})
        inner_code = with_optimal_decoders(inner_code, w.inner)
        lifted = lift_code(w, inner_code)
        l3, l4, _ = exact_loss(inner_code, w.inner)
        m3, m4, _ = exact_loss(lifted, inst)
        assert abs(l3 - m3) <= 1e-9 * (1 + abs(l3))
        assert abs(l4 - m4) <= 1e-9 * (1 + abs(l4))

    def test_lower_bound_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            inst = random_rank_deficient_instance(rng)
            lb = lower_bound_of(inst)
            lb_inner = lower_bound_of(whiten(inst).inner)
            assert abs(lb - lb_inner) <= 1e-9 * (1 + lb)


class TestSpectrum:
    def test_identity_everything(self):
        spec = spectrum(simple_instance(n=2, a=1, b=1))
        assert np.allclose(spec.s3, np.eye(2))
        assert np.allclose(spec.mu3, [1.0, 1.0])

    def test_diagonal_task(self):
        spec = spectrum(simple_instance(n=2, a=1, b=1, k3=np.diag([2.0, 1.0])))
        assert np.allclose(spec.mu3, [4.0, 1.0])
        assert np.allclose(np.abs(spec.u3[:, 0]), [1.0, 0.0])
        assert spec.u3[np.argmax(np.abs(spec.u3[:, 0])), 0] > 0

    def test_scaled_covariance_row_task(self):
        spec = spectrum(simple_instance(n=2, a=1, b=1,
                                        psi=np.diag([4.0, 1.0]),
                                        k3=np.array([[0.0, 1.0]]),
                                        k4=np.array([[0.0, 1.0]])))
        assert np.allclose(spec.s3, np.diag([0.0, 1.0]), atol=1e-12)
        assert np.allclose(spec.mu3, [1.0, 0.0], atol=1e-12)

    def test_observation_spans_are_cholesky_rows(self):
        inst = random_pd_instance(np.random.default_rng(12))
        spec = spectrum(inst)
        assert spec.obs1.shape == (inst.n, inst.a)
        assert np.allclose(spec.obs1.T, spec.cholesky_l[: inst.a, :])
        assert np.allclose(spec.obs2.T, spec.cholesky_l[inst.n - inst.b :, :])

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            inst = random_pd_instance(rng)
            spec = spectrum(inst)
            for s, mu, u in ((spec.s3, spec.mu3, spec.u3),
                             (spec.s4, spec.mu4, spec.u4)):
                back = u @ np.diag(mu) @ u.T
                denom = max(np.linalg.norm(s), 1.0)
                assert np.linalg.norm(back - s) <= 1e-9 * denom
                assert np.all(np.diff(mu) <= 1e-9)

    def test_requires_positive_definite(self):
        inst = simple_instance(psi=np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(CholeskyFailed):
            spectrum(inst)


class TestLowerBound:
    def test_zero_tail(self):
        inst = simple_instance(n=3, a=2, b=2, z=1,
                               k3=np.diag([2.0, 1.0, 0.0]) ** 0.5,
                               k4=np.diag([2.0, 1.0, 0.0]) ** 0.5)
        assert lower_bound(spectrum(inst), 1) == 0.0

    def test_direct_sum(self):
        # eigenvalues [3,2,1] and [5,4,3]: trailing entries 1 and 3
        inst = simple_instance(n=3, a=2, b=2, z=1,
                               k3=np.diag([3.0, 2.0, 1.0]) ** 0.5,
                               k4=np.diag([5.0, 4.0, 3.0]) ** 0.5)
        assert abs(lower_bound(spectrum(inst), 1) - 4.0) < 1e-12

    def test_zero_when_capacity_covers_dimension(self):
        rng = np.random.default_rng(14)
        inst = random_pd_instance(rng)
        assert lower_bound(spectrum(inst), inst.n) == 0.0

    def test_nonincreasing_in_z(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            inst = random_pd_instance(rng)
            spec = spectrum(inst)
            vals = [lower_bound(spec, zz) for zz in range(1, inst.n + 1)]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_matches_instance_level_helper(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            inst = random_pd_instance(rng)
            lb = lower_bound(spectrum(inst), inst.z)
            assert abs(lb - lower_bound_of(inst)) <= 1e-9 * (1 + lb)


class TestTaskPCA:
    def test_full_capacity_exact(self):
        enc, dec, loss = task_pca(np.eye(3), np.eye(3), 3)
        assert loss <= 1e-12
        assert np.allclose(dec @ enc, np.eye(3), atol=1e-9)

    def test_diagonal_tail(self):
        enc, dec, loss = task_pca(np.diag([3.0, 2.0, 1.0]), np.eye(3), 1)
        assert abs(loss - 5.0) < 1e-10
        row = enc[0] / np.linalg.norm(enc[0])
        assert abs(abs(row[0]) - 1.0) < 1e-10

    def test_loss_is_trace_minus_top(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            k = rng.normal(size=(int(rng.integers(1, n + 2)), n))
            f = rng.normal(size=(n, n))
            psi = f @ f.T + 0.1 * np.eye(n)
            z = int(rng.integers(1, n + 1))
            _, _, loss = task_pca(k, psi, z)
            chol = np.linalg.cholesky(psi)
            mu = np.linalg.eigvalsh(chol.T @ k.T @ k @ chol)[::-1]
            want = float(np.clip(mu[z:], 0.0, None).sum())
            assert abs(loss - want) <= 1e-10 * (1 + want)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(18)
        n, z = 4, 2
        k = rng.normal(size=(3, n))
        enc, dec, loss = task_pca(k, np.eye(n), z)
        e = 0.1 * rng.normal(size=(z, n))
        d = 0.1 * rng.normal(size=(n, z))
        for _ in range(20000):
            r = np.eye(n) - d @ e
            g = k.T @ k @ r
            ge = -2.0 * d.T @ g
            gd = -2.0 * g @ e.T
            e = e - 0.01 * ge
            d = d - 0.01 * gd
        resid = k @ (np.eye(n) - d @ e)
        gd_loss = float(np.trace(resid @ resid.T))
        assert abs(loss - gd_loss) <= 1e-6 * (1 + gd_loss)
        assert loss <= gd_loss + 1e-6

    def test_reconstruction_residual_matches_loss(self):
        rng = np.random.default_rng(19)
        n = 5
        k = rng.normal(size=(2, n))
        f = rng.normal(size=(n, n))
        psi = f @ f.T + 0.5 * np.eye(n)
        enc, dec, loss = task_pca(k, psi, 2)
        resid = k @ (np.eye(n) - dec @ enc)
        direct = float(np.trace(resid @ psi @ resid.T))
        assert abs(direct - loss) <= 1e-9 * (1 + loss)


class TestSerialization:
    def test_instance_round_trip(self):
        inst = random_pd_instance(np.random.default_rng(20))
        back = instance_from_json(instance_to_json(inst))
        assert back.n == inst.n and back.a == inst.a
        assert back.b == inst.b and back.z == inst.z
        assert np.allclose(back.psi, inst.psi)
        assert np.allclose(back.k3, inst.k3)
        assert np.allclose(back.k4, inst.k4)

    def test_missing_key_rejected(self):
        import json
        doc = json.loads(instance_to_json(simple_instance()))
        del doc["k4"]
        with pytest.raises(BadDimensions):
            instance_from_json(json.dumps(doc))

    def test_covariance_from_samples(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(200000, 3)) @ np.diag([1.0, 2.0, 0.5]) + 7.0
        psi = covariance_from_samples(x)
        assert psi.shape == (3, 3)
        assert np.allclose(psi, psi.T)
        # mean removal: the +7 offset must not leak into the estimate
        assert np.allclose(psi, np.diag([1.0, 4.0, 0.25]), atol=0.05)

    def test_load_samples_csv(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        x = load_samples_csv(path)
        assert x.shape == (3, 2)
        assert np.allclose(x[1], [3.0, 4.0])
