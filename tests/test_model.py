import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from butterfly_coding import (
    BadDimensions,
    ButterflyCode,
    CholeskyFailed,
    NotPSD,
    ObservationConstraintViolated,
    ProblemInstance,
    SyntheticSpec,
    TaskSpectrum,
    covariance_from_samples,
    exact_loss,
    gen_synthetic,
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

from butterfly_coding.model import _descending_eigh, _is_identity

from conftest import random_pd_instance, random_rank_deficient_instance, readme_config


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

    def test_psi_of_wrong_shape_rejected(self):
        with pytest.raises(BadDimensions, match="psi shape"):
            validate(simple_instance(psi=np.eye(2)))

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

    @pytest.mark.parametrize("field", ["psi", "k3", "k4"])
    @pytest.mark.parametrize("bad", [{}, "x", 1j, [1.0, 2.0]])
    def test_non_number_entry_rejected(self, field, bad):
        k = np.eye(3).tolist()
        k[1][2] = bad
        with pytest.raises(BadDimensions, match=f"{field} must be an array of real numbers"):
            validate(replace(simple_instance(), **{field: k}))

    @pytest.mark.parametrize("field", ["psi", "k3", "k4"])
    @pytest.mark.parametrize("bad", ["1", "1e0", True, False, np.True_, None])
    def test_string_or_boolean_entry_rejected(self, field, bad):
        # numpy reads each of these as a number
        k = np.eye(3).tolist()
        k[1][2] = bad
        with pytest.raises(BadDimensions, match=f"{field} must be an array of real numbers"):
            validate(replace(simple_instance(), **{field: k}))

    @pytest.mark.parametrize("dtype", [bool, str])
    def test_non_numeric_array_rejected(self, dtype):
        with pytest.raises(BadDimensions, match="k3 must be an array of real numbers"):
            validate(replace(simple_instance(), k3=np.eye(3).astype(int).astype(dtype)))

    def test_numeric_entries_of_any_kind_accepted(self):
        k = [[1, np.int64(0), 0.0], [np.float32(0.5), 2**70, 0], [0, 0, np.uint8(1)]]
        inst = validate(replace(simple_instance(), k3=k))
        assert inst.k3.dtype == float and inst.k3[1, 1] == 2.0**70

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        psi = np.eye(3)
        psi[0, 0] = bad
        with pytest.raises(NotPSD, match="non-finite"):
            validate(simple_instance(psi=psi))

    @pytest.mark.parametrize("field", ["k3", "k4"])
    def test_task_magnitude_whose_grams_overflow_rejected(self, field):
        k = np.eye(3)
        k[1, 2] = 1e308
        with pytest.raises(BadDimensions, match=f"{field} entries up to 1e\\+308"):
            validate(simple_instance(**{field: k}))

    def test_covariance_magnitude_counts_toward_the_gram_bound(self):
        # entries of 1e150 square to 1e300; a covariance of 1e10 takes the
        # bound on L^T K^T K L past the float range
        big = simple_instance(k3=1e150 * np.eye(3), psi=1e10 * np.eye(3))
        with pytest.raises(BadDimensions, match="k3 entries up to 1e\\+150"):
            validate(big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = spectrum(validate(replace(big, psi=np.eye(3))))
        assert np.all(np.isfinite(spec.s3)) and spec.mu3[0] == pytest.approx(1e300)

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

    def test_zero_covariance_rejected(self):
        with pytest.raises(BadDimensions, match="numerically zero"):
            whiten(simple_instance(psi=np.zeros((3, 3))))

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
        # x = L h, so node 1 observes the first a rows of L applied to the
        # whitened h and node 2 the last b; L is lower-triangular, so node
        # 1's rows vanish past column a and span the first a axes
        inst = random_pd_instance(np.random.default_rng(12))
        chol = spectrum(inst).cholesky_l
        assert np.allclose(chol @ chol.T, inst.psi)
        assert np.all(chol[: inst.a, inst.a :] == 0.0)
        assert np.linalg.matrix_rank(chol[: inst.a, : inst.a]) == inst.a
        assert np.linalg.matrix_rank(chol[inst.n - inst.b :, :]) == inst.b

    def test_spectrum_holds_what_it_factors(self):
        assert [f.name for f in fields(TaskSpectrum)] == [
            "instance", "cholesky_l", "s3", "s4", "mu3", "mu4", "u3", "u4"]

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

    def test_same_tasks_decomposed_once(self, monkeypatch):
        # K3^T K3 = K4^T K4 bit for bit: task 4's eigenpairs are copies of
        # task 3's, the bits their own decomposition gives, from one eigh
        inst = gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=16, seed=1))
        calls, eigh = [], np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        spec = spectrum(inst)
        assert len(calls) == 1 and np.array_equal(spec.s3, spec.s4)
        monkeypatch.undo()
        mu4, u4 = _descending_eigh(spec.s4)
        assert spec.mu4.tobytes() == mu4.tobytes() and spec.u4.tobytes() == u4.tobytes()
        assert not np.shares_memory(spec.mu4, spec.mu3)
        assert not np.shares_memory(spec.u4, spec.u3)

    def test_requires_positive_definite(self):
        inst = simple_instance(psi=np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(CholeskyFailed):
            spectrum(inst)

    def test_singular_covariance_names_the_cause(self):
        # four samples of six coordinates give a covariance of rank three
        psi = covariance_from_samples(np.random.default_rng(0).normal(size=(4, 6)))
        inst = validate(simple_instance(n=6, a=4, b=4, z=2, psi=psi))
        with pytest.raises(CholeskyFailed, match="singular or not positive definite, "
                           "e.g. estimated from fewer samples than coordinates"):
            spectrum(inst)

    def test_numerically_singular_covariance_rejected(self):
        # the Cholesky factor exists, but its smallest pivot is below the
        # square root of the rank tolerance
        inst = simple_instance(psi=np.diag([1.0, 1e-14, 1.0]))
        with pytest.raises(CholeskyFailed, match="rank-deficient"):
            spectrum(inst)

    def test_holds_its_instance(self):
        inst = random_pd_instance(np.random.default_rng(14))
        spec = spectrum(inst)
        assert spec.instance is inst
        assert (spec.n, spec.z) == (inst.n, inst.z)


class TestIdentity:
    def test_equal_values_built_twice_are_unequal(self):
        # dataclasses that hold arrays compare by identity, so comparing two
        # separately built, equal values answers False instead of raising
        assert (simple_instance() == simple_instance()) is False
        inst = validate(simple_instance())
        assert inst == inst
        assert (spectrum(inst) == spectrum(inst)) is False


RANDOM_FACTOR = np.random.default_rng(3).normal(size=(3, 3))


class TestExactIdentity:
    """_is_identity decides psi = I exactly; only then do validate and
    spectrum skip the eigenvalues and the Cholesky factor."""

    @staticmethod
    def factorizations(monkeypatch) -> list[str]:
        """The names of the np.linalg cholesky and eigvalsh calls from now on."""
        calls = []

        def spy(name):
            real = getattr(np.linalg, name)
            return lambda *args, **kw: calls.append(name) or real(*args, **kw)

        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        return calls

    def test_identity_from_json_integers_takes_the_fast_path(self, monkeypatch):
        doc = readme_config("analyze.json")["instance"]
        assert doc["psi"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        calls = self.factorizations(monkeypatch)
        inst = instance_from_json(json.dumps(doc))
        assert _is_identity(inst.psi)
        spec = spectrum(inst)
        assert calls == []
        assert np.array_equal(spec.cholesky_l, np.eye(3))

    @pytest.mark.parametrize("psi", [
        2.0 * np.eye(3),
        np.array([[1.0, 1e-300, 0.0], [1e-300, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        RANDOM_FACTOR @ RANDOM_FACTOR.T + 0.1 * np.eye(3),
    ], ids=["two_eye", "tiny_off_diagonal_pair", "random_spd"])
    def test_other_covariances_take_the_general_path(self, monkeypatch, psi):
        assert not _is_identity(psi)
        calls = self.factorizations(monkeypatch)
        inst = validate(simple_instance(psi=psi))
        spectrum(inst)
        assert calls == ["eigvalsh", "cholesky"]

    @pytest.mark.parametrize("psi", [
        np.eye(3)[:2], np.eye(3).reshape(1, 3, 3), np.diag([1.0, 1.0, np.nan]),
        np.where(np.eye(3) == 0, np.nan, 1.0), np.eye(3)[::-1],
    ], ids=["wide", "three_axes", "nan_diagonal", "nan_off_diagonal", "permutation"])
    def test_near_misses_are_not_the_identity(self, psi):
        assert not _is_identity(psi)

    def test_identity_in_any_layout_is_the_identity(self):
        assert _is_identity(np.eye(4)) and _is_identity(np.asfortranarray(np.eye(4)))
        assert _is_identity(np.eye(8)[::2, ::2]) and _is_identity([[1, 0], [0, 1]])


class TestLowerBound:
    def test_zero_tail(self):
        inst = simple_instance(n=3, a=2, b=2, z=1,
                               k3=np.diag([2.0, 1.0, 0.0]) ** 0.5,
                               k4=np.diag([2.0, 1.0, 0.0]) ** 0.5)
        assert lower_bound(spectrum(inst)) == 0.0

    def test_direct_sum(self):
        # eigenvalues [3,2,1] and [5,4,3]: trailing entries 1 and 3
        inst = simple_instance(n=3, a=2, b=2, z=1,
                               k3=np.diag([3.0, 2.0, 1.0]) ** 0.5,
                               k4=np.diag([5.0, 4.0, 3.0]) ** 0.5)
        assert abs(lower_bound(spectrum(inst)) - 4.0) < 1e-12

    def test_zero_when_capacity_covers_dimension(self):
        rng = np.random.default_rng(14)
        inst = random_pd_instance(rng)
        assert lower_bound(spectrum(replace(inst, z=inst.n))) == 0.0

    def test_nonincreasing_in_z(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            inst = random_pd_instance(rng)
            vals = [lower_bound(spectrum(replace(inst, z=zz))) for zz in range(1, inst.n + 1)]
            assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n, z, a", [(32, 8, 24), (64, 8, 48)])
    def test_rank_2z_tasks_have_a_zero_bound(self, n, z, a):
        # the whitened Grams have rank 2Z, so their tails past 2Z are
        # rounding noise, which must not make the bound positive
        for seed in range(5):
            for r_plus in range(2 * z, 4 * z + 1, 4):
                for profile in (None, "flat_tail"):
                    inst = gen_synthetic(SyntheticSpec(
                        n=n, z=z, a=a, b=a, r_plus_target=r_plus,
                        eig_profile=profile, seed=seed))
                    assert lower_bound(spectrum(inst)) == 0.0
                    assert lower_bound_of(inst) == 0.0

    def test_task_without_rows(self):
        # a task matrix with no rows has no eigenvalues to floor; task 4's
        # eigenvalues are 1, 1, 1, so the tail past 2Z = 2 is 1
        inst = validate(simple_instance(k3=np.zeros((0, 3))))
        assert lower_bound_of(inst) == 1.0
        assert lower_bound(spectrum(inst)) == 1.0

    def test_matches_instance_level_helper(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            inst = random_pd_instance(rng)
            lb = lower_bound(spectrum(inst))
            assert abs(lb - lower_bound_of(inst)) <= 1e-9 * (1 + lb)


def single_task_pca(k, psi, z):
    """task_pca of the task k under covariance psi at capacity z, through a
    validated instance with k as its task (both nodes observe all of x)."""
    n = len(psi)
    inst = validate(ProblemInstance(n=n, psi=psi, a=n, b=n, z=z, k3=k, k4=k))
    return task_pca(spectrum(inst), "k3")


class TestTaskPCA:
    def test_unknown_task_rejected(self):
        spec = spectrum(gen_synthetic(SyntheticSpec(n=8, z=2, a=6, b=6, r_plus_target=6)))
        for task in ("k5", "K3", "", None):
            with pytest.raises(ValueError, match=f'pca task must be "k3" or "k4", got {task!r}'):
                task_pca(spec, task)

    def test_reads_the_named_tasks_eigenpairs(self):
        inst = random_pd_instance(np.random.default_rng(21))
        spec = spectrum(inst)
        for task in ("k3", "k4"):
            k = getattr(inst, task)
            got, want = task_pca(spec, task), single_task_pca(k, inst.psi, inst.z)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_full_capacity_exact(self):
        enc, dec, loss = single_task_pca(np.eye(3), np.eye(3), 3)
        assert loss <= 1e-12
        assert np.allclose(dec @ enc, np.eye(3), atol=1e-9)

    def test_capacity_past_n_pads_with_zeros(self):
        # Z = 4 > n = 3: the encoder keeps its Z x n shape, its last row
        # zero, and the decoder's last column is zero; the loss is unchanged
        k = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 1.0]])
        enc, dec, loss = single_task_pca(k, np.eye(3), 4)
        full_enc, full_dec, full_loss = single_task_pca(k, np.eye(3), 3)
        assert enc.shape == (4, 3) and dec.shape == (3, 4)
        assert np.array_equal(enc[:3], full_enc) and np.array_equal(dec[:, :3], full_dec)
        assert not enc[3].any() and not dec[:, 3].any()
        assert loss == full_loss

    def test_diagonal_tail(self):
        enc, dec, loss = single_task_pca(np.diag([3.0, 2.0, 1.0]), np.eye(3), 1)
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
            _, _, loss = single_task_pca(k, psi, z)
            chol = np.linalg.cholesky(psi)
            mu = np.linalg.eigvalsh(chol.T @ k.T @ k @ chol)[::-1]
            want = float(np.clip(mu[z:], 0.0, None).sum())
            assert abs(loss - want) <= 1e-10 * (1 + want)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(18)
        n, z = 4, 2
        k = rng.normal(size=(3, n))
        enc, dec, loss = single_task_pca(k, np.eye(n), z)
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

    def test_rank_z_task_has_a_zero_loss(self):
        # the whitened Gram has rank 16, so its eigenvalues past 16 are
        # rounding noise, which the floor of the bound's tail counts as zero
        for seed in range(5):
            inst = gen_synthetic(SyntheticSpec(n=64, z=8, a=48, b=48, r_plus_target=24,
                                               seed=seed))
            assert task_pca(spectrum(replace(inst, z=16)), "k3")[2] == 0.0

    def test_task_of_rank_above_z_reports_its_tail(self):
        inst = gen_synthetic(SyntheticSpec(n=64, z=8, a=48, b=48, r_plus_target=24, seed=0))
        want = float(spectrum(inst).mu3[12:16].sum())
        loss = task_pca(spectrum(replace(inst, z=12)), "k3")[2]
        assert want > 0.5 and abs(loss - want) <= 1e-12 * want

    def test_reconstruction_residual_matches_loss(self):
        rng = np.random.default_rng(19)
        n = 5
        k = rng.normal(size=(2, n))
        f = rng.normal(size=(n, n))
        psi = f @ f.T + 0.5 * np.eye(n)
        enc, dec, loss = single_task_pca(k, psi, 2)
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

    @pytest.mark.parametrize("field, value", [
        ("psi", [["1", 0], [0, "1e0"]]),
        ("k4", [[0, True]]),
        ("psi", [[1.5, 0], [0, True]]),
        ("k3", [[1, None]]),
    ])
    def test_entries_read_as_numbers_rejected(self, field, value):
        # a JSON true inside a list of numbers becomes 1 in a numpy array
        import json
        doc = json.loads(instance_to_json(simple_instance(n=2, a=2, b=2, k3=[[1, 0]],
                                                          k4=[[0, 1]])))
        doc[field] = value
        with pytest.raises(BadDimensions, match=f"{field} must be an array of real numbers"):
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

    def test_empty_samples_csv_rejected_without_warnings(self, tmp_path):
        # numpy warns on an empty file and on the mean of no rows; neither
        # may escape, and the empty sample matrix is a domain error
        path = tmp_path / "empty.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = load_samples_csv(path)
            assert x.shape[0] == 0
            with pytest.raises(BadDimensions, match="sample matrix has no rows"):
                covariance_from_samples(x)
