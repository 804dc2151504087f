import json
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterfly_coding import (
    BadDimensions,
    ButterflyCode,
    DivergenceDetected,
    ProblemInstance,
    SyntheticSpec,
    ToleranceConfig,
    TrainConfig,
    TrainJob,
    construct_lb_code,
    exact_loss,
    export_trace_csv,
    flat_tail_profile,
    flow_spans,
    gen_synthetic,
    greedy_benchmark_code,
    init_code,
    instance_from_json,
    lower_bound,
    lower_bound_of,
    realize_spans,
    spectrum,
    train,
    train_lockstep,
    utilities,
    validate,
)
from butterfly_coding.code import _MATRIX_FIELDS as FIELDS, _encoder_maps
from butterfly_coding.train import _selection_e56

from conftest import (calm_instance, greedy_trap_instance, kernel_gradients, kernel_losses,
                      random_pd_instance, readme_config)
from test_model import simple_instance
from test_properties import block_diagonal


def tiny_instance():
    return simple_instance(n=2, a=2, b=2, z=1)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 2000
        assert cfg.learning_rate == 0.05
        assert cfg.batch_size == 64
        assert cfg.mode == "task_aware_coding"
        assert cfg.gradient == "exact_expectation"

    @pytest.mark.parametrize("kwargs", [
        dict(epochs=0),
        dict(learning_rate=0.0),
        dict(learning_rate=-1.0),
        dict(batch_size=0),
        dict(mode="nonsense"),
        dict(gradient="sampled"),
        dict(init_scale=0.0),
        dict(epochs=3.0),
        dict(epochs=True),
        dict(batch_size=8.0),
        dict(batch_size=True),
        dict(seed=1.5),
        dict(seed=False),
        dict(learning_rate=True),
        dict(learning_rate="0.05"),
        dict(learning_rate=0.05 + 0j),
        dict(init_scale=True),
        dict(init_scale="0.1"),
        dict(init_scale=1e308),
        dict(init_scale=float("inf")),
        dict(init_scale=2**1100),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), seed=np.int64(2))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (3, 8, 2)
        cfg = TrainConfig(learning_rate=np.float32(0.5), init_scale=1)
        assert (cfg.learning_rate, cfg.init_scale) == (0.5, 1)


class TestInitCode:
    def test_same_seed_identical(self):
        inst = random_pd_instance(np.random.default_rng(0))
        c1 = init_code(inst, 7)
        c2 = init_code(inst, 7)
        for name in ("e13", "e15", "e24", "e25", "e56", "d3", "d4"):
            assert np.array_equal(getattr(c1, name), getattr(c2, name))

    def test_different_seeds_differ(self):
        inst = random_pd_instance(np.random.default_rng(1))
        c1 = init_code(inst, 7)
        c2 = init_code(inst, 8)
        dist = sum(np.linalg.norm(getattr(c1, f) - getattr(c2, f))
                   for f in ("e13", "e15", "e24", "e25", "e56", "d3", "d4"))
        assert dist > 0

    def test_zero_scale_gives_zero_code(self):
        inst = random_pd_instance(np.random.default_rng(2))
        code = init_code(inst, 0, init_scale=0.0)
        spec = spectrum(inst)
        l3, l4, total = exact_loss(code, inst)
        want = np.trace(spec.s3) + np.trace(spec.s4)
        assert abs(total - want) <= 1e-9 * (1 + want)

    def test_negative_scale_rejected(self):
        inst = random_pd_instance(np.random.default_rng(3))
        with pytest.raises(ValueError):
            init_code(inst, 0, init_scale=-0.1)

    def test_scale_past_half_the_float_range_rejected(self):
        # the draw is uniform on [-s, s], whose range 2 s must be finite
        inst = random_pd_instance(np.random.default_rng(3))
        for scale in (1e308, np.inf, np.nan):
            with pytest.raises(ValueError, match="init_scale"):
                init_code(inst, 0, init_scale=scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = init_code(inst, 0, init_scale=sys.float_info.max / 2)
        assert all(np.all(np.isfinite(getattr(code, name))) for name in FIELDS)

    def test_entries_within_scale(self):
        inst = random_pd_instance(np.random.default_rng(4))
        code = init_code(inst, 5, init_scale=0.25)
        for name in ("e13", "e15", "e24", "e25", "e56", "d3", "d4"):
            assert np.abs(getattr(code, name)).max() <= 0.25

    def test_small_seeds_keep_their_streams(self):
        # the uint64 key leaves every seed that fitted the old list key
        # [seed, idx] on the same stream
        inst = random_pd_instance(np.random.default_rng(19), n_max=6)
        names = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")
        for seed in range(64):
            code = init_code(inst, seed)
            for idx, name in enumerate(names):
                rng = np.random.Generator(np.random.Philox(key=[seed, idx]))
                want = rng.uniform(-0.1, 0.1, getattr(code, name).shape)
                assert np.array_equal(getattr(code, name), want), (seed, name)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 + 3])
    def test_negative_and_huge_seeds_raise_no_warning(self, seed):
        inst = tiny_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            init_code(inst, seed)
            train(inst, TrainConfig(epochs=2, seed=seed, gradient="empirical_batch"))
        wrapped = init_code(inst, seed % 2**64)
        assert np.array_equal(init_code(inst, seed).d3, wrapped.d3)


class TestTrainBasics:
    def test_small_full_rank_converges(self):
        inst = tiny_instance()
        code, trace = train(inst, TrainConfig(seed=0))
        assert lower_bound_of(inst) == 0.0
        assert trace[-1, 2] <= 1e-4

    def test_trace_shape_and_final_row(self):
        inst = tiny_instance()
        cfg = TrainConfig(epochs=100, seed=1)
        code, trace = train(inst, cfg)
        assert trace.shape == (100, 3)
        assert np.allclose(trace[:, 2], trace[:, 0] + trace[:, 1])
        l3, l4, total = exact_loss(code, inst)
        assert abs(trace[-1, 2] - total) <= 1e-12 * (1 + total)

    def test_exact_mode_deterministic(self):
        inst = calm_instance(np.random.default_rng(5), n_max=5)
        cfg = TrainConfig(epochs=200, learning_rate=0.01, seed=3)
        _, t1 = train(inst, cfg)
        _, t2 = train(inst, cfg)
        assert np.array_equal(t1, t2)

    def test_exact_mode_monotone(self):
        inst = calm_instance(np.random.default_rng(6), n_max=5)
        cfg = TrainConfig(epochs=300, learning_rate=0.01, seed=4)
        _, trace = train(inst, cfg)
        drops = np.diff(trace[:, 2])
        assert np.all(drops <= 1e-9 * (1 + trace[:-1, 2]))

    def test_warm_start_continues(self):
        inst = calm_instance(np.random.default_rng(7), n_max=4)
        cfg = TrainConfig(epochs=50, learning_rate=0.01, seed=5)
        mid, t1 = train(inst, cfg)
        _, t2 = train(inst, cfg, init=mid)
        full_cfg = TrainConfig(epochs=100, learning_rate=0.01, seed=5)
        _, t_full = train(inst, full_cfg)
        assert np.allclose(t2, t_full[50:], atol=1e-12)

    def test_divergence_detected(self):
        inst = random_pd_instance(np.random.default_rng(8), n_max=5)
        with pytest.raises(DivergenceDetected):
            train(inst, TrainConfig(learning_rate=50.0, seed=0))

    def test_supplied_init_must_fit(self):
        from butterfly_coding import BadDimensions
        inst = tiny_instance()
        other = simple_instance(n=3, a=2, b=2, z=1)
        with pytest.raises(BadDimensions):
            train(inst, TrainConfig(epochs=1), init=init_code(other, 0))


class TestModes:
    @pytest.mark.parametrize("mode", ["task_aware_coding", "task_aware_no_coding",
                                      "task_agnostic_coding", "coding_benchmark"])
    def test_final_loss_respects_bound(self, mode):
        inst = calm_instance(np.random.default_rng(9), n_max=5)
        cfg = TrainConfig(epochs=300, learning_rate=0.01, seed=1, mode=mode)
        _, trace = train(inst, cfg)
        lb = lower_bound_of(inst)
        assert np.isfinite(trace[-1, 2])
        assert trace[-1, 2] >= lb - 1e-9 * (1 + lb)

    def test_no_coding_relay_frozen(self):
        inst = calm_instance(np.random.default_rng(10), n_max=5)
        cfg = TrainConfig(epochs=50, learning_rate=0.01, seed=2,
                          mode="task_aware_no_coding")
        code, _ = train(inst, cfg)
        assert np.array_equal(code.e56, _selection_e56(inst.z))

    def test_selection_matrix_shape(self):
        sel = _selection_e56(3)
        assert sel.shape == (3, 6)
        # 2 coordinates from the first input, 1 from the second
        assert sel[0, 0] == 1.0 and sel[1, 1] == 1.0 and sel[2, 3] == 1.0
        assert sel.sum() == 3.0

    def test_coding_contains_no_coding(self):
        # coding warm-started at the no-coding optimum can only improve
        inst = calm_instance(np.random.default_rng(11), n_max=5)
        nc_cfg = TrainConfig(epochs=500, learning_rate=0.02, seed=3,
                             mode="task_aware_no_coding")
        nc_code, nc_trace = train(inst, nc_cfg)
        cfg = TrainConfig(epochs=500, learning_rate=0.02, seed=3)
        _, trace = train(inst, cfg, init=nc_code)
        assert trace[-1, 2] <= nc_trace[-1, 2] + 1e-9

    def test_agnostic_trace_reports_true_task_loss(self):
        inst = calm_instance(np.random.default_rng(12), n_max=4)
        cfg = TrainConfig(epochs=50, learning_rate=0.01, seed=4,
                          mode="task_agnostic_coding")
        code, trace = train(inst, cfg)
        l3, l4, total = exact_loss(code, inst)
        assert abs(trace[-1, 0] - l3) <= 1e-9 * (1 + l3)
        assert abs(trace[-1, 2] - total) <= 1e-9 * (1 + total)

    def test_benchmark_mode_keeps_greedy_encoders(self):
        inst = calm_instance(np.random.default_rng(13), n_max=5)
        bench = greedy_benchmark_code(spectrum(inst))
        cfg = TrainConfig(epochs=50, learning_rate=0.01, seed=5,
                          mode="coding_benchmark")
        code, _ = train(inst, cfg)
        for name in ("e13", "e15", "e24", "e25", "e56"):
            assert np.array_equal(getattr(code, name), getattr(bench, name))


class TestEmpiricalBatch:
    def test_deterministic(self):
        inst = calm_instance(np.random.default_rng(14), n_max=4)
        cfg = TrainConfig(epochs=100, learning_rate=0.01, seed=6,
                          gradient="empirical_batch")
        _, t1 = train(inst, cfg)
        _, t2 = train(inst, cfg)
        assert np.array_equal(t1, t2)

    def test_differs_from_exact_but_converges(self):
        inst = tiny_instance()
        noisy_cfg = TrainConfig(seed=7, gradient="empirical_batch")
        exact_cfg = TrainConfig(seed=7)
        _, noisy = train(inst, noisy_cfg)
        _, exact = train(inst, exact_cfg)
        assert not np.array_equal(noisy, exact)
        assert noisy[-1, 2] <= 1e-2

    def test_trace_reports_exact_losses(self):
        # even with sampled gradients the recorded losses use the true
        # covariance, so the final row matches exact_loss
        inst = calm_instance(np.random.default_rng(15), n_max=4)
        cfg = TrainConfig(epochs=60, learning_rate=0.01, seed=8,
                          gradient="empirical_batch")
        code, trace = train(inst, cfg)
        total = exact_loss(code, inst)[2]
        assert abs(trace[-1, 2] - total) <= 1e-12 * (1 + total)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        n, a, b, z = 6, 4, 4, 2
        f = rng.normal(size=(n, n))
        inst = validate(ProblemInstance(
            n=n, psi=f @ f.T + 0.5 * np.eye(n), a=a, b=b, z=z,
            k3=rng.normal(size=(3, n)), k4=rng.normal(size=(2, n))))
        code = init_code(inst, 9, init_scale=0.3)
        names = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")
        mats = {k: np.array(getattr(code, k), dtype=float) for k in names}
        grads = kernel_gradients(mats, inst.k3, inst.k4, inst.psi, n, a, b, z)
        h = 1e-5

        def total_loss(m):
            l3, l4 = kernel_losses(m, inst.k3, inst.k4, inst.psi, n, a, b, z)
            return l3 + l4

        for name in names:
            g = grads[name]
            fd = np.zeros_like(g)
            for i in range(g.shape[0]):
                for j in range(g.shape[1]):
                    up = {k: v.copy() for k, v in mats.items()}
                    dn = {k: v.copy() for k, v in mats.items()}
                    up[name][i, j] += h
                    dn[name][i, j] -= h
                    fd[i, j] = (total_loss(up) - total_loss(dn)) / (2 * h)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(g - fd).max() <= 1e-5 * scale, name


    def test_kernel_matches_dense_formulas(self):
        # the kernel works on thin task factors; the reference forms the
        # dense residual R = I - D A and the Gram K^T K
        rng = np.random.default_rng(29)
        names = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")
        for trial in range(25):
            inst = random_pd_instance(rng, n_max=8)
            n, a, b, z = inst.n, inst.a, inst.b, inst.z
            code = init_code(inst, trial, init_scale=0.5)
            mats = {k: np.array(getattr(code, k), dtype=float) for k in names}
            maps = _encoder_maps(code, inst)
            into5, (a3, a4) = maps["into5"][0], maps["amap"][:, 0]
            want_losses, link, want = [], [], {}
            for k, d, amap, dname in ((inst.k3, code.d3, a3, "d3"),
                                      (inst.k4, code.d4, a4, "d4")):
                r = np.eye(n) - d @ amap
                want_losses.append(np.trace(k @ r @ inst.psi @ r.T @ k.T))
                grad_r = 2.0 * k.T @ k @ r @ inst.psi
                want[dname] = -grad_r @ amap.T
                link.append(-d.T @ grad_r)
            relay = link[0][z:] + link[1][z:]
            grad_into5 = code.e56.T @ relay
            want.update(e13=link[0][:z, :a], e24=link[1][:z, n - b:],
                        e56=relay @ into5.T, e15=grad_into5[:z, :a],
                        e25=grad_into5[z:, n - b:])
            got_losses = kernel_losses(mats, inst.k3, inst.k4, inst.psi, n, a, b, z)
            for got, ref in zip(got_losses, want_losses):
                assert abs(got - ref) <= 1e-12 * abs(ref), trial
            grads = kernel_gradients(mats, inst.k3, inst.k4, inst.psi, n, a, b, z)
            scale = max(np.abs(ref).max() for ref in want.values())
            for name in names:
                assert np.abs(grads[name] - want[name]).max() <= 1e-12 * scale, (trial, name)

    def test_agnostic_descends_on_identity_gram(self):
        inst = random_pd_instance(np.random.default_rng(17), n_max=6)
        n, a, b, z = inst.n, inst.a, inst.b, inst.z
        init = init_code(inst, 4, init_scale=0.3)
        lr = 0.01
        code, _ = train(inst, TrainConfig(epochs=1, learning_rate=lr,
                                          mode="task_agnostic_coding"), init=init)
        names = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")
        mats = {k: np.array(getattr(init, k), dtype=float) for k in names}
        grads = kernel_gradients(mats, np.eye(n), np.eye(n), inst.psi, n, a, b, z)
        for name in names:
            want = mats[name] - lr * grads[name]
            assert np.abs(getattr(code, name) - want).max() <= 1e-15, name


def same_dims_instances(rng, count, n=5, a=4, b=3, z=2, rows=None):
    """Random instances sharing (n, a, b, z) but not psi or the number of
    task rows, so one lockstep batch can hold them all. `rows` fixes each
    instance's (m3, m4); by default they are drawn from 1 to n + 1."""
    out = []
    for i in range(count):
        f = rng.normal(size=(n, n))
        k3 = rng.normal(size=(rows[i][0] if rows else int(rng.integers(1, n + 2)), n))
        k4 = rng.normal(size=(rows[i][1] if rows else int(rng.integers(1, n + 2)), n))
        scale = np.sqrt(np.trace(k3 @ k3.T) + np.trace(k4 @ k4.T))
        out.append(validate(ProblemInstance(
            n=n, psi=f @ f.T / n + 0.5 * np.eye(n), a=a, b=b, z=z,
            k3=k3 / scale, k4=k4 / scale)))
    return out


MODES = ("task_aware_coding", "task_aware_no_coding",
         "task_agnostic_coding", "coding_benchmark")


def assert_same_run(got, want):
    code, trace = got
    want_code, want_trace = want
    assert np.array_equal(trace, want_trace)
    for name in ("e13", "e15", "e24", "e25", "e56", "d3", "d4"):
        assert np.array_equal(getattr(code, name), getattr(want_code, name)), name


class TestLockstep:
    def test_jobs_index_finds_each_job(self):
        # two separately built, equal jobs and codes compare without raising
        jobs = [TrainJob(tiny_instance(), TrainConfig()) for _ in range(2)]
        assert [jobs.index(job) for job in jobs] == [0, 1]
        assert (init_code(tiny_instance(), 0) == init_code(tiny_instance(), 0)) is False

    @pytest.mark.parametrize("gradient", ["exact_expectation", "empirical_batch"])
    def test_member_equals_training_alone(self, gradient):
        insts = same_dims_instances(np.random.default_rng(20), 3)
        jobs = [TrainJob(inst, TrainConfig(epochs=40, learning_rate=0.02 + 0.01 * s,
                                           seed=s, mode=mode, gradient=gradient,
                                           batch_size=16))
                for s, inst in enumerate(insts) for mode in MODES]
        results = train_lockstep(jobs)
        assert len(results) == len(jobs)
        for job, got in zip(jobs, results):
            assert_same_run(got, train(job.instance, job.config))

    @pytest.mark.parametrize("gradient", ["exact_expectation", "empirical_batch"])
    def test_unequal_task_rows_match_alone(self, gradient):
        # members of several factor heights, m3 != m4 and more task rows
        # than n among them, and of both descent kinds share one call
        insts = same_dims_instances(np.random.default_rng(27), 4,
                                    rows=[(1, 7), (6, 2), (3, 3), (2, 1)])
        jobs = [TrainJob(inst, TrainConfig(epochs=40, learning_rate=0.02, seed=s,
                                           mode=mode, gradient=gradient,
                                           batch_size=16))
                for s, inst in enumerate(insts) for mode in MODES]
        for job, got in zip(jobs, train_lockstep(jobs)):
            assert_same_run(got, train(job.instance, job.config))

    def test_identity_covariances_match_alone(self):
        m = 4
        insts = [gen_synthetic(SyntheticSpec(
            n=8, z=2, a=6, b=6, r_plus_target=r, seed=s,
            eig_profile=flat_tail_profile(m, 2 * m - r))) for r, s in ((4, 0), (6, 1))]
        jobs = [TrainJob(inst, TrainConfig(epochs=30, seed=3, mode=mode))
                for inst in insts for mode in MODES]
        for job, got in zip(jobs, train_lockstep(jobs)):
            assert_same_run(got, train(job.instance, job.config))
        # next to a general covariance the identity ones take the matmul by
        # psi that a batch of identities skips; R @ I == R keeps them exact
        other, = same_dims_instances(np.random.default_rng(25), 1, n=8, a=6, b=6)
        mixed = jobs + [TrainJob(other, TrainConfig(epochs=30, seed=3))]
        for job, got in zip(mixed, train_lockstep(mixed)):
            assert_same_run(got, train(job.instance, job.config))

    @pytest.mark.parametrize("gradient", ["exact_expectation", "empirical_batch"])
    def test_diverging_member_fails_alone(self, gradient):
        insts = same_dims_instances(np.random.default_rng(21), 2)
        calm = TrainConfig(epochs=60, learning_rate=0.02, seed=1, gradient=gradient)
        wild = TrainConfig(epochs=60, learning_rate=50.0, seed=1, gradient=gradient)
        jobs = [TrainJob(insts[0], calm), TrainJob(insts[1], wild),
                TrainJob(insts[1], calm)]
        results = train_lockstep(jobs)
        with pytest.raises(DivergenceDetected) as alone:
            train(insts[1], wild)
        assert isinstance(results[1], DivergenceDetected)
        assert str(results[1]) == str(alone.value)
        assert_same_run(results[0], train(insts[0], calm))
        assert_same_run(results[2], train(insts[1], calm))

    @pytest.mark.parametrize("gradient", ["exact_expectation", "empirical_batch"])
    def test_diverging_member_beside_other_groups(self, gradient):
        # a task_agnostic_coding member that diverges shares every pass with
        # task-aware members whose task factors have other heights
        insts = same_dims_instances(np.random.default_rng(28), 3,
                                    rows=[(4, 2), (1, 1), (3, 1)])
        wild = TrainJob(insts[0], TrainConfig(epochs=60, learning_rate=80.0, seed=1,
                                              mode="task_agnostic_coding",
                                              gradient=gradient, batch_size=16))
        jobs = [wild] + [TrainJob(inst, TrainConfig(epochs=60, learning_rate=0.02, seed=s,
                                                    mode=mode, gradient=gradient,
                                                    batch_size=16))
                         for s, inst in enumerate(insts) for mode in MODES
                         if (s, mode) != (0, "task_agnostic_coding")]
        results = train_lockstep(jobs)
        with pytest.raises(DivergenceDetected) as alone:
            train(wild.instance, wild.config)
        assert isinstance(results[0], DivergenceDetected)
        assert str(results[0]) == str(alone.value)
        for job, got in zip(jobs[1:], results[1:]):
            assert_same_run(got, train(job.instance, job.config))

    @pytest.mark.parametrize("gradient", ["exact_expectation", "empirical_batch"])
    def test_overflowing_members_fail_cleanly(self, gradient):
        # a first step this large overflows every product of the next pass;
        # with warnings as errors each member must still fail with the
        # error it gets alone, and a calm member beside them must not notice
        insts = same_dims_instances(np.random.default_rng(31), 2)
        wild = [TrainJob(insts[0], TrainConfig(epochs=20, learning_rate=lr, seed=1,
                                               mode=mode, gradient=gradient,
                                               batch_size=16))
                for lr in (1e150, 1e200) for mode in MODES]
        calm = TrainJob(insts[1], TrainConfig(epochs=20, learning_rate=0.02, seed=2,
                                              gradient=gradient, batch_size=16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = train_lockstep(wild + [calm])
            for job, got in zip(wild, results):
                with pytest.raises(DivergenceDetected) as alone:
                    train(job.instance, job.config)
                assert isinstance(got, DivergenceDetected)
                assert str(got) == str(alone.value)
            assert_same_run(results[-1], train(calm.instance, calm.config))

    def test_one_epoch_loop_for_all_groups(self, monkeypatch):
        # four modes on two factor heights: four groups, and one residual
        # pass per epoch for all of them, also in the epochs where members
        # diverge (eight members diverge, two of them in the same epoch)
        kernel = sys.modules["butterfly_coding.train"]
        passes = []
        evaluate = kernel._evaluate
        monkeypatch.setattr(kernel, "_evaluate",
                            lambda *args, **kwargs: passes.append(1) or evaluate(*args, **kwargs))
        insts = same_dims_instances(np.random.default_rng(30), 2, rows=[(2, 2), (4, 1)])
        epochs = 25
        jobs = [TrainJob(inst, TrainConfig(epochs=epochs, learning_rate=lr, seed=s, mode=mode))
                for s, inst in enumerate(insts) for mode in MODES for lr in (0.02, 1.5)]
        results = train_lockstep(jobs)
        diverged = [str(r).split(" at epoch ")[1] for r in results
                    if isinstance(r, DivergenceDetected)]
        assert len(diverged) == len(jobs) // 2 > len(set(diverged)) > 1
        assert len(passes) == epochs + 1

    def test_every_member_diverging(self):
        insts = same_dims_instances(np.random.default_rng(26), 3)
        jobs = [TrainJob(inst, TrainConfig(epochs=60, learning_rate=lr, seed=s,
                                           mode=mode))
                for s, (inst, lr, mode) in enumerate(zip(
                    insts, (50.0, 80.0, 200.0),
                    ("task_aware_coding", "task_agnostic_coding",
                     "task_aware_no_coding")))]
        results = train_lockstep(jobs)
        assert len({id(r) for r in results}) == len(jobs)
        for job, got in zip(jobs, results):
            with pytest.raises(DivergenceDetected) as alone:
                train(job.instance, job.config)
            assert isinstance(got, DivergenceDetected)
            assert str(got) == str(alone.value)

    def test_bad_start_fails_only_that_member(self):
        insts = same_dims_instances(np.random.default_rng(22), 2)
        cfg = TrainConfig(epochs=20, learning_rate=0.02)
        wrong = init_code(simple_instance(n=3, a=2, b=2, z=1), 0)
        results = train_lockstep([TrainJob(insts[0], cfg, wrong), TrainJob(insts[1], cfg)])
        assert isinstance(results[0], BadDimensions)
        assert_same_run(results[1], train(insts[1], cfg))

    def test_mixed_shapes_and_schedules_match_alone(self):
        # two instance shapes, two epoch counts and both gradients,
        # interleaved, in one call: each member comes back in its place,
        # the same as trained alone
        small = same_dims_instances(np.random.default_rng(23), 2)
        big = same_dims_instances(np.random.default_rng(24), 2, n=6, a=4, b=4)
        runs = [(small[0], 5), (big[0], 5), (small[1], 6), (big[1], 6)]
        jobs = [TrainJob(inst, TrainConfig(epochs=epochs, learning_rate=0.02, seed=s,
                                           mode=mode, gradient=gradient, batch_size=16))
                for mode in MODES for gradient in ("exact_expectation", "empirical_batch")
                for s, (inst, epochs) in enumerate(runs)]
        results = train_lockstep(jobs)
        assert len(results) == len(jobs)
        for job, got in zip(jobs, results):
            assert got[1].shape == (job.config.epochs, 3)
            assert_same_run(got, train(job.instance, job.config))

    def test_batches_shrink_as_n_grows(self, monkeypatch):
        # the cap counts one n x n float64 matrix per member; each shape is
        # its own group, cut in first-seen order
        kernel = sys.modules["butterfly_coding.train"]
        sizes = []
        monkeypatch.setattr(kernel, "_descend", lambda bt, *args: sizes.append(len(bt.ids)))
        jobs = [TrainJob(simple_instance(n=n, a=n, b=n, z=1), TrainConfig(epochs=1))
                for n, count in ((32, 30), (64, 7), (128, 3)) for _ in range(count)]
        train_lockstep(jobs)
        assert sizes == [24, 6, 6, 1, 1, 1, 1]

    def test_empty_batch(self):
        assert train_lockstep([]) == []


def shared_psi_instances(rng, count, psi, n=5, a=4, b=3, z=2):
    """Random instances of one shape and one psi whose tasks differ, with
    (m3, m4) = (2, 3) task rows, so their task factors have one height."""
    out = []
    for _ in range(count):
        k3, k4 = rng.normal(size=(2, n)), rng.normal(size=(3, n))
        scale = np.sqrt(np.sum(k3 ** 2) + np.sum(k4 ** 2))
        out.append(validate(ProblemInstance(n=n, psi=psi, a=a, b=b, z=z,
                                            k3=k3 / scale, k4=k4 / scale)))
    return out


def random_spd(rng, n=5):
    f = rng.normal(size=(n, n))
    return f @ f.T / n + 0.5 * np.eye(n)


@pytest.fixture
def descents(monkeypatch):
    """Per batch trained, the job indices that read each descent row."""
    kernel = sys.modules["butterfly_coding.train"]
    seen = []
    descend = kernel._descend

    def spy(bt, *args):
        seen.append(sorted(bt.ids[bt.owner == row].tolist() for row in range(len(bt.rows))))
        return descend(bt, *args)

    monkeypatch.setattr(kernel, "_descend", spy)
    return seen


@pytest.fixture
def starts(monkeypatch):
    """The job of each `_start` call, in call order."""
    kernel = sys.modules["butterfly_coding.train"]
    seen = []
    start = kernel._start
    monkeypatch.setattr(kernel, "_start", lambda job, tol: seen.append(job) or start(job, tol))
    return seen


AGNOSTIC = "task_agnostic_coding"


class TestSharedDescents:
    @pytest.mark.parametrize("gradient", ["exact_expectation", "empirical_batch"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_merged_descents_equal_training_alone(self, descents, gradient, weighted):
        # three agnostic jobs on different tasks share one descent; the
        # task-aware jobs between them have the same seed, rate and psi and
        # still descend alone, as they read their tasks
        rng = np.random.default_rng(40)
        psi = random_spd(rng) if weighted else np.eye(5)
        insts = shared_psi_instances(rng, 3, psi)
        jobs = [TrainJob(inst, TrainConfig(epochs=40, learning_rate=0.02, seed=2, mode=mode,
                                           gradient=gradient, batch_size=16))
                for inst in insts for mode in MODES]
        results = train_lockstep(jobs)
        agnostic = [i for i, job in enumerate(jobs) if job.config.mode == AGNOSTIC]
        assert descents == [sorted([agnostic] + [[i] for i in range(len(jobs))
                                                 if i not in agnostic])]
        for job, got in zip(jobs, results):
            assert_same_run(got, train(job.instance, job.config))

    @pytest.mark.parametrize("change, gradient, merged", [
        ("seed", "exact_expectation", False),
        ("init_scale", "exact_expectation", False),
        ("learning_rate", "exact_expectation", False),
        ("psi", "exact_expectation", False),
        ("init", "exact_expectation", False),
        ("task_rows", "exact_expectation", False),
        ("seed_beside_init", "empirical_batch", False),
        ("seed_beside_init", "exact_expectation", True),
        ("init_copy", "empirical_batch", True),
    ])
    def test_what_merges(self, descents, change, gradient, merged):
        # two agnostic jobs on different tasks that differ in one descent
        # input get a descent each; an explicit init counts by its bytes,
        # and the seed, beside one, only by the empirical gradient's samples
        rng = np.random.default_rng(41)
        first, second = shared_psi_instances(rng, 2, random_spd(rng))
        config = TrainConfig(epochs=30, learning_rate=0.02, seed=2, mode=AGNOSTIC,
                             gradient=gradient, batch_size=16)
        init = init_code(first, 5) if change in ("init", "seed_beside_init", "init_copy") else None
        other_config, other_init = config, init
        if change in ("seed", "seed_beside_init"):
            other_config = replace(config, seed=3)
        elif change in ("init_scale", "learning_rate"):
            other_config = replace(config, **{change: 2 * getattr(config, change)})
        elif change == "psi":
            second = replace(second, psi=2.0 * second.psi)
        elif change == "init":
            other_init = init_code(first, 6)
        elif change == "task_rows":
            second = replace(second, k4=np.vstack([second.k4, second.k3]))
        elif change == "init_copy":
            other_init = ButterflyCode(**{name: getattr(init, name).copy()
                                          for name in FIELDS})
        jobs = [TrainJob(first, config, init), TrainJob(second, other_config, other_init)]
        results = train_lockstep(jobs)
        assert descents == [[[0, 1]] if merged else [[0], [1]]]
        for job, got in zip(jobs, results):
            assert_same_run(got, train(job.instance, job.config, job.init))

    def test_views_diverge_alone(self, descents):
        # the start code reconstructs psi's least-variance direction v0; the
        # identity-task descent gives v0 up for directions of larger
        # variance, so a task's loss rises from its start the more the task
        # leans on v0: two views cross 10x their initial loss at different
        # epochs while the third descends to the end. Beside it, a descent
        # at a larger rate loses every view and steps on unread
        rng = np.random.default_rng(5)
        psi = random_spd(rng)
        v = np.linalg.eigh(psi)[1]

        def along(k):
            return validate(ProblemInstance(n=5, psi=psi, a=4, b=3, z=2,
                                            k3=k[None], k4=k[None]))

        start, _ = train(along(v[:, 0]), TrainConfig(epochs=800, learning_rate=0.05, seed=1))
        insts = [along(v[:, 0] + mix * v[:, 4]) for mix in (0.01, 0.03, 1.0)]
        jobs = [TrainJob(inst, TrainConfig(epochs=60, learning_rate=lr, seed=1, mode=AGNOSTIC),
                         start)
                for lr in (0.02, 0.5) for inst in insts]
        results = train_lockstep(jobs)
        assert descents[-1] == [[0, 1, 2], [3, 4, 5]]
        for job, got in zip(jobs, results):
            if job is jobs[2]:
                assert_same_run(got, train(job.instance, job.config, start))
                continue
            with pytest.raises(DivergenceDetected) as alone:
                train(job.instance, job.config, start)
            assert isinstance(got, DivergenceDetected)
            assert str(got) == str(alone.value)
        assert len({str(r).split(" at epoch ")[1] for r in results[:2]}) == 2

    def test_unreadable_task_fails_alone(self):
        # a ragged task matrix keys no descent; the job fails at its start
        # while an agnostic job of the same seed beside it trains
        good = simple_instance()
        bad = replace(good, k3=[[1.0, 2.0, 3.0], [1.0, 2.0]])
        config = TrainConfig(epochs=3, mode=AGNOSTIC)
        results = train_lockstep([TrainJob(bad, config), TrainJob(good, config)])
        assert isinstance(results[0], ValueError)
        assert_same_run(results[1], train(good, config))

    @pytest.mark.parametrize("gradient", ["exact_expectation", "empirical_batch"])
    def test_one_start_per_descent(self, starts, descents, gradient):
        # three agnostic jobs of one seed share one start, read on the
        # descent's first job; each task-aware job beside them starts alone.
        # _start gets each job with its instance validated, so a start is
        # told by its config, an object of its own per job
        rng = np.random.default_rng(42)
        insts = shared_psi_instances(rng, 3, random_spd(rng))
        jobs = [TrainJob(inst, TrainConfig(epochs=20, learning_rate=0.02, seed=2, mode=mode,
                                           gradient=gradient, batch_size=16))
                for inst in insts for mode in ("task_aware_coding", AGNOSTIC)]
        results = train_lockstep(jobs)
        rows, = descents
        assert sorted(views[0] for views in rows) == [0, 1, 2, 4]
        assert len(starts) == len(rows)
        assert [id(job.config) for job in starts] == [id(jobs[i].config) for i in (0, 1, 2, 4)]
        for job, got in zip(jobs, results):
            assert_same_run(got, train(job.instance, job.config))

    def test_wrong_init_fails_at_the_gate(self, starts, descents):
        # two agnostic jobs that share an init of the wrong shape would key
        # one descent, and an init of the same bytes in other shapes keys a
        # descent of its own; the gate fails all three jobs, each with its
        # own error, before keying, so none of them reaches _start, and the
        # one descent left starts once, for both of its views
        rng = np.random.default_rng(43)
        first, second = shared_psi_instances(rng, 2, np.eye(5))
        wrong = init_code(simple_instance(n=3, a=2, b=2, z=1), 0)
        good = init_code(first, 5)
        turned = replace(good, e13=good.e13.reshape(good.e13.shape[::-1]))
        config = TrainConfig(epochs=20, learning_rate=0.02, mode=AGNOSTIC)
        jobs = [TrainJob(first, config, wrong), TrainJob(second, config, wrong),
                TrainJob(first, config, good), TrainJob(second, config, good),
                TrainJob(second, config, turned)]
        key = sys.modules["butterfly_coding.train"]._descent_key
        keys = [key(i, job) for i, job in enumerate(jobs)]
        assert keys[0] == keys[1] and keys[2] == keys[3] != keys[4]
        results = train_lockstep(jobs)
        assert descents == [[[2, 3]]]
        assert [[getattr(job.init, name).tobytes() for name in FIELDS] for job in starts] == [
            [getattr(good, name).tobytes() for name in FIELDS]]
        assert results[0] is not results[1]
        for i in (0, 1, 4):
            with pytest.raises(BadDimensions) as alone:
                train(jobs[i].instance, config, jobs[i].init)
            assert isinstance(results[i], BadDimensions)
            assert str(results[i]) == str(alone.value)
        for i in (2, 3):
            assert_same_run(results[i], train(jobs[i].instance, config, good))

    def test_cap_counts_descents(self, descents):
        # thirty agnostic jobs of one seed are one descent, so the first
        # batch holds 24 descents and 53 views
        jobs = [TrainJob(simple_instance(n=32, a=32, b=32, z=1), TrainConfig(epochs=1, mode=mode))
                for _ in range(30) for mode in ("task_aware_coding", AGNOSTIC)]
        train_lockstep(jobs)
        assert [(len(batch), sum(map(len, batch))) for batch in descents] == [(24, 53), (7, 7)]


def invalid_instance(kind):
    """simple_instance (n=3, a=b=2, z=1) broken in one way that validate
    rejects."""
    return replace(simple_instance(), **{
        "nan_task": {"k3": np.array([[np.nan, 0.0, 0.0]])},
        "negative_psi": {"psi": -np.eye(3)},
        "small_psi": {"psi": np.eye(2)},
        "a_plus_b_below_n": {"a": 1, "b": 1},
        "zero_z": {"z": 0},
        "huge_task": {"k3": np.array([[1e200, 0.0, 0.0]])},
        "ragged_task": {"k3": [[1.0, 2.0, 3.0], [1.0, 2.0]]},
    }[kind])


class TestInputGate:
    """train_lockstep validates each job before it keys or starts it."""

    @pytest.mark.parametrize("kind", ["nan_task", "negative_psi", "small_psi",
                                      "a_plus_b_below_n", "zero_z", "huge_task",
                                      "ragged_task"])
    def test_invalid_instance_fails_as_validate_does(self, kind):
        # a 2x2 psi for n=3, a + b < n and z = 0 used to train "ok", and a
        # NaN task, psi = -I or a 1e200 task to diverge; in every mode the
        # job now fails with validate's error while a valid job trains on
        bad = invalid_instance(kind)
        with pytest.raises(ValueError) as want:
            validate(bad)
        calm = TrainJob(simple_instance(), TrainConfig(epochs=20, learning_rate=0.02))
        jobs = [TrainJob(bad, TrainConfig(epochs=20, learning_rate=0.02, mode=mode))
                for mode in MODES] + [calm]
        results = train_lockstep(jobs)
        for got in results[:-1]:
            assert type(got) is type(want.value)
            assert str(got) == str(want.value)
        assert_same_run(results[-1], train(calm.instance, calm.config))

    def test_list_valued_instance_trains_as_its_arrays(self):
        inst, = same_dims_instances(np.random.default_rng(44), 1)
        listed = replace(inst, psi=inst.psi.tolist(), k3=inst.k3.tolist(),
                         k4=inst.k4.tolist())
        configs = [TrainConfig(epochs=20, learning_rate=0.02, mode=mode) for mode in MODES]
        results = train_lockstep([TrainJob(listed, config) for config in configs])
        for config, got in zip(configs, results):
            assert_same_run(got, train(inst, config))

    def test_spectrum_of_another_instance_rejected(self):
        first, second = same_dims_instances(np.random.default_rng(45), 2)
        config = TrainConfig(epochs=20, learning_rate=0.02, mode="coding_benchmark")
        results = train_lockstep([TrainJob(first, config, spectrum=spectrum(second)),
                                  TrainJob(first, config, spectrum=spectrum(first))])
        assert isinstance(results[0], ValueError)
        assert "another instance" in str(results[0])
        assert_same_run(results[1], train(first, config))

    def test_list_valued_init_trains_as_its_arrays(self):
        # the gate converts a list-valued init, which once raised
        # AttributeError out of it and lost every other job of the call
        inst, = same_dims_instances(np.random.default_rng(46), 1)
        init = init_code(inst, 3)
        listed = ButterflyCode(**{name: getattr(init, name).tolist() for name in FIELDS})
        configs = [TrainConfig(epochs=20, learning_rate=0.02, mode=mode) for mode in MODES]
        plain = TrainJob(inst, replace(configs[0], seed=1))
        results = train_lockstep([TrainJob(inst, config, listed) for config in configs] + [plain])
        for config, got in zip(configs, results):
            assert_same_run(got, train(inst, config, init))
        assert_same_run(results[-1], train(inst, plain.config))

    def test_init_with_a_string_entry_fails_alone(self):
        inst, = same_dims_instances(np.random.default_rng(47), 1)
        init = init_code(inst, 3)
        e13 = init.e13.tolist()
        e13[0][0] = "0.5"
        config = TrainConfig(epochs=20, learning_rate=0.02)
        results = train_lockstep([TrainJob(inst, config, replace(init, e13=e13)),
                                  TrainJob(inst, config, init)])
        assert isinstance(results[0], BadDimensions)
        assert str(results[0]) == "e13 must be an array of real numbers, got the entry '0.5'"
        assert_same_run(results[1], train(inst, config, init))


class TestKernelLoss:
    """The loss pass reads each view's loss as one dot product of its thin
    residual P with P psi; the trace must equal exact_loss of the code."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), identity=st.booleans())
    def test_trace_row_is_exact_loss(self, seed, identity):
        rng = np.random.default_rng(seed)
        inst = random_pd_instance(rng, n_max=8)
        if identity:
            inst = validate(replace(inst, psi=np.eye(inst.n)))
        config = TrainConfig(epochs=1, learning_rate=1e-4, seed=seed % 1000)
        jobs = [TrainJob(inst, replace(config, mode=mode)) for mode in MODES]
        # three more task_agnostic_coding views of the same descent, each
        # with its own tasks of the same heights
        for _ in range(3):
            jobs.append(TrainJob(validate(replace(
                inst, k3=rng.normal(size=inst.k3.shape), k4=rng.normal(size=inst.k4.shape))),
                replace(config, mode=AGNOSTIC)))
        kernel = sys.modules["butterfly_coding.train"]
        merged = {kernel._descent_key(i, job) for i, job in enumerate(jobs)
                  if job.config.mode == AGNOSTIC}
        assert len(merged) == 1
        results = train_lockstep(jobs)
        checked = 0
        for job, got in zip(jobs, results):
            if isinstance(got, Exception):
                # the greedy benchmark start is infeasible on some draws
                assert job.config.mode == "coding_benchmark", got
                continue
            code, trace = got
            want = exact_loss(code, job.instance)
            for kernel_loss, exact in zip(trace[0], want):
                assert abs(kernel_loss - exact) <= 1e-12 * abs(exact), (job.config.mode, trace[0], want)
            checked += 1
        assert checked >= len(jobs) - 1

    @pytest.mark.parametrize("source", [16, 20, 24, "analyze.json"])
    def test_lower_bound_code_reads_near_zero(self, source):
        # at psi = I each loss is a sum of squares: never negative, and at a
        # code on a zero bound only rounding is left
        if source == "analyze.json":
            inst = instance_from_json(json.dumps(readme_config(source)["instance"]))
        else:
            inst = gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=source,
                                               eig_profile="flat_tail", seed=1))
        assert lower_bound_of(inst) == 0.0
        code = construct_lb_code(spectrum(inst))
        mats = {name: np.asarray(getattr(code, name), dtype=float) for name in FIELDS}
        for loss in kernel_losses(mats, inst.k3, inst.k4, inst.psi,
                                  inst.n, inst.a, inst.b, inst.z):
            assert 0.0 <= loss < 1e-20


class TestDivergenceEdges:
    """Each view is flagged when its total is not finite or exceeds ten
    times its initial loss; equality is not divergence."""

    # per job: the (L3, L4) of pass 0 (its initial loss) and of passes 1, 2
    SCRIPT = [
        ((1.0, 0.0), (np.nan, 0.0), (1.0, 0.0)),
        ((1.0, 0.0), (np.inf, 0.0), (1.0, 0.0)),
        ((1.0, 0.0), (np.nextafter(10.0, np.inf), 0.0), (1.0, 0.0)),
        ((1.0, 0.0), (10.0, 0.0), (5.0, 5.0)),
        ((np.inf, 0.0), (1e300, 0.0), (1e307, 1e307)),
        ((np.inf, 0.0), (np.inf, 0.0), (1.0, 0.0)),
        ((0.5, 0.5), (2.0, 3.0), (np.nan, 1.0)),
    ]
    FLAGGED = {0: 0, 1: 0, 2: 0, 5: 0, 6: 1}     # job -> epoch of its error

    def test_flagged_views(self, monkeypatch):
        kernel = sys.modules["butterfly_coding.train"]
        passes = []

        def scripted(bt, directions=False):
            t = len(passes)
            passes.append(t)
            for j, i in enumerate(bt.ids):
                bt.losses[:, j] = self.SCRIPT[i][t]
            return bt.losses

        monkeypatch.setattr(kernel, "_evaluate", scripted)
        insts = same_dims_instances(np.random.default_rng(40), len(self.SCRIPT))
        results = train_lockstep([TrainJob(inst, TrainConfig(epochs=2, seed=s))
                                  for s, inst in enumerate(insts)])
        assert passes == [0, 1, 2]
        for i, got in enumerate(results):
            if i in self.FLAGGED:
                assert isinstance(got, DivergenceDetected), i
                assert str(got).endswith(f"at epoch {self.FLAGGED[i]}; reduce learning_rate"), got
            else:
                _, trace = got
                want = np.array([[*row, row[0] + row[1]] for row in self.SCRIPT[i][1:]])
                assert np.array_equal(trace, want), i


class TestTraceExport:
    def test_round_trip(self, tmp_path):
        inst = tiny_instance()
        _, trace = train(inst, TrainConfig(epochs=20, seed=0))
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,L3,L4,L_total"
        assert len(lines) == 21
        back = np.array([[float(v) for v in row.split(",")[1:]]
                         for row in lines[1:]])
        assert np.array_equal(back, trace)

    def test_trace_of_wrong_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            export_trace_csv(np.zeros((4, 2)), tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            export_trace_csv(np.zeros((2, 3)), tmp_path / "no_dir" / "x.csv")


class TestGreedyBenchmark:
    def test_relay_captures_top_eigensum(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            inst = random_pd_instance(rng, n_max=6)
            spec = spectrum(inst)
            code = greedy_benchmark_code(spec)
            u56, _, _ = utilities(code, spec)
            mu = np.linalg.eigvalsh(spec.s3 + spec.s4)[::-1]
            want = mu[: min(inst.z, inst.n)].sum()
            assert abs(u56 - want) <= 1e-8 * (1 + abs(want))

    def test_identical_tasks_global_optimum(self):
        rng = np.random.default_rng(18)
        n = 5
        k = rng.normal(size=(n, n))
        f = rng.normal(size=(n, n))
        inst = validate(ProblemInstance(
            n=n, psi=f @ f.T + 0.3 * np.eye(n), a=n, b=n, z=2,
            k3=k, k4=k.copy()))
        code = greedy_benchmark_code(spectrum(inst))
        lb = lower_bound_of(inst)
        total = exact_loss(code, inst)[2]
        assert total <= lb + 1e-8 * (1 + lb)

    def test_below_rounding_the_pool_decides_feasibility(self):
        # at rank_tol 1e-15 a separate coverage test refused this cell ("does
        # not cover target"); the picks themselves find the pool sufficient
        tol = ToleranceConfig(rank_tol=1e-15)
        inst = gen_synthetic(SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=20, seed=0))
        code = greedy_benchmark_code(spectrum(inst, tol), tol)
        assert isinstance(code, ButterflyCode) and code.e13.shape == (8, 24)
        assert np.isfinite(exact_loss(code, inst)[2])

    @pytest.mark.parametrize("a, b", [(0, 4), (4, 0)])
    @pytest.mark.parametrize("spd", [False, True])
    def test_node_that_observes_nothing(self, a, b, spd):
        # the blind node's side has nothing past the relay: its residual
        # against the relay is rounding noise, which once grew the target by
        # a direction the empty pool could not supply ("pool exhausted")
        psi = random_spd(np.random.default_rng(3), n=4) if spd else np.eye(4)
        inst = validate(ProblemInstance(
            n=4, psi=psi, a=a, b=b, z=1,
            k3=np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 0.5, 0.0]]),
            k4=np.array([[0.0, 0.0, 1.0, 0.5], [0.5, 0.0, 0.0, 1.0]])))
        spec = spectrum(inst)
        code = greedy_benchmark_code(spec)
        assert code.e13.shape == (1, a) and code.e24.shape == (1, b)
        assert exact_loss(code, inst)[2] >= lower_bound(spec) - 1e-12
        _, trace = train(inst, TrainConfig(epochs=20, mode="coding_benchmark"))
        assert trace.shape == (20, 3) and np.all(np.isfinite(trace))

    def test_greedy_not_globally_optimal(self):
        inst = greedy_trap_instance()
        spec = spectrum(inst)
        greedy_total = exact_loss(greedy_benchmark_code(spec), inst)[2]
        best = exact_loss(construct_lb_code(spec), inst)[2]
        assert greedy_total - best >= 1e-3


class TestOneFactorization:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("coloured", [False, True], ids=["psi_eye", "psi_spd"])
    def test_evaluators_do_not_factor_psi_again(self, monkeypatch, seed, coloured):
        # every evaluator reads L off the spectrum, so once the spectrum is
        # computed no Cholesky factorization runs
        inst = gen_synthetic(SyntheticSpec(n=8, z=2, a=6, b=6, r_plus_target=6, seed=seed))
        if coloured:
            # x' = T x, T random and block-diagonal over the coordinates
            # private to node 1, shared and private to node 2: psi' = T T^T,
            # and the construction's conditions still hold
            n, a, b = inst.n, inst.a, inst.b
            t = block_diagonal(np.random.default_rng(seed), (n - b, a + b - n, n - a))
            t_inv = np.linalg.inv(t)
            inst = validate(ProblemInstance(n=n, psi=t @ inst.psi @ t.T, a=a, b=b,
                                            z=inst.z, k3=inst.k3 @ t_inv,
                                            k4=inst.k4 @ t_inv))
        spec = spectrum(inst)
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky",
                            lambda *args, **kw: calls.append(1) or cholesky(*args, **kw))
        code = construct_lb_code(spec)
        spans = flow_spans(code, spec)
        realize_spans(spans, spec)
        utilities(code, spec)
        greedy_benchmark_code(spec)
        job = TrainJob(inst, TrainConfig(epochs=3, mode="coding_benchmark"), spectrum=spec)
        (result,) = train_lockstep([job])
        assert not isinstance(result, Exception)
        assert calls == []
        spectrum(inst)             # the spy sees the one factorization there is,
        assert calls == ([1] if coloured else [])   # and none for psi = I


class TestFullScale:
    def test_low_joint_rank_trains_to_zero(self):
        m = 16
        spec = SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=24,
                             eig_profile=flat_tail_profile(m, 2 * m - 24),
                             seed=0)
        inst = gen_synthetic(spec)
        assert lower_bound_of(inst) == 0.0
        _, trace = train(inst, TrainConfig(seed=0))
        assert trace[-1, 2] <= 1e-2

    def test_full_joint_rank_stays_high(self):
        m = 16
        spec = SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=32,
                             eig_profile=flat_tail_profile(m, 0), seed=0)
        inst = gen_synthetic(spec)
        lb = lower_bound_of(inst)
        _, trace = train(inst, TrainConfig(seed=0))
        assert trace[-1, 2] >= 1.0
        assert trace[-1, 2] >= lb - 1e-9 * (1 + lb)
