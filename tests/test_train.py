import warnings

import numpy as np
import pytest

from butterfly_coding import (
    BadDimensions,
    DivergenceDetected,
    ProblemInstance,
    SyntheticSpec,
    TrainConfig,
    TrainJob,
    construct_lb_code,
    exact_loss,
    export_trace_csv,
    flat_tail_profile,
    gen_synthetic,
    greedy_benchmark_code,
    init_code,
    lower_bound,
    lower_bound_of,
    spectrum,
    train,
    train_lockstep,
    utilities,
    validate,
)
from butterfly_coding.train import _gradients, _selection_e56, _true_losses

from conftest import calm_instance, greedy_trap_instance, random_pd_instance
from test_model import simple_instance


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
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


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
        bench = greedy_benchmark_code(inst)
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
        g3 = inst.k3.T @ inst.k3
        g4 = inst.k4.T @ inst.k4
        grads = _gradients(mats, g3, g4, inst.psi, n, a, b, z)
        h = 1e-5

        def total_loss(m):
            l3, l4 = _true_losses(m, inst.k3, inst.k4, inst.psi, n, a, b, z)
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


def same_dims_instances(rng, count, n=5, a=4, b=3, z=2):
    """Random instances sharing (n, a, b, z) but not psi or the number of
    task rows, so one lockstep batch can hold them all."""
    out = []
    for _ in range(count):
        f = rng.normal(size=(n, n))
        k3 = rng.normal(size=(int(rng.integers(1, n + 2)), n))
        k4 = rng.normal(size=(int(rng.integers(1, n + 2)), n))
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

    def test_diverging_member_fails_alone(self):
        insts = same_dims_instances(np.random.default_rng(21), 2)
        calm = TrainConfig(epochs=60, learning_rate=0.02, seed=1)
        wild = TrainConfig(epochs=60, learning_rate=50.0, seed=1)
        jobs = [TrainJob(insts[0], calm), TrainJob(insts[1], wild),
                TrainJob(insts[1], calm)]
        results = train_lockstep(jobs)
        with pytest.raises(DivergenceDetected) as alone:
            train(insts[1], wild)
        assert isinstance(results[1], DivergenceDetected)
        assert str(results[1]) == str(alone.value)
        assert_same_run(results[0], train(insts[0], calm))
        assert_same_run(results[2], train(insts[1], calm))

    def test_bad_start_fails_only_that_member(self):
        insts = same_dims_instances(np.random.default_rng(22), 2)
        cfg = TrainConfig(epochs=20, learning_rate=0.02)
        wrong = init_code(simple_instance(n=3, a=2, b=2, z=1), 0)
        results = train_lockstep([TrainJob(insts[0], cfg, wrong), TrainJob(insts[1], cfg)])
        assert isinstance(results[0], BadDimensions)
        assert_same_run(results[1], train(insts[1], cfg))

    def test_mixed_shapes_or_schedules_rejected(self):
        small, = same_dims_instances(np.random.default_rng(23), 1)
        big, = same_dims_instances(np.random.default_rng(24), 1, n=6, a=4, b=4)
        cfg = TrainConfig(epochs=5)
        with pytest.raises(ValueError, match="share"):
            train_lockstep([TrainJob(small, cfg), TrainJob(big, cfg)])
        with pytest.raises(ValueError, match="share"):
            train_lockstep([TrainJob(small, cfg),
                            TrainJob(small, TrainConfig(epochs=6))])

    def test_empty_batch(self):
        assert train_lockstep([]) == []


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

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            export_trace_csv(np.zeros((2, 3)), tmp_path / "no_dir" / "x.csv")


class TestGreedyBenchmark:
    def test_relay_captures_top_eigensum(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            inst = random_pd_instance(rng, n_max=6)
            spec = spectrum(inst)
            code = greedy_benchmark_code(inst)
            u56, _, _ = utilities(code, inst)
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
        code = greedy_benchmark_code(inst)
        lb = lower_bound_of(inst)
        total = exact_loss(code, inst)[2]
        assert total <= lb + 1e-8 * (1 + lb)

    def test_greedy_not_globally_optimal(self):
        inst = greedy_trap_instance()
        spec = spectrum(inst)
        greedy_total = exact_loss(greedy_benchmark_code(inst), inst)[2]
        best = exact_loss(construct_lb_code(spec, inst), inst)[2]
        assert greedy_total - best >= 1e-3


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
