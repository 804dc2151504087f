"""End-to-end acceptance checks.

Each test prints one summary line (visible with pytest -s) and enforces both
the numeric tolerance and a wall-clock budget.
"""

import time

import numpy as np
import pytest

from butterfly_coding import (
    ButterflyCode,
    PreconditionNotMet,
    ProblemInstance,
    SyntheticSpec,
    TrainConfig,
    construct_lb_code,
    exact_loss,
    extend_from_pool,
    flat_tail_profile,
    gen_synthetic,
    greedy_benchmark_code,
    init_code,
    intersect,
    is_subspace_of,
    join,
    lift_code,
    lower_bound,
    lower_bound_of,
    orthonormal_basis,
    spectrum,
    sufficient_report,
    task_pca,
    train,
    utilities,
    validate,
    whiten,
)
from butterfly_coding.subspace import Basis

from conftest import (
    achievable_dichotomy_instance,
    greedy_trap_instance,
    kernel_gradients,
    kernel_losses,
    random_pd_instance,
    random_rank_deficient_instance,
    unachievable_dichotomy_instance,
)


def report(num, label, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[{num}] {label}: {status} ({detail}, {elapsed:.1f}s)")
    assert ok, f"[{num}] {label}: {detail}"
    assert elapsed <= budget, f"[{num}] ran {elapsed:.1f}s, budget {budget}s"


def test_01_single_link_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        inst = random_pd_instance(rng, n_max=16)
        k, psi, z = inst.k3, inst.psi, inst.z
        enc, dec, loss = task_pca(k, psi, z)
        chol = np.linalg.cholesky(psi)
        mu = np.linalg.eigvalsh(chol.T @ k.T @ k @ chol)[::-1]
        want = float(np.clip(mu[z:], 0.0, None).sum())
        resid = k @ (np.eye(inst.n) - dec @ enc)
        achieved = float(np.trace(resid @ psi @ resid.T))
        scale = 1.0 + want
        worst = max(worst, abs(loss - want) / scale, abs(achieved - want) / scale)
    report(1, "single-link optimum equals the trailing eigenvalue sum",
           worst <= 1e-10, f"worst rel dev {worst:.2e} over 200 instances",
           t0, budget=10)


def test_02_whitening_preserves_losses():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_loss = 0.0
    worst_lb = 0.0
    for _ in range(100):
        inst = random_rank_deficient_instance(rng, n_max=10)
        w = whiten(inst)
        inner = w.inner
        shapes = {
            "e13": (inner.z, w.a_tilde), "e15": (inner.z, w.a_tilde),
            "e24": (inner.z, w.b_tilde), "e25": (inner.z, w.b_tilde),
            "e56": (inner.z, 2 * inner.z),
            "d3": (inner.n, 2 * inner.z), "d4": (inner.n, 2 * inner.z),
        }
        code = ButterflyCode(**{k: rng.normal(size=s) for k, s in shapes.items()})
        total_inner = exact_loss(code, inner)[2]
        total_lifted = exact_loss(lift_code(w, code), inst)[2]
        worst_loss = max(worst_loss,
                         abs(total_inner - total_lifted) / (1.0 + total_inner))
        lb, lb_inner = lower_bound_of(inst), lower_bound_of(inner)
        worst_lb = max(worst_lb, abs(lb - lb_inner) / (1.0 + lb))
    ok = worst_loss <= 1e-9 and worst_lb <= 1e-9
    report(2, "codes and bounds survive the rank-reducing transform",
           ok, f"worst loss dev {worst_loss:.2e}, bound dev {worst_lb:.2e}",
           t0, budget=30)


def _construction_gap(inst, tol_scaled):
    spec = spectrum(inst)
    rep = sufficient_report(spec)
    if not rep.sufficient_ok:
        return None
    code = construct_lb_code(spec)
    lb = lower_bound(spec, inst.z)
    total = exact_loss(code, inst)[2]
    return (total - lb) / (1.0 + lb)


def test_03_construction_achieves_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    gaps = []

    # family 1: synthetic spectra with controlled joint rank, 2Z <= n
    accepted = 0
    attempts = 0
    while accepted < 200 and attempts < 8000:
        attempts += 1
        n = int(rng.integers(6, 17))
        z = int(rng.integers(1, n // 2 + 1))
        m = 2 * z
        a = int(rng.integers(max(1, n // 2), n + 1))
        b = int(rng.integers(max(1, n - a), n + 1))
        r_plus = int(rng.integers(m, min(2 * m, n) + 1))
        try:
            inst = gen_synthetic(SyntheticSpec(
                n=n, z=z, a=a, b=b, r_plus_target=r_plus,
                keep_sf3=bool(rng.integers(0, 2)),
                seed=int(rng.integers(0, 2**31))))
        except Exception:
            continue
        gap = _construction_gap(inst, 1e-8)
        if gap is None:
            continue
        gaps.append(gap)
        accepted += 1

    # family 2: identical tasks with full observations, 2Z <= n
    for _ in range(150):
        n = int(rng.integers(4, 17))
        z = int(rng.integers(1, n // 2 + 1))
        f = rng.normal(size=(n, n))
        k = rng.normal(size=(n, n))
        inst = validate(ProblemInstance(
            n=n, psi=f @ f.T + 0.3 * np.eye(n), a=n, b=n, z=z,
            k3=k, k4=k.copy()))
        gap = _construction_gap(inst, 1e-8)
        assert gap is not None
        gaps.append(gap)

    # family 3: capacity past the data dimension, 2Z > n
    for _ in range(150):
        n = int(rng.integers(2, 17))
        z = int(rng.integers(n // 2 + 1, n + 1))
        lo = max(1, n - z)
        a = int(rng.integers(lo, n + 1))
        b = int(rng.integers(max(lo, n - a), n + 1))
        f = rng.normal(size=(n, n))
        inst = validate(ProblemInstance(
            n=n, psi=f @ f.T + 0.1 * np.eye(n), a=a, b=b, z=z,
            k3=rng.normal(size=(int(rng.integers(1, n + 2)), n)),
            k4=rng.normal(size=(int(rng.integers(1, n + 2)), n))))
        gap = _construction_gap(inst, 1e-8)
        assert gap is not None
        gaps.append(gap)

    worst = max(gaps)
    ok = len(gaps) >= 500 and worst <= 1e-8
    report(3, "construction reaches the lower bound on 500 instances",
           ok, f"{len(gaps)} instances, worst rel gap {worst:.2e}",
           t0, budget=60)


def test_04_achievability_dichotomy():
    t0 = time.perf_counter()
    bad = unachievable_dichotomy_instance()
    bad_spec = spectrum(bad)
    bad_rep = sufficient_report(bad_spec)
    flags_ok = bad_rep.necessary_ok and not bad_rep.sf1_ok

    lb_bad = lower_bound(bad_spec, bad.z)
    mu_min = min(float(bad_spec.mu3[bad_spec.mu3 > 1e-9].min()),
                 float(bad_spec.mu4[bad_spec.mu4 > 1e-9].min()))
    margin_needed = 0.05 * mu_min
    margins = []
    for seed in range(20):
        _, trace = train(bad, TrainConfig(seed=seed))
        margins.append(trace[-1, 2] - lb_bad)
    min_margin = min(margins)

    good = achievable_dichotomy_instance()
    good_spec = spectrum(good)
    code = construct_lb_code(good_spec)
    lb_good = lower_bound(good_spec, good.z)
    gap = abs(exact_loss(code, good)[2] - lb_good)

    ok = flags_ok and min_margin >= margin_needed and gap <= 1e-9
    report(4, "span condition separates achievable from unachievable",
           ok,
           f"flags ok={flags_ok}, 20-seed min margin {min_margin:.3f} "
           f"(need {margin_needed:.3f}), achievable gap {gap:.2e}",
           t0, budget=60)


def test_05_joint_rank_sweep_at_full_scale():
    t0 = time.perf_counter()
    n, z, a = 32, 8, 24
    m = min(2 * z, n)

    worst_gap = 0.0
    for r_plus in range(16, 25):
        inst = gen_synthetic(SyntheticSpec(n=n, z=z, a=a, b=a,
                                           r_plus_target=r_plus, seed=0))
        code = construct_lb_code(spectrum(inst))
        worst_gap = max(worst_gap, exact_loss(code, inst)[2])
    construct_ok = worst_gap <= 1e-8

    rejected = 0
    for r_plus in range(25, 33):
        inst = gen_synthetic(SyntheticSpec(n=n, z=z, a=a, b=a,
                                           r_plus_target=r_plus, seed=0))
        with pytest.raises(PreconditionNotMet):
            construct_lb_code(spectrum(inst))
        rejected += 1

    seeds = range(6)
    achievable_means = []
    for r_plus in range(16, 25):
        finals = []
        for seed in seeds:
            inst = gen_synthetic(SyntheticSpec(
                n=n, z=z, a=a, b=a, r_plus_target=r_plus,
                eig_profile=flat_tail_profile(m, 2 * m - r_plus), seed=seed))
            assert lower_bound_of(inst) == 0.0
            _, trace = train(inst, TrainConfig(seed=seed))
            finals.append(trace[-1, 2])
        achievable_means.append(float(np.mean(finals)))
    low_ok = max(achievable_means) <= 1e-2

    finals = []
    for seed in seeds:
        inst = gen_synthetic(SyntheticSpec(
            n=n, z=z, a=a, b=a, r_plus_target=32,
            eig_profile=flat_tail_profile(m, 0), seed=seed))
        _, trace = train(inst, TrainConfig(seed=seed))
        finals.append(trace[-1, 2])
    high_mean = float(np.mean(finals))
    high_ok = high_mean >= 1.0

    ok = construct_ok and rejected == 8 and low_ok and high_ok
    report(5, "joint-rank sweep separates exact from unreachable regimes",
           ok,
           f"construct worst {worst_gap:.2e}, {rejected}/8 rejected, "
           f"trained means max {max(achievable_means):.2e} (low) / "
           f"{high_mean:.2f} (full rank)",
           t0, budget=900)


def test_06_observation_sweep_at_full_scale():
    t0 = time.perf_counter()
    n, z, r_plus = 32, 8, 18
    m = min(2 * z, n)
    profile = flat_tail_profile(m, 2 * m - r_plus)

    wide_gaps = {}
    for a in range(16, 33, 2):
        inst = gen_synthetic(SyntheticSpec(
            n=n, z=z, a=a, b=a, r_plus_target=r_plus,
            eig_profile=profile, keep_sf3=False, seed=0))
        spec = spectrum(inst)
        rep = sufficient_report(spec)
        if not rep.sufficient_ok:
            continue
        code = construct_lb_code(spec)
        wide_gaps[a] = exact_loss(code, inst)[2] - lower_bound(spec, z)
    wide_ok = all(a in wide_gaps and wide_gaps[a] <= 1e-6
                  for a in range(24, 33, 2))

    finals = []
    for seed in range(10):
        inst = gen_synthetic(SyntheticSpec(
            n=n, z=z, a=16, b=16, r_plus_target=r_plus,
            eig_profile=profile, keep_sf3=False, seed=seed))
        rep = sufficient_report(spectrum(inst))
        assert not rep.necessary_ok
        _, trace = train(inst, TrainConfig(seed=seed))
        finals.append(trace[-1, 2])
    narrow_mean = float(np.mean(finals))
    narrow_ok = narrow_mean >= 1.0

    ok = wide_ok and narrow_ok
    report(6, "observation-width sweep pins the achievability threshold",
           ok,
           f"construction exact for a >= 24 (worst "
           f"{max(wide_gaps[a] for a in range(24, 33, 2)):.2e}), "
           f"a=16 trained mean {narrow_mean:.2f}",
           t0, budget=900)


def test_07_greedy_benchmark():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        inst = random_pd_instance(rng, n_max=10)
        spec = spectrum(inst)
        code = greedy_benchmark_code(spec)
        u56 = utilities(code, spec)[0]
        mu = np.linalg.eigvalsh(spec.s3 + spec.s4)[::-1]
        want = float(mu[: min(inst.z, inst.n)].sum())
        worst = max(worst, abs(u56 - want) / (1.0 + abs(want)))
    relay_ok = worst <= 1e-9

    trap = greedy_trap_instance()
    greedy_total = exact_loss(greedy_benchmark_code(spectrum(trap)), trap)[2]
    best_total = exact_loss(construct_lb_code(spectrum(trap)), trap)[2]
    witness_gap = greedy_total - best_total
    witness_ok = witness_gap >= 1e-3

    ok = relay_ok and witness_ok
    report(7, "greedy relay is locally optimal yet globally suboptimal",
           ok, f"worst relay dev {worst:.2e}, witness gap {witness_gap:.3f}",
           t0, budget=30)


def test_08_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    names = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")
    trainable_by_mode = {
        "task_aware_coding": set(names),
        "task_aware_no_coding": set(names) - {"e56"},
        "task_agnostic_coding": set(names),
        "coding_benchmark": {"d3", "d4"},
    }
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        n = 6
        a = int(rng.integers(3, n + 1))
        b = int(rng.integers(max(3, n - a), n + 1))
        z = int(rng.integers(1, 4))
        f = rng.normal(size=(n, n))
        inst = validate(ProblemInstance(
            n=n, psi=f @ f.T + 0.4 * np.eye(n), a=a, b=b, z=z,
            k3=rng.normal(size=(int(rng.integers(1, n + 1)), n)),
            k4=rng.normal(size=(int(rng.integers(1, n + 1)), n))))
        code = init_code(inst, trial, init_scale=0.3)
        mats = {k: np.array(getattr(code, k), dtype=float) for k in names}
        for mode, trainable in trainable_by_mode.items():
            if mode == "task_agnostic_coding":
                k3_obj = k4_obj = np.eye(n)
            else:
                k3_obj, k4_obj = inst.k3, inst.k4
            grads = kernel_gradients(mats, k3_obj, k4_obj, inst.psi, n, a, b, z)

            def objective(m):
                l3, l4 = kernel_losses(m, k3_obj, k4_obj, inst.psi, n, a, b, z)
                return l3 + l4

            for name in trainable:
                g = grads[name]
                fd = np.zeros_like(g)
                for i in range(g.shape[0]):
                    for j in range(g.shape[1]):
                        up = {k: v.copy() for k, v in mats.items()}
                        dn = {k: v.copy() for k, v in mats.items()}
                        up[name][i, j] += h
                        dn[name][i, j] -= h
                        fd[i, j] = (objective(up) - objective(dn)) / (2 * h)
                scale = max(1.0, float(np.abs(fd).max()))
                worst = max(worst, float(np.abs(g - fd).max()) / scale)
    report(8, "analytic gradients match finite differences in all modes",
           worst <= 1e-5, f"worst rel dev {worst:.2e} over 20 instances x 4 modes",
           t0, budget=30)


def test_09_subspace_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        c = int(rng.integers(0, n + 1))
        common = rng.normal(size=(n, c))
        a = orthonormal_basis(
            np.hstack([common, rng.normal(size=(n, int(rng.integers(0, n - c + 1))))]))
        b = orthonormal_basis(
            np.hstack([common, rng.normal(size=(n, int(rng.integers(0, n - c + 1))))]))
        met = intersect(a, b)
        sup = join(a, b)
        if a.dim + b.dim != met.dim + sup.dim:
            violations += 1
        if not (is_subspace_of(met, a) and is_subspace_of(met, b)):
            violations += 1
        if not (is_subspace_of(a, sup) and is_subspace_of(b, sup)):
            violations += 1
        kp = int(rng.integers(0, n + 1))
        pool = (orthonormal_basis(rng.normal(size=(n, kp)))
                if kp else Basis.empty(n))
        target = join(a, pool)
        ext = extend_from_pool(a, pool, target)
        if ext.shape != (n, target.dim - a.dim):
            violations += 1
        elif ext.shape[1]:
            grown = orthonormal_basis(np.hstack([a.vectors, ext]))
            if grown.dim != target.dim:
                violations += 1
            if not is_subspace_of(orthonormal_basis(ext), pool):
                violations += 1
    report(9, "subspace algebra holds on 1000 randomized cases",
           violations == 0, f"{violations} violations",
           t0, budget=10)
