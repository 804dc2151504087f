"""Property tests: the paper's invariants over generated instances.

Hypothesis draws the seeds and sizes; `derandomize=True` fixes the examples,
so every run checks the same instances.
"""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import butterfly_coding.analytic as analytic_module
import butterfly_coding.subspace as subspace_module
from butterfly_coding import (
    DEFAULT_TOL,
    Basis,
    ButterflyCode,
    InfeasibleSpec,
    PreconditionNotMet,
    ProblemInstance,
    SyntheticSpec,
    ToleranceConfig,
    check_code_shapes,
    construct_lb_code,
    exact_loss,
    flow_spans,
    gen_synthetic,
    greedy_benchmark_code,
    intersect,
    lower_bound,
    lower_bound_of,
    optimal_decoders,
    orthonormal_basis,
    spectrum,
    sufficient_report,
    task_bases,
    utilities,
    validate,
    with_optimal_decoders,
)

from conftest import decoupled_instance, random_pd_instance
from test_code import identity_or_random_instance, random_code

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
SEEDS = st.integers(0, 2**32 - 1)
# powers of two scale every float exactly, so c^2 scaling holds to rounding
POWERS = st.integers(-3, 3)


def scaled_tasks(instance: ProblemInstance, c: float) -> ProblemInstance:
    return validate(ProblemInstance(
        n=instance.n, psi=instance.psi, a=instance.a, b=instance.b, z=instance.z,
        k3=c * instance.k3, k4=c * instance.k4))


def optimal_total(instance: ProblemInstance, code) -> float:
    return exact_loss(with_optimal_decoders(code, instance), instance)[2]


@st.composite
def synthetic_specs(draw):
    n = draw(st.integers(3, 10))
    z = draw(st.integers(1, n))
    a = draw(st.integers((n + 1) // 2, n))
    b = draw(st.integers(max(1, n - a), n))
    m = min(2 * z, n)
    return SyntheticSpec(
        n=n, z=z, a=a, b=b, r_plus_target=draw(st.integers(m, min(2 * m, n))),
        keep_sf3=draw(st.booleans()), seed=draw(SEEDS))


@PROPERTY
@given(spec=synthetic_specs())
def test_directions_land_where_the_placement_rule_puts_them(spec):
    # each task's exclusive directions start on the axes at its end of x;
    # the shared ones, the last s rows of both task matrices, and the
    # spilled exclusives sit on a pool that misses those axes, and with
    # keep_sf3 inside the observation overlap n-b ... a-1
    try:
        inst = gen_synthetic(spec)
    except InfeasibleSpec:
        assume(False)
    n, a, b = inst.n, inst.a, inst.b
    m = min(2 * inst.z, n)
    s = 2 * m - spec.r_plus_target
    k3, k4 = min(m - s, n - b), min(m - s, n - a)
    k3_axes, k4_axes = inst.k3[:k3], inst.k4[:k4]
    assert np.count_nonzero(k3_axes) == k3 and np.all(np.diag(k3_axes) > 0)
    assert np.count_nonzero(k4_axes) == k4 and np.all(np.diag(k4_axes[:, ::-1]) > 0)
    assert np.array_equal(inst.k3[m - s:], inst.k4[m - s:])
    if spec.keep_sf3:
        assert not inst.k3[:, a:].any() and not inst.k4[:, :n - b].any()
        shared = inst.k3[m - s:]
        assert not shared[:, :n - b].any() and not shared[:, a:].any()
    else:
        assert not inst.k3[:, n - k4:].any() and not inst.k4[:, :k3].any()


@PROPERTY
@given(seed=SEEDS, power=POWERS)
def test_scaling_tasks_by_c_scales_bound_and_loss_by_c_squared(seed, power):
    rng = np.random.default_rng(seed)
    inst = random_pd_instance(rng, n_max=8)
    code = random_code(inst, rng)
    c2 = 4.0 ** power
    big = scaled_tasks(inst, 2.0 ** power)
    for got, want in ((lower_bound(spectrum(big)), lower_bound(spectrum(inst))),
                      (optimal_total(big, code), optimal_total(inst, code))):
        assert abs(got - c2 * want) <= 1e-10 * c2 * abs(want)


@PROPERTY
@given(spec=synthetic_specs(), power=POWERS)
def test_scaling_tasks_keeps_the_report(spec, power):
    try:
        inst = gen_synthetic(spec)
    except InfeasibleSpec:
        assume(False)
    big = scaled_tasks(inst, 2.0 ** power)
    rep = sufficient_report(spectrum(inst))
    big_rep = sufficient_report(spectrum(big))
    for field in ("r_plus_34", "r_minus_34", "r_minus_13", "r_minus_24", "sufficient_ok"):
        assert getattr(big_rep, field) == getattr(rep, field), field


@PROPERTY
@given(seed=SEEDS, scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_no_code_with_optimal_decoders_beats_the_bound(seed, scale):
    rng = np.random.default_rng(seed)
    inst = random_pd_instance(rng, n_max=8)
    lb = lower_bound_of(inst)
    assert optimal_total(inst, random_code(inst, rng, scale)) >= lb - 1e-9 * (1 + lb)


@PROPERTY
@given(source=st.one_of(synthetic_specs(), st.tuples(SEEDS, st.booleans())))
def test_utilities_and_losses_add_up_to_the_task_energy(source):
    # with optimal decoders each sink loses what its received span misses of
    # its task, L3 = Tr(S3) - Tr(S3 P_56) - u13 and L4 likewise, so the
    # utilities and L_total add up to Tr(S3) + Tr(S4); the codes are random
    # encoders with optimal decoders and, where sufficient_ok holds, the
    # construction, on gen_synthetic cells and on random instances with
    # psi = I or not
    if isinstance(source, SyntheticSpec):
        try:
            inst = gen_synthetic(source)
        except InfeasibleSpec:
            assume(False)
        rng = np.random.default_rng(source.seed)
    else:
        rng = np.random.default_rng(source[0])
        inst = identity_or_random_instance(rng, source[1])
    spec = spectrum(inst)
    codes = [with_optimal_decoders(random_code(inst, rng), inst)]
    if sufficient_report(spec).sufficient_ok:
        codes.append(construct_lb_code(spec))
    energy = float(np.trace(spec.s3) + np.trace(spec.s4))
    for code in codes:
        total = sum(utilities(code, spec)) + exact_loss(code, inst)[2]
        assert abs(total - energy) <= 1e-10 * max(1.0, energy)


@PROPERTY
@given(seed=SEEDS, identity=st.booleans(),
       variant=st.sampled_from(["plain", "zero_rows", "relay_is_direct", "small_direct"]))
def test_new_direction_counts_match_the_stack(seed, identity, variant):
    # the directions a direct link adds to the relay's basis number the rank
    # of the stack [phi | phi56] less the relay's, at rank_tol 1e-14 through
    # 1e-6: on random codes, with some direct rows zero, with the relay
    # sending node 1's direct signal (e56 = [I | 0], e15 = e13), and with
    # direct links 1e-9 the size of the relay
    rng = np.random.default_rng(seed)
    inst = identity_or_random_instance(rng, identity)
    code = random_code(inst, rng)
    if variant == "zero_rows":
        code = dataclasses.replace(code, e13=code.e13 * (rng.random((inst.z, 1)) < 0.5),
                                   e24=code.e24 * (rng.random((inst.z, 1)) < 0.5))
    elif variant == "relay_is_direct":
        code = dataclasses.replace(code, e15=code.e13, e56=np.eye(inst.z, 2 * inst.z))
    elif variant == "small_direct":
        code = dataclasses.replace(code, e13=1e-9 * code.e13, e24=1e-9 * code.e24)
    spans = flow_spans(code, spectrum(inst))
    for rank_tol in (1e-14, 1e-10, 1e-6):
        tol = ToleranceConfig(rank_tol)
        relay, top = subspace_module._basis_and_top(spans.phi56, tol)
        for phi in (spans.phi13, spans.phi24):
            new = subspace_module._beyond(relay.vectors, phi, top, tol)
            stack = orthonormal_basis(np.hstack([phi, spans.phi56]), tol)
            assert new.shape[1] == stack.dim - relay.dim


def block_diagonal(rng, sizes) -> np.ndarray:
    """Random block-diagonal matrix with blocks of the given sizes, each
    block's singular values drawn from [0.5, 2]."""
    t = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for k in sizes:
        if k:
            u, _ = np.linalg.qr(rng.normal(size=(k, k)))
            v, _ = np.linalg.qr(rng.normal(size=(k, k)))
            t[at:at + k, at:at + k] = (u * rng.uniform(0.5, 2.0, k)) @ v.T
        at += k
    return t


@PROPERTY
@given(spec=synthetic_specs(), seed=SEEDS)
def test_reparameterizing_the_observations_keeps_bound_report_and_loss(spec, seed):
    # x' = T x with T block-diagonal over the coordinates private to node 1,
    # shared, and private to node 2: each node sees an invertible map of
    # what it saw before, psi' = T psi T^T and K' = K T^-1 give the same
    # task signals, and a code whose encoders undo T and whose decoders
    # apply it gives the same estimates
    try:
        inst = gen_synthetic(spec)
    except InfeasibleSpec:
        assume(False)
    rng = np.random.default_rng(seed)
    n, a, b = inst.n, inst.a, inst.b
    t = block_diagonal(rng, (n - b, a + b - n, n - a))
    t_inv = np.linalg.inv(t)
    moved = validate(ProblemInstance(n=n, psi=t @ inst.psi @ t.T, a=a, b=b, z=inst.z,
                                     k3=inst.k3 @ t_inv, k4=inst.k4 @ t_inv))
    lb = lower_bound(spectrum(inst))
    assert abs(lower_bound(spectrum(moved)) - lb) <= 1e-9 * (1 + lb)
    assert sufficient_report(spectrum(moved)) == sufficient_report(spectrum(inst))
    code = random_code(inst, rng)
    in1, in2 = np.linalg.inv(t[:a, :a]), np.linalg.inv(t[n - b:, n - b:])
    moved_code = ButterflyCode(e13=code.e13 @ in1, e15=code.e15 @ in1,
                               e24=code.e24 @ in2, e25=code.e25 @ in2,
                               e56=code.e56, d3=t @ code.d3, d4=t @ code.d4)
    for got, want in zip(exact_loss(moved_code, moved), exact_loss(code, inst)):
        assert abs(got - want) <= 1e-9 * (1 + want)



# the modules that bind model._is_identity; the package root re-exports a
# function named train, so the modules are looked up by their full names
IDENTITY_USERS = [importlib.import_module(f"butterfly_coding.{name}")
                  for name in ("model", "code", "train")]
SPECTRUM_FIELDS = ("cholesky_l", "s3", "s4", "mu3", "mu4", "u3", "u4")
CODE_FIELDS = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")


def bits(value) -> bytes:
    """The bytes of a float or an array of floats, so -0.0 differs from 0.0."""
    return np.asarray(value, dtype=float).tobytes()


def closed_form_outputs(inst: ProblemInstance) -> tuple[dict, dict]:
    """Everything the closed-form path computes for one cell: the results as
    bits, and the codes' matrices as arrays."""
    out, matrices = {"psi": bits(validate(inst).psi)}, {}
    spec = spectrum(inst)
    out.update((f"spectrum.{name}", bits(getattr(spec, name))) for name in SPECTRUM_FIELDS)
    out.update((f"task_bases.{i}", bits(basis.vectors))
               for i, basis in enumerate(task_bases(spec)))
    out["report"] = sufficient_report(spec)
    codes = {"greedy": greedy_benchmark_code(spec)}
    try:
        codes["construction"] = construct_lb_code(spec)
    except PreconditionNotMet as exc:
        out["construction"] = str(exc)
    for name, code in codes.items():
        matrices.update((f"{name}.{field}", getattr(code, field)) for field in CODE_FIELDS)
        out[f"{name}.exact_loss"] = bits(exact_loss(code, inst))
        out[f"{name}.optimal_decoders"] = bits(optimal_decoders(code, inst))
        out[f"{name}.utilities"] = bits(utilities(code, spec))
    return out, matrices


def assert_identity_shortcuts_keep_the_bits(inst: ProblemInstance):
    # the shortcuts for psi = I against the general path on the same
    # instance, forced by a predicate that never sees the identity
    assert IDENTITY_USERS[0]._is_identity(inst.psi)
    fast, fast_matrices = closed_form_outputs(inst)
    with pytest.MonkeyPatch.context() as patch:
        for module in IDENTITY_USERS:
            patch.setattr(module, "_is_identity", lambda psi: False)
        general, general_matrices = closed_form_outputs(inst)
    assert fast.keys() == general.keys() and fast_matrices.keys() == general_matrices.keys()
    assert [key for key in fast if fast[key] != general[key]] == []
    # both paths take node 2's span as its axes (L = I either way), so even
    # the signs of the codes' zeros agree
    assert [key for key in fast_matrices
            if bits(fast_matrices[key]) != bits(general_matrices[key])] == []


@st.composite
def identity_specs(draw):
    n = draw(st.integers(3, 64))
    z = draw(st.integers(1, n))
    a = draw(st.integers((n + 1) // 2, n))
    b = draw(st.integers(max(1, n - a), n))
    m = min(2 * z, n)
    return SyntheticSpec(
        n=n, z=z, a=a, b=b, r_plus_target=draw(st.integers(m, min(2 * m, n))),
        eig_profile=draw(st.sampled_from([None, "flat_tail"])),
        keep_sf3=draw(st.booleans()), seed=draw(SEEDS))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=identity_specs())
@example(spec=SyntheticSpec(n=28, z=10, a=14, b=14, r_plus_target=28, keep_sf3=False))
def test_identity_shortcuts_return_the_general_paths_bits(spec):
    try:
        inst = gen_synthetic(spec)
    except InfeasibleSpec:
        assume(False)
    assert_identity_shortcuts_keep_the_bits(inst)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=identity_specs(), seed=SEEDS)
def test_node2_axes_give_the_factored_spans_report(spec, seed):
    # on a psi = I cell and on the same cell behind a block-decoupled psi,
    # node 2 lies on its last b axes and its cut by node 1's span on the
    # mutual axes n - b ... a - 1; the report must be the one _analyze
    # gives with node 2's span factored and cut by _coordinate_cut, and the
    # decoupled cell's the psi = I cell's
    try:
        inst = gen_synthetic(spec)
    except InfeasibleSpec:
        assume(False)
    reports = []
    for case in (inst, decoupled_instance(inst, np.random.default_rng(seed))):
        cell = spectrum(case)
        assert analytic_module._node2_on_axes(cell.cholesky_l, case.b)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytic_module, "_node2_on_axes", lambda chol, b: False)
            factored = sufficient_report(cell)
        reports.append(sufficient_report(cell))
        assert reports[-1] == factored
    assert reports[0] == reports[1]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spec=identity_specs(), seed=SEEDS)
# dim b4 = b, where intersect takes node 2's axes as the smaller basis, and
# dim b4 > b
@example(spec=SyntheticSpec(n=32, z=8, a=24, b=16, r_plus_target=24), seed=1)
@example(spec=SyntheticSpec(n=32, z=12, a=24, b=16, r_plus_target=28, keep_sf3=False), seed=1)
def test_node2_row_cut_returns_intersects_bits(spec, seed):
    # on a psi = I cell and behind a block-decoupled psi, _analyze cuts task
    # 4's span by node 2's last b axes with _trailing_cut; its basis must be
    # intersect's byte for byte, signs of zeros included, and it must run
    # intersect itself unless dim b4 < b
    try:
        inst = gen_synthetic(spec)
    except InfeasibleSpec:
        assume(False)
    for case in (inst, decoupled_instance(inst, np.random.default_rng(seed))):
        n, b = case.n, case.b
        b4 = task_bases(spectrum(case))[1]
        want = intersect(Basis(np.eye(n)[:, n - b:]), b4, DEFAULT_TOL)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return intersect(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(subspace_module, "intersect", counted)
            got = subspace_module._trailing_cut(b4, b, DEFAULT_TOL)
        assert got.vectors.shape == want.vectors.shape
        assert bits(got.vectors) == bits(want.vectors)
        assert len(calls) == (b4.dim >= b)


@pytest.mark.parametrize("r_plus", [128, 160, 192])
def test_identity_shortcuts_return_the_general_paths_bits_at_n256(r_plus):
    # the construct_large cells
    assert_identity_shortcuts_keep_the_bits(gen_synthetic(
        SyntheticSpec(n=256, z=64, a=192, b=192, r_plus_target=r_plus, seed=1)))


# at coarse tolerances the construction still misses the bound on some
# sufficient instances (CHANGES.md, FOUND 44); the example below is one,
# at n = 32 with sixteen shared directions off the observation overlap
KNOWN_MISS = pytest.mark.xfail(strict=True, reason="FOUND 44")


@pytest.mark.parametrize("rank_tol", [
    1e-14, 1e-10,
    pytest.param(1e-6, marks=KNOWN_MISS), pytest.param(1e-3, marks=KNOWN_MISS)])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(source=st.one_of(identity_specs(), SEEDS))
@example(source=SyntheticSpec(n=32, z=8, a=24, b=24, r_plus_target=16, keep_sf3=False, seed=1))
def test_sufficient_instances_are_constructed_at_the_bound(rank_tol, source):
    # the report's promise: wherever sufficient_ok holds, construct_lb_code
    # reaches the bound; instances are gen_synthetic specs or, for a seed,
    # random positive-definite instances
    tol = ToleranceConfig(rank_tol)
    if isinstance(source, SyntheticSpec):
        try:
            inst = gen_synthetic(source, tol)
        except InfeasibleSpec:
            assume(False)
    else:
        inst = random_pd_instance(np.random.default_rng(source), n_max=12)
    spec = spectrum(inst, tol)
    assume(sufficient_report(spec, tol).sufficient_ok)
    lb = lower_bound(spec)
    total = exact_loss(construct_lb_code(spec, tol), inst)[2]
    assert abs(total - lb) <= 1e-8 * max(1.0, abs(lb))


@st.composite
def wide_specs(draw):
    # psi = I cells with Z > n: both task spans are all of R^n, so the only
    # joint rank gen_synthetic accepts is n
    n = draw(st.integers(2, 10))
    a = draw(st.integers(0, n))
    return SyntheticSpec(
        n=n, z=draw(st.integers(n + 1, n + 4)), a=a, b=draw(st.integers(n - a, n)),
        r_plus_target=n, eig_profile=draw(st.sampled_from([None, "flat_tail"])),
        keep_sf3=False, seed=draw(SEEDS))


@pytest.mark.parametrize("rank_tol", [1e-14, 1e-10])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(source=st.one_of(wide_specs(), SEEDS))
@example(source=SyntheticSpec(n=6, z=8, a=6, b=2, r_plus_target=6, keep_sf3=False, seed=1))
@example(source=SyntheticSpec(n=5, z=7, a=1, b=5, r_plus_target=5, keep_sf3=False, seed=2))
def test_capacity_past_the_data_dimension_is_constructed_at_the_bound(rank_tol, source):
    # Z may exceed n: gen_synthetic cells with Z > n or, for a seed, random
    # positive-definite instances with Z up to 14 at n <= 12; wherever
    # sufficient_ok holds the construction has the instance's shapes and
    # reaches the bound
    tol = ToleranceConfig(rank_tol)
    if isinstance(source, SyntheticSpec):
        try:
            inst = gen_synthetic(source, tol)
        except InfeasibleSpec:
            assume(False)
    else:
        inst = random_pd_instance(np.random.default_rng(source), n_max=12, z_max=14)
    spec = spectrum(inst, tol)
    assume(sufficient_report(spec, tol).sufficient_ok)
    code = check_code_shapes(construct_lb_code(spec, tol), inst)
    lb = lower_bound(spec)
    total = exact_loss(code, inst)[2]
    assert abs(total - lb) <= 1e-8 * max(1.0, abs(lb))
