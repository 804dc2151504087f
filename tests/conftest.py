"""Shared instance builders for the test suite."""

import json
import re
from pathlib import Path

import numpy as np

from butterfly_coding import ProblemInstance, TrainConfig, TrainJob, validate
from butterfly_coding.code import _MATRIX_FIELDS
from butterfly_coding.train import _evaluate, _factors, _stack


def random_pd_instance(rng, n_max=16, z_max=None):
    n = int(rng.integers(2, n_max + 1))
    z = int(rng.integers(1, (z_max or n) + 1))
    a = int(rng.integers(1, n + 1))
    b = int(rng.integers(max(1, n - a), n + 1))
    f = rng.normal(size=(n, n))
    psi = f @ f.T + 0.1 * np.eye(n)
    k3 = rng.normal(size=(int(rng.integers(1, n + 2)), n))
    k4 = rng.normal(size=(int(rng.integers(1, n + 2)), n))
    return validate(ProblemInstance(n=n, psi=psi, a=a, b=b, z=z, k3=k3, k4=k4))


def decoupled_instance(inst, rng):
    """`inst`, a psi = I instance, planted behind a block-diagonal Cholesky
    factor L: one lower-triangular block over coordinates [0, n - b) and one
    over [n - b, n), psi = L L^T and each task K L^{-1}. Node 2's rows of L
    vanish left of column n - b, so its span is still the last b whitened
    axes, and the whitened tasks are inst's up to rounding."""
    n, b = inst.n, inst.b
    chol = np.zeros((n, n))
    for block in (slice(0, n - b), slice(n - b, n)):
        k = block.stop - block.start
        chol[block, block] = (np.tril(rng.normal(scale=0.3, size=(k, k)), -1)
                              + np.diag(rng.uniform(1.0, 2.0, k)))
    inv = np.linalg.inv(chol)
    return validate(ProblemInstance(n=n, psi=chol @ chol.T, a=inst.a, b=b, z=inst.z,
                                    k3=inst.k3 @ inv, k4=inst.k4 @ inv))


def random_rank_deficient_instance(rng, n_max=10):
    n = int(rng.integers(2, n_max + 1))
    r = int(rng.integers(1, n + 1))
    f = rng.normal(size=(n, r))
    psi = f @ f.T
    a = int(rng.integers(1, n + 1))
    b = int(rng.integers(max(1, n - a), n + 1))
    z = int(rng.integers(1, 4))
    k3 = rng.normal(size=(int(rng.integers(1, n + 2)), n))
    k4 = rng.normal(size=(int(rng.integers(1, n + 2)), n))
    return validate(ProblemInstance(n=n, psi=psi, a=a, b=b, z=z, k3=k3, k4=k4))


def rank_one_tasks_instance(u_first3, u_second3, u_first4, u_second4, mu=(2.0, 1.0)):
    """n=3 identity-covariance instance whose task eigenvectors are given
    explicitly; a = b = 2 so node 1 sees coordinates 1-2 and node 2 sees 2-3."""
    root = np.sqrt(np.asarray(mu))
    k3 = root[:, None] * np.column_stack([u_first3, u_second3]).T
    k4 = root[:, None] * np.column_stack([u_first4, u_second4]).T
    return validate(ProblemInstance(n=3, psi=np.eye(3), a=2, b=2, z=1, k3=k3, k4=k4))


def unachievable_dichotomy_instance():
    """Both sinks want e2 first; sink 3 also wants e3, sink 4 also wants e1.
    The rank conditions pass but sink 3's span is not covered by what its
    direct link and the shared relay direction can jointly carry."""
    e = np.eye(3)
    return rank_one_tasks_instance(e[:, 1], e[:, 2], e[:, 1], e[:, 0])


def achievable_dichotomy_instance():
    """Rotated variant of the same dimensions where the coverage conditions
    hold and the bound is achieved exactly."""
    u13 = np.array([1.0, 1.0, 3.0]) / np.sqrt(11.0)
    u23 = np.array([4.0, -7.0, 1.0]) / np.sqrt(66.0)
    u24 = np.array([-7.0, 4.0, 1.0]) / np.sqrt(66.0)
    return rank_one_tasks_instance(u13, u23, u13, u24)


def greedy_trap_instance():
    """The relay's best single direction by summed utility (e1, worth 10+0)
    wastes the shared link: routing e2 there instead lets the direct links
    carry e1 and e4, reaching zero loss."""
    u3 = np.eye(4)[:, [0, 1]]
    u4 = np.eye(4)[:, [3, 1]]
    k3 = np.sqrt(np.array([10.0, 1.0]))[:, None] * u3.T
    k4 = np.sqrt(np.array([9.0, 1.0]))[:, None] * u4.T
    return validate(ProblemInstance(n=4, psi=np.eye(4), a=3, b=3, z=1, k3=k3, k4=k4))


def calm_instance(rng, n_max=6):
    """Random instance rescaled so the total task energy is order one; plain
    gradient descent at the default rate stays stable on these."""
    inst = random_pd_instance(rng, n_max=n_max)
    s3 = np.trace(inst.k3 @ inst.psi @ inst.k3.T)
    s4 = np.trace(inst.k4 @ inst.psi @ inst.k4.T)
    k3 = inst.k3 / np.sqrt(max(s3, 1e-12))
    k4 = inst.k4 / np.sqrt(max(s4, 1e-12))
    return validate(ProblemInstance(n=inst.n, psi=inst.psi, a=inst.a,
                                    b=inst.b, z=inst.z, k3=k3, k4=k4))


def readme_config(name: str) -> dict:
    """The README's ```json block labelled `name` (e.g. "analyze.json"), the
    config its CLI commands run on."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for block in re.finditer(r"```json\n(.*?)```", text, re.S):
        if re.findall(r"`(\w+\.json)`", text[:block.start()])[-1] == name:
            return json.loads(block.group(1))
    raise KeyError(f"README has no {name} block")


def single_batch(mats, k3, k4, psi, dims):
    """One code, with the task factors of k3 and k4, as a lockstep batch of
    one."""
    n, a, b, z = dims
    job = TrainJob(ProblemInstance(n=n, psi=psi, a=a, b=b, z=z, k3=k3, k4=k4),
                   TrainConfig(epochs=1))
    return _stack([job], [((mats, _MATRIX_FIELDS, None), [(0, _factors(k3, k4, n))])])


def kernel_losses(mats, k3, k4, psi, n, a, b, z) -> tuple[float, float]:
    """(L3, L4) of one code, as the training kernel reads them."""
    l3, l4 = _evaluate(single_batch(mats, k3, k4, psi, (n, a, b, z)))
    return float(l3[0]), float(l4[0])


def kernel_gradients(mats, c3, c4, psi, n, a, b, z) -> dict[str, np.ndarray]:
    """Gradient of Tr(C3 R3 psi R3' C3') + Tr(C4 R4 psi R4' C4') for one
    code, as the training kernel computes it; any C_i with the task's Gram
    will do, such as the task matrix itself."""
    bt = single_batch(mats, c3, c4, psi, (n, a, b, z))
    _evaluate(bt, directions=True)
    return {name: -2.0 * bt.dirs[name][0] for name in _MATRIX_FIELDS}
