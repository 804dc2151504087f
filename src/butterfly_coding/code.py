"""Butterfly codes: containers, exact loss evaluation, closed-form decoders,
span extraction and realization, and per-link utilities.

The network has sources 1 and 2, sinks 3 and 4, and a relay path 5 -> 6 that
multicasts the same Z-dimensional signal to both sinks. Sink 3 stacks the
direct signal from node 1 on top of the relay signal; sink 4 does the same
with node 2's direct signal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import BadDimensions, ProblemInstance, WhitenedInstance, _cholesky, spectrum
from .subspace import DEFAULT_TOL, ToleranceConfig, orthonormal_basis


class InvalidSpan(ValueError):
    """A direct-link span leaves the sending node's observation span."""


@dataclass(frozen=True)
class ButterflyCode:
    e13: np.ndarray   # Z x a
    e15: np.ndarray   # Z x a
    e24: np.ndarray   # Z x b
    e25: np.ndarray   # Z x b
    e56: np.ndarray   # Z x 2Z
    d3: np.ndarray    # n x 2Z
    d4: np.ndarray    # n x 2Z


@dataclass(frozen=True)
class CodeSpans:
    """Link coefficient matrices in whitened coordinates, one column per dimension."""

    phi13: np.ndarray  # n x Z
    phi24: np.ndarray  # n x Z
    phi56: np.ndarray  # n x Z


_MATRIX_FIELDS = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")


def _field_shapes(n: int, a: int, b: int, z: int) -> dict[str, tuple[int, int]]:
    """Shape of each ButterflyCode matrix, in _MATRIX_FIELDS order."""
    return {
        "e13": (z, a), "e15": (z, a),
        "e24": (z, b), "e25": (z, b),
        "e56": (z, 2 * z),
        "d3": (n, 2 * z), "d4": (n, 2 * z),
    }


def check_code_shapes(code: ButterflyCode, instance: ProblemInstance):
    expected = _field_shapes(instance.n, instance.a, instance.b, instance.z)
    for name, shape in expected.items():
        got = getattr(code, name).shape
        if got != shape:
            raise BadDimensions(f"{name} has shape {got}, expected {shape}")
        if not np.all(np.isfinite(getattr(code, name))):
            raise BadDimensions(f"{name} contains non-finite entries")


def _encoder_maps(code: ButterflyCode, n: int, a: int, b: int, z: int, out=None):
    """Relay input map and aggregated per-sink encoder maps acting on x.

    Returns (into5, A3, A4), each (..., 2Z, n): into5 stacks the two links
    into node 5, and A_i stacks sink i's direct block on the relay block.
    Leading axes of the code's matrices are batch axes. `out` takes three
    such arrays to fill in place; their entries outside the link blocks must
    be zero, and stay so.
    """
    if out is None:
        shape = np.shape(code.e56)[:-2] + (2 * z, n)
        out = (np.zeros(shape), np.zeros(shape), np.zeros(shape))
    into5, a3, a4 = out
    into5[..., :z, :a] = code.e15
    into5[..., z:, n - b :] = code.e25
    a3[..., :z, :a] = code.e13
    a4[..., :z, n - b :] = code.e24
    np.matmul(code.e56, into5, out=a3[..., z:, :])
    a4[..., z:, :] = a3[..., z:, :]
    return into5, a3, a4


def exact_loss(code: ButterflyCode, instance: ProblemInstance):
    """(L3, L4, L_total) as exact expectations, no sampling.

    L_i = Tr(K_i (I - D_i A_i) psi (I - D_i A_i)^T K_i^T), which only needs the
    covariance, so singular psi is fine.
    """
    _, a3, a4 = _encoder_maps(code, instance.n, instance.a, instance.b, instance.z)
    eye = np.eye(instance.n)
    m3 = instance.k3 @ (eye - code.d3 @ a3)
    m4 = instance.k4 @ (eye - code.d4 @ a4)
    l3 = float(np.sum((m3 @ instance.psi) * m3))
    l4 = float(np.sum((m4 @ instance.psi) * m4))
    return l3, l4, l3 + l4


def optimal_decoders(code: ButterflyCode, instance: ProblemInstance,
                     tol: ToleranceConfig = DEFAULT_TOL):
    """Closed-form least-squares decoders (d3, d4) for the given encoders.

    D = psi A^T pinv(A psi A^T) zeroes the loss gradient for every task matrix
    simultaneously; the pseudo-inverse handles rank-deficient encoders.
    """
    _, a3, a4 = _encoder_maps(code, instance.n, instance.a, instance.b, instance.z)
    out = []
    for am in (a3, a4):
        gram = am @ instance.psi @ am.T
        out.append(instance.psi @ am.T @ np.linalg.pinv(gram, rcond=tol.rank_tol, hermitian=True))
    return out[0], out[1]


def with_optimal_decoders(code: ButterflyCode, instance: ProblemInstance,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    d3, d4 = optimal_decoders(code, instance, tol)
    return ButterflyCode(code.e13, code.e15, code.e24, code.e25, code.e56, d3, d4)


def flow_spans(code: ButterflyCode, instance: ProblemInstance,
               tol: ToleranceConfig = DEFAULT_TOL) -> CodeSpans:
    """Express each link signal as Phi^T L^{-1} x and return the Phi matrices."""
    check_code_shapes(code, instance)
    chol = _cholesky(instance.psi, tol)
    a, b, n = instance.a, instance.b, instance.n
    rows1 = chol[:a, :]        # a x n, the observed rows of L
    rows2 = chol[n - b :, :]
    phi13 = (code.e13 @ rows1).T
    phi24 = (code.e24 @ rows2).T
    relay = code.e56 @ np.vstack([code.e15 @ rows1, code.e25 @ rows2])
    return CodeSpans(phi13=phi13, phi24=phi24, phi56=relay.T)


def _fit_columns(basis_mat: np.ndarray, targets: np.ndarray, tol: ToleranceConfig):
    """Least-squares coefficients and per-column residual norms."""
    coeff, _, _, _ = np.linalg.lstsq(basis_mat, targets, rcond=tol.rank_tol)
    resid = basis_mat @ coeff - targets
    return coeff, np.linalg.norm(resid, axis=0)


def realize_spans(spans: CodeSpans, instance: ProblemInstance,
                  tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    """Encoders whose flow spans reproduce the given Phi matrices columnwise,
    with decoders filled in by optimal_decoders.

    phi13 must lie in node 1's observation span and phi24 in node 2's
    (InvalidSpan otherwise). Each phi56 column is assigned wholly to the
    observation span that contains it; columns in neither span alone are split
    across both by minimum-norm least squares.
    """
    n, a, b, z = instance.n, instance.a, instance.b, instance.z
    chol = _cholesky(instance.psi, tol)
    u1 = chol[:a, :].T         # n x a
    u2 = chol[n - b :, :].T    # n x b
    scale = max(1.0, float(np.abs(chol).max()))

    def thresholds(mat):
        return tol.rank_tol * scale * np.maximum(1.0, np.linalg.norm(mat, axis=0))

    c13, r13 = _fit_columns(u1, spans.phi13, tol)
    if np.any(r13 > thresholds(spans.phi13)):
        raise InvalidSpan("phi13 leaves node 1's observation span")
    c24, r24 = _fit_columns(u2, spans.phi24, tol)
    if np.any(r24 > thresholds(spans.phi24)):
        raise InvalidSpan("phi24 leaves node 2's observation span")

    e15 = np.zeros((z, a))
    e25 = np.zeros((z, b))
    both = np.hstack([u1, u2])
    thr56 = thresholds(spans.phi56)
    for j in range(z):
        g = spans.phi56[:, j]
        c1, res1 = _fit_columns(u1, g[:, None], tol)
        if res1[0] <= thr56[j]:
            e15[j, :] = c1[:, 0]
            continue
        c2, res2 = _fit_columns(u2, g[:, None], tol)
        if res2[0] <= thr56[j]:
            e25[j, :] = c2[:, 0]
            continue
        cj, resj = _fit_columns(both, g[:, None], tol)
        if resj[0] > thr56[j]:
            raise InvalidSpan("phi56 column outside col(U1) + col(U2)")
        e15[j, :] = cj[:a, 0]
        e25[j, :] = cj[a:, 0]

    code = ButterflyCode(
        e13=c13.T,
        e15=e15,
        e24=c24.T,
        e25=e25,
        e56=np.hstack([np.eye(z), np.eye(z)]),
        d3=np.zeros((n, 2 * z)),
        d4=np.zeros((n, 2 * z)),
    )
    return with_optimal_decoders(code, instance, tol)


def utilities(code: ButterflyCode, instance: ProblemInstance,
              tol: ToleranceConfig = DEFAULT_TOL):
    """(u56, u13, u24): captured task energy per link.

    u56 is the trace of S3 + S4 over the relay span. u13 is the trace of S3
    over the orthogonal complement of the relay span inside sink 3's combined
    received span (so the three utilities never double-count a direction);
    u24 is symmetric.
    """
    spans = flow_spans(code, instance, tol)
    spec = spectrum(instance, tol)

    def subspace_trace(s, basis):
        if basis.dim == 0:
            return 0.0
        return float(np.sum((s @ basis.vectors) * basis.vectors))

    xi = orthonormal_basis(spans.phi56, tol, ambient_dim=instance.n)
    u56 = subspace_trace(spec.s3 + spec.s4, xi)
    b135 = orthonormal_basis(np.hstack([spans.phi13, spans.phi56]), tol, ambient_dim=instance.n)
    b245 = orthonormal_basis(np.hstack([spans.phi24, spans.phi56]), tol, ambient_dim=instance.n)
    u13 = subspace_trace(spec.s3, b135) - subspace_trace(spec.s3, xi)
    u24 = subspace_trace(spec.s4, b245) - subspace_trace(spec.s4, xi)
    return u56, u13, u24


def lift_code(whitened: WhitenedInstance, code: ButterflyCode,
              tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    """Map a code on the whitened inner instance back to the original instance.

    Link signals are preserved sample by sample, so both losses are unchanged
    for any decoders; the decoders are composed with the backward map.
    """
    return ButterflyCode(
        e13=code.e13 @ whitened.obs1_map,
        e15=code.e15 @ whitened.obs1_map,
        e24=code.e24 @ whitened.obs2_map,
        e25=code.e25 @ whitened.obs2_map,
        e56=code.e56.copy(),
        d3=whitened.backward_map @ code.d3,
        d4=whitened.backward_map @ code.d4,
    )


def code_to_json(code: ButterflyCode) -> str:
    doc = {}
    for name in _MATRIX_FIELDS:
        m = np.asarray(getattr(code, name), dtype=float)
        doc[name] = {"shape": list(m.shape), "data": m.reshape(-1).tolist()}
    return json.dumps(doc)


def code_from_json(text: str) -> ButterflyCode:
    doc = json.loads(text)
    missing = set(_MATRIX_FIELDS) - set(doc)
    if missing:
        raise BadDimensions(f"code document missing fields: {sorted(missing)}")
    mats = {}
    for name in _MATRIX_FIELDS:
        entry = doc[name]
        shape = tuple(int(s) for s in entry["shape"])
        mats[name] = np.asarray(entry["data"], dtype=float).reshape(shape)
    return ButterflyCode(**mats)
