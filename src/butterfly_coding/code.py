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
from scipy.linalg import solve_triangular

from .model import (BadDimensions, ProblemInstance, TaskSpectrum, WhitenedInstance,
                    _is_identity, _node2_on_axes, _non_reals, _real_array)
from .subspace import DEFAULT_TOL, ToleranceConfig, _basis_and_top, _beyond


class InvalidSpan(ValueError):
    """A direct-link span leaves the sending node's observation span."""


@dataclass(frozen=True, eq=False)
class ButterflyCode:
    e13: np.ndarray   # Z x a
    e15: np.ndarray   # Z x a
    e24: np.ndarray   # Z x b
    e25: np.ndarray   # Z x b
    e56: np.ndarray   # Z x 2Z
    d3: np.ndarray    # n x 2Z
    d4: np.ndarray    # n x 2Z


@dataclass(frozen=True, eq=False)
class CodeSpans:
    """Link coefficient matrices in whitened coordinates, one column per dimension."""

    phi13: np.ndarray  # n x Z
    phi24: np.ndarray  # n x Z
    phi56: np.ndarray  # n x Z


_MATRIX_FIELDS = ("e13", "e15", "e24", "e25", "e56", "d3", "d4")


def _offsets(dims) -> dict[str, int]:
    """Where each block of a code's row [e56 | into5 | A3 A4 | d3 d4] starts,
    and its length as "end"."""
    n, _, _, z = dims
    into5 = 2 * z * z
    amap = into5 + 2 * z * n
    d = amap + 4 * z * n
    return {"e56": 0, "into5": into5, "amap": amap, "d": d, "end": d + 4 * z * n}


def _views(rows: np.ndarray, dims) -> dict[str, np.ndarray]:
    """Named views of (B, P) code rows laid out as in _offsets: the encoder
    maps into5 (B, 2Z, n) and A (2, B, 2Z, n), the decoders d (2, B, n, 2Z),
    and each code matrix at its place in them (e13 = A3[:Z, :a], e15 =
    into5[:Z, :a], ...). into5 stacks the two links into node 5, and A_i
    stacks sink i's direct block on the relay block. Entries of the maps
    outside the link blocks are not parameters, and A's relay rows
    ("relay") are e56 @ into5."""
    n, a, b, z = dims
    k, at = len(rows), _offsets(dims)
    e56 = rows[:, :at["into5"]].reshape(k, z, 2 * z)
    into5 = rows[:, at["into5"]:at["amap"]].reshape(k, 2 * z, n)
    amap = rows[:, at["amap"]:at["d"]].reshape(k, 2, 2 * z, n).swapaxes(0, 1)
    d = rows[:, at["d"]:].reshape(k, 2, n, 2 * z).swapaxes(0, 1)
    return {"into5": into5, "amap": amap, "d": d, "relay": amap[:, :, z:],
            "e13": amap[0, :, :z, :a], "e15": into5[:, :z, :a],
            "e24": amap[1, :, :z, n - b:], "e25": into5[:, z:, n - b:],
            "e56": e56, "d3": d[0], "d4": d[1]}


def _field_shapes(n: int, a: int, b: int, z: int) -> dict[str, tuple[int, int]]:
    """Shape of each ButterflyCode matrix, in _MATRIX_FIELDS order."""
    dims = (n, a, b, z)
    views = _views(np.empty((1, _offsets(dims)["end"])), dims)
    return {name: views[name].shape[1:] for name in _MATRIX_FIELDS}


def check_code_shapes(code: ButterflyCode, instance: ProblemInstance) -> ButterflyCode:
    """The code with each matrix a float array, once each is checked to hold
    only finite real numbers in its shape for `instance`; BadDimensions
    otherwise. Float arrays pass through uncopied."""
    mats = {}
    for name, shape in _field_shapes(instance.n, instance.a, instance.b, instance.z).items():
        mats[name] = _real_array(name, getattr(code, name))
        if mats[name].shape != shape:
            raise BadDimensions(f"{name} has shape {mats[name].shape}, expected {shape}")
        if not np.all(np.isfinite(mats[name])):
            raise BadDimensions(f"{name} contains non-finite entries")
    return ButterflyCode(**mats)


def _encoder_maps(code: ButterflyCode, instance: ProblemInstance) -> dict[str, np.ndarray]:
    """The code's encoders written into one row laid out as in _offsets, as
    its _views, with A's relay rows filled in; the decoder block stays zero."""
    dims = (instance.n, instance.a, instance.b, instance.z)
    maps = _views(np.zeros((1, _offsets(dims)["end"])), dims)
    for name in ("e13", "e15", "e24", "e25", "e56"):
        maps[name][0] = getattr(code, name)
    np.matmul(code.e56, maps["into5"][0], out=maps["relay"][0, 0])
    maps["relay"][1, 0] = maps["relay"][0, 0]
    return maps


def exact_loss(code: ButterflyCode, instance: ProblemInstance):
    """(L3, L4, L_total) as exact expectations, no sampling.

    L_i = Tr(K_i (I - D_i A_i) psi (I - D_i A_i)^T K_i^T), which only needs the
    covariance, so singular psi is fine. Each residual K_i (I - D_i A_i) is
    formed as K_i - (K_i D_i) A_i, on the thin factors: no n x n product
    D_i A_i and no identity. It equals the dense form to rounding.
    """
    a3, a4 = _encoder_maps(code, instance)["amap"][:, 0]
    m3 = instance.k3 - (instance.k3 @ code.d3) @ a3
    m4 = instance.k4 - (instance.k4 @ code.d4) @ a4
    if _is_identity(instance.psi):
        l3, l4 = float(np.sum(m3 * m3)), float(np.sum(m4 * m4))
    else:
        l3 = float(np.sum((m3 @ instance.psi) * m3))
        l4 = float(np.sum((m4 @ instance.psi) * m4))
    return l3, l4, l3 + l4


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """True iff x and y hold the same floats bit for bit (0.0 differs from
    -0.0), so that any function of one gives the other's result."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def optimal_decoders(code: ButterflyCode, instance: ProblemInstance,
                     tol: ToleranceConfig = DEFAULT_TOL):
    """Closed-form least-squares decoders (d3, d4) for the given encoders.

    D = psi A^T pinv(A psi A^T) zeroes the loss gradient for every task matrix
    simultaneously; the pseudo-inverse handles rank-deficient encoders. When
    the two sinks' Grams A psi A^T are equal bit for bit, as on the
    constructed codes, one pseudo-inverse serves both.
    """
    psi, out = instance.psi, []
    identity = _is_identity(psi)
    gram = pinv = None
    for am in _encoder_maps(code, instance)["amap"][:, 0]:
        # for psi = I, A psi and psi A^T are copies of A and A^T: the gram
        # stays a product of two buffers (one buffer and its transpose go to
        # syrk) and each left factor C-ordered, so the bits stay the same
        last, gram = gram, (am.copy() if identity else am @ psi) @ am.T
        if last is None or not _same_bits(gram, last):
            pinv = np.linalg.pinv(gram, rcond=tol.rank_tol, hermitian=True)
        out.append((am.T.copy() if identity else psi @ am.T) @ pinv)
    return out[0], out[1]


def with_optimal_decoders(code: ButterflyCode, instance: ProblemInstance,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    d3, d4 = optimal_decoders(code, instance, tol)
    return ButterflyCode(code.e13, code.e15, code.e24, code.e25, code.e56, d3, d4)


def flow_spans(code: ButterflyCode, spec: TaskSpectrum) -> CodeSpans:
    """Express each link signal as Phi^T L^{-1} x and return the Phi
    matrices, with L the Cholesky factor of the spectrum's instance: Phi^T
    = A L for the encoder maps A of _encoder_maps, which place each block at
    its node's columns. For psi = I, L = I and the Phi^T are A's rows.
    Otherwise the relay rows are formed as e56 (into5 L), in the order the
    signal passes the links; (e56 into5) L agrees only to rounding."""
    instance = spec.instance
    check_code_shapes(code, instance)
    z, chol = instance.z, spec.cholesky_l
    maps = _encoder_maps(code, instance)
    a3, a4 = maps["amap"][:, 0]
    if _is_identity(instance.psi):
        return CodeSpans(phi13=a3[:z].T, phi24=a4[:z].T, phi56=a3[z:].T)
    relay = code.e56 @ (maps["into5"][0] @ chol)
    return CodeSpans(phi13=(a3[:z] @ chol).T, phi24=(a4[:z] @ chol).T, phi56=relay.T)


def _fit_columns(basis_mat: np.ndarray, targets: np.ndarray, tol: ToleranceConfig):
    """Least-squares coefficients and per-column residual norms."""
    coeff, _, _, _ = np.linalg.lstsq(basis_mat, targets, rcond=tol.rank_tol)
    resid = basis_mat @ coeff - targets
    return coeff, np.linalg.norm(resid, axis=0)


def _fit_axes(chol: np.ndarray, rows: slice, targets: np.ndarray):
    """_fit_columns onto the span of the columns of L[rows, :]^T, for rows of
    L that are zero outside the columns `rows`: node 1's first a rows (L is
    lower-triangular), and node 2's last b rows when _node2_on_axes. The fit
    is a triangular solve against L[rows, rows]^T and the residual is the
    targets' rows outside `rows`."""
    coeff = solve_triangular(chol[rows, rows], targets[rows], lower=True, trans="T")
    return coeff, np.linalg.norm(np.delete(targets, rows, axis=0), axis=0)


def realize_spans(spans: CodeSpans, spec: TaskSpectrum,
                  tol: ToleranceConfig = DEFAULT_TOL) -> ButterflyCode:
    """Encoders whose flow spans reproduce the given Phi matrices columnwise,
    with decoders filled in by optimal_decoders.

    phi13 must lie in node 1's observation span and phi24 in node 2's
    (InvalidSpan otherwise). Each phi56 column is assigned wholly to the
    observation span that contains it, node 1's when both do; columns in
    neither span alone are split across both by minimum-norm least squares.
    The spans are in the whitened coordinates of the spectrum's instance.
    Node 1's fits are triangular solves (see _fit_axes), and so are node 2's
    when its span is the last b axes (_node2_on_axes, e.g. psi = I); else
    they are least-squares fits.
    """
    return with_optimal_decoders(_realize_encoders(spans, spec, tol), spec.instance, tol)


def _realize_encoders(spans: CodeSpans, spec: TaskSpectrum,
                      tol: ToleranceConfig) -> ButterflyCode:
    """realize_spans' encoders, with zero decoders."""
    instance, chol = spec.instance, spec.cholesky_l
    n, a, b, z = instance.n, instance.a, instance.b, instance.z
    u1 = chol[:a, :].T         # n x a
    u2 = chol[n - b :, :].T    # n x b
    scale = max(1.0, float(np.abs(chol).max()))

    def thresholds(mat):
        return tol.rank_tol * scale * np.maximum(1.0, np.linalg.norm(mat, axis=0))

    on_axes2 = _node2_on_axes(chol, b)

    def fit2(targets):
        if on_axes2:
            return _fit_axes(chol, slice(n - b, n), targets)
        return _fit_columns(u2, targets, tol)

    c13, r13 = _fit_axes(chol, slice(0, a), spans.phi13)
    if np.any(r13 > thresholds(spans.phi13)):
        raise InvalidSpan("phi13 leaves node 1's observation span")
    c24, r24 = fit2(spans.phi24)
    if np.any(r24 > thresholds(spans.phi24)):
        raise InvalidSpan("phi24 leaves node 2's observation span")

    phi56 = spans.phi56
    thr56 = thresholds(phi56)
    c1, r1 = _fit_axes(chol, slice(0, a), phi56)
    on1 = r1 <= thr56
    e15 = np.where(on1[:, None], c1.T, 0.0)
    e25 = np.zeros((z, b))
    rest = np.flatnonzero(~on1)
    if rest.size:
        c2, r2 = fit2(phi56[:, rest])
        on2 = r2 <= thr56[rest]
        e25[rest[on2]] = c2[:, on2].T
        split = rest[~on2]
        if split.size:
            cs, rs = _fit_columns(np.hstack([u1, u2]), phi56[:, split], tol)
            if np.any(rs > thr56[split]):
                raise InvalidSpan("phi56 column outside col(U1) + col(U2)")
            e15[split] = cs[:a].T
            e25[split] = cs[a:].T

    return ButterflyCode(
        e13=c13.T,
        e15=e15,
        e24=c24.T,
        e25=e25,
        e56=np.hstack([np.eye(z), np.eye(z)]),
        d3=np.zeros((n, 2 * z)),
        d4=np.zeros((n, 2 * z)),
    )


def utilities(code: ButterflyCode, spec: TaskSpectrum,
              tol: ToleranceConfig = DEFAULT_TOL):
    """(u56, u13, u24): captured task energy per link.

    u56 is the trace of S3 + S4 over the relay span, its orthonormal_basis
    xi. u13 is the trace of S3 over the directions that phi13 adds to xi
    (subspace._beyond), the orthogonal complement of the relay span inside
    sink 3's received span, so the three utilities never double-count a
    direction; u24 is symmetric. S3 and S4 are the spectrum's whitened task
    Grams. The relay is factored once, and each direct link once more on
    its residual against xi; when phi24 = phi13 bit for bit, as on a
    same-task construction, its directions serve both sinks.

    Traces do not depend on the basis of a span, so u13 equals the stacked
    definition Tr(S3 P_135) - Tr(S3 P_xi) wherever both rank rules count
    the same directions. On random codes they do at rank_tol 1e-14 through
    1e-6; at 1e-3 a few counts differ (3 of 1,200), with singular values
    near the threshold. The stacked difference also loses accuracy when a
    direct link is small next to the relay: its directions are resolved
    against the stack's largest singular value, which for phi13 and phi24
    scaled by 1e-9 costs up to 3e-6 relative, where this form stays at
    rounding.

    With decoders from optimal_decoders and well-conditioned encoders,
    u56 + u13 + u24 + L_total = Tr(S3) + Tr(S4).
    """
    spans = flow_spans(code, spec)
    s3, s4 = spec.s3, spec.s4

    def trace(s, vectors):
        return float(np.sum((s @ vectors) * vectors))

    xi, top = _basis_and_top(spans.phi56, tol)
    new13 = _beyond(xi.vectors, spans.phi13, top, tol)
    new24 = (new13 if _same_bits(spans.phi24, spans.phi13) else
             _beyond(xi.vectors, spans.phi24, top, tol))
    return trace(s3 + s4, xi.vectors), trace(s3, new13), trace(s4, new24)


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
    if not isinstance(doc, dict):
        raise BadDimensions(f"code document must be a JSON object, got {doc!r}")
    missing = set(_MATRIX_FIELDS) - set(doc)
    if missing:
        raise BadDimensions(f"code document missing fields: {sorted(missing)}")
    mats = {}
    for name in _MATRIX_FIELDS:
        try:
            shape, data = doc[name]["shape"], doc[name]["data"]
            if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                       for s in shape):
                raise ValueError(f"shape entries must be non-negative integers, got {shape!r}")
            for entry in _non_reals(data):
                raise ValueError(f"data entries must be real numbers, got {entry!r}")
            mats[name] = np.asarray(data, dtype=float).reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadDimensions(
                f"code field {name} must hold a \"shape\" and matching \"data\": {exc}"
            ) from None
    return ButterflyCode(**mats)
