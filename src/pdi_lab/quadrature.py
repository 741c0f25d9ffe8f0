"""One fixed Gauss-Legendre rule, vectorized across integrals.

``gauss_legendre(f, a, b)`` integrates f over every interval [a, b] of
the broadcast arrays a, b with one call of f, on the
``SAMPLE_PANEL_NODES`` nodes of all the intervals (shape
``broadcast(a, b).shape + (8,)``). f returns values whose last axis runs
over the nodes; its other axes may broadcast further, as when a and b
are scalars and f closes over per-interval arrays. The rule is exact for
polynomials of degree 15 on each interval, so piecewise-polynomial data
integrate exactly on panels that break at the sample nodes
(``sample_panels``). Its nodes and weights are float literals, equal bit
for bit to ``numpy.polynomial.legendre.leggauss(8)``, so no run imports
``numpy.polynomial`` for them. ``gauss_jacobi`` is the rule of the
weight |r - z|^beta at one end z of each interval, for the power of a
piecewise-linear interpolant that vanishes there. Node counts are module
constants; nothing adapts, so a result is a fixed function of its
inputs.
"""

from __future__ import annotations

import functools

import numpy as np

# Nodes per panel between consecutive sample nodes: exact for an
# integrand that is a polynomial of degree <= 15 there, such as |f|^s
# rho^(dim-1) for a piecewise-linear f of one sign, integer s and
# s + dim <= 16.
SAMPLE_PANEL_NODES = 8

# The SAMPLE_PANEL_NODES-point rule on [-1, 1], read-only.
_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
_NODES.setflags(write=False)
_WEIGHTS.setflags(write=False)


def gauss_legendre(f, a, b):
    """int_a^b f for every interval of the broadcast arrays a, b."""
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return (f(a + half * (_NODES + 1.0)) @ _WEIGHTS) * half[..., 0]


@functools.lru_cache(maxsize=None)
def _jacobi_rule(n: int, beta: float):
    """Nodes and weights of the n-point Gauss rule of the weight
    (1 + x)^beta on [-1, 1], beta > 0, read-only: the eigenvalues and first
    eigenvector components of the Jacobi matrix of the monic Jacobi
    polynomials (Golub & Welsch, *Calculation of Gauss quadrature rules*,
    Math. Comp. 23, 1969)."""
    c = 2.0 * np.arange(n) + beta  # 2k + beta
    k, ck = np.arange(1.0, n), c[1:]
    off = np.sqrt(4.0 * k**2 * (k + beta) ** 2 / (ck**2 * (ck + 1.0) * (ck - 1.0)))
    x, v = np.linalg.eigh(np.diag(beta**2 / (c * (c + 2.0))) + np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_jacobi(f, z, e, n: int, beta: float):
    """int of ((r - z) / (e - z))^beta f(r) over the interval between z and
    e, for every pair of the broadcast arrays z, e (either may be the
    larger): exact for polynomials f of degree 2n - 1, whatever beta > 0."""
    x, w = _jacobi_rule(n, beta)
    z = np.asarray(z, dtype=float)[..., None]
    e = np.asarray(e, dtype=float)[..., None]
    half = 0.5 * (e - z)
    return (f(z + half * (x + 1.0)) @ w) * (np.abs(half[..., 0]) * 0.5**beta)


def sample_panels(grid: np.ndarray, a: float, b: float) -> np.ndarray:
    """Edges of the panels that split [a, b] at the sample nodes inside it."""
    return np.concatenate(([a], grid[(grid > a) & (grid < b)], [b]))
