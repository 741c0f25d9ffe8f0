"""One fixed Gauss-Legendre rule, vectorized across integrals.

``gauss_legendre(f, a, b, n)`` integrates f over every interval [a, b]
of the broadcast arrays a, b with one call of f, on the nodes of all the
intervals (shape ``broadcast(a, b).shape + (n,)``). f returns values
whose last axis runs over the nodes; its other axes may broadcast
further, as when a and b are scalars and f closes over per-interval
arrays. The rule is exact for polynomials of degree 2n - 1 on each
interval, so piecewise-polynomial data integrate exactly on panels that
break at the sample nodes (``sample_panels``). Node counts are module
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


@functools.lru_cache(maxsize=None)
def _rule(n: int):
    """Nodes and weights of the n-point rule on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(f, a, b, n: int):
    """int_a^b f for every interval of the broadcast arrays a, b."""
    x, w = _rule(n)
    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return (f(a + half * (x + 1.0)) @ w) * half[..., 0]


def sample_panels(grid: np.ndarray, a: float, b: float) -> np.ndarray:
    """Edges of the panels that split [a, b] at the sample nodes inside it."""
    return np.concatenate(([a], grid[(grid > a) & (grid < b)], [b]))
