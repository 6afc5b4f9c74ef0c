"""Adaptive panel quadrature used by the Casimir integrals.

Composite Gauss-Legendre rule over a list of panel edges; the panel set is
refined by bisecting every panel until two successive refinements agree.
Integrands must be vectorized over the node array (real or complex values).
An integrand may also return a stack of components, nodes along the last
axis.  The scheme is deliberately simple: the integrands here are smooth
between well-understood breakpoints (kernel scale 1/2z, light line, plasmon
pole), which the caller supplies as initial edges.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: nodes per integrand call on deep levels, which go in groups of panels
_CHUNK_NODES = 1 << 13


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to converge; carries the residual estimate."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


@lru_cache(maxsize=8)
def _gauss_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_sum(f, mid, half, x, w):
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return (f(nodes) * weights).sum(axis=-1)


def fixed_panels(f, edges, order: int = 24):
    """Composite Gauss-Legendre integral of f over consecutive [e_i, e_i+1]."""
    edges = np.asarray(edges, dtype=float)
    x, w = _gauss_nodes(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    step = max(1, _CHUNK_NODES // order)
    if half.size <= step:
        return _panel_sum(f, mid, half, x, w)
    return sum(_panel_sum(f, mid[i:i + step], half[i:i + step], x, w)
               for i in range(0, half.size, step))


def integrate_refined(f, edges, rtol: float = 1e-9, order: int = 24,
                      max_doublings: int = 12):
    """Integrate f, bisecting all panels until successive sums agree.

    Convergence: |I_k - I_{k-1}| <= rtol * |I_k|, in every component.
    Returns (value, error_estimate); raises QuadratureError when the budget
    of doublings is exhausted, or once two successive sums are not finite.
    """
    edges = np.unique(np.asarray(edges, dtype=float))
    if edges.size < 2:
        raise ValueError("need at least two distinct edges")
    prev = fixed_panels(f, edges, order)
    for _ in range(max_doublings):
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.sort(np.concatenate([edges, mids]))
        cur = fixed_panels(f, edges, order)
        err = abs(cur - prev)
        excess = err - rtol * abs(cur)
        if isinstance(excess, np.ndarray):  # stacked; .max() costs ~1.5 us
            excess = excess.max()
        if excess <= 0.0:
            return cur, err
        if not excess < math.inf and not (np.isfinite(prev).all()
                                          or np.isfinite(cur).all()):
            raise QuadratureError("integrand is not finite", np.max(err))
        prev = cur
    raise QuadratureError("quadrature did not converge", np.max(err))


def clip_edges(candidates, lo: float, hi: float):
    """Sorted unique edge list restricted to [lo, hi], endpoints included."""
    pts = [lo, hi] + [p for p in candidates if lo < p < hi]
    return np.unique(np.asarray(pts, dtype=float))
