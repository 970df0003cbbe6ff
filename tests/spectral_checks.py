"""Signless-Laplacian, characteristic-polynomial and Perron-structure checks used by criteria 4 and 7.

No CLI verdict uses these, so they live with the tests that do.
"""

from fractions import Fraction

import numpy as np

from quasistar.graphs import LabeledGraph, is_threshold
from quasistar.spectra import HALF, RHO_COMPARE_TOL, spectral_radius


def rho_of(g, alpha) -> float:
    """Spectral radius as a float; accepts LabeledGraph or ThresholdGraph."""
    return spectral_radius(g, alpha).rho


def signless_laplacian_radius(g) -> float:
    """Largest eigenvalue q(G) of D + A, computed as 2 * rho_{1/2}(G)."""
    return 2.0 * rho_of(g, HALF)


def q_upper_bound(n: int, m: int) -> float:
    """The bound 2m/(n-1) + n - 2 on q(G) for connected graphs.

    Attained exactly by stars and complete graphs.
    """
    if n < 2:
        raise ValueError("bound requires n >= 2")
    return 2.0 * m / (n - 1) + n - 2


def perron_order_check(g: LabeledGraph, alpha, tol: float = RHO_COMPARE_TOL):
    """Neighborhood-containment and degree-order checks on the Perron vector.

    Returns a list of violations, each a tuple (kind, u, v) with kind one of
    ``"strict"`` (N(u)\\{v} strictly contains N(v)\\{u} but x_u is not larger
    beyond tol), ``"equal"`` (equal punctured neighborhoods but entries differ
    beyond tol), or ``"order"`` (threshold host whose entries are not
    non-increasing along the degree-descending order).  An empty list means
    every check passed.
    """
    if not g.is_connected:
        raise ValueError("perron_order_check requires a connected graph")
    spec = spectral_radius(g, alpha)
    x = spec.perron
    nbrs = g.neighbor_sets()
    violations = []
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            nu = nbrs[u] - {v}
            nv = nbrs[v] - {u}
            if nu == nv:
                if abs(x[u - 1] - x[v - 1]) > tol:
                    violations.append(("equal", u, v))
            elif nu > nv:
                if x[u - 1] - x[v - 1] <= tol:
                    violations.append(("strict", u, v))
            elif nv > nu:
                if x[v - 1] - x[u - 1] <= tol:
                    violations.append(("strict", v, u))
    if is_threshold(g):
        deg = g.degrees()
        order = sorted(range(1, g.n + 1), key=lambda v: (-deg[v - 1], v))
        for prev, nxt in zip(order, order[1:]):
            if x[nxt - 1] > x[prev - 1] + tol:
                violations.append(("order", prev, nxt))
    return violations


def char_poly(matrix) -> list[Fraction]:
    """Monic characteristic polynomial det(xI - M), descending coefficients.

    Faddeev-LeVerrier recursion in exact Fraction arithmetic, so integral
    inputs give exact integer coefficients, at any size: with M_0 = 0,
    M_j = M M_{j-1} + c_{j-1} I and c_j = -tr(M M_j) / j.
    """
    rows = [[_to_fraction(x) for x in row] for row in matrix]
    k = len(rows)
    if k == 0 or any(len(row) != k for row in rows):
        raise ValueError("matrix must be square and non-empty")

    coeffs = [Fraction(1)]
    acc = [[Fraction(0)] * k for _ in range(k)]  # M_0
    for j in range(1, k + 1):
        acc = [[sum(rows[i][t] * acc[t][c] for t in range(k)) + (coeffs[-1] if i == c else 0)
                for c in range(k)] for i in range(k)]
        coeffs.append(-sum(rows[i][t] * acc[t][i] for i in range(k) for t in range(k)) / j)
    return coeffs


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    return Fraction(float(x))
