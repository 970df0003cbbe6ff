"""Degree/adjacency matrix pencils and their dominant eigenpairs.

For a simple graph G and a rational weight alpha in [0, 1) the matrix of
interest is

    M_alpha(G) = alpha * D(G) + (1 - alpha) * A(G),

which interpolates between the adjacency matrix (alpha = 0) and half the
signless Laplacian Q(G) = D(G) + A(G) (alpha = 1/2).  alpha stays an exact
``fractions.Fraction`` until matrix assembly so that alpha == 1/2 is exact.

Dominant eigenpairs come from LAPACK's ``numpy.linalg.eigh``, in two
batched kernels that each solve a whole stack with one stacked call.
General graphs go through ``dense_spectra``: ``alpha_matrices`` assembles
M_alpha for a (B, k, k) stack of adjacency matrices, and the kernel solves
the stack.  ``alpha_matrix`` and ``spectral_radius`` are its one-graph
callers; the latter solves each connected component as a stack of one and
keeps the largest radius.  Threshold graphs have ``family_spectra``, on their
run quotients: maximal runs of equal creation symbols (the first vertex joins
the second's run; a trailing ``I`` run is split off as isolated vertices) are
twin classes, hence an equitable partition, so rho is the top eigenvalue of
the symmetrised quotient and the Perron vector is constant on each run.
``threshold_spectrum`` is its cached one-graph call.  Every pair is
certified: the vector's sign makes its sum positive, no entry may be
negative beyond rounding, and the infinity-norm residual of the full
n-vector against M_alpha must stay below ``RESIDUAL_TOL`` (for threshold
graphs by an O(n) prefix-sum product in creation order).

Besides the two kernels the module holds ``same_radius``, the one rule by
which two radii count as equal, and ``char_poly``, the exact characteristic
polynomial of a small rational matrix such as a run quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graphs import DOMINATING, LabeledGraph, ThresholdGraph

#: Bound on the infinity-norm eigen-residual of a returned pair, and on the
#: rounding allowed below zero in its Perron entries.
RESIDUAL_TOL = 1e-11

#: Absolute tolerance when comparing spectral radii of two different graphs.
RHO_COMPARE_TOL = 1e-9

HALF = Fraction(1, 2)


def same_radius(rho1, rho2):
    """Whether two spectral radii count as equal (elementwise): the tie rule of every verdict."""
    return abs(rho1 - rho2) <= RHO_COMPARE_TOL


class NonConvergenceError(RuntimeError):
    """An eigenpair failed its certificate; carries the residual."""

    def __init__(self, residual: float, detail: str = ""):
        super().__init__(
            f"eigensolver did not converge: residual {residual:.3e} "
            f"(bound {RESIDUAL_TOL:.0e}){detail}"
        )
        self.residual = residual


def as_alpha(value) -> Fraction:
    """Normalize alpha to an exact Fraction in [0, 1).

    Accepts Fraction (returned as is), int, or a string such as ``"1/2"`` or
    ``"0.75"`` (the decimal is converted to the exact rational of its literal
    digits).  Floats are rejected to keep the alpha = 1/2 equality test exact.
    A zero denominator, and an alpha below 1 whose float is 1.0 (matrix
    assembly would drop A entirely), raise ValueError.
    """
    if isinstance(value, float):
        raise TypeError("alpha must be an exact rational (Fraction, int, or string), not float")
    try:
        alpha = value if isinstance(value, Fraction) else Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"alpha has a zero denominator: {value!r}") from None
    num, den = alpha.numerator, alpha.denominator
    if not 0 <= num < den:
        raise ValueError(f"alpha must satisfy 0 <= alpha < 1, got {alpha}")
    # Exact integer tests: num/den rounds half-even to 1.0 iff 1 - alpha <= 2**-54.
    if (den - num) << 54 <= den:
        raise ValueError(f"alpha {alpha} is below 1 but rounds to 1.0 as a float, so 1 - alpha would be 0")
    return alpha


def alpha_matrices(adj: np.ndarray, alpha) -> np.ndarray:
    """alpha*D + (1-alpha)*A for each 0/1 adjacency matrix of a (..., k, k) stack."""
    a = float(as_alpha(alpha))
    mats = (1.0 - a) * adj
    diag = np.arange(adj.shape[-1])
    mats[..., diag, diag] = a * adj.sum(axis=-1)
    return mats


def alpha_matrix(g: LabeledGraph, alpha) -> np.ndarray:
    """Dense n x n matrix alpha*D + (1-alpha)*A for the given graph."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges:
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = True
    return alpha_matrices(adj, alpha)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Dominant eigenpair of one (graph, alpha) pair plus solver diagnostics.

    ``perron`` has unit Euclidean norm and entries that are nonnegative up to
    rounding; on a disconnected graph it is supported on the component
    attaining the radius.  ``residual`` is the certified infinity-norm
    eigen-residual.  ``iterations`` is 0: the direct solver does not iterate.
    """

    rho: float
    perron: np.ndarray
    iterations: int
    residual: float


def _gate(worst: float, low: float) -> None:
    """Raise unless the largest residual and the least Perron entry are in bounds."""
    if not worst <= RESIDUAL_TOL:
        raise NonConvergenceError(worst)
    if low < -RESIDUAL_TOL:
        raise NonConvergenceError(worst, detail=f"; Perron entry {low:.3e} is negative")


def dense_spectra(mats: np.ndarray):
    """Certified top eigenpairs of a (B, k, k) stack of symmetric matrices.

    Returns radii and residuals of shape (B,) and unit vectors of shape
    (B, k) with nonnegative sums; raises NonConvergenceError if any row fails
    its certificate.  One stacked ``eigh`` solves each matrix exactly as a
    lone call would, so each radius is bit for bit the one-matrix radius.
    """
    vals, vecs = np.linalg.eigh(mats)
    rho = vals[:, -1]
    top = vecs[:, :, -1]
    top = np.where(top.sum(axis=1, keepdims=True) >= 0.0, top, -top)
    residual = np.abs((mats @ top[:, :, None])[:, :, 0] - rho[:, None] * top).max(axis=1)
    _gate(float(residual.max()), float(top.min()))
    return rho, top, residual


def spectral_radius(g: LabeledGraph, alpha) -> Spectrum:
    """Spectral radius and Perron vector of M_alpha(g), by ``dense_spectra``.

    Disconnected graphs are solved component by component and the radius is
    the maximum over components (ties go to the component containing the
    smallest vertex, which still yields a genuine eigenvector).
    """
    mat = alpha_matrix(g, alpha)
    best = None  # (rho, component indices, unit vector, residual)
    for comp in g.components():
        idx = np.array(comp) - 1
        rho, vec, residual = dense_spectra(mat[np.ix_(idx, idx)][None])
        if best is None or rho[0] > best[0]:
            best = (float(rho[0]), idx, vec[0], float(residual[0]))

    rho, idx, vec, resid = best
    perron = np.zeros(g.n)
    perron[idx] = vec
    perron.setflags(write=False)
    return Spectrum(rho=rho, perron=perron, iterations=0, residual=resid)


def threshold_spectrum(g: ThresholdGraph, alpha) -> Spectrum:
    """Cached spectrum of a threshold graph in its stepwise vertex order."""
    return _threshold_spectrum(g, as_alpha(alpha))


# Bounded so that long sweeps keep flat memory.  Scans never repeat a graph;
# the rewiring certificates revisit spectra only near the current host, and
# their hit count was the same at every bound from 64 to 4096 as unbounded.
@lru_cache(maxsize=1024)
def _threshold_spectrum(g: ThresholdGraph, alpha: Fraction) -> Spectrum:
    """The one-graph call of ``family_spectra``, lifted to stepwise labels."""
    dom = np.array([sym == DOMINATING for sym in g.creation])
    rho, x, residual = family_spectra(dom[None], alpha)
    # Stepwise labels sort vertices by descending degree: D steps latest first,
    # then I steps earliest first; only twins, with equal entries, tie.
    perron = x[0, np.concatenate((dom.nonzero()[0][::-1], (~dom).nonzero()[0]))]
    perron.setflags(write=False)
    return Spectrum(rho=float(rho[0]), perron=perron, iterations=0, residual=float(residual[0]))


def family_spectra(dom: np.ndarray, alpha: Fraction):
    """Certified radii of a batch of threshold graphs, one per row of ``dom``.

    ``dom`` is a (B, n) bool matrix of dominating creation steps (column 0 is
    never set).  Returns radii and residuals of shape (B,) and unit Perron
    vectors of shape (B, n) in creation order; raises NonConvergenceError if
    any row fails its certificate.  For runs i < j of sizes n_i, n_j the
    quotient has S_ii = a*deg_i + (1-a)(n_i - 1)[run i is D] and
    S_ij = (1-a) sqrt(n_i n_j) [run j is D].  Quotients are grouped by run
    count, one stacked ``eigh`` per group with no padding, so each radius is
    bit for bit the one a lone solve of its quotient gives.
    """
    a = float(alpha)
    count, n = dom.shape
    # deg_i = D_i * i + #{j > i : D_j}.  Degree-0 vertices are isolated; the
    # others fall into runs of equal degree, which are the runs of equal
    # symbols except that the first vertex joins the second's run.
    deg = dom * np.arange(-1, n - 1) + dom[:, ::-1].cumsum(axis=1)[:, ::-1]
    a_deg = a * deg
    live = deg > 0
    # cut[:, i + 1] marks vertex i as the last of its run; column 0 opens run 0.
    cut = np.empty((count, n + 1), dtype=bool)
    cut[:, 0] = True
    cut[:, 1:-1] = (deg[:, :-1] != deg[:, 1:]) & live[:, :-1]
    cut[:, -1] = live[:, -1]
    runs = cut.sum(axis=1) - 1
    rho = np.zeros(count)
    per_run = np.zeros((count, n + 2))  # run j in column j + 1; isolated vertices read zeros
    ks = set(runs.tolist())
    for k in ks - {0}:
        rows = (runs == k).nonzero()[0]
        bounds = cut[rows].nonzero()[1].reshape(len(rows), k + 1)
        at = (rows[:, None], bounds[:, 1:] - 1)
        size = (bounds[:, 1:] - bounds[:, :-1]).astype(float)
        sym = dom[at]
        pos = np.arange(k)
        root = np.sqrt(size)
        quotient = (1.0 - a) * sym[:, np.maximum.outer(pos, pos)] * (root[:, :, None] * root[:, None, :])
        quotient[:, pos, pos] = a_deg[at] + (1.0 - a) * sym * (size - 1.0)
        vals, vecs = np.linalg.eigh(quotient)
        top = vecs[:, :, -1]
        rho[rows] = vals[:, -1]
        per_run[rows, 1 : k + 1] = top / np.copysign(root, top.sum(axis=1, keepdims=True))
    # Vertex i reads column 1 + (runs closed before i): isolated ones read 0.
    x = per_run[np.arange(count)[:, None], cut[:, :-1].cumsum(axis=1)]
    if 0 in ks:  # edgeless: every vertex is its own component with radius 0
        x[runs == 0, 0] = 1.0

    # Certified in creation order by the definition itself:
    # (Ax)_i = D_i * sum_{j<i} x_j + sum_{j>i} D_j x_j.
    dom_x = (dom * x).cumsum(axis=1)
    ax = dom * (x.cumsum(axis=1) - x) + (dom_x[:, -1:] - dom_x)
    residual = np.abs((a_deg - rho[:, None]) * x + (1.0 - a) * ax).max(axis=1)
    _gate(float(residual.max()), float(x.min()))
    return rho, x, residual


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
