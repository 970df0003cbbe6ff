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
the stack.  ``spectral_radius`` alone picks the kernel for one graph: a
``ThresholdGraph`` reads ``threshold_spectrum``, any other graph is solved
densely, component by component.  ``definite_above`` spares a scan the matrices
whose x I - M_alpha has only positive Cholesky pivots, which proves rho
below x + 64 k^2 eps (|x| + k).  Threshold graphs have one kernel,
``family_spectra``, on their run quotients: maximal runs of equal creation
symbols (the first vertex joins the second's run; a trailing ``I`` run is
split off as isolated vertices) are twin classes, hence an equitable
partition, so rho is the top eigenvalue of the symmetrised quotient and the
Perron vector is constant on each run.  A scan passes it only the leaves of
its walk that ``count_above``, an O(n) count of the eigenvalues above x by
the inertia of a tridiagonal congruent to M_alpha - xI, does not prove below
the family's top radii; on a walk node's supergraph, that count, not a
residual, certifies every member under the node.
``threshold_spectrum``, the cached one-graph entry, reads a connected
graph's row from a table of its order's 2^(n-2) connected graphs (those whose
creation sequence ends in D), solved in one call at each alpha, when the
order has at most ``FAMILY_CHUNK`` threshold graphs (n <= 10); any other
graph is a batch of one row.  Every pair is certified: the vector's sign makes
its sum positive, no entry may be negative beyond rounding, and the
infinity-norm residual of the full n-vector against M_alpha must stay below
``RESIDUAL_TOL`` (for threshold graphs by an O(n) prefix-sum product in
creation order).  A scan's chunk fails as a whole; a table row is gated on
its own, so the error names the requested graph's residual.

Besides the two kernels the module holds ``same_radius``, the one rule by
which two radii count as equal.
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

#: Rows per block: a threshold scan expands, tests and solves its walk's
#: frontier in blocks of at most this many bool rows, and an order with at
#: most this many threshold graphs (n <= 10) has its connected graphs solved
#: as one table for ``threshold_spectrum``.  It bounds the memory of both.
FAMILY_CHUNK = 512


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
    its certificate (an empty stack passes).  One stacked ``eigh`` solves each
    matrix exactly as a lone call would, so each radius is bit for bit the one-matrix radius.
    """
    vals, vecs = np.linalg.eigh(mats)
    rho = vals[:, -1]
    top = vecs[:, :, -1]
    top = np.where(top.sum(axis=1, keepdims=True) >= 0.0, top, -top)
    residual = np.abs((mats @ top[:, :, None])[:, :, 0] - rho[:, None] * top).max(axis=1)
    _gate(float(residual.max(initial=0.0)), float(top.min(initial=0.0)))
    return rho, top, residual


def spectral_radius(g: LabeledGraph | ThresholdGraph, alpha) -> Spectrum:
    """Spectral radius and Perron vector of M_alpha(g), from the one kernel that suits g.

    A ``ThresholdGraph`` reads ``threshold_spectrum`` (in ``to_labeled``'s labels);
    any other graph goes to ``dense_spectra`` by component, the largest radius wins
    (ties go to the smallest vertex's component, still a genuine eigenvector).
    """
    if isinstance(g, ThresholdGraph):
        return threshold_spectrum(g, alpha)
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
    alpha = as_alpha(alpha)
    return _threshold_spectrum(g.text, alpha.numerator, alpha.denominator)


# The Spectrum cache, keyed by creation sequence and alpha's numerator and
# denominator (a Fraction hashes in Python): a miss reads one row of the
# threshold kernel in one of its two call shapes and gates that row alone.
# Bounded so that long sweeps keep flat memory; rewiring certificates revisit
# spectra only near the current host, and hit as often at every bound from
# 64 to 4096 as unbounded.
@lru_cache(maxsize=1024)
def _threshold_spectrum(text: str, num: int, den: int) -> Spectrum:
    """The row of ``family_spectra`` for creation sequence ``text`` at alpha = num/den, certified on its own, in stepwise labels."""
    n = len(text)
    if 1 << (n - 1) <= FAMILY_CHUNK and text[-1] == DOMINATING:
        table, row = _order_table(n, num, den), sum((s == DOMINATING) << (j - 1) for j, s in enumerate(text[1:-1], 1))
    else:
        table, row = _stepwise_spectra(np.array([[sym == DOMINATING for sym in text]]), Fraction(num, den)), 0
    rho, perron, residual = float(table[0][row]), table[1][row].copy(), float(table[2][row])
    _gate(residual, float(perron.min()))
    perron.setflags(write=False)  # a copy, so that a cached Spectrum does not keep its table alive
    return Spectrum(rho=rho, perron=perron, iterations=0, residual=residual)


@lru_cache(maxsize=16)  # 256 rows of 12 floats at n = 10; a sweep of one order keeps its alphas' tables
def _order_table(n: int, num: int, den: int):
    """Ungated stepwise rows of the connected threshold graphs on n > 1 vertices; row r has D at n - 1, and at j >= 1 for bit j - 1."""
    return _stepwise_spectra(_rows(np.arange(1 << (n - 2)) << 1 | 1 << (n - 1), n), Fraction(num, den))


def _rows(masks, n: int) -> np.ndarray:
    """The (len(masks), n) bool matrix of the low n bits of the given bitmasks (n < 64)."""
    return np.asarray(masks, dtype=np.int64).reshape(-1, 1) >> np.arange(n) & 1 == 1


def _stepwise_spectra(dom: np.ndarray, alpha: Fraction):
    """Ungated rows, Perron vectors stably sorted by descending degree (only twins, equal entries, tie)."""
    rho, x, residual, deg = _family_rows(dom, alpha)
    return rho, np.take_along_axis(x, np.argsort(-deg, axis=1, kind="stable"), axis=1), residual


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
    rho, x, residual, _ = _family_rows(dom, alpha)
    _gate(float(residual.max()), float(x.min()))
    return rho, x, residual


def _family_rows(dom: np.ndarray, alpha: Fraction):
    """The kernel of ``family_spectra``, ungated: radii, creation-order vectors, residuals and degrees."""
    a = float(alpha)
    count, n = dom.shape
    # Degree-0 vertices are isolated; the others fall into runs of equal
    # degree, which are the runs of equal symbols except that the first
    # vertex joins the second's run.
    deg = _degrees(dom)
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
    return rho, x, residual, deg


def _degrees(dom: np.ndarray) -> np.ndarray:
    """Creation-order degrees per row: deg_i = D_i * i + #{j > i : D_j}."""
    return dom * np.arange(-1, dom.shape[1] - 1) + dom[:, ::-1].cumsum(axis=1)[:, ::-1]


def count_above(dom: np.ndarray, alpha: Fraction, x):
    """Per row of ``dom``: how many eigenvalues of M_alpha exceed x (a float or a (B, 1) column).

    With delta_i = a*deg_i - x - (1-a) D_i, delta_n = D_n = 0 and E subtracting
    row i+1 from row i, T = E (M - xI) E^T has T_ii = delta_i + delta_{i+1} +
    (1-a)(D_i - D_{i+1}) and T_{i,i+1} = -delta_{i+1} (Jacobs, Trevisan and Tura,
    Linear Algebra Appl. 439, 2013), and its positive LDL^T pivots count.  Also
    returns the rows with a zero or non-finite pivot, whose counts are unsure,
    and ``error`` = 64 n^2 eps (max|T| + max|x| + 1): forming T and its pivots
    is backward stable to a few eps (max|T| + |x| + 1) an entry, and
    ||E^-1||_2 <= n, so a sure count of 0 proves rho <= x + ``error``.
    """
    a, n = float(alpha), dom.shape[1]
    # Transposed: row i of each (n, B) array is step i of every graph.
    step = (1.0 - a) * dom.T  # (1-a) D_i
    delta = (a * _degrees(dom)).T.copy()
    delta -= np.transpose(x)
    delta -= step
    off = delta[1:]  # off[i] = delta_{i+1}
    diag = delta.copy()
    diag[:-1] += off
    diag[:-1] += step[:-1] - step[1:]
    diag[-1] += step[-1]
    pivots, square = diag.copy(), off * off
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, n):
            pivots[i] -= np.divide(square[i - 1], pivots[i - 1], out=square[i - 1])
    scale = max(diag.max(), -diag.min(), off.max(initial=0.0), -off.min(initial=0.0)) + np.abs(x).max() + 1.0
    error = 64 * n * n * np.finfo(float).eps * scale
    return np.count_nonzero(pivots > 0, axis=0), (~np.isfinite(pivots) | (pivots == 0)).any(axis=0), error


def definite_above(mats: np.ndarray, x: np.ndarray):
    """Per matrix M of a (B, k, k) symmetric stack: whether every Cholesky pivot of x I - M is positive (x of shape (B,)).

    Cholesky is backward stable: if it completes, R^T R = x I - M + E with ||E||_2 <= gamma_{k+1} tr(R^T R), and
    tr(x I - M) <= k |x|; so a row with every pivot positive has rho(M) below x + ``error``, 64 k^2 eps (|x| + k)
    per row, forming x I - M included.
    """
    k = mats.shape[-1]
    a, diag, sure = np.moveaxis(-mats, 0, -1).copy(), np.arange(k), np.ones(len(mats), dtype=bool)  # (k, k, B)
    a[diag, diag] += x
    for j in range(k):
        sure &= a[j, j] > 0
        r = a[j, j + 1 :] / np.sqrt(np.where(sure, a[j, j], 1.0))
        a[j + 1 :, j + 1 :] -= r[:, None] * r[None, :]
    return sure, 64 * k * k * np.finfo(float).eps * (np.abs(x) + k)
