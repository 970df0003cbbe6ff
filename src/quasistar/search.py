"""Exhaustive searches over graph families of fixed order and size.

Threshold graphs of order n biject with creation sequences; step i (0-based)
adds i edges when it dominates and connected members end in D, so a family is
a subset-sum walk.  The walk decides the steps top down, take before skip, so
it meets a family's members in descending creation mask (bit i set when step i
dominates), and subset-sum counts rank them in that order; one read-only
table of them per order serves all its families.
``enumerate_threshold`` unranks every rank in blocks.  ``threshold_argmax``
scans the families of one order and connectivity in one branch-and-bound walk,
depth first in blocks of bool rows; it unranks each family's seeds, its first
and last members, which are solved first to set its x.  A node's members are
subgraphs of its supergraph, and M_alpha grows entrywise with the edge set, so
a node goes when ``count_above`` proves that supergraph has no eigenvalue
above x.

General graphs (n <= 7) come up to isomorphism from a generated table,
``_classes.CLASSES``: per order and edge count, the least-image bitmask of each
class, in hex.  The tests rebuild it by orderly generation (Read, 1978) and
compare the texts byte for byte, pin a digest per order and recount the
labeled graphs from the automorphism orbits; ``PYTHONPATH=src python
tests/graph_builders.py`` regenerates it.  Repeated boolean squaring marks
each order's connected classes.  An ``ALL`` scan takes families of one order
and reads only their edge counts' classes: one ``dense_spectra`` call solves
each family's seeds, its classes of largest Rayleigh quotient at the degree
vector, and one more the classes that ``definite_above`` does not prove below
the family's x; disconnected ones (only without ``connected_only``) go
through ``spectral_radius``.

One reduction per scan keeps each family's maximizers, tie gap, near-tie
warning and best non-maximizer, whose radius less 1e-6 is the scan's x.  The
``verify_*`` drivers make one walk per (n, alpha) and compare the found
maximizer sets against the predicted ones (the quasi-star, with the S~ tie at
alpha = 1/2 where it exists); ``verify_threshold_dominance`` reads Lemma 2.4
from one ``ALL`` scan per (n, alpha): every maximizer is threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._classes import CLASSES
from .graphs import (
    DOMINATING,
    ISOLATED,
    LabeledGraph,
    ThresholdGraph,
    is_threshold_degrees,
    quasi_star,
    tilde_s,
)
from .spectra import (
    FAMILY_CHUNK,
    HALF,
    RHO_COMPARE_TOL,
    _rows,
    alpha_matrices,
    as_alpha,
    count_above,
    definite_above,
    dense_spectra,
    family_spectra,
    same_radius,
    spectral_radius,
)

NEAR_TIE_WARNING = 1e-6
_SEEDS, _PRUNE_MARGIN = 4, 1e-6  # see ``threshold_argmax``
_COUNT_CAP = 2**62 - 1  # subset-sum counts saturate here, inside int64 when two are added
MAX_EXHAUSTIVE_N = 7

THRESHOLD = "THRESHOLD"
ALL = "ALL"


@dataclass(frozen=True)
class FamilySpec:
    """A graph family at fixed (n, m): connected-or-not, threshold-or-all."""

    n: int
    m: int
    connected_only: bool = True
    universe: str = THRESHOLD

    def __post_init__(self) -> None:
        if self.universe not in (THRESHOLD, ALL):
            raise ValueError(f"universe must be {THRESHOLD} or {ALL}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        top = self.n * (self.n - 1) // 2
        low = self.n - 1 if self.connected_only else 0
        if not low <= self.m <= top:
            raise ValueError(f"infeasible family: m={self.m} not in [{low}, {top}] for n={self.n}")
        if self.universe == ALL and self.n > MAX_EXHAUSTIVE_N:
            raise ValueError(f"exhaustive isomorphism-free enumeration is limited to n <= {MAX_EXHAUSTIVE_N}")

    @property
    def label(self) -> str:
        return "H" if self.connected_only else "G"


def enumerate_threshold(family: FamilySpec):
    """Yield every threshold graph of the family exactly once, in walk order: descending creation mask."""
    root, need, top, c, (size,) = _walk_root([family])
    for lo in range(0, size, FAMILY_CHUNK):
        rank = np.arange(lo, min(lo + FAMILY_CHUNK, size), dtype=np.int64)
        rows = _unrank(root.repeat(len(rank), axis=0), need.repeat(len(rank)), rank, top, c)
        for symbols in np.where(rows, DOMINATING, ISOLATED).tolist():
            yield ThresholdGraph("".join(symbols))


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration of all graphs on n <= 7 vertices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs u < v of 1..n; pair i is bit i of an edge bitmask."""
    return tuple(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=None)
def _order_classes(n: int):
    """Every class of order n, read from ``CLASSES``: bitmasks, connectivity and where each edge count starts."""
    FamilySpec(n, 0, connected_only=False, universe=ALL)  # raises unless 1 <= n <= MAX_EXHAUSTIVE_N
    levels = [level.split() for level in CLASSES[n]]
    masks = np.array([int(mask, 16) for level in levels for mask in level], dtype=np.int64)
    return masks, _connected(_adjacency(masks, n)), np.cumsum([0] + [len(level) for level in levels]).tolist()


def _adjacency(masks: np.ndarray, n: int) -> np.ndarray:
    """The (B, n, n) bool adjacency stack of the given edge bitmasks."""
    ends = np.array(_pairs(n), dtype=np.intp).reshape(-1, 2) - 1
    adj = np.zeros((len(masks), n, n), dtype=bool)
    adj[:, ends[:, 0], ends[:, 1]] = adj[:, ends[:, 1], ends[:, 0]] = _rows(masks, len(ends))
    return adj


def _connected(adj: np.ndarray) -> np.ndarray:
    """Which graphs of a (B, n, n) bool adjacency stack are connected."""
    n = adj.shape[-1]
    # After t squarings, reach holds every pair joined by a walk of length
    # <= 2^t, and 2^t >= n - 1 covers every path.
    reach = adj | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return reach[:, 0].all(axis=1)


def _labeled_from_mask(mask: int, n: int) -> LabeledGraph:
    """The graph of an edge bitmask; ``_pairs`` are in range and u < v, so they need no check."""
    return LabeledGraph(n, frozenset(pair for ei, pair in enumerate(_pairs(n)) if mask >> ei & 1))


def edge_key(g: LabeledGraph) -> str:
    """Compact edge-list key like '12.13.23' (single-digit labels, n <= 9)."""
    return ".".join(f"{u}{v}" for u, v in sorted(g.edges)) or "-"


def enumerate_all(family: FamilySpec):
    """Yield one representative per isomorphism class of the ALL family."""
    if family.universe != ALL:
        raise ValueError("enumerate_all needs an ALL family")
    masks, connected, starts = _order_classes(family.n)
    level = slice(starts[family.m], starts[family.m + 1])
    for mask, linked in zip(masks[level].tolist(), connected[level].tolist()):
        if linked or not family.connected_only:
            yield _labeled_from_mask(mask, family.n)


# ---------------------------------------------------------------------------
# Extremal search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one family scan: full maximizer set and tie structure.

    ``maximizer_set`` holds canonical creation sequences (THRESHOLD universe)
    or canonical edge-list keys (ALL universe), sorted lexicographically: the
    members whose rho is ``same_radius`` with ``rho_max``.  ``tie_gap`` is the
    distance from the maximum to the best non-maximizer (inf when the family
    has no non-maximizer).  ``matches_theorem`` is None for a plain argmax
    scan and a bool when a verifier compared the set against its prediction.
    """

    family: FamilySpec
    alpha: Fraction
    maximizer_set: tuple[str, ...]
    rho_max: float
    tie_gap: float
    matches_theorem: bool | None
    warnings: tuple[str, ...] = ()

    def record(self) -> str:
        """One structured line, stable field order, 17 significant digits."""
        seqs = ";".join(self.maximizer_set)
        ok = 0 if self.matches_theorem is False else 1
        return (
            f"family={self.family.label},n={self.family.n},m={self.family.m},"
            f"alpha={self.alpha} rho={self.rho_max:.17g} maximizers={seqs} "
            f"tie_gap={self.tie_gap:.17g} ok={ok}"
        )


class _Reduction:
    """Per family index: the running maximum ``top``, the members ``same_radius`` with it and the best radius below."""

    def __init__(self, count: int):
        self.top, self.below = np.full((2, count), -np.inf)
        self.tied, self.fam, self.radii = None, np.empty(0, int), np.empty(0)

    def add(self, members: np.ndarray, radii: np.ndarray, fam: np.ndarray) -> None:
        np.maximum.at(self.top, fam, radii)
        fam, radii = np.concatenate((self.fam, fam)), np.concatenate((self.radii, radii))
        members = members if self.tied is None else np.concatenate((self.tied, members))
        tie = same_radius(radii, self.top[fam])
        np.maximum.at(self.below, fam[~tie], radii[~tie])
        self.tied, self.fam, self.radii = members[tie], fam[tie], radii[tie]

    def reports(self, families, alpha: Fraction, key):
        for f, (family, top, gap) in enumerate(zip(families, self.top.tolist(), (self.top - self.below).tolist())):
            if top == -np.inf:
                raise ValueError(f"family {family} is empty")
            near = (f"near-tie: best non-maximizer within {gap:.3e} of the maximum",) if gap < NEAR_TIE_WARNING else ()
            yield VerificationReport(family, alpha, tuple(sorted(map(key, self.tied[self.fam == f]))), top, gap, None, near)

    def proved_below(self, fam: np.ndarray, prove) -> np.ndarray:
        """Rows that ``prove(x)`` shows below their family's x = ``below`` - ``_PRUNE_MARGIN``: the one prune rule.

        ``prove`` returns (sure, error): sure rows have rho below x + error; a proof counts only when
        RHO_COMPARE_TOL + error < ``_PRUNE_MARGIN``.  ``below`` only rises (``top`` does, and a member leaving
        the tie is a non-maximizer), so a proved row changes neither the maximizers nor ``tie_gap``.
        """
        sure, error = prove(self.below[fam] - _PRUNE_MARGIN)
        return sure & (RHO_COMPARE_TOL + error < _PRUNE_MARGIN)


def argmax_rho(family: FamilySpec, alpha) -> VerificationReport:
    """Scan the family for its maximizers at alpha."""
    return (threshold_argmax if family.universe == THRESHOLD else _all_reports)([family], as_alpha(alpha))[0]


@lru_cache(maxsize=16)  # read-only; one table serves every family of an order
def _subset_counts(top: int) -> np.ndarray:
    """c[t, s]: how many subsets of {1..t} sum to s (t <= top, s <= top (top + 1) / 2), capped at ``_COUNT_CAP``; s in [-top, 0) reads the last, zero, columns.

    An entry below the cap is exact, since its two summands are; the walk reads
    only counts of subtrees of its families, none above a family's size.
    """
    most = top * (top + 1) // 2
    c = np.zeros((top + 1, most + 1 + top), dtype=np.int64)
    c[:, 0] = 1
    for t in range(1, top + 1):
        c[t, 1 : most + 1] = c[t - 1, 1 : most + 1]
        c[t, t : most + 1] += c[t - 1, : max(most + 1 - t, 0)]
        np.minimum(c[t], _COUNT_CAP, out=c[t])
    c.setflags(write=False)
    return c


def _walk_root(families):
    """The walk's start for THRESHOLD families of one order and connectivity: connected members end in D.

    Returns the root rows, each family's need (the edges steps 1..top add),
    the highest undecided step ``top``, the subset-sum counts and each
    family's size; a family of ``_COUNT_CAP`` members or more is refused.
    """
    first = families[0]
    if any(f.universe != THRESHOLD or (f.n, f.connected_only) != (first.n, first.connected_only) for f in families):
        raise ValueError("the threshold walk needs THRESHOLD families of one order and connectivity")
    n, linked = first.n, first.connected_only and first.n > 1
    top = n - 2 if linked else n - 1
    need = np.array([f.m - (n - 1) * linked for f in families], dtype=np.int64)
    c = _subset_counts(top)
    size = c[top, need]
    if size.max() >= _COUNT_CAP:
        raise ValueError(f"family {families[int(size.argmax())]} has at least {_COUNT_CAP} members, too many to walk")
    root = np.zeros((len(families), n), dtype=bool)
    root[:, n - 1] = linked
    return root, need, top, c, size


def _children(rows, need, rank, fam, t: int, c: np.ndarray):
    """The level-(t-1) children of level-t nodes in walk order: each node's take (step t dominates), then its skip."""
    below = c[t - 1][need - t]  # members under the take child
    kept = np.stack((below > 0, c[t - 1][need] > 0), axis=1).ravel().nonzero()[0]
    parent, take = kept >> 1, kept & 1 == 0
    rows = rows[parent]
    rows[:, t] = take
    return rows, need[parent] - t * take, rank[parent] + below[parent] * ~take, fam[parent]


def _supergraphs(rows: np.ndarray, need: np.ndarray, t: int) -> np.ndarray:
    """Each level-t node's supergraph: its decided steps and every undecided step 1..t that fits its need."""
    sup = rows.copy()
    sup[:, 1 : t + 1] |= np.arange(1, t + 1) <= need[:, None]
    return sup


def _unrank(rows, need, rank, top: int, c: np.ndarray) -> np.ndarray:
    """The members at the given walk ranks under level-top nodes: step t dominates while the rank is under its take."""
    rows, need, rank = rows.copy(), need.copy(), rank.copy()
    for t in range(top, 0, -1):
        below = c[t - 1][need - t]
        rows[:, t] = take = rank < below
        need -= t * take
        rank -= below * ~take
    return rows


def threshold_argmax(families, alpha) -> list[VerificationReport]:
    """Reports of THRESHOLD families of one order and connectivity, from one bounded walk and one ``_Reduction``.

    A node goes when ``count_above`` proves its supergraph below its family's x (``_Reduction.proved_below``).
    """
    alpha, chunk, count = as_alpha(alpha), FAMILY_CHUNK, len(families)
    root, need, top, c, size = _walk_root(families)
    reduction = _Reduction(count)

    def solve(rows, fam):
        for lo in range(0, len(rows), chunk):
            some = rows[lo : lo + chunk]
            reduction.add(some, family_spectra(some, alpha)[0], fam[lo : lo + chunk])

    def pivots(sup, x):
        above, doubt, error = count_above(sup, alpha, x[:, None])
        return (above == 0) & ~doubt, error

    def unsure(sup, fam):
        """Rows whose count at their family's x does not prove them below it."""
        keep = np.ones(len(fam), dtype=bool)
        tested = np.isfinite(reduction.below[fam]).nonzero()[0]
        for lo in range(0, len(tested), chunk):
            some = tested[lo : lo + chunk]
            keep[some] = ~reduction.proved_below(fam[some], lambda x: pivots(sup[some], x))
        return keep

    ranks = [sorted({*range(min(_SEEDS, k)), *range(max(k - _SEEDS, 0), k)}) for k in size.tolist()]
    fam = np.repeat(np.arange(count), [len(r) for r in ranks])
    solve(_unrank(root[fam], need[fam], np.concatenate(ranks).astype(np.int64), top, c), fam)
    wide = np.flatnonzero(size > 2 * _SEEDS)  # the other families are all seeds
    start = [root[wide], need[wide], np.zeros(len(wide), dtype=np.int64), wide]
    pending, t = [[part[:0] for part in start] for _ in range(top)] + [start], top
    while t <= top:  # pending[t]: level-t nodes in walk order, all before pending[t + 1]
        if t <= 1:  # leaves: a level-1 node takes step 1 exactly when it still needs 1
            rows, left, rank, fam = pending[t]
            if top:
                rows[:, 1] |= left == 1
            fresh = (rank >= _SEEDS) & (rank < size[fam] - _SEEDS)  # seeds are solved already
            keep = unsure(rows[fresh], fam[fresh])
            solve(rows[fresh][keep], fam[fresh][keep])
            pending[t], t = [part[:0] for part in start], t + 1
        elif len(pending[t][0]) and len(pending[t - 1][0]) < chunk:
            kids = _children(*(part[:chunk] for part in pending[t]), t, c)
            pending[t] = [part[chunk:] for part in pending[t]]
            if t > 2 and t % 2:  # a node test every second level was fastest; leaves are tested when solved
                keep = unsure(_supergraphs(kids[0], kids[1], t - 1), kids[3])
                kids = [part[keep] for part in kids]
            pending[t - 1] = [np.concatenate(pair) for pair in zip(pending[t - 1], kids)]
        else:
            t += -1 if len(pending[t - 1][0]) else 1
    return list(reduction.reports(families, alpha, lambda row: "".join(np.where(row, DOMINATING, ISOLATED))))


def _all_reports(families, alpha: Fraction) -> list[VerificationReport]:
    """Reports of ALL families of one order, in order: disconnected classes by ``spectral_radius``, connected ones pruned.

    Only the classes with the families' edge counts are read.  Each family's
    ``_SEEDS`` connected classes of largest Rayleigh quotient at the degree
    vector, a lower bound on rho, are solved first; one more ``dense_spectra``
    call solves the classes that ``definite_above`` does not prove below their
    family's x (``_Reduction.proved_below``).
    """
    n = families[0].n
    masks, connected, starts = _order_classes(n)
    spans = [range(starts[f.m], starts[f.m + 1]) for f in families]
    fam = np.repeat(np.arange(len(families)), [len(span) for span in spans])  # ascends: families come in order
    members = [i for span in spans for i in span]
    masks, connected = masks[members], connected[members]
    reduction = _Reduction(len(families))
    loose = ~connected & ~np.array([f.connected_only for f in families])[fam]
    radii = [spectral_radius(_labeled_from_mask(mask, n), alpha).rho for mask in masks[loose].tolist()]
    reduction.add(masks[loose], np.array(radii), fam[loose])
    masks, home = masks[connected], fam[connected]
    adj = _adjacency(masks, n)
    mats, deg = alpha_matrices(adj, alpha), adj.sum(axis=2)
    lower = np.einsum("bi,bij,bj->b", deg, mats, deg) / np.maximum(np.einsum("bi,bi->b", deg, deg), 1)
    order = np.lexsort((-lower, home))  # by family, then by descending lower bound
    seed = np.zeros(len(masks), dtype=bool)
    seed[order[np.arange(len(order)) - np.searchsorted(home, home) < _SEEDS]] = True
    reduction.add(masks[seed], dense_spectra(mats[seed])[0], home[seed])
    rest = ~seed & ~reduction.proved_below(home, lambda x: definite_above(mats, x))
    reduction.add(masks[rest], dense_spectra(mats[rest])[0], home[rest])
    return list(reduction.reports(families, alpha, lambda mask: edge_key(_labeled_from_mask(int(mask), n))))


def predicted_maximizers(n: int, m: int, alpha) -> set[str]:
    """Predicted maximizer set over connected graphs: S(n,m), with the S~ tie.

    At alpha = 1/2 the triangle variant S~(n,m) ties with the quasi-star
    whenever it exists and is connected; for every other alpha in [1/2, 1) the
    quasi-star is the unique prediction.
    """
    alpha = as_alpha(alpha)
    expected = {quasi_star(n, m).text}
    if alpha == HALF:
        try:
            twin = tilde_s(n, m)
        except ValueError:
            twin = None
        if twin is not None and twin.is_connected:
            expected.add(twin.text)
    return expected


def _with_match(report: VerificationReport, expected: set[str], extra_warnings=()) -> VerificationReport:
    return replace(
        report,
        matches_theorem=set(report.maximizer_set) == expected,
        warnings=report.warnings + tuple(extra_warnings),
    )


def verify_sparse_band(n_values, alphas) -> list[VerificationReport]:
    """Connected-family scans for every m in [n-1, 2n-2].

    Expected outcome: the quasi-star alone, except the two-graph tie with
    S~(n, n+2) at alpha = 1/2, m = n+2.
    """
    reports = []
    for n in n_values:
        if n < 4:
            raise ValueError("sparse-band verification needs n >= 4")
        reports.extend(_band_reports(n, range(n - 1, 2 * n - 1), alphas))
    return reports


def _band_reports(n: int, ms: range, alphas, extra=()) -> list[VerificationReport]:
    """Matched reports of the connected families (n, m), ordered by m then alpha: one walk per alpha."""
    families = [FamilySpec(n, m, connected_only=True, universe=THRESHOLD) for m in ms]
    scans = [threshold_argmax(families, alpha) for alpha in alphas] if families else []
    return [_with_match(scan[i], predicted_maximizers(n, m, alpha), extra)
            for i, m in enumerate(ms) for alpha, scan in zip(alphas, scans)]


def verify_all_graphs_2n2(n_values) -> list[VerificationReport]:
    """Scans over all (not necessarily connected) threshold graphs, m = 2n-2.

    At alpha = 1/2 the expected maximizer is K_5 u K_1 for n = 6 and the
    quasi-star otherwise.  Restricting to the threshold universe is lossless:
    a maximizer over all graphs of fixed order and size is threshold.
    """
    reports = []
    for n in n_values:
        if n < 4:
            raise ValueError("needs n >= 4 so that m = 2n-2 is feasible")
        m = 2 * n - 2
        family = FamilySpec(n, m, connected_only=False, universe=THRESHOLD)
        report = argmax_rho(family, HALF)
        expected = {"IDDDDI"} if n == 6 else {quasi_star(n, m).text}  # K_5 u K_1 at n = 6
        reports.append(_with_match(report, expected))
    return reports


def clique_band_hypothesis_bound(r: int) -> float:
    """Smallest order beyond which the band characterization is claimed."""
    return (30 * r - 63 + 5 * (32 * r * r - 136 * r + 137) ** 0.5) / 2


def verify_clique_band(r: int, n: int, alphas) -> list[VerificationReport]:
    """Connected-family scans for (r-1)n - r(r-1)/2 < m <= rn - r(r+1)/2.

    Expected outcome: quasi-star alone, except the S~ tie at alpha = 1/2 and
    m = (r-1)n - r(r-1)/2 + 3.  Runs below the hypothesis bound on n are
    still scanned but flagged with a warning, since no claim is made there.
    """
    if r < 3:
        raise ValueError("band verification needs r >= 3")
    lo = (r - 1) * n - r * (r - 1) // 2
    hi = r * n - r * (r + 1) // 2
    extra = ()
    bound = clique_band_hypothesis_bound(r)
    if n <= bound:
        extra = (f"outside-hypothesis: n={n} is not above the bound {bound:.3f}",)
    return _band_reports(n, range(lo + 1, hi + 1), alphas, extra)


def threshold_dominance_report(n: int, m: int, alpha) -> VerificationReport:
    """The ALL-connected scan of (n, m) alone, with ``verify_threshold_dominance``'s verdict."""
    return _dominance_verdict(_all_reports([FamilySpec(n, m, universe=ALL)], as_alpha(alpha))[0])


def _dominance_verdict(report: VerificationReport) -> VerificationReport:
    """``matches_theorem`` is True when every maximizer is threshold; a key's label counts are its degrees."""
    labels = "123456789"[: report.family.n]
    threshold = all(is_threshold_degrees(map(key.count, labels)) for key in report.maximizer_set)
    return replace(report, matches_theorem=threshold)


def verify_threshold_dominance(n_values, alphas) -> list[VerificationReport]:
    """Reports of every connected ALL family (n, m), ordered by n, m then alpha: one ALL scan per (n, alpha), no walk.

    ``matches_theorem`` is True when every maximizer is threshold (``_dominance_verdict``).  That alone
    decides Lemma 2.4: connected threshold graphs are members of the ALL family, so a threshold ALL maximizer is also
    the threshold maximum.  A threshold walk's maximum could differ from the ALL scan's only by the kernels' certified
    residuals, each radius within sqrt(n) * 1e-11 of the true one, far inside the tie window.
    """
    reports = []
    for n in n_values:
        families = [FamilySpec(n, m, universe=ALL) for m in range(n - 1, n * (n - 1) // 2 + 1)]
        scans = [_all_reports(families, as_alpha(alpha)) for alpha in alphas]
        reports.extend(_dominance_verdict(report) for row in zip(*scans) for report in row)
    return reports
