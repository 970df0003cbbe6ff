"""Exhaustive searches over graph families of fixed order and size.

Threshold graphs of order n biject with creation sequences, and the edge
count only depends on which steps are dominating (step i, 0-based, adds i
edges), so the family with m edges is a subset-sum walk with pruning on the
reachable totals; connected members end in D.  The walk emits D-position
bitmasks.  ``argmax_rho`` solves them ``FAMILY_CHUNK`` at a time as bool rows
of the batched kernel ``family_spectra``, with no graph object per member.

General graphs are enumerated once per order (n <= 7) up to isomorphism by
edge augmentation with canonical-form rejection; the canonical form of an
edge-subset bitmask is its minimum over all vertex permutations, one float32
product of its edge bits with a precomputed permutation/weight table.  An
``ALL`` family is scanned as one (B, n, n) adjacency stack built from those
bitmasks: reachability by repeated boolean squaring marks the connected
members, which ``dense_spectra`` solves in one call; disconnected members
(only when ``connected_only`` is off) go through ``spectral_radius``.

``argmax_rho`` reduces a scan's (bitmasks, radii) chunks as they arrive,
keeping the running maximum, the members ``same_radius`` with it and the best
radius below it, and reports the maximizers, the tie gap and a warning for a
suspicious near-tie (gap below 1e-6).  The ``verify_*`` drivers compare the
found maximizer sets against the predicted ones (the quasi-star, with the S~
tie at alpha = 1/2 where it exists) and the ``audit`` helper extracts the
staircase statistics kappa, delta_j, s, theta used in the structural analysis
of extremal hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, islice, permutations

import numpy as np

from .graphs import (
    DOMINATING,
    ISOLATED,
    LabeledGraph,
    ThresholdGraph,
    is_threshold,
    quasi_star,
    tilde_s,
)
from .spectra import (
    HALF,
    alpha_matrices,
    as_alpha,
    dense_spectra,
    family_spectra,
    same_radius,
    spectral_radius,
)

NEAR_TIE_WARNING = 1e-6
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


#: Graphs per ``family_spectra`` call in a threshold scan.  It bounds the
#: scan's memory; at n = 30 larger chunks were no faster, only larger.
FAMILY_CHUNK = 512


def _dominating_masks(family: FamilySpec):
    """Subset-sum walk: yield each member's D positions as a bitmask.

    Bit i is set when creation step i (0-based) is dominating; it adds i
    edges.  Members come in the canonical walk order.
    """
    n, m = family.n, family.m
    if n == 1:
        yield 0
        return
    # State: the highest undecided step, the edges still needed, the mask.
    # Taking a step is pushed last so it is explored first.  Subset sums of
    # {1..top} fill [0, top(top+1)/2], so every branch kept yields a member.
    stack = [(n - 2, m - (n - 1), 1 << (n - 1))] if family.connected_only else [(n - 1, m, 0)]
    while stack:
        top, need, mask = stack.pop()
        if need == 0:
            yield mask
        elif 0 < need <= top * (top + 1) // 2:
            stack.append((top - 1, need, mask))
            stack.append((top - 1, need - top, mask | 1 << top))


def _creation(mask: int, n: int) -> tuple[str, ...]:
    return tuple(DOMINATING if mask >> i & 1 else ISOLATED for i in range(n))


def _rows(masks, n: int) -> np.ndarray:
    """The (len(masks), n) bool matrix of the low n bits of the given bitmasks."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little").view(bool)


def enumerate_threshold(family: FamilySpec):
    """Yield every threshold graph of the family exactly once, canonically."""
    if family.universe != THRESHOLD:
        raise ValueError("enumerate_threshold needs a THRESHOLD family")
    for mask in _dominating_masks(family):
        yield ThresholdGraph(family.n, _creation(mask, family.n))


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration of all graphs on n <= 7 vertices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Vertex pairs u < v of 1..n; pair i is bit i of an edge bitmask."""
    return tuple(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=None)
def _perm_weights(n: int) -> np.ndarray:
    """Row per vertex permutation: weight 2^(image slot) per edge slot.

    A graph bitmask b maps under permutation row w to sum(w[e] for e in b).
    Every image is below 2^21 (n <= 7), inside float32's 24-bit significand,
    so the float32 table and its products are exact.
    """
    ends = np.array(_pairs(n), dtype=np.intp).reshape(-1, 2) - 1
    perms = np.array(list(permutations(range(n))), dtype=np.int8)
    x, y = perms[:, ends[:, 0]], perms[:, ends[:, 1]]
    lo, hi = np.minimum(x, y).astype(np.int16), np.maximum(x, y).astype(np.int16)
    # Pair (lo, hi), 0-based, is slot lo*(2n-1-lo)/2 + hi-lo-1 of combinations order.
    slot = lo * (2 * n - 1 - lo) // 2 + hi - lo - 1
    return np.ldexp(np.float32(1), slot)


def _canonical_many(masks, n: int, chunk: int = 128) -> list[int]:
    """Canonical form (minimum relabeling) of each bitmask in masks.

    Chunks of 128 keep the (n! x chunk) float32 product at 2.6 MB for n = 7.
    """
    weights = _perm_weights(n)
    cols = _rows(masks, weights.shape[1]).T.astype(np.float32)
    out = []
    for lo in range(0, len(masks), chunk):
        out.extend((weights @ cols[:, lo : lo + chunk]).min(axis=0).astype(np.int64).tolist())
    return out


@lru_cache(maxsize=None)
def _graph_classes(n: int):
    """Canonical bitmasks of all isomorphism classes, indexed by edge count."""
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive enumeration limited to n <= {MAX_EXHAUSTIVE_N}")
    bits = 1 << np.arange(n * (n - 1) // 2, dtype=np.int64)
    levels = [(0,)]
    for _ in range(len(bits)):
        prev = np.array(levels[-1], dtype=np.int64)[:, None]
        grown = set((prev | bits)[prev & bits == 0].tolist())
        levels.append(tuple(sorted(set(_canonical_many(list(grown), n)))))
    return tuple(levels)


def _class_stack(n: int, m: int):
    """The classes of size m: bitmasks, (B, n, n) adjacency and connectivity."""
    masks = _graph_classes(n)[m]
    ends = np.array(_pairs(n), dtype=np.intp).reshape(-1, 2) - 1
    edges = _rows(masks, len(ends))
    adj = np.zeros((len(masks), n, n), dtype=bool)
    adj[:, ends[:, 0], ends[:, 1]] = edges
    adj[:, ends[:, 1], ends[:, 0]] = edges
    return masks, adj, _connected(adj)


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
    return LabeledGraph.from_edges(n, (pair for ei, pair in enumerate(_pairs(n)) if mask >> ei & 1))


def edge_key(g: LabeledGraph) -> str:
    """Compact edge-list key like '12.13.23' (single-digit labels, n <= 9)."""
    return ".".join(f"{u}{v}" for u, v in sorted(g.edges)) or "-"


def _from_edge_key(key: str, n: int) -> LabeledGraph:
    """Inverse of ``edge_key``."""
    tokens = key.split(".") if key != "-" else ()
    return LabeledGraph.from_edges(n, ((int(t[0]), int(t[1])) for t in tokens))


def enumerate_all(family: FamilySpec):
    """Yield one representative per isomorphism class of the ALL family."""
    if family.universe != ALL:
        raise ValueError("enumerate_all needs an ALL family")
    masks, _, connected = _class_stack(family.n, family.m)
    for mask, linked in zip(masks, connected.tolist()):
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


def argmax_rho(family: FamilySpec, alpha) -> VerificationReport:
    """Scan the family for its spectral-radius maximizers at the given alpha."""
    alpha = as_alpha(alpha)
    if family.universe == THRESHOLD:
        chunks, key = _threshold_radii(family, alpha), lambda mask: "".join(_creation(mask, family.n))
    else:
        chunks, key = _all_radii(family, alpha), lambda mask: edge_key(_labeled_from_mask(mask, family.n))
    top, below = -np.inf, -np.inf
    tied, tied_radii = [], np.empty(0)
    for masks, radii in chunks:
        top = max(top, float(radii.max()))
        radii = np.concatenate((tied_radii, radii))
        tie = same_radius(radii, top)
        # Members that tied an earlier, lower maximum drop to ``below`` here.
        below = max(below, float(radii[~tie].max(initial=-np.inf)))
        tied = list(compress(tied + masks, tie.tolist()))
        tied_radii = radii[tie]
    if top == -np.inf:
        raise ValueError(f"family {family} is empty")
    tie_gap = top - below  # inf when every member ties
    warnings = ()
    if tie_gap < NEAR_TIE_WARNING:
        warnings = (
            f"near-tie: best non-maximizer within {tie_gap:.3e} of the maximum",
        )
    return VerificationReport(
        family=family,
        alpha=alpha,
        maximizer_set=tuple(sorted(map(key, tied))),
        rho_max=top,
        tie_gap=tie_gap,
        matches_theorem=None,
        warnings=warnings,
    )


def _threshold_radii(family: FamilySpec, alpha: Fraction):
    """Yield (D-position bitmasks, radii) of the family, ``FAMILY_CHUNK`` at a time."""
    walk = _dominating_masks(family)
    while chunk := list(islice(walk, FAMILY_CHUNK)):
        yield chunk, family_spectra(_rows(chunk, family.n), alpha)[0]


def _all_radii(family: FamilySpec, alpha: Fraction):
    """Yield (edge bitmasks, radii) of the ALL family as one chunk."""
    n = family.n
    masks, adj, connected = _class_stack(n, family.m)
    keep = connected | (not family.connected_only)
    masks, adj, connected = [mask for mask, kept in zip(masks, keep) if kept], adj[keep], connected[keep]
    radii = np.empty(len(masks))
    if connected.any():
        radii[connected] = dense_spectra(alpha_matrices(adj[connected], alpha))[0]
    for i in (~connected).nonzero()[0]:
        radii[i] = spectral_radius(_labeled_from_mask(masks[i], n), alpha).rho
    yield masks, radii


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
        for m in range(n - 1, 2 * n - 1):
            for alpha in alphas:
                family = FamilySpec(n, m, connected_only=True, universe=THRESHOLD)
                report = argmax_rho(family, alpha)
                reports.append(_with_match(report, predicted_maximizers(n, m, alpha)))
    return reports


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
        if n == 6:
            expected = {"IDDDDI"}  # K_5 u K_1
        else:
            expected = {quasi_star(n, m).text}
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
    reports = []
    for m in range(lo + 1, hi + 1):
        for alpha in alphas:
            family = FamilySpec(n, m, connected_only=True, universe=THRESHOLD)
            report = argmax_rho(family, alpha)
            reports.append(_with_match(report, predicted_maximizers(n, m, alpha), extra))
    return reports


def threshold_dominance_report(n: int, m: int, alpha) -> VerificationReport:
    """Compare the ALL-connected maximum against the threshold-only maximum.

    ``matches_theorem`` is True when the two maxima are ``same_radius`` and
    every maximizer over all connected graphs is a threshold graph.
    """
    all_family = FamilySpec(n, m, connected_only=True, universe=ALL)
    thr_family = FamilySpec(n, m, connected_only=True, universe=THRESHOLD)
    all_report = argmax_rho(all_family, alpha)
    thr_report = argmax_rho(thr_family, alpha)
    agree = same_radius(all_report.rho_max, thr_report.rho_max)
    all_threshold = all(is_threshold(_from_edge_key(key, n)) for key in all_report.maximizer_set)
    return replace(all_report, matches_theorem=agree and all_threshold)


# ---------------------------------------------------------------------------
# Structural audit of a connected threshold host
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalAudit:
    """Staircase statistics of a connected threshold graph.

    kappa is the deepest index j with a_{j+1,j} = 1 in the stepwise matrix;
    delta maps j to the count of vertices past position j with degree exactly
    j; s is the largest offset with d(v_{r+s}) >= r+1 (0 when none) and theta
    the excess d(v_{r+s}) - r.  For non-complete hosts the counts satisfy
    n = sum_j delta_j + kappa, recorded in ``identity_ok``; complete graphs
    degenerate and are flagged instead of checked.
    """

    n: int
    r: int
    kappa: int
    delta: dict[int, int] = field(compare=False)
    s: int = 0
    theta: int | None = None
    identity_ok: bool | None = None
    complete: bool = False


def audit(g: ThresholdGraph, r: int) -> ExtremalAudit:
    if not g.is_connected:
        raise ValueError("audit requires a connected threshold graph")
    if r < 1:
        raise ValueError("audit requires r >= 1")
    n = g.n
    rows = g.stepwise_rows
    degrees = g.degree_sequence()  # non-increasing, as in stepwise order

    complete = g.m == n * (n - 1) // 2
    kappa = 0
    for j in range(1, n):
        if rows[j + 1] >> j & 1:
            kappa = j

    if complete:
        delta: dict[int, int] = {}
        identity_ok = None
    else:
        delta = {}
        for j in range(1, kappa + 1):
            delta[j] = sum(1 for i in range(j + 1, n + 1) if degrees[i - 1] == j)
        identity_ok = n == sum(delta.values()) + kappa

    s = 0
    theta = None
    offset = 1
    while r + offset <= n and degrees[r + offset - 1] >= r + 1:
        s = offset
        offset += 1
    if s > 0:
        theta = degrees[r + s - 1] - r
    return ExtremalAudit(
        n=n, r=r, kappa=kappa, delta=delta, s=s, theta=theta,
        identity_ok=identity_ok, complete=complete,
    )
