"""Family enumeration, extremal argmax, verification drivers."""

import functools
import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quasistar.graphs import (
    LabeledGraph,
    ThresholdGraph,
    l_graph,
    quasi_star,
    tilde_s,
    to_labeled,
)
from quasistar import search
from quasistar.search import (
    ALL,
    FamilySpec,
    argmax_rho,
    clique_band_hypothesis_bound,
    edge_key,
    enumerate_all,
    enumerate_threshold,
    predicted_maximizers,
    threshold_argmax,
    threshold_dominance_report,
    verify,
)
from quasistar.spectra import (
    RHO_COMPARE_TOL,
    alpha_matrices,
    dense_spectra,
    family_spectra,
    same_radius,
    spectral_radius,
)
from quasistar.transforms import candidate_specs
import graph_builders
from graph_builders import is_connected, is_threshold, render_classes, threshold_graphs
from quasistar import _classes

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Family feasibility
# ---------------------------------------------------------------------------

def test_family_feasibility():
    FamilySpec(6, 10)
    FamilySpec(6, 0, connected_only=False)
    with pytest.raises(ValueError):
        FamilySpec(6, 4, connected_only=True)  # below n-1
    with pytest.raises(ValueError):
        FamilySpec(6, 16)
    with pytest.raises(ValueError):
        FamilySpec(8, 10, universe=ALL)  # exhaustive cap n <= 7
    with pytest.raises(ValueError):
        FamilySpec(6, 10, universe="SOME")


# ---------------------------------------------------------------------------
# Threshold enumeration
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)  # callers go family by family through one order at a time
def creation_masks(n: int, connected_only: bool):
    """Brute force: every creation mask of order n, ascending, and its edge count.

    Bit i is set when step i dominates, which adds i edges; step 0 never
    dominates, and a connected graph's last step does.
    """
    low = 1 << n - 1 if connected_only and n > 1 else 0
    masks = np.arange(low, 1 << n, 2, dtype=np.int64)
    edges = np.zeros(len(masks), dtype=np.int64)
    for i in range(1, n):
        edges += (masks >> i & 1) * i
    return masks, edges


def mask_text(mask: int, n: int) -> str:
    return "".join("D" if mask >> i & 1 else "I" for i in range(n))


def reference_masks(family: FamilySpec) -> list[int]:
    """Every member's creation mask, descending: the walk order."""
    masks, edges = creation_masks(family.n, family.connected_only)
    return masks[edges == family.m][::-1].tolist()


def every_threshold_family(most_n: int):
    for n in range(1, most_n + 1):
        for connected_only in (True, False):
            for m in range(n - 1 if connected_only else 0, n * (n - 1) // 2 + 1):
                yield FamilySpec(n, m, connected_only=connected_only)


def test_enumerate_threshold_membership():
    found = {g.text for g in enumerate_threshold(FamilySpec(6, 10))}
    assert quasi_star(6, 10).text in found
    any_conn = {g.text for g in enumerate_threshold(FamilySpec(6, 10, connected_only=False))}
    assert "IDDDDI" in any_conn  # K_5 u K_1
    assert found <= any_conn


def test_enumerate_threshold_4_3_connected():
    # Brute force over all 2^3 sequences: only the star has 3 edges and is
    # connected (the triangle-plus-isolated-vertex variant is disconnected).
    graphs = list(enumerate_threshold(FamilySpec(4, 3)))
    assert [g.text for g in graphs] == ["IIID"]
    brute = [g for g in threshold_graphs(4) if g.m == 3 and g.is_connected]
    assert len(brute) == 1


def test_enumerate_threshold_completeness():
    for n in range(1, 9):
        total = sum(
            len(list(enumerate_threshold(FamilySpec(n, m, connected_only=False))))
            for m in range(0, n * (n - 1) // 2 + 1)
        )
        assert total == 2 ** (n - 1)
        if n >= 2:
            connected = sum(
                len(list(enumerate_threshold(FamilySpec(n, m))))
                for m in range(n - 1, n * (n - 1) // 2 + 1)
            )
            assert connected == 2 ** (n - 2)


def test_enumerate_threshold_no_duplicates():
    for m in range(5, 16):
        texts = [g.text for g in enumerate_threshold(FamilySpec(6, m))]
        assert len(texts) == len(set(texts))
        assert all(ThresholdGraph(t).m == m for t in texts)


def test_enumerate_threshold_single_vertex():
    assert [g.text for g in enumerate_threshold(FamilySpec(1, 0))] == ["I"]


def test_quasi_star_and_l_graph_are_the_ends_of_the_walk():
    # The walk's first and last members are seeds that set each family's x, and
    # every prediction is built by formula: S(n,m) comes first, L(n,m) last.
    for n in range(2, 15):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            members = list(enumerate_threshold(FamilySpec(n, m)))
            assert (members[0], members[-1]) == (quasi_star(n, m), l_graph(n, m)), (n, m)


# ---------------------------------------------------------------------------
# Isomorphism-free enumeration of all graphs
# ---------------------------------------------------------------------------

def test_enumerate_all_4_3_connected():
    reps = list(enumerate_all(FamilySpec(4, 3, universe=ALL)))
    assert len(reps) == 2  # P_4 and K_{1,3}
    profiles = {tuple(sorted(g.degrees(), reverse=True)) for g in reps}
    assert profiles == {(2, 2, 1, 1), (3, 1, 1, 1)}


def test_enumerate_all_trivial_families():
    assert len(list(enumerate_all(FamilySpec(3, 3, universe=ALL)))) == 1
    reps = list(enumerate_all(FamilySpec(5, 10, connected_only=False, universe=ALL)))
    assert len(reps) == 1 and reps[0].m == 10


@functools.lru_cache(maxsize=None)
def relabel_weights(n: int):
    """Vertex pairs, and per permutation p a row of 2^(index of (p(u), p(v)))."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    weights = np.array([
        [2.0 ** index[tuple(sorted((p[u], p[v])))] for u, v in pairs]
        for p in itertools.permutations(range(n))
    ])
    return pairs, weights


def automorphism_count(g) -> int:
    """Number of vertex permutations fixing g; brute force over all n! of them."""
    pairs, weights = relabel_weights(g.n)
    bits = np.array([(u + 1, v + 1) in g.edges for u, v in pairs], dtype=float)
    return int(np.count_nonzero(weights @ bits == bits @ 2.0 ** np.arange(len(pairs))))


KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_enumeration_is_complete_by_orbit_counting():
    # Independent completeness oracle: summing n!/|Aut| over the class
    # representatives must recover the number of labeled graphs 2^(n(n-1)/2).
    for n in range(2, 8):
        reps = [
            g
            for m in range(0, n * (n - 1) // 2 + 1)
            for g in enumerate_all(FamilySpec(n, m, connected_only=False, universe=ALL))
        ]
        labeled_total = sum(math.factorial(n) // automorphism_count(g) for g in reps)
        assert labeled_total == 2 ** (n * (n - 1) // 2)
        assert len(reps) == KNOWN_CLASS_COUNTS[n]
        connected = [g for g in reps if is_connected(g)]
        assert len(connected) == KNOWN_CONNECTED_COUNTS[n]


def table_levels(n: int):
    """The parsed class table of order n as ``_graph_classes`` returns it: per edge count, a tuple of bitmasks."""
    masks, _, starts = search._order_classes(n)
    return tuple(tuple(masks[lo:hi].tolist()) for lo, hi in zip(starts, starts[1:]))


# sha256 of repr(_graph_classes(n)), taken from the float64 table and the
# per-bit column loop that the float32 product replaced; the parsed table must match.
PINNED_CLASS_DIGESTS = {
    1: "efd70b49446e8be6bedf3dfe219a88a352831f684dce5d48505e29b260989f2b",
    2: "7b0d574730ade655e7410b09ecdb1fb6d94c828aa7f38657aa188e838149cee9",
    3: "40cc5f9fe014b14ba06e9da50bccef952872839448aa575f205f62690fa94282",
    4: "e6f5a4407c3a6d8626db666be7c4fc0d24b90846e0e6041fd580161fee25dbc7",
    5: "81899c374c0c5b8a81afd2565f8c67e709b85edb4749c98841ccb405763d5941",
    6: "51726f95285d8db813d9f5c408f0a2baaa4d60e078d2b875b3c4a8546eae4728",
    7: "6e0b4266f267313373e346d6801b3c476a08143a3c4f3295d561dfe72d1df77e",
}


def test_graph_classes_match_pinned_digest():
    # Every class representative the package reads from its table, hence every edge_key printed, is unchanged.
    for n, digest in PINNED_CLASS_DIGESTS.items():
        assert hashlib.sha256(repr(table_levels(n)).encode()).hexdigest() == digest


def test_class_table_is_its_generators_output():
    # The checked-in table is byte for byte what the orderly generator renders.
    assert Path(_classes.__file__).read_bytes() == render_classes().encode()


def test_class_table_refuses_orders_above_seven():
    with pytest.raises(ValueError, match="limited to n <= 7"):
        search._order_classes(8)


def test_perm_weights_are_exact_in_float32():
    for n in range(1, 8):
        weights = graph_builders._perm_weights(n)
        assert weights.dtype == np.float32 and weights.shape == (math.factorial(n), n * (n - 1) // 2)
    # Every image mask is a sum of distinct weights, so it is below 2^21.
    assert graph_builders._perm_weights(7).max() < 2**24
    assert np.all(graph_builders._perm_weights(7).astype(np.int64).sum(axis=1) < 2**21)


def permutation_minimum(mask: int, n: int) -> int:
    """Reference canonical form: the least image of mask over all n! relabelings."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
    return min(
        sum(1 << index[tuple(sorted((p[u], p[v])))] for u, v in edges)
        for p in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("n, count", [(6, 40), (7, 10)])
def test_canonical_many_matches_permutation_minimum(n, count):
    top = n * (n - 1) // 2
    rng = np.random.default_rng(7 * n)
    masks = [0, (1 << top) - 1] + rng.integers(0, 1 << top, size=count).tolist()
    expected = [permutation_minimum(mask, n) for mask in masks]
    assert graph_builders._canonical_many(masks, n) == expected
    assert graph_builders._canonical_many(masks, n, chunk=3) == expected


def test_filling_the_lowest_vacancy_of_a_class_gives_a_class():
    # The lemma behind the orderly generator: each class below K_n is the
    # canonical child of exactly one class with one more edge.
    for n in range(1, 8):
        levels = graph_builders._graph_classes(n)
        for m, level in enumerate(levels[:-1]):
            above = set(levels[m + 1])
            assert all(mask | (~mask & mask + 1) in above for mask in level), (n, m)


def test_orderly_generation_canonicalises_few_masks(monkeypatch):
    seen = []
    canonical_many = graph_builders._canonical_many
    monkeypatch.setattr(graph_builders, "_canonical_many", lambda masks, n: seen.append(len(masks)) or canonical_many(masks, n))
    classes = graph_builders._graph_classes(7)
    assert sum(map(len, classes)) == KNOWN_CLASS_COUNTS[7]
    # The augment-and-dedup generator canonicalised 4,916 masks, and the
    # orderly one 1,962 before kids met the transpositions first.
    assert sum(seen) <= 1300


def test_transposition_pretest_keeps_every_class():
    # Rows 1..n(n-1)/2 of the permutation table are the transpositions, and no
    # class has a lower image under one, so the pre-test rejects no canonical kid.
    for n in range(1, 8):
        top = n * (n - 1) // 2
        _, weights = relabel_weights(n)
        moved = [sum(p[v] != v for v in range(n)) for p in itertools.permutations(range(n))]
        table = graph_builders._perm_weights(n)
        assert table[0].tolist() == [2.0**e for e in range(top)]
        assert sorted(map(tuple, table[1 : top + 1].tolist())) == sorted(
            tuple(row) for row, k in zip(weights.tolist(), moved) if k == 2
        )
        masks = np.array([mask for level in graph_builders._graph_classes(n) for mask in level])
        assert np.all(search._rows(masks, top) @ table[1 : top + 1].T >= masks[:, None]), n


def test_vectorised_connectivity_matches_components():
    # Every labeled graph with n <= 5, and every labeled path with n <= 7:
    # the paths include those whose vertex 1 is an end, at distance n - 1.
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        if n <= 5:
            graphs = [
                LabeledGraph.from_edges(n, (pair for i, pair in enumerate(pairs) if mask >> i & 1))
                for mask in range(1 << len(pairs))
            ]
        else:
            graphs = [LabeledGraph.from_edges(n, zip(p, p[1:])) for p in itertools.permutations(range(1, n + 1))]
        adj = np.zeros((len(graphs), n, n), dtype=bool)
        for b, g in enumerate(graphs):
            for u, v in g.edges:
                adj[b, u - 1, v - 1] = adj[b, v - 1, u - 1] = True
        assert search._connected(adj).tolist() == [is_connected(g) for g in graphs]


def from_edge_key(key: str, n: int) -> LabeledGraph:
    """Inverse of ``edge_key``."""
    tokens = key.split(".") if key != "-" else ()
    return LabeledGraph.from_edges(n, ((int(t[0]), int(t[1])) for t in tokens))


def per_graph_argmax(family: FamilySpec, alpha):
    """Reference: the per-graph ``spectral_radius`` loop the batched ALL scan replaced."""
    near = []
    for g in enumerate_all(FamilySpec(family.n, family.m, connected_only=False, universe=ALL)):
        if family.connected_only and not is_connected(g):
            continue
        near.append((edge_key(g), spectral_radius(g, alpha).rho))
    radii = np.array([rho for _, rho in near])
    rho_max = float(radii.max())
    maximizers = tuple(sorted(key for key, rho in near if rho >= rho_max - RHO_COMPARE_TOL))
    outside = radii[radii < rho_max - RHO_COMPARE_TOL]
    tie_gap = rho_max - float(outside.max()) if len(outside) else float("inf")
    return rho_max, tie_gap, maximizers


@pytest.mark.parametrize("connected_only", [True, False])
@pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(3, 4)])
def test_batched_all_scan_matches_per_graph_solve(alpha, connected_only):
    disconnected_maximizers = 0
    for n in range(1, 8 if connected_only else 7):  # n = 7 connected only, to keep the per-graph reference quick
        for m in range(n - 1 if connected_only else 0, n * (n - 1) // 2 + 1):
            family = FamilySpec(n, m, connected_only=connected_only, universe=ALL)
            report = argmax_rho(family, alpha)
            assert (report.rho_max, report.tie_gap, report.maximizer_set) == per_graph_argmax(family, alpha)
            disconnected_maximizers += sum(
                not is_connected(from_edge_key(key, n)) for key in report.maximizer_set
            )
    # Without connected_only the fallback path decides families such as K_5 u K_1.
    assert (disconnected_maximizers > 0) == (not connected_only)


def one_solve_all_reference(n: int, alpha):
    """Report triples of every ALL family of order n, by (m, connected_only), from every class solved.

    The connected classes are solved in one ``dense_spectra`` call and the
    others by ``spectral_radius``, with nothing pruned.
    """
    masks, connected, starts = search._order_classes(n)
    graphs = [search._labeled_from_mask(mask, n) for mask in masks.tolist()]
    radii = np.empty(len(masks))
    radii[connected] = dense_spectra(alpha_matrices(search._adjacency(masks[connected], n), alpha))[0]
    for i in np.flatnonzero(~connected):
        radii[i] = spectral_radius(graphs[i], alpha).rho
    out = {}
    for connected_only in (True, False):
        for m in range(n - 1 if connected_only else 0, n * (n - 1) // 2 + 1):
            members = [i for i in range(starts[m], starts[m + 1]) if connected[i] or not connected_only]
            rho_max = float(radii[members].max())
            tie = same_radius(radii[members], rho_max)
            below = radii[members][~tie]
            out[m, connected_only] = (
                rho_max,
                rho_max - float(below.max()) if len(below) else float("inf"),
                tuple(sorted(edge_key(graphs[i]) for i in itertools.compress(members, tie))),
            )
    return out


@pytest.mark.parametrize("seeds", [2, search._SEEDS])
def test_pruned_all_scan_matches_one_solve_reference(monkeypatch, seeds):
    # Two seeds per family set x from the second, often below the best
    # non-maximizer, which must then survive the pivot test.
    # Every x lies ``_PRUNE_MARGIN`` below its family's final best non-maximizer, or lower.
    monkeypatch.setattr(search, "_SEEDS", seeds)
    levels = []

    def recorded(mats, x, _test=search.definite_above):
        levels.append(x)
        return _test(mats, x)

    monkeypatch.setattr(search, "definite_above", recorded)
    alphas = [Fraction(0), Fraction(1, 100), Fraction(1, 4), HALF, Fraction(3, 5),
              Fraction(3, 4), Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)]
    for n in range(1, 8):
        _, connected, starts = search._order_classes(n)
        size = np.repeat(np.arange(len(starts) - 1), np.diff(starts))[connected]
        for alpha in alphas:
            scans = {}
            for connected_only in (True, False):
                ms = range(n - 1 if connected_only else 0, len(starts) - 1)
                for report in search._all_reports([FamilySpec(n, m, connected_only, ALL) for m in ms], alpha):
                    m = report.family.m
                    scans[m, connected_only] = (report.rho_max, report.tie_gap, report.maximizer_set)
                    bound = report.rho_max - report.tie_gap - search._PRUNE_MARGIN
                    assert np.all(levels[-1][size == m] <= np.nextafter(bound, math.inf)), (n, alpha, m)
            assert scans == one_solve_all_reference(n, alpha), (n, alpha)


def test_threshold_classes_inside_all_match_threshold_enumeration():
    for n in range(2, 8):
        for m in range(0, n * (n - 1) // 2 + 1):
            inside = [
                g for g in enumerate_all(FamilySpec(n, m, connected_only=False, universe=ALL))
                if is_threshold(g)
            ]
            direct = list(enumerate_threshold(FamilySpec(n, m, connected_only=False)))
            assert len(inside) == len(direct)
            assert ({tuple(sorted(g.degrees(), reverse=True)) for g in inside}
                    == {g.degree_sequence() for g in direct})


# ---------------------------------------------------------------------------
# Extremal argmax
# ---------------------------------------------------------------------------

def test_argmax_h_6_10():
    report = argmax_rho(FamilySpec(6, 10), HALF)
    assert report.maximizer_set == (quasi_star(6, 10).text,)
    assert report.tie_gap > 1e-6
    assert report.matches_theorem is None


def test_argmax_tie_at_m_equals_n_plus_2():
    for n in range(5, 13):
        report = argmax_rho(FamilySpec(n, n + 2), HALF)
        expected = tuple(sorted({quasi_star(n, n + 2).text, tilde_s(n, n + 2).text}))
        assert report.maximizer_set == expected
        assert len(report.maximizer_set) == 2


TIE_WINDOW = "ROADMAP direction 1: same_radius ties radii within the absolute 1e-9 window"


@pytest.mark.xfail(strict=True, reason=TIE_WINDOW)
def test_argmax_s_61_63_near_alpha_one_is_unique():
    # S~(61,63) falls short of S(61,63) by about 5.6e-11, inside the window.
    report = argmax_rho(FamilySpec(61, 63), Fraction(99, 100))
    assert report.maximizer_set == (quasi_star(61, 63).text,)


@pytest.mark.xfail(strict=True, reason=TIE_WINDOW)
def test_argmax_6_8_just_above_half_is_unique():
    # The alpha = 1/2 tie of S(6,8) and S~(6,8) breaks in S's favour just above 1/2.
    report = argmax_rho(FamilySpec(6, 8), Fraction(5000000001, 10000000000))
    assert report.maximizer_set == ("IIIDID",)


def test_argmax_over_all_graphs_universe():
    report = argmax_rho(FamilySpec(6, 10, connected_only=False, universe=ALL), HALF)
    k5_k1 = edge_key(to_labeled(ThresholdGraph("IDDDDI")))
    assert report.maximizer_set == (k5_k1,)


def test_all_family_argmax_reads_only_its_own_edge_count(monkeypatch):
    # One ALL family is scanned from its own classes: the 132 connected classes
    # of order 7 with 10 edges, not all 853 of the order.
    _, connected, starts = search._order_classes(7)
    rows = counted_rows(monkeypatch, "definite_above")
    argmax_rho(FamilySpec(7, 10, universe=ALL), HALF)
    assert rows == [int(connected[starts[10] : starts[11]].sum())] == [132]


@pytest.mark.parametrize("chunk", [1, 3, search.FAMILY_CHUNK])
def test_argmax_report_does_not_depend_on_chunk_size(monkeypatch, chunk):
    cases = [
        (FamilySpec(12, 24), HALF),  # the S ~ S~ tie
        (FamilySpec(9, 14), Fraction(3, 4)),
        (FamilySpec(8, 14, connected_only=False), HALF),  # K_5 u 3K_1 and friends
        (FamilySpec(7, 0, connected_only=False), HALF),  # edgeless
        (FamilySpec(1, 0), HALF),
    ]
    expected = [argmax_rho(family, alpha) for family, alpha in cases]
    monkeypatch.setattr(search, "FAMILY_CHUNK", chunk)
    assert [argmax_rho(family, alpha) for family, alpha in cases] == expected


def one_call_reference(family, alpha):
    """Radii from one unpruned ``family_spectra`` call on every member, and their report triple."""
    masks = reference_masks(family)
    radii = family_spectra(search._rows(masks, family.n), alpha)[0]
    rho_max = float(radii.max())
    tie = same_radius(radii, rho_max)
    below = radii[~tie]
    return radii, (
        rho_max,
        rho_max - float(below.max()) if len(below) else float("inf"),
        tuple(sorted(mask_text(mask, family.n) for mask in itertools.compress(masks, tie))),
    )


def test_streaming_argmax_matches_one_call_reference(monkeypatch):
    """One walk per (n, connectivity, alpha) over every family, in blocks of one node and of 16.

    Each family's report must equal one ``family_spectra`` call on all its
    members.  Blocks of one node test and solve every node alone; blocks of
    16 mix families.  A member that ties the running maximum and later falls
    out of the tie must still count toward ``tie_gap``; the sweep checks that
    it has such members.
    """
    scans = with_dropouts = 0
    for n in range(1, 11):
        for connected_only in (True, False):
            low = n - 1 if connected_only else 0
            families = [FamilySpec(n, m, connected_only=connected_only) for m in range(low, n * (n - 1) // 2 + 1)]
            for alpha in (Fraction(0), HALF, Fraction(3, 4), Fraction(9, 10), Fraction(99, 100)):
                references = [one_call_reference(family, alpha) for family in families]
                for chunk in (1, 16):
                    monkeypatch.setattr(search, "FAMILY_CHUNK", chunk)
                    reports = threshold_argmax(families, alpha)
                    assert [(r.rho_max, r.tie_gap, r.maximizer_set) for r in reports] == [e for _, e in references]
                for radii, expected in references:
                    tie = same_radius(radii, expected[0])
                    scans += 1
                    with_dropouts += bool((same_radius(radii, np.maximum.accumulate(radii)) & ~tie).any())
    assert scans == 1525 and with_dropouts > 0


def counted_rows(monkeypatch, *names):
    """A list that grows by the row count of every call the scan makes to the named kernels."""
    rows = []
    for name in names:
        def counted(dom, *args, _kernel=getattr(search, name)):
            rows.append(len(dom))
            return _kernel(dom, *args)

        monkeypatch.setattr(search, name, counted)
    return rows


def test_pruned_band_scan_matches_one_call_reference(monkeypatch):
    # Every family of ``verify t42 --r 3 --n 24``: 21 families, 10,528 members per alpha.
    rows, members = counted_rows(monkeypatch, "family_spectra"), 0
    tested = counted_rows(monkeypatch, "count_above")
    families = [FamilySpec(24, m) for m in range(46, 67)]
    for alpha in (HALF, Fraction(9, 10)):
        references = [one_call_reference(family, alpha) for family in families]  # not counted
        members += sum(len(radii) for radii, _ in references)
        reports = threshold_argmax(families, alpha)
        assert [(r.rho_max, r.tie_gap, r.maximizer_set) for r in reports] == [e for _, e in references]
    assert members == 2 * 10528 and sum(rows) < members // 20
    # Pruning at each family's best non-maximizer tests 5,178 nodes here; the
    # third-largest radius solved, the level it replaced, tested 5,878.
    assert sum(tested) < 5400


def test_unsure_counts_prune_nothing(monkeypatch):
    # A count of 0 proves nothing on a row with a zero or non-finite pivot: with
    # every row unsure, the walk keeps and solves all 54 members of the families.
    families = [FamilySpec(12, m) for m in range(11, 23)]
    expected = threshold_argmax(families, HALF)
    monkeypatch.setattr(search, "count_above", lambda dom, alpha, x: (np.zeros(len(dom), int), np.ones(len(dom), bool), 0.0))
    rows = counted_rows(monkeypatch, "family_spectra")
    assert threshold_argmax(families, HALF) == expected
    assert sum(rows) == sum(len(list(enumerate_threshold(family))) for family in families) == 54


def test_prune_level_is_below_every_best_non_maximizer(monkeypatch):
    """Every x a scan counts at lies ``_PRUNE_MARGIN`` below its family's final best non-maximizer, or lower.

    So a member proven under x is neither a maximizer nor the member that sets
    ``tie_gap``.  And a family with more members than its seeds and with a
    non-maximizer is tested at a finite x: pruning does start.
    """
    levels = []

    def recorded(dom, alpha, x, _kernel=search.count_above):
        levels.extend(np.ravel(x).tolist())
        return _kernel(dom, alpha, x)

    monkeypatch.setattr(search, "count_above", recorded)
    scans = pruned = 0
    for n in range(1, 13):
        for connected_only in (True, False):
            for m in range(n - 1 if connected_only else 0, n * (n - 1) // 2 + 1):
                family = FamilySpec(n, m, connected_only=connected_only)
                size = len(reference_masks(family))
                for alpha in (Fraction(0), HALF, Fraction(99, 100)):
                    levels.clear()
                    report = argmax_rho(family, alpha)
                    finite = [x for x in levels if math.isfinite(x)]
                    bound = report.rho_max - report.tie_gap - search._PRUNE_MARGIN
                    assert all(x <= np.nextafter(bound, math.inf) for x in finite), (family, alpha)
                    if size > 2 * search._SEEDS and math.isfinite(report.tie_gap):
                        assert finite, (family, alpha)
                        pruned += 1
                    scans += 1
    assert scans == 1590 and pruned == 603


def test_walk_blocks_stay_within_family_chunk(monkeypatch):
    # The frontier is expanded and tested in blocks, and leaves are solved in
    # blocks, of at most FAMILY_CHUNK rows, so memory does not grow with the band.
    alphas = [HALF, Fraction(9, 10)]
    expected = verify("t42", [24], alphas, r=3)
    monkeypatch.setattr(search, "FAMILY_CHUNK", 16)
    rows = counted_rows(monkeypatch, "count_above", "family_spectra")
    assert verify("t42", [24], alphas, r=3) == expected
    assert len(rows) > 100 and max(rows) <= 16


@pytest.mark.parametrize("chunk", [3, 16])
def test_argmax_with_one_seed_per_end_matches_reference(monkeypatch, chunk):
    # Pruning from one quasi-star-like and one quasi-complete-like seed per
    # family, tightened only by the leaves solved since, must still keep
    # every maximizer and the best non-maximizer, which sets tie_gap.
    monkeypatch.setattr(search, "_SEEDS", 1)
    monkeypatch.setattr(search, "FAMILY_CHUNK", chunk)
    cases = [(FamilySpec(12, 24), HALF), (FamilySpec(16, 32), HALF), (FamilySpec(14, 30), Fraction(3, 4)),
             (FamilySpec(16, 40), Fraction(9, 10)), (FamilySpec(16, 40, connected_only=False), Fraction(0))]
    for family, alpha in cases:
        _, expected = one_call_reference(family, alpha)
        report = argmax_rho(family, alpha)
        assert (report.rho_max, report.tie_gap, report.maximizer_set) == expected
        assert math.isfinite(report.tie_gap)


def test_walk_ranks_unrank_to_the_walk_order(monkeypatch):
    # Every family with n <= 10: the subset-sum counts size it, and
    # enumeration unranks its members in descending creation mask, in blocks
    # of one rank and of three (so across block edges).
    families = members = 0
    for family in every_threshold_family(10):
        expected = [mask_text(mask, family.n) for mask in reference_masks(family)]
        *_, size = search._walk_root([family])
        assert size.tolist() == [len(expected)]
        for chunk in (1, 3):
            monkeypatch.setattr(search, "FAMILY_CHUNK", chunk)
            graphs = list(enumerate_threshold(family))
            assert [g.text for g in graphs] == expected, (family, chunk)
        labeled = [to_labeled(g) for g in graphs]
        assert all(g.m == family.m and (is_connected(g) or not family.connected_only) for g in labeled), family
        families, members = families + 1, members + len(expected)
    assert families == 305 and members == 2**10 - 1 + 2**9  # the connected n = 1 member counts twice


def test_walk_counts_are_shared_per_order_across_interleaved_calls():
    # Orders interleaved across calls, connected and not: each list equals a
    # call's with the count tables cleared, and each walk height (n - 2
    # connected, n - 1 not) builds one table, which its later families reuse.
    sequence = [(9, 14), (5, 6), (9, 22), (12, 40), (9, 30), (5, 8), (12, 25)]
    families = [FamilySpec(n, m, connected_only) for n, m in sequence for connected_only in (True, False)]
    warm = [[g.text for g in enumerate_threshold(family)] for family in families]
    assert search._subset_counts.cache_info().misses == len({n - 1 - c for n, _ in sequence for c in (True, False)}) == 6
    for family, texts in zip(families, warm):
        search._subset_counts.cache_clear()
        assert [g.text for g in enumerate_threshold(family)] == texts, family
    assert sum(map(len, warm)) == 220


def exact_subset_counts(top: int, most: int) -> list[list[int]]:
    """The subset-sum table in Python ints, unbounded."""
    rows = [[1] + [0] * most]
    for t in range(1, top + 1):
        rows.append([rows[-1][s] + (rows[-1][s - t] if s >= t else 0) for s in range(most + 1)])
    return rows


def test_subset_counts_saturate_at_the_cap():
    # {1..75} has about 2^66 subsets summing to 1425, above the cap.
    top, most = 75, 75 * 76 // 2
    exact = exact_subset_counts(top, most)
    capped = search._subset_counts(top)
    assert capped.dtype == np.int64 and not capped[:, most + 1 :].any()
    assert capped[:, : most + 1].tolist() == [[min(v, search._COUNT_CAP) for v in row] for row in exact]
    assert max(map(max, exact)) > search._COUNT_CAP


def test_large_order_family_with_one_member():
    # n = 80 needs subset-sum counts beyond int64; K_80 less one edge is the only member.
    family = FamilySpec(80, 3159)
    assert [g.text for g in enumerate_threshold(family)] == ["II" + "D" * 78]
    assert argmax_rho(family, HALF).maximizer_set == ("II" + "D" * 78,)


def test_family_at_the_count_cap_is_refused():
    # About 2^69 members: saturated ranks would be wrong, so neither walk starts.
    family = FamilySpec(80, 1600)
    with pytest.raises(ValueError, match="too many to walk"):
        next(enumerate_threshold(family))
    with pytest.raises(ValueError, match="too many to walk"):
        argmax_rho(family, HALF)


def dense_radii(dom, alpha):
    """Top eigenvalue by ``eigvalsh`` of each row's threshold graph: u < v adjacent iff step v dominates."""
    n = dom.shape[1]
    pos = np.arange(n)
    adj = dom[:, np.maximum.outer(pos, pos)] & ~np.eye(n, dtype=bool)
    return np.linalg.eigvalsh(alpha_matrices(adj, alpha))[:, -1]


def test_supergraph_bounds_every_completion():
    # Every node of every threshold family with n <= 10: its supergraph's
    # radius is at least that of each member below it, which is what makes
    # dropping a node whose supergraph counts no eigenvalue above x sound.
    nodes = 0
    for n in range(2, 11):
        order = np.arange(1 << (n - 1))
        every = np.zeros((len(order), n), dtype=bool)
        every[:, 1:] = order[:, None] >> np.arange(n - 1) & 1
        for connected_only in (True, False):
            root, _, top, _, _ = search._walk_root([FamilySpec(n, n * (n - 1) // 2, connected_only)])
            dom = every[every[:, n - 1]] if root[0, n - 1] else every
            for alpha in (Fraction(0), HALF, Fraction(99, 100)):
                rho = dense_radii(dom, alpha)
                for t in range(1, top + 1):
                    # A level-t node: the steps above t decided, and the sum its undecided steps 1..t must reach.
                    prefix, need = dom.copy(), dom[:, 1 : t + 1] @ np.arange(1, t + 1)
                    prefix[:, : t + 1] = False
                    keys, node = np.unique(np.column_stack((prefix, need)), axis=0, return_inverse=True)
                    node = node.ravel()
                    best = np.full(len(keys), -np.inf)
                    np.maximum.at(best, node, rho)
                    supergraphs = search._supergraphs(keys[:, :n].astype(bool), keys[:, n], t)
                    assert np.all(dense_radii(supergraphs, alpha) >= best - 1e-10), (n, connected_only, alpha, t)
                    nodes += len(keys)
    assert nodes > 10000


def test_argmax_deterministic_and_thread_invariant():
    fam = FamilySpec(9, 14)
    first = argmax_rho(fam, Fraction(3, 4))
    again = argmax_rho(fam, Fraction(3, 4))
    assert first.maximizer_set == again.maximizer_set
    assert first.rho_max == again.rho_max
    assert first.tie_gap == again.tie_gap


def test_report_record_format():
    report = argmax_rho(FamilySpec(6, 8), HALF)
    line = report.record()
    assert line.startswith("family=H,n=6,m=8,alpha=1/2 rho=")
    assert " maximizers=" in line and " tie_gap=" in line and line.endswith("ok=1")


# ---------------------------------------------------------------------------
# Verification drivers
# ---------------------------------------------------------------------------

def test_predicted_maximizers():
    assert predicted_maximizers(6, 10, HALF) == {quasi_star(6, 10).text}
    assert predicted_maximizers(6, 8, HALF) == {quasi_star(6, 8).text, tilde_s(6, 8).text}
    assert predicted_maximizers(6, 8, Fraction(3, 4)) == {quasi_star(6, 8).text}
    # Disconnected S~(4,3) never enters a connected prediction.
    assert predicted_maximizers(4, 3, HALF) == {quasi_star(4, 3).text}


def test_verify_sparse_band_small():
    reports = verify("t41", range(4, 9), [HALF, Fraction(3, 4)])
    assert all(r.matches_theorem for r in reports)
    ties = [r for r in reports if len(r.maximizer_set) == 2]
    assert all(r.alpha == HALF and r.family.m == r.family.n + 2 for r in ties)
    assert {r.family.n for r in ties} == {5, 6, 7, 8}  # n=4 tie partner collapses to K_4


def test_verify_all_graphs_2n2_small():
    reports = verify("t12", range(4, 9), [HALF])
    assert all(r.matches_theorem for r in reports)
    at6 = [r for r in reports if r.family.n == 6][0]
    assert at6.maximizer_set == ("IDDDDI",)
    at5 = [r for r in reports if r.family.n == 5][0]
    assert at5.maximizer_set == (quasi_star(5, 8).text,)


def test_near_tie_warning_names_the_gap():
    # At alpha = 99/100 the best non-maximizer of the m = 11 family comes within 1e-6.
    warned = {r.family.m: r.warnings for r in verify("t41", [9], [Fraction(99, 100)]) if r.warnings}
    assert warned == {11: ("near-tie: best non-maximizer within 7.316e-07 of the maximum",)}


def test_clique_band_hypothesis_bound_formula():
    assert clique_band_hypothesis_bound(3) == pytest.approx((27 + 5 * 17 ** 0.5) / 2)


def test_verify_clique_band_tie_instance():
    # The n = 24 instance (tie at m = 48) is criterion 3; n = 12 ties at m = 24.
    reports = verify("t42", [12], [HALF], r=3)
    assert all("near-tie" not in w for r in reports for w in r.warnings)
    tie = [r for r in reports if r.family.m == 24][0]
    assert set(tie.maximizer_set) == {quasi_star(12, 24).text, tilde_s(12, 24).text}
    assert tie.matches_theorem


def test_verify_clique_band_flags_small_n():
    reports = verify("t42", [12], [Fraction(3, 4)], r=3)
    assert all(any("outside-hypothesis" in w for w in r.warnings) for r in reports)


def test_threshold_dominance_examples():
    assert threshold_dominance_report(4, 3, 0).matches_theorem
    report = threshold_dominance_report(4, 3, 0)
    assert report.maximizer_set == ("12.13.14",)  # the star, not the path
    assert report.rho_max == pytest.approx(3 ** 0.5, abs=1e-9)
    assert threshold_dominance_report(6, 10, HALF).matches_theorem


def test_threshold_dominance_all_m_n5():
    for m in range(4, 11):
        for alpha in (Fraction(0), HALF, Fraction(3, 4)):
            assert threshold_dominance_report(5, m, alpha).matches_theorem


def test_threshold_dominance_report_scans_only_its_own_family(monkeypatch):
    # One family's report reads the 132 connected classes of order 7 with 10 edges, not all 853 of the order.
    rows = counted_rows(monkeypatch, "definite_above")
    threshold_dominance_report(7, 10, HALF)
    assert rows == [132]


@pytest.mark.parametrize("n, m", [(5, 3), (5, 2), (5, 11), (8, 7), (8, 20)])
def test_threshold_dominance_rejects_infeasible_families(n, m):
    # FamilySpec refuses each: m below n - 1 or above n(n-1)/2, and orders above 7.
    with pytest.raises(ValueError):
        threshold_dominance_report(n, m, HALF)


@pytest.mark.parametrize("n, message", [(0, "need n >= 1"), (8, "limited to n <= 7")])
def test_dominance_sweep_rejects_orders_outside_the_exhaustive_range(n, message):
    with pytest.raises(ValueError, match=message):
        verify("lemma24", [n], [HALF])


@pytest.mark.parametrize("call, message", [
    (lambda: LabeledGraph.from_edges(3, [(2, 2)]), "loop at vertex 2"),
    (lambda: list(enumerate_all(FamilySpec(5, 6))), "enumerate_all needs an ALL family"),
    (lambda: threshold_argmax([FamilySpec(6, 8), FamilySpec(7, 8)], HALF),
     "the threshold walk needs THRESHOLD families of one order and connectivity"),
    (lambda: list(candidate_specs(6, "DIAG")), "kind must be one of ('BASIC', 'ROW', 'COL'), got 'DIAG'"),
    (lambda: quasi_star(0, 0), "need n >= 1"),
    (lambda: verify("t12", [5], [Fraction(3, 4)]), "verify t12 checks alpha = 1/2 only"),
    (lambda: verify("t42", [12], [HALF]), "band verification needs r >= 3"),
])
def test_api_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


DOMINANCE_ALPHAS = [Fraction(0), Fraction(1, 100), Fraction(1, 4), HALF, Fraction(3, 5), Fraction(3, 4), Fraction(9, 10),
                    Fraction(99, 100), Fraction(999, 1000), Fraction(9999, 10000), Fraction(99999, 100000)]


def test_dominance_verdict_matches_the_two_scan_verdict():
    # The one ALL scan's verdict, "every maximizer is threshold", is the verdict that also
    # compared the ALL maximum with a threshold walk's, on every record, including the
    # ok=0 window records near alpha = 1; a one-family report is its sweep row.
    failures = 0
    for n in range(1, 8):
        for alpha in DOMINANCE_ALPHAS:
            reports = search._all_reports([FamilySpec(n, m, universe=ALL) for m in range(n - 1, n * (n - 1) // 2 + 1)], alpha)
            walk = threshold_argmax([FamilySpec(n, report.family.m) for report in reports], alpha)
            expected = [
                replace(report, matches_theorem=same_radius(report.rho_max, threshold.rho_max)
                        and all(is_threshold(from_edge_key(key, n)) for key in report.maximizer_set))
                for report, threshold in zip(reports, walk)
            ]
            assert verify("lemma24", [n], [alpha]) == expected, (n, alpha)
            assert [threshold_dominance_report(n, r.family.m, alpha) for r in expected] == expected, (n, alpha)
            failures += sum(not r.matches_theorem for r in expected)
    assert failures == 13  # ROADMAP direction 1: the window ties a non-threshold class near alpha = 1


@pytest.mark.xfail(strict=True, reason=TIE_WINDOW)
def test_dominance_near_alpha_one_has_only_threshold_maximizers():
    # The non-threshold 12.13.14.15.25.34 (degrees 4,2,2,2,2) falls short of the
    # threshold 12.13.14.15.23.24 by about 3.3e-11, inside the window.
    assert threshold_dominance_report(5, 6, Fraction(99999, 100000)).matches_theorem


def test_dominance_sweep_scans_each_order_and_alpha_once(monkeypatch):
    # A sweep solves each order once per alpha, however many alphas it has:
    # no threshold walk, one dense call for the seeds and one for the classes left.
    walks = []

    def counted(*args, _walk=search.threshold_argmax):
        walks.append(args)
        return _walk(*args)

    monkeypatch.setattr(search, "threshold_argmax", counted)
    rows = counted_rows(monkeypatch, "dense_spectra")
    alphas = [Fraction(k, 17) for k in range(17)]
    reports = verify("lemma24", [7], alphas)
    assert len(walks) == 0 and len(rows) == 2 * 17
    assert [(r.family.m, r.alpha) for r in reports] == [(m, a) for m in range(6, 22) for a in alphas]
    assert all(r.matches_theorem for r in reports)
    assert reports[(9 - 6) * 17 + 5] == threshold_dominance_report(7, 9, alphas[5])
    # The pivot test leaves at most 15% of the 853 connected classes of order 7 to the dense solver.
    for alpha in (Fraction(0), HALF, Fraction(3, 4)):
        rows.clear()
        verify("lemma24", [7], [alpha])
        assert sum(rows) <= 0.15 * 853, alpha
