"""Threshold-graph representation, recognition, and named constructions."""

import dataclasses
import itertools

import pytest

from quasistar import graphs
from quasistar.graphs import (
    DOMINATING,
    ISOLATED,
    LabeledGraph,
    NotThresholdError,
    ThresholdGraph,
    format_edge_list,
    from_degree_sequence,
    l_graph,
    parse_edge_list,
    quasi_star,
    threshold_from_labeled,
    tilde_s,
    to_labeled,
)
from graph_builders import (
    bitrows,
    complete_graph,
    creation_index_labeling,
    graph_union,
    is_threshold,
    stepwise_bitrows,
    stepwise_row,
    threshold_graphs,
)


def edges(g: LabeledGraph):
    return set(g.edges)


def empty_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, [])


def graph_join(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Join: disjoint union plus all edges between the two sides."""
    across = [(u, g1.n + v) for u in range(1, g1.n + 1) for v in range(1, g2.n + 1)]
    return LabeledGraph.from_edges(g1.n + g2.n, list(graph_union(g1, g2).edges) + across)


# ---------------------------------------------------------------------------
# Creation sequences
# ---------------------------------------------------------------------------

def test_single_vertex():
    g = ThresholdGraph("I")
    assert g.n == 1 and g.m == 0 and g.is_connected


def test_k5_plus_isolated_vertex():
    g = ThresholdGraph("IDDDDI")
    assert g.m == 10
    assert not g.is_connected
    assert g.degree_sequence() == (4, 4, 4, 4, 4, 0)
    lab = to_labeled(g)
    comps = lab.components()
    assert sorted(len(c) for c in comps) == [1, 5]


def test_star_from_sequence():
    g = ThresholdGraph("IIIIID")
    assert g.degree_sequence() == (5, 1, 1, 1, 1, 1)


def test_creation_sequence_errors():
    with pytest.raises(ValueError):
        ThresholdGraph("")
    with pytest.raises(ValueError):
        ThresholdGraph("DII")
    with pytest.raises(ValueError):
        ThresholdGraph("IXD")
    with pytest.raises(TypeError):
        ThresholdGraph(("I", "D"))  # a tuple of symbols is not a creation sequence


def test_edge_count_matches_dominating_positions():
    for g in threshold_graphs(7):
        expect = sum(i for i, s in enumerate(g.text) if s == DOMINATING)
        assert g.m == expect == to_labeled(g).m


# ---------------------------------------------------------------------------
# Degree-descending labeling and the stepwise property
# ---------------------------------------------------------------------------

def test_to_labeled_quasi_star_6_9():
    lab = to_labeled(quasi_star(6, 9))
    assert edges(lab) == {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                          (2, 3), (2, 4), (2, 5), (2, 6)}


def test_to_labeled_quasi_star_6_10():
    lab = to_labeled(quasi_star(6, 10))
    assert edges(lab) == {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                          (2, 3), (2, 4), (2, 5), (2, 6), (3, 4)}


def test_to_labeled_single_vertex():
    assert edges(to_labeled(ThresholdGraph("I"))) == set()


def is_stepwise(g: LabeledGraph) -> bool:
    """Edge-level reference: the stepwise property of g in its given labeling.

    a_hk = 1 with h > k must force a_ij = 1 for all j < i <= h, j <= k; the
    local form (left and upper neighbors of every 1-entry are 1) is
    equivalent.
    """
    rows = bitrows(g)
    for h in range(2, g.n + 1):
        for k in range(1, h):
            if not rows[h] >> k & 1:
                continue
            if h - 1 > k and not rows[h - 1] >> k & 1:
                return False
            if k >= 2 and not rows[h] >> (k - 1) & 1:
                return False
    return True


def test_stepwise_property_all_n7():
    for g in threshold_graphs(7):
        lab = to_labeled(g)
        assert is_stepwise(lab)
        degs = lab.degrees()
        assert all(degs[i] >= degs[i + 1] for i in range(lab.n - 1))


def test_stepwise_rows_match_labeled_bitrows():
    # The prefix rule on the package's degree sequence gives the rows of the reference labeling.
    for n in range(1, 10):
        for g in threshold_graphs(n):
            reference = creation_index_labeling(g)
            rows = [0] + [stepwise_row(v, d) for v, d in enumerate(g.degree_sequence(), start=1)]
            assert rows == bitrows(reference)
            assert to_labeled(g) == reference


def test_stepwise_edge_iff_column_within_degree():
    # The lemma behind the rewiring corner-cell rule: in stepwise labels, (u, v) with
    # u < v is an edge iff u <= deg(v).  Every graph with n <= 10, connected or not.
    for n in range(1, 11):
        for g in threshold_graphs(n):
            rows, deg = stepwise_bitrows(g), (0,) + g.degree_sequence()
            for v in range(2, n + 1):
                for u in range(1, v):
                    assert bool(rows[v] >> u & 1) == (u <= deg[v]), (g.text, u, v)


def test_is_stepwise_rejects_bad_labelings():
    # Path 1-2-3 labeled with the center last is not stepwise.
    assert not is_stepwise(LabeledGraph.from_edges(3, [(1, 3), (2, 3)]))
    assert is_stepwise(LabeledGraph.from_edges(3, [(1, 2), (1, 3)]))


# ---------------------------------------------------------------------------
# Recognition: the degree peel against the forbidden-subgraph reference
# ---------------------------------------------------------------------------

def is_threshold_by_forbidden_subgraphs(g: LabeledGraph) -> bool:
    """Edge-level reference: quartic scan for an induced 2K_2, C_4, or P_4."""
    nbrs = g.neighbor_sets()
    for quad in itertools.combinations(range(1, g.n + 1), 4):
        sub = []
        for u, v in itertools.combinations(quad, 2):
            if v in nbrs[u]:
                sub.append((u, v))
        e = len(sub)
        if e not in (2, 3, 4):
            continue
        deg = {v: 0 for v in quad}
        for u, v in sub:
            deg[u] += 1
            deg[v] += 1
        profile = tuple(sorted(deg.values()))
        if (e, profile) in ((2, (1, 1, 1, 1)), (3, (1, 1, 2, 2)), (4, (2, 2, 2, 2))):
            return False
    return True


G_6_9_EDGES = [(1, 2), (1, 3), (1, 4), (1, 5), (3, 4), (1, 6), (2, 6), (2, 3), (2, 5)]


def test_is_threshold_examples():
    assert is_threshold(to_labeled(quasi_star(6, 9)))
    assert not is_threshold(LabeledGraph.from_edges(6, G_6_9_EDGES))
    c4 = LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert not is_threshold(c4)
    p4 = LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert not is_threshold(p4)
    two_k2 = LabeledGraph.from_edges(4, [(1, 2), (3, 4)])
    assert not is_threshold(two_k2)


def test_degree_peel_matches_forbidden_subgraphs_on_all_graphs_n6():
    # Every labeled graph with n <= 6 (33,867 graphs).
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = LabeledGraph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            assert is_threshold(g) == is_threshold_by_forbidden_subgraphs(g), (n, mask)


def test_every_threshold_graph_passes_all_recognizers():
    for g in threshold_graphs(7):
        lab = to_labeled(g)
        assert is_threshold(lab)
        assert is_threshold_by_forbidden_subgraphs(lab)


def test_threshold_from_labeled_is_invariant_under_relabeling():
    # Every labeling of every threshold graph with n <= 6, not only stepwise ones.
    for n in range(1, 7):
        for g in threshold_graphs(n):
            lab = to_labeled(g)
            for perm in itertools.permutations(range(1, n + 1)):
                relabeled = LabeledGraph.from_edges(
                    n, ((perm[u - 1], perm[v - 1]) for u, v in lab.edges)
                )
                assert threshold_from_labeled(relabeled) == g


# ---------------------------------------------------------------------------
# Canonical form and degree sequences
# ---------------------------------------------------------------------------

def test_creation_sequences_are_canonical_and_distinct():
    # Distinct sequences give structurally distinct graphs, and peeling the
    # labeled graph recovers exactly the sequence it was built from.
    for n in range(1, 8):
        seen_degree_seqs = set()
        for g in threshold_graphs(max(n, 1)):
            assert threshold_from_labeled(to_labeled(g)) == g
            seen_degree_seqs.add(g.degree_sequence())
        assert len(seen_degree_seqs) == 2 ** (max(n, 1) - 1)


def test_connected_count_is_half():
    for n in range(2, 9):
        graphs = list(threshold_graphs(n))
        connected = [g for g in graphs if g.is_connected]
        assert len(graphs) == 2 ** (n - 1)
        assert len(connected) == 2 ** (n - 2)
        assert all(g.text[-1] == DOMINATING for g in connected)


def test_from_degree_sequence_round_trip():
    for g in threshold_graphs(7):
        assert from_degree_sequence(g.degree_sequence()) == g


def test_from_degree_sequence_examples():
    assert from_degree_sequence((5, 5, 2, 2, 2, 2)) == quasi_star(6, 9)
    assert from_degree_sequence((4,) * 5) == ThresholdGraph("IDDDD")  # K_5
    assert from_degree_sequence((2, 1, 1)) == ThresholdGraph("IID")  # P_3


def test_from_degree_sequence_failures_report_step():
    with pytest.raises(NotThresholdError) as err:
        from_degree_sequence((2, 2, 2, 2))  # C_4 degrees
    assert "stuck" in str(err.value)
    with pytest.raises(ValueError):
        from_degree_sequence((1, 2, 1))  # not non-increasing
    with pytest.raises(NotThresholdError):
        from_degree_sequence((5, 1, 1))  # out of range


def test_peel_accepts_exactly_the_threshold_sequences():
    # Every non-increasing sequence with entries in [-1, n], 33,097 in all.
    for n in range(1, 9):
        accepted = 0
        for d in itertools.combinations_with_replacement(range(n, -2, -1), n):
            try:
                g = from_degree_sequence(d)
            except NotThresholdError:
                continue
            assert g.degree_sequence() == d
            accepted += 1
        assert accepted == 2 ** (n - 1)


# ---------------------------------------------------------------------------
# Split parameters
# ---------------------------------------------------------------------------

def test_split_params_examples():
    assert graphs._clique_split(6, 10) == (2, 1)
    for n in (5, 9, 30):
        assert graphs._clique_split(n, n - 1) == (1, 0)
        assert l_graph(n, n - 1).text == "I" * (n - 1) + "D"  # kbar = 1, abar = 0: the star
    assert graphs._clique_split(6, 15) == (5, 0)
    assert l_graph(6, 10).text == "IIDDID"  # kbar = 3, abar = 2
    # tilde_s reads the split at m - 3, which may lie below n - 1.
    assert graphs._clique_split(6, 0) == (0, 0)
    assert graphs._clique_split(6, -2) == (0, -2)


def test_split_params_reconstruction():
    # Every L that CI pins (n <= 40), checked against the kbar/abar definition rather than l_graph's formula.
    for n in range(2, 41):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            k, a = graphs._clique_split(n, m)
            used = sum(n - i for i in range(1, k + 1))
            assert used + a == m
            if a > 0:
                assert a < n - k - 1
            kbar = max(j for j in range(1, n) if j * (j - 1) // 2 <= m - n + 1)
            abar = m - n + 1 - kbar * (kbar - 1) // 2
            assert 0 <= abar <= kbar - 1
            # L(n,m): a universal vertex over a kbar-clique, one vertex joined to abar of it, and pendants.
            extra = [abar + 1] if abar else []
            expected = [n - 1] + [kbar + 1] * abar + [kbar] * (kbar - abar) + extra + [1] * (n - 1 - kbar - len(extra))
            assert list(l_graph(n, m).degree_sequence()) == sorted(expected, reverse=True), (n, m)


def test_split_params_range_errors():
    for builder in (quasi_star, l_graph):
        with pytest.raises(ValueError):
            builder(6, 2)
        with pytest.raises(ValueError):
            builder(6, 16)


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def test_quasi_star_examples():
    assert quasi_star(6, 5).degree_sequence() == (5, 1, 1, 1, 1, 1)  # star
    # degree profile: k full vertices, star center k+a, a leaves k+1, rest k
    g = quasi_star(9, 23)
    k, a = graphs._clique_split(9, 23)
    expected = sorted([8] * k + [k + a] + [k + 1] * a + [k] * (9 - a - k - 1), reverse=True)
    assert list(g.degree_sequence()) == expected
    assert quasi_star(6, 15) == ThresholdGraph("IDDDDD")  # complete


def test_l_graph_examples():
    lab = to_labeled(l_graph(6, 10))
    assert edges(lab) == {(1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                          (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)}
    for n in (5, 8, 12):
        assert l_graph(n, n - 1).degree_sequence() == (n - 1,) + (1,) * (n - 1)


def test_l_graph_equals_tilde_s_at_n_plus_2():
    for n in range(4, 13):
        assert l_graph(n, n + 2) == tilde_s(n, n + 2)


def test_tilde_s_examples():
    g = tilde_s(6, 8)  # K_1 v (K_3 u 2K_1)
    assert g.degree_sequence() == (5, 3, 3, 3, 1, 1)
    with pytest.raises(ValueError):
        tilde_s(7, 8)
    g = tilde_s(24, 48)  # K_2 v (K_3 u 19 K_1)
    assert g.m == 48
    assert g.degree_sequence() == (23, 23, 4, 4, 4) + (2,) * 19


def test_single_vertex_families():
    assert quasi_star(1, 0).text == "I"
    assert l_graph(1, 0).text == "I"


def test_family_members_are_threshold_with_m_edges():
    for n in range(2, 11):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for builder in (quasi_star, l_graph):
                g = builder(n, m)
                assert g.m == m and g.is_connected
                assert is_threshold(to_labeled(g))
            try:
                t = tilde_s(n, m)
            except ValueError:
                continue
            assert t.m == m and is_threshold(to_labeled(t))


def test_family_size_check_raises_outside_asserts(monkeypatch):
    # A builder that ends one dominating step short has too few edges; the
    # check must raise, not assert, so that it survives ``python -O``.
    build = graphs.ThresholdGraph
    monkeypatch.setattr(graphs, "ThresholdGraph", lambda text: build(text[:-1] + ISOLATED))
    for family in (quasi_star, l_graph, tilde_s):
        with pytest.raises(RuntimeError, match="edges, not m=8"):
            family(6, 8)


def test_family_range_errors():
    with pytest.raises(ValueError):
        quasi_star(6, 16)
    with pytest.raises(ValueError):
        l_graph(6, 4)


# ---------------------------------------------------------------------------
# Join and union
# ---------------------------------------------------------------------------

def test_join_makes_star():
    g = graph_join(complete_graph(1), empty_graph(3))
    assert threshold_from_labeled(g) == ThresholdGraph("IIID")


def test_union_k5_k1():
    g = graph_union(complete_graph(5), complete_graph(1))
    assert threshold_from_labeled(g) == ThresholdGraph("IDDDDI")


def test_join_builds_quasi_star_6_10():
    inner = graph_union(complete_graph(2), empty_graph(2))  # K_{1,1} u 2K_1
    g = graph_join(complete_graph(2), inner)
    assert threshold_from_labeled(g) == quasi_star(6, 10)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def test_edge_list_round_trip():
    g = to_labeled(quasi_star(6, 10))
    text = format_edge_list(g)
    assert text.splitlines()[0] == "6 10"
    assert parse_edge_list(text) == g


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n2 1")  # u < v violated
    with pytest.raises(ValueError):
        parse_edge_list("2 2\n1 2")  # wrong edge count


def test_threshold_graph_is_its_creation_text():
    g = ThresholdGraph("IDDDDI")
    assert [f.name for f in dataclasses.fields(g)] == ["text"]
    assert g.text == "IDDDDI" and g.n == 6
    assert g == ThresholdGraph("IDDDDI") and hash(g) == hash(ThresholdGraph("IDDDDI"))
    assert g != ThresholdGraph("IDDDDD")
