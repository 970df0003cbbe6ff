"""Brute-force graph builders shared by the test modules, and two predicates on labeled graphs that only tests use."""

import itertools

from quasistar.graphs import LabeledGraph, ThresholdGraph, is_threshold_degrees


def threshold_graphs(n: int):
    """Every threshold graph on n vertices: one per creation sequence, tails in product order (I before D)."""
    for tail in itertools.product("ID", repeat=n - 1):
        yield ThresholdGraph("I" + "".join(tail))


def connected_threshold_graphs(max_n: int):
    """Every connected threshold graph on 2..max_n vertices, in ``threshold_graphs`` order: the sequences ending in D."""
    return (g for n in range(2, max_n + 1) for g in threshold_graphs(n) if g.is_connected)


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def graph_union(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Disjoint union; vertices of g2 are shifted by g1.n."""
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return LabeledGraph.from_edges(g1.n + g2.n, list(g1.edges) + shifted)


def is_threshold(g: LabeledGraph) -> bool:
    """True iff g is a threshold graph (no induced 2K_2, C_4, or P_4).

    Tested by peeling the sorted degrees: threshold sequences are unigraphic,
    so any graph whose degrees peel is the threshold graph they describe.
    """
    return is_threshold_degrees(g.degrees())


def is_connected(g: LabeledGraph) -> bool:
    """True iff g has one connected component."""
    return len(g.components()) == 1
