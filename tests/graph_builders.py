"""Brute-force graph builders shared by the test modules, two predicates on labeled graphs
that only tests use, the bitmask-row reference for stepwise labels, and the generator of the
package's table of graph classes (``quasistar/_classes.py``).

``PYTHONPATH=src python tests/graph_builders.py`` rewrites that table from the generator.
"""

import functools
import itertools
from pathlib import Path

import numpy as np

from quasistar.graphs import DOMINATING, LabeledGraph, ThresholdGraph, is_threshold_degrees
from quasistar.search import ALL, FamilySpec, _pairs
from quasistar.spectra import _rows


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


# ---------------------------------------------------------------------------
# Stepwise labels as bitmask rows, built without the package's degree rule
# ---------------------------------------------------------------------------

def bitrows(g: LabeledGraph) -> list[int]:
    """Adjacency rows as bitmasks, bit v set iff adjacent to vertex v; index 0 is unused."""
    rows = [0] * (g.n + 1)
    for u, v in g.edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def creation_index_labeling(g: ThresholdGraph) -> LabeledGraph:
    """Reference stepwise labeling: creation steps sorted by (-degree, -index)."""
    deg = g.creation_degrees()
    order = sorted(range(g.n), key=lambda i: (-deg[i], -i))
    rank = {pos: r + 1 for r, pos in enumerate(order)}
    edges = []
    for i, sym in enumerate(g.text):
        if sym == DOMINATING:
            edges.extend((rank[i], rank[j]) for j in range(i))
    return LabeledGraph.from_edges(g.n, edges)


@functools.lru_cache(maxsize=None)
def stepwise_bitrows(g: ThresholdGraph) -> tuple[int, ...]:
    """``bitrows`` of ``creation_index_labeling(g)``, once per graph."""
    return tuple(bitrows(creation_index_labeling(g)))


def stepwise_row(v: int, d: int) -> int:
    """Bitmask of the prefix neighborhood of vertex v with degree d.

    Vertex v is adjacent to 1..d, or to 1..d+1 except itself when v <= d.
    """
    reach = d + (v <= d)
    return ((1 << (reach + 1)) - 2) & ~(1 << v)


# ---------------------------------------------------------------------------
# The graph classes of order n <= 7, generated orderly, and their table
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _perm_weights(n: int) -> np.ndarray:
    """Row per vertex permutation: weight 2^(image slot) per edge slot; row 0 is the identity, rows 1..n(n-1)/2 the transpositions.

    A graph bitmask b maps under permutation row w to sum(w[e] for e in b).
    Every image is below 2^21 (n <= 7), inside float32's 24-bit significand,
    so the float32 table and its products are exact.
    """
    ends = np.array(_pairs(n), dtype=np.intp).reshape(-1, 2) - 1
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):  # insert vertex k at each position of every permutation of 0..k-1
        perms = np.concatenate([np.insert(perms, at, k, axis=1) for at in range(k + 1)])
    perms = perms[np.argsort((perms != np.arange(n)).sum(axis=1), kind="stable")]  # by points moved: 0, 2, then more
    x, y = perms[:, ends[:, 0]], perms[:, ends[:, 1]]
    lo, hi = np.minimum(x, y).astype(np.int16), np.maximum(x, y).astype(np.int16)
    # Pair (lo, hi), 0-based, is slot lo*(2n-1-lo)/2 + hi-lo-1 of combinations order.
    slot = lo * (2 * n - 1 - lo) // 2 + hi - lo - 1
    return np.ldexp(np.float32(1), slot)


def _canonical_many(masks, n: int, chunk: int = 64) -> list[int]:
    """Canonical form (minimum relabeling) of each bitmask in masks.

    Chunks of 64 keep the (chunk x n!) float32 product at 1.3 MB for n = 7.
    """
    weights = _perm_weights(n)
    rows = _rows(masks, weights.shape[1]).astype(np.float32)
    out = []
    for lo in range(0, len(masks), chunk):
        out.extend((rows[lo : lo + chunk] @ weights.T).min(axis=1).astype(np.int64).tolist())
    return out


def _graph_classes(n: int):
    """Canonical bitmasks of all isomorphism classes, indexed by edge count, generated orderly (Read, 1978).

    A least image with its lowest vacant slot filled is a least image, so each class with m - 1 edges is met
    once: as the child of the class with m edges that drops an edge below that class's lowest vacancy.
    """
    FamilySpec(n, 0, connected_only=False, universe=ALL)  # raises unless 1 <= n <= MAX_EXHAUSTIVE_N
    top = n * (n - 1) // 2
    bits, full = 1 << np.arange(top, dtype=np.int64), (1 << top) - 1
    swaps = _perm_weights(n)[1 : top + 1].T
    down = [(full,)]  # down[j]: the classes with top - j edges
    for _ in range(top // 2):
        parents = np.array(down[-1], dtype=np.int64)[:, None]
        kids = (parents ^ bits)[bits < (~parents & parents + 1)]  # drop an edge below the lowest vacancy
        kids = kids[(_rows(kids, top).astype(np.float32) @ swaps >= kids[:, None]).all(axis=1)]  # no transposition lowers it
        down.append(tuple(sorted(kids[kids == _canonical_many(kids, n)].tolist())))
    # Complementing maps the classes with m edges one to one onto those with
    # top - m, so the lower half costs a canonical form per class.
    up = [tuple(sorted(_canonical_many([full ^ c for c in down[m]], n))) for m in range(top + 1 - len(down))]
    return tuple(up) + tuple(reversed(down))


def render_classes() -> str:
    """The text of ``quasistar/_classes.py``: ``_graph_classes(n)`` for n = 1..7, one hex string per edge count."""
    lines = [
        '"""Canonical edge bitmasks of every graph class on n <= 7 vertices.  Generated; do not edit.',
        "",
        "``CLASSES[n][m]`` lists the isomorphism classes with n vertices and m edges, ascending, each as",
        "the hex of its least image over all vertex relabelings; bit i is pair i of ``combinations(1..n, 2)``.",
        "The orderly generator in ``tests/graph_builders.py`` wrote it, and the tests compare the two byte",
        "for byte.  Regenerate it with ``PYTHONPATH=src python tests/graph_builders.py``.",
        '"""',
        "",
        "CLASSES = {",
    ]
    for n in range(1, 8):
        lines.append(f"    {n}: (")
        for level in _graph_classes(n):
            # Adjacent literals join at compile time, so each level is one string however it wraps.
            words = [f"{mask:x}" for mask in level]
            rows = [" ".join(words[i : i + 12]) for i in range(0, len(words), 12)]
            lines.extend(f'        "{row} "' for row in rows[:-1])
            lines.append(f'        "{rows[-1]}",')
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    (Path(__file__).resolve().parents[1] / "src" / "quasistar" / "_classes.py").write_text(render_classes())
