"""Threshold graphs, their canonical creation sequences, and named families.

A threshold graph is built from a single vertex by repeatedly adding either an
isolated vertex (symbol ``I``) or a dominating vertex (symbol ``D``, adjacent
to everything added before it).  With the first symbol pinned to ``I`` the
creation sequence determines the unlabeled graph uniquely, and conversely any
threshold graph can be peeled back to its sequence by repeatedly removing a
dominating or isolated vertex.  The sequence is therefore used as the
canonical form throughout this package: two threshold graphs are structurally
equal iff their sequences are equal.

Under a degree-descending vertex numbering the adjacency matrix of a threshold
graph is *stepwise*: a_hk = 1 with h > k forces a_ij = 1 for all j < i <= h,
j <= k.  Equivalently every neighborhood is a prefix, and ``stepwise_row(v,
d)`` is the one prefix rule: vertex v of degree d is adjacent to 1..d, or to
1..d+1 except itself when v <= d.  So a pair (u, v) with u < v is an edge
exactly when u <= deg(v).  ``ThresholdGraph.stepwise_rows`` applies the rule
to the degree sequence, ``to_labeled`` reads its edge set off those rows, and
the rewiring module accepts a move exactly when every row it touches is again
a ``stepwise_row``.

Recognition is one test on degrees.  A threshold degree sequence has exactly
one realization (threshold sequences are unigraphic; Mahadev-Peled, *Threshold
Graphs and Related Topics*, ch. 1): a vertex whose degree is one less than the
number of vertices left is dominating in every realization, and a vertex of
degree 0 is isolated in every one.  So a labeled graph is threshold exactly
when its sorted degrees peel, and the peel is its creation sequence.
``from_degree_sequence`` is that peel, one O(n) pass from both ends of the
sorted list; ``threshold_from_labeled`` and ``is_threshold`` go through it.

Families provided here, for n vertices and m edges:

* ``quasi_star``  S(n,m)  = K_k v (K_{1,a} u (n-a-k-1) K_1), the join of a
  clique with a star plus isolated vertices, where k is the largest integer
  with m >= sum_{i=1..k} (n-i) and a is the remainder.
* ``l_graph``     L(n,m)  = the "clique behind one universal vertex" family
  parametrised by kbar, abar (see ``split_params``).
* ``tilde_s``     S~(n,m) = K_k v (K_3 u (n-k-3) K_1), defined only when
  m = k*n - k(k+1)/2 + 3 for an integer k >= 0 with n-k-3 >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

ISOLATED = "I"
DOMINATING = "D"
_SYMBOLS = frozenset((ISOLATED, DOMINATING))


class NotThresholdError(ValueError):
    """A graph or degree sequence is not realizable as a threshold graph."""


@dataclass(frozen=True)
class ThresholdGraph:
    """Immutable threshold graph in canonical creation-sequence form.

    ``creation[i]`` says how vertex i+1 was added relative to vertices
    1..i: ``DOMINATING`` makes it adjacent to all of them, ``ISOLATED`` to
    none.  The edge count is recoverable as the sum of i over the dominating
    positions (0-based), and the graph is connected iff the last symbol is
    ``DOMINATING`` (or n = 1).
    """

    n: int
    creation: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.n != len(self.creation):
            raise ValueError(f"creation sequence length {len(self.creation)} != n={self.n}")
        for sym in self.creation:
            if sym not in _SYMBOLS:
                raise ValueError(f"creation symbols must be 'I' or 'D', got {sym!r}")
        if self.creation[0] != ISOLATED:
            raise ValueError("first creation symbol must be ISOLATED")

    @property
    def m(self) -> int:
        return sum(i for i, sym in enumerate(self.creation) if sym == DOMINATING)

    @cached_property
    def is_connected(self) -> bool:
        return self.n == 1 or self.creation[-1] == DOMINATING

    @property
    def text(self) -> str:
        return "".join(self.creation)

    def creation_degrees(self) -> list[int]:
        """Degree of each creation-step vertex, index 0 = first vertex added."""
        deg = []
        later_dom = 0
        for i in range(self.n - 1, -1, -1):
            deg.append((i if self.creation[i] == DOMINATING else 0) + later_dom)
            if self.creation[i] == DOMINATING:
                later_dom += 1
        deg.reverse()
        return deg

    def degree_sequence(self) -> tuple[int, ...]:
        """Non-increasing degree sequence."""
        return tuple(sorted(self.creation_degrees(), reverse=True))

    @cached_property
    def stepwise_rows(self) -> tuple[int, ...]:
        """Adjacency bitmasks in stepwise labels; index 0 is unused.

        The stepwise order lists vertices by descending degree; each row is
        the ``stepwise_row`` of its vertex and degree.
        """
        degrees = self.degree_sequence()
        return (0,) + tuple(stepwise_row(v, d) for v, d in enumerate(degrees, start=1))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThresholdGraph({self.text})"


def stepwise_row(v: int, d: int) -> int:
    """Bitmask of the prefix neighborhood of vertex v with degree d.

    Vertex v is adjacent to 1..d, or to 1..d+1 except itself when v <= d.
    """
    reach = d + (v <= d)
    return ((1 << (reach + 1)) - 2) & ~(1 << v)


@dataclass(frozen=True)
class LabeledGraph:
    """Simple graph on vertices 1..n with an explicit edge set (u < v pairs)."""

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edge_iter) -> "LabeledGraph":
        if n < 1:
            raise ValueError("need at least one vertex")
        norm = set()
        for u, v in edge_iter:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
            norm.add((u, v) if u < v else (v, u))
        return LabeledGraph(n, frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex; index v-1 holds the degree of vertex v."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        return tuple(deg)

    def neighbor_sets(self) -> list[set[int]]:
        """Adjacency sets; index 0 is unused so vertices stay 1-based."""
        nbrs = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by least vertex."""
        nbrs = self.neighbor_sets()
        seen = [False] * (self.n + 1)
        comps = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in nbrs[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    @property
    def is_connected(self) -> bool:
        return len(self.components()) == 1


# ---------------------------------------------------------------------------
# Creation sequences
# ---------------------------------------------------------------------------

def from_creation_sequence(seq) -> ThresholdGraph:
    """Build a threshold graph from a creation sequence (string or iterable).

    The sequence must be non-empty and start with ``ISOLATED``.
    """
    symbols = tuple(seq)
    if not symbols:
        raise ValueError("creation sequence must be non-empty")
    return ThresholdGraph(len(symbols), symbols)


def parse_creation(text: str) -> ThresholdGraph:
    """Parse a creation-sequence string such as ``"IDDDDI"``."""
    return from_creation_sequence(text.strip())


def to_labeled(g: ThresholdGraph) -> LabeledGraph:
    """Relabel in degree-descending order, read off ``g.stepwise_rows``.

    The resulting adjacency matrix is stepwise.  Vertices of equal degree are
    twins, so the edge set does not depend on how ties are ordered.
    """
    rows = g.stepwise_rows
    return LabeledGraph.from_edges(
        g.n, ((u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1) if rows[u] >> v & 1)
    )


def threshold_from_labeled(g: LabeledGraph) -> ThresholdGraph:
    """Canonicalize a labeled threshold graph by its degree sequence.

    Raises NotThresholdError when the sorted degrees do not peel.
    """
    return from_degree_sequence(sorted(g.degrees(), reverse=True))


def from_degree_sequence(degrees) -> ThresholdGraph:
    """The unique threshold graph with the given non-increasing degree sequence.

    Peels from both ends, with ``taken`` dominating vertices removed so far:
    the bottom vertex is isolated when its degree equals ``taken``, else the
    top vertex is dominating when its remaining degree equals the number of
    other vertices left, else the reduction is stuck.  Every peeled vertex
    has exactly its listed degree in the graph the peel builds, so a
    sequence that peels is realized and needs no separate range check.
    """
    d = [int(x) for x in degrees]
    if not d:
        raise ValueError("degree sequence must be non-empty")
    if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
        raise ValueError(f"degree sequence must be non-increasing, got {tuple(d)}")
    reversed_syms = []
    lo, hi, taken = 0, len(d) - 1, 0
    while lo <= hi:
        if d[hi] == taken:
            reversed_syms.append(ISOLATED)
            hi -= 1
        elif d[lo] - taken == hi - lo:
            reversed_syms.append(DOMINATING)
            lo += 1
            taken += 1
        else:
            raise NotThresholdError(
                f"reduction stuck at step {len(reversed_syms)}: remaining degrees "
                f"{tuple(x - taken for x in d[lo:hi + 1])} have no dominating or isolated vertex"
            )
    return ThresholdGraph(len(d), tuple(reversed(reversed_syms)))


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

def is_threshold(g: LabeledGraph) -> bool:
    """True iff g is a threshold graph (no induced 2K_2, C_4, or P_4).

    Tested by peeling the sorted degrees: threshold sequences are unigraphic,
    so any graph whose degrees peel is the threshold graph they describe.
    """
    try:
        threshold_from_labeled(g)
    except NotThresholdError:
        return False
    return True


# ---------------------------------------------------------------------------
# Split parameters and named families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitParams:
    """The (k, a) and (kbar, abar) decompositions of an (n, m) pair.

    k is the largest integer with m >= sum_{i=1..k} (n-i), a the remainder;
    kbar is the largest integer with m-n+1 >= sum_{i=1..kbar-1} i, abar the
    remainder.
    """

    n: int
    m: int
    k: int
    a: int
    kbar: int
    abar: int


def _check_size(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"m={m} out of range [{n - 1}, {n * (n - 1) // 2}] for n={n}")


def split_params(n: int, m: int) -> SplitParams:
    _check_size(n, m)
    k = 0
    used = 0
    while k < n - 1 and m >= used + (n - (k + 1)):
        k += 1
        used += n - k
    a = m - used
    rest = m - n + 1
    kbar = 1
    usedb = 0
    while rest >= usedb + kbar:
        usedb += kbar
        kbar += 1
    abar = rest - usedb
    return SplitParams(n, m, k, a, kbar, abar)


def _with_edges(g: ThresholdGraph, m: int) -> ThresholdGraph:
    """g, after checking that it has the m edges its family's formula promised."""
    if g.m != m:
        raise RuntimeError(f"family construction built {g.text} with {g.m} edges, not m={m}")
    return g


def quasi_star(n: int, m: int) -> ThresholdGraph:
    """S(n,m): a k-clique joined to a star K_{1,a} plus isolated vertices."""
    sp = split_params(n, m)
    k, a = sp.k, sp.a
    tail = n - a - k - 1
    if a > 0:
        seq = (ISOLATED,) * a + (DOMINATING,) + (ISOLATED,) * tail + (DOMINATING,) * k
    else:
        seq = (ISOLATED,) * (n - k) + (DOMINATING,) * k
    return _with_edges(ThresholdGraph(n, seq), m)


def l_graph(n: int, m: int) -> ThresholdGraph:
    """L(n,m): one universal vertex over a clique-plus-pendant arrangement."""
    sp = split_params(n, m)
    if n == 1:
        return ThresholdGraph(1, (ISOLATED,))
    kb, ab = sp.kbar, sp.abar
    if ab == 0:
        seq = (ISOLATED,) + (DOMINATING,) * (kb - 1) + (ISOLATED,) * (n - kb - 1) + (DOMINATING,)
    else:
        seq = (
            (ISOLATED,)
            + (DOMINATING,) * (kb - ab - 1)
            + (ISOLATED,)
            + (DOMINATING,) * ab
            + (ISOLATED,) * (n - kb - 2)
            + (DOMINATING,)
        )
    return _with_edges(ThresholdGraph(n, seq), m)


def tilde_s(n: int, m: int) -> ThresholdGraph:
    """S~(n,m) = K_k v (K_3 u (n-k-3) K_1), where m = k*n - k(k+1)/2 + 3.

    Defined only when such an integer k >= 0 with n-k-3 >= 0 exists; raises
    ValueError otherwise.  Connected iff k >= 1.
    """
    if n < 3:
        raise ValueError(f"tilde-S requires n >= 3, got n={n}")
    for k in range(0, n - 2):
        mk = k * n - k * (k + 1) // 2 + 3
        if mk == m:
            seq = (ISOLATED, DOMINATING, DOMINATING) + (ISOLATED,) * (n - k - 3) + (DOMINATING,) * k
            return _with_edges(ThresholdGraph(n, seq), m)
        if mk > m:
            break
    raise ValueError(f"tilde-S is undefined for n={n}, m={m}: m != k*n - k(k+1)/2 + 3 for any k")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then one "u v" per line, u < v.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> LabeledGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"edge-list header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError(f"edge lines must have u < v, got {ln!r}")
        edges.append((u, v))
    g = LabeledGraph.from_edges(n, edges)
    if g.m != m:
        raise ValueError(f"header claims m={m} but {g.m} distinct edges were given")
    return g


def format_edge_list(g: LabeledGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines)
