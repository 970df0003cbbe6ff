"""Threshold graphs, their canonical creation sequences, and named families.

A threshold graph is built from a single vertex by repeatedly adding either an
isolated vertex (symbol ``I``) or a dominating vertex (symbol ``D``, adjacent
to everything added before it).  With the first symbol pinned to ``I`` the
creation sequence determines the unlabeled graph uniquely, and conversely any
threshold graph can be peeled back to its sequence by repeatedly removing a
dominating or isolated vertex.  The sequence is therefore the canonical form
throughout this package, and ``ThresholdGraph`` is that string alone:
``ThresholdGraph("IDIIDD")`` is its one constructor, n is the string's length,
and two threshold graphs are structurally equal iff their strings are equal.

Under a degree-descending vertex numbering the adjacency matrix of a threshold
graph is *stepwise*: a_hk = 1 with h > k forces a_ij = 1 for all j < i <= h,
j <= k.  Equivalently every neighborhood is a prefix: vertex v of degree d is
adjacent to 1..reach except itself, where reach = d + (v <= d).  So a pair
(u, v) with u < v is an edge exactly when u <= deg(v), and the degree sequence
alone is the matrix: ``to_labeled`` reads its edge set off
``degree_sequence()``, and the rewiring module tests a move on the degrees of
the rows it touches.

Recognition is one test on degrees.  A threshold degree sequence has exactly
one realization (threshold sequences are unigraphic; Mahadev-Peled, *Threshold
Graphs and Related Topics*, ch. 1): a vertex whose degree is one less than the
number of vertices left is dominating in every realization, and a vertex of
degree 0 is isolated in every one.  So a labeled graph is threshold exactly
when its sorted degrees peel, and the peel is its creation sequence.
``from_degree_sequence`` is that peel, one O(n) pass from both ends of the
sorted list; ``threshold_from_labeled`` and ``is_threshold_degrees`` go through it.

Families provided here, for n vertices and m edges:

* ``quasi_star``  S(n,m)  = K_k v (K_{1,a} u (n-a-k-1) K_1), the join of a
  clique with a star plus isolated vertices, where k is the largest integer
  below n with m >= sum_{i=1..k} (n-i) and a is the remainder (the clique
  split).
* ``l_graph``     L(n,m)  = K_1 v complement(S(n-1, C(n-1,2) - (m-n+1))), a
  dominating vertex over the complement of a quasi-star: S's creation string
  with I and D swapped after its first symbol, then one ``D``.
* ``tilde_s``     S~(n,m) = K_k v (K_3 u (n-k-3) K_1), defined only when
  m = k*n - k(k+1)/2 + 3 for an integer k >= 0 with n-k-3 >= 0: S's clique
  split of m - 3 with no remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

ISOLATED = "I"
DOMINATING = "D"


class NotThresholdError(ValueError):
    """A graph or degree sequence is not realizable as a threshold graph."""


@dataclass(frozen=True)
class ThresholdGraph:
    """Immutable threshold graph: its canonical creation sequence, ``ThresholdGraph("IDIIDD")``.

    ``text[i]`` says how vertex i+1 was added relative to vertices 1..i:
    ``D`` (``DOMINATING``) makes it adjacent to all of them, ``I``
    (``ISOLATED``) to none.  The edge count is the sum of i over the
    dominating positions (0-based), and the graph is connected iff the last
    symbol is ``D`` (or n = 1).
    """

    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"a creation sequence is a str such as 'IDIIDD', not {type(self.text).__name__}")
        if not self.text:
            raise ValueError("creation sequence must be non-empty")
        stray = self.text.strip(ISOLATED + DOMINATING)
        if stray:
            raise ValueError(f"creation symbols must be 'I' or 'D', got {stray[0]!r}")
        if self.text[0] != ISOLATED:
            raise ValueError("first creation symbol must be ISOLATED")

    @cached_property  # read on every ``validate`` call; as a plain property it slowed that loop by a quarter
    def n(self) -> int:
        return len(self.text)

    @cached_property
    def m(self) -> int:
        return sum(i for i, sym in enumerate(self.text) if sym == DOMINATING)

    @cached_property
    def is_connected(self) -> bool:
        return self.n == 1 or self.text[-1] == DOMINATING

    def creation_degrees(self) -> list[int]:
        """Degree of each creation-step vertex, index 0 = first vertex added."""
        deg = []
        later_dom = 0
        for i in range(self.n - 1, -1, -1):
            deg.append((i if self.text[i] == DOMINATING else 0) + later_dom)
            if self.text[i] == DOMINATING:
                later_dom += 1
        deg.reverse()
        return deg

    def degree_sequence(self) -> tuple[int, ...]:
        """Non-increasing degree sequence: entry v-1 is the degree of stepwise vertex v."""
        return self._degrees

    @cached_property  # read on every ``validate`` call
    def _degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.creation_degrees(), reverse=True))


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


# ---------------------------------------------------------------------------
# Stepwise labeling, and recognition by the degree peel
# ---------------------------------------------------------------------------

def to_labeled(g: ThresholdGraph) -> LabeledGraph:
    """Relabel in degree-descending order: (u, v) with u < v is an edge exactly when u <= deg(v).

    The resulting adjacency matrix is stepwise.  Vertices of equal degree are
    twins, so the edge set does not depend on how ties are ordered.
    """
    deg = g.degree_sequence()
    edges = ((u, v) for v in range(2, g.n + 1) for u in range(1, min(v, deg[v - 1] + 1)))
    return LabeledGraph.from_edges(g.n, edges)


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
    return ThresholdGraph("".join(reversed_syms)[::-1])


def is_threshold_degrees(degrees) -> bool:
    """True iff the graphs with these vertex degrees, in any order, are threshold: the sorted degrees peel."""
    try:
        from_degree_sequence(sorted(degrees, reverse=True))
    except NotThresholdError:
        return False
    return True


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def _check_size(n: int, m: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"m={m} out of range [{n - 1}, {n * (n - 1) // 2}] for n={n}")


def _clique_split(n: int, m: int) -> tuple[int, int]:
    """(k, a): k is the largest integer below n with m >= sum_{i=1..k} (n-i), and a is the remainder."""
    k = used = 0
    while k < n - 1 and m >= used + (n - (k + 1)):
        k += 1
        used += n - k
    return k, m - used


def _with_edges(g: ThresholdGraph, m: int) -> ThresholdGraph:
    """g, after checking that it has the m edges its family's formula promised."""
    if g.m != m:
        raise RuntimeError(f"family construction built {g.text} with {g.m} edges, not m={m}")
    return g


def _quasi_star_text(n: int, m: int) -> str:
    """S(n,m)'s creation string, for every 0 <= m <= n(n-1)/2, connected or not."""
    k, a = _clique_split(n, m)
    if a > 0:
        return "I" * a + "D" + "I" * (n - a - k - 1) + "D" * k
    return "I" * (n - k) + "D" * k


def quasi_star(n: int, m: int) -> ThresholdGraph:
    """S(n,m): a k-clique joined to a star K_{1,a} plus isolated vertices."""
    _check_size(n, m)
    return _with_edges(ThresholdGraph(_quasi_star_text(n, m)), m)


def l_graph(n: int, m: int) -> ThresholdGraph:
    """L(n,m): a dominating vertex over the complement of a quasi-star.

    The other n - 1 vertices carry m - n + 1 edges, so they are the complement
    of S(n-1, C(n-1,2) - (m-n+1)), whose creation string is S's with I and D
    swapped after its first symbol.  Complementing K_k v (K_{1,a} u t K_1)
    leaves an (a+t)-clique, one vertex joined to t of it, and k isolated
    vertices, which the dominating vertex turns into pendants.
    """
    _check_size(n, m)
    if n == 1:
        return ThresholdGraph("I")
    rest = _quasi_star_text(n - 1, (n - 1) * (n - 2) // 2 - (m - n + 1))
    return _with_edges(ThresholdGraph("I" + rest[1:].translate(str.maketrans("ID", "DI")) + "D"), m)


def tilde_s(n: int, m: int) -> ThresholdGraph:
    """S~(n,m) = K_k v (K_3 u (n-k-3) K_1), where m = k*n - k(k+1)/2 + 3.

    Defined only when such an integer k >= 0 with n-k-3 >= 0 exists, that is
    when S's clique split of m - 3 leaves no remainder; raises ValueError
    otherwise.  Connected iff k >= 1.
    """
    if n < 3:
        raise ValueError(f"tilde-S requires n >= 3, got n={n}")
    k, a = _clique_split(n, m - 3)
    if a != 0 or k > n - 3:
        raise ValueError(f"tilde-S is undefined for n={n}, m={m}: m != k*n - k(k+1)/2 + 3 for any k")
    return _with_edges(ThresholdGraph("IDD" + "I" * (n - k - 3) + "D" * k), m)


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
