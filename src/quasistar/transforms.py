"""Radius-increasing edge rewirings on connected threshold graphs.

All three rewirings are described by positions in the stepwise adjacency
matrix (vertices sorted by descending degree, as in
``ThresholdGraph.stepwise_rows``).  With indices p > h > k > q and width
l >= 0:

* ``BASIC (p, q; h, k)``           removes the staircase corner edge (h, k)
  and fills the vacant corner (p, q).
* ``ROW (p, q; h, k; l)``          removes the horizontal strip
  (h, k)...(h, k+l) and fills (p, q)...(p-l, q).
* ``COL (p, q; h, k; l)``          removes the vertical strip
  (h, k)...(h-l, k) and fills (p, q)...(p, q-l).

The corner move is the width-0 strip: BASIC has COL's index shape at l = 0
and the same cells, and ``_fits`` states all three shapes once.

Validation is one rule for all three kinds.  In the stepwise matrix every
neighborhood is a prefix (``graphs.stepwise_row``), and nested neighborhoods
are exactly what makes a graph threshold, so the paper's conditions (ii) and
(iii) (removed cells at the tip of their row/column, filled cells at the first
vacancies of theirs) say: every removed cell is an edge, every filled cell is
vacant, and every row the move touches is again the prefix row for its new
degree.  The result is then threshold with the same vertex and edge counts.
The first two are two bit tests, run before any row is rebuilt.  A cell
(u, v), u < v, is an edge exactly when u <= deg(v) (``graphs``), and degrees
do not increase down the order, so the removed strip is all edges exactly
when its last cell ``max(removals())`` is one, and the filled strip is all
vacant exactly when its first cell ``min(additions())`` is.
``bench/reference.py`` defines validity cell by cell, on dense matrices.
``validate`` is a plain predicate; only ``apply_transform`` formats a
rejection's reason, by the row rule, into its ``InvalidTransformError``.

A move never touches an edge set.  Each spec caches the bits its cells clear
and set in every row they touch; the moved bitmask rows give the rewired
degrees, still non-increasing on the host's labels, and
``from_degree_sequence`` turns them into the canonical creation sequence (a
threshold degree sequence has exactly one realization).  ``certify`` goes
through ``apply_transform``, which is memoised per (host, spec), so a move
certified at several alphas is validated and rewired once.

For alpha >= 1/2 and k = q+1 the rewiring never decreases the spectral radius
of alpha*D + (1-alpha)*A, with equality exactly when alpha = 1/2, l = 0 and
p = h+1 = q+3; a BASIC move with k = q+2 and p > h+1 increases it strictly.
``certify`` records both the exact prediction and the observed comparison,
together with the residuals of the two eigenvector identities that drive the
monotonicity argument (``eq1`` on the host, ``eq2`` on the rewired graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .graphs import ThresholdGraph, from_degree_sequence, stepwise_row
from .spectra import as_alpha, same_radius, threshold_spectrum

KINDS = ("BASIC", "ROW", "COL")


class InvalidTransformError(ValueError):
    """The rewiring is not applicable to the given host graph."""


def _fits(kind: str, p: int, q: int, h: int, k: int, l: int) -> bool:
    """The index shape of a move; BASIC is the width-0 COL shape."""
    if kind == "ROW":
        return 1 <= q < k <= k + l < h < p - l
    return 2 <= q - l <= q < k < h - l <= h < p and (kind == "COL" or l == 0)


@dataclass(frozen=True)
class TransformSpec:
    """One rewiring: kind, stepwise indices (p, q; h, k), and width l.

    Index shapes, checked at construction by ``_fits``:

    * ROW:   1 <= q < k <= k+l < h < p-l
    * COL:   2 <= q-l <= q < k < h-l <= h < p
    * BASIC: COL with l = 0, so 2 <= q < k < h < p
    """

    kind: str
    p: int
    q: int
    h: int
    k: int
    l: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        p, q, h, k, l = self.p, self.q, self.h, self.k, self.l
        if not _fits(self.kind, p, q, h, k, l):
            raise ValueError(f"indices violate the {self.kind} shape: p={p} q={q} h={h} k={k} l={l}")

    @cached_property  # printed on every certificate line of the spec
    def text(self) -> str:
        if self.kind == "BASIC":
            return f"BASIC {self.p} {self.q} {self.h} {self.k}"
        return f"{self.kind} {self.p} {self.q} {self.h} {self.k} {self.l}"

    @staticmethod
    def parse(text: str) -> "TransformSpec":
        parts = text.split()
        if not parts:
            raise ValueError("empty rewiring spec")
        kind = parts[0].upper()
        nums = [int(x) for x in parts[1:]]
        if kind == "BASIC" and len(nums) == 4:
            return TransformSpec(kind, *nums)
        if kind in ("ROW", "COL") and len(nums) == 5:
            return TransformSpec(kind, *nums)
        raise ValueError(f"bad rewiring spec {text!r}; expected 'BASIC p q h k' or 'ROW|COL p q h k l'")

    def removals(self) -> list[tuple[int, int]]:
        if self.kind == "ROW":
            return [(self.k + j, self.h) for j in range(self.l + 1)]
        return [(self.k, self.h - j) for j in range(self.l + 1)]

    def additions(self) -> list[tuple[int, int]]:
        if self.kind == "ROW":
            return [(self.q, self.p - j) for j in range(self.l + 1)]
        return [(self.q - j, self.p) for j in range(self.l + 1)]

    @cached_property
    def _row_edits(self) -> tuple[tuple[int, int, int], ...]:
        """(vertex, bits to clear, bits to set) for every row the move touches."""
        edits = {}
        for cells, slot in ((self.removals(), 0), (self.additions(), 1)):
            for u, v in cells:
                edits.setdefault(u, [0, 0])[slot] |= 1 << v
                edits.setdefault(v, [0, 0])[slot] |= 1 << u
        return tuple((v, clear, fill) for v, (clear, fill) in sorted(edits.items()))

    @cached_property
    def _ends(self) -> tuple[tuple[int, int], tuple[int, int], int]:
        """The last removed cell, the first filled cell and the top removed row.

        Their columns and the row are (w, q0, h0) of the eigenvector identities below.
        """
        removed = self.removals()
        return max(removed), min(self.additions()), min(removed)[1]


def _moved_rows(g: ThresholdGraph, spec: TransformSpec, explain: bool = False) -> dict[int, int] | str | bool:
    """``{vertex: row after the move}`` for each touched row, or why the move fails.

    A failure is False unless ``explain`` asks for its reason.  Raises
    ValueError when indices exceed the host size.
    """
    if spec.p > g.n:
        raise ValueError(f"index p={spec.p} out of range for n={g.n}")
    if not g.is_connected:
        return explain and "host graph is not connected"
    rows = g.stepwise_rows
    (w, h), (q0, p0), _ = spec._ends
    if not rows[h] >> w & 1 or rows[p0] >> q0 & 1:
        if not explain:
            return False
        for v, clear, fill in spec._row_edits:  # name the first row with a bad cell
            gone, taken = clear & ~rows[v], fill & rows[v]
            if gone:
                return f"(iii): a[{v},{gone.bit_length() - 1}] = 0, a removed cell is not an edge"
            if taken:
                return f"(ii): a[{v},{taken.bit_length() - 1}] = 1, a filled cell is not vacant"
    moved = {}
    for v, clear, fill in spec._row_edits:
        row = rows[v] ^ clear ^ fill
        if row != stepwise_row(v, row.bit_count()):
            return explain and f"row {v} is not stepwise after the move"
        moved[v] = row
    return moved


def validate(g: ThresholdGraph, spec: TransformSpec) -> bool:
    """Whether the rewiring applies to g, by the one prefix rule of ``_moved_rows``.

    Raises ValueError when indices exceed the host size; ``apply_transform``
    names the first violation of a move that fails.
    """
    return bool(_moved_rows(g, spec))


# A move is certified at a few alphas in a row; 256 entries cover that reuse.
@lru_cache(maxsize=256)
def apply_transform(g: ThresholdGraph, spec: TransformSpec) -> ThresholdGraph:
    """Apply a validated rewiring; returns the canonical result.

    Refuses to apply when validation fails, else reads the rewired degrees
    off the moved rows.  Every row is then the stepwise row of its degree,
    so the degrees stay non-increasing and the host's labels are the
    result's stepwise labels.  A threshold degree sequence has one
    realization, so the degrees fix the result, with the same vertex and
    edge counts; ``from_degree_sequence`` raises NotThresholdError should a
    move ever leave the class, ValueError should it reorder labels, and a
    change of either count raises RuntimeError.
    """
    moved = _moved_rows(g, spec, explain=True)
    if isinstance(moved, str):
        raise InvalidTransformError(f"invalid {spec.kind} rewiring: {moved}")
    deg = list(g.degree_sequence())
    for v, row in moved.items():
        deg[v - 1] = row.bit_count()
    after = from_degree_sequence(deg)
    if after.n != g.n or after.m != g.m:
        raise RuntimeError(f"{spec.text} took {g.text} (n={g.n}, m={g.m}) to {after.text} (n={after.n}, m={after.m})")
    return after


# ---------------------------------------------------------------------------
# Eigenvector identities
# ---------------------------------------------------------------------------
#
# Write x for the Perron vector of the host in stepwise order and rho1 for its
# radius.  The removed strip sits at the tip of row h, whose neighborhood is
# exactly {1..k+l} (ROW) or {1..k} (BASIC/COL), while row p stops at column
# q-1 (q-l-1 for COL).  Subtracting the h-th and p-th eigen-equations gives,
# with a = alpha and w the rightmost removed column:
#
#   (rho1 - w*a) (x_h - x_p) = (w - q0 + 1) a x_p + (1-a) (x_{q0} + ... + x_w)
#
# where q0 is the leftmost filled column (q for BASIC/ROW, q-l for COL).  On
# the rewired graph (Perron vector y on the same labels, radius rho2) the
# q-th and k-th equations give
#
#   (rho2 - p*a + 1) (y_q - y_k) = (p - h0 + 1) a y_k + (1-a) (y_{h0} + ... + y_p)
#
# with h0 the topmost removed row (h for BASIC/ROW, h-l for COL).  A cell
# (u, v) of ``removals()``/``additions()`` sits in row v and column u < v, so
# w, q0 and h0 are coordinates of the strips' extreme cells, read off
# ``_ends`` without naming the kind: the columns of the last removed and the
# first filled cell and the row of the first removed cell.  Both identities
# hold exactly at the eigenpairs for every alpha in [0, 1); their numerical
# residuals are the certificate's eq1/eq2 fields.

def eq1_residual(rho1: float, x, spec: TransformSpec, alpha) -> float:
    """Residual of the host-side identity for the eigenpair (rho1, x)."""
    a = float(alpha)
    (w, _), (q0, _), _ = spec._ends
    return _identity_residual(rho1 - w * a, x, spec.h, spec.p, q0, w, a)


def eq2_residual(rho2: float, y, spec: TransformSpec, alpha) -> float:
    """Residual of the rewired-side identity for the eigenpair (rho2, y).

    ``y`` must be indexed by the host's stepwise labels (the rewiring keeps
    labels fixed).
    """
    a = float(alpha)
    return _identity_residual(rho2 - spec.p * a + 1.0, y, spec.q, spec.k, spec._ends[2], spec.p, a)


def _identity_residual(scale: float, x, i: int, j: int, lo: int, hi: int, a: float) -> float:
    """|scale (x_i - x_j) - (hi - lo + 1) a x_j - (1-a) (x_lo + ... + x_hi)| in Python floats; the strip sum stays numpy's (pairwise)."""
    x = np.asarray(x, dtype=float)
    xi, xj = x.item(i - 1), x.item(j - 1)
    return abs(scale * (xi - xj) - ((hi - lo + 1) * a * xj + (1.0 - a) * float(np.add.reduce(x[lo - 1 : hi]))))


# ---------------------------------------------------------------------------
# Monotonicity certificates
# ---------------------------------------------------------------------------

RULE_ADJACENT = "k=q+1"
RULE_SKIP = "BASIC,k=q+2,p>h+1"
RULE_NONE = "not-covered"


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Before/after radii for one rewiring plus the exact equality prediction.

    ``predicted_equality`` comes from exact rational arithmetic on (alpha, l,
    p, q, h): for a covered spec with k = q+1 it is alpha = 1/2 and l = 0 and
    p = h+1 = q+3.  ``observed_equality`` is ``same_radius`` of the two radii.
    ``covered`` is False when no monotonicity statement applies (alpha < 1/2
    or an index pattern outside the two covered rules); the certificate is
    then descriptive only and ``predicted_equality`` is None.
    """

    spec: TransformSpec
    alpha: Fraction
    rho_before: float
    rho_after: float
    predicted_equality: bool | None
    observed_equality: bool
    residual_eq1: float
    residual_eq2: float
    covered: bool
    rule: str


def certify(g: ThresholdGraph, spec: TransformSpec, alpha) -> MonotonicityCertificate:
    """Apply the rewiring and certify the spectral-radius comparison.

    alpha is normalised once and the rule is read off the sign of 2 num - den,
    with no Fraction arithmetic; the memoised ``apply_transform`` validates
    and rewires a move once across alphas.
    """
    alpha = as_alpha(alpha)
    num, den = alpha.numerator, alpha.denominator
    half = 2 * num - den  # the sign of alpha - 1/2
    a = num / den  # float(alpha): one correctly rounded division
    g_after = apply_transform(g, spec)
    spec_before = threshold_spectrum(g, alpha)
    spec_after = threshold_spectrum(g_after, alpha)
    rho1, rho2 = spec_before.rho, spec_after.rho

    if half < 0:
        covered, rule, predicted = False, RULE_NONE, None
    elif spec.k == spec.q + 1:
        covered, rule = True, RULE_ADJACENT
        predicted = half == 0 and spec.l == 0 and spec.p == spec.h + 1 == spec.q + 3
    elif spec.kind == "BASIC" and spec.k == spec.q + 2 and spec.p > spec.h + 1:
        covered, rule, predicted = True, RULE_SKIP, False
    else:
        covered, rule, predicted = False, RULE_NONE, None

    # The host's labels are g_after's stepwise labels (see ``apply_transform``).
    r1 = eq1_residual(rho1, spec_before.perron, spec, a)
    r2 = eq2_residual(rho2, spec_after.perron, spec, a)

    return MonotonicityCertificate(
        spec=spec,
        alpha=alpha,
        rho_before=rho1,
        rho_after=rho2,
        predicted_equality=predicted,
        observed_equality=same_radius(rho2, rho1),
        residual_eq1=r1,
        residual_eq2=r2,
        covered=covered,
        rule=rule,
    )


def candidate_specs(n: int, kind: str, dk: int = 1):
    """All shape-valid specs of one kind with k - q = dk on n vertices, in (q, l, h, p) order.

    Host-independent; pair with :func:`validate` to find the applicable ones.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    box = range(1, n + 1)
    for q in box:
        for l in range(n):
            # p only bounds the shape from above: if p = n does not fit, no p does.
            for h in (h for h in box if _fits(kind, n, q, h, q + dk, l)):
                for p in box:
                    if _fits(kind, p, q, h, q + dk, l):
                        yield TransformSpec(kind, p, q, h, q + dk, l)
