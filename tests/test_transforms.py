"""Edge rewirings: validation, application, certificates, identity residuals."""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from quasistar import spectra, transforms
from quasistar.graphs import (
    LabeledGraph,
    ThresholdGraph,
    from_degree_sequence,
    l_graph,
    quasi_star,
    threshold_from_labeled,
    to_labeled,
)
from quasistar.spectra import spectral_radius
from quasistar.transforms import (
    InvalidTransformError,
    TransformSpec,
    apply_transform,
    candidate_specs,
    certify,
    eq1_residual,
    eq2_residual,
    validate,
)

from graph_builders import (
    connected_threshold_graphs,
    is_threshold,
    stepwise_bitrows,
    stepwise_row,
    threshold_graphs,
)

HALF = Fraction(1, 2)


def valid_instances(max_n, dk=1, kinds=("BASIC", "ROW", "COL")):
    for g in connected_threshold_graphs(max_n):
        for kind in kinds:
            for spec in candidate_specs(g.n, kind, dk=dk):
                if validate(g, spec):
                    yield g, spec


# ---------------------------------------------------------------------------
# Spec shape and parsing
# ---------------------------------------------------------------------------

def test_spec_shape_constraints():
    TransformSpec("BASIC", 5, 2, 4, 3)
    TransformSpec("ROW", 7, 2, 5, 3, 1)
    TransformSpec("COL", 9, 3, 8, 4, 1)
    with pytest.raises(ValueError):
        TransformSpec("BASIC", 5, 1, 4, 3)  # q >= 2
    with pytest.raises(ValueError):
        TransformSpec("BASIC", 5, 2, 4, 3, 1)  # width must be 0
    with pytest.raises(ValueError):
        TransformSpec("ROW", 7, 2, 5, 3, 2)  # h < p - l violated
    with pytest.raises(ValueError):
        TransformSpec("COL", 9, 3, 8, 4, 2)  # 2 <= q - l violated
    for kind in ("ROW", "COL"):
        with pytest.raises(ValueError):
            TransformSpec(kind, 7, 2, 5, 3, -1)  # width must be nonnegative
    with pytest.raises(ValueError):
        TransformSpec("DIAG", 5, 2, 4, 3)


def test_spec_text_round_trip():
    for spec in (TransformSpec("BASIC", 6, 2, 4, 3),
                  TransformSpec("ROW", 7, 2, 5, 3, 1),
                  TransformSpec("COL", 9, 3, 8, 4, 1)):
        assert TransformSpec.parse(spec.text) == spec
    assert TransformSpec.parse("basic 6 2 4 3").kind == "BASIC"
    with pytest.raises(ValueError):
        TransformSpec.parse("ROW 7 2 5 3")  # missing width


# Every candidate spec text for n = 1..14, kind in KINDS order, dk = 1..3.
PINNED_CANDIDATE_DIGEST = "bb47db568c8d59fd4457e4630a150b2cf9fa54ae4333cc1e8298c1e9d3d451e6"


def test_candidate_specs_match_pinned_digest():
    texts = "".join(
        spec.text + "\n"
        for n in range(1, 15)
        for kind in ("BASIC", "ROW", "COL")
        for dk in (1, 2, 3)
        for spec in candidate_specs(n, kind, dk)
    )
    assert texts.count("\n") == 7832
    assert hashlib.sha256(texts.encode()).hexdigest() == PINNED_CANDIDATE_DIGEST


# ---------------------------------------------------------------------------
# The two worked instances
# ---------------------------------------------------------------------------

def test_row_rewiring_l_7_12_to_s_7_12():
    host = l_graph(7, 12)
    spec = TransformSpec("ROW", 7, 2, 5, 3, 1)
    assert validate(host, spec)
    assert apply_transform(host, spec) == quasi_star(7, 12)


def test_col_rewiring_to_s_9_23():
    host = from_degree_sequence((8, 7, 7, 7, 4, 4, 4, 4, 1))
    expected_rows = {
        1: {2, 3, 4, 5, 6, 7, 8, 9},
        2: {1, 3, 4, 5, 6, 7, 8},
        3: {1, 2, 4, 5, 6, 7, 8},
        4: {1, 2, 3, 5, 6, 7, 8},
        5: {1, 2, 3, 4}, 6: {1, 2, 3, 4}, 7: {1, 2, 3, 4}, 8: {1, 2, 3, 4},
        9: {1},
    }
    nbrs = to_labeled(host).neighbor_sets()
    assert {v: nbrs[v] for v in range(1, 10)} == expected_rows
    spec = TransformSpec("COL", 9, 3, 8, 4, 1)
    assert validate(host, spec)
    assert apply_transform(host, spec) == quasi_star(9, 23)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def rejection_reason(g, spec) -> str | None:
    """Why ``apply_transform`` refuses the move, without its ``invalid KIND rewiring: `` prefix; None when it applies."""
    try:
        apply_transform(g, spec)
    except InvalidTransformError as exc:
        prefix = f"invalid {spec.kind} rewiring: "
        assert str(exc).startswith(prefix)
        return str(exc)[len(prefix):]
    return None


# The paper's conditions (ii) and (iii), clause by clause for each kind: the
# reference that the one prefix rule in ``validate`` must agree with.

def _all_set(row: int, lo: int, hi: int) -> bool:
    """Bits lo..hi of row all set (vacuously true when lo > hi)."""
    if lo > hi:
        return True
    mask = (1 << (hi + 1)) - (1 << lo)
    return row & mask == mask


def _none_set(row: int, lo: int, hi: int) -> bool:
    if lo > hi:
        return True
    mask = (1 << (hi + 1)) - (1 << lo)
    return row & mask == 0


def validate_by_clauses(g, spec):
    """Check the adjacency conditions of the rewiring on g's stepwise matrix, read off the reference labeling.

    Returns None when the move is valid, else the first violated clause.
    Raises ValueError when indices exceed the host size.
    """
    if spec.p > g.n:
        raise ValueError(f"index p={spec.p} out of range for n={g.n}")
    if not g.is_connected:
        return "host graph is not connected"
    rows = stepwise_bitrows(g)
    p, q, h, k, l = spec.p, spec.q, spec.h, spec.k, spec.l

    if spec.kind == "BASIC":
        if rows[p] >> q & 1:
            return f"(ii): a[{p},{q}] = 1, the target corner is not vacant"
        if not _all_set(rows[p], 1, q - 1):
            return f"(ii): row {p} is not full on columns 1..{q - 1}"
        if not _all_set(rows[q], q + 1, p - 1):
            return f"(ii): column {q} is not full on rows {q + 1}..{p - 1}"
        if not rows[h] >> k & 1:
            return f"(iii): a[{h},{k}] = 0, there is no edge to remove"
        if not _none_set(rows[h], k + 1, g.n):
            return f"(iii): row {h} extends past column {k}"
        if not _none_set(rows[k], h + 1, g.n):
            return f"(iii): column {k} extends past row {h}"
        return None

    if spec.kind == "ROW":
        for i in range(p - l, p + 1):
            if rows[i] >> q & 1:
                return f"(ii): a[{i},{q}] = 1, a target cell is not vacant"
            if not _all_set(rows[i], 1, q - 1):
                return f"(ii): row {i} is not full on columns 1..{q - 1}"
        if not _all_set(rows[q], q + 1, p - l - 1):
            return f"(ii): column {q} is not full on rows {q + 1}..{p - l - 1}"
        if not _all_set(rows[h], k, k + l):
            return f"(iii): row {h} is missing a column in {k}..{k + l}"
        if not _none_set(rows[h], k + l + 1, g.n):
            return f"(iii): row {h} extends past column {k + l}"
        if not _none_set(rows[h + 1], k, k + l):
            return f"(iii): row {h + 1} still holds a column in {k}..{k + l}"
        return None

    # COL
    for s in range(q - l, q + 1):
        if rows[p] >> s & 1:
            return f"(ii): a[{p},{s}] = 1, a target cell is not vacant"
        if not _all_set(rows[s], s + 1, p - 1):
            return f"(ii): column {s} is not full on rows {s + 1}..{p - 1}"
    if not _all_set(rows[p], 1, q - l - 1):
        return f"(ii): row {p} is not full on columns 1..{q - l - 1}"
    for s in range(h - l, h + 1):
        if not rows[s] >> k & 1:
            return f"(iii): a[{s},{k}] = 0, there is no edge to remove"
        if not _none_set(rows[s], k + 1, g.n):
            return f"(iii): row {s} extends past column {k}"
    if not _none_set(rows[k], h + 1, g.n):
        return f"(iii): column {k} extends past row {h}"
    return None


def test_complete_graph_admits_no_rewiring():
    k7 = ThresholdGraph("IDDDDDD")
    for kind in ("BASIC", "ROW", "COL"):
        for spec in candidate_specs(7, kind):
            assert not validate(k7, spec)
            assert "vacant" in rejection_reason(k7, spec)


def test_validate_reports_first_violated_clause():
    host = l_graph(7, 12)
    bad = TransformSpec("ROW", 7, 2, 5, 3, 0)  # needs width 1: row 6 misses column 2 too
    assert not validate(host, bad)
    assert rejection_reason(host, bad) == "row 2 is not stepwise after the move"
    assert validate_by_clauses(host, bad) == "(ii): column 2 is not full on rows 3..6"


def clause_reference_pairs():
    """Every (host, spec) with a connected host, n <= 9, any kind, dk = 1..3."""
    for g in connected_threshold_graphs(9):
        for kind in ("BASIC", "ROW", "COL"):
            for dk in (1, 2, 3):
                for spec in candidate_specs(g.n, kind, dk=dk):
                    yield g, spec


def test_prefix_rule_matches_clause_reference():
    pairs = valid = 0
    for g, spec in clause_reference_pairs():
        expected = validate_by_clauses(g, spec) is None
        assert validate(g, spec) is expected, (g.text, spec.text)
        pairs += 1
        valid += expected
    assert (pairs, valid) == (50460, 743)


# ``host|spec|reason`` of every invalid pair of ``clause_reference_pairs``.
PINNED_REASON_DIGEST = "69e6f6ba707dfe04d4f7d9b77c371f6f73a80067e2686efeb41a92c147a789d6"


def test_rejection_reasons_match_pinned_digest():
    digest = hashlib.sha256()
    rejected = 0
    for g, spec in clause_reference_pairs():
        if not validate(g, spec):
            digest.update(f"{g.text}|{spec.text}|{rejection_reason(g, spec)}\n".encode())
            rejected += 1
    assert rejected == 50460 - 743
    assert digest.hexdigest() == PINNED_REASON_DIGEST


def validate_by_rows(g, spec):
    """The stepwise row rule, row by row: every removed cell an edge, every
    filled cell vacant, every touched row again the prefix row of its degree.
    The rows are the reference labeling's, not the package's degrees."""
    if not g.is_connected:
        return False
    rows = list(stepwise_bitrows(g))
    for cells, present in ((spec.removals(), True), (spec.additions(), False)):
        for u, v in cells:
            if bool(rows[v] >> u & 1) != present:
                return False
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return all(rows[v] == stepwise_row(v, rows[v].bit_count()) for v in range(1, g.n + 1))


def test_bitboard_cell_tests_match_row_rule():
    # Every host with n <= 9, connected or not, and every spec of every kind, dk = 1, 2.
    pairs = valid = 0
    for n in range(4, 10):
        specs = [spec for kind in ("BASIC", "ROW", "COL") for dk in (1, 2) for spec in candidate_specs(n, kind, dk)]
        for g in threshold_graphs(n):
            for spec in specs:
                expected = validate_by_rows(g, spec)
                assert validate(g, spec) is expected, (g.text, spec.text)
                pairs += 1
                valid += expected
    assert (pairs, valid) == (86552, 651)


def test_each_touched_row_loses_or_gains_one_range_without_itself():
    # The degree rule reads a row's move as one column range; check that premise past the verdict sweeps' n.
    for n in range(4, 15):
        for kind in ("BASIC", "ROW", "COL"):
            for spec in (s for dk in (1, 2, 3) for s in candidate_specs(n, kind, dk)):
                cells = {}
                for fill, moved in ((False, spec.removals()), (True, spec.additions())):
                    for u, v in moved:
                        cells.setdefault(u, set()).add((v, fill))
                        cells.setdefault(v, set()).add((u, fill))
                edits = spec._row_edits
                assert [v for v, *_ in edits] == sorted(cells), spec.text
                for v, lo, hi, fill in edits:
                    assert cells[v] == {(c, fill) for c in range(lo, hi + 1)} and not lo <= v <= hi, spec.text


def test_validate_index_out_of_range():
    with pytest.raises(ValueError):
        validate(quasi_star(5, 7), TransformSpec("BASIC", 6, 2, 4, 3))


def test_validate_rejects_disconnected_host():
    host = ThresholdGraph("IDDDDI")  # K_5 u K_1
    spec = TransformSpec("BASIC", 5, 2, 4, 3)
    assert validate(host, spec) is False
    assert rejection_reason(host, spec) == "host graph is not connected"


def test_apply_refuses_invalid_spec():
    with pytest.raises(InvalidTransformError):
        apply_transform(ThresholdGraph("IDDDDDD"), TransformSpec("BASIC", 7, 2, 4, 3))


# ---------------------------------------------------------------------------
# The three kinds agree at width 0
# ---------------------------------------------------------------------------

def test_width_zero_row_and_col_equal_basic():
    seen = 0
    for g, spec in valid_instances(8, kinds=("BASIC",)):
        row = TransformSpec("ROW", spec.p, spec.q, spec.h, spec.k, 0)
        col = TransformSpec("COL", spec.p, spec.q, spec.h, spec.k, 0)
        assert validate(g, row) and validate(g, col)
        out = apply_transform(g, spec)
        assert apply_transform(g, row) == out
        assert apply_transform(g, col) == out
        seen += 1
    assert seen >= 20


# ---------------------------------------------------------------------------
# Conservation and closure
# ---------------------------------------------------------------------------

def test_apply_preserves_counts_and_thresholdness():
    seen = 0
    for g, spec in valid_instances(8):
        out = apply_transform(g, spec)
        assert out.n == g.n and out.m == g.m
        assert out.is_connected
        assert is_threshold(to_labeled(out))
        seen += 1
    assert seen >= 100


def test_apply_size_check_raises_outside_asserts(monkeypatch):
    # The check must raise, not assert, so that it survives ``python -O``.
    g, spec = l_graph(7, 12), TransformSpec("ROW", 7, 2, 5, 3, 1)
    monkeypatch.setattr(transforms, "from_degree_sequence", lambda deg: quasi_star(6, 10))
    with pytest.raises(RuntimeError, match=r"\(n=7, m=12\) to IDIIDD \(n=6, m=10\)"):
        apply_transform.__wrapped__(g, spec)


# ---------------------------------------------------------------------------
# Reference: the same moves on the edge set of the stepwise labeling
# ---------------------------------------------------------------------------

def rewired_labeled(g, spec):
    """The rewiring applied cell by cell to the edges of ``to_labeled(g)``."""
    host = to_labeled(g)
    edges = set(host.edges)
    for u, v in spec.removals():
        cell = (min(u, v), max(u, v))
        assert cell in host.edges, (g.text, spec.text, "removed cell is not an edge")
        edges.remove(cell)
    for u, v in spec.additions():
        cell = (min(u, v), max(u, v))
        assert cell not in host.edges, (g.text, spec.text, "added cell is already an edge")
        edges.add(cell)
    return LabeledGraph.from_edges(g.n, edges)


def test_degree_step_matches_edge_level_rewiring():
    seen = 0
    for dk in (1, 2):
        for g, spec in valid_instances(9, dk=dk):
            rewired = rewired_labeled(g, spec)
            assert threshold_from_labeled(rewired) == apply_transform(g, spec)
            for alpha in (HALF, Fraction(3, 4)):
                cert = certify(g, spec, alpha)
                assert abs(cert.rho_after - spectral_radius(rewired, alpha).rho) <= 1e-12
            seen += 1
    assert seen >= 600


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_equality_window_certificates():
    # k = q+1, p = h+1 = q+3 at alpha = 1/2: exact tie predicted and observed.
    seen = 0
    for g, spec in valid_instances(8, kinds=("BASIC",)):
        if not (spec.p == spec.h + 1 == spec.q + 3):
            continue
        cert = certify(g, spec, HALF)
        assert cert.covered and cert.predicted_equality
        assert abs(cert.rho_after - cert.rho_before) <= 1e-9
        assert cert.observed_equality
        strict = certify(g, spec, Fraction(3, 4))
        assert strict.covered and not strict.predicted_equality
        assert strict.rho_after - strict.rho_before > 1e-9
        seen += 1
    assert seen >= 5


def test_row_width_one_breaks_equality():
    cert = certify(l_graph(7, 12), TransformSpec("ROW", 7, 2, 5, 3, 1), HALF)
    assert cert.covered and cert.predicted_equality is False
    assert cert.rho_after - cert.rho_before > 1e-9
    assert not cert.observed_equality


def test_double_offset_rule_strict():
    seen = 0
    for g, spec in valid_instances(8, dk=2, kinds=("BASIC",)):
        if spec.p <= spec.h + 1:
            continue
        for alpha in (HALF, Fraction(3, 4)):
            cert = certify(g, spec, alpha)
            assert cert.covered and cert.rule == "BASIC,k=q+2,p>h+1"
            assert cert.predicted_equality is False
            assert cert.rho_after - cert.rho_before > 1e-9
        seen += 1
    assert seen >= 5


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: same_radius ties radii within the absolute 1e-9 window")
def test_strict_move_near_alpha_one_is_not_observed_equal():
    # This move takes S~(13,15) to S(13,15) and raises the radius by about 7.6e-10, inside the window.
    cert = certify(ThresholdGraph("IDDIIIIIIIIID"), TransformSpec.parse("BASIC 5 2 4 3"), Fraction(999, 1000))
    assert cert.observed_equality is False


def rule_by_fractions(spec, alpha):
    """(covered, rule, predicted_equality) by exact Fraction comparisons with 1/2."""
    if alpha < HALF:
        return False, transforms.RULE_NONE, None
    if spec.k == spec.q + 1:
        return True, transforms.RULE_ADJACENT, alpha == HALF and spec.l == 0 and spec.p == spec.h + 1 == spec.q + 3
    if spec.kind == "BASIC" and spec.k == spec.q + 2 and spec.p > spec.h + 1:
        return True, transforms.RULE_SKIP, False
    return False, transforms.RULE_NONE, None


def test_rule_at_and_around_one_half_matches_fraction_comparisons():
    # 1/2 + 10^-30 and 1/2 - 10^-30 both have the float 0.5, so they would be
    # solved as 1/2 but ruled on as themselves: certify refuses them.  The
    # nearest alphas it accepts have the floats next to 0.5 on either side.
    # Every valid move with n <= 7 at dk = 1, 2, 3 covers both rules, the
    # equality shape and the uncovered.
    tiny = Fraction(1, 10**30)
    above, below = HALF + Fraction(1, 2**53), HALF - Fraction(1, 2**54)
    alphas = (HALF, above, below, Fraction(0), Fraction(49, 100), Fraction(51, 100))
    assert float(below) < 0.5 < float(above)
    moves = [move for dk in (1, 2, 3) for move in valid_instances(7, dk=dk)]
    for alpha in (HALF + tiny, HALF - tiny):
        with pytest.raises(ValueError, match="not 1/2"):
            certify(*moves[0], alpha)
    seen = set()
    for g, spec in moves:
        for alpha in alphas:
            cert = certify(g, spec, alpha)
            expected = rule_by_fractions(spec, alpha)
            assert (cert.covered, cert.rule, cert.predicted_equality) == expected, (g.text, spec.text, alpha)
            seen.add(expected)
    assert {(True, transforms.RULE_ADJACENT, True), (True, transforms.RULE_ADJACENT, False),
            (True, transforms.RULE_SKIP, False), (False, transforms.RULE_NONE, None)} == seen


def test_uncovered_cases_are_flagged_not_guessed():
    host = l_graph(7, 12)
    spec = TransformSpec("ROW", 7, 2, 5, 3, 1)
    low = certify(host, spec, Fraction(1, 4))
    assert not low.covered and low.predicted_equality is None
    for g, wide in valid_instances(8, dk=3, kinds=("BASIC",)):
        cert = certify(g, wide, HALF)
        assert not cert.covered and cert.predicted_equality is None
        break


def test_certificates_do_not_depend_on_call_order_or_cache_state():
    alphas = (HALF, Fraction(3, 5), Fraction(3, 4), Fraction(9, 10))
    moves = list(valid_instances(8))
    runs = []
    for order in (alphas, alphas[::-1]):
        spectra._threshold_spectrum.cache_clear()
        spectra._order_table.cache_clear()
        apply_transform.cache_clear()
        runs.append({(g, spec, alpha): certify(g, spec, alpha) for g, spec in moves for alpha in order})
    assert len(runs[0]) == 4 * len(moves) >= 400
    for key, cert in runs[0].items():
        assert vars(cert) == vars(runs[1][key]), key
    # A valid move keeps the host's labels in stepwise order, so the old
    # stable degree-rank scatter of the rewired Perron vector is the identity.
    for g, spec in moves:
        deg = [len(nbrs) for nbrs in rewired_labeled(g, spec).neighbor_sets()[1:]]
        assert deg == sorted(deg, reverse=True), (g.text, spec.text)
        for alpha in alphas:
            perron = spectral_radius(apply_transform(g, spec), alpha).perron
            scattered = np.empty(g.n)
            scattered[np.argsort(-np.array(deg), kind="stable")] = perron
            assert np.array_equal(scattered, perron), (g.text, spec.text)
            cert = runs[0][g, spec, alpha]
            assert cert.residual_eq2 == eq2_residual(cert.rho_after, scattered, spec, alpha)


def test_certify_rejects_invalid_spec():
    with pytest.raises(InvalidTransformError):
        certify(ThresholdGraph("IDDDDDD"), TransformSpec("BASIC", 7, 2, 4, 3), HALF)


# ---------------------------------------------------------------------------
# Eigenvector identity residuals
# ---------------------------------------------------------------------------

def test_identity_residuals_small_for_every_alpha():
    # The identities hold for all alpha in [0, 1), including alpha = 0.
    count = 0
    for g, spec in itertools.islice(valid_instances(8, kinds=("BASIC",)), 60):
        for alpha in (Fraction(0), Fraction(1, 3), HALF, Fraction(9, 10)):
            cert = certify(g, spec, alpha)
            assert cert.residual_eq1 <= 1e-8 and cert.residual_eq2 <= 1e-8
        count += 1
    assert count >= 20


def test_perturbed_vector_breaks_identity():
    # Exact only at the eigenpair: bumping an entry that enters the identity
    # (here x_h) moves the residual linearly in the bump size.
    host = l_graph(7, 12)
    spec = TransformSpec("ROW", 7, 2, 5, 3, 1)
    s = spectral_radius(host, HALF)
    base = eq1_residual(s.rho, s.perron, spec, 0.5)
    assert base <= 1e-10
    slope = abs(s.rho - (spec.k + spec.l) * 0.5)  # d(residual)/d(x_h)
    for eps in (1e-6, 1e-3):
        bumped = np.array(s.perron)
        bumped[spec.h - 1] += eps
        moved = eq1_residual(s.rho, bumped, spec, 0.5)
        assert moved == pytest.approx(eps * slope, rel=1e-4, abs=1e-9)
        assert moved > 100 * base

