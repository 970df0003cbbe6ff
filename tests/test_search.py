"""Family enumeration, extremal argmax, verification drivers, audits."""

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from quasistar.graphs import (
    LabeledGraph,
    from_creation_sequence,
    is_threshold,
    quasi_star,
    tilde_s,
    to_labeled,
)
from quasistar import search
from quasistar.search import (
    ALL,
    FamilySpec,
    argmax_rho,
    audit,
    clique_band_hypothesis_bound,
    edge_key,
    enumerate_all,
    enumerate_threshold,
    predicted_maximizers,
    threshold_dominance_report,
    verify_all_graphs_2n2,
    verify_clique_band,
    verify_sparse_band,
)
from quasistar.spectra import RHO_COMPARE_TOL, family_spectra, same_radius, spectral_radius

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
    brute = [
        g for g in (from_creation_sequence("I" + "".join(t))
                    for t in __import__("itertools").product("ID", repeat=3))
        if g.m == 3 and g.is_connected
    ]
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
        assert all(from_creation_sequence(t).m == m for t in texts)


def test_enumerate_threshold_single_vertex():
    assert [g.text for g in enumerate_threshold(FamilySpec(1, 0))] == ["I"]


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
        connected = [g for g in reps if g.is_connected]
        assert len(connected) == KNOWN_CONNECTED_COUNTS[n]


# sha256 of repr(_graph_classes(n)), taken from the float64 table and the
# per-bit column loop that the float32 product replaced.
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
    # Every class representative, hence every edge_key printed, is unchanged.
    for n, digest in PINNED_CLASS_DIGESTS.items():
        assert hashlib.sha256(repr(search._graph_classes(n)).encode()).hexdigest() == digest


def test_perm_weights_are_exact_in_float32():
    for n in range(1, 8):
        weights = search._perm_weights(n)
        assert weights.dtype == np.float32 and weights.shape == (math.factorial(n), n * (n - 1) // 2)
    # Every image mask is a sum of distinct weights, so it is below 2^21.
    assert search._perm_weights(7).max() < 2**24
    assert np.all(search._perm_weights(7).astype(np.int64).sum(axis=1) < 2**21)


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
    assert search._canonical_many(masks, n) == expected
    assert search._canonical_many(masks, n, chunk=3) == expected


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
        assert search._connected(adj).tolist() == [g.is_connected for g in graphs]


def per_graph_argmax(family: FamilySpec, alpha):
    """Reference: the per-graph ``spectral_radius`` loop the batched ALL scan replaced."""
    near = []
    for mask in search._graph_classes(family.n)[family.m]:
        g = search._labeled_from_mask(mask, family.n)
        if family.connected_only and not g.is_connected:
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
    for n in range(1, 7):
        for m in range(n - 1 if connected_only else 0, n * (n - 1) // 2 + 1):
            family = FamilySpec(n, m, connected_only=connected_only, universe=ALL)
            report = argmax_rho(family, alpha)
            assert (report.rho_max, report.tie_gap, report.maximizer_set) == per_graph_argmax(family, alpha)
            disconnected_maximizers += sum(
                not search._from_edge_key(key, n).is_connected for key in report.maximizer_set
            )
    # Without connected_only the fallback path decides families such as K_5 u K_1.
    assert (disconnected_maximizers > 0) == (not connected_only)


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
    k5_k1 = edge_key(to_labeled(from_creation_sequence("IDDDDI")))
    assert report.maximizer_set == (k5_k1,)


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


def test_streaming_argmax_matches_one_call_reference(monkeypatch):
    """One graph per chunk against one ``family_spectra`` call per family.

    A member that ties the running maximum and later falls out of the tie
    must still count toward ``tie_gap``; the sweep checks that it has such
    members.
    """
    monkeypatch.setattr(search, "FAMILY_CHUNK", 1)
    scans = with_dropouts = 0
    for n in range(1, 11):
        for connected_only in (True, False):
            for m in range(n - 1 if connected_only else 0, n * (n - 1) // 2 + 1):
                family = FamilySpec(n, m, connected_only=connected_only)
                masks = list(search._dominating_masks(family))
                for alpha in (Fraction(0), HALF, Fraction(3, 4)):
                    radii = family_spectra(search._rows(masks, n), alpha)[0]
                    rho_max = float(radii.max())
                    tie = same_radius(radii, rho_max)
                    below = radii[~tie]
                    expected = (
                        rho_max,
                        rho_max - float(below.max()) if len(below) else float("inf"),
                        tuple(sorted("".join(search._creation(mask, n)) for mask in itertools.compress(masks, tie))),
                    )
                    report = argmax_rho(family, alpha)
                    assert (report.rho_max, report.tie_gap, report.maximizer_set) == expected
                    scans += 1
                    with_dropouts += bool((same_radius(radii, np.maximum.accumulate(radii)) & ~tie).any())
    assert scans == 915 and with_dropouts > 0


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
    reports = verify_sparse_band(range(4, 9), [HALF, Fraction(3, 4)])
    assert all(r.matches_theorem for r in reports)
    ties = [r for r in reports if len(r.maximizer_set) == 2]
    assert all(r.alpha == HALF and r.family.m == r.family.n + 2 for r in ties)
    assert {r.family.n for r in ties} == {5, 6, 7, 8}  # n=4 tie partner collapses to K_4


def test_verify_all_graphs_2n2_small():
    reports = verify_all_graphs_2n2(range(4, 9))
    assert all(r.matches_theorem for r in reports)
    at6 = [r for r in reports if r.family.n == 6][0]
    assert at6.maximizer_set == ("IDDDDI",)
    at5 = [r for r in reports if r.family.n == 5][0]
    assert at5.maximizer_set == (quasi_star(5, 8).text,)


def test_clique_band_hypothesis_bound_formula():
    assert clique_band_hypothesis_bound(3) == pytest.approx((27 + 5 * 17 ** 0.5) / 2)


def test_verify_clique_band_tie_instance():
    # The n = 24 instance (tie at m = 48) is criterion 3; n = 12 ties at m = 24.
    reports = verify_clique_band(3, 12, [HALF])
    assert all("near-tie" not in w for r in reports for w in r.warnings)
    tie = [r for r in reports if r.family.m == 24][0]
    assert set(tie.maximizer_set) == {quasi_star(12, 24).text, tilde_s(12, 24).text}
    assert tie.matches_theorem


def test_verify_clique_band_flags_small_n():
    reports = verify_clique_band(3, 12, [Fraction(3, 4)])
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


# ---------------------------------------------------------------------------
# Structural audit
# ---------------------------------------------------------------------------

def test_audit_quasi_star_6_10():
    report = audit(quasi_star(6, 10), r=2)
    assert report.kappa == 3
    assert report.delta == {1: 0, 2: 2, 3: 1}
    assert report.identity_ok
    assert not report.complete


def test_audit_complete_graph_flagged():
    report = audit(from_creation_sequence("IDDDDD"), r=2)
    assert report.complete and report.kappa == 5
    assert report.delta == {} and report.identity_ok is None


def test_audit_tilde_s_24_48():
    report = audit(tilde_s(24, 48), r=3)
    assert report.kappa == 4
    assert report.delta[2] == 19 and report.delta[4] == 1
    assert report.identity_ok
    # degrees (23,23,4,4,4,2,...): position r+s has the last degree >= r+1
    assert report.s == 2 and report.theta == 1


def test_audit_identity_on_all_connected_non_complete():
    import itertools
    for n in range(2, 9):
        for tail in itertools.product("ID", repeat=n - 2):
            g = from_creation_sequence("I" + "".join(tail) + "D")
            if g.m == n * (n - 1) // 2:
                continue
            assert audit(g, r=1).identity_ok


def test_audit_rejects_disconnected():
    with pytest.raises(ValueError):
        audit(from_creation_sequence("IDDDDI"), r=2)
