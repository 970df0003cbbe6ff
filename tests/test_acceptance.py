"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Every tolerance is pinned here: 1e-9 for comparisons of
two spectral radii, 1e-10 monotonicity slack, 1e-8 for identity residuals and
quotient/full eigenvalue agreement.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from quasistar.graphs import (
    l_graph,
    quasi_star,
    tilde_s,
    to_labeled,
)
from quasistar.search import (
    ALL,
    FamilySpec,
    enumerate_all,
    verify,
)
from quasistar.spectra import alpha_matrix, threshold_spectrum
from quasistar.transforms import TransformSpec, apply_transform, candidate_specs, certify, validate
from graph_builders import connected_threshold_graphs
from spectral_checks import char_poly, perron_order_check, q_upper_bound, signless_laplacian_radius

HALF = Fraction(1, 2)
SWEEP_ALPHAS = (HALF, Fraction(3, 5), Fraction(3, 4), Fraction(9, 10))
RHO_TOL = 1e-9
MONO_SLACK = 1e-10
EQ_TOL = 1e-8


def announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number} {status}: {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: sparse band, n in 4..12, m in [n-1, 2n-2], four alphas
# ---------------------------------------------------------------------------

def test_criterion_1_sparse_band():
    start = time.perf_counter()
    reports = verify("t41", range(4, 13), SWEEP_ALPHAS)
    bad = [r for r in reports if not r.matches_theorem]
    ties = [r for r in reports if len(r.maximizer_set) == 2]
    ok = not bad
    for r in ties:
        assert r.alpha == HALF and r.family.m == r.family.n + 2
        assert r.family.n >= 5  # at n=4 the tie partner coincides with K_4
        n = r.family.n
        drho = abs(threshold_spectrum(quasi_star(n, n + 2), HALF).rho
                   - threshold_spectrum(tilde_s(n, n + 2), HALF).rho)
        assert drho <= RHO_TOL
    elapsed = time.perf_counter() - start
    announce(1, ok, f"{len(reports)} families, {len(ties)} predicted ties, {elapsed:.1f}s")
    assert ok, f"mismatching families: {[r.record() for r in bad]}"
    assert {r.family.n for r in ties} == set(range(5, 13))


# ---------------------------------------------------------------------------
# Criterion 2: all (not necessarily connected) graphs of size 2n-2, n in 4..16
# ---------------------------------------------------------------------------

def test_criterion_2_all_graphs_2n2():
    start = time.perf_counter()
    reports = verify("t12", range(4, 17), [HALF])
    bad = [r for r in reports if not r.matches_theorem]
    at6 = next(r for r in reports if r.family.n == 6)
    elapsed = time.perf_counter() - start
    ok = not bad and at6.maximizer_set == ("IDDDDI",)
    announce(2, ok, f"n=4..16, n=6 maximizer {at6.maximizer_set[0]}, {elapsed:.1f}s")
    assert not bad, f"mismatching families: {[r.record() for r in bad]}"
    assert at6.maximizer_set == ("IDDDDI",)
    for r in reports:
        if r.family.n != 6:
            assert r.maximizer_set == (quasi_star(r.family.n, 2 * r.family.n - 2).text,)


# ---------------------------------------------------------------------------
# Criterion 3: band instance r=3, n=24, m in (45, 66], alphas 1/2 and 3/4
# ---------------------------------------------------------------------------

def test_criterion_3_band_r3_n24():
    start = time.perf_counter()
    reports = verify("t42", [24], [HALF, Fraction(3, 4)], r=3)
    bad = [r for r in reports if not r.matches_theorem]
    ties = [r for r in reports if len(r.maximizer_set) == 2]
    elapsed = time.perf_counter() - start
    ok = not bad and len(ties) == 1
    announce(3, ok, f"42 families at n=24, exception at m=48 alpha=1/2, {elapsed:.1f}s")
    assert not bad, f"mismatching families: {[r.record() for r in bad]}"
    assert len(reports) == 42
    assert not any(r.warnings for r in reports)  # n=24 is above the hypothesis bound
    tie = ties[0]
    assert tie.family.m == 48 and tie.alpha == HALF
    assert set(tie.maximizer_set) == {quasi_star(24, 48).text, tilde_s(24, 48).text}
    assert tie.tie_gap > 1e-6
    drho = abs(threshold_spectrum(quasi_star(24, 48), HALF).rho
               - threshold_spectrum(tilde_s(24, 48), HALF).rho)
    assert drho <= RHO_TOL


# ---------------------------------------------------------------------------
# Criterion 4: signless Laplacian lower bounds and quotient consistency
# ---------------------------------------------------------------------------

def test_criterion_4_signless_laplacian_families():
    start = time.perf_counter()
    checked = 0
    for n in range(4, 101):
        g = quasi_star(n, 2 * n - 2)
        formula = [[n, 2, n - 4], [2, 4, 0], [2, 0, 2]]
        coeffs = char_poly(formula)
        assert coeffs == [1, -n - 6, 4 * n + 12, -24]
        _check_q(g, n + 1.6, coeffs, formula, [[1, 2], [3, 4], range(5, n + 1)] if n >= 5 else None)
        checked += 1

    # The second family needs 2n-1 <= n(n-1)/2, so it starts at n = 5.
    with pytest.raises(ValueError):
        quasi_star(4, 7)
    for n in range(5, 101):
        g = quasi_star(n, 2 * n - 1)
        formula = [[n, 1, 2, n - 5], [2, 4, 2, 0], [2, 1, 3, 0], [2, 0, 0, 2]]
        coeffs = char_poly(formula)
        assert coeffs == [1, -n - 9, 7 * n + 28, -10 * n - 64, 72]
        _check_q(g, n + 1.75, coeffs, formula,
                 [[1, 2], [3], [4, 5], range(6, n + 1)] if n >= 6 else None)
        checked += 1
    elapsed = time.perf_counter() - start
    announce(4, True, f"{checked} (n, family) bound/quotient/polynomial checks, {elapsed:.1f}s")


def _check_q(g, lower, coeffs, formula, partition):
    """Criterion 4's checks on one family member g.

    q(g) >= lower on the full matrix; the top root of ``coeffs`` equals q and
    2 * rho of the threshold kernel's run quotient; unless ``partition``
    (1-based blocks) is None, it is equitable on Q = D + A with quotient
    ``formula``.
    """
    lab = to_labeled(g)
    q = signless_laplacian_radius(lab)
    assert q >= lower
    # All roots are real: the quotient is similar to a symmetric matrix.
    root = np.roots([float(c) for c in coeffs]).real.max()
    assert abs(root - q) <= EQ_TOL
    assert abs(root - 2 * threshold_spectrum(g, HALF).rho) <= EQ_TOL
    if partition is None:
        return
    mat = 2 * alpha_matrix(lab, HALF)  # exact: entries are integers
    blocks = [np.array(blk) - 1 for blk in partition]
    for bi, row in zip(blocks, formula):
        for bj, entry in zip(blocks, row):
            assert (mat[np.ix_(bi, bj)].sum(axis=1) == entry).all()


# ---------------------------------------------------------------------------
# Criterion 5: rewiring property suite over all connected hosts with n <= 10
# ---------------------------------------------------------------------------

def test_criterion_5_rewiring_property_suite():
    start = time.perf_counter()
    hosts = list(connected_threshold_graphs(10))
    assert len(hosts) == sum(2 ** (n - 2) for n in range(2, 11))

    instances = 0
    equalities = 0
    max_residual = 0.0
    for host in hosts:
        for kind in ("BASIC", "ROW", "COL"):
            for spec in candidate_specs(host.n, kind, dk=1):
                if not validate(host, spec):
                    continue
                window = spec.l == 0 and spec.p == spec.h + 1 == spec.q + 3
                for alpha in SWEEP_ALPHAS:
                    cert = certify(host, spec, alpha)
                    assert cert.covered
                    assert cert.rho_after >= cert.rho_before - MONO_SLACK, (
                        f"radius decreased: {host.text} {spec.text} alpha={alpha}")
                    predicted = alpha == HALF and window
                    assert cert.predicted_equality == predicted
                    assert cert.observed_equality == predicted, (
                        f"equality mismatch: {host.text} {spec.text} alpha={alpha} "
                        f"drho={cert.rho_after - cert.rho_before:.3e}")
                    assert cert.residual_eq1 <= EQ_TOL and cert.residual_eq2 <= EQ_TOL
                    max_residual = max(max_residual, cert.residual_eq1, cert.residual_eq2)
                    instances += 1
                    equalities += predicted

    # Strictness for the double-offset BASIC rule.
    skip_instances = 0
    for host in hosts:
        for spec in candidate_specs(host.n, "BASIC", dk=2):
            if spec.p <= spec.h + 1 or not validate(host, spec):
                continue
            for alpha in (HALF, Fraction(3, 4)):
                cert = certify(host, spec, alpha)
                assert cert.covered and cert.predicted_equality is False
                assert cert.rho_after - cert.rho_before > RHO_TOL
                skip_instances += 1

    # The two worked instances reproduce their stated outputs exactly.
    assert apply_transform(l_graph(7, 12), TransformSpec("ROW", 7, 2, 5, 3, 1)) == quasi_star(7, 12)
    from quasistar.graphs import from_degree_sequence
    host923 = from_degree_sequence((8, 7, 7, 7, 4, 4, 4, 4, 1))
    assert apply_transform(host923, TransformSpec("COL", 9, 3, 8, 4, 1)) == quasi_star(9, 23)

    elapsed = time.perf_counter() - start
    announce(5, True,
             f"{instances} k=q+1 certificates ({equalities} exact ties), "
             f"{skip_instances} strict k=q+2 certificates, max residual {max_residual:.2e}, "
             f"{elapsed:.1f}s")
    assert instances >= 4000 and equalities > 0 and skip_instances >= 200


# ---------------------------------------------------------------------------
# Criterion 6: threshold dominance over all connected graphs, n <= 7
# ---------------------------------------------------------------------------

def test_criterion_6_threshold_dominance():
    start = time.perf_counter()
    checks = 0
    alphas = (Fraction(0), HALF, Fraction(3, 4))
    reports = verify("lemma24", range(2, 8), alphas)
    assert [(r.family.n, r.family.m, r.alpha) for r in reports] == [
        (n, m, alpha) for n in range(2, 8) for m in range(n - 1, n * (n - 1) // 2 + 1) for alpha in alphas
    ]
    for report in reports:
        assert report.matches_theorem, (report.family.n, report.family.m, report.alpha)
        checks += 1
    elapsed = time.perf_counter() - start
    announce(6, True, f"{checks} (n, m, alpha) equivalence checks up to n=7, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: Perron structure and the q(G) bound with equality cases
# ---------------------------------------------------------------------------

def test_criterion_7_perron_structure_and_bound():
    start = time.perf_counter()
    order_checks = 0
    for host in connected_threshold_graphs(10):
        lab = to_labeled(host)
        for alpha in SWEEP_ALPHAS:
            assert perron_order_check(lab, alpha) == [], (host.text, alpha)
            order_checks += 1

    bound_checks = 0
    equality_cases = 0
    for n in range(2, 8):
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for g in enumerate_all(FamilySpec(n, m, connected_only=True, universe=ALL)):
                q = signless_laplacian_radius(g)
                bound = q_upper_bound(n, m)
                assert q <= bound + RHO_TOL
                degs = sorted(g.degrees(), reverse=True)
                is_star = m == n - 1 and degs[0] == n - 1
                is_complete = m == n * (n - 1) // 2
                if abs(q - bound) <= RHO_TOL:
                    assert is_star or is_complete, (n, m, degs)
                    equality_cases += 1
                else:
                    assert not (is_star or is_complete)
                bound_checks += 1
    elapsed = time.perf_counter() - start
    announce(7, True,
             f"{order_checks} Perron order checks, {bound_checks} bound checks "
             f"({equality_cases} equality cases), {elapsed:.1f}s")
    # One star and one complete graph per order, coinciding at n = 2.
    assert equality_cases == 11
