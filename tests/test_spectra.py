"""Matrix assembly, dominant eigenpairs, characteristic polynomials, Perron structure."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from quasistar.graphs import (
    LabeledGraph,
    ThresholdGraph,
    quasi_star,
    tilde_s,
    to_labeled,
)
from quasistar import spectra
from quasistar import search
from quasistar.search import ALL, FamilySpec, argmax_rho
from quasistar.transforms import candidate_specs, certify, validate
from quasistar.spectra import (
    RESIDUAL_TOL,
    NonConvergenceError,
    alpha_matrices,
    alpha_matrix,
    as_alpha,
    count_above,
    definite_above,
    family_spectra,
    spectral_radius,
)
from graph_builders import complete_graph, graph_union, threshold_graphs
from spectral_checks import char_poly, perron_order_check, q_upper_bound, signless_laplacian_radius

HALF = Fraction(1, 2)
ALPHAS = [Fraction(0), Fraction(1, 3), HALF, Fraction(3, 4), Fraction(9, 10)]


# ---------------------------------------------------------------------------
# alpha handling and matrix assembly
# ---------------------------------------------------------------------------

def test_as_alpha_parsing():
    assert as_alpha("1/2") == HALF
    assert as_alpha("0.75") == Fraction(3, 4)
    assert as_alpha(0) == 0
    with pytest.raises(ValueError):
        as_alpha("5/4")
    with pytest.raises(ValueError):
        as_alpha(1)
    with pytest.raises(TypeError):
        as_alpha(0.5)


def test_as_alpha_rejects_zero_denominator_and_float_one():
    with pytest.raises(ValueError, match="zero denominator"):
        as_alpha("1/0")
    # Below 1 exactly, but its float is 1.0, so the matrix would lose A.
    with pytest.raises(ValueError, match="rounds to 1.0"):
        as_alpha("0.99999999999999999999")
    assert float(as_alpha("0.9999999999999999")) < 1.0


def test_as_alpha_fraction_path_keeps_its_errors():
    for bad in (Fraction(1), Fraction(-1, 3), Fraction(10**20 - 1, 10**20)):
        with pytest.raises(ValueError):
            as_alpha(bad)
    half = Fraction(1, 2)
    assert as_alpha(half) is half
    # 1 - 2**-54 is the midpoint below 1.0 and rounds half-even onto it.
    with pytest.raises(ValueError, match="rounds to 1.0"):
        as_alpha(Fraction(2**54 - 1, 2**54))
    assert float(as_alpha(Fraction(2**53 - 1, 2**53))) < 1.0


def test_as_alpha_rejects_an_alpha_whose_float_is_one_half():
    # Solved as 1/2 but tied as itself, such an alpha would contradict its own verdict.
    with pytest.raises(ValueError, match="not 1/2"):
        as_alpha("0.50000000000000000001")
    # 0.5 is even, so both midpoints next to it round half-even onto it.
    for bad in (Fraction(2**53 + 1, 2**54), Fraction(2**54 - 1, 2**55)):
        with pytest.raises(ValueError, match="not 1/2"):
            as_alpha(bad)
    for good in (Fraction(2**52 + 1, 2**53), Fraction(2**53 - 1, 2**54)):
        assert as_alpha(good) is good and float(good) != 0.5
    assert as_alpha("0.5") == HALF


def test_alpha_matrix_k2():
    mat = alpha_matrix(complete_graph(2), HALF)
    assert np.array_equal(mat, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_alpha_matrix_complete():
    for n in (3, 5):
        for alpha in (Fraction(0), Fraction(2, 5), Fraction(3, 4)):
            mat = alpha_matrix(complete_graph(n), alpha)
            a = float(alpha)
            assert np.allclose(np.diag(mat), a * (n - 1))
            off = mat[~np.eye(n, dtype=bool)]
            assert np.allclose(off, 1 - a)


def test_half_alpha_matrix_is_half_signless_laplacian():
    g = to_labeled(quasi_star(7, 12))
    deg = g.degrees()
    q_mat = np.diag([float(d) for d in deg])
    for u, v in g.edges:
        q_mat[u - 1, v - 1] = 1.0
        q_mat[v - 1, u - 1] = 1.0
    assert np.allclose(alpha_matrix(g, HALF), q_mat / 2.0)


# ---------------------------------------------------------------------------
# Dominant eigenpair
# ---------------------------------------------------------------------------

def test_complete_graph_radius_is_n_minus_1():
    for n in (2, 4, 7):
        for alpha in ALPHAS:
            assert spectral_radius(complete_graph(n), alpha).rho == pytest.approx(n - 1, abs=1e-9)


def test_star_adjacency_radius():
    # K_{1,4} at alpha = 0: radius sqrt(4) = 2.
    star = to_labeled(ThresholdGraph("IIIID"))
    assert spectral_radius(star, 0).rho == pytest.approx(2.0, abs=1e-10)


def test_star_half_radius_is_n_over_2():
    for n in range(4, 11):
        star = to_labeled(ThresholdGraph("I" * (n - 1) + "D"))
        assert spectral_radius(star, HALF).rho == pytest.approx(n / 2, abs=1e-9)


def test_dense_radius_matches_eigvalsh():
    # Independent oracle: symmetric dense eigensolver on the same matrices.
    for g in threshold_graphs(6):
        lab = to_labeled(g)
        for alpha in ALPHAS:
            expect = float(np.max(np.linalg.eigvalsh(alpha_matrix(lab, alpha))))
            got = spectral_radius(lab, alpha)
            assert got.rho == pytest.approx(expect, abs=1e-9)
            assert got.residual <= 1e-10


def test_perron_vector_properties():
    g = to_labeled(quasi_star(8, 16))
    for alpha in ALPHAS:
        spec = spectral_radius(g, alpha)
        assert np.linalg.norm(spec.perron) == pytest.approx(1.0, abs=1e-12)
        assert np.all(spec.perron > 0)  # connected: strictly positive
        mat = alpha_matrix(g, alpha)
        assert float(np.max(np.abs(mat @ spec.perron - spec.rho * spec.perron))) <= 1e-10


def test_disconnected_radius_is_max_over_components():
    g = graph_union(complete_graph(5), complete_graph(1))
    spec = spectral_radius(g, HALF)
    assert spec.rho == pytest.approx(4.0, abs=1e-9)
    assert spec.perron[5] == 0.0  # isolated vertex outside the extremal component
    star3 = to_labeled(ThresholdGraph("IIID"))
    g2 = graph_union(complete_graph(3), star3)
    for alpha in ALPHAS:
        whole = spectral_radius(g2, alpha).rho
        parts = max(spectral_radius(complete_graph(3), alpha).rho,
                    spectral_radius(star3, alpha).rho)
        assert whole == pytest.approx(parts, abs=1e-10)


@pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(3, 4)])
def test_equal_component_radii_go_to_the_smallest_vertex(alpha):
    # Two disjoint triangles have the same radius; the Perron vector lives on the one holding vertex 1.
    spec = spectral_radius(graph_union(complete_graph(3), complete_graph(3)), alpha)
    assert spec.perron[3:].tolist() == [0.0, 0.0, 0.0]
    assert spec.perron[:3] == pytest.approx([3 ** -0.5] * 3)


def test_empty_graph_radius_zero():
    g = LabeledGraph.from_edges(4, [])
    spec = spectral_radius(g, HALF)
    assert spec.rho == 0.0
    assert np.linalg.norm(spec.perron) == pytest.approx(1.0)


def test_adding_edges_never_decreases_radius():
    rng = np.random.default_rng(20240811)
    pairs = list(itertools.combinations(range(1, 8), 2))
    for _ in range(40):
        n = int(rng.integers(3, 8))
        usable = [(u, v) for u, v in pairs if v <= n]
        picked = [usable[i] for i in rng.permutation(len(usable))[: max(n - 1, 3)]]
        g = LabeledGraph.from_edges(n, picked)
        non_edges = [e for e in usable if e not in g.edges]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(len(non_edges)))]
        bigger = LabeledGraph.from_edges(n, list(g.edges) + [extra])
        for alpha in (Fraction(0), HALF, Fraction(3, 4)):
            assert spectral_radius(bigger, alpha).rho >= spectral_radius(g, alpha).rho - 1e-10


def _perturbed_eigh(monkeypatch, shift):
    """Make numpy's eigh report every eigenvalue off by ``shift``."""
    exact = np.linalg.eigh

    def perturbed(mat):
        vals, vecs = exact(mat)
        return vals + shift, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


def test_nonconvergence_reports_residual(monkeypatch, cold_spectrum_cache):
    g = quasi_star(6, 10)
    alpha = Fraction(7, 13)
    x_dense = spectral_radius(to_labeled(g), alpha).perron
    _perturbed_eigh(monkeypatch, 1e-6)
    with pytest.raises(NonConvergenceError, match="did not converge") as dense:
        spectral_radius(to_labeled(g), alpha)
    with pytest.raises(NonConvergenceError, match="did not converge") as quotient:
        spectral_radius(g, alpha)
    # The residual of (rho + shift, x) is shift * max|x|.
    for err in (dense, quotient):
        assert err.value.residual > RESIDUAL_TOL
        assert err.value.residual == pytest.approx(1e-6 * float(np.max(x_dense)), rel=1e-6)
    for family in (FamilySpec(6, 10), FamilySpec(6, 10, universe=ALL), FamilySpec(12, 24)):
        with pytest.raises(NonConvergenceError, match="did not converge") as scan:
            argmax_rho(family, alpha)
        assert scan.value.residual > RESIDUAL_TOL


def test_perron_sign_is_normalised(monkeypatch):
    g = to_labeled(quasi_star(7, 12))
    expect = spectral_radius(g, Fraction(3, 4)).perron
    exact = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: (exact(mat)[0], -exact(mat)[1]))
    got = spectral_radius(g, Fraction(3, 4)).perron
    assert np.all(got > 0)
    assert np.allclose(got, expect, atol=1e-12)


def test_wrong_lift_fails_the_residual(monkeypatch, cold_spectrum_cache):
    # A quotient eigenvector with its entries reversed is lifted to a vector
    # that is not an eigenvector of the graph; only the certificate sees it.
    g = quasi_star(6, 10)  # IDIIDD: runs of 2 vertices with degrees 3, 2, 5, so no symmetry
    exact = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: (exact(mat)[0], exact(mat)[1][..., ::-1, :]))
    with pytest.raises(NonConvergenceError, match="did not converge"):
        spectral_radius(g, Fraction(5, 13))
    # The scan of (12, 24) solves 8 of its 15 members and proves the rest out.
    for family in (FamilySpec(6, 10), FamilySpec(12, 24)):
        with pytest.raises(NonConvergenceError, match="did not converge"):
            argmax_rho(family, Fraction(5, 13))


def test_negative_perron_entry_is_an_error():
    with pytest.raises(NonConvergenceError, match="negative"):
        spectra._gate(0.0, -0.6)


def lone_quotient_rho(g, alpha) -> float:
    """Reference: the per-graph run-quotient solve that the batched kernel replaced."""
    a = float(alpha)
    runs = []  # [symbol, size] over vertices 2..n
    for sym in g.text[1:]:
        if runs and runs[-1][0] == sym:
            runs[-1][1] += 1
        else:
            runs.append([sym, 1])
    if runs and runs[-1][0] == "I":
        runs.pop()  # isolated vertices
    if not runs:
        return 0.0
    runs[0][1] += 1  # the first vertex is a twin of the second
    size = np.array([count for _, count in runs], dtype=float)
    dom = np.array([sym == "D" for sym, _ in runs])
    dom_size = size * dom
    deg = dom * (np.cumsum(size) - 1.0) + dom_size.sum() - np.cumsum(dom_size)
    pos = np.arange(len(runs))
    root = np.sqrt(size)
    quotient = (1.0 - a) * dom[np.maximum.outer(pos, pos)] * np.outer(root, root)
    quotient[pos, pos] = a * deg + (1.0 - a) * dom * (size - 1.0)
    return float(np.linalg.eigh(quotient)[0][-1])


@pytest.mark.parametrize("n", range(1, 12))
def test_quotient_kernel_matches_dense_eigh(n):
    # Every threshold graph: connected, with isolated vertices, edgeless, n = 1.
    graphs = list(threshold_graphs(n))
    dom = np.array([[sym == "D" for sym in g.text] for g in graphs])
    for alpha in (Fraction(0), HALF, Fraction(3, 4), Fraction(9, 10), Fraction(99, 100)):
        rho, _, residual = family_spectra(dom, alpha)
        assert np.all(residual <= RESIDUAL_TOL)
        for g, rho_batched in zip(graphs, rho):
            mat = alpha_matrix(to_labeled(g), alpha)
            vals, vecs = np.linalg.eigh(mat)
            spec = spectral_radius(g, alpha)
            # Bit for bit: the batch, the one-graph solve and the old per-graph solve.
            assert rho_batched == spec.rho == lone_quotient_rho(g, alpha)
            assert abs(spec.rho - vals[-1]) <= 1e-12
            assert spec.residual <= 1e-10
            assert np.max(np.abs(mat @ spec.perron - spec.rho * spec.perron)) <= 1e-10
            if g.m == 0:
                assert spec.rho == 0.0 and spec.perron[0] == 1.0
                continue
            top = vecs[:, -1] if vecs[:, -1].sum() > 0 else -vecs[:, -1]
            assert np.max(np.abs(spec.perron - top)) <= 1e-9


def test_inertia_count_matches_eigvalsh():
    # Every threshold graph with n <= 9, probed at each of its eigenvalues and
    # 1e-6 to either side; row k of graph i's block is probed at its k-th eigenvalue.
    for n in range(1, 10):
        graphs = list(threshold_graphs(n))
        dom = np.array([[sym == "D" for sym in g.text] for g in graphs])
        adjacency = np.array([alpha_matrix(to_labeled(g), 0) for g in graphs]) > 0
        for alpha in (Fraction(0), HALF, Fraction(3, 4), Fraction(99, 100)):
            spectrum = np.linalg.eigvalsh(alpha_matrices(adjacency, alpha))
            rows, evs, at = np.repeat(dom, n, axis=0), np.repeat(spectrum, n, axis=0), spectrum.reshape(-1, 1)
            for x in (at - 1e-6, at + 1e-6):
                above, unsure, error = count_above(rows, alpha, x)
                assert not unsure.any() and error < 1e-9
                assert np.array_equal(above, (evs > x).sum(axis=1))
            # At an eigenvalue the sign of its pivot is rounding: the count may
            # take it either way, or say that it is unsure.
            above, unsure, _ = count_above(rows, alpha, at)
            low, high = (evs > at + 1e-9).sum(axis=1), (evs > at - 1e-9).sum(axis=1)
            assert np.all(unsure | ((low <= above) & (above <= high)))
            assert count_above(dom, alpha, np.nan)[1].all()  # a non-finite pivot is unsure too


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(3, 4)])
def test_count_error_covers_its_documented_bound(alpha):
    # ``error`` >= 64 n^2 eps (max|T| + max|x| + 1), T = E (M - xI) E^T in creation
    # order, E subtracting row i + 1 from row i; T is tridiagonal and exact here.
    g, x = ThresholdGraph("IDIDDIDD"), 3.0
    n, eps = g.n, np.finfo(float).eps
    edges = [(j + 1, i + 1) for i, sym in enumerate(g.text) if sym == "D" for j in range(i)]
    shifted = alpha_matrix(LabeledGraph.from_edges(n, edges), alpha) - x * np.eye(n)
    e = np.eye(n) - np.eye(n, k=1)
    t = e @ shifted @ e.T
    assert not np.triu(t, 2).any()
    above, unsure, error = count_above(np.array([[sym == "D" for sym in g.text]]), alpha, x)
    assert not unsure.any() and above[0] == (np.linalg.eigvalsh(shifted) > 0).sum()
    assert error >= 64 * n * n * eps * (np.abs(t).max() + abs(x) + 1)


@pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(999, 1000)])
def test_pivot_test_matches_eigvalsh(alpha):
    # Every connected class with n <= 7, probed at its top eigenvalue less and
    # plus the returned error: no row is certified below, every row above.
    for n in range(1, 8):
        masks, connected, _ = search._order_classes(n)
        mats = alpha_matrices(search._adjacency(masks[connected], n), alpha)
        top = np.linalg.eigvalsh(mats)[:, -1]
        _, error = definite_above(mats, top)
        assert error.max() < 1e-10
        assert not definite_above(mats, top - error)[0].any(), n
        assert definite_above(mats, top + error)[0].all(), n
        assert not definite_above(mats, np.full(len(mats), -np.inf))[0].any()


def assert_served_spectrum_is_batch_row(graphs, alpha):
    """A threshold graph's ``spectral_radius`` equals its row of a separate ``family_spectra`` call, bit for bit."""
    dom = np.array([[sym == "D" for sym in g.text] for g in graphs])
    rho, x, residual = family_spectra(dom, alpha)
    for g, rho_row, x_row, residual_row in zip(graphs, rho, x, residual):
        served = spectral_radius(g, alpha)
        # Stepwise labels sort by descending degree; equal degrees are twins with equal entries.
        lifted = x_row[np.argsort(-np.array(g.creation_degrees()), kind="stable")]
        assert served.rho == rho_row, (g.text, alpha)
        assert served.residual == residual_row, (g.text, alpha)
        assert np.array_equal(served.perron, lifted), (g.text, alpha)
        assert not served.perron.flags.writeable, g.text


@pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(3, 5), Fraction(9, 10), Fraction(999, 1000)])
def test_one_graph_solve_matches_batch_row(alpha, cold_spectrum_cache):
    # Every threshold graph with n <= 12: connected, with isolated vertices,
    # edgeless, n = 1; whole-order tables up to n = 10, batches of one row above.
    for n in range(1, 13):
        assert_served_spectrum_is_batch_row(list(threshold_graphs(n)), alpha)


def test_one_graph_solve_matches_batch_row_at_large_n(cold_spectrum_cache):
    # The near-tie of S(61,63) and S~(61,63) at alpha = 99/100.
    assert_served_spectrum_is_batch_row([quasi_star(61, 63), tilde_s(61, 63)], Fraction(99, 100))


@pytest.mark.parametrize("alpha", [Fraction(0), HALF, Fraction(9, 10)])
def test_order_table_holds_the_connected_graphs(alpha, cold_spectrum_cache):
    # Each row of an order's table, n <= 10, is a connected graph, and equals
    # bit for bit its row of one ``family_spectra`` call on the whole order.
    for n in range(2, 11):
        rho, x, residual = spectra._order_table(n, alpha.numerator, alpha.denominator)
        graphs = [ThresholdGraph("I" + "".join("ID"[r >> j & 1] for j in range(n - 2)) + "D") for r in range(len(rho))]
        assert len(rho) == 2 ** (n - 2) and len({g.text for g in graphs}) == len(rho)
        assert all(len(to_labeled(g).components()) == 1 for g in graphs), n
        every = list(threshold_graphs(n))
        rows = [every.index(g) for g in graphs]
        want_rho, want_x, want_residual = family_spectra(np.array([[sym == "D" for sym in g.text] for g in every]), alpha)
        assert np.array_equal(rho, want_rho[rows]) and np.array_equal(residual, want_residual[rows]), n
        for g, row, got in zip(graphs, rows, x):
            assert np.array_equal(got, want_x[row][np.argsort(-np.array(g.creation_degrees()), kind="stable")]), g.text


def test_one_kernel_call_per_order(monkeypatch, cold_spectrum_cache):
    # Certifying every valid k = q+1 move of every connected n = 9 host reads
    # all spectra, before and after, from one solve of the order's 2^7
    # connected graphs.
    kernel, batches = spectra._family_rows, []

    def counted(dom, alpha):
        batches.append(dom.shape)
        return kernel(dom, alpha)

    monkeypatch.setattr(spectra, "_family_rows", counted)
    specs = [spec for kind in ("BASIC", "ROW", "COL") for spec in candidate_specs(9, kind, 1)]
    moves = [(g, spec) for g in threshold_graphs(9) if g.is_connected for spec in specs if validate(g, spec)]
    for g, spec in moves:
        certify(g, spec, Fraction(3, 5))
    assert len(moves) > 100
    assert batches == [(128, 9)]


def test_threshold_spectrum_cache_consistency():
    g = quasi_star(9, 20)
    s1 = spectral_radius(g, HALF)
    s2 = spectral_radius(g, Fraction(2, 4))
    assert s1 is s2  # exact rational key: 2/4 == 1/2
    assert spectra._threshold_spectrum(g.text, 1, 2) is s1  # a threshold graph's one-graph entry is its cached row


# ---------------------------------------------------------------------------
# Signless Laplacian quantities
# ---------------------------------------------------------------------------

def test_signless_laplacian_radius_examples():
    assert signless_laplacian_radius(complete_graph(6)) == pytest.approx(10.0, abs=1e-9)
    assert signless_laplacian_radius(quasi_star(10, 18)) >= 11.6
    assert signless_laplacian_radius(quasi_star(10, 19)) >= 11.75


def test_q_upper_bound_values():
    assert q_upper_bound(9, 8) == pytest.approx(9.0)
    assert q_upper_bound(6, 10) == pytest.approx(8.0)
    for n in (4, 9):
        assert q_upper_bound(n, n * (n - 1) // 2) == pytest.approx(2 * (n - 1))
    with pytest.raises(ValueError):
        q_upper_bound(1, 0)


def test_q_bound_holds_on_connected_threshold_graphs():
    for g in threshold_graphs(7):
        if not g.is_connected:
            continue
        q = signless_laplacian_radius(g)
        assert q <= q_upper_bound(7, g.m) + 1e-9


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_2n_minus_2_coefficients():
    for n in (6, 10, 37):
        mat = [[n, 2, n - 4], [2, 4, 0], [2, 0, 2]]
        assert char_poly(mat) == [1, -n - 6, 4 * n + 12, -24]


def test_char_poly_2n_minus_1_coefficients():
    for n in (6, 10, 55):
        mat = [[n, 1, 2, n - 5], [2, 4, 2, 0], [2, 1, 3, 0], [2, 0, 0, 2]]
        assert char_poly(mat) == [1, -n - 9, 7 * n + 28, -10 * n - 64, 72]


def test_char_poly_1x1_and_7x7():
    assert char_poly([[Fraction(7, 2)]]) == [1, Fraction(-7, 2)]
    assert char_poly(np.zeros((7, 7))) == [1] + [0] * 7


# ---------------------------------------------------------------------------
# Perron structure
# ---------------------------------------------------------------------------

def test_perron_order_check_quasi_star_6_9():
    g = to_labeled(quasi_star(6, 9))
    assert perron_order_check(g, HALF) == []
    x = spectral_radius(g, HALF).perron
    assert abs(x[0] - x[1]) <= 1e-9  # the two full vertices
    assert max(x[2:]) - min(x[2:]) <= 1e-9  # the degree-2 class


def test_perron_order_check_complete_and_star():
    for alpha in ALPHAS:
        assert perron_order_check(complete_graph(6), alpha) == []
        x = spectral_radius(complete_graph(6), alpha).perron
        assert np.ptp(x) <= 1e-9
    star = to_labeled(ThresholdGraph("IIIIID"))
    assert perron_order_check(star, HALF) == []
    x = spectral_radius(star, HALF).perron
    assert x[0] > max(x[1:]) + 1e-6  # center entry strictly largest


def test_perron_order_check_on_non_threshold_graph():
    p4 = LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert perron_order_check(p4, Fraction(0)) == []


def test_perron_order_check_rejects_disconnected():
    with pytest.raises(ValueError):
        perron_order_check(graph_union(complete_graph(2), complete_graph(2)), HALF)
