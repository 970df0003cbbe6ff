"""The reference checker accepts the program's output and flags each fault.

Run with ``python3 -m pytest bench`` from the repository root.  Records come
from the program itself at small sizes (clique band r = 3, n = 10; dominance
n = 4..5; rewirings n <= 6), then one field is broken at a time.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference  # noqa: E402
from launch import certificate_lines  # noqa: E402
from quasistar.search import threshold_dominance_report, verify_clique_band  # noqa: E402

ALPHAS = (Fraction(1, 2), Fraction(3, 4))
DOMINANCE_N = range(4, 6)
ADJ, SKIP = (Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)), (Fraction(1, 2), Fraction(3, 4))


def with_field(line: str, field: str, value: str) -> str:
    out = []
    for token in line.split(" "):
        parts = token.split(",")
        parts = [f"{field}={value}" if p.startswith(field + "=") else p for p in parts]
        out.append(",".join(parts))
    return " ".join(out)


@pytest.fixture(scope="module")
def band():
    return [r.record() for r in verify_clique_band(3, 10, ALPHAS)]


def check_band(lines):
    return reference.check_band(lines, 3, 10, ALPHAS)


@pytest.fixture(scope="module")
def dominance():
    keys = reference.dominance_keys(DOMINANCE_N, ALPHAS)
    return [threshold_dominance_report(n, m, a).record() for n, m, a in keys]


def check_dominance(lines):
    return reference.check_dominance(lines, DOMINANCE_N, ALPHAS)


@pytest.fixture(scope="module")
def rewire():
    return certificate_lines(6, ADJ, SKIP), reference.rewire_expected(6, ADJ, SKIP)


def test_program_output_passes(band, dominance, rewire):
    assert check_band(band) == []
    assert check_dominance(dominance) == []
    lines, expected = rewire
    assert len(lines) == len(expected) > 0
    assert reference.check_certificates(lines, expected) == []


def test_connected_class_counts_match_oeis_a001349():
    counts = [sum(len(c) for c in reference.connected_classes(n).values()) for n in range(1, 8)]
    assert counts == [1, 1, 2, 6, 21, 112, 853]


def test_perturbed_rho_is_flagged(band, dominance):
    rho = reference.parse_record(band[3])["rho"]
    broken = band[:3] + [with_field(band[3], "rho", repr(rho + 2e-9))] + band[4:]
    assert any("rho" in p for p in check_band(broken))
    rho = reference.parse_record(dominance[5])["rho"]
    broken = dominance[:5] + [with_field(dominance[5], "rho", repr(rho - 2e-9))] + dominance[6:]
    assert any("rho" in p for p in check_dominance(broken))


def test_missing_maximizer_is_flagged(band):
    # the S ~ S~ tie at alpha = 1/2 (m = 20 for r = 3, n = 10): drop one of the pair
    tie = next(i for i, line in enumerate(band) if len(reference.parse_record(line)["maximizers"]) == 2)
    pair = reference.parse_record(band[tie])["maximizers"]
    broken = band[:tie] + [with_field(band[tie], "maximizers", pair[0])] + band[tie + 1 :]
    problems = check_band(broken)
    assert any("maximizers" in p and "reference" in p for p in problems)
    assert any("predicted" in p for p in problems)


def test_swapped_maximizer_is_flagged(band, dominance):
    rec = reference.parse_record(band[0])
    other = next(s for s in reference.connected_creations(rec["n"], rec["m"]) if s not in rec["maximizers"])
    broken = [with_field(band[0], "maximizers", other)] + band[1:]
    assert any("maximizers" in p for p in check_band(broken))
    # dominance: swap in another connected class with the same (n, m)
    idx = next(i for i, line in enumerate(dominance) if line.startswith("family=H,n=5,m=6,alpha=3/4 "))
    rec = reference.parse_record(dominance[idx])
    n, m = rec["n"], rec["m"]
    target = reference.canonical([reference.edge_key_code(rec["maximizers"][0], n)], n)[0]
    code = next(c for c in reference.connected_classes(n)[m] if c != target)
    adj = reference.code_adjacency(code, n)
    key = ".".join(f"{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n) if adj[i, j])
    broken = dominance[:idx] + [with_field(dominance[idx], "maximizers", key)] + dominance[idx + 1 :]
    assert any("maximizers" in p for p in check_dominance(broken))


def test_dropped_record_is_flagged(band, dominance, rewire):
    assert any("missing" in p for p in check_band(band[:7] + band[8:]))
    assert any("missing" in p for p in check_dominance(dominance[:-1]))
    lines, expected = rewire
    assert any("missing" in p for p in reference.check_certificates(lines[1:], expected))


def test_non_threshold_maximizer_is_flagged(dominance):
    # n = 4, m = 4: the 4-cycle 12.14.23.34 is connected but contains an induced C_4
    idx = next(i for i, line in enumerate(dominance) if line.startswith("family=H,n=4,m=4,alpha=1/2 "))
    broken = dominance[:idx] + [with_field(dominance[idx], "maximizers", "12.14.23.34")] + dominance[idx + 1 :]
    assert any("not a threshold graph" in p for p in check_dominance(broken))


def test_certificate_faults_are_flagged(rewire):
    lines, expected = rewire
    fields = lines[0].split("|")

    def broken(index, value):
        f = list(fields)
        f[index] = value
        return reference.check_certificates(["|".join(f)] + lines[1:], expected)

    assert any("radii" in p for p in broken(4, repr(float(fields[4]) + 1e-7)))
    assert any("residual" in p for p in broken(7, "1e-6"))
    assert any("equality" in p for p in broken(6, "1" if fields[6] == "0" else "0"))
