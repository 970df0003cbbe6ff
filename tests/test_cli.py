"""Command-line behavior: verbs, auto-detection, records, exit codes."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasistar
from quasistar.cli import main
from quasistar.graphs import ThresholdGraph, format_edge_list, l_graph, quasi_star, to_labeled
from quasistar.search import CLAIMS
from quasistar.spectra import spectral_radius, threshold_spectrum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def test_construct_quasi_star(capsys):
    code, out, err = run(capsys, "construct", "quasi-star", "6", "10")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "creation=IDIIDD"
    assert lines[1] == "6 10"
    assert "3 4" in lines  # the extra edge of the K_{1,1} part


def test_construct_tilde_s_undefined_is_usage_error(capsys):
    code, out, err = run(capsys, "construct", "tilde-s", "7", "8")
    assert code == 2 and out == ""
    assert "undefined" in err


def test_construct_from_seq(capsys):
    code, out, _ = run(capsys, "construct", "from-seq", "IDDDDI")
    assert code == 0
    assert out.splitlines()[1] == "6 10"


def test_construct_from_degseq(capsys):
    code, out, _ = run(capsys, "construct", "from-degseq", "5,5,2,2,2,2")
    assert code == 0
    assert out.splitlines()[0] == "creation=" + quasi_star(6, 9).text


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def test_rho_complete_component(capsys):
    code, out, _ = run(capsys, "rho", "IDDDDI", "1/2")
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert float(fields["rho"]) == pytest.approx(4.0, abs=1e-9)
    assert float(fields["q"]) == pytest.approx(8.0, abs=1e-9)
    assert float(fields["residual"]) <= 1e-10


def test_rho_star_adjacency(capsys):
    code, out, _ = run(capsys, "rho", "IIIID", "0")
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert code == 0 and float(fields["rho"]) == pytest.approx(2.0, abs=1e-9)


def test_rho_lower_bound_on_2n_minus_2(capsys):
    code, out, _ = run(capsys, "rho", quasi_star(10, 18).text, "1/2")
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert code == 0 and float(fields["q"]) >= 11.6


def rho_fields(spec):
    """The lines ``rho`` prints for a Spectrum, each value as ``%.17g``."""
    return {
        "rho": f"{spec.rho:.17g}",
        "q": f"{2.0 * spec.rho:.17g}",
        "residual": f"{spec.residual:.17g}",
        "perron": " ".join(f"{v:.17g}" for v in spec.perron),
    }


def test_rho_edge_list_file(tmp_path, capsys):
    # A file is solved by the dense path, even when its graph is threshold.
    lab = to_labeled(quasi_star(6, 10))
    path = tmp_path / "graph.txt"
    path.write_text(format_edge_list(lab))
    code, out, _ = run(capsys, "rho", str(path), "3/4")
    assert code == 0
    assert dict(line.split("=", 1) for line in out.splitlines()) == rho_fields(spectral_radius(lab, "3/4"))


@pytest.mark.parametrize("alpha", ["0", "1/2", "3/5", "999/1000"])
def test_rho_of_a_creation_sequence_is_the_threshold_kernel_row(capsys, alpha):
    # Every threshold graph with n <= 7, connected or not: one radius and one
    # Perron vector per graph, whichever entry point asks.
    texts = ["I" + "".join(tail) for n in range(1, 8) for tail in itertools.product("ID", repeat=n - 1)]
    assert len(texts) == 127
    for text in texts:
        code, out, _ = run(capsys, "rho", text, alpha)
        assert code == 0, text
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert fields == rho_fields(threshold_spectrum(ThresholdGraph(text), alpha)), (text, alpha)


def test_rho_prints_the_radius_that_verify_reports(capsys):
    code, out, _ = run(capsys, "--format", "structured", "verify", "t41", "--n", "7", "--alpha", "3/5")
    assert code == 0
    records = [dict(field.split("=", 1) for field in line.split()[1:]) for line in out.splitlines()]
    assert len(records) == 7
    for record in records:
        for maximizer in record["maximizers"].split(";"):
            assert run(capsys, "rho", maximizer, "3/5")[1].splitlines()[0] == "rho=" + record["rho"], maximizer
    assert run(capsys, "rho", "IIDIIIIID", "3/5")[1].splitlines()[0] == "rho=5.1294215576590636"


def test_rho_bad_alpha(capsys):
    code, _, err = run(capsys, "rho", "IDD", "3/2")
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("alpha", ["1/0", "0.99999999999999999999", "0.50000000000000000001"])
@pytest.mark.parametrize("argv", [("rho", "IDD"), ("verify", "t41", "--n", "5", "--alpha"),
                                  ("transform", "IDDDIID", "ROW 7 2 5 3 1", "--alpha")])
def test_unusable_alpha_is_usage_error(capsys, argv, alpha):
    # 1/0 has no value; the long decimals are not 1 and 1/2 but their floats are.
    # A valid move must not print the rewired graph before its alpha fails.
    code, out, err = run(capsys, *argv, alpha)
    assert code == 2 and out == ""
    assert err.startswith("error:") and any(s in err for s in ("zero denominator", "rounds to 1.0", "not 1/2"))


EDGE_LIST_ERRORS = {
    "3\n1 2\n": "edge-list header must be 'n m', got '3'",
    "3 1\n1 2 3\n": "bad edge line '1 2 3'",
    "0 0\n": "need at least one vertex",
    "3 1\n1 5\n": "edge (1,5) out of range 1..3",
}


@pytest.mark.parametrize("argv, message", [
    *((("rho", text, "1/2"), message) for text, message in EDGE_LIST_ERRORS.items()),
    (("verify", "t41", "--n", "5..3"), "empty range '5..3'"),
    (("construct", "quasi-star", "5"), "construct quasi-star needs n and m"),
    (("construct", "from-seq"), "construct from-seq needs one creation sequence"),
    (("construct", "from-degseq"), "construct from-degseq needs a degree list such as 5,5,2,2,2,2"),
    (("construct", "from-degseq", ","), "degree sequence must be non-empty"),
    (("verify", "t41", "--n", "3"), "sparse-band verification needs n >= 4"),
    (("verify", "t12", "--n", "3"), "needs n >= 4 so that m = 2n-2 is feasible"),
    (("verify", "t42", "--r", "2", "--n", "10"), "band verification needs r >= 3"),
    (("transform", "IDD", ""), "empty rewiring spec"),
    (("enumerate", "8", "3", "--universe", "all"), "exhaustive isomorphism-free enumeration is limited to n <= 7"),
    (("verify", "lemma24", "--n", "8"), "exhaustive isomorphism-free enumeration is limited to n <= 7"),
])
def test_unusable_input_is_usage_error(capsys, monkeypatch, tmp_path, argv, message):
    # A rho case names an edge-list file holding the text in its graph slot.
    monkeypatch.chdir(tmp_path)
    if argv[0] == "rho":
        Path("g.txt").write_text(argv[1])
        argv = ("rho", "g.txt", *argv[2:])
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_rho_bad_graph_token(capsys):
    code, _, err = run(capsys, "rho", "no-such-file.txt", "1/2")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv", [["rho", "1/2"], ["transform", "ROW 7 2 5 3 1"]])
def test_file_named_like_a_sequence_is_read_by_its_dot_path(capsys, monkeypatch, tmp_path, argv):
    # "did" is over {I, D}, so it is read as a creation sequence and fails as
    # one; the error says so and that "./did" reads the edge-list file.
    monkeypatch.chdir(tmp_path)
    Path("did").write_text(format_edge_list(to_labeled(l_graph(7, 12))))
    verb, rest = argv[0], argv[1:]
    code, out, err = run(capsys, verb, "did", *rest)
    assert code == 2 and out == ""
    assert err == ("error: 'did' was read as a creation sequence: first creation symbol must be ISOLATED; "
                   "to read an edge-list file of that name, write ./did\n")
    code, out, err = run(capsys, verb, "./did", *rest)
    assert code == 0 and err == ""
    if verb != "rho":  # a threshold file is canonicalized, so it prints what its sequence prints
        assert out == run(capsys, verb, l_graph(7, 12).text, *rest)[1]


def test_nonconvergence_maps_to_exit_3(capsys, monkeypatch, tmp_path, cold_spectrum_cache):
    # Each kernel really runs under an eigh whose eigenvalues are off by 1e-6,
    # and its own residual certificate fails: the threshold kernel on a
    # creation sequence, the dense path on an edge-list file.
    path = tmp_path / "graph.txt"
    path.write_text(format_edge_list(to_labeled(quasi_star(6, 10))))
    exact = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: (exact(mat)[0] + 1e-6, exact(mat)[1]))
    for graph in (quasi_star(6, 10).text, str(path)):
        code, out, err = run(capsys, "rho", graph, "1/2")
        assert code == 3 and out == "", graph
        assert err.startswith("error:") and "did not converge" in err, graph


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_row_instance(capsys):
    host = "IDDDIID"  # L(7,12)
    code, out, _ = run(capsys, "transform", host, "ROW 7 2 5 3 1", "--alpha", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "valid=ROW 7 2 5 3 1"
    assert lines[1] == "creation=" + quasi_star(7, 12).text
    fields = dict(line.split("=", 1) for line in lines if "=" in line and " " not in line.split("=")[0])
    assert fields["predicted_equality"] == "0"
    assert fields["observed_equality"] == "0"
    assert float(fields["residual_eq1"]) <= 1e-8


@pytest.mark.parametrize("graph, spec, reason", [
    pytest.param("IIIIID", "BASIC 5 2 4 3", "(iii): a[3,4] = 0, a removed cell is not an edge", id="removed-not-edge"),
    pytest.param("IDDDDD", "BASIC 6 2 4 3", "(ii): a[2,6] = 1, a filled cell is not vacant", id="filled-not-vacant"),
    pytest.param("IDDIID", "BASIC 6 2 4 3", "row 2 is not stepwise after the move", id="row-not-stepwise"),
])
def test_transform_invalid_is_diagnosed(capsys, graph, spec, reason):
    code, out, err = run(capsys, "transform", graph, spec, "--alpha", "1/2")
    assert (code, out, err) == (2, "", f"error: invalid BASIC rewiring: {reason}\n")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_threshold_contains_quasi_star(capsys):
    code, out, _ = run(capsys, "enumerate", "6", "10", "--connected")
    assert code == 0
    assert quasi_star(6, 10).text in out.splitlines()


def test_enumerate_all_universe(capsys):
    code, out, _ = run(capsys, "enumerate", "4", "3", "--connected", "--universe", "all")
    assert code == 0 and len(out.splitlines()) == 2


def test_enumerate_infeasible(capsys):
    code, _, err = run(capsys, "enumerate", "6", "16")
    assert code == 2 and "infeasible" in err


def test_enumerate_family_too_large_to_walk_is_usage_error(capsys):
    # About 2^69 members: refused up front, not streamed without end.
    code, out, err = run(capsys, "enumerate", "80", "1600", "--connected")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "too many to walk" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_sparse_band_structured(capsys):
    code, out, err = run(
        capsys, "--format", "structured", "verify", "t41", "--n", "6..8", "--alpha", "1/2,3/4"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == (6 + 7 + 8) * 2
    assert all(line.endswith("ok=1") for line in lines)
    tie_lines = [ln for ln in lines if ";" in ln.split("maximizers=")[1].split()[0]]
    assert all(",alpha=1/2 " in ln for ln in tie_lines)


def test_verify_all_graphs_record_names_the_n6_exception(capsys):
    code, out, _ = run(capsys, "--format", "structured", "verify", "t12", "--n", "4..8")
    assert code == 0
    at6 = [ln for ln in out.splitlines() if ",n=6," in ln][0]
    assert "maximizers=IDDDDI" in at6 and at6.startswith("family=G,")


def test_verify_band_smoke(capsys):
    code, out, _ = run(
        capsys, "--format", "structured", "--threads", "2", "verify", "t42",
        "--r", "3", "--n", "12", "--alpha", "1/2",
    )
    # n = 24 is criterion 3's scan; the smoke runs the same path at n = 12
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    exception_rows = [ln for ln in lines if ";" in ln.split("maximizers=")[1].split()[0]]
    assert len(exception_rows) == 1 and ",m=24," in exception_rows[0]


def test_verify_band_at_order_80(capsys):
    # Subset-sum counts of order 80 exceed int64; the band's two families have one member each.
    code, out, err = run(capsys, "--format", "structured", "verify", "t42", "--r", "78", "--n", "80", "--alpha", "1/2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["family=H,n=80,m=3158,alpha=1/2", "family=H,n=80,m=3159,alpha=1/2"]
    assert all(line.endswith("tie_gap=inf ok=1") for line in lines)


def test_verify_lemma24_exit_code(capsys):
    code, out, _ = run(
        capsys, "--format", "structured", "verify", "lemma24", "--n", "4..5", "--alpha", "0,1/2"
    )
    assert code == 0
    assert all(line.endswith("ok=1") for line in out.splitlines())


@pytest.mark.parametrize("alphas", ["1/2,1/2", "1/2,0.5"])
def test_verify_repeated_alpha_is_checked_once(capsys, alphas):
    code, out, _ = run(capsys, "--format", "structured", "verify", "t41", "--n", "5", "--alpha", alphas)
    assert code == 0
    assert out == run(capsys, "--format", "structured", "verify", "t41", "--n", "5", "--alpha", "1/2")[1]
    assert len(out.splitlines()) == 5


def test_verify_usage_error(capsys):
    code, _, err = run(capsys, "verify", "t42", "--n", "24")
    assert code == 2 and "--r" in err


@pytest.mark.parametrize("argv", [
    ("verify", "t42", "--r", "3", "--n", "3"),  # the band has no edge count at n = 3
    ("verify", "t41", "--n", "6", "--alpha", ","),
    ("verify", "lemma24", "--n", "4", "--alpha", ","),
])
def test_verify_empty_sweep_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "selects no family" in err


@pytest.mark.parametrize("argv", [
    *(("verify", target, "--n", "5", "--r", "3") for target, claim in CLAIMS.items() if claim.least_r is None),
    *(("verify", target, "--n", "5", "--alpha", "3/4") for target, claim in CLAIMS.items() if claim.alphas is None),
    *(("verify", target, "--n", "24") for target, claim in CLAIMS.items() if claim.least_r is not None),
])
def test_verify_refuses_an_option_its_target_does_not_read(capsys, argv):
    # Each row's option rules: no r refuses --r, a fixed alpha refuses --alpha, and an r is required.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert ("--alpha" if "--alpha" in argv else "--r") in err


# Per target: the options a run needs, and its default --n and --alpha spelled out.
DEFAULT_RUNS = {
    "t41": ((), ("--n", "4..12", "--alpha", "1/2,3/4")),
    "t12": ((), ("--n", "4..16")),
    "t42": (("--r", "3"), ("--n", "24", "--alpha", "1/2,3/4")),
    "lemma24": ((), ("--n", "4..7", "--alpha", "0,1/2,3/4")),
}


@pytest.mark.parametrize("target", list(CLAIMS))
def test_verify_defaults_come_from_the_claim_row(capsys, target):
    needed, defaults = DEFAULT_RUNS[target]
    code, out, err = run(capsys, "--format", "structured", "verify", target, *needed)
    assert code == 0 and err == "" and out
    assert run(capsys, "--format", "structured", "verify", target, *needed, *defaults) == (code, out, err)


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def test_output_is_byte_identical_across_runs_and_threads():
    def record_run(threads):
        args = [sys.executable, "-m", "quasistar.cli", "--format", "structured",
                "--threads", str(threads), "verify", "t41", "--n", "6..7", "--alpha", "1/2"]
        # The child imports the same checkout as this test, not an installed copy.
        env = dict(os.environ, PYTHONPATH=str(Path(quasistar.__file__).parents[1]))
        return subprocess.run(args, capture_output=True, check=True, env=env).stdout

    first = record_run(1)
    second = record_run(1)
    threaded = record_run(3)
    assert first == second == threaded
    assert first.count(b"\n") == 13


def test_closed_stdout_exits_141_quietly():
    # The family prints 2.8 MB; the reader takes one line and closes the pipe, as ``| head -1`` does.
    args = [sys.executable, "-m", "quasistar.cli", "enumerate", "30", "120", "--connected"]
    env = dict(os.environ, PYTHONPATH=str(Path(quasistar.__file__).parents[1]))
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first == b"IIIIIIIIIIDIIIIIIIIIIIIIIIDDDD\n"
    assert code == 141 and err == b""


# sha256 of the structured stdout of each sweep.  A change that keeps every
# verdict, radius and tie gap bit for bit keeps these digests.
PINNED_VERIFY_DIGESTS = {
    "t42 --r 3 --n 20 --alpha 1/2": "d364e167ffde8392b1f0919f33296cf696e573a62c49ad8899ca80d1b7ddfb71",
    "lemma24 --n 4..7 --alpha 0,1/2,3/4": "549ce3d1a8598fa95e2878d067a4fd84adc1df4ff67219b1948d4df07ac5c64d",
    "t41 --n 4..12": "696c7652ccf564632101766d681b083c2ba75034f57a5f5c4822b5a5129d03f9",
    "t12 --n 4..16": "79f777e9b63af8b060995867e424ca9610c63709b6a4b648d3c2fbeefd0a0cde",
}


@pytest.mark.parametrize("sweep", sorted(PINNED_VERIFY_DIGESTS))
def test_verify_stdout_matches_pinned_digest(capsys, sweep):
    code, out, err = run(capsys, "--format", "structured", "--threads", "1", "verify", *sweep.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_DIGESTS[sweep]


# sha256 of the default text stdout, the output users get and the only one that
# prints warnings: every t42 record at n = 22 is followed by its outside-hypothesis line.
PINNED_TEXT_DIGESTS = {
    "t42 --r 3 --n 22 --alpha 1/2,3/4": ("84311f81dd591c506cc605a8995b29e7ce268d0d190460f4c985b4b52f2c1bbe", 76),
    "t41 --n 4..8": ("2ee23de2464db354c4fb5bdcdf4ca7aa0fa76205fef395c29472ed6db9c48441", 60),
}


@pytest.mark.parametrize("sweep", sorted(PINNED_TEXT_DIGESTS))
def test_verify_text_stdout_matches_pinned_digest(capsys, sweep):
    code, out, err = run(capsys, "verify", *sweep.split())
    assert code == 0 and err == ""
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == PINNED_TEXT_DIGESTS[sweep]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
