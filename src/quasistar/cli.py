"""Command-line front end.

Verbs: ``construct``, ``rho``, ``transform``, ``enumerate``, ``verify``.
Graph arguments are auto-detected: a string over {I, D} is read as a
creation sequence, anything else as the path of an edge-list file (first
line ``n m``, then one ``u v`` pair per line, 1-indexed, u < v); a file
whose name is over {I, D} is read as ``./did``.
``rho`` solves a sequence by the threshold kernel and a file by the dense
path, even when the file's graph is threshold (``spectral_radius`` picks).
alpha arguments are exact rationals, e.g. ``1/2`` or ``0.75``.
``verify``'s targets are the rows of ``search.CLAIMS``: a row gives the
target's default ``--n`` and ``--alpha``, whether it takes ``--r``, and
whether its alpha is fixed at 1/2, so that it refuses ``--alpha``.

Verification reports are emitted one record per line in a fixed field order::

    family=H,n=6,m=8,alpha=1/2 rho=<...> maximizers=<seq;seq> tie_gap=<...> ok=1

and the exit code is 0 when every record verified, 1 on a mismatch, 2 on a
usage error (a sweep that selects no family is one, and so is an option that
its ``verify`` target does not read), 3 on numerical
non-convergence, and 141 (128 + SIGPIPE) when the reader closes stdout
before the output ends, as ``| head`` does; no process-wide SIGPIPE handler
is installed, since ``main`` may run inside a caller's process.  All output
is produced by a single writer after the scan has finished, so repeated runs
are byte-identical.  ``--threads`` is accepted and ignored: scans run on one
thread, which measured faster than a GIL-bound thread pool.  BLAS runs on
one thread too, unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set, because the solves are too small for a BLAS
thread pool to help.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .graphs import (
    NotThresholdError,
    ThresholdGraph,
    format_edge_list,
    from_degree_sequence,
    parse_edge_list,
    quasi_star,
    l_graph,
    threshold_from_labeled,
    tilde_s,
    to_labeled,
)
from .search import (
    ALL,
    CLAIMS,
    THRESHOLD,
    FamilySpec,
    edge_key,
    enumerate_all,
    enumerate_threshold,
    verify,
)
from .spectra import NonConvergenceError, as_alpha, spectral_radius
from .transforms import (
    InvalidTransformError,
    TransformSpec,
    apply_transform,
    certify,
)

USAGE_ERROR = 2
NONCONVERGENCE = 3
BROKEN_PIPE = 141
_BANDED = ", ".join(target for target, claim in CLAIMS.items() if claim.least_r is not None)  # the targets with --r


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_graph(text: str):
    """Creation sequence when the token is over {I, D}; edge-list file else."""
    token = text.strip()
    if token and set(token.upper()) <= {"I", "D"}:
        try:
            return ThresholdGraph(token.upper())
        except ValueError as exc:
            raise ValueError(f"{token!r} was read as a creation sequence: {exc}; "
                             f"to read an edge-list file of that name, write ./{token}") from None
    return parse_edge_list(Path(token).read_text())


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty range {text!r}")
        return values
    return [int(text)]


def _parse_alphas(text: str):
    """Distinct alphas in first-seen order: ``1/2,0.5`` is one value."""
    return list(dict.fromkeys(as_alpha(tok) for tok in text.split(",") if tok.strip()))


def _emit_graph(g: ThresholdGraph) -> None:
    print(f"creation={g.text}")
    print(format_edge_list(to_labeled(g)))


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------

def _cmd_construct(args) -> int:
    kind = args.kind
    if kind in ("quasi-star", "l-graph", "tilde-s"):
        if len(args.params) != 2:
            raise ValueError(f"construct {kind} needs n and m")
        n, m = (int(x) for x in args.params)
        builder = {"quasi-star": quasi_star, "l-graph": l_graph, "tilde-s": tilde_s}[kind]
        _emit_graph(builder(n, m))
    elif kind == "from-seq":
        if len(args.params) != 1:
            raise ValueError("construct from-seq needs one creation sequence")
        _emit_graph(ThresholdGraph(args.params[0].strip().upper()))
    elif kind == "from-degseq":
        if not args.params:
            raise ValueError("construct from-degseq needs a degree list such as 5,5,2,2,2,2")
        text = ",".join(args.params)
        degrees = [int(tok) for tok in text.replace(",", " ").split()]
        _emit_graph(from_degree_sequence(degrees))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown construct kind {kind!r}")
    return 0


def _cmd_rho(args) -> int:
    spec = spectral_radius(_parse_graph(args.graph), as_alpha(args.alpha))
    print(f"rho={_fmt(spec.rho)}")
    print(f"q={_fmt(2.0 * spec.rho)}")
    print(f"residual={_fmt(spec.residual)}")
    print("perron=" + " ".join(_fmt(v) for v in spec.perron))
    return 0


def _cmd_transform(args) -> int:
    g = g if isinstance(g := _parse_graph(args.graph), ThresholdGraph) else threshold_from_labeled(g)
    spec = TransformSpec.parse(args.spec)
    alpha = None if args.alpha is None else as_alpha(args.alpha)
    after = apply_transform(g, spec)
    cert = None if alpha is None else certify(g, spec, alpha)
    print(f"valid={spec.text}")
    _emit_graph(after)
    if cert is None:
        return 0
    print(f"rho_before={_fmt(cert.rho_before)}")
    print(f"rho_after={_fmt(cert.rho_after)}")
    print(f"covered={int(cert.covered)} rule={cert.rule}")
    predicted = "-" if cert.predicted_equality is None else int(cert.predicted_equality)
    print(f"predicted_equality={predicted}")
    print(f"observed_equality={int(cert.observed_equality)}")
    print(f"residual_eq1={_fmt(cert.residual_eq1)}")
    print(f"residual_eq2={_fmt(cert.residual_eq2)}")
    return 0


def _cmd_enumerate(args) -> int:
    universe = THRESHOLD if args.universe == "threshold" else ALL
    family = FamilySpec(args.n, args.m, connected_only=args.connected, universe=universe)
    if universe == THRESHOLD:
        for g in enumerate_threshold(family):
            print(g.text)
    else:
        for g in enumerate_all(family):
            print(edge_key(g))
    return 0


def _cmd_verify(args) -> int:
    claim = CLAIMS[args.target]
    if args.r is not None and claim.least_r is None:
        raise ValueError(f"verify {args.target} takes no --r; only {_BANDED} has a band parameter")
    if args.alpha is not None and claim.alphas is None:
        raise ValueError(f"verify {args.target} checks alpha = 1/2 only and takes no --alpha")
    if args.r is None and claim.least_r is not None:
        raise ValueError(f"verify {args.target} needs --r")
    n_values, alphas = _parse_range(args.n or claim.n), _parse_alphas(args.alpha or claim.alphas or "1/2")
    reports = verify(args.target, n_values, alphas, args.r)
    if not reports:
        raise ValueError(f"verify {args.target}: the sweep selects no family, nothing was checked")

    ok = True
    for report in reports:
        if args.format == "structured":
            print(report.record())
        else:
            status = "ok" if report.matches_theorem else "MISMATCH"
            print(
                f"{report.family.label}({report.family.n},{report.family.m}) "
                f"alpha={report.alpha}: maximizers {{{';'.join(report.maximizer_set)}}} "
                f"rho={report.rho_max:.12g} [{status}]"
            )
            for warning in report.warnings:
                print(f"  warning: {warning}")
        ok = ok and bool(report.matches_theorem)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasistar",
        description="Threshold-graph spectral extremal toolkit",
    )
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output style for verification reports",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility and ignored; scans run on one thread",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build a named graph and print it")
    p.add_argument("kind", choices=("quasi-star", "l-graph", "tilde-s", "from-seq", "from-degseq"))
    p.add_argument("params", nargs="*")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("rho", help="spectral radius of alpha*D + (1-alpha)*A")
    p.add_argument("graph", help="creation sequence or edge-list file")
    p.add_argument("alpha", help="exact rational alpha in [0,1), e.g. 1/2")
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("transform", help="validate/apply a rewiring, optionally certify")
    p.add_argument("graph")
    p.add_argument("spec", help="'BASIC p q h k' or 'ROW|COL p q h k l'")
    p.add_argument("--alpha", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("enumerate", help="list a graph family")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--universe", choices=("threshold", "all"), default="threshold")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run an extremal verification sweep")
    p.add_argument("target", choices=tuple(CLAIMS))
    p.add_argument("--n", default=None, help="order or range, e.g. 6..12")
    p.add_argument("--alpha", default=None, help="comma list, e.g. 1/2,3/4; not for "
                   + ", ".join(target for target, claim in CLAIMS.items() if claim.alphas is None))
    p.add_argument("--r", type=int, default=None, help=f"band parameter; {_BANDED} only")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles help/usage itself
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's last flush stays quiet
        # (the "Note on SIGPIPE" in Python's ``signal`` documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NONCONVERGENCE
    except (ValueError, NotThresholdError, InvalidTransformError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
