"""Child process of the benchmark: import the checkout's quasistar and run one job.

    python3 bench/launch.py [--trace] probe
    python3 bench/launch.py [--trace] cli <quasistar arguments...>
    python3 bench/launch.py [--trace] rewire <max_n> <alphas k=q+1> <alphas k=q+2>

``cli`` does what the ``quasistar`` console script does: import
``quasistar.cli`` and call ``cli.main(argv)``.  ``rewire`` certifies every
valid rewiring of every connected threshold host with 4 <= n <= max_n: the
k = q+1 BASIC/ROW/COL moves at the first comma list of alphas and the strict
BASIC k = q+2, p > h+1 moves at the second.  ``probe`` only imports.

The checkout's ``src`` goes first on ``sys.path``, and the run is refused
(exit 4) if ``quasistar`` still resolves elsewhere.  The last stderr line is
``PERFBENCH-CHILD <json>``: the CLOCK_MONOTONIC time at which the package was
imported and ready and, with ``--trace``, the per-module summary.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_TAG = "PERFBENCH-CHILD"
REFUSED = 4


def certificate_lines(max_n: int, adjacent_alphas, skip_alphas) -> list[str]:
    """Certify every valid rewiring; one ``|``-separated line per certificate.

    Functions are looked up on their modules at call time so that a traced
    run sees the wrapped versions.
    """
    from quasistar import search, transforms

    out = []
    for n in range(4, max_n + 1):
        adjacent = [s for kind in ("BASIC", "ROW", "COL") for s in transforms.candidate_specs(n, kind, 1)]
        skip = [s for s in transforms.candidate_specs(n, "BASIC", 2) if s.p > s.h + 1]
        for m in range(n - 1, n * (n - 1) // 2 + 1):
            for host in search.enumerate_threshold(search.FamilySpec(n, m)):
                for specs, alphas in ((adjacent, adjacent_alphas), (skip, skip_alphas)):
                    for spec in specs:
                        if not transforms.validate(host, spec):
                            continue
                        for alpha in alphas:
                            c = transforms.certify(host, spec, alpha)
                            out.append(
                                f"{host.text}|{spec.text}|{alpha}|{float(c.rho_before)!r}|{float(c.rho_after)!r}|"
                                f"{int(bool(c.predicted_equality))}|{int(c.observed_equality)}|"
                                f"{float(c.residual_eq1)!r}|{float(c.residual_eq2)!r}|{int(c.covered)}"
                            )
    return out


def main(argv: list[str]) -> int:
    traced = bool(argv) and argv[0] == "--trace"
    if traced:
        argv = argv[1:]
    if not argv or argv[0] not in ("probe", "cli", "rewire"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, args = argv[0], argv[1:]

    sys.path.insert(0, str(SRC))
    import quasistar.cli

    location = Path(quasistar.__file__).resolve()
    if SRC.resolve() not in location.parents:
        print(f"refusing to run: quasistar imported from {location}, not from {SRC}", file=sys.stderr)
        return REFUSED
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = stdout = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        stdout = tracing.install(tracer, emit=mode == "cli")

    code = 0
    if mode == "cli":
        code = quasistar.cli.main(args)
    elif mode == "rewire":
        alphas = ([Fraction(a) for a in text.split(",")] for text in args[1:3])
        sys.stdout.write("".join(line + "\n" for line in certificate_lines(int(args[0]), *alphas)))
    sys.stdout.flush()

    report = {"ready": ready, "quasistar": str(location)}
    if tracer is not None:
        report["trace"] = tracing.summary(tracer, stdout)
    print(f"{REPORT_TAG} {json.dumps(report)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
