"""Verifier benchmark: one closed-loop client, one fresh process per operation.

    python3 bench/run.py --workload band|rewire|dominance --seed N --seconds S --trace 0|1

Each operation is a new ``bench/launch.py`` process with the checkout's
``src`` first on its import path, because the program's spectrum, labeling
and graph-class caches live for the whole process and a CLI user pays them
cold on every invocation.  Operations run one at a time, in whole rounds,
until ``--seconds`` have passed.  With ``--trace 1`` a round is one untraced
and one traced operation, and the result holds the per-module metrics.

Outputs are checked outside the timed region against ``reference.py``, which
imports nothing from ``quasistar``.  Inputs are exhaustive families, so the
seed changes nothing and is only recorded.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation
is one verdict: a structured record or a rewiring certificate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference
from launch import REPORT_TAG

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"

SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 150.0
CHECK_RESERVE_S = 20.0  # checks, reference and the default --threads rerun after the timed loop
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
)

BAND_R, BAND_N, BAND_ALPHAS = 3, 20, (Fraction(1, 2),)
DOMINANCE_N, DOMINANCE_ALPHAS = range(4, 8), (Fraction(0), Fraction(1, 2), Fraction(3, 4))
REWIRE_MAX_N = 10
REWIRE_ADJACENT_ALPHAS = (Fraction(1, 2), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10))
REWIRE_SKIP_ALPHAS = (Fraction(1, 2), Fraction(3, 4))


def _alphas(alphas) -> str:
    return ",".join(str(a) for a in alphas)


def _band():
    keys = reference.band_keys(BAND_R, BAND_N, BAND_ALPHAS)
    graphs = reference.band_graph_count(BAND_R, BAND_N, BAND_ALPHAS)
    return len(keys), graphs, lambda lines: reference.check_band(lines, BAND_R, BAND_N, BAND_ALPHAS)


def _dominance():
    keys = reference.dominance_keys(DOMINANCE_N, DOMINANCE_ALPHAS)
    graphs = reference.dominance_graph_count(DOMINANCE_N, DOMINANCE_ALPHAS)
    return len(keys), graphs, lambda lines: reference.check_dominance(lines, DOMINANCE_N, DOMINANCE_ALPHAS)


def _rewire():
    certs = reference.rewire_expected(REWIRE_MAX_N, REWIRE_ADJACENT_ALPHAS, REWIRE_SKIP_ALPHAS)
    return len(certs), 2 * len(certs), lambda lines: reference.check_certificates(lines, certs)


@dataclass
class Workload:
    #: launcher arguments of one operation
    args: list[str]
    #: () -> (verdicts per operation, radii per operation, check(lines) -> problems)
    expected: Callable
    #: launcher arguments of the same CLI call at the default --threads, whose
    #: stdout must match byte for byte
    default_threads: list[str] | None = None


# Timed CLI calls pass --threads 1.  At the default (os.cpu_count() = 2 here)
# the scan keeps both vCPUs busy and the hypervisor steals up to 30% of the
# child, so run-to-run spreads reach 25-49%; with one thread they stay near 10%.
_BAND_CLI = ["verify", "t42", "--r", str(BAND_R), "--n", str(BAND_N), "--alpha", _alphas(BAND_ALPHAS)]
_DOMINANCE_CLI = [
    "verify", "lemma24", "--n", f"{DOMINANCE_N.start}..{DOMINANCE_N.stop - 1}", "--alpha", _alphas(DOMINANCE_ALPHAS),
]

WORKLOADS = {
    "band": Workload(["cli", "--format", "structured", "--threads", "1", *_BAND_CLI], _band),
    "rewire": Workload(
        ["rewire", str(REWIRE_MAX_N), _alphas(REWIRE_ADJACENT_ALPHAS), _alphas(REWIRE_SKIP_ALPHAS)],
        _rewire,
    ),
    "dominance": Workload(
        ["cli", "--format", "structured", "--threads", "1", *_DOMINANCE_CLI],
        _dominance,
        default_threads=["cli", "--format", "structured", *_DOMINANCE_CLI],
    ),
}


@dataclass
class Child:
    code: int
    wall: float
    setup: float | None
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str
    report: dict | None

    @property
    def ok(self) -> bool:
        return self.report is not None and self.code in (0, 1)


def spawn(args: list[str], workdir: Path, timeout: float) -> Child:
    """Run one launcher process; wall, CPU and peak RSS come from wait4."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), *args],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
        )
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            # wait without reaping, so the pid stays ours until the timer is off
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            end = time.clock_gettime(time.CLOCK_MONOTONIC)
        except BaseException:  # interrupted (SIGTERM/SIGINT): take the child down too
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().decode(errors="replace")
    report = None
    lines = stderr.rstrip("\n").split("\n")
    if lines and lines[-1].startswith(REPORT_TAG + " "):
        report = json.loads(lines[-1][len(REPORT_TAG) + 1 :])
    return Child(
        code=proc.returncode,
        wall=end - start,
        setup=report["ready"] - start if report else None,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
        report=report,
    )


def machine() -> dict:
    """Facts that decide the numbers: cores, default --threads, CPU, versions."""
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)

    if not (ROOT / "src" / "quasistar" / "__init__.py").is_file():
        return fail(f"no quasistar sources under {ROOT / 'src'}; run from a checkout", 2)
    facts = machine()
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("machine " + json.dumps(facts), flush=True)

    began = time.monotonic()
    deadline = began + RUN_DEADLINE_S
    workdir = ROOT / ".bench_build" / "bench"
    workdir.mkdir(parents=True, exist_ok=True)

    def run(child_args):
        return spawn(child_args, workdir, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))

    probes = [run(["probe"]) for _ in range(SETUP_PROBES)]
    for probe in probes:
        if not probe.ok or probe.code != 0:
            return fail(f"the package does not import from this checkout:\n{probe.stderr}", 3)

    untraced, traced_runs = [], []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        untraced.append(run(workload.args))
        if traced:
            traced_runs.append(run(["--trace", *workload.args]))
        now = time.monotonic()
        if now - start >= args.seconds or now + (now - round_start) + CHECK_RESERVE_S > deadline:
            break
    children = untraced + traced_runs

    # Everything below is outside the timed region.
    problems = []
    per_op, graphs, check = workload.expected()
    good = [c for c in children if c.ok]
    failed = per_op * (len(children) - len(good))
    for c in children:
        if not c.ok:
            print(f"failed: exit {c.code}: {c.stderr.strip()[-400:]!r}")
    if good:
        first = good[0].stdout
        problems += check(first.decode().splitlines())
        if any(c.stdout != first for c in good):
            problems.append("stdout differs between runs of the same command")
        if workload.default_threads is not None:
            threaded = run(workload.default_threads)
            if not threaded.ok or threaded.stdout != first:
                problems.append("--threads 1 output differs from the default --threads output")

    ops = [c for c in untraced if c.ok]
    if not ops or (traced and not any(c.ok for c in traced_runs)):
        for p in problems[:20]:
            print("problem: " + p)
        return fail("no operation completed", 1)
    setups = [p.setup for p in probes] + [c.setup for c in ops]
    if not traced:
        metrics = {
            "wall_s": statistics.median([c.wall for c in ops]),
            "setup_s": statistics.median(setups),
            "graphs_per_s": statistics.median([graphs / (c.wall - c.setup) for c in ops]),
            "cpu_s": statistics.median([c.cpu for c in ops]),
            "peak_rss_mb": statistics.median([c.rss_mb for c in ops]),
        }
    else:
        summaries = [c.report["trace"] for c in traced_runs if c.ok]
        metrics = {}
        for name in summaries[0]:
            values = [s[name] for s in summaries]
            if isinstance(values[0], int):
                if len(set(values)) > 1:
                    problems.append(f"traced count {name} differs between traced runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (
            statistics.median([c.wall for c in traced_runs if c.ok]) - statistics.median([c.wall for c in ops])
        )
    units = declared_units("per_layer" if traced else "end_to_end")
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", 1)

    for p in problems[:20]:
        print("problem: " + p)
    print("samples " + json.dumps({
        "operations": len(children),
        "wall_s": [round(c.wall, 4) for c in untraced],
        "traced_wall_s": [round(c.wall, 4) for c in traced_runs],
        "setup_s": [round(s, 4) for s in setups],
        "verdicts_per_operation": per_op,
        "radii_per_operation": graphs,
        "elapsed_s": round(time.monotonic() - began, 2),
    }))
    result = {
        "correct": not problems,
        "attempted": per_op * len(children),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
