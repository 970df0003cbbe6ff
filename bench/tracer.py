"""Per-module spans and counters for the benchmark's traced runs.

The tracer wraps public functions of ``quasistar`` from outside the package.
A module that did ``from .spectra import threshold_spectrum`` looks the name
up in its own namespace, so every module attribute bound to the original
function is replaced, not only the defining one.

Spans accumulate per thread (``verify`` scans run on worker threads).  A
span's self time is its duration minus the spans nested in it on the same
thread; totals add thread-seconds across threads.  Generators are timed per
``next()`` call, so the consumer's own work between items is not counted.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from fractions import Fraction

MODULES = (
    "quasistar",
    "quasistar.graphs",
    "quasistar.spectra",
    "quasistar.search",
    "quasistar.transforms",
    "quasistar.cli",
)


class _ThreadStats:
    def __init__(self):
        self.stack = []  # time taken by nested spans, one slot per open span
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.count = {}
        self.keys = set()
        self.max_residual = 0.0

    def bump(self, name: str, by: int = 1) -> None:
        self.count[name] = self.count.get(name, 0) + by


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []

    def stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def _open(self) -> _ThreadStats:
        st = self.stats()
        st.stack.append(0.0)
        return st

    @staticmethod
    def _close(st: _ThreadStats, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        nested = st.stack.pop()
        st.total[name] = st.total.get(name, 0.0) + elapsed
        st.self_time[name] = st.self_time.get(name, 0.0) + elapsed - nested
        if st.stack:
            st.stack[-1] += elapsed

    def span(self, name: str, fn, after=None):
        """Wrap a function; ``after(stats, args, result)`` records counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._open()
            st.calls[name] = st.calls.get(name, 0) + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(st, name, start)
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function; each ``next()`` is a span, each item counted."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            st = self.stats()
            st.calls[name] = st.calls.get(name, 0) + 1
            while True:
                st = self._open()
                start = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(st, name, start)
                st.bump(name)
                yield item

        return wrapper

    def merged(self) -> dict:
        """Totals over every thread that recorded a span."""
        out = {"total": {}, "self": {}, "calls": {}, "count": {}, "keys": set(), "max_residual": 0.0}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for field, src in (("total", st.total), ("self", st.self_time), ("calls", st.calls), ("count", st.count)):
                for name, value in src.items():
                    out[field][name] = out[field].get(name, 0) + value
            out["keys"] |= st.keys
            out["max_residual"] = max(out["max_residual"], st.max_residual)
        return out


def _patch(original, replacement) -> None:
    """Rebind every module attribute that holds ``original``."""
    for modname in MODULES:
        module = sys.modules.get(modname)
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spectrum_key(st, args, result):
    st.keys.add((args[0], Fraction(args[1])))


def _spectral_radius(st, args, result):
    st.bump("spectra.spectral_radius.iterations", result.iterations)
    st.max_residual = max(st.max_residual, float(result.residual))


def _validate(st, args, result):
    if result:
        st.bump("transforms.validate.valid")


#: (span name, module, attribute, kind, counter hook); a missing attribute is
#: skipped so the tracer keeps working when the program drops a function.
TARGETS = (
    ("spectra.threshold_spectrum", "quasistar.spectra", "threshold_spectrum", "span", _spectrum_key),
    ("spectra.spectral_radius", "quasistar.spectra", "spectral_radius", "span", _spectral_radius),
    ("graphs.to_labeled", "quasistar.graphs", "to_labeled", "span", None),
    ("graphs.threshold_from_labeled", "quasistar.graphs", "threshold_from_labeled", "span", None),
    ("search.enumerate_threshold", "quasistar.search", "enumerate_threshold", "generator", None),
    ("search.enumerate_all", "quasistar.search", "enumerate_all", "generator", None),
    ("search.scan", "quasistar.search", "_scan", "span", None),
    ("search.argmax_rho", "quasistar.search", "argmax_rho", "span", None),
    ("search.verify", "quasistar.search", "verify_sparse_band", "span", None),
    ("search.verify", "quasistar.search", "verify_all_graphs_2n2", "span", None),
    ("search.verify", "quasistar.search", "verify_clique_band", "span", None),
    ("search.verify", "quasistar.search", "threshold_dominance_report", "span", None),
    ("transforms.validate", "quasistar.transforms", "validate", "span", _validate),
    ("transforms.certify", "quasistar.transforms", "certify", "span", None),
)


class _CountingStdout:
    """Times and counts what the CLI writes to stdout (the emit layer)."""

    def __init__(self, tracer: Tracer, stream):
        self._tracer = tracer
        self._stream = stream
        self.bytes = 0

    def write(self, text):
        st = self._tracer._open()
        start = time.perf_counter()
        try:
            return self._stream.write(text)
        finally:
            self._tracer._close(st, "cli.emit", start)
            self.bytes += len(text.encode())

    def flush(self):
        st = self._tracer._open()
        start = time.perf_counter()
        try:
            self._stream.flush()
        finally:
            self._tracer._close(st, "cli.emit", start)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def install(tracer: Tracer, emit: bool) -> _CountingStdout | None:
    """Wrap every target; with ``emit`` also time record formatting and stdout."""
    for name, modname, attr, kind, hook in TARGETS:
        module = sys.modules.get(modname)
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapped = tracer.generator(name, original) if kind == "generator" else tracer.span(name, original, hook)
        _patch(original, wrapped)
    if not emit:
        return None
    search = sys.modules["quasistar.search"]
    report_cls = getattr(search, "VerificationReport", None)
    if report_cls is not None and hasattr(report_cls, "record"):
        report_cls.record = tracer.span("cli.emit", report_cls.record)
    sys.stdout = _CountingStdout(tracer, sys.stdout)
    return sys.stdout


def summary(tracer: Tracer, stdout: _CountingStdout | None) -> dict:
    """The per-module metrics of one traced process (see README)."""
    m = tracer.merged()
    total, self_time, calls, count = m["total"], m["self"], m["calls"], m["count"]

    def ratio(num, den):
        return num / den if den else 0.0

    spectrum_calls = calls.get("spectra.threshold_spectrum", 0)
    validate_calls = calls.get("transforms.validate", 0)
    return {
        "spectra.threshold_spectrum.s": total.get("spectra.threshold_spectrum", 0.0),
        "spectra.threshold_spectrum.calls": spectrum_calls,
        "spectra.threshold_spectrum.unique_ratio": ratio(len(m["keys"]), spectrum_calls),
        "spectra.spectral_radius.s": total.get("spectra.spectral_radius", 0.0),
        "spectra.spectral_radius.calls": calls.get("spectra.spectral_radius", 0),
        "spectra.spectral_radius.iterations": count.get("spectra.spectral_radius.iterations", 0),
        "spectra.max_residual": m["max_residual"],
        "graphs.to_labeled.s": total.get("graphs.to_labeled", 0.0),
        "graphs.to_labeled.calls": calls.get("graphs.to_labeled", 0),
        "graphs.threshold_from_labeled.s": total.get("graphs.threshold_from_labeled", 0.0),
        "graphs.threshold_from_labeled.calls": calls.get("graphs.threshold_from_labeled", 0),
        "search.enumerate_threshold.s": total.get("search.enumerate_threshold", 0.0),
        "search.enumerate_threshold.graphs": count.get("search.enumerate_threshold", 0),
        "search.enumerate_all.s": total.get("search.enumerate_all", 0.0),
        "search.enumerate_all.graphs": count.get("search.enumerate_all", 0),
        "search.scan.s": total.get("search.scan", 0.0),
        "search.argmax_rho.self_s": self_time.get("search.argmax_rho", 0.0),
        "search.argmax_rho.calls": calls.get("search.argmax_rho", 0),
        "search.verify.self_s": self_time.get("search.verify", 0.0),
        "transforms.validate.s": total.get("transforms.validate", 0.0),
        "transforms.validate.calls": validate_calls,
        "transforms.validate.valid_ratio": ratio(count.get("transforms.validate.valid", 0), validate_calls),
        "transforms.certify.self_s": self_time.get("transforms.certify", 0.0),
        "transforms.certify.calls": calls.get("transforms.certify", 0),
        "cli.emit.s": total.get("cli.emit", 0.0),
        "cli.emit.bytes": stdout.bytes if stdout is not None else 0,
    }
