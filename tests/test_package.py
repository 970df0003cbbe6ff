"""Import-time behaviour of the package: BLAS runs on one thread unless the caller chose,
and the objects that exist after the import are frozen out of the collector."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasistar

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def import_in_child(code: str, **blas: str) -> str:
    """Run ``code`` after ``import quasistar, numpy`` in a fresh interpreter.

    The child sees none of the BLAS thread variables except those in ``blas``
    and imports the same checkout as this test.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas, PYTHONPATH=str(Path(quasistar.__file__).parents[1]))
    args = [sys.executable, "-c", "import os, quasistar, numpy\n" + code]
    return subprocess.run(args, capture_output=True, check=True, env=env, text=True).stdout


def child_blas_vars(**blas: str) -> dict:
    code = f"import json; print(json.dumps({{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}))"
    return json.loads(import_in_child(code, **blas))


def test_import_pins_blas_to_one_thread():
    assert child_blas_vars() == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
def test_import_starts_no_blas_thread():
    out = import_in_child("print([l.split()[1] for l in open('/proc/self/status') if l.startswith('Threads:')][0])")
    assert out.strip() == "1"


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_caller_thread_count_wins(var):
    expected = dict.fromkeys(BLAS_THREAD_VARS)
    expected[var] = "2"
    assert child_blas_vars(**{var: "2"}) == expected


def test_import_freezes_what_it_made():
    assert int(import_in_child("import gc; print(gc.get_freeze_count())")) > 0


def test_garbage_made_after_the_import_is_still_collected():
    # A two-list cycle made after the freeze must still be found and freed.
    code = (
        "import gc, weakref\ngc.disable()\nclass Node(list): pass\n"
        "a, b = Node(), Node(); a.append(b); b.append(a); gone = weakref.ref(a); del a, b\n"
        "print(gc.collect() >= 2, gone() is None)"
    )
    assert import_in_child(code) == "True True\n"


@pytest.mark.parametrize("argv", [
    ["verify", "lemma24", "--n", "4..7", "--alpha", "0,1/2,3/4"],
    ["verify", "t42", "--r", "3", "--n", "20", "--alpha", "1/2"],
])
def test_verify_runs_leave_numpy_ma_unimported(argv):
    # numpy.ma costs 17-33 ms to import cold; np.unique and np.setdiff1d pull it in.
    code = (
        "import contextlib, io, sys\nfrom quasistar import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({argv!r})\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert import_in_child(code) == "False\n"
