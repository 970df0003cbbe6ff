"""The README's examples run: every CLI line parses and the library block executes."""

import re
import shlex
from pathlib import Path

from quasistar.cli import build_parser
from quasistar.search import CLAIMS

README = Path(__file__).parents[1] / "README.md"


def fenced_blocks(language: str) -> list[str]:
    """Bodies of the README's fenced code blocks tagged with ``language`` ("" for untagged)."""
    return [body for tag, body in re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S) if tag == language]


def test_readme_cli_lines_parse():
    argvs = [shlex.split(line, comments=True) for body in fenced_blocks("")
             for line in body.splitlines() if line.startswith("quasistar ")]
    assert len(argvs) > 10
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv[1:])  # argparse exits 2 on a line it refuses


def test_readme_python_block_runs():
    (block,) = fenced_blocks("python")
    exec(compile(block, str(README), "exec"), {})


def test_readme_names_exactly_the_claim_rows():
    # The "Verification targets:" sentence names each target as `name` (...).
    sentence = re.search(r"Verification targets:(.*?)\.\s", README.read_text(), re.S).group(1)
    assert re.findall(r"`(\w+)`\s+\(", sentence) == list(CLAIMS)
