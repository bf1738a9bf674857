"""README's command block, the demos and the ``python -m`` entry point,
run as the documentation shows them.

Each ``pcfr`` line of the fenced ``sh`` block under README's "Command
line" (a line ending in ``\\`` continues on the next) is one case.  Its
comment states what the line must do: ``exit code N`` gives the exit code
(0 when the comment does not say), and ``prints: A; B`` gives the first
lines of stdout, each compared without its leading and trailing blanks.
Other comment text is for the reader only.
"""

import os
import re
import runpy
import shlex
import subprocess
import sys

import pytest

import _golden_cli

ROOT = _golden_cli.ROOT
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a line that a demo must print, beside running without an error
DEMO_LINES = {"05_embedding_oracle.py": "corrupted refinement: ok=False"}


def _readme_commands() -> list[str]:
    """The lines of the ``sh`` block under README's "## Command line",
    continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


COMMANDS = _readme_commands()
# lines the block must keep: the paper's result (refinement bounds fig1)
# and sequential_loops' invariants
CLAIMS = [
    "pcfr bound programs/fig2.pip  # prints: expected runtime bound: 3 + 2*y",
    "pcfr bound programs/fig1.pip  # exit code 1, prints: no finite bound",
    "pcfr invariants programs/suite/sequential_loops.pip  # prints: l0: true; l1: true; l2: true",
]


def test_readme_block_states_the_result():
    """The block holds each claim, so replaying it checks them."""
    lines = [" ".join(line.split()) for line in COMMANDS]
    missing = [claim for claim in CLAIMS if " ".join(claim.split()) not in lines]
    assert not missing, missing


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split("#")[0].strip() for line in COMMANDS])
def test_readme_command_does_what_its_comment_says(line):
    command, _, comment = line.partition("#")
    name, *argv = shlex.split(command)
    assert name == "pcfr", line
    code = re.search(r"exit code (\d+)", comment)
    printed = re.search(r"prints: (.*)$", comment)
    run = _golden_cli.run(argv)
    assert run["exit"] == (int(code.group(1)) if code else 0), run
    if printed:
        expected = [part.strip() for part in printed.group(1).split(";")]
        got = [out.strip() for out in run["stdout"].splitlines()[: len(expected)]]
        assert got == expected, run["stdout"]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if demo.name in DEMO_LINES:
        assert DEMO_LINES[demo.name] in out.splitlines(), out


def test_module_entry_point():
    """``python -m pcfr.cli`` runs ``main`` and exits with its code."""
    run = subprocess.run(
        [sys.executable, "-m", "pcfr.cli", "bound", "programs/fig1.pip"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 1, run
    assert run.stdout.splitlines()[0] == "no finite bound", run.stdout
