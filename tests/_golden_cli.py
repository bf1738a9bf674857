"""The pinned CLI record of every command.

``INVOCATIONS`` lists ``pcfr`` argument vectors for ``enumerate``,
``simulate``, ``mdp-sup`` and ``check-embedding`` on the two fixture
programs, in text and JSON, under the ``first``, ``seeded:3`` and
``seeded-history:3`` policies, with and without path and step caps; and
for ``refine``, ``export-dot``, ``invariants`` and ``bound`` in text,
JSON and dot.  ``golden_cli.json`` holds each one's exit code, stdout
and stderr; ``test_io.test_cli_matches_golden_record`` replays them.

Regenerate the record (only when an output change is intended, and say
so in the change log) from the repository root with::

    PYTHONPATH=src python tests/_golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "golden_cli.json"

POLICIES = ("first", "seeded:3", "seeded-history:3")
FIG1 = ("programs/fig1.pip", "--config", "programs/fig1.cfr.json")
FIG2 = ("programs/fig2.pip", "--state", "x=0, y=2", "--temp-values", "1,2")
FIG2_S = ("--S", "t1ap,t1bp,t2p,t3p")


def _invocations() -> list[list[str]]:
    out = []
    for fmt in ("text", "json"):
        for program in (FIG1, FIG2):
            common = [*program, "--format", fmt]
            embedding = common + ([] if program is FIG1 else list(FIG2_S))
            for policy in POLICIES:
                run = ["--policy", policy]
                out.append(["enumerate", *common, *run, "--horizon", "12"])
                out.append(["enumerate", *common, *run, "--horizon", "12",
                            "--temp-values", "1,2,3"])
                # configurations (or paths under seeded-history) per level
                out.append(["enumerate", *common, *run, "--horizon", "12", "--path-cap", "6"])
                out.append(["enumerate", *common, *run, "--horizon", "12", "--path-cap", "9"])
                out.append(["simulate", *common, *run, "--samples", "400", "--seed", "7"])
                out.append(["simulate", *common, *run, "--samples", "400", "--seed", "7",
                            "--step-cap", "4"])
                out.append(["check-embedding", *embedding, *run, "--horizon", "10"])
                out.append(["check-embedding", *embedding, *run, "--horizon", "10",
                            "--path-cap", "2"])
            out.append(["mdp-sup", *common, "--horizon", "12"])
            out.append(["mdp-sup", *common, "--horizon", "12", "--state-cap", "20"])
    for fmt in ("text", "json", "dot"):
        out.append(["refine", *FIG1[:3], "--format", fmt])
        out.append(["refine", FIG2[0], *FIG2_S, "--format", fmt])
        out.append(["export-dot", FIG1[0], "--format", fmt])
        for program in (FIG1[0], FIG2[0]):
            out.append(["invariants", program, "--format", fmt])
            out.append(["bound", program, "--format", fmt])
    return out


INVOCATIONS = _invocations()


def run(argv: list[str]) -> dict:
    """One invocation's exit code and output, run from the repository root."""
    from pcfr.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


if __name__ == "__main__":
    records = [run(argv) for argv in INVOCATIONS]
    RECORD.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {RECORD.relative_to(ROOT)}")
