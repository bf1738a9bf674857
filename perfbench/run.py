"""Benchmark runner for pcfr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``bound-chain``, ``refine-corpus`` or
``semantics-walk``; ``all`` runs each in its own child process) from the
``src`` tree next to this directory.  Operations run closed-loop, one
at a time, in whole rounds while the next round is expected to end
within ``--seconds`` (at least one round).  Every answer is checked
against an independent reference outside the timed region; a mismatch
or an exception is a failed operation.

Standard output ends with one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it is a ``detail`` object with per-operation rows and the
workload's own figures.  ``--trace 1`` runs one untraced and one traced
round, reports per-layer totals of the traced round and the difference
between the two as tracing overhead, and writes the spans to
``.bench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from hostspeed import NOMINAL_KERNEL_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
SETUP_REPS = 9
MODULES = ("textfmt", "abstraction", "refine", "invariants", "linear",
           "ratlp", "bounds", "semantics")


class LibraryMissing(RuntimeError):
    pass


def import_pcfr():
    """Import the package afresh from ``SRC``; returns the modules by name."""
    for name in [m for m in sys.modules if m == "pcfr" or m.startswith("pcfr.")]:
        del sys.modules[name]
    lib = argparse.Namespace(**{m: importlib.import_module(f"pcfr.{m}") for m in MODULES})
    origin = Path(lib.textfmt.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LibraryMissing(f"pcfr was imported from {origin}, not from {SRC}")
    return lib


def declared_metrics() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_round(lib, operations, host, tracer=None, before=None) -> list[tuple]:
    """One pass over the operations, each from a cold ``entails`` cache;
    a row per operation: (seconds, answer, error).  ``before(i)`` runs
    ahead of operation i, outside its timing."""
    gc.collect()
    rows = []
    for i, op in enumerate(operations):
        if before is not None:
            before(i)
        lib.linear.entails.cache_clear()
        if tracer is not None:
            span = tracer.begin_operation(op.label, op.kind)
        mark = host.mark()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = host.elapsed(mark)
        if tracer is not None:
            tracer.end_operation(span)
        rows.append((elapsed, result, error))
    return rows


def check_rounds(operations, rounds) -> list[str]:
    """Reference-check every answer; an answer equal to one that already
    passed is not checked again."""
    failures = []
    for i, op in enumerate(operations):
        passed = set()
        for n, rnd in enumerate(rounds, start=1):
            _, result, error = rnd[i]
            if error is None and op.digest(result) in passed:
                continue
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # the reference itself failed on this answer
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is None:
                passed.add(op.digest(result))
            else:
                failures.append(f"{op.label} (round {n}): {error}")
    return failures


def measure(args) -> dict:
    """Set up, run the rounds, then check them.  Times are at nominal host
    speed (see hostspeed.py); per-layer times are wall times."""
    import workloads
    from spans import Tracer

    def set_up():
        mark = host.mark()
        lib = import_pcfr()
        workload = workloads.WORKLOADS[args.workload](lib, args.seed)
        return host.normalised(host.elapsed(mark), mark), lib, workload

    def timed_round(**kwargs):
        mark = host.mark()
        rows = run_round(lib, operations, host, **kwargs)
        wall = sum(row[0] for row in rows)
        rounds.append(rows)
        round_s.append(host.normalised(wall, mark))
        round_wall_s.append(wall)

    rounds, round_s, round_wall_s = [], [], []
    with HostSpeed() as host:
        seconds, lib, workload = set_up()
        setups = [seconds]
        operations = workload.operations()
        if args.trace:
            timed_round()
            tracer = Tracer(lib)
            tracer.install()
            try:
                timed_round(tracer=tracer)
            finally:
                tracer.uninstall()
        else:
            # The other set-ups are spread over the first round: host speed
            # drifts over seconds, and one burst of set-ups would sample it once.
            slots = [i * len(operations) // (SETUP_REPS - 1) for i in range(SETUP_REPS - 1)]

            def more_setups(i):
                for _ in range(slots.count(i)):
                    gc.collect()  # the round's garbage is not the set-up's cost
                    setups.append(set_up()[0])

            start = host.mark()
            timed_round(before=more_setups)
            # Whole rounds while the next one is expected to end within --seconds.
            while host.elapsed(start) * (len(rounds) + 1) / len(rounds) <= args.seconds:
                timed_round()
    failures = check_rounds(operations, rounds)

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = round_s[1] - round_s[0]
        metrics["trace.overhead_ratio"] = round_s[1] / round_s[0] - 1
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}.tsv")
        detail = {"operations": tracer.operation_rows()}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "round_s": statistics.median(round_s),
        }
        # Operation times at nominal speed, scaled by their round's factor.
        scaled = [[row[0] * norm / wall for row in rows]
                  for rows, norm, wall in zip(rounds, round_s, round_wall_s)]
        per_op = {op.label: statistics.median(rnd[i] for rnd in scaled)
                  for i, op in enumerate(operations)}
        detail = {
            "operations": [{"op": label, "s": s} for label, s in per_op.items()],
            "figures": workload.figures(per_op, [t for rnd in scaled for t in rnd]),
        }
    attempted = len(operations) * len(rounds)
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "rounds_s": round_s,
        "rounds_wall_s": round_wall_s,
        "host_slowdown": statistics.fmean(host.samples) / NOMINAL_KERNEL_S,
        "failed_ratio": {"value": len(failures) / attempted, "base": attempted},
        "failures": failures[:20],
    })
    return {"detail": detail, "failed": len(failures), "attempted": attempted,
            "metrics": metrics}


def report(args, outcome: dict) -> None:
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics()[kind]
    measured = outcome["metrics"]
    if set(units) != set(measured):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(measured))}, "
            f"undeclared {sorted(set(measured) - set(units))}"
        )
    print(json.dumps({"detail": outcome["detail"]}))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own child process; the summary keys metrics
    as ``<workload>/<metric>``."""
    import workloads

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print(f"{name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bound-chain", "refine-corpus", "semantics-walk", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcfr" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'pcfr'} or {ROOT / 'BENCHMARK.json'} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        outcome = measure(args)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
