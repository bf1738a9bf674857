"""Command-line surface.

Subcommands: refine, invariants, bound, enumerate, simulate, mdp-sup,
check-embedding, export-dot.  Every command reads a ``.pip`` program;
analysis parameters come from flags or a ``--config`` JSON file (flags
win).  Exit codes: 0 success, 1 analysis-negative (no bound, embedding
counterexample), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .abstraction import heuristic_layers
from .bounds import bound_program
from .invariants import infer
from .model import PIP
from .refine import RefinementResult, refine_and_prune
from .semantics import (
    FirstEnabledPolicy,
    Policy,
    SeededPolicy,
    StateSpaceCapExceeded,
    check_embedding,
    mdp_sup_truncated,
    monte_carlo,
    sweep,
)
from .textfmt import (
    ParseError,
    ProgramError,
    parse_atom,
    parse_program,
    parse_state,
    print_dot,
    print_program,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def envelope(command: str, result: dict) -> dict:
    return {"tool": "pcfr", "version": __version__, "command": command, "result": result}


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise _CliError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise _CliError("config must be a JSON object")
    return config


def _load_program(path: str) -> PIP:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read program: {exc}")
    try:
        return parse_program(text)
    except (ParseError, ProgramError) as exc:
        raise _CliError(f"{path}: {exc}")


def _setting(args, config: dict, name: str, default=None):
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(name, default)


def _seed(args, config: dict) -> int:
    value = _setting(args, config, "seed")
    if value is None:
        value = os.environ.get("PCFR_SEED", "0")
    return int(value)


def _temp_values(args, config: dict) -> tuple[int, ...]:
    value = _setting(args, config, "temp_values", [0])
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    return tuple(int(v) for v in value)


def _policy(args, config: dict) -> Policy:
    temp_values = _temp_values(args, config)
    spec = _setting(args, config, "policy", "first")
    if isinstance(spec, dict):
        kind = spec.get("kind", "first")
        if kind == "first":
            return FirstEnabledPolicy(temp_values)
        if kind == "seeded":
            return SeededPolicy(
                int(spec.get("seed", 0)), temp_values, bool(spec.get("history", False))
            )
        raise _CliError(f"unknown policy kind {kind!r}")
    if spec == "first":
        return FirstEnabledPolicy(temp_values)
    if spec.startswith("seeded:"):
        return SeededPolicy(int(spec.split(":", 1)[1]), temp_values)
    if spec.startswith("seeded-history:"):
        return SeededPolicy(int(spec.split(":", 1)[1]), temp_values, True)
    raise _CliError(f"unknown policy {spec!r}")


def _state(args, config: dict, program: PIP) -> dict:
    value = _setting(args, config, "state")
    if value is None:
        raise _CliError("an initial state is required (--state or config 'state')")
    if isinstance(value, dict):
        text = ", ".join(f"{k}={v}" for k, v in value.items())
    else:
        text = value
    try:
        return parse_state(text, program)
    except ValueError as exc:
        raise _CliError(str(exc))


def _refinement(args, config: dict, program: PIP) -> tuple[RefinementResult, object]:
    s_names = _setting(args, config, "S")
    if isinstance(s_names, str):
        s_names = [n.strip() for n in s_names.split(",") if n.strip()]
    if not s_names:
        raise _CliError("a refinement set is required (--S or config 'S')")
    known = {t.name for t in program.transitions}
    unknown = [n for n in s_names if n not in known]
    if unknown:
        raise _CliError(f"refinement set names unknown transitions: {', '.join(unknown)}")
    pinned = {}
    for loc_name, atom_texts in (config.get("alpha") or {}).items():
        try:
            location = program.location(loc_name)
        except KeyError:
            raise _CliError(f"config alpha pins unknown location '{loc_name}'")
        pinned[location] = [parse_atom(t, program) for t in atom_texts]
    extra = {}
    for loc_name, atom_texts in (config.get("alpha_extra") or {}).items():
        try:
            location = program.location(loc_name)
        except KeyError:
            raise _CliError(f"config alpha_extra names unknown location '{loc_name}'")
        extra[location] = [parse_atom(t, program) for t in atom_texts]
    layers = heuristic_layers(
        program,
        [program.transition(n) for n in s_names],
        extra=extra or None,
        pinned=pinned or None,
        split_equalities=bool(config.get("split_equalities", False)),
    )
    try:
        return refine_and_prune(program, s_names, layers)
    except ValueError as exc:  # e.g. a refined location name clashes
        raise _CliError(str(exc))


def _query(function, *args):
    """Run a semantic query: a tripped cap is analysis-negative (exit 1),
    an out-of-range argument a usage error (exit 2)."""
    try:
        return function(*args)
    except StateSpaceCapExceeded as exc:
        raise _CliError(str(exc), EXIT_NEGATIVE)
    except ValueError as exc:
        raise _CliError(str(exc))


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands


def _cmd_refine(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    result, _inv = _refinement(args, config, program)
    stats = {
        "unrolling_steps": result.stats.unrolling_steps,
        "pruned_transitions": result.stats.pruned_transitions,
        "pruned_locations": result.stats.pruned_locations,
        "locations": len(result.program.locations),
        "transitions": len(result.program.transitions),
    }
    if args.format == "json":
        report = envelope(
            "refine",
            {
                "program": print_program(result.program),
                "origin": dict(sorted(result.origin.items())),
                "stats": stats,
            },
        )
        _emit(args, json.dumps(report, indent=2, sort_keys=True) + "\n")
    elif args.format == "dot":
        _emit(args, print_dot(result.program))
    else:
        text = print_program(result.program)
        text += "# stats: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())) + "\n"
        _emit(args, text)
    return EXIT_OK


def _cmd_invariants(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    inv = infer(program)
    items = {loc.display(): str(inv.of(loc)) for loc in program.locations}
    if args.format == "json":
        _emit(
            args,
            json.dumps(envelope("invariants", {"invariants": items}), indent=2, sort_keys=True) + "\n",
        )
    else:
        lines = [f"{name}: {text}" for name, text in items.items()]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_bound(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    cover = config.get("cover")
    report = bound_program(program, cover_groups=cover)
    if args.format == "json":
        if report.ok:
            result = {
                "ok": True,
                "total": report.bound.render_total(),
                "entries": [
                    {
                        "targets": list(e.targets),
                        "bound": e.bound.render(),
                        "kind": e.plrf.kind,
                        "ranking": {
                            loc.display(): expr.render()
                            for loc, expr in sorted(
                                e.plrf.values.items(), key=lambda kv: kv[0].name
                            )
                        },
                    }
                    for e in report.bound.entries
                ],
            }
        else:
            result = {"ok": False, "failures": list(report.failures)}
        _emit(args, json.dumps(envelope("bound", result), indent=2, sort_keys=True) + "\n")
    else:
        if report.ok:
            lines = [f"expected runtime bound: {report.bound.render_total()}"]
            for e in report.bound.entries:
                lines.append(
                    f"  {{{', '.join(e.targets)}}}: {e.bound.render()}"
                    f"  via {e.plrf.kind} ranking {e.plrf.render()}"
                )
            _emit(args, "\n".join(lines) + "\n")
        else:
            lines = ["no finite bound"]
            lines.extend(f"  {reason}" for reason in report.failures)
            _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_enumerate(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    policy = _policy(args, config)
    sigma0 = _state(args, config, program)
    horizon = int(_setting(args, config, "horizon", 10))
    path_cap = int(_setting(args, config, "path_cap", 100_000))
    reports, paths, estimate = _query(sweep, program, policy, sigma0, horizon, path_cap)
    report = reports[-1]
    data = {
        "horizon": report.horizon,
        "paths": paths,
        "total_mass": str(report.total_mass),
        "expected_truncated_runtime": str(report.expected_truncated_runtime),
        "terminated_mass": str(report.terminated_mass),
        "residual_mass": str(estimate.residual_mass),
        "per_general_transition": {
            name: str(value) for name, value in sorted(estimate.per_gt.items())
        },
    }
    if args.format == "json":
        _emit(args, json.dumps(envelope("enumerate", data), indent=2, sort_keys=True) + "\n")
    else:
        lines = [
            f"horizon {report.horizon}: {paths} admissible paths",
            f"total mass: {report.total_mass}",
            f"expected truncated runtime: {report.expected_truncated_runtime}"
            f" (~{float(report.expected_truncated_runtime):.6f})",
            f"terminated mass: {report.terminated_mass}",
        ]
        for name, value in sorted(estimate.per_gt.items()):
            lines.append(f"  E[count {name}] = {value} (~{float(value):.6f})")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    policy = _policy(args, config)
    sigma0 = _state(args, config, program)
    samples = int(_setting(args, config, "samples", 10_000))
    step_cap = int(_setting(args, config, "step_cap", 1_000))
    seed = _seed(args, config)
    result = _query(monte_carlo, program, policy, sigma0, samples, step_cap, seed)
    data = {
        "mean": result.mean,
        "stderr": result.stderr,
        "samples": result.samples,
        "censored": result.censored,
        "seed": seed,
    }
    if args.format == "json":
        _emit(args, json.dumps(envelope("simulate", data), indent=2, sort_keys=True) + "\n")
    else:
        _emit(
            args,
            f"mean runtime over {result.samples} runs: {result.mean:.6f}"
            f" (stderr {result.stderr:.6f}, censored {result.censored}, seed {seed})\n",
        )
    return EXIT_OK


def _cmd_mdp_sup(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    sigma0 = _state(args, config, program)
    horizon = int(_setting(args, config, "horizon", 10))
    temp_values = _temp_values(args, config)
    state_cap = int(_setting(args, config, "state_cap", 200_000))
    value = _query(mdp_sup_truncated, program, sigma0, horizon, temp_values, state_cap)
    data = {"horizon": horizon, "value": str(value), "value_float": float(value)}
    if args.format == "json":
        _emit(args, json.dumps(envelope("mdp-sup", data), indent=2, sort_keys=True) + "\n")
    else:
        _emit(
            args,
            f"sup expected truncated runtime (horizon {horizon}): {value} (~{float(value):.9f})\n",
        )
    return EXIT_OK


def _cmd_check_embedding(args) -> int:
    config = _load_config(args.config)
    program = _load_program(args.program)
    refinement, _inv = _refinement(args, config, program)
    policy = _policy(args, config)
    if policy.history_dependent:
        raise _CliError("check-embedding needs a history-independent policy (first or seeded:N)")
    sigma0 = _state(args, config, program)
    horizon = int(_setting(args, config, "horizon", 8))
    path_cap = int(_setting(args, config, "path_cap", 100_000))
    report = _query(check_embedding, program, refinement, policy, sigma0, horizon, path_cap)
    data = {
        "ok": report.ok,
        "horizon": report.horizon,
        "checked_paths": report.checked_paths,
        "failure": report.failure,
        "witness": report.witness.render() if report.witness else None,
    }
    if args.format == "json":
        _emit(args, json.dumps(envelope("check-embedding", data), indent=2, sort_keys=True) + "\n")
    else:
        if report.ok:
            _emit(
                args,
                f"embedding ok: {report.checked_paths} paths matched at horizon {report.horizon}\n",
            )
        else:
            lines = [f"embedding FAILED: {report.failure}"]
            if report.witness is not None:
                lines.append(f"counterexample: {report.witness.render()}")
            _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_export_dot(args) -> int:
    program = _load_program(args.program)
    if args.format == "json":
        _emit(args, json.dumps(envelope("export-dot", {"dot": print_dot(program)}), indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, print_dot(program))
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("program", help="path to a .pip program")
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument(
        "--format", choices=("text", "json", "dot"), default="text", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcfr",
        description="Control-flow refinement and expected-runtime analysis "
        "for probabilistic integer programs",
    )
    parser.add_argument("--version", action="version", version=f"pcfr {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("refine", help="partial-evaluation refinement")
    _add_common(sub)
    sub.add_argument("--S", dest="S", help="comma-separated refinement transitions")
    sub.set_defaults(handler=_cmd_refine)

    sub = commands.add_parser("invariants", help="per-location invariants")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_invariants)

    sub = commands.add_parser("bound", help="expected runtime bound")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_bound)

    sub = commands.add_parser("enumerate", help="exact finite-horizon path enumeration")
    _add_common(sub)
    sub.add_argument("--state", help="initial state, e.g. 'x=0, y=2'")
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--temp-values", dest="temp_values", help="e.g. '1,2'")
    sub.add_argument("--policy", help="first | seeded:N | seeded-history:N")
    sub.add_argument("--path-cap", dest="path_cap", type=int)
    sub.set_defaults(handler=_cmd_enumerate)

    sub = commands.add_parser("simulate", help="Monte-Carlo runtime estimate")
    _add_common(sub)
    sub.add_argument("--state", help="initial state")
    sub.add_argument("--samples", type=int)
    sub.add_argument("--step-cap", dest="step_cap", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--temp-values", dest="temp_values")
    sub.add_argument("--policy")
    sub.set_defaults(handler=_cmd_simulate)

    sub = commands.add_parser("mdp-sup", help="supremum of truncated expected runtime")
    _add_common(sub)
    sub.add_argument("--state", help="initial state")
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--temp-values", dest="temp_values")
    sub.add_argument("--state-cap", dest="state_cap", type=int)
    sub.set_defaults(handler=_cmd_mdp_sup)

    sub = commands.add_parser(
        "check-embedding", help="verify the path embedding into the refinement"
    )
    _add_common(sub)
    sub.add_argument("--S", dest="S", help="comma-separated refinement transitions")
    sub.add_argument("--state", help="initial state")
    sub.add_argument("--horizon", type=int)
    sub.add_argument("--temp-values", dest="temp_values")
    sub.add_argument("--policy")
    sub.add_argument("--path-cap", dest="path_cap", type=int)
    sub.set_defaults(handler=_cmd_check_embedding)

    sub = commands.add_parser("export-dot", help="GraphViz rendering")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"pcfr: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
