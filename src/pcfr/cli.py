"""Command-line surface.

Subcommands: refine, invariants, bound, enumerate, simulate, mdp-sup,
check-embedding, export-dot.  Every command reads a ``.pip`` program;
analysis parameters come from flags or a ``--config`` JSON file (flags
win).  Exit codes: 0 success, 1 analysis-negative (no bound, embedding
counterexample, a tripped explosion guard), 2 usage or parse errors.

Each command is a handler ``(args, config, program) -> (result, text,
exit code)``; :func:`main` loads the inputs, runs the handler and writes
the JSON envelope of ``result`` or ``text``.  A ``ValueError`` raised
while reading a setting or by an analysis is a usage error.
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
    bind_state,
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


def _not_utf8(what: str, path: str, exc: UnicodeDecodeError) -> ValueError:
    """The message for a file that is not UTF-8.  The whole file is decoded
    in one piece, so the error's offset is the file's."""
    byte = exc.object[exc.start]
    return ValueError(
        f"cannot read {what}: {path}: not UTF-8 at byte offset {exc.start}"
        f" (0x{byte:02x}, {exc.reason})"
    )


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read config: {exc}")
    except UnicodeDecodeError as exc:
        raise _not_utf8("config", path, exc)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}")
    except ValueError:  # an integer above the interpreter's digit limit
        raise ValueError("cannot read config: integer literal too long (more than 4300 digits)")
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    return config


def _load_program(path: str) -> PIP:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read program: {exc}")
    except UnicodeDecodeError as exc:
        raise _not_utf8("program", path, exc)
    try:
        return parse_program(text)
    except (ParseError, ProgramError) as exc:
        raise ValueError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Settings: a flag wins over the config key of the same name.  Every reader
# raises ValueError on a value of the wrong type.


def _setting(args, config: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    return config.get(name, default)


def _to_int(value, what: str) -> int:
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer for {what}, got {value!r}")


def _to_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false for {what}, got {value!r}")
    return value


def _int(args, config: dict, name: str, default) -> int:
    return _to_int(_setting(args, config, name, default), name)


def _names(value, known, what: str, kind: str) -> list[str]:
    """``value`` as a list of names, each one of ``known``."""
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ValueError(f"{what} must be a list of names, got {value!r}")
    unknown = [n for n in value if n not in known]
    if unknown:
        raise ValueError(f"{what} names unknown {kind}: {', '.join(unknown)}")
    return value


def _temp_values(args, config: dict) -> tuple[int, ...]:
    value = _setting(args, config, "temp_values", [0])
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    if not isinstance(value, list):
        raise ValueError(f"temp_values must be a list of integers, got {value!r}")
    if not value:
        # with no value to choose, no transition of a program with
        # temporaries is enabled, and every run would stop at once
        raise ValueError("temp_values must be nonempty")
    values = tuple(_to_int(v, "temp_values") for v in value)
    # a repeated value would list every scheduler candidate once per repeat
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ValueError(f"temp_values: {repeated} is listed twice")
    return values


def _policy(args, config: dict) -> Policy:
    temp_values = _temp_values(args, config)
    spec = _setting(args, config, "policy", "first")
    if isinstance(spec, dict):
        kind = spec.get("kind", "first")
        if kind == "first":
            return FirstEnabledPolicy(temp_values)
        if kind == "seeded":
            seed = _to_int(spec.get("seed", 0), "the policy seed")
            history = _to_bool(spec.get("history", False), "the policy history")
            return SeededPolicy(seed, temp_values, history)
        raise ValueError(f"unknown policy kind {kind!r}")
    if spec == "first":
        return FirstEnabledPolicy(temp_values)
    if isinstance(spec, str) and spec.startswith(("seeded:", "seeded-history:")):
        kind, seed = spec.split(":", 1)
        return SeededPolicy(
            _to_int(seed, "the policy seed"), temp_values, kind == "seeded-history"
        )
    raise ValueError(f"unknown policy {spec!r}")


def _state(args, config: dict, program: PIP) -> dict:
    value = _setting(args, config, "state")
    if value is None:
        raise ValueError("an initial state is required (--state or config 'state')")
    if isinstance(value, dict):
        pairs = ((k, _to_int(v, f"state variable {k!r}")) for k, v in value.items())
        return bind_state(pairs, program)
    if not isinstance(value, str):
        raise ValueError(f"state must be an object or a string, got {value!r}")
    return parse_state(value, program)


def _layer_atoms(config: dict, key: str, program: PIP) -> dict | None:
    """Config ``alpha`` or ``alpha_extra``: location -> parsed atoms."""
    value = config.get(key) or {}
    if not isinstance(value, dict):
        raise ValueError(f"config {key} must map location names to atom lists")
    atoms = {}
    for loc_name, atom_texts in value.items():
        try:
            location = program.location(loc_name)
        except KeyError:
            raise ValueError(f"config {key} names unknown location '{loc_name}'")
        if not isinstance(atom_texts, list) or not all(isinstance(t, str) for t in atom_texts):
            raise ValueError(f"config {key} of '{loc_name}' must be a list of atom strings")
        try:
            atoms[location] = [parse_atom(t, program) for t in atom_texts]
        except ValueError as exc:  # a ParseError, or not a single atom
            raise ValueError(f"config {key} of '{loc_name}': {exc}")
    return atoms or None


def _refinement(args, config: dict, program: PIP) -> RefinementResult:
    s_names = _setting(args, config, "S")
    if isinstance(s_names, str):
        s_names = [n.strip() for n in s_names.split(",") if n.strip()]
    if not s_names:
        raise ValueError("a refinement set is required (--S or config 'S')")
    known = {t.name for t in program.transitions}
    s_names = _names(s_names, known, "refinement set", "transitions")
    layers = heuristic_layers(
        program,
        [program.transition(n) for n in s_names],
        pinned=_layer_atoms(config, "alpha", program),
        extra=_layer_atoms(config, "alpha_extra", program),
        split_equalities=_to_bool(config.get("split_equalities", False), "split_equalities"),
    )
    result, _inv = refine_and_prune(program, s_names, layers)
    return result


def _cover(config: dict, program: PIP) -> list[list[str]] | None:
    cover = config.get("cover")
    if cover is None:
        return None
    if not isinstance(cover, list):
        raise ValueError(f"cover must be a list of lists of names, got {cover!r}")
    known = {g.name for g in program.gts}
    return [_names(group, known, "cover entry", "general transitions") for group in cover]


# ---------------------------------------------------------------------------
# Commands: (args, config, program) -> (JSON result, text, exit code)


def _cmd_refine(args, config: dict, program: PIP):
    result = _refinement(args, config, program)
    stats = {
        "unrolling_steps": result.stats.unrolling_steps,
        "pruned_transitions": result.stats.pruned_transitions,
        "pruned_locations": result.stats.pruned_locations,
        "locations": len(result.program.locations),
        "transitions": len(result.program.transitions),
    }
    data = {
        "program": print_program(result.program),
        "origin": dict(sorted(result.origin.items())),
        "stats": stats,
    }
    if args.format == "dot":
        return data, print_dot(result.program), EXIT_OK
    text = data["program"]
    text += "# stats: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())) + "\n"
    return data, text, EXIT_OK


def _cmd_invariants(args, config: dict, program: PIP):
    inv = infer(program)
    items = {loc.display(): str(inv.of(loc)) for loc in program.locations}
    lines = [f"{name}: {text}" for name, text in items.items()]
    return {"invariants": items}, "\n".join(lines) + "\n", EXIT_OK


def _cmd_bound(args, config: dict, program: PIP):
    report = bound_program(program, cover_groups=_cover(config, program))
    if not report.ok:
        lines = ["no finite bound"]
        lines.extend(f"  {reason}" for reason in report.failures)
        data = {"ok": False, "failures": list(report.failures)}
        return data, "\n".join(lines) + "\n", EXIT_NEGATIVE
    data = {
        "ok": True,
        "total": report.bound.render_total(),
        "entries": [
            {
                "targets": list(e.targets),
                "bound": e.bound.render(),
                "kind": e.plrf.kind,
                "ranking": {
                    loc.display(): expr.render()
                    for loc, expr in sorted(e.plrf.values.items(), key=lambda kv: kv[0].name)
                },
            }
            for e in report.bound.entries
        ],
    }
    lines = [f"expected runtime bound: {report.bound.render_total()}"]
    for e in report.bound.entries:
        lines.append(
            f"  {{{', '.join(e.targets)}}}: {e.bound.render()}"
            f"  via {e.plrf.kind} ranking {e.plrf.render()}"
        )
    return data, "\n".join(lines) + "\n", EXIT_OK


def _cmd_enumerate(args, config: dict, program: PIP):
    policy = _policy(args, config)
    sigma0 = _state(args, config, program)
    horizon = _int(args, config, "horizon", 10)
    path_cap = _int(args, config, "path_cap", 100_000)
    reports, paths, estimate = sweep(program, policy, sigma0, horizon, path_cap)
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
    lines = [
        f"horizon {report.horizon}: {paths} admissible paths",
        f"total mass: {report.total_mass}",
        f"expected truncated runtime: {report.expected_truncated_runtime}"
        f" (~{float(report.expected_truncated_runtime):.6f})",
        f"terminated mass: {report.terminated_mass}",
    ]
    for name, value in sorted(estimate.per_gt.items()):
        lines.append(f"  E[count {name}] = {value} (~{float(value):.6f})")
    return data, "\n".join(lines) + "\n", EXIT_OK


def _cmd_simulate(args, config: dict, program: PIP):
    policy = _policy(args, config)
    sigma0 = _state(args, config, program)
    samples = _int(args, config, "samples", 10_000)
    step_cap = _int(args, config, "step_cap", 1_000)
    seed = _int(args, config, "seed", os.environ.get("PCFR_SEED", "0"))
    result = monte_carlo(program, policy, sigma0, samples, step_cap, seed)
    data = {
        "mean": result.mean,
        "stderr": result.stderr,
        "samples": result.samples,
        "censored": result.censored,
        "seed": seed,
    }
    text = (
        f"mean runtime over {result.samples} runs: {result.mean:.6f}"
        f" (stderr {result.stderr:.6f}, censored {result.censored}, seed {seed})\n"
    )
    return data, text, EXIT_OK


def _cmd_mdp_sup(args, config: dict, program: PIP):
    sigma0 = _state(args, config, program)
    horizon = _int(args, config, "horizon", 10)
    temp_values = _temp_values(args, config)
    state_cap = _int(args, config, "state_cap", 200_000)
    value = mdp_sup_truncated(program, sigma0, horizon, temp_values, state_cap)
    data = {"horizon": horizon, "value": str(value), "value_float": float(value)}
    text = f"sup expected truncated runtime (horizon {horizon}): {value} (~{float(value):.9f})\n"
    return data, text, EXIT_OK


def _cmd_check_embedding(args, config: dict, program: PIP):
    refinement = _refinement(args, config, program)
    policy = _policy(args, config)
    if policy.history_dependent:
        raise ValueError("check-embedding needs a history-independent policy (first or seeded:N)")
    sigma0 = _state(args, config, program)
    horizon = _int(args, config, "horizon", 8)
    path_cap = _int(args, config, "path_cap", 100_000)
    report = check_embedding(program, refinement, policy, sigma0, horizon, path_cap)
    data = {
        "ok": report.ok,
        "horizon": report.horizon,
        "checked_paths": report.checked_paths,
        "failure": report.failure,
        "witness": report.witness.render() if report.witness else None,
    }
    if report.ok:
        text = f"embedding ok: {report.checked_paths} paths matched at horizon {report.horizon}\n"
        return data, text, EXIT_OK
    lines = [f"embedding FAILED: {report.failure}"]
    if report.witness is not None:
        lines.append(f"counterexample: {report.witness.render()}")
    return data, "\n".join(lines) + "\n", EXIT_NEGATIVE


def _cmd_export_dot(args, config: dict, program: PIP):
    dot = print_dot(program)
    return {"dot": dot}, dot, EXIT_OK


# ---------------------------------------------------------------------------

# flag -> argparse options; the flag's dest is also its config key
FLAGS = {
    "--S": {"help": "comma-separated refinement transitions"},
    "--state": {"help": "initial state, e.g. 'x=0, y=2'"},
    "--horizon": {"type": int},
    "--samples": {"type": int},
    "--step-cap": {"type": int},
    "--seed": {"type": int},
    "--temp-values": {"help": "e.g. '1,2'"},
    "--policy": {"help": "first | seeded:N | seeded-history:N"},
    "--path-cap": {"type": int},
    "--state-cap": {"type": int},
}

# name -> (help, flags in --help order, handler)
COMMANDS = {
    "refine": ("partial-evaluation refinement", ("--S",), _cmd_refine),
    "invariants": ("per-location invariants", (), _cmd_invariants),
    "bound": ("expected runtime bound", (), _cmd_bound),
    "enumerate": (
        "exact finite-horizon path enumeration",
        ("--state", "--horizon", "--temp-values", "--policy", "--path-cap"),
        _cmd_enumerate,
    ),
    "simulate": (
        "Monte-Carlo runtime estimate",
        ("--state", "--samples", "--step-cap", "--seed", "--temp-values", "--policy"),
        _cmd_simulate,
    ),
    "mdp-sup": (
        "supremum of truncated expected runtime",
        ("--state", "--horizon", "--temp-values", "--state-cap"),
        _cmd_mdp_sup,
    ),
    "check-embedding": (
        "verify the path embedding into the refinement",
        ("--S", "--state", "--horizon", "--temp-values", "--policy", "--path-cap"),
        _cmd_check_embedding,
    ),
    "export-dot": ("GraphViz rendering", (), _cmd_export_dot),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcfr",
        description="Control-flow refinement and expected-runtime analysis "
        "for probabilistic integer programs",
    )
    parser.add_argument("--version", action="version", version=f"pcfr {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, handler) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("program", help="path to a .pip program")
        sub.add_argument("--config", help="JSON config file")
        sub.add_argument("--out", help="write output to a file instead of stdout")
        sub.add_argument(
            "--format", choices=("text", "json", "dot"), default="text", help="output format"
        )
        for flag in flags:
            sub.add_argument(flag, **FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        program = _load_program(args.program)
        result, text, code = args.handler(args, config, program)
    except StateSpaceCapExceeded as exc:
        print(f"pcfr: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as exc:
        print(f"pcfr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        text = json.dumps(envelope(args.command, result), indent=2, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"pcfr: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
