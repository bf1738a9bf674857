"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public ``pcfr`` functions at the module attributes
their callers look them up through (``pcfr.refine.label``,
``pcfr.invariants.entails``, ``pcfr.ratlp.solve_lp`` ...), so no module
of the library changes.  Every call records a span: name, start, end,
parent span and operation id.  Spans are kept in flat arrays and
written out once, after the traced round.  Counters are kept per
operation, next to the spans.

A layer is the first component of a span name.  A span's self time is
its duration minus the time its child spans cover; ``syntax`` and
``model`` code is not wrapped, so it counts toward the self time of
whichever layer called it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "textfmt", "abstraction", "refine", "invariants", "linear",
    "ratlp", "bounds", "semantics",
)

# (module, attribute, span name): the call sites the tracer wraps.
WRAPPED = (
    ("textfmt", "parse_program", "textfmt.parse_program"),
    ("textfmt", "print_program", "textfmt.print_program"),
    ("abstraction", "heuristic_layers", "abstraction.heuristic_layers"),
    ("refine", "label", "abstraction.label"),
    ("abstraction", "entails", "linear.entails"),
    ("refine", "refine_and_prune", "refine.refine_and_prune"),
    ("refine", "refine", "refine.refine"),
    ("refine", "prune", "refine.prune"),
    ("refine", "constraint_satisfiability", "linear.constraint_satisfiability"),
    ("refine", "infer", "invariants.infer"),
    ("bounds", "infer", "invariants.infer"),
    ("invariants", "post_image_atoms", "invariants.post_image_atoms"),
    ("invariants", "entails", "linear.entails"),
    ("invariants", "project", "linear.project"),
    ("linear", "expression_bounds", "linear.expression_bounds"),
    ("bounds", "expression_bounds", "linear.expression_bounds"),
    ("bounds", "bound_program", "bounds.bound_program"),
    ("bounds", "default_cover", "bounds.default_cover"),
    ("bounds", "find_constant_plrf", "bounds.find_constant_plrf"),
    ("bounds", "find_linear_plrf", "bounds.find_linear_plrf"),
    ("bounds", "verify_plrf", "bounds.verify_plrf"),
    ("ratlp", "solve_lp", "ratlp.solve_lp"),
    ("semantics", "enumerate_paths", "semantics.enumerate_paths"),
    ("semantics", "expected_runtime_estimate", "semantics.expected_runtime_estimate"),
    ("semantics", "check_embedding", "semantics.check_embedding"),
    ("semantics", "mdp_sup_truncated", "semantics.mdp_sup_truncated"),
    ("semantics", "monte_carlo", "semantics.monte_carlo"),
    ("semantics", "step_distribution", "semantics.step_distribution"),
    ("semantics", "successors", "semantics.successors"),
    ("semantics", "scheduler_candidates", "semantics.scheduler_candidates"),
)


def _lp_size(tracer, args, kwargs, result) -> None:
    constraints = args[0]
    objective = args[1] if len(args) > 1 else kwargs.get("objective")
    extra = args[2] if len(args) > 2 else kwargs.get("extra_variables", ())
    keys = {k for con in constraints for k, _ in con.coeffs}
    keys.update(objective or ())
    keys.update(extra)
    tracer.peak("ratlp.rows_max", len(constraints))
    tracer.peak("ratlp.cols_max", len(keys))
    tracer.count("ratlp.infeasible", result.status == "infeasible")


def _bound_report(tracer, args, kwargs, result) -> None:
    if result.ok:
        tracer.count(
            "bounds.affine_certificates",
            sum(e.plrf.kind == "linear" for e in result.bound.entries),
        )


def _refinement(tracer, args, kwargs, result) -> None:
    refined = result[0]
    tracer.count("refine.unrolling_steps", refined.stats.unrolling_steps)
    tracer.count("refine.locations", len(refined.program.locations))
    tracer.count("refine.transitions", len(refined.program.transitions))
    tracer.count("refine.pruned_locations", refined.stats.pruned_locations)


AFTER = {
    "ratlp.solve_lp": _lp_size,
    "bounds.bound_program": _bound_report,
    "bounds.default_cover": lambda t, a, k, r: t.count("bounds.cover_groups", len(r)),
    "refine.refine_and_prune": _refinement,
    "abstraction.heuristic_layers": lambda t, a, k, r: t.count(
        "abstraction.layer_atoms", sum(len(atoms) for atoms in r.layers.values())
    ),
    "invariants.infer": lambda t, a, k, r: t.count(
        "invariants.invariant_atoms", sum(len(c) for c in r.inv.values())
    ),
    "semantics.enumerate_paths": lambda t, a, k, r: t.count("semantics.paths", len(r.paths)),
    "semantics.check_embedding": lambda t, a, k, r: t.count(
        "semantics.embedding_paths", r.checked_paths
    ),
    "semantics.monte_carlo": lambda t, a, k, r: t.count(
        "semantics.mc_steps", round(r.mean * r.samples)
    ),
}


class Tracer:
    """Spans and per-operation counters of one traced round."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.ops: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_id.get(name)
        if name_id is None:
            name_id = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.ops) - 1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.ops[-1]["counts"][name] += value

    def peak(self, name: str, value: int) -> None:
        peaks = self.ops[-1]["peaks"]
        peaks[name] = max(peaks.get(name, 0), value)

    def begin_operation(self, label: str, kind: str) -> int:
        self.ops.append({"label": label, "kind": kind, "counts": Counter(), "peaks": {}})
        return self._open(f"op.{kind}")

    def end_operation(self, index: int) -> None:
        """Close the operation's span and take its ``entails`` cache
        statistics; the runner clears the cache, and with it the
        statistics, before each operation."""
        self._close(index)
        info = self.lib.linear.entails.cache_info()
        self.count("linear.entails_hits", info.hits)
        self.count("linear.entails_misses", info.misses)

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = getattr(self.lib, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name, AFTER.get(span_name)))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, original, span_name: str, after):
        open_span, close_span = self._open, self._close
        tracer = self

        def traced(*args, **kwargs):
            index = open_span(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the traced round: the ``per_layer`` list of
        BENCHMARK.json except the overhead, which needs the untraced round."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        layer_self: Counter = Counter()
        query_self: Counter = Counter()
        under: Counter = Counter()  # (child name, parent name) -> calls
        under_s: Counter = Counter()  # (child name, parent name) -> seconds
        own = self.self_times()
        names = self.names
        for index, name_id in enumerate(self.name):
            name = names[name_id]
            duration = self.end[index] - self.start[index]
            calls[name] += 1
            inclusive[name] += duration
            layer = name.split(".", 1)[0]
            layer_self[layer] += own[index]
            if layer == "semantics":
                query_self[self.ops[self.op[index]]["kind"]] += own[index]
            parent = self.parent[index]
            if parent >= 0:
                key = (name, names[self.name[parent]])
                under[key] += 1
                under_s[key] += duration
        counts: Counter = Counter()
        peaks: dict[str, int] = {}
        for op in self.ops:
            counts.update(op["counts"])
            for key, value in op["peaks"].items():
                peaks[key] = max(peaks.get(key, 0), value)
        lookups = counts["linear.entails_hits"] + counts["linear.entails_misses"]

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "ratlp.solve_calls": calls["ratlp.solve_lp"],
            "ratlp.solve_s": inclusive["ratlp.solve_lp"],
            "ratlp.rows_max": peaks.get("ratlp.rows_max", 0),
            "ratlp.cols_max": peaks.get("ratlp.cols_max", 0),
            "ratlp.infeasible": counts["ratlp.infeasible"],
            "bounds.bound_program_s": inclusive["bounds.bound_program"],
            "bounds.cover_groups": counts["bounds.cover_groups"],
            "bounds.constant_s": inclusive["bounds.find_constant_plrf"],
            "bounds.affine_s": inclusive["bounds.find_linear_plrf"],
            "bounds.verify_s": inclusive["bounds.verify_plrf"],
            "bounds.affine_certificates": counts["bounds.affine_certificates"],
            "bounds.reinfer_s": under_s[("invariants.infer", "bounds.bound_program")],
            "linear.entails_calls": calls["linear.entails"],
            "linear.entails_s": inclusive["linear.entails"],
            "linear.entails_lookups": lookups,
            "linear.entails_hit_ratio": counts["linear.entails_hits"] / lookups if lookups else 0.0,
            "linear.satisfiability_calls": calls["linear.constraint_satisfiability"],
            "linear.project_calls": calls["linear.project"],
            "linear.project_s": inclusive["linear.project"],
            "linear.expression_bounds_calls": calls["linear.expression_bounds"],
            "invariants.infer_calls": calls["invariants.infer"],
            "invariants.infer_s": inclusive["invariants.infer"],
            "invariants.post_image_s": inclusive["invariants.post_image_atoms"],
            "invariants.invariant_atoms": counts["invariants.invariant_atoms"],
            "refine.refine_s": inclusive["refine.refine"],
            "refine.prune_s": inclusive["refine.prune"],
            "refine.unrolling_steps": counts["refine.unrolling_steps"],
            "refine.locations": counts["refine.locations"],
            "refine.transitions": counts["refine.transitions"],
            "refine.pruned_locations": counts["refine.pruned_locations"],
            "abstraction.heuristic_layers_s": inclusive["abstraction.heuristic_layers"],
            "abstraction.layer_atoms": counts["abstraction.layer_atoms"],
            "abstraction.label_calls": calls["abstraction.label"],
            "abstraction.label_s": inclusive["abstraction.label"],
            "textfmt.parse_s": inclusive["textfmt.parse_program"],
            "textfmt.print_s": inclusive["textfmt.print_program"],
            "semantics.paths": counts["semantics.paths"],
            "semantics.embedding_paths": counts["semantics.embedding_paths"],
            "semantics.successors_calls": calls["semantics.successors"],
            "semantics.candidates_calls": calls["semantics.scheduler_candidates"],
            "semantics.mdp_configs": under[
                ("semantics.scheduler_candidates", "semantics.mdp_sup_truncated")
            ],
            "semantics.mc_steps": counts["semantics.mc_steps"],
            "semantics.mc_distributions": under[
                ("semantics.step_distribution", "semantics.monte_carlo")
            ],
            "semantics.enumerate_self_s": query_self["enumerate"],
            "semantics.embedding_self_s": query_self["embedding"],
            "semantics.mdp_self_s": query_self["mdp"],
            "semantics.simulate_self_s": query_self["simulate"],
            "trace.spans": len(self.start),
        })
        return out

    def operation_rows(self) -> list[dict]:
        """Per-operation LP work, for the baseline rows of the detail line."""
        lp_calls: Counter = Counter()
        lp_name = self._name_id.get("ratlp.solve_lp")
        for index, name_id in enumerate(self.name):
            if name_id == lp_name:
                lp_calls[self.op[index]] += 1
        return [
            {
                "op": op["label"],
                "lp_calls": lp_calls[i],
                "lp_rows_max": op["peaks"].get("ratlp.rows_max", 0),
                "lp_cols_max": op["peaks"].get("ratlp.cols_max", 0),
            }
            for i, op in enumerate(self.ops)
        ]

    def write(self, path) -> None:
        """All spans as tab-separated name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for index, name_id in enumerate(self.name):
                handle.write(
                    f"{names[name_id]}\t{self.start[index]:.9f}\t{self.end[index]:.9f}"
                    f"\t{self.parent[index]}\t{self.op[index]}\n"
                )
