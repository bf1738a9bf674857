import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import _corpus
from _oracles import isomorphic
from pcfr.cli import main
from pcfr.syntax import Atom, Polynomial, pv
from pcfr.textfmt import (
    ParseError,
    ProgramError,
    parse_atom,
    parse_constraint,
    parse_program,
    parse_state,
    print_dot,
    print_program,
)

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())

X, Y = pv("x"), pv("y")


# --- parsing -------------------------------------------------------------------


def test_parse_worked_example_counts(fig1_parsed):
    assert len(fig1_parsed.locations) == 3
    assert len(fig1_parsed.gts) == 4
    assert len(fig1_parsed.transitions) == 5


def test_parse_refined_example_counts(fig2_parsed):
    assert len(fig2_parsed.locations) == 4
    assert len(fig2_parsed.transitions) == 5
    coin = [g for g in fig2_parsed.gts if len(g.members) == 2]
    assert len(coin) == 1
    assert {t.name for t in coin[0].members} == {"t1ap", "t1bp"}


def test_parsed_files_match_builders(fig1, fig1_parsed):
    assert isomorphic(fig1, fig1_parsed)


def test_bad_probability_sum_rejected():
    text = """
    vars x;
    start l0;
    gt g { from l0; branch a p=1/2 {} -> l1; branch b p=1/3 {} -> l1; }
    """
    with pytest.raises(ProgramError, match="sums to 5/6"):
        parse_program(text)


def test_syntax_error_carries_position():
    text = "vars x;\nstart l0;\ntrans t { from l0; to ; }\n"
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert err.value.line == 3
    assert err.value.column > 0


def test_zero_probability_denominator_is_a_parse_error():
    text = "vars x;\nstart l0;\ngt g { from l0; branch a p=1/0 {} -> l1; }\n"
    with pytest.raises(ParseError, match="zero probability denominator") as err:
        parse_program(text)
    assert (err.value.line, err.value.column) == (3, text.splitlines()[2].index("0 {") + 1)


def test_unknown_update_variable_is_validation_error():
    text = """
    vars x;
    start l0;
    trans t { from l0; update z := 1; to l1; }
    """
    with pytest.raises(ProgramError, match="unknown variables z"):
        parse_program(text)


def test_labeled_location_tokens_are_canonical():
    a = parse_program(
        "vars x;\nstart l0;\ntrans t { from l0; to l1[x=0]; }\n"
    )
    b = parse_program(
        "vars x;\nstart l0;\ntrans t { from l0; to l1[0 = x]; }\n"
    )
    assert a.locations[-1].name == b.locations[-1].name
    assert a.locations[-1].display() == "l1[x=0]"


HEADER = "vars x;\nstart l0;\n"


def test_parse_grouping_true_guards_and_unnamed_branches():
    """A parenthesised sum, a ``true`` guard, and unnamed branches, which
    are numbered across the whole document: ``h``'s first is ``h_2``."""
    p = parse_program(
        HEADER
        + "trans t { from l0; guard true; update x := (x + 1) * 2; to l1; }\n"
        + "gt g { from l1; branch p=1/2 {} -> l2; branch p=1/2 { x := 0 } -> l2; }\n"
        + "gt h { from l2; guard x > 0; branch p=1/3 {} -> l3; branch k p=2/3 {} -> l3; }\n"
    )
    assert [t.name for t in p.transitions] == ["t", "g_0", "g_1", "h_2", "k"]
    assert [g.name for g in p.gts] == ["t", "g", "h"]
    t = p.transition("t")
    assert t.guard.is_true()
    assert t.update.image_of(X) == 2 * Polynomial.var(X) + 2


def _parse_constraint(text):
    return parse_constraint(text, parse_program(HEADER))


PARSE_ERRORS = [
    pytest.param(parse_program, HEADER + "trans t { from l0; guard x > 0 $ ; to l1; }\n",
                 "3:32: unexpected character '$'", id="character"),
    pytest.param(parse_program, HEADER + "trans t { from l0; guard x + 1; to l1; }\n",
                 "3:31: expected a relation, found ';'", id="relation"),
    pytest.param(parse_program, HEADER + "trans t { to l1; }\n",
                 "3:11: expected 'from', found 'to'", id="from"),
    pytest.param(parse_program, HEADER + "trans t { from l0; guard x > 0 to l1; }\n",
                 "3:32: expected ';' after constraint", id="guard-end"),
    pytest.param(parse_program, HEADER + "trans t { from l0; guard x ^ y > 0; to l1; }\n",
                 "3:30: exponent must be an integer literal", id="exponent"),
    pytest.param(parse_program, HEADER + "trans t { from l0; guard x ^ 17 > 0; to l1; }\n",
                 "3:30: exponent must be at most 16, found 17", id="exponent-bound"),
    pytest.param(parse_program, HEADER + "gt g { from l0; branch a p=x {} -> l1; }\n",
                 "3:28: expected a probability", id="probability"),
    pytest.param(parse_program, HEADER + "gt g { from l0; branch a p=1/y {} -> l1; }\n",
                 "3:30: expected a denominator", id="denominator"),
    pytest.param(parse_program, HEADER + "gt g { from l0; }\n",
                 "3:1: gt 'g' has no branches", id="no-branches"),
    pytest.param(parse_program, "vars x;\ntrans t { from l0; to l1; }\n",
                 "3:1: program has no 'start' declaration", id="no-start"),
    pytest.param(parse_program, HEADER + "branch b;\n",
                 "3:1: expected 'vars', 'start', 'loc', 'trans' or 'gt', found 'branch'", id="item"),
    pytest.param(parse_program, HEADER + "trans t { from l0; to l1; }\ntrans t { from l1; to l2; }\n",
                 "4:7: duplicate transition name 't'", id="duplicate-trans"),
    pytest.param(parse_program,
                 HEADER + "gt g { from l0; branch a p=1 {} -> l1; }\n"
                 + "gt h { from l1; branch b p=1/2 {} -> l2; branch a p=1/2 {} -> l2; }\n",
                 "4:49: duplicate transition name 'a'", id="duplicate-branch"),
    pytest.param(parse_program,
                 HEADER + "gt g { from l0; branch g_1 p=1 {} -> l1; }\n"
                 + "gt g { from l1; branch p=1 {} -> l2; }\n",
                 "4:4: duplicate gt name 'g'", id="duplicate-gt"),
    pytest.param(parse_program,
                 HEADER + "gt g { from l0; branch h_0 p=1 {} -> l1; }\n"
                 + "gt h { from l1; branch p=1 {} -> l2; }\n",
                 "4:17: duplicate transition name 'h_0'", id="duplicate-unnamed-branch"),
    pytest.param(parse_program,
                 HEADER + "trans t { from l0; guard y > 0; update x := y; to l1; }\nvars y;\n",
                 "4:6: 'y' is declared after its use as a temporary", id="late-vars"),
    pytest.param(parse_program, HEADER + "trans t { from l0; update x := 0, x := 5; to l1; }\n",
                 "3:35: 'x' is assigned twice", id="assigned-twice"),
    pytest.param(parse_program, HEADER + "start l1;\n",
                 "3:1: duplicate 'start' declaration", id="duplicate-start"),
    pytest.param(parse_program, HEADER + "trans t { from l0; guard x > " + "1" * 5000 + "; to l1; }\n",
                 "3:30: integer literal too long (5000 digits)", id="long-literal"),
    pytest.param(_parse_constraint, "x > 0 y",
                 "1:7: trailing input after constraint", id="trailing"),
]


@pytest.mark.parametrize("parse,text,message", PARSE_ERRORS)
def test_parse_error_names_line_and_column(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    line, column = message.split(":")[:2]
    assert (err.value.line, err.value.column) == (int(line), int(column))


@pytest.mark.parametrize("module", ["pcfr.textfmt", "pcfr.semantics"])
def test_text_format_loads_no_analysis(module):
    """Parsing and printing, and the executable semantics, need the
    program model alone: importing the text format or the semantics loads
    neither the refinement nor the linear-arithmetic stack."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    loaded = set(run.stdout.split())
    assert module in loaded and "pcfr.model" in loaded
    analyses = {"pcfr.linear", "pcfr.ratlp", "pcfr.refine", "pcfr.abstraction", "pcfr.invariants"}
    assert not loaded & analyses, sorted(loaded & analyses)


def test_no_assert_statement_outside_test_modules():
    """Every check of the library and of the tests' helpers raises, so it
    still runs under ``python -O``: pytest rewrites the asserts of test
    modules and ``conftest.py`` alone, and ``-O`` strips any other."""
    sources = sorted((ROOT / "src" / "pcfr").glob("*.py")) + sorted((ROOT / "tests").glob("_*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_every_traced_name_resolves():
    """Every (module, attribute) that the benchmark's tracer wraps
    (``perfbench/spans.py``'s ``WRAPPED``) is a name of ``pcfr``, so a
    renamed or removed function fails here and not first in a traced run."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for module, attr, _ in spans.WRAPPED
        if not hasattr(importlib.import_module(f"pcfr.{module}"), attr)
    ]
    assert not missing, missing


def test_parse_constraint_and_atom(fig1_parsed):
    c = parse_constraint("x > 0 && y <= 3", fig1_parsed)
    assert len(c.atoms) == 2
    atom = parse_atom("x = 0", fig1_parsed)
    assert atom == Atom(Polynomial.var(X), "=", 0)
    with pytest.raises(ValueError):
        parse_atom("x = 0 && y = 0", fig1_parsed)


def test_parse_nonlinear_and_powers(fig1_parsed):
    c = parse_constraint("x^2 - y*x <= 4", fig1_parsed)
    assert not c.is_linear()


def test_parse_state(fig1_parsed):
    state = parse_state("x=0, y=-2, u=7", fig1_parsed)
    assert state[X] == 0 and state[Y] == -2
    assert [v.name for v in state if not v.is_program] == ["u"]
    with pytest.raises(ValueError):
        parse_state("x=", fig1_parsed)


def test_parse_state_rejects_unknown_names(fig1_parsed):
    with pytest.raises(ValueError, match="unknown variable 'yy'"):
        parse_state("x=0, y=2, yy=3", fig1_parsed)


def test_parse_state_rejects_repeated_names(fig1_parsed):
    with pytest.raises(ValueError, match="'x' is assigned twice"):
        parse_state("x=0, x=5", fig1_parsed)


# --- printing ------------------------------------------------------------------


def test_round_trip_on_corpus(fig1_parsed, fig2_parsed):
    for program in (fig1_parsed, fig2_parsed):
        text = print_program(program)
        again = parse_program(text)
        assert again == program
        assert print_program(again) == text


def test_round_trip_on_random_programs():
    rng = random.Random(31)
    for _ in range(25):
        p = _corpus.random_pip(rng)
        text = print_program(p)
        again = parse_program(text)
        assert isomorphic(p, again)
        assert print_program(again) == text


def test_print_deterministic(fig2_parsed):
    assert print_program(fig2_parsed) == print_program(fig2_parsed)


def test_dot_shapes(fig1_parsed, fig2_parsed):
    dot1 = print_dot(fig1_parsed)
    assert dot1.count("->") == 5 + 1  # five transitions plus the start marker
    assert dot1.count("style=dashed") == 2
    assert dot1.count('label="l') == 3
    dot2 = print_dot(fig2_parsed)
    assert dot2.count("->") == 5 + 1
    assert dot2.count('label="l') == 4
    empty = print_dot(
        parse_program("vars x;\nstart l0;\ntrans t { from l0; to l1; }\n")
    )
    assert empty.count("->") == 2


# --- CLI -----------------------------------------------------------------------


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_refine_golden(capsys, fig2_parsed, tmp_path):
    code, out, _ = _run(
        capsys,
        "refine",
        str(ROOT / "programs" / "fig1.pip"),
        "--config",
        str(ROOT / "programs" / "fig1.cfr.json"),
    )
    assert code == 0
    program_text = "".join(
        line + "\n" for line in out.splitlines() if not line.startswith("#")
    )
    assert isomorphic(parse_program(program_text), fig2_parsed)


def test_cli_bound_outputs_total(capsys):
    code, out, _ = _run(capsys, "bound", str(ROOT / "programs" / "fig2.pip"))
    assert code == 0
    assert "3 + 2*y" in out


def test_cli_bound_negative_exit(capsys):
    code, out, _ = _run(capsys, "bound", str(ROOT / "programs" / "fig1.pip"))
    assert code == 1
    assert "no finite bound" in out


def test_cli_enumerate_horizon_zero(capsys):
    code, out, _ = _run(
        capsys,
        "enumerate",
        str(ROOT / "programs" / "fig1.pip"),
        "--state",
        "x=0, y=1",
        "--horizon",
        "0",
        "--temp-values",
        "1",
    )
    assert code == 0
    assert "1 admissible paths" in out
    assert "total mass: 1" in out


def test_cli_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bound", "prog.pip", "--nonsense"])
    assert err.value.code == 2


def test_cli_parse_error_exits_2(capsys, monkeypatch, tmp_path):
    """One line: the path as given, then the parser's line:column: message."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.pip").write_text("vars x;\nstart l0;\ntrans { broken }\n")
    err = _usage_error(capsys, "bound", "bad.pip")
    assert err == "pcfr: bad.pip: 3:7: expected an identifier, found '{'\n"


def test_cli_missing_state_exits_2(capsys):
    code, _, err = _run(
        capsys, "enumerate", str(ROOT / "programs" / "fig1.pip")
    )
    assert code == 2
    assert "initial state" in err


# Pruning the refinement on {a} removes t1, and with it the temporary u, so
# no policy of the refinement can mirror the seeded one, which chooses u.
UNMIRRORED = """\
vars x, y;
start l0;
trans t0 { from l0; update x := 0; to l1; }
trans t1 { from l1; guard x > 0 && u > 0; update y := u; to l2; }
trans a { from l1; guard x <= 0; update y := y + 1; to l2; }
trans b { from l1; guard x <= 0; update y := y + 2; to l2; }
"""


def test_cli_check_embedding_failure_exits_1(capsys, tmp_path):
    program = tmp_path / "unmirrored.pip"
    program.write_text(UNMIRRORED)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"S": ["a"]}))
    argv = (
        "check-embedding", str(program), "--config", str(config), "--state", "x=0, y=0",
        "--horizon", "3", "--temp-values", "1,2", "--policy", "seeded:0",
    )
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "embedding FAILED: embedded path is not admissible in the refinement"
    assert lines[1].startswith("counterexample: (l0, {x=0, y=0}) --t0--> ")
    assert len(lines) == 2
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    result = report["result"]
    assert result["ok"] is False
    assert result["failure"] == "embedded path is not admissible in the refinement"
    assert lines[1] == f"counterexample: {result['witness']}"


def test_cli_policy_objects_match_policy_strings(capsys, tmp_path):
    """The object forms of config ``policy`` print what the string forms
    print, on a program where the first-enabled, seeded and seeded
    history-dependent policies each print something else."""
    run = (
        "enumerate", str(ROOT / "programs" / "suite" / "coin_or_step.pip"),
        "--state", "x=3", "--horizon", "8",
    )
    printed = {}
    for spec, text in [
        ({"kind": "first"}, "first"),
        ({"kind": "seeded", "seed": 3}, "seeded:3"),
        ({"kind": "seeded", "seed": 3, "history": True}, "seeded-history:3"),
    ]:
        config = tmp_path / "policy.json"
        config.write_text(json.dumps({"policy": spec}))
        code, from_object, _ = _run(capsys, *run, "--config", str(config))
        assert code == 0
        code, printed[text], _ = _run(capsys, *run, "--policy", text)
        assert code == 0
        assert from_object == printed[text], spec
    assert len(set(printed.values())) == 3


def _usage_error(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    return err


FIG1_RUN = ("programs/fig1.pip", "--state", "x=0, y=2")
FIG1_EMBED = ("programs/fig1.pip", "--config", "programs/fig1.cfr.json")
FIG1_S = {"S": ["t1a", "t1b", "t2", "t3"]}
LONG = "1" * 5000  # above the interpreter's 4,300-digit conversion limit
# (argv, config, stderr): a config is a value for json to write, or the
# file's bytes where json cannot write them.  A value given twice in
# --temp-values or config temp_values is named like a state variable
# assigned twice; it would list every scheduler candidate once per repeat.
USAGE_ERRORS = [
    pytest.param(("enumerate", "programs/fig1.pip", "--state", "x=0, y=2, yy=3"), None,
                 "pcfr: initial state names unknown variable 'yy'\n", id="state-unknown"),
    pytest.param(("enumerate", "programs/fig1.pip", "--state", "x=0, x=5, y=2"), None,
                 "pcfr: initial state: 'x' is assigned twice\n", id="state-repeated"),
    pytest.param(("enumerate", "programs/fig1.pip", "--state", f"x={LONG}, y=2"), None,
                 "pcfr: initial state: integer literal for 'x' too long (5000 digits)\n",
                 id="state-long-int"),
    pytest.param(("enumerate", *FIG1_RUN), f'{{"horizon": {LONG}}}'.encode(),
                 "pcfr: cannot read config: integer literal too long (more than 4300 digits)\n",
                 id="config-long-int"),
    pytest.param(("mdp-sup", *FIG1_RUN, "--temp-values", "1,1"), None,
                 "pcfr: temp_values: 1 is listed twice\n", id="temp-values-repeated"),
    pytest.param(("enumerate", "programs/fig1.pip"),
                 {"state": {"x": 0, "y": 2}, "temp_values": [2, 1, 2]},
                 "pcfr: temp_values: 2 is listed twice\n", id="temp-values-repeated-config"),
    pytest.param(("check-embedding", *FIG1_EMBED, "--policy", "seeded-history:3"), None,
                 "pcfr: check-embedding needs a history-independent policy (first or seeded:N)\n",
                 id="check-embedding-history-policy"),
    pytest.param(("enumerate", *FIG1_RUN, "--horizon", "-1"), None,
                 "pcfr: horizon must be nonnegative\n", id="enumerate-horizon"),
    pytest.param(("mdp-sup", *FIG1_RUN, "--horizon", "-1"), None,
                 "pcfr: horizon must be nonnegative\n", id="mdp-sup-horizon"),
    pytest.param(("check-embedding", *FIG1_EMBED, "--horizon", "-1"), None,
                 "pcfr: horizon must be nonnegative\n", id="check-embedding-horizon"),
    pytest.param(("simulate", *FIG1_RUN, "--samples", "0"), None,
                 "pcfr: need at least one sample\n", id="simulate-samples"),
    pytest.param(("simulate", *FIG1_RUN, "--step-cap", "-1"), None,
                 "pcfr: step_cap must be nonnegative\n", id="simulate-step-cap"),
    pytest.param(("enumerate", *FIG1_RUN, "--horizon", "0", "--path-cap", "-1"), None,
                 "pcfr: path_cap must be nonnegative\n", id="enumerate-path-cap-horizon-0"),
    pytest.param(("enumerate", *FIG1_RUN, "--horizon", "10", "--path-cap", "-1"), None,
                 "pcfr: path_cap must be nonnegative\n", id="enumerate-path-cap-horizon-10"),
    pytest.param(("mdp-sup", *FIG1_RUN, "--state-cap", "-1"), None,
                 "pcfr: state_cap must be nonnegative\n", id="mdp-sup-state-cap"),
    pytest.param(("check-embedding", *FIG1_EMBED, "--path-cap", "-1"), None,
                 "pcfr: path_cap must be nonnegative\n", id="check-embedding-path-cap"),
    pytest.param(("enumerate", "programs/fig1.pip", "--state", "x=0"), None,
                 "pcfr: initial state does not bind y\n", id="state-unbound"),
    pytest.param(("enumerate", "programs/fig1.pip"), {"state": 3},
                 "pcfr: state must be an object or a string, got 3\n", id="state-type"),
    pytest.param(("enumerate", *FIG1_RUN), b"horizon: 3",
                 "pcfr: config is not valid JSON: Expecting value: line 1 column 1 (char 0)\n",
                 id="config-not-json"),
    pytest.param(("enumerate", *FIG1_RUN), [3],
                 "pcfr: config must be a JSON object\n", id="config-not-object"),
    pytest.param(("invariants", "no-such-program.pip"), None,
                 "pcfr: cannot read program: [Errno 2] No such file or directory:"
                 " 'no-such-program.pip'\n", id="program-unreadable"),
    pytest.param(("export-dot", "programs/fig1.pip", "--out", "no-such-directory/out.dot"), None,
                 "pcfr: cannot write output: [Errno 2] No such file or directory:"
                 " 'no-such-directory/out.dot'\n", id="out-unwritable"),
    pytest.param(("refine", "programs/fig1.pip"), None,
                 "pcfr: a refinement set is required (--S or config 'S')\n", id="refine-no-S"),
    pytest.param(("refine", "programs/fig1.pip"), {**FIG1_S, "alpha": ["x = 0"]},
                 "pcfr: config alpha must map location names to atom lists\n", id="alpha-list"),
    pytest.param(("refine", "programs/fig1.pip"), {**FIG1_S, "alpha": {"l9": ["x = 0"]}},
                 "pcfr: config alpha names unknown location 'l9'\n", id="alpha-location"),
]


def _with_config(tmp_path, argv, config):
    if config is None:
        return argv
    path = tmp_path / "config.json"
    path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    return (*argv, "--config", str(path))


@pytest.mark.parametrize("argv,config,message", USAGE_ERRORS)
def test_cli_usage_error_prints_its_message(capsys, monkeypatch, tmp_path, argv, config, message):
    """Exit 2, nothing on stdout and exactly the one line on stderr."""
    monkeypatch.chdir(ROOT)
    assert _usage_error(capsys, *_with_config(tmp_path, argv, config)) == message


# (file name, its bytes, argv, stderr): the config is read before the program
NOT_UTF8 = [
    pytest.param("bad.pip", b"vars x; # \xff\nstart l0;\n", ("invariants", "bad.pip"),
                 "pcfr: cannot read program: bad.pip: not UTF-8 at byte offset 10"
                 " (0xff, invalid start byte)\n", id="program-not-utf8"),
    pytest.param("cut.pip", b"vars x;\r\n# \xc3", ("bound", "cut.pip"),
                 "pcfr: cannot read program: cut.pip: not UTF-8 at byte offset 11"
                 " (0xc3, unexpected end of data)\n", id="program-cut-utf8"),
    pytest.param("bad.json", b'{"horizon": 1\xff}',
                 ("enumerate", str(ROOT / "programs" / "fig1.pip"), "--state", "x=0, y=2",
                  "--config", "bad.json"),
                 "pcfr: cannot read config: bad.json: not UTF-8 at byte offset 13"
                 " (0xff, invalid start byte)\n", id="config-not-utf8"),
]


@pytest.mark.parametrize("name,data,argv,message", NOT_UTF8)
def test_cli_file_not_utf8_names_the_file_and_offset(
    capsys, monkeypatch, tmp_path, name, data, argv, message
):
    """Exit 2 with one line naming the file, and the offset of the first
    byte that is not UTF-8, counted in the file's bytes (so before any
    newline translation)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(data)
    assert _usage_error(capsys, *argv) == message


BAD_SETTINGS = [
    pytest.param(("enumerate", *FIG1_RUN, "--temp-values", "a"), None, None, id="temp-values"),
    pytest.param(("enumerate", *FIG1_RUN, "--temp-values", ""), None, None,
                 id="temp-values-empty"),
    pytest.param(("simulate", *FIG1_RUN, "--temp-values", ""), None, None,
                 id="simulate-temp-values-empty"),
    pytest.param(("enumerate", *FIG1_RUN), {"temp_values": []}, None,
                 id="temp-values-empty-config"),
    pytest.param(("enumerate", *FIG1_RUN, "--policy", "seeded:x"), None, None, id="policy-seed"),
    pytest.param(("simulate", *FIG1_RUN, "--samples", "5"), None, "abc", id="PCFR_SEED"),
    pytest.param(("enumerate", *FIG1_RUN), {"horizon": "x"}, None, id="horizon"),
    pytest.param(("enumerate", *FIG1_RUN), {"policy": 3}, None, id="policy"),
    pytest.param(("enumerate", *FIG1_RUN), {"policy": {"kind": "seeded", "history": "false"}},
                 None, id="policy-history"),
    pytest.param(("enumerate", *FIG1_RUN), {"policy": {"kind": "seeded", "history": 1}},
                 None, id="policy-history-int"),
    pytest.param(("enumerate", *FIG1_RUN), {"policy": {"kind": "greedy"}}, None,
                 id="policy-kind"),
    pytest.param(("refine", "programs/fig1.pip"), {**FIG1_S, "split_equalities": "no"}, None,
                 id="split-equalities"),
    pytest.param(("refine", "programs/fig1.pip"), {**FIG1_S, "alpha": {"l1": ["x = = 0"]}},
                 None, id="alpha-atom"),
    pytest.param(("refine", "programs/fig1.pip"), {**FIG1_S, "alpha": {"l0": "x = 0"}},
                 None, id="alpha-string"),
    pytest.param(("bound", "programs/fig2.pip"), {"cover": [["nope"]]}, None, id="cover-name"),
    pytest.param(("bound", "programs/fig2.pip"), {"cover": [["t2p"]]}, None,
                 id="cover-partition"),
    pytest.param(("bound", "programs/fig1.pip"), {"cover": [["coin", "t2", "t3"], ["coin"]]},
                 None, id="cover-overlap"),
    pytest.param(("bound", "programs/fig2.pip"), {"cover": "t2p"}, None, id="cover-string"),
    pytest.param(("bound", "programs/fig2.pip"), {"cover": []}, None, id="cover-empty"),
    pytest.param(("enumerate", "programs/fig1.pip"), {"state": {"x": "0, y=5"}}, None,
                 id="state-value"),
    pytest.param(("export-dot", "programs/fig1.pip", "--config", "missing.json"), None, None,
                 id="export-dot-config"),
]


@pytest.mark.parametrize("argv,config,seed_env", BAD_SETTINGS)
def test_cli_bad_setting_is_a_usage_error(capsys, monkeypatch, tmp_path, argv, config, seed_env):
    monkeypatch.chdir(ROOT)
    if seed_env is not None:
        monkeypatch.setenv("PCFR_SEED", seed_env)
    err = _usage_error(capsys, *_with_config(tmp_path, argv, config))
    assert err.startswith("pcfr: ") and err.count("\n") == 1, err


def test_cli_deterministic_output(capsys):
    args = (
        "mdp-sup",
        str(ROOT / "programs" / "fig1.pip"),
        "--state",
        "x=0,y=1",
        "--horizon",
        "12",
        "--temp-values",
        "1,2",
    )
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_cli_out_file(capsys, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = _run(
        capsys,
        "export-dot",
        str(ROOT / "programs" / "fig1.pip"),
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert "digraph" in target.read_text()


JSON_COMMANDS = [
    ("refine", "fig1.pip", ["--config", str(ROOT / "programs" / "fig1.cfr.json")], 0),
    ("invariants", "fig1.pip", [], 0),
    ("bound", "fig2.pip", [], 0),
    ("bound", "fig1.pip", [], 1),
    (
        "enumerate",
        "fig1.pip",
        ["--state", "x=0,y=1", "--horizon", "4", "--temp-values", "1"],
        0,
    ),
    (
        "simulate",
        "fig1.pip",
        ["--state", "x=0,y=1", "--samples", "50", "--step-cap", "50", "--seed", "3", "--temp-values", "1"],
        0,
    ),
    (
        "mdp-sup",
        "fig1.pip",
        ["--state", "x=0,y=1", "--horizon", "6", "--temp-values", "1"],
        0,
    ),
    (
        "check-embedding",
        "fig1.pip",
        [
            "--config",
            str(ROOT / "programs" / "fig1.cfr.json"),
            "--state",
            "x=0,y=1",
            "--horizon",
            "6",
            "--temp-values",
            "1",
        ],
        0,
    ),
    ("export-dot", "fig1.pip", [], 0),
]


@pytest.mark.parametrize(
    "command,program,extra,expected",
    JSON_COMMANDS,
    ids=[f"{c}-{p.split('.')[0]}" for c, p, _, _ in JSON_COMMANDS],
)
def test_cli_json_reports_validate_against_schema(capsys, command, program, extra, expected):
    code, out, _ = _run(
        capsys,
        command,
        str(ROOT / "programs" / program),
        "--format",
        "json",
        *extra,
    )
    assert code == expected
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == command


def test_cli_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PCFR_SEED", "123")
    code, out, _ = _run(
        capsys,
        "simulate",
        str(ROOT / "programs" / "fig1.pip"),
        "--state",
        "x=0,y=1",
        "--samples",
        "20",
        "--step-cap",
        "50",
        "--temp-values",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out)["result"]["seed"] == 123


def test_cli_matches_golden_record():
    """Every command replays the pinned record byte for byte (see
    ``tests/_golden_cli.py``)."""
    import _golden_cli

    records = json.loads(_golden_cli.RECORD.read_text(encoding="utf-8"))
    assert [r["argv"] for r in records] == _golden_cli.INVOCATIONS
    changed = [
        " ".join(r["argv"]) for r in records if _golden_cli.run(r["argv"]) != r
    ]
    assert not changed, f"{len(changed)} invocations changed, first: {changed[0]}"
