"""Seeded input generators for the benchmark workloads.

Every program is produced here as ``.pip`` text, so the benchmark owns
its inputs: editing the test suite or the shipped example programs
cannot move a workload.
"""

from __future__ import annotations

import random

# The worked example (programs/fig1.pip): a coin-flipping loop feeding
# a countdown loop.  Its expected runtime from x = 0 is 3 + 2*y, but no
# constant or affine ranking certificate exists without refinement.
FIG1 = """\
vars x, y;
start l0;
trans t0 { from l0; guard u > 0; update x := u; to l1; }
gt coin {
  from l1;
  guard x > 0;
  branch t1a p=1/2 {} -> l1;
  branch t1b p=1/2 { x := 0 } -> l1;
}
trans t2 { from l1; guard y > 0 && x = 0; to l2; }
trans t3 { from l2; update y := y - 1; to l1; }
"""

# Its refinement (programs/fig2.pip): bounded by 3 + 2*y.
FIG2 = """\
vars x, y;
start l0;
trans t0p { from l0; guard u > 0; update x := u; to l1; }
gt coinp {
  from l1;
  guard x > 0;
  branch t1ap p=1/2 {} -> l1;
  branch t1bp p=1/2 { x := 0 } -> l1[x=0];
}
trans t2p { from l1[x=0]; guard y > 0 && x = 0; to l2[x=0]; }
trans t3p { from l2[x=0]; guard x = 0; update y := y - 1; to l1[x=0]; }
"""

# A one-variable symmetric random walk absorbed at 0.  Started from
# x = 3 it has 19,304 admissible paths of length 16 and 37,179 of
# length 17 (terminated paths stop branching).
WALK = """\
vars x;
start l0;
trans t0 { from l0; to l1; }
gt step {
  from l1;
  guard x > 0;
  branch down p=1/2 { x := x - 1 } -> l1;
  branch up p=1/2 { x := x + 1 } -> l1;
}
"""


def chain(k: int) -> str:
    """k copies of fig1's coin/countdown gadget in sequence.

    Gadget i owns x_i and y_i, is entered through ``e_i`` (u > 0 ->
    x_i := u) and left through ``out_i`` (y_i <= 0 && x_i = 0).  After
    refinement on every transition except the entries, its expected
    runtime bound is 4k + 2*y0 + ... + 2*y(k-1).
    """
    names = ", ".join(f"x{i}, y{i}" for i in range(k))
    lines = [f"vars {names};", "start a0;"]
    for i in range(k):
        after = f"a{i + 1}" if i + 1 < k else "done"
        lines += [
            f"trans e{i} {{ from a{i}; guard u > 0; update x{i} := u; to c{i}; }}",
            f"gt coin{i} {{",
            f"  from c{i};",
            f"  guard x{i} > 0;",
            f"  branch h{i} p=1/2 {{}} -> c{i};",
            f"  branch z{i} p=1/2 {{ x{i} := 0 }} -> c{i};",
            "}",
            f"trans d{i} {{ from c{i}; guard y{i} > 0 && x{i} = 0; to w{i}; }}",
            f"trans s{i} {{ from w{i}; update y{i} := y{i} - 1; to c{i}; }}",
            f"trans out{i} {{ from c{i}; guard y{i} <= 0 && x{i} = 0; to {after}; }}",
        ]
    return "\n".join(lines) + "\n"


def chain_bound(k: int) -> str:
    """The closed-form bound of :func:`chain`, as the library renders it."""
    return " + ".join([str(4 * k)] + [f"2*y{i}" for i in range(k)])


def _plus(text: str, c: int) -> str:
    return f"{text} + {c}" if c >= 0 else f"{text} - {-c}"


def _affine(rng: random.Random, pvs: list[str], temp: str | None) -> str:
    v = rng.choice(pvs)
    text = v if rng.choice([1, 1, -1]) == 1 else f"-{v}"
    c = rng.randint(-2, 2)
    if c:
        text = _plus(text, c)
    if temp is not None and rng.random() < 0.5:
        text += f" + {temp}"
    return text


def random_program(rng: random.Random) -> str:
    """A small well-formed program with bounded-drift updates.

    2-4 locations, 1-2 program variables, sometimes a temporary; guards
    have at most one atom and updates are shifts, constants or copies.
    """
    locations = [f"q{i}" for i in range(rng.randint(2, 4))]
    pvs = ["a", "b"][: rng.randint(1, 2)]
    temp = "w" if rng.random() < 0.4 else None
    lines = [f"vars {', '.join(pvs)};", "start q0;"]
    lines += [f"loc {q};" for q in locations[1:]]

    def guard() -> str:
        if rng.random() >= 0.8:
            return ""
        rel = rng.choice(["<", "<=", ">=", ">", "="])
        if rel == "=" and rng.random() < 0.5:
            rel = ">="
        lhs = _affine(rng, pvs, temp if rng.random() < 0.3 else None)
        return f" guard {lhs} {rel} {rng.randint(-2, 2)};"

    def update() -> str:
        images = []
        for v in pvs:
            roll = rng.random()
            if roll < 0.45:
                continue
            if roll < 0.7:
                images.append(_plus(f"{v} := {v}", rng.randint(-2, 2)))
            elif roll < 0.85:
                images.append(f"{v} := {rng.randint(-2, 2)}")
            elif temp is not None and roll < 0.92:
                images.append(f"{v} := {temp}")
            else:
                shift = rng.randint(-1, 1)
                images.append(_plus(f"{v} := {rng.choice(pvs)}", shift))
        return ", ".join(images)

    counter = 0
    n_gts = 0
    for i, source in enumerate(locations):
        for _ in range(1 if i == 0 else rng.randint(0, 2)):
            g = guard()
            probs = ["1"] if rng.random() < 0.5 else rng.choice([["1/2", "1/2"], ["1/3", "2/3"]])
            branches = []
            for prob in probs:
                target = rng.choice(locations[1:])
                branches.append(f"  branch t{counter} p={prob} {{ {update()} }} -> {target};")
                counter += 1
            lines += [f"gt g{n_gts} {{", f"  from {source};{g}", *branches, "}"]
            n_gts += 1
    return "\n".join(lines) + "\n"


def corpus(seed: int, size: int, population: int) -> list[tuple[int, str]]:
    """``size`` programs drawn by the seed, in the seed's order, from a
    fixed population of random programs, with their population index.

    A few programs in a hundred take tens of times the median, so the
    total time of corpora drawn afresh for each seed varied by about ten
    per cent.  Drawing 600 of one population of 750 leaves a fifth of
    that variance.
    """
    rng = random.Random("refine-corpus")
    programs = [random_program(rng) for _ in range(population)]
    chosen = random.Random(f"refine-corpus:{seed}").sample(range(population), size)
    return [(index, programs[index]) for index in chosen]
