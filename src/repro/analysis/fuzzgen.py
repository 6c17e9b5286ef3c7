"""Random Zeus program generation for differential fuzzing.

The fuzz suite's single most valuable property is *differential*: the
dataflow engine is the semantics oracle (it executes the paper's firing
rules directly), and every other engine -- levelized scalar, the
bit-parallel codegen kernel -- must agree with it observation for
observation.  This module owns the three pieces every fuzz consumer
shares:

* :func:`generate_program` -- random programs well beyond pure
  combinational DAGs: multiplex (tri-state) nets with guarded and
  deliberately conflictable drivers, REG pipelines with guarded loads,
  and ``FOR``/``WHEN`` meta-programmed replication through a
  parameterized subcomponent;
* :func:`differential_check` -- run one program on all three engines
  and compare per-cycle outputs, final register state, and recorded
  violations (per lane on the codegen kernel);
* :func:`shrink` -- statement-level delta debugging: greedily drop
  statements while the failure predicate keeps failing, so a nightly
  fuzz catch is reported as a minimal reproducing program.

``tests/test_fuzz.py`` drives the fast deterministic slice;
``scripts/fuzz_nightly.py`` runs the long seeded budget and uploads
shrunken failures as CI artifacts.

The legacy pure-DAG helpers (:func:`build_dag`, :func:`render_zeus`,
:func:`eval_dag`) live here too so the tests and the nightly runner
share one implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

OPS = ["AND", "OR", "NAND", "NOR", "XOR"]


# -- legacy pure-DAG generator (kept for the fast fuzz slice) -------------


def build_dag(rng, n_inputs, n_nodes):
    """Nodes are (op, operand indices); operand < current index refers to
    a previous node, operand < n_inputs to an input."""
    nodes = []
    for i in range(n_nodes):
        op = rng.choice(OPS + ["NOT"])
        pool = n_inputs + i
        if op == "NOT":
            args = [rng.randrange(pool)]
        else:
            args = [rng.randrange(pool) for _ in range(rng.choice([2, 2, 3]))]
        nodes.append((op, args))
    return nodes


def render_zeus(n_inputs, nodes):
    ins = ", ".join(f"i{k}" for k in range(n_inputs))
    lines = []
    for i, (op, args) in enumerate(nodes):
        def name(j):
            return f"i{j}" if j < n_inputs else f"s{j - n_inputs}"

        if op == "NOT":
            expr = f"NOT {name(args[0])}"
        else:
            expr = f"{op}({', '.join(name(a) for a in args)})"
        lines.append(f"    s{i} := {expr};")
    body = "\n".join(lines)
    sigs = ", ".join(f"s{i}" for i in range(len(nodes)))
    return f"""
TYPE t = COMPONENT (IN {ins}: boolean; OUT y: boolean) IS
SIGNAL {sigs}: boolean;
BEGIN
{body}
    y := s{len(nodes) - 1}
END;
SIGNAL u: t;
"""


def eval_dag(n_inputs, nodes, inputs):
    values = list(inputs)
    for op, args in nodes:
        vals = [values[a] for a in args]
        if op == "NOT":
            out = 1 - vals[0]
        elif op == "AND":
            out = int(all(vals))
        elif op == "OR":
            out = int(any(vals))
        elif op == "NAND":
            out = 1 - int(all(vals))
        elif op == "NOR":
            out = 1 - int(any(vals))
        else:  # XOR
            out = sum(vals) % 2
        values.append(out)
    return values[-1]


# -- the extended generator ----------------------------------------------

_META_TEMPLATE = """\
TYPE chain(n, variant) = COMPONENT (IN a: ARRAY [1..n] OF boolean;
                               OUT y: boolean) IS
SIGNAL h: ARRAY [1..n] OF boolean;
BEGIN
    h[1] := a[1];
    FOR i := 2 TO n DO
        WHEN variant = 1 THEN h[i] := {op1}(h[i-1], a[i])
        OTHERWISE h[i] := {op2}(h[i-1], a[i])
        END;
    END;
    y := h[n]
END;

"""


@dataclass
class FuzzProgram:
    """One generated program, held as droppable statement lines so the
    shrinker can delta-debug it."""

    seed: int
    n_inputs: int
    decls: list[str] = field(default_factory=list)
    stmts: list[str] = field(default_factory=list)
    #: extra component definitions ahead of the top type (meta-programmed
    #: replication); "" when the program has none.
    prelude: str = ""

    @property
    def text(self) -> str:
        ins = ", ".join(f"i{k}" for k in range(self.n_inputs))
        sig_lines = "".join(f"SIGNAL {d};\n" for d in self.decls)
        stmts = self.stmts or ["y0 := i0"]
        body = ";\n    ".join(stmts)
        return (
            f"{self.prelude}"
            f"TYPE t = COMPONENT (IN {ins}: boolean; "
            f"OUT y0, y1: boolean) IS\n"
            f"{sig_lines}"
            f"BEGIN\n    {body}\nEND;\nSIGNAL u: t;\n"
        )

    def inputs(self) -> list[str]:
        return [f"i{k}" for k in range(self.n_inputs)]

    def __str__(self) -> str:
        return self.text


def generate_program(
    seed: int,
    *,
    allow_mux: bool = True,
    allow_regs: bool = True,
    allow_meta: bool = True,
) -> FuzzProgram:
    """A random program over the full statement repertoire.

    The statement mix is deliberately conflict-capable: multiplex nets
    get up to three guarded drivers whose guards are *not* mutually
    exclusive, so runs must use lenient mode and compare the recorded
    violations across engines too.
    """
    rng = random.Random(seed)
    n_inputs = rng.randint(2, 5)
    prog = FuzzProgram(seed=seed, n_inputs=n_inputs)
    # Operand pools: ``bools`` may guard an IF; ``operands`` may feed a
    # gate (multiplex nets amplify implicitly at gate inputs).
    bools = [f"i{k}" for k in range(n_inputs)]
    operands = list(bools)

    n_regs = rng.randint(0, 2) if allow_regs else 0
    for r in range(n_regs):
        prog.decls.append(f"r{r}: REG")
        bools.append(f"r{r}.out")
        operands.append(f"r{r}.out")

    if allow_meta and rng.random() < 0.5:
        width = rng.randint(2, 4)
        variant = rng.randint(1, 2)
        prog.prelude = _META_TEMPLATE.format(
            op1=rng.choice(OPS), op2=rng.choice(OPS)
        )
        prog.decls.append(f"ch: chain({width}, {variant})")
        for j in range(1, width + 1):
            prog.stmts.append(f"ch.a[{j}] := {rng.choice(operands)}")
        bools.append("ch.y")
        operands.append("ch.y")

    mux_names = []
    if allow_mux:
        for m in range(rng.randint(0, 2)):
            name = f"z{m}"
            prog.decls.append(f"{name}: multiplex")
            for _ in range(rng.randint(1, 3)):
                guard = rng.choice(bools)
                src = rng.choice([rng.choice(operands), "0", "1"])
                prog.stmts.append(f"IF {guard} THEN {name} := {src} END")
            mux_names.append(name)
            operands.append(name)  # readable through the amplifier

    for w in range(rng.randint(2, 8)):
        op = rng.choice(OPS + ["NOT"])
        if op == "NOT":
            expr = f"NOT {rng.choice(operands)}"
        else:
            n_args = rng.choice([2, 2, 3])
            expr = f"{op}({', '.join(rng.choice(operands) for _ in range(n_args))})"
        prog.decls.append(f"s{w}: boolean")
        prog.stmts.append(f"s{w} := {expr}")
        bools.append(f"s{w}")
        operands.append(f"s{w}")

    for r in range(n_regs):
        src = rng.choice(operands)
        if rng.random() < 0.5:
            # Guarded load: NOINFL when the guard is off keeps the value.
            prog.stmts.append(f"IF {rng.choice(bools)} THEN r{r}.in := {src} END")
        else:
            prog.stmts.append(f"r{r}.in := {src}")

    prog.stmts.append(f"y0 := {rng.choice(bools)}")
    prog.stmts.append(f"y1 := NOT {rng.choice(bools)}")
    return prog


def random_vectors(rng: random.Random, inputs: Sequence[str], n: int) -> list[dict]:
    """*n* random input vectors (one poke value per input each)."""
    return [
        {name: rng.randint(0, 1) for name in inputs}
        for _ in range(n)
    ]


# -- the differential oracle ---------------------------------------------


@dataclass
class DifferentialResult:
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _scalar_observations(circuit, engine, vector, outs, cycles, seed):
    sim = circuit.simulator(engine=engine, strict=False, seed=seed)
    for name, value in vector.items():
        sim.poke(name, value)
    rows = []
    for _ in range(cycles):
        sim.step()
        rows.append(
            tuple(tuple(str(v) for v in sim.peek(p)) for p in outs)
        )
    regs = {k: str(v) for k, v in sim.registers().items()}
    viols = sorted((v.cycle, v.net) for v in sim.violations)
    return rows, regs, viols


def _batched_observations(circuit, vectors, outs, cycles, engine="codegen"):
    sim = circuit.simulator(
        engine=engine, lanes=len(vectors), strict=False, seed=0
    )
    for name in vectors[0]:
        sim.poke_lanes(name, [vec[name] for vec in vectors])
    per_lane_rows: list[list] = [[] for _ in vectors]
    for _ in range(cycles):
        sim.step()
        snap = {p: sim.peek_lanes(p) for p in outs}
        for k in range(len(vectors)):
            per_lane_rows[k].append(
                tuple(tuple(str(v) for v in snap[p][k]) for p in outs)
            )
    regs = [
        {name: str(v) for name, v in sim.registers(lane=k).items()}
        for k in range(len(vectors))
    ]
    viols = [
        sorted(
            (v.cycle, v.net) for v in sim.violations if v.lane == k
        )
        for k in range(len(vectors))
    ]
    return per_lane_rows, regs, viols, sim


def differential_check(
    text: str,
    *,
    cycles: int = 4,
    n_vectors: int = 8,
    seed: int = 0,
    vectors: list[dict] | None = None,
    name: str = "fuzz",
    roundtrip: bool = True,
) -> DifferentialResult:
    """Run one program on dataflow (oracle), levelized ("auto") and the
    codegen lane kernel, over *n_vectors* random constant stimuli held
    for *cycles* cycles each, comparing per-cycle OUT-pin values, final
    register state, and (cycle, net) violation sets.

    The codegen run packs every vector into one simulator (lane k =
    vector k, seed ``0 + k``); the scalar runs use seed ``k`` so the
    per-lane rng contract lines up.  Returns a falsy result carrying a
    human-readable mismatch description on the first disagreement.
    (``engine="batched"`` names the same kernel, so it is not a leg of
    its own.)

    With *roundtrip* (the default) a fourth leg exports the design to
    structural Verilog, imports it back
    (:mod:`repro.analysis.roundtrip`), and co-simulates the
    round-tripped circuit against the original with the same vectors;
    the engines legs anchor the original to the dataflow oracle, so the
    chain pins the round-trip to the oracle too.
    """
    import repro

    try:
        circuit = repro.compile_text(text, name=name, strict=False)
    except Exception as exc:  # compile trouble is not a differential bug
        return DifferentialResult(True, f"uncomparable (no compile): {exc}")
    outs = sorted(
        p.name for p in circuit.netlist.ports if p.mode == "OUT"
    )
    if vectors is None:
        rng = random.Random(seed)
        ins = sorted(
            {p.name for p in circuit.netlist.ports if p.mode == "IN"}
        )
        vectors = random_vectors(rng, ins, n_vectors)

    oracle = [
        _scalar_observations(circuit, "dataflow", vec, outs, cycles, seed=k)
        for k, vec in enumerate(vectors)
    ]
    for engine in ("auto",):
        for k, vec in enumerate(vectors):
            got = _scalar_observations(circuit, engine, vec, outs, cycles, seed=k)
            if got != oracle[k]:
                return DifferentialResult(
                    False,
                    f"{engine} vs dataflow: vector {k} {vec}: "
                    f"{_diff_detail(oracle[k], got, outs)}",
                )
    rows, regs, viols, _ = _batched_observations(
        circuit, vectors, outs, cycles
    )
    for k, vec in enumerate(vectors):
        got = (rows[k], regs[k], viols[k])
        if got != oracle[k]:
            return DifferentialResult(
                False,
                f"codegen lane {k} vs dataflow: vector {vec}: "
                f"{_diff_detail(oracle[k], got, outs)}",
            )
    if roundtrip:
        from .roundtrip import Logic, cosimulate, round_trip

        rt_vectors = [
            {pname: [Logic(v)] for pname, v in vec.items()}
            for vec in vectors
        ]
        try:
            rt = round_trip(circuit.design)
        except Exception as exc:
            return DifferentialResult(
                False, f"round-trip export/import failed: {exc}")
        got = cosimulate(rt, cycles=cycles, seed=seed, vectors=rt_vectors)
        if not got.ok:
            return got
    return DifferentialResult(True)


def _diff_detail(expected, got, outs) -> str:
    e_rows, e_regs, e_viols = expected
    g_rows, g_regs, g_viols = got
    for cycle, (er, gr) in enumerate(zip(e_rows, g_rows)):
        if er != gr:
            for pin, ep, gp in zip(outs, er, gr):
                if ep != gp:
                    return (
                        f"cycle {cycle} pin {pin}: "
                        f"oracle {list(ep)} got {list(gp)}"
                    )
    if e_regs != g_regs:
        return f"registers: oracle {e_regs} got {g_regs}"
    if e_viols != g_viols:
        return f"violations: oracle {e_viols} got {g_viols}"
    return "mismatch (unlocated)"


# -- the shrinker --------------------------------------------------------


def default_failure_predicate(
    *, cycles: int = 4, n_vectors: int = 8, seed: int = 0
) -> Callable[[FuzzProgram], bool]:
    """A predicate for :func:`shrink`: True when the program still
    fails the differential check (compile errors count as not failing,
    so shrinking never wanders off into invalid programs)."""

    def failing(prog: FuzzProgram) -> bool:
        try:
            return not differential_check(
                prog.text, cycles=cycles, n_vectors=n_vectors, seed=seed
            ).ok
        except Exception:
            return False

    return failing


def shrink(
    program: FuzzProgram, failing: Callable[[FuzzProgram], bool]
) -> FuzzProgram:
    """Statement-level delta debugging: greedily drop statements (last
    first, so consumers go before producers) while *failing* stays true;
    repeat to a fixpoint.  The result still fails and is usually a
    handful of lines."""
    stmts = list(program.stmts)
    changed = True
    while changed:
        changed = False
        for i in range(len(stmts) - 1, -1, -1):
            trial = replace(program, stmts=stmts[:i] + stmts[i + 1:])
            if failing(trial):
                stmts = trial.stmts
                changed = True
    return replace(program, stmts=stmts)
