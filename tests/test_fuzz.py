"""Differential fuzzing: random Zeus programs vs. a Python model and
across the three engines.

The generator lives in :mod:`repro.analysis.fuzzgen` (shared with the
nightly long-budget runner, ``scripts/fuzz_nightly.py``).  The fast
slice here checks

* random combinational DAGs against direct Python evaluation of the
  same DAG (the historical safety net), and
* the extended generator's full repertoire -- multiplex nets with
  guarded (and deliberately conflictable) drivers, REG pipelines with
  guarded loads, FOR/WHEN meta-programmed replication -- differentially
  across dataflow (the oracle), levelized and the codegen lane kernel,
  lane by lane, plus the fourth leg: the design round-tripped through
  the structural Verilog emitter and reader
  (:mod:`repro.analysis.roundtrip`) co-simulated against the original.

Long-budget cases are marked ``slow`` and skipped unless the
``ZEUS_FUZZ_LONG`` environment variable is set (the nightly CI job sets
it; tier-1 stays fast).

``build_dag``/``render_zeus``/``eval_dag`` are re-exported here because
``tests/test_engines.py`` imports them from this module.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.fuzzgen import (
    OPS,
    build_dag,
    default_failure_predicate,
    differential_check,
    eval_dag,
    generate_program,
    render_zeus,
    shrink,
)

__all__ = ["OPS", "build_dag", "render_zeus", "eval_dag"]

long_fuzz = pytest.mark.skipif(
    not os.environ.get("ZEUS_FUZZ_LONG"),
    reason="long-budget fuzz (set ZEUS_FUZZ_LONG=1; the nightly job does)",
)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_combinational_dags(seed):
    rng = random.Random(seed)
    n_inputs = rng.randint(1, 4)
    n_nodes = rng.randint(1, 10)
    nodes = build_dag(rng, n_inputs, n_nodes)
    circuit = repro.compile_text(render_zeus(n_inputs, nodes))
    sim = circuit.simulator()
    for vector in range(1 << n_inputs):
        bits = [(vector >> k) & 1 for k in range(n_inputs)]
        for k, bit in enumerate(bits):
            sim.poke(f"i{k}", bit)
        sim.step()
        assert str(sim.peek_bit("y")) == str(eval_dag(n_inputs, nodes, bits)), (
            seed,
            bits,
        )


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_statement_order_shuffle_is_irrelevant(seed):
    """Shuffle the statement list of a random DAG: same results
    (section 4's order-irrelevance, fuzzed)."""
    rng = random.Random(seed)
    n_inputs = rng.randint(1, 3)
    nodes = build_dag(rng, n_inputs, rng.randint(2, 8))
    text = render_zeus(n_inputs, nodes)
    head, _, rest = text.partition("BEGIN\n")
    body, _, tail = rest.partition("    y := ")
    stmts = [l for l in body.strip().split("\n") if l.strip()]
    rng.shuffle(stmts)
    shuffled = head + "BEGIN\n" + "\n".join(stmts) + "\n    y := " + tail
    a = repro.compile_text(text).simulator()
    b = repro.compile_text(shuffled).simulator()
    for vector in range(1 << n_inputs):
        bits = [(vector >> k) & 1 for k in range(n_inputs)]
        for k, bit in enumerate(bits):
            a.poke(f"i{k}", bit)
            b.poke(f"i{k}", bit)
        a.step()
        b.step()
        assert str(a.peek_bit("y")) == str(b.peek_bit("y"))


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_random_register_pipelines(seed):
    """A random-depth register pipeline applying a random DAG per stage:
    hardware output after d+1 cycles equals the model applied d times."""
    rng = random.Random(seed)
    depth = rng.randint(1, 4)
    text_regs = "".join(f"SIGNAL r{i}: REG;\n" for i in range(depth))
    wiring = ["r0.in := din;"]
    for i in range(1, depth):
        wiring.append(f"r{i}.in := NOT r{i - 1}.out;")
    wiring.append(f"q := r{depth - 1}.out")
    text = f"""
TYPE t = COMPONENT (IN din: boolean; OUT q: boolean) IS
{text_regs}
BEGIN
    {' '.join(wiring)}
END;
SIGNAL u: t;
"""
    sim = repro.compile_text(text).simulator()
    stream = [rng.randint(0, 1) for _ in range(depth + 6)]
    seen = []
    for bit in stream:
        sim.poke("din", bit)
        sim.step()
        seen.append(str(sim.peek_bit("q")))
    # After the pipe fills, q(t) = din(t - depth) inverted (depth-1) times.
    inversions = depth - 1
    for t in range(depth, len(stream)):
        expected = stream[t - depth] ^ (inversions % 2)
        assert seen[t] == str(expected), (seed, t)


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_lenient_mode_never_crashes_on_conflicts(seed):
    """Random programs with deliberately conflicting conditional drivers:
    lenient simulation must complete and record violations instead of
    crashing."""
    rng = random.Random(seed)
    n_guards = rng.randint(2, 4)
    ins = ", ".join(f"g{k}" for k in range(n_guards))
    stmts = "\n".join(
        f"    IF g{k} THEN z := {k % 2} END;" for k in range(n_guards)
    )
    text = f"""
TYPE t = COMPONENT (IN {ins}: boolean; OUT y: boolean; z: multiplex) IS
BEGIN
{stmts}
    y := g0
END;
SIGNAL u: t;
"""
    sim = repro.compile_text(text).simulator(strict=False)
    for vector in range(1 << n_guards):
        for k in range(n_guards):
            sim.poke(f"g{k}", (vector >> k) & 1)
        sim.step()
    # With all guards on there must be recorded violations.
    assert sim.violations


# -- the extended generator, three engines, lane by lane ------------------


@pytest.mark.fuzz
class TestExtendedDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_full_repertoire(self, seed):
        """Mux + REG + meta-programmed programs: dataflow (oracle) vs
        levelized vs codegen vs the Verilog round-trip, per-cycle
        outputs, final registers and per-lane violations."""
        prog = generate_program(seed)
        res = differential_check(
            prog.text, cycles=3, n_vectors=4, seed=seed
        )
        assert res.ok, f"seed {seed}: {res.detail}\n{prog.text}"

    @pytest.mark.parametrize("shape", ["mux", "regs", "meta"])
    def test_each_shape_alone(self, shape):
        """Each extension in isolation still agrees across engines."""
        flags = {
            "allow_mux": shape == "mux",
            "allow_regs": shape == "regs",
            "allow_meta": shape == "meta",
        }
        hit = 0
        for seed in range(30):
            prog = generate_program(seed, **flags)
            marker = {
                "mux": "multiplex",
                "regs": ": REG",
                "meta": "chain",
            }[shape]
            if marker not in prog.text:
                continue
            hit += 1
            res = differential_check(prog.text, cycles=3, n_vectors=3,
                                     seed=seed)
            assert res.ok, f"{shape} seed {seed}: {res.detail}\n{prog.text}"
        assert hit >= 5, f"generator barely exercises {shape}"

    def test_conflicting_drivers_violations_agree(self):
        """Find a generated program whose stimuli actually conflict and
        make sure the differential check (which compares violation logs)
        still passes on it."""
        for seed in range(200):
            prog = generate_program(seed, allow_regs=False, allow_meta=False)
            if "multiplex" not in prog.text:
                continue
            circuit = repro.compile_text(prog.text, name="f", strict=False)
            sim = circuit.simulator(engine="dataflow", strict=False)
            for name in prog.inputs():
                sim.poke(name, 1)
            sim.step()
            if not sim.violations:
                continue
            res = differential_check(
                prog.text, cycles=2,
                vectors=[{name: 1 for name in prog.inputs()}],
            )
            assert res.ok, res.detail
            return
        pytest.fail("no conflicting program found in 200 seeds")

    def test_shrinker_produces_minimal_failing_program(self):
        """Drive the shrinker with a synthetic predicate ("contains a
        NOT statement") and check it reaches a 1-statement program that
        still compiles and satisfies the predicate."""

        def failing(prog):
            try:
                repro.compile_text(prog.text, name="f", strict=False)
            except Exception:
                return False
            return any("NOT" in s for s in prog.stmts)

        for seed in range(50):
            prog = generate_program(seed)
            if not failing(prog):
                continue
            small = shrink(prog, failing)
            assert failing(small)
            assert len(small.stmts) == 1
            return
        pytest.fail("no seed produced a NOT statement")

    def test_default_predicate_rejects_uncompilable(self):
        prog = generate_program(0)
        prog.stmts.append("this is not zeus")
        assert not default_failure_predicate()(prog)


@long_fuzz
@pytest.mark.slow
@pytest.mark.fuzz
class TestLongBudget:
    """The nightly budget, in-process (ZEUS_FUZZ_LONG=1)."""

    @pytest.mark.parametrize("block", range(4))
    def test_extended_differential_block(self, block):
        for seed in range(block * 250, (block + 1) * 250):
            prog = generate_program(seed)
            res = differential_check(
                prog.text, cycles=4, n_vectors=8, seed=seed
            )
            assert res.ok, f"seed {seed}: {res.detail}\n{prog.text}"
