"""The batched bit-parallel engine: plane encoding, opcode agreement
with the scalar gate tables, the :class:`BatchStimulus` API, lane
bookkeeping across ``reset_state``, the per-lane-dataflow fallback, and
the ``zeusc sim --batch`` surface.

Property-based parts use hypothesis; the exhaustive parts enumerate all
``4^k`` operand combinations for every batched gate opcode and check
each lane against :data:`repro.core.values.GATE_FUNCTIONS` (the scalar
single-source-of-truth table) *and* against a scalar dataflow run.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.core.batched import (
    LOGIC_PLANES,
    PLANE_LOGIC,
    BatchStimulus,
    broadcast,
    lane_value,
    pack,
    unpack,
)
from repro.core.simulator import _coerce_bits
from repro.core.types import BOOLEAN
from repro.core.values import GATE_FUNCTIONS, Logic
from repro.lang import SimulationError
from repro.obs import metrics_report, validate_report
from repro.obs import spans as _spans
from zeus_test_utils import compile_ok

ALL_LOGIC = [Logic.ZERO, Logic.ONE, Logic.UNDEF, Logic.NOINFL]

logic_values = st.sampled_from(ALL_LOGIC)

#: Lane counts on both sides of CPython's 30-bit int digits and of 64-bit
#: words, a few thousand lanes, and anything small.
lane_counts = st.one_of(
    st.sampled_from([1, 29, 30, 31, 63, 64, 65, 2047, 4099]),
    st.integers(min_value=1, max_value=200),
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- the per-lane loops the lane I/O used before lane columns ---------------
#
# Each sets or reads one lane at a time with shifts of a lanes-wide int
# (quadratic in the lane count); kept as the reference the linear-time
# conversions must match.


def reference_pack(values):
    p0 = p1 = 0
    for k, v in enumerate(values):
        b0, b1 = LOGIC_PLANES[v]
        p0 |= b0 << k
        p1 |= b1 << k
    return p0, p1


def reference_unpack(p0, p1, lanes):
    return [
        PLANE_LOGIC[((p0 >> k) & 1) | (((p1 >> k) & 1) << 1)]
        for k in range(lanes)
    ]


def reference_poke_lanes(values, width, path):
    """``poke_lanes``' planes: ``(plane0 per bit, plane1 per bit, mask)``."""
    acc0 = [0] * width
    acc1 = [0] * width
    mask = 0
    for k, v in enumerate(values):
        if v is None:
            continue
        bit = 1 << k
        mask |= bit
        for j, b in enumerate(_coerce_bits(v, width, path)):
            b0, b1 = LOGIC_PLANES[b]
            if b0:
                acc0[j] |= bit
            if b1:
                acc1[j] |= bit
    return acc0, acc1, mask


def reference_peek_lanes(sim, path):
    per_net = []
    for net in sim.nets_of(path):
        i = sim._idx(net)
        vals = reference_unpack(sim._bvals0[i], sim._bvals1[i], sim.lanes)
        if net.kind == BOOLEAN:
            vals = [v.to_boolean() for v in vals]
        per_net.append(vals)
    return [[vals[k] for vals in per_net] for k in range(sim.lanes)]


# -- plane encoding primitives -------------------------------------------


class TestPlaneEncoding:
    def test_encoding_table(self):
        # plane0 = "possibly 0", plane1 = "possibly 1"
        assert LOGIC_PLANES[Logic.ZERO] == (1, 0)
        assert LOGIC_PLANES[Logic.ONE] == (0, 1)
        assert LOGIC_PLANES[Logic.UNDEF] == (1, 1)
        assert LOGIC_PLANES[Logic.NOINFL] == (0, 0)
        for value, (b0, b1) in LOGIC_PLANES.items():
            assert PLANE_LOGIC[b0 | (b1 << 1)] is value

    @given(lane_counts, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_roundtrip(self, lanes, rnd):
        values = [rnd.choice(ALL_LOGIC) for _ in range(lanes)]
        p0, p1 = pack(values)
        assert (p0, p1) == reference_pack(values)
        assert unpack(p0, p1, lanes) == values
        assert reference_unpack(p0, p1, lanes) == values

    def test_unpack_ignores_plane_bits_at_or_above_lanes(self):
        values = [Logic.ONE, Logic.NOINFL, Logic.ZERO, Logic.UNDEF]
        p0, p1 = pack(values)
        for lanes in (1, 3, 4):
            above = 0b1011 << lanes
            assert unpack(p0 | above, p1 | above << 31, lanes) == (
                values[:lanes]
            )
        assert unpack(p0, p1, 0) == []

    @given(st.lists(logic_values, min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_lane_value_matches_unpack(self, values):
        p0, p1 = pack(values)
        for k, expected in enumerate(values):
            assert lane_value(p0, p1, k) is expected

    @given(logic_values, st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_broadcast_fills_every_lane(self, value, lanes):
        mask = (1 << lanes) - 1
        p0, p1 = broadcast(value, mask)
        assert unpack(p0, p1, lanes) == [value] * lanes

    def test_pack_is_lsb_lane_zero(self):
        p0, p1 = pack([Logic.ONE, Logic.ZERO])
        assert (p0, p1) == (0b10, 0b01)


# -- poke_lanes / peek_lanes against the per-lane loops -------------------


_LANE_IO_CACHE = {}


def _lane_io_circuit(width):
    """A *width*-bit boolean input ``a`` and multiplex INOUT pin ``z``,
    compiled once per width (hypothesis tests cannot use fixtures)."""
    if width not in _LANE_IO_CACHE:
        _LANE_IO_CACHE[width] = compile_ok(
            f"""
            TYPE bo = ARRAY [1..{width}] OF boolean;
                 mx = ARRAY [1..{width}] OF multiplex;
                 t = COMPONENT (IN a: bo; OUT y: bo; z: mx) IS
                 BEGIN y := a END;
            SIGNAL u: t;
            """
        )
    return _LANE_IO_CACHE[width]


#: Everything a single bit of a poke may be.
BIT_VALUES = [0, 1, False, True, *ALL_LOGIC, "0", "1", "UNDEF", "NOINFL"]


def _random_lane_value(rnd, width, none_share):
    """One lane of a poke: None, an int, a bool, a bit list, or (on a
    one-bit signal) any single bit value."""
    if rnd.random() < none_share:
        return None
    kind = rnd.randrange(4)
    if kind == 0:
        return rnd.getrandbits(width)
    if kind == 1:
        return rnd.choice([False, True])
    if kind == 2:
        return [rnd.choice(BIT_VALUES) for _ in range(width)]
    return rnd.choice(BIT_VALUES) if width == 1 else rnd.getrandbits(width)


class TestLaneIO:
    @given(
        lane_counts,
        st.sampled_from([1, 3, 16]),
        st.sampled_from([0.0, 0.25, 1.0]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_poke_and_peek_lanes_match_per_lane_loops(
        self, lanes, width, none_share, rnd
    ):
        sim = _lane_io_circuit(width).simulator(engine="batched", lanes=lanes)
        pokes = {}
        for path in ("u.a", "u.z"):
            # A previous poke, which an all-None poke must release.
            sim.poke_lanes(path, [0] * lanes)
            values = [
                _random_lane_value(rnd, width, none_share)
                for _ in range(lanes)
            ]
            sim.poke_lanes(path, values)
            acc0, acc1, mask = reference_poke_lanes(values, width, path)
            for j, net in enumerate(sim.nets_of(path)):
                expected = (acc0[j], acc1[j], mask) if mask else None
                assert sim._bpokes.get(sim._idx(net)) == expected
            pokes[path] = values
        sim.step()
        got = {path: sim.peek_lanes(path) for path in pokes}
        for path, rows in got.items():
            assert type(rows) is list
            assert all(type(row) is list for row in rows)
            assert rows == reference_peek_lanes(sim, path)
        # A lane bit poked NOINFL: UNDEF on the boolean input (the
        # amplifier), NOINFL on the multiplex pin.
        for path, floating in (("u.a", Logic.UNDEF), ("u.z", Logic.NOINFL)):
            for k, v in enumerate(pokes[path]):
                if v is None:
                    continue
                for j, b in enumerate(_coerce_bits(v, width, path)):
                    if b is Logic.NOINFL:
                        assert got[path][k][j] is floating


# -- every batched opcode vs the scalar gate table ------------------------


_HALFADDER_CACHE = []


def _halfadder():
    """The halfadder circuit, compiled once (hypothesis tests cannot use
    function-scoped fixtures)."""
    if not _HALFADDER_CACHE:
        _HALFADDER_CACHE.append(compile_ok(
            """
            TYPE halfadder = COMPONENT (IN a,b: boolean;
                                        OUT cout,s: boolean) IS
            BEGIN
                s := XOR(a,b);
                cout := AND(a,b)
            END;
            SIGNAL h: halfadder;
            """
        ))
    return _HALFADDER_CACHE[0]


def _gate_circuit(op, arity):
    ins = ", ".join(f"i{k}" for k in range(arity))
    if op == "NOT":
        expr = "NOT i0"
    else:
        expr = f"{op}({ins})"
    return compile_ok(
        f"""
        TYPE t = COMPONENT (IN {ins}: boolean; OUT y: boolean) IS
        BEGIN
            y := {expr}
        END;
        SIGNAL u: t;
        """
    )


GATE_CASES = [
    ("AND", 2), ("AND", 3),
    ("OR", 2), ("OR", 3),
    ("NAND", 2), ("NAND", 3),
    ("NOR", 2), ("NOR", 3),
    ("XOR", 2), ("XOR", 3),
    ("EQUAL", 2),
    ("NOT", 1),
]


class TestOpcodeAgreement:
    @pytest.mark.parametrize("op,arity", GATE_CASES)
    def test_all_operand_combinations(self, op, arity):
        """One lane per element of {0,1,UNDEF,NOINFL}^arity: the batched
        output must equal both the scalar gate function applied to that
        lane's operands and an independent scalar dataflow run."""
        circuit = _gate_circuit(op, arity)
        combos = list(itertools.product(ALL_LOGIC, repeat=arity))
        sim = circuit.simulator(engine="batched", lanes=len(combos))
        assert sim._batched_fast
        for j in range(arity):
            sim.poke_lanes(f"i{j}", [combo[j] for combo in combos])
        sim.step()
        got = [vals[0] for vals in sim.peek_lanes("y")]
        for k, combo in enumerate(combos):
            expected = GATE_FUNCTIONS[op](list(combo))
            assert got[k] is expected, (
                f"{op}{combo}: batched lane {k} gave {got[k]}, "
                f"scalar table says {expected}"
            )
        # and the engine-level differential: scalar dataflow, per combo
        for k, combo in enumerate(combos):
            ref = circuit.simulator(engine="dataflow")
            for j in range(arity):
                ref.poke(f"i{j}", combo[j])
            ref.step()
            assert ref.peek("y")[0] is got[k], f"{op}{combo}"

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_random_lane_mix_halfadder(self, seed):
        """Random 4-valued stimuli on the halfadder: every lane equals a
        scalar dataflow run with that lane's pokes."""
        import random as _random

        halfadder_circuit = _halfadder()
        rng = _random.Random(seed)
        lanes = rng.randint(1, 9)
        a = [rng.choice(ALL_LOGIC) for _ in range(lanes)]
        b = [rng.choice(ALL_LOGIC) for _ in range(lanes)]
        sim = halfadder_circuit.simulator(engine="batched", lanes=lanes)
        sim.poke_lanes("a", a)
        sim.poke_lanes("b", b)
        sim.step()
        s = sim.peek_lanes("s")
        cout = sim.peek_lanes("cout")
        for k in range(lanes):
            ref = halfadder_circuit.simulator(engine="dataflow")
            ref.poke("a", a[k])
            ref.poke("b", b[k])
            ref.step()
            assert [str(v) for v in ref.peek("s")] == [str(v) for v in s[k]]
            assert [str(v) for v in ref.peek("cout")] == [
                str(v) for v in cout[k]
            ]


# -- BatchStimulus --------------------------------------------------------


class TestBatchStimulus:
    def test_scalar_set_broadcasts(self, halfadder_circuit):
        stim = BatchStimulus(4)
        stim.set("a", 1)
        stim.set("b", [0, 1, 0, 1])
        sim = halfadder_circuit.simulator(engine="batched", lanes=4)
        stim.apply(sim)
        sim.step()
        assert sim.peek_lanes("s") == [
            [Logic.ONE], [Logic.ZERO], [Logic.ONE], [Logic.ZERO]
        ]

    def test_list_length_must_match(self):
        stim = BatchStimulus(4)
        with pytest.raises(ValueError):
            stim.set("a", [0, 1])

    def test_from_vectors(self, halfadder_circuit):
        stim = BatchStimulus.from_vectors(
            [{"a": 0, "b": 0}, {"a": 1, "b": 1}]
        )
        assert stim.lanes == 2
        sim = halfadder_circuit.simulator(engine="batched", lanes=2)
        stim.apply(sim)
        sim.step()
        assert sim.peek_lanes("cout") == [[Logic.ZERO], [Logic.ONE]]

    def test_sweep(self, halfadder_circuit):
        stim = BatchStimulus.sweep("a", [0, 1, 0, 1], b=1)
        assert stim.lanes == 4
        sim = halfadder_circuit.simulator(engine="batched", lanes=4)
        stim.apply(sim)
        sim.step()
        assert sim.peek_lanes("s") == [
            [Logic.ONE], [Logic.ZERO], [Logic.ONE], [Logic.ZERO]
        ]

    def test_from_json_mapping_infers_lanes(self):
        stim = BatchStimulus.from_json({"a": [0, 1, 1], "b": 1})
        assert stim.lanes == 3

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "stim.json"
        path.write_text(json.dumps(
            {"lanes": 2, "pokes": {"a": [0, 1], "b": 0}}
        ))
        stim = BatchStimulus.from_json(str(path))
        assert stim.lanes == 2

    def test_none_keeps_input_default(self, halfadder_circuit):
        sim = halfadder_circuit.simulator(engine="batched", lanes=2)
        sim.poke_lanes("a", [1, None])
        sim.poke_lanes("b", [1, 1])
        sim.step()
        # lane 1's `a` stays at the unpoked-input default (UNDEF)
        assert sim.peek_lanes("s") == [[Logic.ZERO], [Logic.UNDEF]]

    # -- validation (the PR's stimulus bugfix sweep) ----------------------

    def test_from_vectors_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one vector"):
            BatchStimulus.from_vectors([])

    def test_from_vectors_rejects_non_mapping_with_lane_index(self):
        with pytest.raises(ValueError, match="lane 1"):
            BatchStimulus.from_vectors([{"a": 1}, 7])

    def test_from_json_rejects_non_integer_lanes(self):
        for bad in ("three", 2.5, True, [4]):
            with pytest.raises(ValueError, match="'lanes' must be an integer"):
                BatchStimulus.from_json({"lanes": bad, "pokes": {"a": 1}})

    def test_from_json_mismatched_list_lengths_raise(self):
        with pytest.raises(ValueError, match="got 2 lane values for 3 lanes"):
            BatchStimulus.from_json({"a": [1, 0, 1], "b": [0, 1]})

    def test_poke_lanes_overwide_value_names_path_and_lane(self):
        circuit = compile_ok(
            """
            TYPE bo4 = ARRAY [1..4] OF boolean;
            t = COMPONENT (IN a: bo4; OUT y: bo4) IS BEGIN y := a END;
            SIGNAL u: t;
            """
        )
        sim = circuit.simulator(engine="batched", lanes=3)
        with pytest.raises(ValueError, match=r"poke 'u\.a' lane 1") as exc:
            sim.poke_lanes("u.a", [1, 99, 2])  # 99 needs 7 bits
        assert "does not fit" in str(exc.value)
        with pytest.raises(ValueError, match=r"poke 'u\.a' lane 2"):
            sim.poke_lanes("u.a", [1, 2, [0, 1]])  # wrong bit-list width
        with pytest.raises(TypeError, match=r"poke 'u\.a' lane 0"):
            sim.poke_lanes("u.a", [object(), 1, 2])
        wide = circuit.simulator(engine="batched", lanes=4101)
        for lane, bad, error in (
            (4096, 16, ValueError),  # needs 5 bits
            (4097, -1, ValueError),
            (4098, [0, 1, 0], ValueError),
            (4099, object(), TypeError),
            (4100, Logic.UNDEF, ValueError),  # one bit, not the int 2
        ):
            values = [3] * 4101
            values[lane] = bad
            with pytest.raises(error, match=rf"poke 'u\.a' lane {lane}: "):
                wide.poke_lanes("u.a", values)
        wide.poke_lanes("u.a", [True, False] + [3] * 4099)
        wide.step()
        one, zero = Logic.ONE, Logic.ZERO
        assert wide.peek_lanes("u.y")[:3] == [
            [one, zero, zero, zero], [zero] * 4, [one, one, zero, zero]
        ]


# -- reset_state must clear lane state (the PR's bugfix) ------------------


SEQ = """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL r: REG;
BEGIN
    IF RSET THEN r.in := 0 ELSE r.in := XOR(r.out, a) END;
    y := r.out
END;
SIGNAL u: t;
"""


class TestResetStateRegression:
    def test_two_sweeps_one_simulator(self):
        """Reusing one batched simulator across two sweeps must give the
        same observations as a fresh simulator per sweep: leftover
        ``_bpokes`` entries and register planes must not leak."""
        circuit = compile_ok(SEQ)

        def sweep(sim, rset, a):
            sim.poke_lanes("RSET", rset)
            sim.poke_lanes("a", a)
            sim.step(3)
            return sim.peek_lanes("y"), [
                sim.registers(lane=k) for k in range(sim.lanes)
            ]

        reused = circuit.simulator(engine="batched", lanes=4)
        first = sweep(reused, [1, 1, 0, 0], [0, 1, 0, 1])
        reused.reset_state()
        second = sweep(reused, [0, 0, 0, 0], [1, 1, 0, None])

        fresh = circuit.simulator(engine="batched", lanes=4)
        expect_first = sweep(fresh, [1, 1, 0, 0], [0, 1, 0, 1])
        fresh2 = circuit.simulator(engine="batched", lanes=4)
        expect_second = sweep(fresh2, [0, 0, 0, 0], [1, 1, 0, None])

        assert first == expect_first
        assert second == expect_second

    def test_reset_state_clears_batched_pokes(self, halfadder_circuit):
        sim = halfadder_circuit.simulator(engine="batched", lanes=2)
        sim.poke_lanes("a", [1, 1])
        sim.poke_lanes("b", [1, 0])
        sim.step()
        sim.reset_state()
        sim.step()
        # nothing poked after reset: inputs are back to UNDEF
        assert sim.peek_lanes("s") == [[Logic.UNDEF], [Logic.UNDEF]]


# -- fallback and strict mode --------------------------------------------


CYCLIC = """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL p, q: boolean;
BEGIN
    p := AND(a, q);
    q := OR(a, p);
    y := q
END;
SIGNAL u: t;
"""

CONFLICT = """
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
SIGNAL p: boolean;
BEGIN
    IF a THEN p := 1 END;
    IF b THEN p := 0 END;
    y := p
END;
SIGNAL u: t;
"""


class TestFallbackAndStrict:
    def test_cyclic_design_falls_back_per_lane(self):
        circuit = repro.compile_text(CYCLIC, strict=False)
        sim = circuit.simulator(engine="batched", lanes=3)
        assert sim.engine == "codegen"
        assert not sim._batched_fast
        assert "fallback" in sim.engine_reason
        sim.poke_lanes("a", [0, 1, None])
        sim.step()
        for k, a in enumerate([0, 1, None]):
            ref = circuit.simulator(engine="dataflow")
            if a is not None:
                ref.poke("a", a)
            ref.step()
            assert sim.peek_lanes("y")[k] == ref.peek("y")

    def test_strict_conflict_names_the_lane(self):
        circuit = repro.compile_text(CONFLICT, strict=False)
        sim = circuit.simulator(engine="batched", lanes=4, strict=True)
        sim.poke_lanes("a", [0, 1, 0, 1])
        sim.poke_lanes("b", [0, 0, 1, 1])
        with pytest.raises(SimulationError, match=r"lane 3"):
            sim.step()

    def test_lenient_conflict_records_lane(self):
        circuit = repro.compile_text(CONFLICT, strict=False)
        sim = circuit.simulator(engine="batched", lanes=4, strict=False)
        sim.poke_lanes("a", [0, 1, 0, 1])
        sim.poke_lanes("b", [0, 0, 1, 1])
        sim.step()
        assert [v.lane for v in sim.violations] == [3]
        assert "lane 3" in str(sim.violations[0])
        # non-conflicting lanes are unaffected
        assert sim.peek_lanes("y")[1] == [Logic.ONE]
        assert sim.peek_lanes("y")[2] == [Logic.ZERO]

    def test_record_firing_rejected(self, halfadder_circuit):
        with pytest.raises(ValueError, match="record_firing"):
            halfadder_circuit.simulator(engine="batched", record_firing=True)


# -- metrics + export -----------------------------------------------------


class TestBatchedMetrics:
    def test_report_has_batched_section(self, halfadder_circuit):
        registry = _spans.REGISTRY
        registry.reset()
        sim = halfadder_circuit.simulator(
            engine="batched", lanes=8, metrics=True
        )
        sim.poke_lanes("a", [0, 1] * 4)
        sim.poke("b", 1)
        sim.step(5)
        report = metrics_report(halfadder_circuit, sim)
        validate_report(report)
        batched = report["sim"]["batched"]
        assert batched == {
            "lanes": 8, "lane_cycles": 40, "fast_path": True
        }
        assert "8 lanes" in sim.metrics.render()
        registry.reset()

    def test_scalar_report_has_no_batched_section(self, halfadder_circuit):
        sim = halfadder_circuit.simulator(metrics=True)
        sim.step()
        report = metrics_report(halfadder_circuit, sim)
        validate_report(report)
        assert "batched" not in report["sim"]


# -- CLI ------------------------------------------------------------------


class TestCliBatch:
    def test_sim_batch_file(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({
            "lanes": 4,
            "pokes": {"a": [0, 5, 10, 15], "b": [15, 10, 5, 0], "cin": 0},
        }))
        code, out, _ = run_cli(
            ["sim", "--builtin", "adders", "--batch", str(stim),
             "--cycles", "1"],
            capsys,
        )
        assert code == 0
        assert "codegen run: 4 lanes x 1 cycles (bit-parallel)" in out
        # every lane sums to 15
        assert out.count(" 15") >= 4

    def test_sim_lanes_flag(self, capsys):
        code, out, _ = run_cli(
            ["sim", "--builtin", "adders", "--lanes", "2",
             "--poke", "a=1", "--poke", "b=2", "--poke", "cin=0"],
            capsys,
        )
        assert code == 0
        assert "codegen run: 2 lanes" in out

    def test_lane_count_conflict_exits_2(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({"a": [0, 1]}))
        code, _, err = run_cli(
            ["sim", "--builtin", "adders", "--batch", str(stim),
             "--lanes", "8"],
            capsys,
        )
        assert code == 2
        assert "conflicts" in err

    def test_overwide_stimulus_exits_2_naming_path_and_lane(
        self, tmp_path, capsys
    ):
        """An over-wide lane value must exit 2 with the net path and
        the offending lane index, not silently truncate planes."""
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps(
            {"lanes": 3, "pokes": {"a": [1, 99, 2], "b": 0, "cin": 0}}
        ))
        code, _, err = run_cli(
            ["sim", "--builtin", "adders", "--batch", str(stim),
             "--cycles", "1"],
            capsys,
        )
        assert code == 2
        assert "poke 'a' lane 1" in err
        assert "does not fit" in err

    def test_bad_lanes_value_exits_2(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({"lanes": "three", "pokes": {"a": 1}}))
        code, _, err = run_cli(
            ["sim", "--builtin", "adders", "--batch", str(stim)],
            capsys,
        )
        assert code == 2
        assert "'lanes' must be an integer" in err

    def test_mismatched_vector_lengths_exit_2(self, tmp_path, capsys):
        stim = tmp_path / "stim.json"
        stim.write_text(json.dumps({"a": [0, 1, 1], "b": [1, 0]}))
        code, _, err = run_cli(
            ["sim", "--builtin", "adders", "--batch", str(stim)],
            capsys,
        )
        assert code == 2
        assert "got 2 lane values for 3 lanes" in err
