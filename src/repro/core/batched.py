"""The batched bit-parallel simulation engine.

The levelized engine of :mod:`repro.core.schedule` evaluates one
stimulus per pass.  Everything downstream that sweeps many independent
vectors -- ``exhaustive_equivalent``, ``random_equivalent``, the fuzz
suite, formal counterexample replay, mass regression traffic -- pays
the full schedule cost once per vector.  This module removes that
multiplier with the classic bit-parallel move (Barzilai et al.'s HSS,
and every compiled-code fault simulator since): pack N independent
stimulus *lanes* into machine words and evaluate all of them in one
pass over the same static schedule.

Bitplane encoding
-----------------

Each net class holds **two unbounded Python ints** (bitplanes).  Bit
``k`` of plane 0 means "lane k is possibly 0", bit ``k`` of plane 1
means "lane k is possibly 1" -- the standard 2-bit encoding of the
four-valued domain:

==========  =======  =======
value       plane 0  plane 1
==========  =======  =======
``ZERO``       1        0
``ONE``        0        1
``UNDEF``      1        1
``NOINFL``     0        0
==========  =======  =======

Under this encoding every scalar opcode of the levelized
:class:`~repro.core.schedule.Schedule` becomes a handful of plane-wise
bitwise expressions over *all lanes at once*; Python ints are unbounded
so the lane count is limited only by memory.  The implicit
multiplex-to-boolean amplifier (NOINFL reads as UNDEF at gate inputs)
falls out for free: gate rules test for the *exact* encodings
``(1,0)``/``(0,1)``, so NOINFL ``(0,0)`` behaves like UNDEF without an
explicit conversion.

Equivalence contract
--------------------

Lane ``k`` of a batched run with seed ``s`` is observationally
identical to a scalar (levelized or dataflow) run driven with lane
``k``'s stimulus and seed ``s + k``: same peeks, the same per-lane
register state, the same per-lane multiplex-conflict violations, and
the same RANDOM-gate stream (each lane owns a ``random.Random(s + k)``
consumed in gate-index order per cycle, exactly the scalar engines'
consumption order for that seed).  ``tests/test_engines.py`` checks the
contract metamorphically over the stdlib programs and the fuzz corpus.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .schedule import (
    OPC_AND,
    OPC_CLASS,
    OPC_CONST,
    OPC_COPY,
    OPC_EQUAL,
    OPC_NAND,
    OPC_NOR,
    OPC_NOT,
    OPC_OR,
    OPC_RANDOM,
    OPC_XOR,
    Schedule,
)
from .values import Logic

#: Decode a lane's two plane bits -- index ``b0 | (b1 << 1)``.
PLANE_LOGIC = (Logic.NOINFL, Logic.ZERO, Logic.ONE, Logic.UNDEF)

#: Encode one Logic value as its ``(plane0, plane1)`` single-lane bits.
LOGIC_PLANES = {
    Logic.ZERO: (1, 0),
    Logic.ONE: (0, 1),
    Logic.UNDEF: (1, 1),
    Logic.NOINFL: (0, 0),
}


# Lane I/O goes through *lane columns*: strings with one character per
# lane, highest lane first -- the digit order of ``int(_, 2)`` and
# ``format(_, "b")`` -- so ``str.translate`` plus one C-level base
# conversion turns a column into a plane in time linear in the lane
# count.  (Setting bit k with ``p |= 1 << k`` copies a lanes-wide int
# per lane: quadratic.)  "N" marks a lane that is not poked at all.

#: The lane-column character of each value.
_LOGIC_CHAR = {
    Logic.ZERO: "0",
    Logic.ONE: "1",
    Logic.UNDEF: "X",
    Logic.NOINFL: "Z",
}
_TO_PLANE0 = str.maketrans("01XZN", "10100")
_TO_PLANE1 = str.maketrans("01XZN", "01100")
_TO_POKED = str.maketrans("01XZN", "11110")
#: Decode the hex digit ``b0 + 2*b1`` that :func:`unpack` gives a lane.
_DIGIT_LOGIC = dict(zip("0123", PLANE_LOGIC))


def _column_planes(column: str) -> tuple[int, int]:
    """The two bitplanes of a non-empty lane column ("N" reads 0 in both)."""
    return (
        int(column.translate(_TO_PLANE0), 2),
        int(column.translate(_TO_PLANE1), 2),
    )


def _column_poked(column: str) -> int:
    """The lane mask of a non-empty lane column's non-"N" lanes."""
    return int(column.translate(_TO_POKED), 2)


def pack(values: Sequence[Logic]) -> tuple[int, int]:
    """Pack per-lane Logic values into the two bitplanes (lane k = bit k)."""
    column = "".join(map(_LOGIC_CHAR.__getitem__, values))[::-1]
    return _column_planes(column) if column else (0, 0)


def unpack(p0: int, p1: int, lanes: int) -> list[Logic]:
    """Unpack two bitplanes into *lanes* per-lane Logic values (plane
    bits at or above *lanes* are ignored)."""
    if lanes < 1:
        return []
    mask = (1 << lanes) - 1
    binary = f"0{lanes}b"
    # Read each plane's binary numeral as hex: every lane gets a nibble
    # of its own, so the sum below holds the digit b0 + 2*b1 per lane.
    spread = int(format(p0 & mask, binary), 16) + (
        int(format(p1 & mask, binary), 16) << 1
    )
    digits = format(spread, f"0{lanes}x")
    return list(map(_DIGIT_LOGIC.__getitem__, digits[::-1]))


def broadcast(value: Logic, mask: int) -> tuple[int, int]:
    """The bitplanes carrying *value* in every lane of *mask*."""
    b0, b1 = LOGIC_PLANES[value]
    return (mask if b0 else 0, mask if b1 else 0)


def lane_value(p0: int, p1: int, lane: int) -> Logic:
    """One lane's Logic value out of a plane pair."""
    return PLANE_LOGIC[((p0 >> lane) & 1) | (((p1 >> lane) & 1) << 1)]


class BatchStimulus:
    """A per-lane stimulus block: signal path -> one poke value per lane.

    A lane entry is anything :meth:`Simulator.poke` accepts (int, Logic,
    ``"UNDEF"``/``"NOINFL"``, bit list) or ``None`` for "no poke on this
    lane" (the lane keeps its input default).  Scalar entries broadcast
    to every lane.
    """

    def __init__(self, lanes: int, pokes: Mapping[str, object] | None = None):
        if lanes < 1:
            raise ValueError(f"a batch needs at least one lane, got {lanes}")
        self.lanes = lanes
        self.pokes: dict[str, list] = {}
        for path, value in (pokes or {}).items():
            self.set(path, value)

    def set(self, path: str, value) -> "BatchStimulus":
        """Set a signal's lane values (a list per lane, or a scalar to
        broadcast)."""
        if isinstance(value, (list, tuple)):
            if len(value) != self.lanes:
                raise ValueError(
                    f"batch stimulus {path!r}: got {len(value)} lane values "
                    f"for {self.lanes} lanes"
                )
            self.pokes[path] = list(value)
        else:
            self.pokes[path] = [value] * self.lanes
        return self

    @classmethod
    def from_vectors(cls, vectors: Sequence[Mapping[str, object]]) -> "BatchStimulus":
        """One lane per vector: ``[{"a": 3, "b": 1}, {"a": 0, "b": 2}]``."""
        vectors = list(vectors)
        if not vectors:
            raise ValueError(
                "from_vectors needs at least one vector (one lane each)"
            )
        for k, vec in enumerate(vectors):
            if not hasattr(vec, "items"):
                raise ValueError(
                    f"from_vectors: vector for lane {k} is not a "
                    f"signal->value mapping: {vec!r}"
                )
        stim = cls(len(vectors))
        names = {name for vec in vectors for name in vec}
        for name in sorted(names):
            stim.pokes[name] = [vec.get(name) for vec in vectors]
        return stim

    @classmethod
    def sweep(cls, path: str, values: Iterable, **fixed) -> "BatchStimulus":
        """Sweep *path* over *values* (one lane each), holding the
        keyword signals constant across lanes."""
        lane_values = list(values)
        stim = cls(len(lane_values))
        stim.pokes[path] = lane_values
        for name, value in fixed.items():
            stim.set(name.replace("__", "."), value)
        return stim

    @classmethod
    def from_json(cls, source) -> "BatchStimulus":
        """Load from a JSON file path or an already-parsed dict.

        Accepted shapes: ``{"lanes": N, "pokes": {sig: value-or-list}}``
        or the bare ``{sig: value-or-list}`` mapping (the lane count is
        then the longest list, or 1 if everything is scalar).
        """
        import json

        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as f:
                data = json.load(f)
        else:
            data = source
        if not isinstance(data, dict):
            raise ValueError("batch stimulus JSON must be an object")
        pokes = data.get("pokes", None)
        lanes = data.get("lanes", None)
        if pokes is None:
            pokes = {k: v for k, v in data.items() if k != "lanes"}
        if not isinstance(pokes, dict):
            raise ValueError("batch stimulus 'pokes' must be an object")
        if lanes is None:
            lanes = max(
                (len(v) for v in pokes.values() if isinstance(v, list)),
                default=1,
            )
        if isinstance(lanes, bool) or not isinstance(lanes, int):
            raise ValueError(
                f"batch stimulus 'lanes' must be an integer, got {lanes!r}"
            )
        return cls(lanes, pokes)

    def apply(self, sim) -> None:
        """Poke every signal into a batched :class:`Simulator`."""
        for path, values in self.pokes.items():
            sim.poke_lanes(path, values)

    def __repr__(self) -> str:
        return (
            f"BatchStimulus(lanes={self.lanes}, "
            f"signals={sorted(self.pokes)})"
        )


def execute(
    sched: Schedule,
    mask: int,
    vals0: list[int],
    vals1: list[int],
    pokes: dict[int, tuple[int, int, int]],
    reg0: list[int],
    reg1: list[int],
    lane_rngs: list | None,
    conflict: Callable[[int, int, int, int, int, int], None],
) -> None:
    """One bit-parallel combinational pass over the static schedule.

    ``mask`` is the all-lanes mask ``(1 << lanes) - 1``; ``vals0``/
    ``vals1`` are the per-class bitplanes (overwritten here); ``pokes``
    maps a class to ``(plane0, plane1, lane_mask)``; ``lane_rngs`` holds
    one rng per lane, read only by RANDOM ops (None for a schedule
    without them); ``conflict(dst, lanes, prior0, prior1, new0, new1)``
    records per-lane multi-drive violations (raising in strict mode).

    The op set and resolution rules mirror
    :func:`repro.core.schedule.execute` exactly, lifted to planes; see
    the module docstring for the encoding algebra.
    """
    M = mask
    get_poke = pokes.get

    # Source firings (cycle start).
    for i in sched.free_nets:
        vals0[i] = 0
        vals1[i] = 0
    for i, default in sched.input_defaults:
        d0 = M  # defaults are ZERO (M, 0) or UNDEF (M, M)
        d1 = M if default is Logic.UNDEF else 0
        pk = get_poke(i)
        if pk is None:
            vals0[i] = d0
            vals1[i] = d1
        else:
            p0, p1, pm = pk
            free = M & ~pm
            vals0[i] = (d0 & free) | p0
            vals1[i] = (d1 & free) | p1
    for ri, qi in sched.reg_pairs:
        vals0[qi] = reg0[ri]
        vals1[qi] = reg1[ri]
    for op in sched.source_ops:
        if op[0] == OPC_RANDOM:
            ones = 0
            bit = 1
            for rng in lane_rngs:
                if rng.random() < 0.5:
                    ones |= bit
                bit <<= 1
            vals0[op[1]] = M ^ ones
            vals1[op[1]] = ones
        else:
            vals0[op[1]], vals1[op[1]] = broadcast(op[2], M)

    # The single bit-parallel pass.
    for op in sched.ops:
        code = op[0]
        if code == OPC_COPY:
            dst = op[1]
            s0 = vals0[op[2]]
            s1 = vals1[op[2]]
            pk = get_poke(dst)
            if pk is None:
                vals0[dst] = s0
                vals1[dst] = s1
            else:
                p0, p1, _ = pk
                clash = (p0 | p1) & (s0 | s1)
                if clash:
                    conflict(dst, clash, p0, p1, s0, s1)
                vals0[dst] = p0 | s0 | clash
                vals1[dst] = p1 | s1 | clash
        elif code == OPC_AND:
            ins = op[1]
            if len(ins) == 2:  # the overwhelmingly common case, unrolled
                a0 = vals0[ins[0]]
                a1 = vals1[ins[0]]
                b0 = vals0[ins[1]]
                b1 = vals1[ins[1]]
                zeros = (a0 & ~a1) | (b0 & ~b1)
                one = (a1 & ~a0) & (b1 & ~b0) & ~zeros
            else:
                zeros = 0
                all_one = M
                for i in ins:
                    v0 = vals0[i]
                    v1 = vals1[i]
                    zeros |= v0 & ~v1
                    all_one &= v1 & ~v0
                one = all_one & ~zeros
            vals0[op[2]] = M & ~one
            vals1[op[2]] = M & ~zeros
        elif code == OPC_CLASS:
            dst = op[1]
            acc0 = acc1 = driven = maybe = conf = 0
            pk = get_poke(dst)
            if pk is not None:
                acc0, acc1, _ = pk
                driven = acc0 | acc1
            for cond, src, const in op[2]:
                if cond >= 0:
                    c0 = vals0[cond]
                    c1 = vals1[cond]
                    on = c1 & ~c0
                    # Guard UNDEF -- or a floating NOINFL guard, which
                    # amplifies to UNDEF -- *may* drive: poisons the lane.
                    maybe |= M & ~(on | (c0 & ~c1))
                    if not on:
                        continue
                else:
                    on = M
                if const is None:
                    d0 = vals0[src] & on
                    d1 = vals1[src] & on
                else:
                    b0, b1 = LOGIC_PLANES[const]
                    d0 = on if b0 else 0
                    d1 = on if b1 else 0
                drive = d0 | d1
                if drive:
                    clash = driven & drive
                    if clash:
                        conflict(dst, clash, acc0, acc1, d0, d1)
                        conf |= clash
                    acc0 |= d0
                    acc1 |= d1
                    driven |= drive
            vals0[dst] = acc0 | conf | maybe
            vals1[dst] = acc1 | conf | maybe
        elif code == OPC_NOT:
            v0 = vals0[op[1]]
            v1 = vals1[op[1]]
            vals0[op[2]] = M & ~(v0 & ~v1)
            vals1[op[2]] = M & ~(v1 & ~v0)
        elif code == OPC_EQUAL:
            diff = undef = 0
            for ai, bi in op[1]:
                a0 = vals0[ai]
                a1 = vals1[ai]
                b0 = vals0[bi]
                b1 = vals1[bi]
                both_def = (a0 ^ a1) & (b0 ^ b1)
                diff |= both_def & (a1 ^ b1)
                undef |= M & ~both_def
            vals0[op[2]] = diff | undef
            vals1[op[2]] = M & ~diff
        elif code == OPC_OR:
            ins = op[1]
            if len(ins) == 2:
                a0 = vals0[ins[0]]
                a1 = vals1[ins[0]]
                b0 = vals0[ins[1]]
                b1 = vals1[ins[1]]
                ones = (a1 & ~a0) | (b1 & ~b0)
                zero = (a0 & ~a1) & (b0 & ~b1) & ~ones
            else:
                ones = 0
                all_zero = M
                for i in ins:
                    v0 = vals0[i]
                    v1 = vals1[i]
                    ones |= v1 & ~v0
                    all_zero &= v0 & ~v1
                zero = all_zero & ~ones
            vals0[op[2]] = M & ~ones
            vals1[op[2]] = M & ~zero
        elif code == OPC_CONST:
            dst = op[1]
            s0, s1 = broadcast(op[2], M)
            pk = get_poke(dst)
            if pk is None:
                vals0[dst] = s0
                vals1[dst] = s1
            else:
                p0, p1, _ = pk
                clash = (p0 | p1) & (s0 | s1)
                if clash:
                    conflict(dst, clash, p0, p1, s0, s1)
                vals0[dst] = p0 | s0 | clash
                vals1[dst] = p1 | s1 | clash
        elif code == OPC_XOR:
            ins = op[1]
            if len(ins) == 2:
                a0 = vals0[ins[0]]
                a1 = vals1[ins[0]]
                b0 = vals0[ins[1]]
                b1 = vals1[ins[1]]
                all_def = (a0 ^ a1) & (b0 ^ b1)
                parity = (a1 & ~a0) ^ (b1 & ~b0)
            else:
                all_def = M
                parity = 0
                for i in ins:
                    v0 = vals0[i]
                    v1 = vals1[i]
                    all_def &= v0 ^ v1
                    parity ^= v1 & ~v0
            nd = M & ~all_def
            vals0[op[2]] = (all_def & ~parity) | nd
            vals1[op[2]] = (all_def & parity) | nd
        elif code == OPC_NAND:
            zeros = 0
            all_one = M
            for i in op[1]:
                v0 = vals0[i]
                v1 = vals1[i]
                zeros |= v0 & ~v1
                all_one &= v1 & ~v0
            one = all_one & ~zeros
            # NOT of a NOINFL-free value just swaps the planes.
            vals0[op[2]] = M & ~zeros
            vals1[op[2]] = M & ~one
        elif code == OPC_NOR:
            ones = 0
            all_zero = M
            for i in op[1]:
                v0 = vals0[i]
                v1 = vals1[i]
                ones |= v1 & ~v0
                all_zero &= v0 & ~v1
            zero = all_zero & ~ones
            vals0[op[2]] = M & ~zero
            vals1[op[2]] = M & ~ones
