"""Lane data for bit-parallel simulation: the bitplane encoding, lane
I/O and :class:`BatchStimulus`.

The lane engine (``engine="codegen"``, alias ``"batched"``) packs N
independent stimulus *lanes* into machine words and evaluates all of
them in one pass of a compiled kernel (:mod:`repro.core.codegen`) --
the classic bit-parallel move of Barzilai et al.'s HSS and every
compiled-code fault simulator since.  Everything that sweeps many
independent vectors (``exhaustive_equivalent``, ``random_equivalent``,
the fuzz suite, formal counterexample replay, zeusd session muxes)
rides on it.  This module holds the data side of that engine.

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
so the lane count is limited only by memory.  A poke is a triple
``(plane0, plane1, lane_mask)``: lanes outside the mask keep their
input default.

Lane I/O
--------

:func:`pack`/:func:`unpack` (and ``Simulator.poke_lanes``/
``peek_lanes``) move values between per-lane lists and planes through
*lane columns*, one character per lane, in time linear in the lane
count; :func:`lane_value` reads a single lane.

Equivalence contract
--------------------

Lane ``k`` of a lane run with seed ``s`` is observationally identical
to a scalar (levelized or dataflow) run driven with lane ``k``'s
stimulus and seed ``s + k``: same peeks, the same per-lane register
state, the same per-lane multiplex-conflict violations, and the same
RANDOM-gate stream (each lane owns a ``random.Random(s + k)`` consumed
in gate-index order per cycle, exactly the scalar engines' consumption
order for that seed).  ``tests/test_engines.py`` checks the contract
metamorphically over the stdlib programs and the fuzz corpus.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

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
