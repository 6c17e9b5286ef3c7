"""The cycle-level flight recorder.

The paper's section-8 dataflow semantics make every net value the result
of a discrete firing event, so a simulator over that semantics can
record *why* every value is what it is — not just what it is.  The
flight recorder is the event store that makes that possible: a bounded
ring buffer of per-cycle :class:`CycleRecord` snapshots that every
engine (dataflow, levelized, batched) feeds through the shared
``Simulator.step`` loop.

Design constraints, in order:

* **near-zero cost when disabled** — a simulator constructed without
  ``flight=`` pays exactly one ``is not None`` test per cycle;
* **bounded memory when enabled** — the ring holds at most ``capacity``
  cycles; older records are dropped (and counted in :attr:`dropped`)
  so arbitrarily long runs cannot leak;
* **engine-independent** — the record is taken after the combinational
  pass and the register latch, from state every engine maintains
  (the value array, the register file, the poke table, the violation
  list).  On the batched engine the recorder observes lane 0 — the
  scalar-comparable view, matching ``peek``/``Trace`` — while
  violations keep their lane tags for all lanes.

What one :class:`CycleRecord` holds:

* ``values`` — the post-evaluate value of every net class (a firing
  event per non-None entry; the *cause* of each firing is static — the
  class's producer in the semantics graph — and is resolved by
  :meth:`FlightRecorder.events` / :mod:`repro.obs.causal`);
* ``regs`` — the register file after the cycle's latch;
* ``pokes`` — the primary-input pokes in force this cycle;
* ``violations`` — the multiplex-conflict violations this cycle raised
  (with lane tags on the batched engine).

:mod:`repro.obs.causal` walks these records backward through the
netlist fan-in to answer "why is this net UNDEF / violating / 1 at
cycle C"; ``zeus.trace/1`` (:mod:`repro.obs.export`) serialises them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..core.values import Logic

if TYPE_CHECKING:
    from ..core.simulator import Simulator, Violation

#: The order in which a class's static cause names its producers.
_CAUSE_ORDER = {"gate": 0, "drivers": 1, "register": 2, "input": 3}


@dataclass
class CycleRecord:
    """One cycle's flight-recorder snapshot."""

    __slots__ = ("cycle", "values", "regs", "pokes", "violations")

    cycle: int
    #: post-evaluate value per net class (None = never fired this cycle,
    #: possible only on unchecked cyclic designs).
    values: list
    #: register file *after* this cycle's latch (lane 0 on batched).
    regs: list
    #: class index -> poked Logic value in force this cycle (lane 0).
    pokes: dict
    #: the Violation objects this cycle raised (all lanes).
    violations: list


@dataclass
class FlightEvent:
    """One derived event: a firing, latch, poke or violation."""

    cycle: int
    kind: str  # "fire" | "latch" | "poke" | "violation"
    net: str
    value: str
    cause: str = ""
    lane: int | None = None
    values: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {
            "cycle": self.cycle,
            "kind": self.kind,
            "net": self.net,
            "value": self.value,
        }
        if self.cause:
            d["cause"] = self.cause
        if self.lane is not None:
            d["lane"] = self.lane
        if self.values:
            d["values"] = list(self.values)
        return d


class FlightRecorder:
    """A bounded ring buffer of per-cycle simulator snapshots.

    Construct with a cycle capacity and hand it to a simulator
    (``Simulator(design, flight=recorder)`` or the shorthand
    ``flight=N``).  The simulator calls :meth:`bind` once and
    :meth:`record` after each full clock cycle; everything else is the
    read side.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(
                f"flight recorder needs capacity >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.records: deque[CycleRecord] = deque(maxlen=capacity)
        #: cycles that fell off the ring (recorded then evicted).
        self.dropped = 0
        #: False pauses recording (the step hook then costs one extra
        #: attribute test per cycle; no record is taken).
        self.enabled = True
        self._sim: "Simulator | None" = None
        #: static producer map: class index -> (kind, detail) list,
        #: built lazily by :meth:`producers`.
        self._producers: list[list[tuple[str, object]]] | None = None

    # -- write side (called by the simulator) --------------------------

    def bind(self, sim: "Simulator") -> None:
        """Attach to *sim* (called from ``Simulator.__init__``).

        Rebinding to a different simulator drops everything recorded
        for the previous one: snapshots, the dropped counter, and the
        cached producer map (which indexes the *old* netlist — resolving
        causes through it would mislabel every event)."""
        if self._sim is not None and self._sim is not sim:
            self.records.clear()
            self.dropped = 0
            self._producers = None
        self._sim = sim

    def record(self, sim: "Simulator", new_violations: list) -> None:
        """Snapshot the cycle that just completed (post-latch)."""
        if not self.enabled:
            return
        if sim.lanes is not None:
            if sim._values_stale:
                sim._materialize_lane0()
            from ..core.batched import lane_value

            regs = [
                lane_value(sim._breg0[ri], sim._breg1[ri], 0)
                for ri in range(len(sim._breg0))
            ]
            pokes = {
                i: lane_value(p0, p1, 0)
                for i, (p0, p1, pm) in sim._bpokes.items()
                if pm & 1
            }
        else:
            regs = list(sim._reg_state)
            pokes = dict(sim._pokes)
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(
            CycleRecord(
                sim.cycle, list(sim.values), regs, pokes, list(new_violations)
            )
        )

    def reset(self) -> None:
        """Drop every recorded cycle (a fresh run; see ``reset_state``):
        the ring, the derived event stream window, the dropped counter,
        and the cached producer map all go -- nothing recorded before
        the reset can leak into a later explain window."""
        self.records.clear()
        self.dropped = 0
        self._producers = None

    # -- read side ------------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        if self._sim is None:
            raise RuntimeError("flight recorder is not bound to a simulator")
        return self._sim

    @property
    def first_cycle(self) -> int | None:
        """Oldest recorded cycle (None when empty)."""
        return self.records[0].cycle if self.records else None

    @property
    def last_cycle(self) -> int | None:
        """Newest recorded cycle (None when empty)."""
        return self.records[-1].cycle if self.records else None

    def __len__(self) -> int:
        return len(self.records)

    def cycles(self) -> range:
        """The recorded cycle window as a range."""
        if not self.records:
            return range(0)
        return range(self.records[0].cycle, self.records[-1].cycle + 1)

    def snapshot(self, cycle: int) -> CycleRecord:
        """The record of *cycle*; KeyError when outside the window
        (never simulated, or already evicted from the ring)."""
        if not self.records:
            raise KeyError(
                f"flight recorder is empty (no cycles recorded); "
                f"cannot inspect cycle {cycle}"
            )
        first = self.records[0].cycle
        last = self.records[-1].cycle
        if not first <= cycle <= last:
            raise KeyError(
                f"cycle {cycle} is outside the recorded window "
                f"[{first}..{last}] "
                f"({self.dropped} older cycle(s) dropped from the ring)"
            )
        rec = self.records[cycle - first]
        assert rec.cycle == cycle
        return rec

    def peek(self, path: str, cycle: int) -> list[Logic]:
        """The recorded value of *path* at *cycle*, with the same
        boolean NOINFL-to-UNDEF amplification as ``Simulator.peek``
        (so it is directly comparable to a :class:`Trace` sample)."""
        from ..core.types import BOOLEAN

        sim = self.sim
        rec = self.snapshot(cycle)
        out: list[Logic] = []
        for net in sim.nets_of(path):
            v = rec.values[sim._idx(net)]
            if v is None:
                v = Logic.UNDEF
            if net.kind == BOOLEAN:
                v = v.to_boolean()
            out.append(v)
        return out

    # -- static cause resolution ----------------------------------------

    def producers(self) -> list[list[tuple[str, object]]]:
        """Per class: its producers in the semantics graph, as
        ``(kind, detail)`` pairs — ``("gate", gate_index)``,
        ``("drivers", (DriverInfo, ...))``, ``("register", reg_index)``,
        ``("input", None)``, ``("free", None)``.  A checked schedulable
        design has exactly one producer per class; the dataflow oracle
        also runs designs where classes carry several."""
        if self._producers is None:
            view = self.sim.view
            prod: list[list[tuple[str, object]]] = []
            for entries in view.producers():
                row: list[tuple[str, object]] = []
                for kind, k in sorted(entries,
                                      key=lambda e: _CAUSE_ORDER[e[0]]):
                    if kind == "drivers":
                        row.append((kind, tuple(view.drivers_of[k])))
                    else:
                        row.append((kind, None if kind == "input" else k))
                prod.append(row or [("free", None)])
            self._producers = prod
        return self._producers

    def _cause(self, i: int) -> str:
        """A short static cause label for class *i*'s firings."""
        sim = self.sim
        parts = []
        for kind, detail in self.producers()[i]:
            if kind == "gate":
                gi = detail
                parts.append(f"{sim._gates[gi].op} gate")
            elif kind == "drivers":
                parts.append(f"{len(detail)} driver(s)")
            elif kind == "register":
                reg = sim.netlist.regs[detail]
                parts.append(f"REG {reg.name or '$reg%d' % reg.id}")
            elif kind == "input":
                parts.append("primary input")
            else:
                parts.append("free default")
        return " + ".join(parts)

    def events(
        self, cycle: int | None = None, *, include_synthetic: bool = True
    ) -> Iterator[FlightEvent]:
        """Derive the event stream: firings (with their static cause),
        pokes, register latches, and violations.  *cycle* limits to one
        cycle; ``include_synthetic=False`` drops elaborator-synthesized
        ``$``-nets (gate outputs etc.) from the firing events."""
        sim = self.sim
        display = sim.view.display
        recs = (
            [self.snapshot(cycle)] if cycle is not None else list(self.records)
        )
        for rec in recs:
            for i, v in rec.pokes.items():
                yield FlightEvent(
                    rec.cycle, "poke", display[i], str(v), "testbench poke"
                )
            for i, v in enumerate(rec.values):
                if v is None:
                    continue
                name = display[i]
                if not include_synthetic and name.split(".")[-1].startswith("$"):
                    continue
                yield FlightEvent(rec.cycle, "fire", name, str(v), self._cause(i))
            for ri, di in enumerate(sim._reg_d):
                d = rec.values[di]
                if d is not None and d is not Logic.NOINFL:
                    reg = sim.netlist.regs[ri]
                    yield FlightEvent(
                        rec.cycle,
                        "latch",
                        reg.name or f"$reg{reg.id}",
                        str(d),
                        "REG stored a driving value at cycle end",
                    )
            for viol in rec.violations:
                yield FlightEvent(
                    rec.cycle,
                    "violation",
                    viol.net,
                    str(Logic.UNDEF),
                    "multiple (0,1,UNDEF) assignments",
                    lane=viol.lane,
                    values=[str(v) for v in viol.values],
                )

    def describe(self) -> str:
        window = self.cycles()
        span = (
            f"cycles {window.start}..{window.stop - 1}" if window else "empty"
        )
        return (
            f"flight recorder: {len(self.records)}/{self.capacity} cycles "
            f"({span}, {self.dropped} dropped)"
        )
