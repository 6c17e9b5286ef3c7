"""The Zeus simulator: dataflow firing rules over the semantics graph
(paper section 8) plus the synchronous REG/CLK model (section 5).

One **clock cycle** re-evaluates every signal:

1. registers fire their stored value on the ``out`` pin, primary inputs
   fire their poked values, constants fire, RANDOM sources fire;
2. values propagate by the firing rules: a gate node fires as soon as its
   output is determined (AND fires 0 on the first 0 input); a boolean
   signal fires as soon as one driving value (0, 1, UNDEF) reaches it;
   a multiplex signal fires once *all* incoming edges have contributed,
   resolving NOINFL < {0, 1, UNDEF};
3. at the cycle end every REG latches: a driving value on ``in`` is
   stored; NOINFL (no active assignment this cycle) keeps the old value
   ("if *in* is not changed during a clock cycle, it keeps its value").

The runtime safety rule ("the simulator checks that at most one
(0,1,UNDEF)-assignment takes place at runtime") raises
:class:`~repro.lang.errors.SimulationError` in strict mode and records a
violation otherwise.

Class values are kept in the raw multiplex domain; consumption converts:
gate inputs and boolean ``peek`` results map NOINFL to UNDEF (the
implicit amplifier of section 3.2), REG latching maps NOINFL to "keep".
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ..lang.errors import SimulationError
from ..obs.metrics import SimMetrics
from .batched import (
    _LOGIC_CHAR,
    LOGIC_PLANES,
    PLANE_LOGIC,
    _column_planes,
    _column_poked,
    lane_value,
    unpack,
)
from .elaborate import Design
from .netlist import Gate, Net
from .schedule import Schedule, ScheduleError, build_schedule
from .schedule import execute as _execute_schedule
from .types import BOOLEAN
from .values import Logic
from .view import ClassView, DriverInfo

#: Valid values for the ``engine=`` knob.
ENGINES = ("auto", "levelized", "dataflow", "batched", "codegen")

PokeValue = Union[Logic, int, str, Sequence[Union[Logic, int, str]]]


@dataclass
class Violation:
    """A recorded runtime rule violation (lenient mode).

    ``lane`` identifies the stimulus lane on the batched engine (None
    for the scalar engines).
    """

    cycle: int
    net: str
    values: list[Logic]
    lane: int | None = None

    def __str__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        where = f"cycle {self.cycle}"
        if self.lane is not None:
            where += f" lane {self.lane}"
        return f"{where}: signal {self.net!r} driven by [{vals}]"


class Simulator:
    """Cycle-based simulator for an elaborated (and ideally checked)
    :class:`~repro.core.elaborate.Design`.

    Three evaluators share the section-8 semantics:

    * ``"levelized"`` -- the scalar fast path: gates and drivers are
      compiled once into a static topological
      :class:`~repro.core.schedule.Schedule` of the REG-cut semantics
      graph and each cycle is a single pass over it (see
      :mod:`repro.core.schedule`);
    * ``"dataflow"`` -- the original firing-rule engine (worklist + watch
      lists), the semantics oracle and the only engine able to run
      unchecked cyclic designs;
    * ``"codegen"`` (alias ``"batched"``) -- the bit-parallel lane
      engine: *lanes* independent stimuli evaluate per pass of one
      exec-compiled kernel of the schedule, each net held as two
      bitplane ints (see :mod:`repro.core.codegen` and
      :mod:`repro.core.batched`).  Drive lanes with :meth:`poke_lanes`
      (scalar :meth:`poke` broadcasts), read them with
      :meth:`peek_lanes`; scalar :meth:`peek` and traces see lane 0.
      Lane ``k`` behaves exactly like a scalar run with seed
      ``seed + k``.  Exotic pokes (INOUT pins, internal nets, NOINFL
      lanes) select a kernel compiled with their merge code.  When no
      schedule can be built the lane API stays available through a
      per-lane dataflow fallback (the reason in :attr:`engine_reason`).

    ``engine="auto"`` (the default) selects the levelized engine whenever
    a schedule can be built, and otherwise falls back to dataflow with
    the reason recorded in :attr:`engine_reason`.  The resolved choice is
    in :attr:`engine`.
    """

    def __init__(
        self,
        design: Design,
        *,
        strict: bool = True,
        seed: int = 0,
        record_firing: bool = False,
        metrics: bool = False,
        engine: str = "auto",
        lanes: int = 64,
        flight=None,
        schedule: Schedule | None = None,
    ):
        self.design = design
        self.netlist = design.netlist
        self.strict = strict
        self.rng = random.Random(seed)
        self.violations: list[Violation] = []
        self.cycle = 0

        view = ClassView(self.netlist)
        #: the alias-class view the engines and the schedule read.
        self.view = view
        self._idx = view.idx
        n = view.n

        # Dataflow watch lists over the view's drivers, in their global
        # order (the oracle fires unconditional constants in it).
        self._cond_watch: dict[int, list[int]] = {}
        self._src_watch: dict[int, list[int]] = {}
        for di, drv in enumerate(view.drivers):
            if drv.cond is not None:
                self._cond_watch.setdefault(drv.cond, []).append(di)
            if drv.src is not None:
                self._src_watch.setdefault(drv.src, []).append(di)

        # Gates.
        self._gates: list[Gate] = self.netlist.gates
        self._gate_out = [view.idx(g.output) for g in self._gates]
        self._gate_in = [[view.idx(i) for i in g.inputs] for g in self._gates]
        self._gate_watch: dict[int, list[int]] = {}
        for gi, ins in enumerate(self._gate_in):
            for i in ins:
                self._gate_watch.setdefault(i, []).append(gi)
        self._has_random = any(g.op == "RANDOM" for g in self._gates)

        # Registers.
        self._reg_d = [view.idx(r.d) for r in self.netlist.regs]
        self._reg_q = [view.idx(r.q) for r in self.netlist.regs]
        self._reg_state: list[Logic] = [Logic.UNDEF] * len(self.netlist.regs)

        self._pokes: dict[int, Logic] = {}
        self.values: list[Logic | None] = [None] * n
        self._traces: list = []
        self._path_cache: dict[str, list[Net]] = {}

        # Activity metrics (repro.obs).  ``record_firing=True`` is the
        # legacy spelling: metrics plus the ordered firing-event log.
        gate_labels = [
            f"{g.op}->{view.display[self._gate_out[gi]]}"
            for gi, g in enumerate(self._gates)
        ]
        self.metrics = SimMetrics(
            list(view.display),
            gate_labels,
            enabled=metrics or record_firing,
            keep_firing_log=record_firing,
        )
        self._metrics_on = self.metrics.enabled
        self._prev_values: list[Logic | None] = [None] * n

        # Engine selection: compile the static schedule when possible.
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine_requested = engine
        self.engine = "dataflow"
        #: why the dataflow engine was selected ("" for levelized).
        self.engine_reason = ""
        self._schedule: Schedule | None = None
        #: lane count on the lane engine, None on the scalar engines.
        self.lanes: int | None = None
        #: the lane engine's current kernel (None on the scalar engines
        #: and the per-lane dataflow fallback).
        self._cg = None
        if engine in ("batched", "codegen"):
            if lanes < 1:
                raise ValueError(f"{engine} engine needs lanes >= 1, got {lanes}")
            if record_firing:
                raise ValueError(
                    "record_firing needs a scalar engine (the firing log "
                    "is defined by dataflow propagation order)"
                )
            self.engine = "codegen"
            self.lanes = lanes
            self._lane_mask = (1 << lanes) - 1
            #: lane k's rng, seeded seed + k; only RANDOM gates read
            #: them, so designs without one build none.
            self._lane_rngs = (
                [random.Random(seed + k) for k in range(lanes)]
                if self._has_random else None
            )
            self._bvals0 = [0] * n
            self._bvals1 = [0] * n
            self._bpokes: dict[int, tuple[int, int, int]] = {}
            n_regs = len(self._reg_state)
            self._breg0 = [self._lane_mask] * n_regs
            self._breg1 = [self._lane_mask] * n_regs
            #: lane 0 not yet copied into ``self.values`` (lazy peek).
            self._values_stale = False
            #: True when the bit-parallel schedule path is active (False
            #: means the per-lane dataflow fallback).
            self._batched_fast = False
            from ..obs.spans import span

            try:
                if schedule is not None:
                    self._schedule = schedule
                else:
                    with span("schedule", design=self.design.name):
                        self._schedule = build_schedule(self)
                self._batched_fast = True
            except ScheduleError as exc:
                self.engine_reason = (
                    f"bit-parallel fallback to per-lane dataflow: {exc}"
                )
            if self._batched_fast:
                #: driverless inputs: every kernel merges their pokes.
                self._plain_inputs = frozenset(
                    i for i, _ in self._schedule.input_defaults
                )
                #: one compiled kernel per distinct exotic-poke set.
                self._kernels: dict = {}
                self._select_kernel()
        elif engine == "dataflow":
            self.engine_reason = "dataflow engine requested"
        elif engine == "auto" and self.metrics.keep_firing_log:
            # The firing log is defined by dataflow propagation order.
            self.engine_reason = "record_firing needs the dataflow event order"
        else:
            from ..obs.spans import span

            try:
                if schedule is not None:
                    self._schedule = schedule
                else:
                    with span("schedule", design=self.design.name):
                        self._schedule = build_schedule(self)
                self.engine = "levelized"
            except ScheduleError as exc:
                if engine == "levelized":
                    raise SimulationError(
                        f"cannot build a levelized schedule: {exc}"
                    ) from exc
                self.engine_reason = str(exc)
        self.metrics.engine = self.engine
        self.metrics.lanes = self.lanes
        if self.lanes is not None:
            self.metrics.fast_path = self._batched_fast

        # Flight recorder (repro.obs.flight): ``flight=N`` is shorthand
        # for a fresh recorder holding the last N cycles.
        if flight is None:
            self.flight = None
        else:
            from ..obs.flight import FlightRecorder

            if isinstance(flight, int):
                flight = FlightRecorder(flight)
            flight.bind(self)
            self.flight = flight

    @property
    def record_firing(self) -> bool:
        """Legacy flag view: True when the firing-event log is kept."""
        return self.metrics.enabled and self.metrics.keep_firing_log

    @property
    def firing_log(self) -> list[tuple[str, Logic]]:
        """Ordered ``(display_name, value)`` firing events (legacy view
        of ``self.metrics.firing_log``)."""
        return self.metrics.firing_log

    # -- path resolution ------------------------------------------------------

    def nets_of(self, path: str) -> list[Net]:
        """Resolve a hierarchical signal path to its flattened nets.

        Accepts full paths (``adder.a``), top-relative paths (``a``), and
        a trailing ``[i]`` element selection on a registered array.
        Resolutions are cached (the netlist is immutable), so the hot
        peek/poke path and :meth:`~repro.core.trace.Trace.bind` pay the
        search at most once per distinct path."""
        nets = self._path_cache.get(path)
        if nets is None:
            nets = self._resolve_nets(path)
            self._path_cache[path] = nets
        return nets

    def _resolve_nets(self, path: str) -> list[Net]:
        signals = self.netlist.signals
        if path in signals:
            return signals[path]
        qualified = f"{self.design.name}.{path}"
        if qualified in signals:
            return signals[qualified]
        for candidate in (path, qualified):
            if "[" in candidate and candidate.endswith("]"):
                base, _, idx = candidate.rpartition("[")
                if base in signals:
                    try:
                        i = int(idx[:-1])
                    except ValueError:
                        continue
                    element = f"{base}[{i}]"
                    if element in signals:
                        return signals[element]
            # Mapped field access over an array of components: the paper's
            # abbreviation rule (``state.out`` == ``state[1..n].out``).
            if "." in candidate:
                base, _, field = candidate.rpartition(".")
                pat = re.compile(
                    re.escape(base) + r"\[(-?\d+)\]\." + re.escape(field) + "$"
                )
                hits: list[tuple[int, list[Net]]] = []
                for key, nets in signals.items():
                    m = pat.match(key)
                    if m:
                        hits.append((int(m.group(1)), nets))
                if hits:
                    hits.sort()
                    return [n for _, nets in hits for n in nets]
        raise KeyError(f"unknown signal path {path!r}")

    # -- poking and peeking ---------------------------------------------------

    def poke(self, path: str, value: PokeValue) -> None:
        """Set a primary input (or INOUT pin) for the coming cycles.

        Accepts a Logic value, 0/1, "UNDEF"/"NOINFL", a bit list (index 1
        = LSB first, matching BIN), or an int for multi-bit signals.  On
        the batched engine the value broadcasts to every lane."""
        nets = self.nets_of(path)
        bits = _coerce_bits(value, len(nets), path)
        if self.lanes is not None:
            M = self._lane_mask
            for net, bit in zip(nets, bits):
                b0, b1 = LOGIC_PLANES[bit]
                self._bpokes[self._idx(net)] = (
                    M if b0 else 0, M if b1 else 0, M
                )
            self._cg_dirty = True
            return
        for net, bit in zip(nets, bits):
            self._pokes[self._idx(net)] = bit

    def unpoke(self, path: str) -> None:
        """Release a poked signal (it will default again)."""
        for net in self.nets_of(path):
            self._pokes.pop(self._idx(net), None)
            if self.lanes is not None:
                self._bpokes.pop(self._idx(net), None)
        self._cg_dirty = True

    def poke_lanes(self, path: str, values: Sequence) -> None:
        """Set a signal per lane (batched engine only).

        *values* has one entry per lane: anything :meth:`poke` accepts,
        or ``None`` for "no poke on this lane" (the lane keeps its input
        default).  Replaces any previous poke of *path*."""
        self._require_lanes("poke_lanes needs")
        lane_values = list(values)
        if len(lane_values) != self.lanes:
            raise ValueError(
                f"poke_lanes {path!r}: got {len(lane_values)} lane values "
                f"for {self.lanes} lanes"
            )
        nets = self.nets_of(path)
        width = len(nets)
        # One width-character chunk per lane, most significant bit
        # first.  With the lanes joined highest first, bit j of every
        # lane is the lane column text[width-1-j::width].
        binary = f"0{width}b"
        limit = 1 << width
        unpoked = "N" * width
        chunks = []
        for k, v in enumerate(lane_values):
            if type(v) is int and 0 <= v < limit:  # not bool, not Logic
                chunks.append(format(v, binary))
            elif v is None:
                chunks.append(unpoked)
            else:
                bits = _coerce_lane(v, width, path, k)
                chunks.append("".join([_LOGIC_CHAR[b] for b in bits[::-1]]))
        self._cg_dirty = True
        if not width:  # a zero-width signal has no bit columns
            return
        text = "".join(reversed(chunks))
        mask = _column_poked(text[width - 1::width])
        if not mask:
            for net in nets:
                self._bpokes.pop(self._idx(net), None)
            return
        for j, net in enumerate(nets):
            p0, p1 = _column_planes(text[width - 1 - j::width])
            self._bpokes[self._idx(net)] = (p0, p1, mask)

    def peek_lanes(self, path: str) -> list[list[Logic]]:
        """Read a signal on every lane (batched engine only): one list
        of per-bit Logic values per lane (boolean signals convert NOINFL
        to UNDEF, as :meth:`peek` does)."""
        self._require_lanes("peek_lanes needs")
        M = self._lane_mask
        per_net: list[list[Logic]] = []
        for net in self.nets_of(path):
            i = self._idx(net)
            p0 = self._bvals0[i]
            p1 = self._bvals1[i]
            if net.kind == BOOLEAN:
                # The amplifier on every lane at once: floating is UNDEF.
                floating = M & ~(p0 | p1)
                p0 |= floating
                p1 |= floating
            per_net.append(unpack(p0, p1, self.lanes))
        if not per_net:
            return [[] for _ in range(self.lanes)]
        return list(map(list, zip(*per_net)))

    def peek_lane(self, path: str, lane: int) -> list[Logic]:
        """One lane's per-bit values (batched engine only)."""
        self._require_lanes("peek_lane needs")
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} out of range 0..{self.lanes - 1}")
        out: list[Logic] = []
        for net in self.nets_of(path):
            i = self._idx(net)
            v = lane_value(self._bvals0[i], self._bvals1[i], lane)
            if net.kind == BOOLEAN:
                v = v.to_boolean()
            out.append(v)
        return out

    def peek_lane_int(self, path: str, lane: int) -> int | None:
        """One lane's numeric value, or None when any bit is undefined."""
        from .values import num_of

        return num_of(self.peek_lane(path, lane))

    # -- lane sessions (the zeusd multiplexer's primitives) -------------------
    #
    # A *lane session* treats one lane of a shared batched simulator as
    # an independent user simulation: :meth:`reset_lane` hands the lane
    # out fresh (registers UNDEF, no pokes, rng reseeded),
    # :meth:`poke_lane`/:meth:`unpoke_lane` drive only that lane, and
    # :meth:`step_lanes` advances a *subset* of lanes one cycle while
    # every other lane is provably untouched: its register planes are
    # not latched, its value-plane bits are restored after the pass, its
    # rng stream does not advance, and its phantom violations are
    # dropped.  A session stepped n times with seed q therefore observes
    # exactly what an isolated scalar run seeded q would after n cycles,
    # regardless of how other lanes interleave (the batched engine's
    # lane-isolation contract, per lane-mask).

    def _require_lanes(self, who: str) -> None:
        """Raise unless a lane engine runs; *who* is the subject and
        verb of the message ("poke_lanes needs")."""
        if self.lanes is None:
            raise SimulationError(
                f"{who} engine='batched' or 'codegen' "
                f"(this simulator runs {self.engine!r})"
            )

    def _lane_bit(self, lane: int) -> int:
        self._require_lanes("lane sessions need")
        if not 0 <= lane < self.lanes:
            raise ValueError(f"lane {lane} out of range 0..{self.lanes - 1}")
        return 1 << lane

    def reset_lane(self, lane: int, seed: int | None = None) -> None:
        """Return *lane* to a fresh-run state: registers UNDEF, value
        planes UNDEF, every poke on the lane released, and -- when
        *seed* is given -- the lane rng reseeded so the lane behaves
        like a scalar run constructed with that seed."""
        bit = self._lane_bit(lane)
        for ri in range(len(self._breg0)):
            self._breg0[ri] |= bit
            self._breg1[ri] |= bit
        for i in range(len(self._bvals0)):
            self._bvals0[i] |= bit
            self._bvals1[i] |= bit
        self._clear_lane_pokes(bit)
        if seed is not None and self._lane_rngs is not None:
            self._lane_rngs[lane] = random.Random(seed)
        self._values_stale = True
        self._cg_dirty = True

    def _clear_lane_pokes(self, bit: int) -> None:
        stale = [i for i, (p0, p1, pm) in self._bpokes.items() if pm & bit]
        for i in stale:
            p0, p1, pm = self._bpokes[i]
            pm &= ~bit
            if pm:
                self._bpokes[i] = (p0 & ~bit, p1 & ~bit, pm)
            else:
                del self._bpokes[i]

    def poke_lane(self, path: str, lane: int, value: PokeValue) -> None:
        """Set a signal on one lane only, leaving every other lane's
        poke of *path* (or its input default) in place."""
        bit = self._lane_bit(lane)
        nets = self.nets_of(path)
        bits = _coerce_lane(value, len(nets), path, lane)
        for net, b in zip(nets, bits):
            i = self._idx(net)
            b0, b1 = LOGIC_PLANES[b]
            p0, p1, pm = self._bpokes.get(i, (0, 0, 0))
            self._bpokes[i] = (
                (p0 & ~bit) | (bit if b0 else 0),
                (p1 & ~bit) | (bit if b1 else 0),
                pm | bit,
            )
        self._cg_dirty = True

    def unpoke_lane(self, path: str, lane: int) -> None:
        """Release one lane's poke of *path* (back to the input
        default), leaving the other lanes' pokes in place."""
        bit = self._lane_bit(lane)
        for net in self.nets_of(path):
            i = self._idx(net)
            pk = self._bpokes.get(i)
            if pk is None:
                continue
            p0, p1, pm = pk
            pm &= ~bit
            if pm:
                self._bpokes[i] = (p0 & ~bit, p1 & ~bit, pm)
            else:
                del self._bpokes[i]
        self._cg_dirty = True

    def step_lanes(
        self, active: "int | Iterable[int]", cycles: int = 1
    ) -> list[Violation]:
        """Advance only the *active* lanes (a bitmask or an iterable of
        lane indices) through *cycles* full clock cycles.

        Frozen (non-active) lanes are completely unaffected: their
        registers do not latch, their value-plane bits are restored
        after each pass, their rng streams do not advance, and
        violations raised on them are discarded (they will re-occur,
        identically, on the lane's own next active step).  Returns the
        new violations recorded for active lanes, stamped with this
        simulator's shared cycle counter (a session multiplexer remaps
        them to per-session cycles).

        In strict mode a violation on an *active* lane raises after the
        pass completes; frozen-lane phantoms never raise.
        """
        if isinstance(active, int):
            amask = active
        else:
            amask = 0
            for k in active:
                amask |= self._lane_bit(k)
        self._require_lanes("step_lanes needs")
        M = self._lane_mask
        if amask & ~M:
            raise ValueError(
                f"active mask {amask:#x} selects lanes beyond "
                f"{self.lanes - 1}"
            )
        fmask = M & ~amask
        if not amask:
            return []
        fresh: list[Violation] = []
        frozen_rngs = []
        if fmask and self._has_random:
            # The frozen lanes' rngs, read off one lane column of fmask.
            column = format(fmask, f"0{self.lanes}b")[::-1]
            frozen_rngs = [
                rng for rng, bit in zip(self._lane_rngs, column) if bit == "1"
            ]
        strict = self.strict
        for _ in range(cycles):
            v0 = len(self.violations)
            if fmask:
                old0 = self._bvals0[:]
                old1 = self._bvals1[:]
                rng_saves = [rng.getstate() for rng in frozen_rngs]
            # Strict raising is deferred: a phantom conflict on a frozen
            # lane must not abort an active lane's step.
            self.strict = False
            try:
                self.evaluate()
            finally:
                self.strict = strict
            new = self.violations[v0:]
            if fmask:
                kept = [
                    v for v in new
                    if v.lane is None or (amask >> v.lane) & 1
                ]
                if len(kept) != len(new):
                    del self.violations[v0:]
                    self.violations.extend(kept)
                    if self._metrics_on:
                        self.metrics.violations -= len(new) - len(kept)
                new = kept
                b0 = self._bvals0
                b1 = self._bvals1
                for i in range(len(b0)):
                    b0[i] = (old0[i] & fmask) | (b0[i] & amask)
                    b1[i] = (old1[i] & fmask) | (b1[i] & amask)
                for rng, state in zip(frozen_rngs, rng_saves):
                    rng.setstate(state)
            fresh.extend(new)
            self._latch_lanes(amask)
            self.cycle += 1
        self._values_stale = True
        if strict and fresh:
            v = fresh[0]
            raise SimulationError(
                f"multiple (0,1,UNDEF) assignments to signal "
                f"{v.net!r} in cycle {v.cycle} (lane {v.lane}) "
                "(this would burn transistors)",
            )
        return fresh

    def _latch_lanes(self, amask: int) -> None:
        """The batched latch rule restricted to the lanes of *amask*."""
        mon = self._metrics_on
        b0 = self._bvals0
        b1 = self._bvals1
        r0 = self._breg0
        r1 = self._breg1
        for ri, di in enumerate(self._reg_d):
            d0 = b0[di] & amask
            d1 = b1[di] & amask
            driving = d0 | d1
            if not driving:
                continue
            keep = ~driving
            r0[ri] = (r0[ri] & keep) | d0
            r1[ri] = (r1[ri] & keep) | d1
            if mon:
                self.metrics.latches += driving.bit_count()

    def peek(self, path: str) -> list[Logic]:
        """Read current values (boolean signals convert NOINFL to UNDEF).

        On the batched engine this reads lane 0."""
        if self.lanes is not None and self._values_stale:
            self._materialize_lane0()
        out: list[Logic] = []
        for net in self.nets_of(path):
            i = self._idx(net)
            v = self.values[i]
            if v is None:
                v = Logic.UNDEF
            if net.kind == BOOLEAN:
                v = v.to_boolean()
            out.append(v)
        return out

    def peek_bit(self, path: str) -> Logic:
        bits = self.peek(path)
        if len(bits) != 1:
            raise KeyError(f"{path!r} is {len(bits)} bits wide, not 1")
        return bits[0]

    def peek_int(self, path: str) -> int | None:
        """Numeric value (NUM convention: element 1 is the LSB), or None
        when any bit is undefined."""
        from .values import num_of

        return num_of(self.peek(path))

    # -- the cycle ------------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        """Run *cycles* full clock cycles (evaluate + latch)."""
        m = self.metrics
        fl = self.flight
        for _ in range(cycles):
            if m.enabled:
                f0 = m.firings
                w0 = m.gate_evals + m.driver_evals
            v0 = len(self.violations)
            self.evaluate()
            self._latch()
            if m.enabled:
                m.cycles += 1
                m.firings_per_cycle.append(m.firings - f0)
                m.steps_per_cycle.append(m.gate_evals + m.driver_evals - w0)
                self._prev_values = list(self.values)
            if fl is not None:
                fl.record(self, self.violations[v0:])
            if self._traces:
                if self.lanes is not None and self._values_stale:
                    self._materialize_lane0()
                for trace in self._traces:
                    trace.sample(self)
            self.cycle += 1

    def evaluate(self) -> None:
        """One combinational evaluation pass (no latching), on the
        engine selected at construction."""
        if self.lanes is not None:
            self._evaluate_batched()
        elif self._schedule is not None:
            self._evaluate_levelized()
        else:
            self._evaluate_dataflow()

    def _evaluate_batched(self) -> None:
        """Bit-parallel pass: all lanes in one call of the compiled
        kernel (or the per-lane dataflow fallback), then lane 0
        materialized into ``self.values`` so scalar peeks and traces
        keep working."""
        mon = self.metrics.enabled
        self._metrics_on = mon
        if self._batched_fast:
            if self._cg_dirty:
                self._select_kernel()
            self._cg.fn(
                self._bvals0,
                self._bvals1,
                self._bpokes,
                self._breg0,
                self._breg1,
                self._lane_rngs,
                self._lane_conflict,
                self._lane_mask,
            )
        else:
            self._evaluate_batched_fallback()
            self._metrics_on = mon
        self._values_stale = True
        if mon:
            self._materialize_lane0()
            self._batched_metrics()

    def _materialize_lane0(self) -> None:
        """Copy lane 0 out of the planes into ``self.values`` (deferred
        until something actually reads scalar values: a pure batched
        sweep never pays this per cycle)."""
        PL = PLANE_LOGIC
        self.values = [
            PL[(x & 1) | ((y & 1) << 1)]
            for x, y in zip(self._bvals0, self._bvals1)
        ]
        self._values_stale = False

    def _select_kernel(self) -> None:
        """Point ``_cg`` at the kernel for the current poke table,
        compiling it on first use.  Exotic pokes -- any class but a
        driverless input, or an input with NOINFL lanes -- need their
        merge code compiled in (see :mod:`repro.core.codegen`)."""
        plain = self._plain_inputs
        poked = frozenset(
            i for i, (p0, p1, pm) in self._bpokes.items()
            if i not in plain or pm & ~(p0 | p1)
        )
        kernel = self._kernels.get(poked)
        if kernel is None:
            from ..obs.spans import span
            from . import codegen

            # Looked up on the module at call time, so a wrapped
            # ``codegen.compile_step`` sees every compile.
            with span("codegen", design=self.design.name):
                kernel = codegen.compile_step(self._schedule, poked=poked)
            self._kernels[poked] = kernel
        self._cg = kernel
        #: poke table changed since the kernel was selected.
        self._cg_dirty = False

    def _evaluate_batched_fallback(self) -> None:
        """Per-lane dataflow fallback: identical lane semantics at
        scalar speed.  Each lane temporarily owns the scalar poke table,
        register state, and rng (seed + lane), exactly reproducing an
        independent scalar run; results are packed back into planes."""
        m = self.metrics
        n = self.view.n
        out0 = [0] * n
        out1 = [0] * n
        saved_rng = self.rng
        rngs = self._lane_rngs
        metrics_were_on = m.enabled
        # The per-lane passes must not multiply the activity counters;
        # violations are re-counted from the list delta below.
        m.enabled = False
        try:
            for k in range(self.lanes):
                bit = 1 << k
                self._pokes = {
                    i: lane_value(p0, p1, k)
                    for i, (p0, p1, pm) in self._bpokes.items()
                    if pm & bit
                }
                self._reg_state = [
                    lane_value(self._breg0[ri], self._breg1[ri], k)
                    for ri in range(len(self._breg0))
                ]
                if rngs is not None:
                    self.rng = rngs[k]
                before = len(self.violations)
                try:
                    self._evaluate_dataflow()
                finally:
                    for v in self.violations[before:]:
                        v.lane = k
                    if metrics_were_on:
                        m.violations += len(self.violations) - before
                for i, v in enumerate(self.values):
                    if v is None:
                        continue
                    vb0, vb1 = LOGIC_PLANES[v]
                    if vb0:
                        out0[i] |= bit
                    if vb1:
                        out1[i] |= bit
        finally:
            m.enabled = metrics_were_on
            self.rng = saved_rng
            self._pokes = {}
        self._bvals0 = out0
        self._bvals1 = out1

    def _batched_metrics(self) -> None:
        """Activity accounting for one batched pass.  Net fires and
        toggles follow lane 0 (the scalar-comparable view); gate and
        driver evaluations count once per pass on the fast path (every
        gate really is evaluated once, for all lanes); ``lane_cycles``
        accumulates lanes-per-pass so throughput is lanes * cycles."""
        m = self.metrics
        prev = self._prev_values
        fires = m.net_fires
        toggles = m.net_toggles
        fired = 0
        for i, v in enumerate(self.values):
            if v is None:
                continue
            fired += 1
            fires[i] += 1
            p = prev[i]
            if p is not None and v is not p:
                toggles[i] += 1
        m.firings += fired
        m.lane_cycles += self.lanes
        sched = self._schedule
        if sched is not None:
            m.gate_evals += sched.n_gates
            m.driver_evals += sched.n_drivers
            evals = m.gate_eval_counts
            gate_fires = m.gate_fire_counts
            for gi in sched.gate_ids:
                evals[gi] += 1
                gate_fires[gi] += 1

    def _evaluate_levelized(self) -> None:
        """Fast path: one pass over the static schedule; the value array
        is reused, nothing else is allocated per cycle."""
        self._metrics_on = self.metrics.enabled
        _execute_schedule(
            self._schedule,
            self.values,
            self._pokes,
            self._reg_state,
            self.rng.random,
            self._conflict,
        )
        if self._metrics_on:
            self._levelized_metrics()

    def _levelized_metrics(self) -> None:
        """Activity accounting for one levelized pass.  The levelized
        engine touches every gate and driver exactly once per cycle, so
        ``gate_evals``/``driver_evals`` count real single evaluations
        (the dataflow engine may need several attempts per gate)."""
        m = self.metrics
        sched = self._schedule
        prev = self._prev_values
        fires = m.net_fires
        toggles = m.net_toggles
        fired = 0
        for i, v in enumerate(self.values):
            if v is None:
                continue
            fired += 1
            fires[i] += 1
            p = prev[i]
            if p is not None and v is not p:
                toggles[i] += 1
        m.firings += fired
        m.gate_evals += sched.n_gates
        m.driver_evals += sched.n_drivers
        evals = m.gate_eval_counts
        gate_fires = m.gate_fire_counts
        for gi in sched.gate_ids:
            evals[gi] += 1
            gate_fires[gi] += 1
        if m.keep_firing_log:
            # Levelized firing order is schedule order, not dataflow
            # propagation order (engine="auto" keeps dataflow instead).
            display = self.view.display
            log = m.firing_log
            for i, v in enumerate(self.values):
                if v is not None:
                    log.append((display[i], v))

    def _evaluate_dataflow(self) -> None:
        """The dataflow firing-rule engine (the semantics oracle)."""
        self._metrics_on = self.metrics.enabled
        n = self.view.n
        self.values = [None] * n
        self._contrib_count = [0] * n
        self._driving: list[Logic | None] = [None] * n
        self._conflicted = [False] * n
        self._maybe_count = [0] * n
        self._driver_done = [False] * len(self.view.drivers)
        self._gate_done = [False] * len(self._gates)
        self._extra_driver = [0] * n
        self._queue: list[int] = []

        # Poked inputs count as one extra driver on their class.
        for i, v in self._pokes.items():
            self._extra_driver[i] = 1

        # Initial firings.
        view = self.view
        for i in view.free:
            self._fire(i, Logic.NOINFL)
        for i, default in view.input_defaults:
            self._fire(i, self._pokes.get(i, default))
        for ri, qi in enumerate(self._reg_q):
            self._fire(qi, self._reg_state[ri])
        for gi, ins in enumerate(self._gate_in):
            if not ins:
                self._try_gate(gi)
        # Inputs that also have internal drivers (INOUT): contribute.
        for i, v in list(self._pokes.items()):
            if view.drivers_of[i] and self.values[i] is None:
                self._contribute(i, v)
        for di, drv in enumerate(view.drivers):
            if drv.cond is None and drv.const is not None:
                self._try_driver(di)

        # Propagate.
        while self._queue:
            i = self._queue.pop()
            for gi in self._gate_watch.get(i, ()):
                self._try_gate(gi)
            for di in self._cond_watch.get(i, ()):
                self._try_driver(di)
            for di in self._src_watch.get(i, ()):
                self._try_driver(di)

        # Anything still unfired (possible only on unchecked cyclic
        # graphs, or multiplex nets waiting on contributions that cannot
        # arrive) resolves to UNDEF.
        for i in range(n):
            if self.values[i] is None:
                self.values[i] = Logic.UNDEF

    def _fire(self, i: int, value: Logic) -> None:
        if self.values[i] is not None:
            return
        self.values[i] = value
        if self._metrics_on:
            m = self.metrics
            m.firings += 1
            m.net_fires[i] += 1
            prev = self._prev_values[i]
            if prev is not None and value is not prev:
                m.net_toggles[i] += 1
            if m.keep_firing_log:
                m.firing_log.append((self.view.display[i], value))
        self._queue.append(i)

    def _try_gate(self, gi: int) -> None:
        if self._gate_done[gi]:
            # Already fired: re-notification from a late input, not an
            # evaluation -- must not inflate the activity counters.
            return
        if self._metrics_on:
            self.metrics.gate_evals += 1
            self.metrics.gate_eval_counts[gi] += 1
        op = self._gates[gi].op
        ins = self._gate_in[gi]
        vals: list[Logic | None] = [
            self.values[i].to_boolean() if self.values[i] is not None else None
            for i in ins
        ]
        out = _gate_value(op, vals, self.rng)
        if out is not None:
            self._gate_done[gi] = True
            if self._metrics_on:
                self.metrics.gate_fire_counts[gi] += 1
            self._fire(self._gate_out[gi], out)

    def _try_driver(self, di: int) -> None:
        if self._metrics_on:
            self.metrics.driver_evals += 1
        if self._driver_done[di]:
            return
        drv = self.view.drivers[di]
        if drv.cond is not None:
            cv = self.values[drv.cond]
            if cv is None:
                return
            cb = cv.to_boolean()
            if cb is Logic.ZERO:
                contribution: Logic | None = Logic.NOINFL
                maybe = False
            elif cb is Logic.UNDEF:
                # The guard itself is undefined: the edge *may* drive.
                # This poisons the signal to UNDEF but is not a proven
                # double-drive (the decoded guards of a NUM access are
                # mutually exclusive, which the simulator cannot see).
                contribution = Logic.UNDEF
                maybe = True
            else:  # guard is 1: pass the source through
                contribution = self._source_value(drv)
                maybe = False
                if contribution is None:
                    return
        else:
            contribution = self._source_value(drv)
            maybe = False
            if contribution is None:
                return
        self._driver_done[di] = True
        self._contribute(drv.dst, contribution, maybe)

    def _source_value(self, drv: DriverInfo) -> Logic | None:
        if drv.const is not None:
            return drv.const
        assert drv.src is not None
        return self.values[drv.src]

    def _contribute(self, dst: int, value: Logic, maybe: bool = False) -> None:
        self._contrib_count[dst] += 1
        if maybe:
            self._maybe_count[dst] += 1
        elif value is not Logic.NOINFL:
            prior = self._driving[dst]
            if prior is None:
                self._driving[dst] = value
            else:
                self._multi_drive(dst, [prior, value])
        total = len(self.view.drivers_of[dst]) + self._extra_driver[dst]
        if self.view.is_boolean[dst] and total == 1 and not maybe:
            # Boolean firing rule: a single-driver boolean signal fires
            # as soon as its value arrives (the common case; signals with
            # several conditional drivers wait so maybe-drives resolve).
            if self._driving[dst] is not None:
                self._fire(dst, self._driving[dst])  # type: ignore[arg-type]
                return
        if self._contrib_count[dst] >= total:
            v = self._driving[dst]
            if self._maybe_count[dst]:
                v = Logic.UNDEF
            self._fire(dst, Logic.NOINFL if v is None else v)

    def _multi_drive(self, dst: int, values: list[Logic]) -> None:
        self._conflicted[dst] = True
        self._driving[dst] = Logic.UNDEF
        self._record_violation(dst, values)

    def _conflict(self, dst: int, prior: Logic, value: Logic) -> Logic:
        """Levelized-engine multi-drive hook: record and resolve to
        UNDEF (mirrors :meth:`_multi_drive` without dataflow scratch)."""
        self._record_violation(dst, [prior, value])
        return Logic.UNDEF

    def _lane_conflict(
        self, dst: int, lanes_mask: int, a0: int, a1: int, b0: int, b1: int
    ) -> None:
        """Batched-engine multi-drive hook: one violation per conflicted
        lane (UNDEF resolution is applied by the caller's plane algebra).
        In strict mode the lowest conflicted lane raises."""
        mon = self._metrics_on
        name = self.view.display[dst]
        m = lanes_mask
        while m:
            low = m & -m
            k = low.bit_length() - 1
            self.violations.append(
                Violation(
                    self.cycle,
                    name,
                    [lane_value(a0, a1, k), lane_value(b0, b1, k)],
                    lane=k,
                )
            )
            if mon:
                self.metrics.violations += 1
            if self.strict:
                raise SimulationError(
                    f"multiple (0,1,UNDEF) assignments to signal "
                    f"{name!r} in cycle {self.cycle} (lane {k}) "
                    "(this would burn transistors)",
                )
            m ^= low

    def _record_violation(self, dst: int, values: list[Logic]) -> None:
        self.violations.append(
            Violation(self.cycle, self.view.display[dst], values)
        )
        if self._metrics_on:
            self.metrics.violations += 1
        if self.strict:
            raise SimulationError(
                f"multiple (0,1,UNDEF) assignments to signal "
                f"{self.view.display[dst]!r} in cycle {self.cycle} "
                "(this would burn transistors)",
            )

    def _latch(self) -> None:
        if self.lanes is not None:
            self._latch_batched()
            return
        mon = self._metrics_on
        for ri, di in enumerate(self._reg_d):
            v = self.values[di]
            if v is not None and v is not Logic.NOINFL:
                self._reg_state[ri] = v
                if mon:
                    self.metrics.latches += 1

    def _latch_batched(self) -> None:
        """Per-lane REG latching: a lane with a driving (non-NOINFL)
        ``in`` value stores it, every other lane keeps its old value."""
        mon = self._metrics_on
        M = self._lane_mask
        b0 = self._bvals0
        b1 = self._bvals1
        r0 = self._breg0
        r1 = self._breg1
        for ri, di in enumerate(self._reg_d):
            d0 = b0[di]
            d1 = b1[di]
            driving = d0 | d1
            if not driving:
                continue
            keep = M & ~driving
            r0[ri] = (r0[ri] & keep) | d0
            r1[ri] = (r1[ri] & keep) | d1
            if mon:
                self.metrics.latches += driving.bit_count()

    # -- state management ------------------------------------------------------

    def reset_state(self) -> None:
        """Reset to a fresh run: registers back to UNDEF, cycle count,
        violations and activity metrics cleared, all signal values and
        pokes dropped (``peek`` reads UNDEF until the next cycle and no
        stale poke leaks into the new run).  On the batched engine this
        also clears every lane: the plane values, the per-lane register
        state, and the lane poke table."""
        self._reg_state = [Logic.UNDEF] * len(self._reg_state)
        self.cycle = 0
        self.violations.clear()
        self.metrics.reset()
        self._prev_values = [None] * len(self._prev_values)
        self.values = [None] * len(self.values)
        self._pokes.clear()
        if self.flight is not None:
            self.flight.reset()
        if self.lanes is not None:
            M = self._lane_mask
            self._breg0 = [M] * len(self._breg0)
            self._breg1 = [M] * len(self._breg1)
            self._bvals0 = [0] * len(self._bvals0)
            self._bvals1 = [0] * len(self._bvals1)
            self._bpokes.clear()
            # A pre-reset pass may have left lane 0 marked dirty; the
            # fresh planes above are the truth now.
            self._values_stale = False
            self._cg_dirty = True

    def registers(self, lane: int | None = None) -> dict[str, Logic]:
        """Current register contents by instance path.

        On the batched engine *lane* selects the stimulus lane (default
        lane 0); the scalar engines only accept lane ``None``/``0``."""
        if self.lanes is not None:
            k = 0 if lane is None else lane
            if not 0 <= k < self.lanes:
                raise ValueError(
                    f"lane {k} out of range 0..{self.lanes - 1}"
                )
            return {
                reg.name or f"$reg{reg.id}": lane_value(
                    self._breg0[i], self._breg1[i], k
                )
                for i, reg in enumerate(self.netlist.regs)
            }
        if lane not in (None, 0):
            raise ValueError(
                "register lanes need engine='batched' or 'codegen' "
                f"(this simulator runs {self.engine!r})"
            )
        return {
            reg.name or f"$reg{reg.id}": self._reg_state[i]
            for i, reg in enumerate(self.netlist.regs)
        }

    def attach_trace(self, trace) -> None:
        """Attach a :class:`~repro.core.trace.Trace`; paths are resolved
        to net indices once, here, so sampling is index-based."""
        bind = getattr(trace, "bind", None)
        if bind is not None:
            bind(self)
        self._traces.append(trace)

    @property
    def event_count(self) -> int:
        """Nets fired in the last evaluation (a work measure for the
        simulator-complexity benchmarks)."""
        if self.lanes is not None and self._values_stale:
            self._materialize_lane0()
        return sum(1 for v in self.values if v is not None)


def _gate_value(
    op: str, vals: list[Logic | None], rng: random.Random
) -> Logic | None:
    from . import values as V

    if op == "RANDOM":
        return Logic.ONE if rng.random() < 0.5 else Logic.ZERO
    fn = V.NETLIST_GATE_FUNCTIONS[op]
    return fn(vals)


def _coerce_bits(value: PokeValue, width: int, path: str) -> list[Logic]:
    if isinstance(value, Logic):
        bits = [value]
    elif isinstance(value, str):
        bits = [Logic.from_name(value)]
    elif isinstance(value, int):
        if width == 1:
            bits = [_one_bit(value)]
        else:
            from .values import bits_of

            bits = bits_of(value, width)
    elif isinstance(value, Iterable):
        bits = [_coerce_one(v) for v in value]
    else:
        raise TypeError(f"cannot interpret poke value {value!r}")
    if len(bits) != width:
        raise ValueError(
            f"poke {path!r}: got {len(bits)} bits for a {width}-bit signal"
        )
    return bits


def _coerce_lane(
    value: PokeValue, width: int, path: str, lane: int
) -> list[Logic]:
    """:func:`_coerce_bits` for one lane of a lane poke: a bad value's
    error names the lane."""
    try:
        return _coerce_bits(value, width, path)
    except (TypeError, ValueError) as exc:
        msg = str(exc)
        prefix = f"poke {path!r}: "
        if msg.startswith(prefix):
            msg = msg[len(prefix):]
        raise type(exc)(f"poke {path!r} lane {lane}: {msg}") from None


def _coerce_one(v: Logic | int | str) -> Logic:
    if isinstance(v, Logic):
        return v
    if isinstance(v, str):
        return Logic.from_name(v)
    return _one_bit(v)


def _one_bit(v: int) -> Logic:
    if v in (0, 1):
        return Logic.from_bit(v)
    raise ValueError(f"single-bit poke must be 0 or 1, got {v}")
