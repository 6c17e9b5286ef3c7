"""The timing graph: one levelized propagation, three consumers.

This module owns the repo's single implementation of topological
level/arrival propagation over the REG-cut combinational graph.
:func:`propagate_levels` is the unit-delay special case that
``analysis.netstats.logic_levels`` and ``ClassView.levels`` delegate
to; :class:`TimingGraph` generalizes it to a configurable delay model
(:mod:`repro.timing.delay`) with per-edge provenance, which is what the
k-worst path enumerator (:mod:`repro.timing.paths`) and the SAT
false-path pruner (:mod:`repro.timing.falsepath`) walk.

The graph is built over the design's :class:`~repro.core.view.ClassView`
(canonical net classes, ``gates_of``, ``drivers_of``, ``topo_order``),
exactly like the formal encoder, so STA, lint and the prover all see
the same structure.  Edge kinds:

``gate``
    Gate input -> gate output, annotated with the gate and the input
    position (the sensitization conditions depend on both).
``drive``
    Connection source -> destination (a plain copy or one arm of a
    multiplex bus), annotated with the :class:`DriverInfo`.
``guard``
    Enable condition -> destination of a conditional driver.  A guard
    toggle really does re-time the output, so guards are timing arcs,
    but their sensitization is value-dependent and never SAT-pruned.

Register outputs and primary inputs have no in-edges: they are the
startpoints, exactly as in the unit-delay levelization the checker has
always used.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.netlist import Gate


def propagate_levels(order, deps, edge_delay=None):
    """Topological level/arrival propagation.

    ``order`` is a topological order of node ids, ``deps[n]`` the ids
    *n* depends on.  Without *edge_delay* this is the classic
    unit-delay levelization (sources level 0, each edge adds one) —
    the one implementation behind ``netstats.logic_levels``,
    ``ClassView.levels`` and the unit timing model.  With
    *edge_delay* (a ``(node, pred) -> number`` callable) it computes
    arrival times ``arrival[n] = max(arrival[p] + edge_delay(n, p))``.
    """
    out: dict = {}
    if edge_delay is None:
        for n in order:
            preds = deps.get(n, ())
            out[n] = 1 + max((out[p] for p in preds), default=-1)
    else:
        for n in order:
            preds = deps.get(n, ())
            out[n] = max((out[p] + edge_delay(n, p) for p in preds),
                         default=0)
    return out


@dataclass(eq=False)
class TimingEdge:
    """One timing arc into class ``dst`` from class ``src``.  ``gate``/
    ``pos`` annotate gate arcs; ``driver`` (a :class:`DriverInfo`)
    annotates drive and guard arcs."""

    src: int
    dst: int
    kind: str  # "gate" | "drive" | "guard"
    gate: Gate | None = None
    pos: int | None = None  # gate input position
    driver: object | None = None

    def describe(self, ctx) -> str:
        if self.kind == "gate":
            return f"gate {self.gate.op}"
        return self.kind


class TimingGraph:
    """Arrival/required/slack analysis of one elaborated design.

    ``ctx`` is the design's :class:`~repro.core.view.ClassView`;
    ``model`` a :class:`~repro.timing.delay.DelayModel`.  Under the
    unit model the arrival times are *exactly* the unit-delay logic
    levels (the regression test pins this on the whole stdlib corpus).
    """

    def __init__(self, ctx, model):
        self.ctx = ctx
        self.model = model
        self.edges_in: list[list[TimingEdge]] = [[] for _ in range(ctx.n)]
        for ci, gates in ctx.gates_of.items():
            for gate in gates:
                for pos, inp in enumerate(gate.inputs):
                    self.edges_in[ci].append(TimingEdge(
                        ctx.idx(inp), ci, "gate", gate=gate, pos=pos))
        for ci, drvs in enumerate(ctx.drivers_of):
            for drv in drvs:
                if drv.src is not None:
                    self.edges_in[ci].append(TimingEdge(
                        drv.src, ci, "drive", driver=drv))
                if drv.cond is not None:
                    self.edges_in[ci].append(TimingEdge(
                        drv.cond, ci, "guard", driver=drv))
        self._arrival: list | None = None
        self._arrival_edge: list[TimingEdge | None] = [None] * ctx.n

    # -- structure -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """False when the design has a combinational cycle (no STA)."""
        return self.ctx.topo_order is not None

    @property
    def cycle(self) -> list[int]:
        return self.ctx.cycle

    @property
    def fanout(self) -> dict[int, int]:
        """Consumer counts, shared with the lint fanout-limit pass."""
        return self.ctx.fanout

    def edge_delay(self, edge: TimingEdge):
        return self.model.edge_delay(edge, self.fanout.get(edge.src, 0))

    def start_kind(self, ci: int) -> str:
        """Startpoint classification: ``in`` (primary input), ``reg``
        (register output), or ``net`` (constant/undriven source)."""
        if self.ctx.is_input[ci]:
            return "in"
        if ci in self.ctx.reg_q_of:
            return "reg"
        return "net"

    @property
    def startpoints(self) -> list[int]:
        """Classes with no timing in-edges (arrival 0 sources)."""
        return [ci for ci in range(self.ctx.n) if not self.edges_in[ci]]

    @property
    def endpoints(self) -> list[tuple[int, str]]:
        """(class, kind) timing endpoints: every register data pin
        (kind ``reg``) and every primary-output class (kind ``out``);
        a class that is both reports as ``reg`` (the clock constraint
        is the stronger one)."""
        seen: dict[int, str] = {}
        for reg in self.ctx.netlist.regs:
            seen.setdefault(self.ctx.idx(reg.d), "reg")
        for ci in range(self.ctx.n):
            if self.ctx.is_output[ci]:
                seen.setdefault(ci, "out")
        return sorted(seen.items())

    # -- arrival times -------------------------------------------------------

    @property
    def arrival(self) -> list | None:
        """Per-class arrival time (None when cyclic).  Index = class
        index; unit model gives exactly the unit-delay levels."""
        if self._arrival is None:
            order = self.ctx.topo_order
            if order is None:
                return None
            arr = [0] * self.ctx.n
            for ci in order:
                best = 0
                best_edge = None
                for edge in self.edges_in[ci]:
                    t = arr[edge.src] + self.edge_delay(edge)
                    if best_edge is None or t > best:
                        best = t
                        best_edge = edge
                if best_edge is not None:
                    arr[ci] = best
                    self._arrival_edge[ci] = best_edge
            self._arrival = arr
        return self._arrival

    @property
    def worst_arrival(self):
        """The maximum arrival over all classes — under the unit model
        this equals ``netstats.logic_depth`` exactly."""
        arr = self.arrival
        if arr is None:
            return None
        return max(arr, default=0)

    def critical_path(self) -> list[int]:
        """Classes along one worst-arrival path, source first (the
        timing-engine version of ``netstats.critical_path``)."""
        arr = self.arrival
        if arr is None or not arr:
            return []
        node = max(range(len(arr)), key=arr.__getitem__)
        path = [node]
        while self._arrival_edge[node] is not None:
            node = self._arrival_edge[node].src
            path.append(node)
        path.reverse()
        return path

    # -- required times and slack --------------------------------------------

    def required(self, clock=None) -> dict[int, object]:
        """Per-class required time against *clock* (default: the worst
        endpoint arrival, i.e. zero slack on the critical path).
        Classes on no path to an endpoint get ``None``."""
        arr = self.arrival
        if arr is None:
            return {}
        order = self.ctx.topo_order
        ends = self.endpoints
        if clock is None:
            clock = max((arr[ci] for ci, _ in ends), default=self.worst_arrival)
        req: list = [None] * self.ctx.n
        for ci, _kind in ends:
            req[ci] = clock
        for ci in reversed(order):
            r = req[ci]
            if r is None:
                continue
            for edge in self.edges_in[ci]:
                t = r - self.edge_delay(edge)
                if req[edge.src] is None or t < req[edge.src]:
                    req[edge.src] = t
        return {ci: r for ci, r in enumerate(req)}

    def slack(self, clock=None) -> dict[int, object]:
        """Per-class slack = required - arrival (``None`` off-path)."""
        arr = self.arrival
        if arr is None:
            return {}
        req = self.required(clock)
        return {ci: (None if req[ci] is None else req[ci] - arr[ci])
                for ci in range(self.ctx.n)}
