"""The alias-class view of an elaborated netlist.

Paper section 8 defines simulation, the runtime multiplex check and the
static rules over one semantics graph whose nodes are the ``==``-merged
alias classes (union-find canonical nets).  :class:`ClassView` derives
that graph's view of a :class:`~repro.core.netlist.Netlist`:

* the class index (``idx``, ``canon_ids``) and per-class display names
  and kind flags;
* the deduplicated drivers (``unique_conns`` semantics), globally and
  per class;
* the producer table: what sets each class's value, and so which
  classes break the one-producer rule or float free;
* the combinational dependency graph, its topological order (or the
  offending cycle), reader and fan-out counts and unit-delay levels.

Every consumer -- the simulator and its schedule, the checker, lint,
formal and timing, the Verilog emitter and reader, the flight recorder,
netstats and the unchecked baseline -- reads the same construction, so
display names, kinds and driver order line up observation for
observation.  Each consumer builds its own view; nothing caches one on
the netlist.

The class metadata is computed eagerly, because every consumer reads
it.  Everything else is computed once, lazily, and cached: a full lint
run (``repro.lint.LintContext`` is this class) performs a single
traversal per structure regardless of how many passes consume it, and
a simulator never pays for the tables only lint reads.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property

from ..lang.source import NO_SPAN, Span
from .netlist import Gate, Netlist
from .types import BOOLEAN
from .values import Logic

#: Primary inputs that read ZERO while unpoked and undriven (every other
#: input reads UNDEF); their names are load-bearing.
ZERO_DEFAULT_INPUTS = ("RSET", "CLK")


@dataclass(eq=False, slots=True)
class DriverInfo:
    """One deduplicated driver of a canonical net class.

    ``cond``/``src`` are canonical class indices (not net ids); ``const``
    is set instead of ``src`` for constant drivers.  ``index`` is stable
    within the net's driver list and is what prover verdicts refer to.
    """

    index: int
    dst: int
    cond: int | None
    src: int | None
    const: Logic | None
    span: Span = NO_SPAN

    @property
    def uncond(self) -> bool:
        return self.cond is None

    def describe(self, ctx: "ClassView") -> str:
        what = (f"constant {self.const}" if self.const is not None
                else ctx.display[self.src])
        guard = "" if self.cond is None else f" when {ctx.display[self.cond]}"
        return f"{what}{guard}"


class ClassView:
    """The alias-class view of one netlist.

    *source* is a :class:`~repro.core.netlist.Netlist` or anything with
    a ``.netlist`` (an elaborated design, a circuit).
    """

    def __init__(self, source):
        self.netlist: Netlist = getattr(source, "netlist", source)
        find = self.netlist.find
        nets = self.netlist.nets
        self._canon = [find(n).id for n in nets]
        canon_ids = sorted(set(self._canon))
        self._index = {cid: i for i, cid in enumerate(canon_ids)}
        self.canon_ids = canon_ids
        self.n = len(canon_ids)

        # Class membership and display metadata.
        self.members = [[] for _ in range(self.n)]
        for net in nets:
            self.members[self._index[self._canon[net.id]]].append(net)
        self.display = [
            min((m.name for m in ms if not m.name.startswith("$")),
                default=ms[0].name)
            for ms in self.members
        ]
        self.is_boolean = [all(m.kind == BOOLEAN for m in ms)
                           for ms in self.members]
        self.is_input = [any(m.is_input for m in ms) for ms in self.members]

    def idx(self, net) -> int:
        """Canonical class index of a :class:`~repro.core.netlist.Net`."""
        return self._index[self._canon[net.id]]

    # -- lint-only class metadata ----------------------------------------------

    @cached_property
    def is_output(self) -> list[bool]:
        return [any(m.is_output for m in ms) for ms in self.members]

    @cached_property
    def roles(self) -> list[set[str]]:
        return [{m.role for m in ms} for ms in self.members]

    @cached_property
    def spans(self) -> list[Span]:
        return [
            next((m.span for m in ms if m.span is not NO_SPAN), NO_SPAN)
            for ms in self.members
        ]

    def span_of(self, ci: int) -> Span:
        return self.spans[ci]

    # -- drivers and producers -------------------------------------------------

    @cached_property
    def drivers(self) -> list[DriverInfo]:
        """Every deduplicated driver: the ``unique_conns`` in order, then
        the ``unique_const_conns``."""
        idx = self.idx
        count = [0] * self.n
        out: list[DriverInfo] = []

        def add(dst, cond, src, const, span) -> None:
            di = idx(dst)
            out.append(DriverInfo(
                count[di], di,
                idx(cond) if cond is not None else None,
                idx(src) if src is not None else None,
                const, span,
            ))
            count[di] += 1

        for conn in self.netlist.unique_conns():
            add(conn.dst, conn.cond, conn.src, None, conn.span)
        for cc in self.netlist.unique_const_conns():
            add(cc.dst, cc.cond, None, cc.value, cc.span)
        return out

    @cached_property
    def drivers_of(self) -> list[list[DriverInfo]]:
        """The drivers of each class, in :attr:`drivers` order."""
        out: list[list[DriverInfo]] = [[] for _ in range(self.n)]
        for drv in self.drivers:
            out[drv.dst].append(drv)
        return out

    @cached_property
    def gates_of(self) -> dict[int, list[Gate]]:
        """Gates whose output lands in each class (normally at most one)."""
        out: dict[int, list[Gate]] = defaultdict(list)
        for gate in self.netlist.gates:
            out[self.idx(gate.output)].append(gate)
        return dict(out)

    @cached_property
    def reg_q_of(self) -> dict[int, list]:
        """REGs whose ``q`` output lands in each class."""
        out: dict[int, list] = defaultdict(list)
        for reg in self.netlist.regs:
            out[self.idx(reg.q)].append(reg)
        return dict(out)

    def producers(self) -> list[list[tuple[str, int]]]:
        """What sets each class's value, in one fixed order:
        ``("input", ci)`` for a primary input without drivers (it reads
        its poke or its :attr:`input_defaults` entry), ``("register",
        ri)`` per REG output, ``("gate", gi)`` per gate output, and
        ``("drivers", ci)`` when the class has connection drivers.

        Section 8 gives every class one producer.  A class with none is
        free and reads NOINFL.  With two or more the dataflow firing
        order would decide the value, so the levelized schedule and the
        Verilog emitter reject the design.  The table is as long as the
        class index, so it is built on each call and not kept; the
        engines keep only :attr:`free` and :attr:`input_defaults`."""
        drivers_of = self.drivers_of
        out: list[list[tuple[str, int]]] = [[] for _ in range(self.n)]
        for ci in range(self.n):
            if self.is_input[ci] and not drivers_of[ci]:
                out[ci].append(("input", ci))
        for ri, reg in enumerate(self.netlist.regs):
            out[self.idx(reg.q)].append(("register", ri))
        for gi, gate in enumerate(self.netlist.gates):
            out[self.idx(gate.output)].append(("gate", gi))
        for ci in range(self.n):
            if drivers_of[ci]:
                out[ci].append(("drivers", ci))
        return out

    @cached_property
    def _sources(self) -> tuple[list[int], list[tuple[int, Logic]]]:
        free: list[int] = []
        inputs: list[tuple[int, Logic]] = []
        for ci, prod in enumerate(self.producers()):
            if not prod:
                free.append(ci)
            elif prod[0][0] == "input":
                inputs.append((ci, Logic.ZERO
                               if self.display[ci] in ZERO_DEFAULT_INPUTS
                               else Logic.UNDEF))
        return free, inputs

    @property
    def free(self) -> list[int]:
        """Classes without a producer: they fire NOINFL at cycle start."""
        return self._sources[0]

    @property
    def input_defaults(self) -> list[tuple[int, Logic]]:
        """``(class, default)`` for each primary input without drivers:
        ZERO for the :data:`ZERO_DEFAULT_INPUTS`, UNDEF for any other.
        A poke overrides the default."""
        return self._sources[1]

    @cached_property
    def readers(self) -> set[int]:
        """Classes consumed by anything: gate inputs, connection sources,
        guards, and register data pins."""
        return set(self.fanout)

    @cached_property
    def driven(self) -> set[int]:
        """Classes receiving any value: drivers, gate or REG outputs."""
        out = {i for i, drvs in enumerate(self.drivers_of) if drvs}
        out.update(self.gates_of)
        out.update(self.reg_q_of)
        return out

    @cached_property
    def fanout(self) -> dict[int, int]:
        """Consumer count per class (gate inputs + sources + guards +
        register data pins)."""
        counts: dict[int, int] = defaultdict(int)
        idx = self.idx
        for gate in self.netlist.gates:
            for inp in gate.inputs:
                counts[idx(inp)] += 1
        for conn in self.netlist.conns:
            counts[idx(conn.src)] += 1
            if conn.cond is not None:
                counts[idx(conn.cond)] += 1
        for cc in self.netlist.const_conns:
            if cc.cond is not None:
                counts[idx(cc.cond)] += 1
        for reg in self.netlist.regs:
            counts[idx(reg.d)] += 1
        return dict(counts)

    def write_only(self) -> list[tuple[int, str]]:
        """Locally declared signals that are assigned but never read, as
        ``(class, message)`` in class order.  OUT/INOUT ports are
        excluded (driving them *is* their purpose), ``==``-aliased nets
        count once per alias class, and synthetic helper nets never
        count.  The checker's warning and the lint write-only pass both
        read this."""
        out = []
        for ci in sorted(self.driven - self.readers):
            if self.is_output[ci] or self.is_input[ci]:
                continue
            if self.roles[ci] & {"formal_out", "pin_out", "formal_inout",
                                 "pin_inout"}:
                continue
            display = self.display[ci]
            if display.startswith("$"):
                continue
            what = ("register output" if ci in self.reg_q_of
                    else "signal")
            out.append((ci, f"{what} {display!r} is assigned but never "
                            "read"))
        return out

    def multi_driver_classes(self) -> list[int]:
        """Classes with two or more (deduplicated) explicit drivers --
        the driver-exclusivity prover's work list."""
        return [i for i, drvs in enumerate(self.drivers_of) if len(drvs) >= 2]

    # -- dependency structure --------------------------------------------------

    @cached_property
    def net_deps(self) -> dict[int, set[int]]:
        """Combinational dependency edges over canonical net ids:
        ``net_deps[dst]`` is the set of canonical nets *dst* depends on.
        Gate outputs depend on gate inputs; connection targets depend on
        the source and the guard; REG introduces no edges."""
        deps: dict[int, set[int]] = defaultdict(set)
        find = self.netlist.find
        for gate in self.netlist.gates:
            out = find(gate.output).id
            for inp in gate.inputs:
                deps[out].add(find(inp).id)
        for conn in self.netlist.conns:
            dst = find(conn.dst).id
            deps[dst].add(find(conn.src).id)
            if conn.cond is not None:
                deps[dst].add(find(conn.cond).id)
        for cc in self.netlist.const_conns:
            if cc.cond is not None:
                deps[find(cc.dst).id].add(find(cc.cond).id)
        return deps

    @cached_property
    def deps(self) -> dict[int, set[int]]:
        """The same edges over class indices (``deps[dst]`` = classes
        *dst* combinationally depends on)."""
        remap: dict[int, set[int]] = defaultdict(set)
        for dst, srcs in self.net_deps.items():
            remap[self._index[dst]].update(self._index[s] for s in srcs)
        return dict(remap)

    @cached_property
    def fanout_edges(self) -> dict[int, list[int]]:
        """Forward adjacency: class -> classes that depend on it."""
        fwd: dict[int, list[int]] = defaultdict(list)
        for dst, srcs in self.deps.items():
            for src in srcs:
                fwd[src].append(dst)
        return dict(fwd)

    @cached_property
    def _topo(self) -> tuple[list[int] | None, list[int]]:
        """(topological order, []) when acyclic, else (None, a cycle),
        both over class indices.  Kahn's algorithm runs first-in
        first-out over :attr:`net_deps`, so the order lists classes
        level by level."""
        deps = self.net_deps
        indegree = dict.fromkeys(self.canon_ids, 0)
        fwd: dict[int, list[int]] = defaultdict(list)
        for dst, srcs in deps.items():
            for src in srcs:
                fwd[src].append(dst)
                indegree[dst] += 1
        queue = deque(nid for nid, deg in indegree.items() if deg == 0)
        order: list[int] = []
        while queue:
            nid = queue.popleft()
            order.append(nid)
            for nxt in fwd[nid]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if len(order) == self.n:
            return [self._index[nid] for nid in order], []
        # Walk back through the stuck region: every stuck net has a
        # stuck predecessor, so the walk closes a cycle.
        stuck = {nid for nid, deg in indegree.items() if deg > 0}
        node = next(iter(stuck))
        seen: dict[int, int] = {}
        path: list[int] = []
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = next(d for d in deps[node] if d in stuck)
        return None, [self._index[nid] for nid in path[seen[node]:] + [node]]

    @property
    def topo_order(self) -> list[int] | None:
        """Topological order of the classes, or None when cyclic."""
        return self._topo[0]

    @property
    def cycle(self) -> list[int]:
        """A witness combinational cycle, closed (first class repeated
        last); [] when the graph is acyclic."""
        return self._topo[1]

    @cached_property
    def levels(self) -> dict[int, int] | None:
        """Unit-delay logic level per class, in topological order (None
        when cyclic).  Delegates to the shared timing-engine propagation
        -- the same implementation behind ``netstats.logic_levels`` and
        the STA unit model."""
        from ..timing.graph import propagate_levels

        order = self.topo_order
        if order is None:
            return None
        return propagate_levels(order, self.deps)
