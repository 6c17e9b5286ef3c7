"""Reader: structural Verilog -> the Zeus semantics graph.

:func:`read_verilog` parses the interchange subset
(:mod:`repro.interchange.vparse`) and rebuilds a
:class:`~repro.core.elaborate.Design` the simulator, the formal stack
and the CLI can use like any compiled Zeus circuit:

* every declared net becomes one :class:`~repro.core.netlist.Net`
  (``wire`` -> boolean plane semantics, ``tri`` -> multiplex) and is
  registered under its (hierarchy-qualified) name for ``peek``/``poke``;
* gate primitives become :class:`Gate` nodes with a fresh output net
  plus a connection onto the target wire -- exactly the shape the Zeus
  elaborator produces, so the schedule's single-producer rule holds by
  construction;
* ``buf``/``bufif1``/``bufif0``/``assign`` become (guarded)
  connections; ``bufif0`` inverts its control through a NOT gate;
* ``zeus_dff``/``dff`` instances become :class:`Reg` nodes (the clock
  terminal is checked but otherwise ignored: Zeus registers latch
  implicitly every cycle); ``zeus_random`` becomes a RANDOM gate;
* user-module instances are flattened recursively, child nets named
  ``instance.wire`` and formal/actual pins merged by alias -- the same
  union-find mechanism Zeus ``==`` uses.

Items are wired in file order, which keeps the relative order of
RANDOM gates: at equal seeds an emitted-and-reimported design draws
bit-identical random streams.

Everything outside the subset raises :class:`InterchangeError` with a
source span (dangling instance ports, unknown/duplicate modules,
arity mismatches, behavioural constructs).
"""

from __future__ import annotations

from ..core.elaborate import Design
from ..core.netlist import Net, Netlist, PortInfo
from ..core.types import BOOLEAN, MULTIPLEX
from ..core.values import Logic
from ..core.view import ClassView
from ..lang.errors import DiagnosticSink, InterchangeError
from ..lang.source import NO_SPAN, SourceText, Span
from .manifest import SCHEMA, validate_manifest
from .vparse import (
    PRIMITIVES,
    Term,
    VAssign,
    VDecl,
    VInstance,
    VModule,
    parse_verilog,
)

_GATE_OPS = {
    "and": "AND", "or": "OR", "nand": "NAND", "nor": "NOR", "xor": "XOR",
}

_MODE_OF = {"input": "IN", "output": "OUT", "inout": "INOUT"}

_DFF_PINS = {"q": "q", "d": "d", "ck": "ck", "clk": "ck", "clock": "ck"}


class _Scope:
    """One flattened module instance: its declared nets and modes."""

    def __init__(self, path: str):
        self.path = path  # "" for the top, "a1." below it
        self.nets: dict[str, Net] = {}
        self.modes: dict[str, str] = {}  # name -> input/output/inout
        self.net_kinds: dict[str, str] = {}  # name -> wire/tri


class _Builder:
    def __init__(self, netlist: Netlist, modules: dict[str, VModule],
                 source: SourceText):
        self.netlist = netlist
        self.modules = modules
        self.source = source
        self._const_nets: dict[Logic, Net] = {}
        self._next_dff = 0
        self._stack: list[str] = []
        self.intrinsics_used: set[str] = set()
        self.flattened = 0

    # -- helpers ----------------------------------------------------------

    def error(self, message: str, span: Span) -> InterchangeError:
        return InterchangeError(message, span)

    def const_net(self, value: Logic, span: Span) -> Net:
        if value not in self._const_nets:
            kind = MULTIPLEX if value is Logic.NOINFL else BOOLEAN
            net = self.netlist.new_net(f"$const_{value}", kind, span)
            self.netlist.add_const(value, net, None, span)
            self._const_nets[value] = net
        return self._const_nets[value]

    def lookup(self, scope: _Scope, term: Term) -> Net:
        if term.kind == "lit":
            return self.const_net(term.value, term.span)
        if term.kind != "id":
            raise self.error("missing connection", term.span)
        net = scope.nets.get(term.value)
        if net is None:
            raise self.error(
                f"undeclared net {term.value!r} (the interchange subset "
                "has no implicit nets; declare it with 'wire' or 'tri')",
                term.span,
            )
        return net

    def out_net(self, scope: _Scope, term: Term) -> Net:
        if term.kind != "id":
            raise self.error(
                "a gate output must be a declared net", term.span)
        return self.lookup(scope, term)

    # -- module flattening -------------------------------------------------

    def build(self, mod: VModule, path: str) -> _Scope:
        if mod.name in self._stack:
            chain = " -> ".join(self._stack + [mod.name])
            raise self.error(
                f"recursive module instantiation: {chain}", mod.span)
        self._stack.append(mod.name)
        scope = _Scope(path)
        # Declarations first (an emitted file declares everything up
        # front, but hand-written netlists may interleave).
        for decl in mod.decls:
            self._declare(scope, decl)
        for port in mod.header_ports:
            if port not in scope.modes:
                raise self.error(
                    f"port {port!r} of module {mod.name!r} has no "
                    "input/output/inout declaration",
                    mod.span,
                )
        for item in mod.items:
            if isinstance(item, VAssign):
                self._assign(scope, item)
            elif isinstance(item, VInstance):
                self._instance(scope, item)
        self._stack.pop()
        return scope

    def _declare(self, scope: _Scope, decl: VDecl) -> None:
        for name, span in decl.names:
            if decl.kind in ("wire", "tri"):
                prior = scope.net_kinds.get(name)
                if prior is not None and prior != decl.kind:
                    raise self.error(
                        f"net {name!r} declared both {prior!r} and "
                        f"{decl.kind!r}", span)
                scope.net_kinds[name] = decl.kind
            else:
                if name in scope.modes:
                    raise self.error(
                        f"duplicate direction declaration for {name!r}",
                        span)
                scope.modes[name] = decl.kind
            if name not in scope.nets:
                kind = MULTIPLEX if decl.kind == "tri" else BOOLEAN
                net = self.netlist.new_net(scope.path + name, kind, span)
                self.netlist.register_signal(scope.path + name, [net])
                scope.nets[name] = net
            elif decl.kind == "tri":
                scope.nets[name].kind = MULTIPLEX

    def _assign(self, scope: _Scope, item: VAssign) -> None:
        dst = self.lookup(scope, Term("id", item.dst, item.dst_span))
        if item.rhs.kind == "lit":
            self.netlist.add_const(item.rhs.value, dst, None, item.span)
        else:
            self.netlist.add_conn(
                self.lookup(scope, item.rhs), dst, None, item.span)

    def _instance(self, scope: _Scope, inst: VInstance) -> None:
        if inst.mtype in PRIMITIVES:
            self._primitive(scope, inst)
        elif inst.mtype in ("zeus_dff", "dff"):
            self._dff(scope, inst)
        elif inst.mtype == "zeus_random":
            self._random(scope, inst)
        elif inst.mtype in self.modules:
            self._user_instance(scope, inst)
        else:
            raise self.error(
                f"unknown module {inst.mtype!r} (not defined in this "
                "file, not a gate primitive, not an intrinsic)",
                inst.span,
            )

    # -- gate primitives ---------------------------------------------------

    def _primitive(self, scope: _Scope, inst: VInstance) -> None:
        if inst.named:
            raise self.error(
                f"gate primitive {inst.mtype!r} takes positional "
                "terminals only", inst.span)
        terms = inst.positional or []
        op = inst.mtype

        def need(n: int, what: str) -> None:
            if len(terms) != n:
                raise self.error(
                    f"{op} takes {what} ({n} terminals), got "
                    f"{len(terms)}", inst.span)

        if op in _GATE_OPS:
            if len(terms) < 2:
                raise self.error(
                    f"{op} needs an output and at least one input",
                    inst.span)
            out = self.out_net(scope, terms[0])
            ins = [self.lookup(scope, t) for t in terms[1:]]
            gate_out = self.netlist.add_gate(_GATE_OPS[op], ins, inst.span)
            self.netlist.add_conn(gate_out, out, None, inst.span)
        elif op == "xnor":
            if len(terms) != 3:
                raise self.error(
                    "unsupported construct: n-ary xnor (Verilog reduction "
                    "parity has no Zeus equivalent; only 2-input xnor, "
                    "which maps to EQUAL, is supported)",
                    inst.span,
                )
            out = self.out_net(scope, terms[0])
            ins = [self.lookup(scope, t) for t in terms[1:]]
            gate_out = self.netlist.add_gate("EQUAL", ins, inst.span)
            self.netlist.add_conn(gate_out, out, None, inst.span)
        elif op == "not":
            need(2, "one output and one input")
            out = self.out_net(scope, terms[0])
            gate_out = self.netlist.add_gate(
                "NOT", [self.lookup(scope, terms[1])], inst.span)
            self.netlist.add_conn(gate_out, out, None, inst.span)
        elif op == "buf":
            need(2, "one output and one input")
            out = self.out_net(scope, terms[0])
            if terms[1].kind == "lit":
                self.netlist.add_const(terms[1].value, out, None, inst.span)
            else:
                self.netlist.add_conn(
                    self.lookup(scope, terms[1]), out, None, inst.span)
        elif op in ("bufif1", "bufif0"):
            need(3, "output, data, control")
            out = self.out_net(scope, terms[0])
            cond = self.lookup(scope, terms[2])
            if op == "bufif0":
                cond = self.netlist.add_gate("NOT", [cond], inst.span)
            if terms[1].kind == "lit":
                self.netlist.add_const(terms[1].value, out, cond, inst.span)
            else:
                self.netlist.add_conn(
                    self.lookup(scope, terms[1]), out, cond, inst.span)
        else:  # pragma: no cover - PRIMITIVES and handlers match
            raise self.error(f"unhandled primitive {op!r}", inst.span)

    # -- intrinsics --------------------------------------------------------

    def _dff_terms(self, inst: VInstance) -> dict[str, Term]:
        """Normalize a zeus_dff/dff instance to ``{"q", "d", "ck"}``.

        Positional conventions: ``zeus_dff (q, d, ck)`` as emitted;
        ``dff (ck, q, d)`` as the ISCAS89 Verilog translations use."""
        pins: dict[str, Term] = {}
        if inst.named:
            for pin, term, span in inst.named:
                key = _DFF_PINS.get(pin.lower())
                if key is None:
                    raise self.error(
                        f"unknown {inst.mtype} pin {pin!r} (expected "
                        "q, d, ck)", span)
                if key in pins:
                    raise self.error(
                        f"duplicate {inst.mtype} pin {pin!r}", span)
                pins[key] = term
        else:
            terms = inst.positional or []
            order = ("q", "d", "ck") if inst.mtype == "zeus_dff" \
                else ("ck", "q", "d")
            if len(terms) != 3:
                raise self.error(
                    f"{inst.mtype} takes 3 terminals "
                    f"({', '.join(order)}), got {len(terms)}", inst.span)
            pins = dict(zip(order, terms))
        for pin in ("q", "d"):
            if pin not in pins or pins[pin].kind == "empty":
                raise self.error(
                    f"{inst.mtype} instance {inst.name or ''!r} leaves "
                    f"pin {pin!r} unconnected", inst.span)
        return pins

    def _dff(self, scope: _Scope, inst: VInstance) -> None:
        self.intrinsics_used.add(inst.mtype)
        pins = self._dff_terms(inst)
        if "ck" in pins and pins["ck"].kind == "id":
            self.lookup(scope, pins["ck"])  # declared-ness check only
        k = self._next_dff
        self._next_dff += 1
        name = scope.path + inst.name if inst.name else f"$dff{k}"
        d = self.netlist.new_net(f"$dff{k}.d", BOOLEAN, inst.span,
                                 role="reg_d")
        q = self.netlist.new_net(f"$dff{k}.q", BOOLEAN, inst.span,
                                 role="reg_q")
        self.netlist.add_reg(d, q, name, inst.span)
        qwire = self.out_net(scope, pins["q"])
        self.netlist.add_conn(q, qwire, None, inst.span)
        if pins["d"].kind == "lit":
            self.netlist.add_const(pins["d"].value, d, None, inst.span)
        else:
            self.netlist.add_conn(
                self.lookup(scope, pins["d"]), d, None, inst.span)

    def _random(self, scope: _Scope, inst: VInstance) -> None:
        self.intrinsics_used.add("zeus_random")
        terms = inst.positional or []
        if inst.named:
            if len(inst.named) != 1 or inst.named[0][0].lower() != "y":
                raise self.error(
                    "zeus_random takes a single output pin y", inst.span)
            terms = [inst.named[0][1]]
        if len(terms) != 1:
            raise self.error(
                f"zeus_random takes 1 terminal, got {len(terms)}",
                inst.span)
        out = self.out_net(scope, terms[0])
        gate_out = self.netlist.add_gate("RANDOM", [], inst.span)
        self.netlist.add_conn(gate_out, out, None, inst.span)

    # -- user modules ------------------------------------------------------

    def _user_instance(self, scope: _Scope, inst: VInstance) -> None:
        child_mod = self.modules[inst.mtype]
        if inst.name is None:
            raise self.error(
                f"instance of module {inst.mtype!r} needs a name",
                inst.span)
        self.flattened += 1
        child = self.build(child_mod, f"{scope.path}{inst.name}.")
        bindings: list[tuple[str, Term, Span]] = []
        if inst.named:
            seen: set[str] = set()
            for pin, term, span in inst.named:
                if pin not in child.modes:
                    raise self.error(
                        f"module {inst.mtype!r} has no port {pin!r}",
                        span)
                if pin in seen:
                    raise self.error(f"duplicate connection to port "
                                     f"{pin!r}", span)
                seen.add(pin)
                bindings.append((pin, term, span))
        else:
            terms = inst.positional or []
            if len(terms) != len(child_mod.header_ports):
                raise self.error(
                    f"module {inst.mtype!r} has "
                    f"{len(child_mod.header_ports)} ports, instance "
                    f"{inst.name!r} connects {len(terms)}",
                    inst.span,
                )
            bindings = [
                (port, term, term.span)
                for port, term in zip(child_mod.header_ports, terms)
            ]
        for pin, term, span in bindings:
            if term.kind == "empty":
                continue
            actual = self.lookup(scope, term)
            self.netlist.alias(actual, child.nets[pin])


def read_verilog(
    text: str | SourceText,
    *,
    name: str = "<verilog>",
    top: str | None = None,
) -> Design:
    """Parse structural Verilog and rebuild a semantics graph.

    *top* picks the root module; by default the one module that no
    other module instantiates.  Returns a
    :class:`~repro.core.elaborate.Design` whose netlist simulates on
    every engine; raises :class:`InterchangeError` on anything outside
    the interchange subset.
    """
    source = text if isinstance(text, SourceText) else SourceText(text, name)
    modules = parse_verilog(source)
    user = {m.name: m for m in modules if not m.intrinsic}
    if not user:
        raise InterchangeError(
            "no importable modules (only intrinsic definitions found)",
            NO_SPAN,
        )
    if top is not None:
        if top not in user:
            raise InterchangeError(
                f"unknown top module {top!r}; modules here: "
                f"{', '.join(sorted(user))}",
                NO_SPAN,
            )
        top_mod = user[top]
    else:
        instantiated = {
            inst.mtype
            for m in user.values()
            for inst in m.instances
            if inst.mtype in user
        }
        roots = [m for nm, m in user.items() if nm not in instantiated]
        if len(roots) != 1:
            names = ", ".join(sorted(m.name for m in roots)) or "none"
            raise InterchangeError(
                f"cannot infer the top module (uninstantiated candidates:"
                f" {names}); pass top=",
                NO_SPAN,
            )
        top_mod = roots[0]

    netlist = Netlist(top_mod.name)
    builder = _Builder(netlist, user, source)
    scope = builder.build(top_mod, "")

    header_ports = list(top_mod.header_ports)
    if not header_ports:
        # "module c17; input N1; ..." style: direction declarations
        # are the port list.
        for decl in top_mod.decls:
            if decl.kind in _MODE_OF:
                header_ports.extend(nm for nm, _ in decl.names)
    for pname in header_ports:
        mode = _MODE_OF[scope.modes[pname]]
        net = scope.nets[pname]
        net.is_input = mode in ("IN", "INOUT")
        net.is_output = mode in ("OUT", "INOUT")
        net.role = f"formal_{mode.lower()}"
        netlist.ports.append(PortInfo(pname, mode, [net]))

    design = Design(
        name=top_mod.name,
        netlist=netlist,
        top=None,
        top_type=None,
        instances=[],
        seq_constraints=[],
        sink=DiagnosticSink(source=source),
        program=None,
        source=source,
    )
    design.interchange = {
        "modules": sorted(user),
        "top": top_mod.name,
        "flattened_instances": builder.flattened,
        "intrinsics": sorted(builder.intrinsics_used),
    }
    return design


def import_manifest(design: Design) -> dict:
    """An identity ``zeus.interchange/1`` manifest for an imported
    design: the same record :func:`repro.interchange.emit_verilog`
    returns, with every net mapping to itself.  Lets downstream tools
    treat emitted and imported designs uniformly."""
    netlist = design.netlist
    view = ClassView(netlist)
    nets = {
        display: {
            "verilog": display,
            "kind": "boolean" if boolean else "multiplex",
        }
        for display, boolean in zip(view.display, view.is_boolean)
    }
    manifest = {
        "schema": SCHEMA,
        "design": design.name,
        "module": design.name,
        "ports": [
            {
                "name": p.name,
                "mode": p.mode,
                "bits": [view.display[view.idx(n)] for n in p.nets],
            }
            for p in netlist.ports
        ],
        "extra_inputs": [],
        "synthetic_clock": None,
        "nets": nets,
        "regs": {
            (reg.name or f"$reg{reg.id}"): (reg.name or f"$reg{reg.id}")
            for reg in netlist.regs
        },
        "stats": netlist.stats(),
        "unsupported": [],
        "caveats": [],
    }
    validate_manifest(manifest)
    return manifest
