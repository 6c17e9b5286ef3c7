"""Structural-Verilog emitter over the elaborated REG-cut netlist.

The emitter walks the semantics graph through the simulator's
:class:`~repro.core.view.ClassView` -- one *alias class* (union-find
canonical net) at a time -- and encodes it in the flat structural
subset :mod:`repro.interchange.vparse` reads back:

===========================  =========================================
Zeus construct               Verilog encoding
===========================  =========================================
boolean alias class          ``wire``
multiplex alias class        ``tri`` (NOINFL-capable)
AND/OR/NAND/NOR/XOR/NOT      the matching gate primitive
EQUAL over 1-bit operands    ``xnor``
EQUAL over n-bit operands    per-position ``xnor`` + one ``and``
                             (bit-exact under 0/1/x/z: a defined
                             differing position forces 0, any x
                             position forces x otherwise)
RANDOM                       ``zeus_random`` intrinsic instance
connection ``dst := src``    ``buf (dst, src);``
guarded ``IF c THEN dst:=s`` ``bufif1 (dst, s, c);``
constant driver              ``assign dst = 1'b{0|1|x|z};`` /
                             guarded: ``bufif1 (dst, 1'bV, c);``
REG                          ``zeus_dff`` intrinsic (posedge ``CLK``
                             DFF that *keeps* its value on a ``z``
                             data input -- the NOINFL-keeps rule)
===========================  =========================================

Value planes map ZERO/ONE/UNDEF/NOINFL to ``0/1/x/z``.  One documented
divergence from event-driven Verilog simulators: a ``buf``/``bufif1``
whose data input is ``z`` outputs ``x`` there, while the Zeus firing
rules pass NOINFL through a connection unchanged (no influence).  The
reader maps these primitives back to Zeus connections, so Zeus-side
round trips are bit-exact; the caveat only matters when third-party
tools *simulate* the emitted file (they still compile it fine).

Every emit returns ``(verilog_text, manifest)`` where the manifest is
the versioned ``zeus.interchange/1`` record: the full display-name ->
identifier map, per-port bit lists, register instance names, and the
unsupported-construct report (see :mod:`repro.interchange.manifest`).
"""

from __future__ import annotations

from ..core.netlist import Netlist
from ..core.values import NETLIST_GATE_FUNCTIONS, Logic
from ..core.view import ZERO_DEFAULT_INPUTS, ClassView
from ..lang.errors import InterchangeError
from .manifest import SCHEMA, validate_manifest
from .names import NameMangler

#: Logic -> Verilog scalar literal.
LITERALS = {
    Logic.ZERO: "1'b0",
    Logic.ONE: "1'b1",
    Logic.UNDEF: "1'bx",
    Logic.NOINFL: "1'bz",
}

_PRIMITIVES = {
    "AND": "and",
    "OR": "or",
    "NAND": "nand",
    "NOR": "nor",
    "XOR": "xor",
    "NOT": "not",
}

_MODES = {"IN": "input", "OUT": "output", "INOUT": "inout"}

#: Special Zeus input nets whose display names must survive verbatim:
#: the simulators default them to ZERO (not UNDEF) *by name*.
SPECIAL_INPUTS = ZERO_DEFAULT_INPUTS

ZEUS_DFF_MODULE = """\
module zeus_dff (q, d, ck);
  output reg q;
  input d, ck;
  initial q = 1'bx;
  always @(posedge ck)
    if (d !== 1'bz) q <= d;
endmodule
"""

ZEUS_RANDOM_MODULE = """\
module zeus_random (y);
  output y;
endmodule
"""


def _audit_producers(view: ClassView) -> None:
    """Reject designs whose value would depend on firing order: an
    alias class may be produced by at most one of {gate output,
    register output, connection drivers} (the schedule enforces the
    same rule, so anything rejected here cannot run on the batched
    engines either)."""
    gates = view.netlist.gates
    regs = view.netlist.regs
    for i, prod in enumerate(view.producers()):
        kinds = (
            [f"gate {gates[k].op}{gates[k].id}" for kind, k in prod
             if kind == "gate"]
            + [f"register {regs[k].name or regs[k].id}" for kind, k in prod
               if kind == "register"]
            + ["connection drivers" for kind, _ in prod if kind == "drivers"]
        )
        if len(kinds) > 1:
            raise InterchangeError(
                f"cannot emit {view.display[i]!r}: the net has "
                f"multiple producers ({', '.join(kinds)}); its value "
                "would depend on firing order and no structural "
                "netlist can encode that"
            )


def emit_verilog(design, *, module_name: str | None = None) -> tuple[str, dict]:
    """Render *design* (an elaborated :class:`~repro.core.elaborate.Design`
    or anything with ``.netlist``/``.name``) as flat structural Verilog.

    Returns ``(text, manifest)``; raises :class:`InterchangeError` on
    design shapes the structural subset cannot encode.
    """
    netlist: Netlist = design.netlist
    classes = ClassView(netlist)
    _audit_producers(classes)

    mangler = NameMangler()
    prefix = f"{netlist.name}."

    def local(display: str) -> str:
        return display[len(prefix):] if display.startswith(prefix) else display

    # 1. Specials first: their exact names are load-bearing.
    for i in range(classes.n):
        if classes.display[i] in SPECIAL_INPUTS:
            mangler.reserve(classes.display[i], classes.display[i])
    # 2. Port bits next, in declaration order, so ports win the nicest
    #    names; then every remaining class in canonical order.
    port_class: dict[int, str] = {}
    ports_out = []
    for p in netlist.ports:
        bits = []
        for net in p.nets:
            i = classes.idx(net)
            if i in port_class:
                raise InterchangeError(
                    f"cannot emit port {p.name!r}: bit "
                    f"{classes.display[i]!r} is aliased into port bit "
                    f"{port_class[i]!r}; one wire cannot be two module "
                    "ports"
                )
            vname = mangler.mangle(
                classes.display[i], base=local(classes.display[i])
            )
            port_class[i] = vname
            bits.append(vname)
        ports_out.append({"name": p.name, "mode": p.mode, "bits": bits})
    for i in range(classes.n):
        mangler.mangle(classes.display[i], base=local(classes.display[i]))
    vname_of = [mangler.mapping[classes.display[i]] for i in range(classes.n)]

    # Inputs outside the declared ports: the CLK/RSET specials, plus any
    # stray top-level input the elaborator marked.
    extra_inputs = [
        vname_of[i]
        for i in range(classes.n)
        if classes.is_input[i] and i not in port_class
    ]

    # A design with registers but no CLK net gets a synthetic clock
    # port so the zeus_dff instances have an edge to latch on.
    synthetic_clock = None
    if netlist.regs and "CLK" not in mangler.mapping:
        synthetic_clock = mangler.fresh("CLK")
    clock = mangler.mapping.get("CLK", synthetic_clock)

    module = module_name or mangler.fresh(f"{netlist.name}_mod")
    header_ports = (
        [b for p in ports_out for b in p["bits"]]
        + extra_inputs
        + ([synthetic_clock] if synthetic_clock else [])
    )

    # The body is rendered first so helper wires (EQUAL expansion
    # positions) can be collected into the declaration block.
    body: list[str] = []
    aux_wires: list[str] = []
    out = body.append

    unsupported: list[dict] = []
    regs_out: dict[str, str] = {}
    uses_dff = bool(netlist.regs)
    uses_random = False

    def wire(net) -> str:
        return vname_of[classes.idx(net)]

    for gate in netlist.gates:
        y = wire(gate.output)
        ins = [wire(n) for n in gate.inputs]
        if gate.op == "RANDOM":
            uses_random = True
            inst = mangler.fresh(f"rnd{gate.id}")
            out(f"  zeus_random {inst} ({y});")
        elif not ins:
            # Input-less gates are constants; fold them the way the
            # schedule does.
            value = NETLIST_GATE_FUNCTIONS[gate.op]([])
            out(f"  assign {y} = {LITERALS[value]};")
        elif gate.op == "EQUAL":
            if len(ins) % 2:
                raise InterchangeError(
                    f"cannot emit EQUAL gate {gate.id}: odd input count "
                    f"{len(ins)} (expected two concatenated operand "
                    "buses)"
                )
            half = len(ins) // 2
            if half == 1:
                out(f"  xnor ({y}, {ins[0]}, {ins[1]});")
            else:
                positions = []
                for j in range(half):
                    pj = mangler.fresh(f"eq{gate.id}_p{j}")
                    aux_wires.append(pj)
                    out(f"  xnor ({pj}, {ins[j]}, {ins[half + j]});")
                    positions.append(pj)
                out(f"  and ({y}, {', '.join(positions)});")
        elif gate.op in _PRIMITIVES:
            if len(ins) == 1:
                prim = "not" if gate.op in ("NAND", "NOR", "NOT") else "buf"
                out(f"  {prim} ({y}, {ins[0]});")
            else:
                out(f"  {_PRIMITIVES[gate.op]} ({y}, {', '.join(ins)});")
        else:  # pragma: no cover - the elaborator only builds these ops
            raise InterchangeError(
                f"cannot emit gate op {gate.op!r} (gate {gate.id})"
            )

    for conn in netlist.unique_conns():
        dst, src = wire(conn.dst), wire(conn.src)
        if conn.cond is None:
            out(f"  buf ({dst}, {src});")
        else:
            out(f"  bufif1 ({dst}, {src}, {wire(conn.cond)});")
    for cc in netlist.unique_const_conns():
        dst = wire(cc.dst)
        if cc.cond is None:
            out(f"  assign {dst} = {LITERALS[cc.value]};")
        else:
            out(f"  bufif1 ({dst}, {LITERALS[cc.value]}, {wire(cc.cond)});")

    for reg in netlist.regs:
        key = reg.name or f"$reg{reg.id}"
        inst = mangler.fresh(local(key) if reg.name else f"reg{reg.id}")
        regs_out[key] = inst
        out(
            f"  zeus_dff {inst} (.q({wire(reg.q)}), .d({wire(reg.d)}), "
            f".ck({clock}));"
        )

    lines: list[str] = []
    lines.append(f"// Structural Verilog emitted by zeus ({SCHEMA})")
    lines.append(f"// design: {netlist.name}")
    lines.append(f"module {module} ({', '.join(header_ports)});")
    for p in ports_out:
        lines.append(f"  {_MODES[p['mode']]} {', '.join(p['bits'])};")
    for vname in extra_inputs:
        lines.append(f"  input {vname};")
    if synthetic_clock:
        lines.append(f"  input {synthetic_clock};")
    lines.append("")
    for i in range(classes.n):
        net_type = "wire" if classes.is_boolean[i] else "tri"
        lines.append(f"  {net_type} {vname_of[i]};")
    for pj in aux_wires:
        lines.append(f"  wire {pj};")
    lines.append("")
    lines.extend(body)
    lines.append("endmodule")
    if uses_dff:
        lines.append("")
        lines.extend(ZEUS_DFF_MODULE.rstrip("\n").split("\n"))
    if uses_random:
        lines.append("")
        lines.extend(ZEUS_RANDOM_MODULE.rstrip("\n").split("\n"))

    manifest = {
        "schema": SCHEMA,
        "design": netlist.name,
        "module": module,
        "ports": ports_out,
        "extra_inputs": extra_inputs,
        "synthetic_clock": synthetic_clock,
        "nets": {
            classes.display[i]: {
                "verilog": vname_of[i],
                "kind": "boolean" if classes.is_boolean[i] else "multiplex",
            }
            for i in range(classes.n)
        },
        "regs": regs_out,
        "stats": netlist.stats(),
        "unsupported": unsupported,
        "caveats": [
            "buf/bufif1 with a z data input yields x in event-driven "
            "Verilog simulators; the Zeus firing rules pass NOINFL "
            "through connections unchanged (round trips through the "
            "zeus reader are exact)",
        ],
    }
    validate_manifest(manifest)
    return "\n".join(lines) + "\n", manifest
