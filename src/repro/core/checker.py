"""Graph-level static checks (paper sections 1, 4.5, 4.7, 8).

Run after elaboration, these enforce the rules that need the whole
semantics graph:

* **acyclicity** -- "we disallow feedback loops which do not lead through
  registers" (section 1); REG is the only cycle breaker;
* **assignment counting** (section 4.7): at most one unconditional
  assignment per basic signal; never both conditional and unconditional;
  conditional assignment to a *boolean* signal only under exception 1
  (an IN pin of an instantiated component or a formal OUT parameter);
* **aliasing** interaction: a boolean signal aliased with ``==`` must not
  also be unconditionally assigned with ``:=`` (section 4.1);
* **unused ports** (section 4.1): every pin of a partially connected
  instance must be used, assigned, or explicitly closed with ``*``;
* **SEQUENTIAL consistency** (section 4.5): a user-specified execution
  order must be compatible with the dataflow order;
* undriven-signal warnings (the signal will read UNDEF).
"""

from __future__ import annotations

from collections import Counter, defaultdict

from ..lang.errors import CheckError, DiagnosticSink
from .elaborate import Design
from .netlist import Net
from .types import BOOLEAN
from .view import ClassView


def feedback_loop_message(view: ClassView) -> str:
    """The acyclicity error for *view*'s combinational cycle, naming
    each class by its canonical net."""
    nets = view.netlist.nets
    names = " -> ".join(nets[view.canon_ids[ci]].name for ci in view.cycle)
    return f"combinational feedback loop (not through a register): {names}"


class Checker:
    """Runs all graph checks over one elaborated design."""

    def __init__(self, design: Design):
        self.design = design
        self.netlist = design.netlist
        self.view = ClassView(design)
        self.sink = DiagnosticSink(source=design.source)

    def run(self) -> DiagnosticSink:
        self.check_acyclic()
        self.check_assignment_rules()
        self.check_unused_ports()
        self.check_sequential_constraints()
        self.warn_undriven()
        return self.sink

    # -- acyclicity -----------------------------------------------------

    def check_acyclic(self) -> None:
        if self.view.cycle:
            self.sink.error(feedback_loop_message(self.view), phase="check")

    # -- section 4.7 counting rules ---------------------------------------

    def check_assignment_rules(self) -> None:
        view = self.view
        # Classes in the order their first driver appears.
        for ci in dict.fromkeys(drv.dst for drv in view.drivers):
            drivers = view.drivers_of[ci]
            uncond = sum(drv.cond is None for drv in drivers)
            cond = len(drivers) - uncond
            canon = self.netlist.nets[view.canon_ids[ci]]
            members = view.members[ci]
            display = view.display[ci]
            if uncond > 1:
                self.sink.error(
                    f"signal {display!r} has {uncond} unconditional "
                    "assignments (exactly one is allowed; this could connect "
                    "power to ground)",
                    canon.span,
                    phase="check",
                )
            if uncond >= 1 and cond >= 1:
                self.sink.error(
                    f"signal {display!r} is assigned both conditionally and "
                    "unconditionally (section 4.7)",
                    canon.span,
                    phase="check",
                )
            if cond >= 1:
                self._check_conditional_boolean(members, display)
            if len(members) > 1 and any(
                drv.cond is None and drv.src is not None for drv in drivers
            ):
                booleans = [m for m in members if m.kind == BOOLEAN]
                if booleans:
                    self.sink.error(
                        f"boolean signal {display!r} is aliased with == and "
                        "also unconditionally assigned with := (section 4.1)",
                        canon.span,
                        phase="check",
                    )

    def _check_conditional_boolean(self, members: list[Net], display: str) -> None:
        """Conditional assignment reaches this alias class: every boolean
        member must fall under exception 1 of the type rules."""
        for m in members:
            if m.kind != BOOLEAN:
                continue
            if m.role in ("pin_in", "pin_out"):
                continue  # exception 1 (incl. formal OUT seen from inside)
            if m.role == "gate":
                continue  # implicit nets synthesized by the elaborator
            if m.name.startswith("$"):
                continue  # NUM-mux and other synthesized helper nets
            self.sink.error(
                f"conditional assignment to boolean signal {display!r} "
                f"({m.name}); it must be of type multiplex, or be an IN pin "
                "of an instantiated component or a formal OUT parameter "
                "(type rules (1), section 4.7)",
                m.span,
                phase="check",
            )

    # -- unused ports -------------------------------------------------------

    def check_unused_ports(self) -> None:
        pins_of: dict[int, list[Net]] = defaultdict(list)
        instances = {id(inst): inst for inst in self.design.instances}
        for net_id, inst in self.design.pin_owner.items():
            pins_of[id(inst)].append(self.netlist.nets[net_id])
        for key, inst in instances.items():
            pins = pins_of.get(key, [])
            if not pins or not inst.touched:
                continue  # completely disconnected components are legal
            missing = [p for p in pins if p.id not in inst.touched]
            for pin in missing:
                self.sink.error(
                    f"port {pin.name!r} of instance {inst.path!r} is neither "
                    "used nor assigned; close it explicitly with '*' "
                    "(section 4.1)",
                    pin.span,
                    phase="check",
                )

    # -- SEQUENTIAL consistency ------------------------------------------

    def check_sequential_constraints(self) -> None:
        if not self.design.seq_constraints:
            return
        deps = self.view.net_deps
        find = self.netlist.find
        for earlier, later in self.design.seq_constraints:
            earlier_ids = {find(n).id for n in earlier}
            later_ids = {find(n).id for n in later}
            # The user claims `earlier` is computed before `later`: then no
            # earlier target may (combinationally) depend on a later target.
            hit = self._reaches(deps, earlier_ids, later_ids)
            if hit is not None:
                a, b = hit
                self.sink.error(
                    f"SEQUENTIAL order incompatible with the dataflow order: "
                    f"{self.netlist.nets[a].name!r} (earlier statement) "
                    f"depends on {self.netlist.nets[b].name!r} (later "
                    "statement)",
                    phase="check",
                )

    @staticmethod
    def _reaches(
        deps: dict[int, set[int]], from_ids: set[int], targets: set[int]
    ) -> tuple[int, int] | None:
        """Is any of *targets* reachable (via deps) from any of *from_ids*?
        Returns a witness (start, target) or None."""
        for start in from_ids:
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for dep in deps.get(node, ()):
                    if dep in targets:
                        return (start, dep)
                    if dep not in seen:
                        seen.add(dep)
                        stack.append(dep)
        return None

    # -- warnings -----------------------------------------------------------

    def warn_undriven(self) -> None:
        view = self.view
        # The view's fan-out counts a constant driver's guard as a read;
        # this warning never has.
        const_guards = Counter(
            view.idx(cc.cond) for cc in self.netlist.const_conns
            if cc.cond is not None
        )
        read = {ci for ci, n in view.fanout.items() if n > const_guards[ci]}
        inputs = {ci for ci in range(view.n) if view.is_input[ci]}
        for ci in sorted(read - view.driven - inputs):
            net = self.netlist.nets[view.canon_ids[ci]]
            self.sink.warning(
                f"signal {net.name!r} is read but never assigned; it will be "
                f"{'NOINFL' if net.kind != BOOLEAN else 'UNDEF'}",
                net.span,
                phase="check",
            )
        self._warn_write_only()

    def _warn_write_only(self) -> None:
        """Assigned-but-never-read warnings, delegated to the lint
        framework's write-only pass so the checker and ``zeusc lint``
        agree on the exclusions (ports, ``==``-alias dedup, synthetic
        nets)."""
        from ..lint.model import LintConfig
        from ..lint.passes import write_only_pass

        for finding in write_only_pass(self.view, LintConfig()):
            self.sink.warning(finding.message, finding.span, phase="check")


def check(design: Design, strict: bool = True) -> DiagnosticSink:
    """Run all static checks; raise :class:`CheckError` on the first
    error when *strict*."""
    from ..obs.spans import span

    with span("check"):
        sink = Checker(design).run()
    if strict and sink.has_errors():
        first = sink.errors[0]
        raise CheckError(first.message, first.span)
    return sink
