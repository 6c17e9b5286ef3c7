"""Per-design code generation: the compiled lane kernel.

Every lane simulation (``engine="codegen"`` and its alias
``engine="batched"``) runs the levelized
:class:`~repro.core.schedule.Schedule` as generated code, in the style
of compiled-code logic simulators (and of Hardcaml's simulation
backends): at :class:`Simulator` construction the schedule is *compiled
to Python source* -- one straight-line function whose locals are the
bitplanes -- and ``exec``-compiled once.  A cycle is then a single call
of generated code:

* no per-opcode dispatch -- each op is emitted as its own expression;
* locals-only variable access (``LOAD_FAST``), no per-op list indexing;
* ``COPY`` ops (the majority in real designs: 225 of 305 in the 16-bit
  ripple adder) cost *nothing* -- copy propagation aliases the
  destination's plane names to the source's;
* constant masks are folded into the emitted source (`SET`/`CONST` ops
  become the literals ``M``/``0``);
* gates consume *amplified* planes (NOINFL pre-converted to UNDEF), so
  the AND/OR/NAND/NOR rules collapse to two plane ops each and NOT to a
  pure alias swap; the amplification itself is emitted only for the few
  classes that can actually carry NOINFL (multiplex nets, free nets,
  inputs poked NOINFL) -- gate outputs and register outputs provably
  cannot.

Planes are unbounded Python ints in the encoding of
:mod:`repro.core.batched`, at every lane count.  :class:`CodegenError`
only guards against emitter bugs: every schedule compiles.

Poke contract
-------------

Most stimulus lands on *input-default* classes (inputs without
drivers), and every kernel merges those pokes.  Any other poke is
*exotic*: an INOUT pin or internal net (a COPY, CONST or multiplex
destination), or an input poked NOINFL in some lane.
:func:`compile_step` takes the set of exotically poked classes and
emits merge code for exactly those, with the dataflow engine's rule
that a poke counts as one more driver:

* a COPY or CONST destination reports the lanes where poke and source
  both drive through ``conflict`` and resolves to
  ``poke | source | clash``;
* a multiplex class starts its accumulators and driven mask from the
  poke, so every driver is checked for a conflict, the first included;
* an input with NOINFL lanes may float, so gates amplify it first.

The :class:`Simulator` derives the set from its poke table and keeps
one kernel per distinct set; the empty set -- the common case --
emits no merge code at all.
"""

from __future__ import annotations

from typing import Callable

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
    OPC_SET,
    OPC_XOR,
    Schedule,
)
from .values import Logic


class CodegenError(Exception):
    """The emitter cannot compile this schedule (an emitter bug)."""


class CompiledStep:
    """One exec-compiled combinational pass over a schedule.

    ``fn(vals0, vals1, pokes, reg0, reg1, lane_rngs, conflict, M)``
    overwrites the per-class bitplanes ``vals0``/``vals1`` from the
    poke table ``pokes`` (class -> ``(plane0, plane1, lane_mask)``),
    the register planes ``reg0``/``reg1`` and the per-lane rngs
    ``lane_rngs`` (read only by RANDOM gates); ``M`` is the all-lanes
    mask and ``conflict(dst, lanes, prior0, prior1, new0, new1)``
    records per-lane multi-drive violations.  :attr:`source` is the
    generated Python source (goldens in ``tests/test_codegen.py`` pin
    it down).
    """

    __slots__ = ("source", "fn", "n_ops")

    def __init__(self, source: str, fn: Callable, n_ops: int):
        self.source = source
        self.fn = fn
        self.n_ops = n_ops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledStep({self.n_ops} ops, "
            f"{len(self.source.splitlines())} lines)"
        )


class _Emitter:
    """Schedule -> Python source.  One instance per compile."""

    def __init__(self, sched: Schedule, poked: frozenset):
        self.sched = sched
        #: the exotically poked classes (see the module's poke contract).
        self.poked = poked
        self.lines: list[str] = []
        #: per-class raw plane refs (expression strings), SSA-style.
        self.ref0: list[str | None] = [None] * sched.n
        self.ref1: list[str | None] = [None] * sched.n
        #: per-class amplified refs (NOINFL -> UNDEF), built on demand.
        self.amp0: list[str | None] = [None] * sched.n
        self.amp1: list[str | None] = [None] * sched.n
        #: True when the class can carry NOINFL (needs amplification
        #: before a gate consumes it).
        self.maybe_noinfl = [False] * sched.n
        self.tmp = 0

    # -- small helpers ---------------------------------------------------

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def fresh(self) -> str:
        self.tmp += 1
        return f"t{self.tmp}"

    def set_raw(self, i: int, r0: str, r1: str, noinfl: bool) -> None:
        self.ref0[i] = r0
        self.ref1[i] = r1
        self.maybe_noinfl[i] = noinfl
        if not noinfl:
            self.amp0[i] = r0
            self.amp1[i] = r1

    def define(self, i: int, e0: str, e1: str, noinfl: bool,
               depth: int = 1) -> None:
        """Assign class *i*'s planes to fresh locals p{i}/q{i}."""
        self.emit(f"p{i} = {e0}", depth)
        self.emit(f"q{i} = {e1}", depth)
        self.set_raw(i, f"p{i}", f"q{i}", noinfl)

    def amp(self, i: int) -> tuple[str, str]:
        """Amplified plane refs of class *i* (gate-input view: NOINFL
        reads as UNDEF).  Emitted at most once per class."""
        if self.amp0[i] is None:
            r0, r1 = self.ref0[i], self.ref1[i]
            if r0 == "0" and r1 == "0":
                # A constant NOINFL (free net) amplifies to UNDEF.
                self.amp0[i] = self.amp1[i] = "M"
            else:
                u = self.fresh()
                self.emit(f"{u} = M ^ ({r0} | {r1})")
                self.emit(f"a{i} = {r0} | {u}")
                self.emit(f"b{i} = {r1} | {u}")
                self.amp0[i] = f"a{i}"
                self.amp1[i] = f"b{i}"
        return self.amp0[i], self.amp1[i]

    def const_planes(self, value: Logic) -> tuple[str, str]:
        """The plane literals of a broadcast constant."""
        from .batched import LOGIC_PLANES

        b0, b1 = LOGIC_PLANES[value]
        return ("M" if b0 else "0", "M" if b1 else "0")

    # -- emission --------------------------------------------------------

    def compile(self, func_name: str) -> str:
        sched = self.sched
        self.emit(
            f"def {func_name}(vals0, vals1, pokes, reg0, reg1, "
            "lane_rngs, conflict, M):", 0
        )
        self.emit("get_poke = pokes.get")

        # Source firings (cycle start).
        for i in sched.free_nets:
            self.set_raw(i, "0", "0", noinfl=True)
        self._emit_input_defaults()
        for ri, qi in sched.reg_pairs:
            # Register planes are never NOINFL: they start UNDEF and the
            # latch only overwrites driven lanes.
            self.define(qi, f"reg0[{ri}]", f"reg1[{ri}]", noinfl=False)
        for op in sched.source_ops:
            if op[0] == OPC_RANDOM:
                self._emit_random(op[1])
            else:
                assert op[0] == OPC_SET
                e0, e1 = self.const_planes(op[2])
                self.set_raw(op[1], e0, e1, noinfl=op[2] is Logic.NOINFL)

        for op in sched.ops:
            self._emit_op(op)

        self._emit_store()
        for i in range(sched.n):
            if self.ref0[i] is None:
                raise CodegenError(f"class {i} has no producer")
        return "\n".join(self.lines) + "\n"

    def _emit_input_defaults(self) -> None:
        """Input classes: default value unless poked.  Only an input
        in the poked set can carry NOINFL lanes, so only those need
        amplification before a gate reads them."""
        for i, default in self.sched.input_defaults:
            if default not in (Logic.ZERO, Logic.UNDEF):
                raise CodegenError(
                    f"unsupported input default {default!r}"
                )
            undef = default is Logic.UNDEF
            self.emit(f"pk = get_poke({i})")
            self.emit("if pk is None:")
            self.emit(f"p{i} = M", 2)
            self.emit(f"q{i} = {'M' if undef else '0'}", 2)
            self.emit("else:")
            self.emit("t0, t1, pm = pk", 2)
            self.emit("f = M ^ pm", 2)
            self.emit(f"p{i} = f | t0", 2)
            self.emit(f"q{i} = {'f | t1' if undef else 't1'}", 2)
            self.set_raw(i, f"p{i}", f"q{i}", noinfl=i in self.poked)

    def _emit_random(self, out: int) -> None:
        """RANDOM source: consume each lane rng once, lane 0 first --
        the scalar engines' stream, so the seed+k contract holds.  The
        draws form one lane column (highest lane first after the
        reverse) read by a single ``int(_, 2)``: linear in lanes."""
        self.emit(
            "ones = int(''.join(['1' if rng.random() < 0.5 else '0' "
            "for rng in lane_rngs])[::-1], 2)"
        )
        self.emit(f"p{out} = M ^ ones")
        self.emit(f"q{out} = ones")
        self.set_raw(out, f"p{out}", f"q{out}", noinfl=False)

    def _emit_op(self, op: tuple) -> None:
        code = op[0]
        if code == OPC_COPY:
            dst, src = op[1], op[2]
            if dst in self.poked:
                self._emit_poke_merge(dst, self.ref0[src], self.ref1[src],
                                      self.maybe_noinfl[src])
                return
            # Pure aliasing: the dst planes *are* the src planes.
            self.ref0[dst] = self.ref0[src]
            self.ref1[dst] = self.ref1[src]
            self.amp0[dst] = self.amp0[src]
            self.amp1[dst] = self.amp1[src]
            self.maybe_noinfl[dst] = self.maybe_noinfl[src]
            # A later amp() of dst must also land on src's cache.
            if self.maybe_noinfl[dst]:
                self._alias_amp(dst, src)
        elif code == OPC_CONST:
            e0, e1 = self.const_planes(op[2])
            noinfl = op[2] is Logic.NOINFL
            if op[1] in self.poked:
                self._emit_poke_merge(op[1], e0, e1, noinfl)
            else:
                self.set_raw(op[1], e0, e1, noinfl)
        elif code == OPC_NOT:
            a0, a1 = self._amped(op[1])
            # NOT on amplified planes is a plane swap: zero ops.
            self.set_raw(op[2], a1, a0, noinfl=False)
        elif code in (OPC_AND, OPC_OR, OPC_NAND, OPC_NOR):
            self._emit_and_or(code, op[1], op[2])
        elif code == OPC_XOR:
            self._emit_xor(op[1], op[2])
        elif code == OPC_EQUAL:
            self._emit_equal(op[1], op[2])
        elif code == OPC_CLASS:
            self._emit_class(op[1], op[2])
        else:  # pragma: no cover - future opcodes land here explicitly
            raise CodegenError(f"unknown opcode {code}")

    def _emit_poke_merge(self, dst: int, s0: str, s1: str,
                         noinfl: bool) -> None:
        """A poked COPY/CONST destination: the poke is one more driver.
        Lanes where both drive conflict and resolve UNDEF; the result
        floats only where the source does."""
        self.emit(f"t0, t1, pm = pokes[{dst}]")
        self.emit(f"cl = (t0 | t1) & ({s0} | {s1})")
        self.emit("if cl:")
        self.emit(f"conflict({dst}, cl, t0, t1, {s0}, {s1})", 2)
        self.define(dst, f"t0 | {s0} | cl", f"t1 | {s1} | cl", noinfl)

    def _alias_amp(self, dst: int, src: int) -> None:
        """Keep dst's amp cache tied to src's, so amplification emitted
        for either is shared."""
        # Chase src to its alias root (refs are shared strings, so the
        # simplest correct sharing is: re-run amp(src) when dst needs it;
        # record the link via a tiny closure-free indirection table.
        self._amp_link = getattr(self, "_amp_link", {})
        self._amp_link[dst] = self._amp_link.get(src, src)

    def _amped(self, i: int) -> tuple[str, str]:
        link = getattr(self, "_amp_link", {})
        root = link.get(i, i)
        a0, a1 = self.amp(root)
        if root != i:
            self.amp0[i], self.amp1[i] = a0, a1
        return a0, a1

    def _emit_and_or(self, code: int, ins: tuple, out: int) -> None:
        """AND/OR/NAND/NOR on amplified planes:

        AND:  possibly-1 = all inputs possibly-1; possibly-0 = any
        input possibly-0.  OR is the dual; NAND/NOR swap the outputs.
        (Amplification makes this exact: a NOINFL operand reads as
        UNDEF, which is possibly-0 *and* possibly-1, degrading the
        output exactly like the scalar tables.)"""
        amps = [self._amped(i) for i in ins]
        if code in (OPC_AND, OPC_NAND):
            any0 = " | ".join(a0 for a0, _ in amps)
            all1 = " & ".join(a1 for _, a1 in amps)
            e0, e1 = any0, all1
        else:
            any1 = " | ".join(a1 for _, a1 in amps)
            all0 = " & ".join(a0 for a0, _ in amps)
            e0, e1 = all0, any1
        if code in (OPC_NAND, OPC_NOR):
            e0, e1 = e1, e0
        self.define(out, e0, e1, noinfl=False)

    def _emit_xor(self, ins: tuple, out: int) -> None:
        """XOR folds pairwise on amplified planes: possibly-1 of a ^ b
        is (a possibly-0 and b possibly-1) or vice versa; UNDEF operands
        poison both planes, matching the scalar all-defined rule."""
        a0, a1 = self._amped(ins[0])
        for j in ins[1:]:
            b0, b1 = self._amped(j)
            x0, x1 = self.fresh(), self.fresh()
            self.emit(f"{x0} = ({a0} & {b0}) | ({a1} & {b1})")
            self.emit(f"{x1} = ({a0} & {b1}) | ({a1} & {b0})")
            a0, a1 = x0, x1
        self.emit(f"p{out} = {a0}")
        self.emit(f"q{out} = {a1}")
        self.set_raw(out, f"p{out}", f"q{out}", noinfl=False)

    def _xor(self, a: str, b: str) -> str:
        """Constant-fold a plane xor: every plane value is a subset of
        the lane mask ``M``, so ``x ^ 0 = x`` and ``x ^ x = 0`` hold,
        and ``M`` is the all-lanes constant."""
        if a == "0":
            return b
        if b == "0":
            return a
        if a == b:
            return "0"
        return f"{a} ^ {b}"

    def _and(self, a: str, b: str) -> str:
        """Constant-fold a plane and (same subset-of-M invariant)."""
        if a == "0" or b == "0":
            return "0"
        if a == "M":
            return b
        if b == "M":
            return a
        pa = a if " " not in a else f"({a})"
        pb = b if " " not in b else f"({b})"
        return f"{pa} & {pb}"

    def _emit_equal(self, pairs: tuple, out: int) -> None:
        """Multi-bit EQUAL, the interpreter's formulation: ZERO as soon
        as a defined bit pair differs, UNDEF when any pair is undefined
        and none differ.  The plane form is amplification-invariant, so
        raw refs are fine."""
        diff_terms = []
        undef_terms = []
        for ai, bi in pairs:
            a0, a1 = self.ref0[ai], self.ref1[ai]
            b0, b1 = self.ref0[bi], self.ref1[bi]
            both = self._and(self._xor(a0, a1), self._xor(b0, b1))
            if both == "0":
                # This bit pair is never both-defined: it can only
                # contribute "undefined", never a decided difference.
                undef_terms.append("M")
                continue
            if both == "M":
                # Always both-defined: no undefined contribution.
                dx = self._xor(a1, b1)
                if dx != "0":
                    diff_terms.append(f"({dx})" if " " in dx else dx)
                continue
            bd = self.fresh()
            self.emit(f"{bd} = {both}")
            dx = self._xor(a1, b1)
            if dx != "0":
                diff_terms.append(f"({self._and(bd, dx)})")
            undef_terms.append(f"(M ^ {bd})")
        if diff_terms:
            d = self.fresh()
            self.emit(f"{d} = {' | '.join(diff_terms)}")
        else:
            d = "0"
        parts0 = ([d] if d != "0" else []) + undef_terms
        self.define(
            out,
            " | ".join(parts0) if parts0 else "0",
            "M" if d == "0" else f"M ^ {d}",
            noinfl=False,
        )

    def _emit_class(self, dst: int, drivers: tuple) -> None:
        """A multiplex class: guarded drivers resolved with the maybe/
        NOINFL/burning rules of the interpreter, conflicts reported per
        lane through the ``conflict`` hook.  A poked class starts from
        the poke as an earlier driver, so even the first driver may
        conflict."""
        first = dst not in self.poked
        if first:
            self.emit("ac0 = ac1 = dv = mb = cf = 0")
        else:
            self.emit(f"ac0, ac1, pm = pokes[{dst}]")
            self.emit("dv = ac0 | ac1")
            self.emit("mb = cf = 0")
        for cond, src, const in drivers:
            depth = 1
            if cond >= 0:
                c0, c1 = self.ref0[cond], self.ref1[cond]
                self.emit(f"on = {c1} & ~{c0}")
                # Guard UNDEF -- or a floating NOINFL guard -- *may*
                # drive: poisons the lane without counting as a drive.
                self.emit(f"mb = mb | (M ^ (on | ({c0} & ~{c1})))")
                self.emit("if on:")
                depth = 2
                on = "on"
            else:
                on = "M"
            if const is None:
                s0, s1 = self.ref0[src], self.ref1[src]
                if on == "M":
                    d0, d1 = s0, s1
                else:
                    self.emit(f"d0 = {s0} & on", depth)
                    self.emit(f"d1 = {s1} & on", depth)
                    d0, d1 = "d0", "d1"
            else:
                e0, e1 = self.const_planes(const)
                d0 = on if e0 == "M" else "0"
                d1 = on if e1 == "M" else "0"
            self.emit(f"dr = {d0} | {d1}", depth)
            self.emit("if dr:", depth)
            if not first:
                self.emit(f"cl = dv & dr", depth + 1)
                self.emit("if cl:", depth + 1)
                # A lane that already conflicted holds UNDEF, so that
                # is the prior value it reports, as the scalar engines do.
                self.emit(
                    f"conflict({dst}, cl, ac0 | cf, ac1 | cf, {d0}, {d1})",
                    depth + 2,
                )
                self.emit("cf = cf | cl", depth + 2)
            self.emit(f"ac0 = ac0 | {d0}", depth + 1)
            self.emit(f"ac1 = ac1 | {d1}", depth + 1)
            self.emit(f"dv = dv | dr", depth + 1)
            first = False
        self.define(dst, "ac0 | cf | mb", "ac1 | cf | mb", noinfl=True)

    def _emit_store(self) -> None:
        """Write every class's planes back in two list displays -- one
        bulk store per plane instead of one ``STORE_SUBSCR`` per class."""
        for name, refs in (("vals0", self.ref0), ("vals1", self.ref1)):
            self.emit(f"{name}[:] = [")
            row: list[str] = []
            for r in refs:
                row.append(r if r is not None else "0")
                if len(row) == 10:
                    self.emit("    " + ", ".join(row) + ",")
                    row = []
            if row:
                self.emit("    " + ", ".join(row) + ",")
            self.emit("]")


def compile_step(
    sched: Schedule,
    *,
    poked: frozenset = frozenset(),
    func_name: str = "zeus_step",
) -> CompiledStep:
    """Compile *sched* into one :class:`CompiledStep` that merges the
    exotic pokes of the classes in *poked* (see the poke contract)."""
    source = _Emitter(sched, poked).compile(func_name)
    namespace: dict = {}
    try:
        code = compile(source, "<zeus-codegen>", "exec")
    except SyntaxError as exc:  # pragma: no cover - emitter bug guard
        raise CodegenError(f"generated source does not compile: {exc}")
    exec(code, namespace)
    return CompiledStep(source, namespace[func_name], len(sched.ops))
