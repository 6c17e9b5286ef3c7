"""Testbench utilities: reusable drivers for simulating Zeus designs.

Every non-trivial testbench in the paper's world repeats the same moves:
assert RSET for enough cycles to flush pipelines, drive inputs per
cycle, preview combinational outputs before committing a clock edge
(handshakes like the Blackjack `hit` protocol), and compare signals
against expectations.  :class:`Testbench` packages those moves.

Example::

    tb = Testbench(circuit)
    tb.reset(cycles=2)
    tb.drive(a=5, b=9, cin=0)
    tb.clock()
    tb.expect(s=14, cout=0)

    # Reactive handshake: decide this cycle's inputs from this cycle's
    # (combinational) outputs before committing the edge.
    with tb.preview() as now:
        if now.bit("hit") == "1":
            tb.drive(ycard=1, value=10)
    tb.clock()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from . import Circuit
from .core.simulator import Simulator
from .core.values import Logic


class ExpectationError(AssertionError):
    """A signal did not carry the expected value."""


@dataclass
class Preview:
    """A read-only combinational view of the current cycle."""

    sim: Simulator

    def bits(self, path: str) -> list[str]:
        return [str(v) for v in self.sim.peek(path)]

    def bit(self, path: str) -> str:
        return str(self.sim.peek_bit(path))

    def int(self, path: str) -> int | None:
        return self.sim.peek_int(path)


@dataclass
class Testbench:
    """A clocked driver around a :class:`Simulator`.

    ``reset_signal`` names the reset input (the predefined RSET by
    default); ``reset_drive`` maps inputs to hold during reset.
    ``engine`` selects the simulation engine ("auto", "levelized",
    "dataflow", "batched" or "codegen" — see :class:`Simulator`).
    Setting ``lanes`` selects the batched engine (unless another engine
    is named explicitly): scalar drives/expects then observe lane 0,
    and :meth:`drive_batch` / :meth:`peek_lanes` address all lanes.
    ``flight`` records the last N cycles in a flight recorder
    (``tb.sim.flight``) for post-mortem causal explanation
    (:func:`repro.obs.explain`).
    """

    __test__ = False  # not a pytest test class despite the name

    circuit: Circuit
    strict: bool = True
    seed: int = 0
    reset_signal: str = "RSET"
    engine: str = "auto"
    lanes: int | None = None
    flight: int | None = None
    sim: Simulator = field(init=False)
    #: cycle-indexed log of expect() checks that passed, for reporting.
    checked: int = 0

    def __post_init__(self) -> None:
        engine = self.engine
        if self.lanes is not None and engine == "auto":
            engine = "batched"
        kwargs: dict[str, Any] = dict(
            strict=self.strict, seed=self.seed, engine=engine
        )
        if self.lanes is not None:
            kwargs["lanes"] = self.lanes
        if self.flight is not None:
            kwargs["flight"] = self.flight
        self.sim = self.circuit.simulator(**kwargs)
        self.engine = self.sim.engine

    # -- driving ---------------------------------------------------------

    def drive(self, **signals: Any) -> "Testbench":
        """Poke several signals by keyword (dots allowed via __ as .)."""
        for name, value in signals.items():
            self.sim.poke(name.replace("__", "."), value)
        return self

    def release(self, *names: str) -> "Testbench":
        for name in names:
            self.sim.unpoke(name.replace("__", "."))
        return self

    def drive_batch(self, stimulus) -> "Testbench":
        """Apply a :class:`~repro.core.batched.BatchStimulus` (or any
        mapping of path -> per-lane values) to the batched engine."""
        apply = getattr(stimulus, "apply", None)
        if apply is not None:
            apply(self.sim)
        else:
            for path, values in stimulus.items():
                self.sim.poke_lanes(path, values)
        return self

    def drive_lanes(self, path: str, values) -> "Testbench":
        """Poke one signal per lane (batched engine only)."""
        self.sim.poke_lanes(path.replace("__", "."), values)
        return self

    def clock(self, cycles: int = 1) -> "Testbench":
        self.sim.step(cycles)
        return self

    def reset(self, cycles: int = 1, **hold: Any) -> "Testbench":
        """Assert the reset signal for *cycles* (holding the given input
        values, default 0 for every IN port), then deassert."""
        if not hold:
            hold = {
                p.name: 0
                for p in self.circuit.netlist.ports
                if p.mode == "IN"
            }
        self.drive(**hold)
        self.sim.poke(self.reset_signal, 1)
        self.clock(cycles)
        self.sim.poke(self.reset_signal, 0)
        return self

    # -- observing ---------------------------------------------------------

    @contextmanager
    def preview(self):
        """Evaluate combinationally with the current pokes, yield a
        read-only view, without advancing the clock.  Poke changes made
        inside the block take effect at the next clock()."""
        self.sim.evaluate()
        yield Preview(self.sim)

    def peek(self, path: str) -> list[Logic]:
        return self.sim.peek(path)

    def peek_int(self, path: str) -> int | None:
        return self.sim.peek_int(path)

    def peek_lanes(self, path: str) -> list[list[Logic]]:
        """Per-lane peek (batched engine only)."""
        return self.sim.peek_lanes(path)

    def peek_lane_int(self, path: str, lane: int) -> int | None:
        """One lane's numeric value (batched engine only)."""
        return self.sim.peek_lane_int(path, lane)

    def expect(self, **expectations: Any) -> "Testbench":
        """Check signals against expected values (ints for vectors,
        0/1/'UNDEF'/'NOINFL' for bits); raises :class:`ExpectationError`
        naming the first mismatch."""
        for name, want in expectations.items():
            path = name.replace("__", ".")
            got_bits = self.sim.peek(path)
            if isinstance(want, int) and len(got_bits) > 1:
                got: Any = self.sim.peek_int(path)
            elif len(got_bits) == 1:
                got = str(got_bits[0])
                want = str(want)
            else:
                got = [str(b) for b in got_bits]
            if got != want:
                raise ExpectationError(
                    f"cycle {self.sim.cycle}: {path} = {got!r}, "
                    f"expected {want!r}"
                )
            self.checked += 1
        return self

    def run_table(self, table: list[dict[str, Any]]) -> "Testbench":
        """Drive/check a stimulus table: each row's plain keys are poked,
        keys starting with ``expect_`` are checked *after* the clock."""
        for row in table:
            drives = {k: v for k, v in row.items() if not k.startswith("expect_")}
            checks = {k[7:]: v for k, v in row.items() if k.startswith("expect_")}
            self.drive(**drives)
            self.clock()
            if checks:
                self.expect(**checks)
        return self
