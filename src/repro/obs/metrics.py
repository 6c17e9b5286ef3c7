"""Simulator activity metrics (the paper's firing events, counted).

A :class:`SimMetrics` object hangs off every
:class:`~repro.core.simulator.Simulator` as ``sim.metrics``.  Collection
is off by default (``Simulator(metrics=True)`` enables it) so the hot
firing loop pays only a boolean test per event when disabled.

What is counted, per the section-8 dataflow semantics:

* **firings** — every net-class firing event (one per class per cycle at
  most), totalled and per cycle;
* **net activity** — per class: fire count and *toggle* count (the fired
  value differs from the previous cycle's — the classic switching
  activity measure);
* **gate activity** — per gate: real evaluation attempts (``_try_gate``
  calls on a not-yet-fired gate in the dataflow engine, one evaluation
  per gate per cycle in the levelized engine) and output firings;
* **propagation steps** — worklist pops per cycle (the event-driven
  analogue of a relaxation simulator's settle iterations);
* **latches** — registers that stored a new driving value at cycle end;
* **violations** — runtime multi-drive ("burning") events;
* **peak cycle** — the cycle with the most firings.

The optional ``firing_log`` preserves the old ``record_firing=True``
behaviour: an ordered ``(display_name, value)`` event list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..core.values import Logic


class SimMetrics:
    """Activity counters for one simulator instance."""

    def __init__(
        self,
        net_names: list[str],
        gate_labels: list[str],
        *,
        enabled: bool = False,
        keep_firing_log: bool = False,
    ):
        self.enabled = enabled
        self.keep_firing_log = keep_firing_log
        self.net_names = net_names
        self.gate_labels = gate_labels
        self.reset()
        #: which engine produced the counters ("levelized"/"dataflow"/
        #: "codegen"); set by the owning Simulator, survives reset().
        self.engine = "dataflow"
        #: lane count on the batched engine (None on scalar engines);
        #: set by the owning Simulator, survives reset().
        self.lanes: int | None = None
        #: True when the batched engine runs the bit-parallel schedule,
        #: False on its per-lane dataflow fallback, None on scalar
        #: engines; set by the owning Simulator, survives reset().
        self.fast_path: bool | None = None

    def reset(self) -> None:
        n, g = len(self.net_names), len(self.gate_labels)
        self.cycles = 0
        self.firings = 0
        self.gate_evals = 0
        self.driver_evals = 0
        self.latches = 0
        self.violations = 0
        #: total lanes evaluated (lanes * cycles on the batched engine).
        self.lane_cycles = 0
        self.firings_per_cycle: list[int] = []
        self.steps_per_cycle: list[int] = []
        self.net_fires = [0] * n
        self.net_toggles = [0] * n
        self.gate_eval_counts = [0] * g
        self.gate_fire_counts = [0] * g
        self.firing_log: list[tuple[str, "Logic"]] = []

    # -- derived views -----------------------------------------------------

    @property
    def propagation_steps(self) -> int:
        """Total worklist work: gate plus driver evaluation attempts
        (the event-driven analogue of settle iterations)."""
        return self.gate_evals + self.driver_evals

    @property
    def peak_cycle(self) -> tuple[int, int]:
        """``(cycle_index, firings)`` of the busiest cycle (-1, 0 if no
        cycles ran)."""
        if not self.firings_per_cycle:
            return (-1, 0)
        best = max(range(len(self.firings_per_cycle)),
                   key=self.firings_per_cycle.__getitem__)
        return (best, self.firings_per_cycle[best])

    def top_nets(self, n: int = 10) -> list[tuple[str, int, int]]:
        """The *n* hottest net classes by toggle count:
        ``(name, toggles, fires)``, synthetic ``$``-nets included."""
        order = sorted(
            range(len(self.net_fires)),
            key=lambda i: (self.net_toggles[i], self.net_fires[i]),
            reverse=True,
        )
        return [
            (self.net_names[i], self.net_toggles[i], self.net_fires[i])
            for i in order[:n]
        ]

    def top_gates(self, n: int = 10) -> list[tuple[str, int, int]]:
        """The *n* hottest gates by evaluation attempts:
        ``(label, evals, fires)``."""
        order = sorted(
            range(len(self.gate_eval_counts)),
            key=lambda i: (self.gate_eval_counts[i], self.gate_fire_counts[i]),
            reverse=True,
        )
        return [
            (self.gate_labels[i], self.gate_eval_counts[i],
             self.gate_fire_counts[i])
            for i in order[:n]
        ]

    def summary(self) -> dict:
        """Scalar roll-up (JSON-friendly)."""
        peak_cycle, peak_firings = self.peak_cycle
        return {
            "cycles": self.cycles,
            "firings": self.firings,
            "firings_per_cycle_avg": (
                self.firings / self.cycles if self.cycles else 0.0
            ),
            "gate_evals": self.gate_evals,
            "driver_evals": self.driver_evals,
            "propagation_steps": self.propagation_steps,
            "latches": self.latches,
            "violations": self.violations,
            "peak_cycle": peak_cycle,
            "peak_cycle_firings": peak_firings,
        }

    def to_dict(self, top: int | None = None) -> dict:
        """Full machine-readable report section (``zeus.metrics/1``).

        *top* caps the per-net / per-gate tables to the hottest entries
        (None = all)."""
        nets = self.top_nets(top if top is not None else len(self.net_fires))
        gates = self.top_gates(
            top if top is not None else len(self.gate_labels)
        )
        report = {
            **self.summary(),
            "engine": self.engine,
            "firings_by_cycle": list(self.firings_per_cycle),
            "steps_by_cycle": list(self.steps_per_cycle),
            "nets": [
                {"name": name, "toggles": t, "fires": f}
                for name, t, f in nets
            ],
            "gates": [
                {"name": name, "evals": e, "fires": f}
                for name, e, f in gates
            ],
        }
        if self.lanes is not None:
            report["batched"] = {
                "lanes": self.lanes,
                "lane_cycles": self.lane_cycles,
                "fast_path": bool(self.fast_path),
            }
        return report

    def render(self, top: int = 10) -> str:
        """Human-readable activity report (the ``zeusc profile`` body)."""
        s = self.summary()
        engine = self.engine
        if self.lanes is not None:
            mode = "bit-parallel" if self.fast_path else "per-lane fallback"
            engine = f"{engine} ({self.lanes} lanes, {mode})"
        lines = [
            f"engine            : {engine}",
            f"cycles            : {s['cycles']}",
            f"net firings       : {s['firings']} "
            f"({s['firings_per_cycle_avg']:.1f}/cycle)",
            f"gate evaluations  : {s['gate_evals']}",
            f"driver evaluations: {s['driver_evals']}",
            f"propagation steps : {s['propagation_steps']}",
            f"register latches  : {s['latches']}",
            f"violations        : {s['violations']}",
            f"peak cycle        : #{s['peak_cycle']} "
            f"({s['peak_cycle_firings']} firings)",
        ]
        if self.lanes is not None:
            lines.insert(2, f"lane cycles       : {self.lane_cycles}")
        hot_nets = [x for x in self.top_nets(top) if x[1] or x[2]]
        if hot_nets:
            lines.append(f"hottest nets (top {len(hot_nets)}):")
            width = max(len(n) for n, _, _ in hot_nets)
            for name, tog, fires in hot_nets:
                lines.append(
                    f"  {name:<{width}}  toggles {tog:>6}  fires {fires:>6}"
                )
        hot_gates = [x for x in self.top_gates(top) if x[1]]
        if hot_gates:
            lines.append(f"hottest gates (top {len(hot_gates)}):")
            width = max(len(n) for n, _, _ in hot_gates)
            for name, ev, fires in hot_gates:
                lines.append(
                    f"  {name:<{width}}  evals {ev:>7}  fires {fires:>6}"
                )
        return "\n".join(lines)
