"""Counterexample replay: the differential guarantee of the prover.

Every refutation the BMC or equivalence checker emits is a concrete
primary-input stimulus trace.  Before a COUNTEREXAMPLE verdict is
reported, the trace is re-run through the real :class:`Simulator`
(lenient mode, levelized when possible) and the claimed violation or
mismatch must actually occur — the same witness-replay discipline the
PR-3 lint prover established.  A trace that does not reproduce
downgrades the verdict to UNKNOWN with the replay detail attached, so a
solver bug can never surface as a confirmed refutation.

A verification run replays through a :class:`Replayer`: one simulator
per circuit, reset to the state of a fresh one before each replay.
"""

from __future__ import annotations

from ..core.values import Logic


class Replayer:
    """The replay simulators of one verification run: one lenient
    simulator per circuit, built on first use.  :meth:`fresh` hands it
    out in the state of a new one (registers UNDEF, no pokes, no
    violations, the seed-0 RANDOM stream)."""

    def __init__(self):
        self._sims: dict[int, tuple] = {}

    def fresh(self, circuit):
        held = self._sims.get(id(circuit))
        if held is None:
            sim = circuit.simulator(strict=False)
            self._sims[id(circuit)] = (circuit, sim)
            return sim
        sim = held[1]
        sim.reset_state()
        sim.rng.seed(0)
        return sim


def _poke_frame(sim, frame: dict[str, list[int]]) -> None:
    for path, bits in frame.items():
        sim.poke(path, [Logic.from_bit(b) for b in bits])


def replay_property(sim, prop: str,
                    frames: list[dict[str, list[int]]]) -> tuple[bool, str]:
    """Replay a BMC counterexample for *prop* on a fresh simulator;
    returns ``(confirmed, detail)``.  The violation is checked at the
    final frame's cycle (the cycle the solver refuted)."""
    for frame in frames:
        _poke_frame(sim, frame)
        sim.step()
    last = len(frames) - 1
    kind, _, arg = prop.partition(":")
    if kind == "no-conflict":
        hits = [v for v in sim.violations if v.cycle == last]
        if hits:
            return True, str(hits[0])
        return False, f"no multi-driver violation at cycle {last}"
    if kind == "out-defined":
        vals = sim.peek(arg)
        bad = [i + 1 for i, v in enumerate(vals) if not v.is_defined]
        if bad:
            shown = ", ".join(str(b) for b in bad)
            return True, f"{arg}[{shown}] undefined at cycle {last}"
        return False, f"{arg} fully defined at cycle {last}"
    if kind == "assert":
        vals = sim.peek(arg)
        bad = [i + 1 for i, v in enumerate(vals) if v is not Logic.ONE]
        if bad:
            shown = ", ".join(f"{arg}[{b}]={vals[b - 1]}" for b in bad)
            return True, f"assertion fails at cycle {last}: {shown}"
        return False, f"{arg} holds at cycle {last}"
    return False, f"cannot replay property kind {kind!r}"


def replay_equiv(sim_a, sim_b, outs: list[str],
                 frames: list[dict[str, list[int]]]) -> tuple[bool, str]:
    """Replay an equivalence counterexample on fresh simulators of both
    circuits; returns ``(confirmed, detail)``.  Both simulators receive
    the same pokes (interface paths are shared); any OUT-pin difference
    at the final cycle confirms the mismatch."""
    for frame in frames:
        _poke_frame(sim_a, frame)
        _poke_frame(sim_b, frame)
        sim_a.step()
        sim_b.step()
    last = len(frames) - 1
    for pin in outs:
        left = [str(v) for v in sim_a.peek(pin)]
        right = [str(v) for v in sim_b.peek(pin)]
        if left != right:
            return True, (f"{pin} differs at cycle {last}: "
                          f"{left} vs {right}")
    return False, f"all OUT pins agree at cycle {last}"
