"""Circuit equivalence checking by co-simulation.

The paper presents several pairs of "equivalent" formulations
(rippleCarry4 vs. rippleCarry(4), the iterative vs. recursive binary
tree).  This module checks such claims mechanically:

* :func:`exhaustive_equivalent` -- all input combinations, feasible up to
  ~20 total input bits;
* :func:`random_equivalent` -- sampled vectors for wider interfaces;

Both compare every OUT pin, treating UNDEF/NOINFL as ordinary values
(the circuits must agree on X-propagation too).  Sequential circuits are
compared over a bounded number of cycles per vector.

By default (``engine="batched"``) both functions drive the compiled
lane engine (:mod:`repro.core.codegen`): vectors are packed into lanes,
up to :data:`BATCH_LANES` at a time, and every lane of a chunk
evaluates in one call of the compiled kernel.  Each lane is an
*independent* run (registers start UNDEF per vector); the scalar
engines -- selected with ``engine="levelized"``/``"dataflow"``/
``"auto"`` -- instead reuse one simulator pair, so register state
carries across vectors.  For the combinational circuits equivalence
checking is meant for, the two modes agree; for sequential pairs the
lane engine's per-vector-fresh-state semantics is the better-defined
comparison.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

from .. import Circuit

#: Maximum stimulus lanes per batched chunk.  256 lanes keeps the plane
#: ints word-sized enough that CPython big-int ops stay cheap while
#: amortizing the schedule pass over many vectors.
BATCH_LANES = 256


@dataclass
class Mismatch:
    vector: dict[str, int]
    cycle: int
    pin: str
    left: list[str]
    right: list[str]

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}, inputs {self.vector}: {self.pin} "
            f"differs ({self.left} vs {self.right})"
        )


@dataclass
class EquivalenceReport:
    equivalent: bool
    vectors_checked: int
    mismatches: list[Mismatch] = field(default_factory=list)
    #: The RNG seed for sampled runs (None for exhaustive runs), so any
    #: mismatch can be reproduced by re-running with the same seed.
    seed: int | None = None
    #: The engine that ran the comparison ("batched" by default).
    engine: str = "auto"
    #: Lanes per chunk on the batched engine (None on scalar engines).
    lanes: int | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def _interfaces(a: Circuit, b: Circuit) -> tuple[list[tuple[str, int]], list[str]]:
    ins_a = {p.name: len(p.nets) for p in a.netlist.ports if p.mode == "IN"}
    ins_b = {p.name: len(p.nets) for p in b.netlist.ports if p.mode == "IN"}
    outs_a = {p.name for p in a.netlist.ports if p.mode == "OUT"}
    outs_b = {p.name for p in b.netlist.ports if p.mode == "OUT"}
    if ins_a != ins_b:
        raise ValueError(f"input interfaces differ: {ins_a} vs {ins_b}")
    if outs_a != outs_b:
        raise ValueError(f"output interfaces differ: {outs_a} vs {outs_b}")
    return sorted(ins_a.items()), sorted(outs_a)


def _compare_vector(a_sim, b_sim, vector, outs, cycles):
    for sim in (a_sim, b_sim):
        for name, value in vector.items():
            sim.poke(name, value)
    for cycle in range(cycles):
        a_sim.step()
        b_sim.step()
        for pin in outs:
            left = [str(v) for v in a_sim.peek(pin)]
            right = [str(v) for v in b_sim.peek(pin)]
            if left != right:
                return Mismatch(dict(vector), cycle, pin, left, right)
    return None


def _run_scalar(a, b, vectors, outs, cycles, report, engine):
    a_sim = a.simulator(engine=engine)
    b_sim = b.simulator(engine=engine)
    for vector in vectors:
        mismatch = _compare_vector(a_sim, b_sim, vector, outs, cycles)
        report.vectors_checked += 1
        if mismatch is not None:
            report.equivalent = False
            report.mismatches.append(mismatch)
            if len(report.mismatches) >= 5:
                return


def _pin_planes_equal(a_sim, b_sim, pin) -> bool:
    """Fast batched comparison: exactly equal bitplanes on every bit of
    *pin* mean no lane can mismatch (the slow per-lane path is only
    taken for pins whose planes differ somewhere)."""
    for na, nb in zip(a_sim.nets_of(pin), b_sim.nets_of(pin)):
        ia = a_sim._idx(na)
        ib = b_sim._idx(nb)
        if (
            a_sim._bvals0[ia] != b_sim._bvals0[ib]
            or a_sim._bvals1[ia] != b_sim._bvals1[ib]
        ):
            return False
    return True


def _run_batched(
    a: Circuit,
    b: Circuit,
    vectors: Iterator[dict[str, int]],
    outs: list[str],
    cycles: int,
    report: EquivalenceReport,
) -> None:
    """Drive *vectors* through both circuits in lane chunks.

    One simulator pair is built for the first chunk and reused (via
    ``reset_state``) for every following chunk; a short final chunk pads
    with copies of its last vector and only the real lanes are checked.
    Mismatches are reported in vector order -- each vector's *first*
    differing (cycle, pin), capped at 5 overall, exactly like the
    scalar path.
    """
    a_sim = b_sim = None
    while True:
        chunk = list(itertools.islice(vectors, BATCH_LANES))
        if not chunk:
            return
        if a_sim is None:
            lanes = len(chunk)
            a_sim = a.simulator(engine="batched", lanes=lanes)
            b_sim = b.simulator(engine="batched", lanes=lanes)
            report.lanes = lanes
        else:
            a_sim.reset_state()
            b_sim.reset_state()
        n_used = len(chunk)
        padded = chunk + [chunk[-1]] * (a_sim.lanes - n_used)
        for sim in (a_sim, b_sim):
            for name in padded[0]:
                sim.poke_lanes(name, [vec[name] for vec in padded])
        found: dict[int, Mismatch] = {}
        for cycle in range(cycles):
            a_sim.step()
            b_sim.step()
            for pin in outs:
                if _pin_planes_equal(a_sim, b_sim, pin):
                    continue
                la = a_sim.peek_lanes(pin)
                lb = b_sim.peek_lanes(pin)
                for k in range(n_used):
                    if k in found:
                        continue
                    left = [str(v) for v in la[k]]
                    right = [str(v) for v in lb[k]]
                    if left != right:
                        found[k] = Mismatch(
                            dict(chunk[k]), cycle, pin, left, right
                        )
        report.vectors_checked += n_used
        for k in sorted(found):
            report.equivalent = False
            report.mismatches.append(found[k])
            if len(report.mismatches) >= 5:
                return


def _dispatch(a, b, vectors, outs, cycles, report, engine):
    if engine == "batched":
        _run_batched(a, b, iter(vectors), outs, cycles, report)
    else:
        _run_scalar(a, b, vectors, outs, cycles, report, engine)


def exhaustive_equivalent(
    a: Circuit,
    b: Circuit,
    *,
    cycles: int = 1,
    max_bits: int = 20,
    engine: str = "batched",
) -> EquivalenceReport:
    """Compare over every input combination (refuses above *max_bits*).

    ``engine="batched"`` (default) sweeps the vectors in bit-parallel
    lane chunks; any scalar engine name runs the legacy one-vector-at-a-
    time loop."""
    inputs, outs = _interfaces(a, b)
    total_bits = sum(w for _, w in inputs)
    if total_bits > max_bits:
        raise ValueError(
            f"{total_bits} input bits is too many for exhaustive comparison"
        )
    report = EquivalenceReport(True, 0, engine=engine)
    vectors = (
        {name: value for (name, _), value in zip(inputs, bits)}
        for bits in itertools.product(*[range(1 << w) for _, w in inputs])
    )
    _dispatch(a, b, vectors, outs, cycles, report, engine)
    return report


def random_equivalent(
    a: Circuit,
    b: Circuit,
    *,
    trials: int = 100,
    cycles: int = 1,
    seed: int = 0,
    engine: str = "batched",
) -> EquivalenceReport:
    """Compare over random vectors (reproducible from *seed*)."""
    inputs, outs = _interfaces(a, b)
    rng = random.Random(seed)
    report = EquivalenceReport(True, 0, seed=seed, engine=engine)
    vectors = (
        {name: rng.randrange(1 << w) for name, w in inputs}
        for _ in range(trials)
    )
    _dispatch(a, b, vectors, outs, cycles, report, engine)
    return report
