"""Round-trip differential harness for the Verilog interchange.

The correctness story of :mod:`repro.interchange` is test-first: a
design exported to structural Verilog and imported back must be
*observationally identical* to the original, not merely isomorphic.
This module owns that check:

* :func:`round_trip` -- emit a design to Verilog, parse it back, and
  return all four artifacts (text, manifest, imported design);
* :func:`cosimulate` -- drive the original and the round-tripped
  circuit lane-by-lane through the batched engine with the same
  stimulus (random vectors with occasional UNDEF bits for four-valued
  coverage) and compare, per cycle and per lane: every OUT/INOUT port
  bit, the final register state (translated through the manifest's
  register map), and the recorded ``(cycle, net)`` violation sets
  (translated through the manifest's name map);
* :func:`check_program` / :func:`check_corpus` -- the drivers the
  tests, the fuzzer's fourth leg, and the CI smoke job share.

Unpoked inputs exercise the special-input rule on both sides: RSET and
CLK survive mangling verbatim, so an imported design defaults them to
ZERO exactly like the original.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.values import Logic
from ..interchange import emit_verilog, name_map, read_verilog
from .fuzzgen import DifferentialResult

#: Probability that a stimulus bit is UNDEF rather than 0/1 -- keeps
#: the four-valued planes honest without drowning the logic in x.
UNDEF_RATE = 1 / 16


@dataclass
class RoundTrip:
    """One export/import cycle: everything both sides of the
    differential need."""

    design: object  # the original Design
    verilog: str
    manifest: dict
    imported: object  # the re-read Design


def round_trip(design, *, module_name: str | None = None) -> RoundTrip:
    """Emit *design* to structural Verilog and read it back."""
    text, manifest = emit_verilog(design, module_name=module_name)
    imported = read_verilog(text, name=f"{design.name}.v")
    return RoundTrip(design, text, manifest, imported)


def _stimulus(netlist, rng, n_vectors):
    """Per IN port: one per-bit Logic list per vector."""
    vectors = []
    for _ in range(n_vectors):
        vec = {}
        for port in netlist.ports:
            if port.mode != "IN":
                continue
            vec[port.name] = [
                Logic.UNDEF if rng.random() < UNDEF_RATE
                else Logic(rng.randint(0, 1))
                for _ in port.nets
            ]
        vectors.append(vec)
    return vectors


def _lane_observations(sim, watch, n_lanes, cycles):
    """rows[k][cycle] = per-watched-signal per-bit strings; plus final
    registers and violation sets per lane.  *watch* maps an observation
    key to the signal path (original side) or the list of per-bit
    paths (imported side)."""
    rows = [[] for _ in range(n_lanes)]
    for _ in range(cycles):
        sim.step()
        snap = {}
        for key, paths in watch.items():
            if isinstance(paths, str):
                snap[key] = sim.peek_lanes(paths)
            else:
                per_bit = [sim.peek_lanes(p) for p in paths]
                snap[key] = [
                    [bits[k][0] for bits in per_bit]
                    for k in range(n_lanes)
                ]
        for k in range(n_lanes):
            rows[k].append(
                tuple(
                    tuple(str(v) for v in snap[key][k])
                    for key in watch
                )
            )
    regs = [
        {name: str(v) for name, v in sim.registers(lane=k).items()}
        for k in range(n_lanes)
    ]
    viols = [
        sorted((v.cycle, v.net) for v in sim.violations if v.lane == k)
        for k in range(n_lanes)
    ]
    return rows, regs, viols


def cosimulate(
    rt: RoundTrip,
    *,
    cycles: int = 4,
    n_vectors: int = 8,
    seed: int = 0,
    vectors: list[dict] | None = None,
) -> DifferentialResult:
    """Drive both sides of *rt* with identical stimulus and compare
    every observation.  Returns a falsy result with a located mismatch
    description on the first disagreement."""
    from repro import Simulator

    netlist = rt.design.netlist
    nm = name_map(rt.manifest)
    port_bits = {
        p["name"]: p["bits"] for p in rt.manifest["ports"]
    }
    if vectors is None:
        vectors = _stimulus(netlist, random.Random(seed), n_vectors)
    n_lanes = max(1, len(vectors))

    watch_orig = {
        p.name: p.name
        for p in netlist.ports
        if p.mode in ("OUT", "INOUT")
    }
    watch_imp = {
        p.name: port_bits[p.name]
        for p in netlist.ports
        if p.mode in ("OUT", "INOUT")
    }

    sim_o = Simulator(
        rt.design, engine="batched", lanes=n_lanes, strict=False, seed=seed
    )
    sim_i = Simulator(
        rt.imported, engine="batched", lanes=n_lanes, strict=False, seed=seed
    )
    for pname in (vectors[0] if vectors else {}):
        sim_o.poke_lanes(pname, [vec[pname] for vec in vectors])
        for j, bit_name in enumerate(port_bits[pname]):
            sim_i.poke_lanes(
                bit_name, [[vec[pname][j]] for vec in vectors]
            )

    rows_o, regs_o, viols_o = _lane_observations(
        sim_o, watch_orig, n_lanes, cycles)
    rows_i, regs_i, viols_i = _lane_observations(
        sim_i, watch_imp, n_lanes, cycles)

    reg_map = rt.manifest["regs"]
    for k in range(n_lanes):
        for cycle, (ro, ri) in enumerate(zip(rows_o[k], rows_i[k])):
            if ro != ri:
                for pname, po, pi in zip(watch_orig, ro, ri):
                    if po != pi:
                        return DifferentialResult(
                            False,
                            f"round-trip lane {k} cycle {cycle} port "
                            f"{pname}: original {list(po)} "
                            f"imported {list(pi)}",
                        )
        mapped_regs = {reg_map[key]: v for key, v in regs_o[k].items()}
        if mapped_regs != regs_i[k]:
            return DifferentialResult(
                False,
                f"round-trip lane {k} registers: original "
                f"{mapped_regs} imported {regs_i[k]}",
            )
        mapped_viols = sorted(
            (cycle, nm[net]) for cycle, net in viols_o[k]
        )
        if mapped_viols != viols_i[k]:
            return DifferentialResult(
                False,
                f"round-trip lane {k} violations: original "
                f"{mapped_viols} imported {viols_i[k]}",
            )
    return DifferentialResult(True)


def check_program(
    text: str,
    *,
    name: str = "design",
    cycles: int = 4,
    n_vectors: int = 8,
    seed: int = 0,
) -> DifferentialResult:
    """Compile a Zeus program, round-trip it, and co-simulate."""
    import repro

    circuit = repro.compile_text(text, name=name, strict=False)
    rt = round_trip(circuit.design)
    return cosimulate(
        rt, cycles=cycles, n_vectors=n_vectors, seed=seed)


def stdlib_corpus() -> list[tuple[str, str]]:
    """Every stdlib program, paper examples and extras alike."""
    from repro.stdlib import ALL_PROGRAMS, EXTRA_PROGRAMS

    corpus = list(ALL_PROGRAMS.items())
    corpus += [(n, t) for n, t in EXTRA_PROGRAMS.items()
               if n not in ALL_PROGRAMS]
    return corpus


def check_corpus(
    *, cycles: int = 4, n_vectors: int = 8, seed: int = 0
) -> list[tuple[str, DifferentialResult]]:
    """Round-trip the whole stdlib corpus; one result per program."""
    return [
        (name, check_program(
            text, name=name, cycles=cycles, n_vectors=n_vectors, seed=seed))
        for name, text in stdlib_corpus()
    ]
