"""``zeusc`` -- the Zeus command-line driver.

Subcommands:

* ``check FILE``     -- parse, elaborate and run all static checks;
* ``lint FILE``      -- the ``zeuslint`` pass framework: the driver-
  exclusivity prover plus the structural passes, with per-rule severity
  overrides (``-W``/``-E``/``--disable``) and text/json/sarif output;
* ``stats FILE``     -- netlist statistics after elaboration;
* ``sim FILE``       -- simulate N cycles with optional pokes, print
  the requested signals per cycle (or write a VCD); ``--flight N``
  records the last N cycles in the flight recorder and ``--trace-out``
  dumps the window as ``zeus.trace/1`` JSON;
* ``explain FILE``   -- causal "why" explanation: simulate with the
  flight recorder on and walk ``--net X --cycle C`` backward through
  the recorded firings to the minimal causal cone (text tree, DOT, or
  ``zeus.trace/1`` JSON);
* ``profile FILE``   -- compile-phase timings (lex/parse/elaborate/
  check) plus simulator activity: firing statistics, cycles/sec, and
  the top-N hottest nets and gates; ``--chrome FILE`` exports the run
  as Chrome trace-event JSON for Perfetto;
* ``layout FILE``    -- compute and print the floorplan;
* ``analyze FILE``   -- logic depth, critical path, fan-out statistics;
* ``timing FILE``    -- zeustime static timing analysis: configurable
  delay model (``--model unit|fanout``), min clock period, k-worst
  true critical paths with SAT false-path pruning and witness replay
  (text, ``zeus.timing/1`` JSON, or SARIF);
* ``prove FILE``     -- zeusprove bounded model checking with
  k-induction: multi-drive conflicts, OUT-pin definedness, and
  ``assert:<path>`` user properties, every refutation replayed through
  the simulator (text or ``zeus.proof/1`` JSON);
* ``equiv A B``      -- zeusprove sequential equivalence of two designs
  over matched interfaces (PROVED-EQUIVALENT / COUNTEREXAMPLE /
  UNKNOWN), optionally cross-checked by random co-simulation;
* ``dot FILE``       -- export the semantics graph as Graphviz DOT;
* ``emit-verilog FILE`` -- export the elaborated design as structural
  Verilog (gate primitives + ``zeus_dff`` register idiom) with a
  ``zeus.interchange/1`` manifest carrying the name maps;
* ``import-verilog FILE`` -- read a structural-Verilog netlist
  (including ISCAS85/89-style files) back into a Zeus semantics graph
  and report its shape;
* ``examples``       -- list the bundled paper programs (usable with
  ``--builtin NAME`` instead of FILE everywhere).

``check``, ``lint``, ``sim``, ``analyze``, ``timing``, ``profile``,
``prove`` and ``equiv`` accept ``--metrics FILE`` to dump a machine-readable
``zeus.metrics/1`` JSON report (compile-phase spans, design stats,
and -- where a simulation or proof ran -- the activity counters and
solver statistics).  See ``docs/INTERNALS.md``, "Observability".

Exit codes follow one contract everywhere: 0 clean, 1 warnings or
UNKNOWN verdicts under ``--werror`` or a ``timing --clock`` constraint
violated by a true path, 2 errors -- including parse and elaboration
failures (every subcommand) and refuted properties (``prove``/``equiv``
counterexamples).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import Circuit, ZeusError, compile_text
from .core.simulator import ENGINES
from .core.trace import Trace
from .obs import metrics_report, write_metrics
from .obs import spans as _spans
from .obs.schema import json_text
from .stdlib import programs


def _load(args: argparse.Namespace) -> Circuit:
    if args.builtin:
        try:
            text = programs.ALL_PROGRAMS[args.builtin]
        except KeyError:
            raise SystemExit(
                f"unknown builtin {args.builtin!r}; run 'zeusc examples'"
            )
        name = args.builtin
    else:
        if not args.file:
            raise SystemExit("a FILE or --builtin NAME is required")
        with open(args.file, "r", encoding="utf-8") as f:
            text = f.read()
        name = args.file
    try:
        return compile_text(
            text, top=args.top, name=name, strict=not args.lenient
        )
    except ZeusError as exc:
        # Keep the failing source on the exception so --format json
        # error payloads can carry line/column positions.
        exc.source_text = text
        exc.source_name = name
        raise


def _report_error(args: argparse.Namespace, exc: ZeusError) -> int:
    """The exit-2 contract with a machine face: ``--format json``
    subcommands emit the ``zeus.error/1`` payload (the same renderer
    zeusd uses) on stdout/-o; everything else keeps the one-line
    stderr message."""
    from .lang import SourceText
    from .lang.errors import error_payload

    if getattr(args, "format", None) == "json":
        source = None
        if getattr(exc, "source_text", None) is not None:
            source = SourceText(exc.source_text, exc.source_name)
        text = json_text(error_payload(exc, source))
        output = getattr(args, "output", None)
        if output:
            with open(output, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"wrote {output}")
        else:
            print(text, end="")
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", help="Zeus source file")
    p.add_argument("--builtin", help="use a bundled paper program instead")
    p.add_argument("--top", help="top-level signal to instantiate")
    p.add_argument(
        "--lenient", action="store_true",
        help="collect check errors instead of failing on the first",
    )


def _add_metrics(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics", metavar="FILE",
        help="write a zeus.metrics/1 JSON report to FILE",
    )


def _add_pokes(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--poke", action="append", default=[],
        metavar="SIG=VAL[@CYCLE]",
        help="drive SIG with VAL (int) from CYCLE on (default cycle 0)",
    )


def _add_engine(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine", choices=ENGINES, default="auto",
        help="simulation engine: levelized fast path, dataflow firing, "
             "auto (levelized when the design can be scheduled), or the "
             "compiled lane engine codegen (alias batched)",
    )


def _add_flight(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--flight", type=int, default=None, metavar="N",
        help="record the last N cycles in the flight recorder",
    )
    p.add_argument(
        "--trace-out", metavar="FILE",
        help="write the recorded window as zeus.trace/1 JSON "
             "(implies --flight over the whole run)",
    )


def _add_formal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=8, metavar="K",
                   help="BMC unrolling bound in cycles (default 8)")
    p.add_argument("--budget", type=int, default=100_000, metavar="N",
                   help="solver conflict budget per SAT question "
                        "(default 100000)")
    p.add_argument("--no-induction", action="store_true",
                   help="skip the k-induction steps (BMC only)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--werror", action="store_true",
                   help="exit 1 on UNKNOWN verdicts")


def _parse_pokes(specs: list[str]) -> list[tuple[int, str, int]]:
    pokes: list[tuple[int, str, int]] = []
    for spec in specs:
        sig, _, val = spec.partition("=")
        cycle = 0
        if "@" in val:
            val, _, cyc = val.partition("@")
            cycle = int(cyc)
        pokes.append((cycle, sig, int(val, 0)))
    return pokes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeusc", description="Zeus HDL compiler/simulator (1983 reproduction)"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="run all static checks")
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--werror", action="store_true",
                   help="exit 1 when there are warnings")

    p = sub.add_parser(
        "lint", help="static analysis: driver-exclusivity prover + passes"
    )
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="report format (default text)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("-W", "--warn", action="append", default=[],
                   metavar="RULE[=SEV]",
                   help="set RULE's severity (default warning); SEV is "
                        "error|warning|note|off; RULE may be 'all'")
    p.add_argument("-E", "--error", action="append", default=[],
                   metavar="RULE", help="promote RULE to an error")
    p.add_argument("--disable", action="append", default=[],
                   metavar="RULE", help="turn RULE off")
    p.add_argument("--werror", action="store_true",
                   help="exit 1 when there are warnings")
    p.add_argument("--max-fanout", type=int, metavar="N",
                   help="fanout-limit threshold (default 64)")
    p.add_argument("--max-depth", type=int, metavar="N",
                   help="logic-depth-limit threshold (default 128)")
    p.add_argument("--prover-budget", type=int, metavar="N",
                   help="solver conflict budget per driver pair")
    p.add_argument("--show-suppressed", action="store_true",
                   help="include suppressed findings in text output")
    p.add_argument("--list-rules", action="store_true",
                   help="list the registered lint rules and exit")

    p = sub.add_parser("stats", help="netlist statistics")
    _add_common(p)

    p = sub.add_parser("sim", help="simulate")
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--cycles", type=int, default=8)
    _add_pokes(p)
    p.add_argument(
        "--watch", action="append", default=[], metavar="SIG",
        help="signals to print per cycle (default: all ports)",
    )
    p.add_argument("--vcd", help="write a VCD file of the watched signals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--batch", metavar="FILE",
        help="batched bit-parallel sweep: JSON stimulus "
             '({"lanes": N, "pokes": {sig: value-or-per-lane-list}}), '
             "one lane per stimulus, all lanes in one run",
    )
    p.add_argument(
        "--lanes", type=int, default=None, metavar="N",
        help="lane count for --engine codegen/batched (default: from "
             "--batch, else 64)",
    )
    _add_engine(p)
    _add_flight(p)

    p = sub.add_parser(
        "explain",
        help="causal 'why' explanation of a net value at a cycle",
    )
    _add_common(p)
    p.add_argument("--net", required=True, metavar="SIG",
                   help="the signal to explain")
    p.add_argument("--cycle", type=int, required=True, metavar="C",
                   help="the cycle to explain it at")
    p.add_argument("--cycles", type=int, default=None,
                   help="cycles to simulate (default: CYCLE+1)")
    _add_pokes(p)
    p.add_argument("--seed", type=int, default=0)
    _add_engine(p)
    p.add_argument("--flight", type=int, default=None, metavar="N",
                   help="flight-recorder capacity in cycles "
                        "(default: the whole run)")
    p.add_argument("--max-nodes", type=int, default=500, metavar="N",
                   help="causal-cone walk budget (default 500)")
    p.add_argument("--format", choices=("text", "dot", "json"),
                   default="text",
                   help="text tree, Graphviz DOT, or zeus.trace/1 JSON")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the explanation to FILE instead of stdout")

    p = sub.add_parser(
        "profile",
        help="compile-phase timings and simulation activity profile",
    )
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--cycles", type=int, default=64,
                   help="cycles to simulate (default 64)")
    _add_pokes(p)
    p.add_argument("--top-n", type=int, default=10, metavar="N",
                   help="hottest nets/gates to list (default 10)")
    p.add_argument("--seed", type=int, default=0)
    _add_engine(p)
    p.add_argument("--chrome", metavar="FILE",
                   help="write the run as Chrome trace-event JSON "
                        "(load in Perfetto / chrome://tracing)")

    p = sub.add_parser("layout", help="compute the floorplan")
    _add_common(p)
    p.add_argument("--svg", help="write the floorplan as SVG")

    p = sub.add_parser("analyze", help="netlist analysis report")
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--cone", metavar="SIG",
                   help="print the cone of influence of a signal")

    p = sub.add_parser(
        "timing",
        help="zeustime: static timing analysis with SAT false-path "
             "pruning",
    )
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--model", default="unit",
                   choices=("unit", "fanout"),
                   help="delay model: unit (historical logic levels, "
                        "default) or fanout (per-opcode gate delays + "
                        "wire-load estimates)")
    p.add_argument("--paths", type=int, default=4, metavar="K",
                   help="true critical paths to report (default 4)")
    p.add_argument("--clock", type=float, default=None, metavar="T",
                   help="clock-period constraint; exit 1 when a true "
                        "path exceeds it")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="report format (default text)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--no-sat", action="store_true",
                   help="skip SAT false-path pruning (every path "
                        "reports 'assumed')")
    p.add_argument("--budget", type=int, default=20_000, metavar="N",
                   help="solver conflict budget per path (default 20000)")
    p.add_argument("--max-sat", type=int, default=200, metavar="N",
                   help="SAT classifications per run (default 200)")

    p = sub.add_parser(
        "prove",
        help="zeusprove: bounded model checking with k-induction",
    )
    _add_common(p)
    _add_metrics(p)
    _add_formal(p)
    p.add_argument(
        "--prop", action="append", default=[], metavar="PROP",
        help="property to check: no-conflict, out-defined:<pin>, or "
             "assert:<path>; repeatable (default: no-conflict plus "
             "out-defined for every OUT pin)",
    )

    p = sub.add_parser(
        "equiv",
        help="zeusprove: sequential equivalence of two designs",
    )
    p.add_argument("file", nargs="?", help="first Zeus source file")
    p.add_argument("file2", nargs="?", help="second Zeus source file")
    p.add_argument("--builtin", help="bundled program for the first design")
    p.add_argument("--builtin2", help="bundled program for the second design")
    p.add_argument("--top", help="top-level signal of the first design")
    p.add_argument("--top2", help="top-level signal of the second design")
    p.add_argument("--lenient", action="store_true",
                   help="collect check errors instead of failing on the first")
    _add_metrics(p)
    _add_formal(p)
    p.add_argument(
        "--sample", type=int, metavar="N",
        help="also cross-check with N random co-simulation vectors",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --sample vector generation (default 0)")

    p = sub.add_parser("dot", help="export the semantics graph as DOT")
    _add_common(p)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--no-synthetic", action="store_true",
                   help="hide elaborator-synthesized helper nets")

    p = sub.add_parser(
        "emit-verilog",
        help="export the design as structural Verilog + "
             "zeus.interchange/1 manifest",
    )
    _add_common(p)
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the Verilog to FILE instead of stdout")
    p.add_argument("--manifest", metavar="FILE",
                   help="write the zeus.interchange/1 manifest JSON to FILE")
    p.add_argument("--module", metavar="NAME",
                   help="emitted module name (default: <design>_mod)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text prints the Verilog; json prints one object "
                        "with both the Verilog and the manifest")

    p = sub.add_parser(
        "import-verilog",
        help="read a structural-Verilog netlist into a Zeus "
             "semantics graph",
    )
    p.add_argument("file", help="Verilog source file")
    p.add_argument("--top", metavar="MODULE",
                   help="top module (default: the uninstantiated one)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text prints a shape summary; json prints the "
                        "identity zeus.interchange/1 manifest")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")

    p = sub.add_parser(
        "serve",
        help="zeusd: serve compile/lint/sim/prove/timing over HTTP "
             "(content-hash compile cache, process-pool SAT shards, "
             "lane-multiplexed sim sessions)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8471)
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="process-pool shards (default: one per CPU)")
    p.add_argument("--lanes", type=int, default=16, metavar="L",
                   help="sim-session lanes per design (default 16)")
    p.add_argument("--cache-size", type=int, default=128, metavar="N",
                   help="compile-cache capacity (default 128)")
    p.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="pool backlog before 503 shedding "
                        "(default 2x workers)")
    p.add_argument("--timeout", type=float, default=60.0, metavar="S",
                   help="per-request pool deadline (default 60s)")

    sub.add_parser("examples", help="list bundled paper programs")

    args = parser.parse_args(argv)

    if args.cmd == "serve":
        from .service.server import main as serve_main

        serve_argv = [
            "--host", args.host, "--port", str(args.port),
            "--lanes", str(args.lanes),
            "--cache-size", str(args.cache_size),
            "--timeout", str(args.timeout),
        ]
        if args.workers is not None:
            serve_argv += ["--workers", str(args.workers)]
        if args.max_queue is not None:
            serve_argv += ["--max-queue", str(args.max_queue)]
        return serve_main(serve_argv)

    if args.cmd == "examples":
        for name in sorted(programs.ALL_PROGRAMS):
            print(name)
        return 0

    if args.cmd == "lint" and args.list_rules:
        from .lint import RULES

        for rule in sorted(RULES.values(), key=lambda r: r.code):
            line = (f"{rule.code}  {rule.name:<20} "
                    f"{rule.default_severity.name.lower():<8} {rule.summary}")
            if rule.paper:
                line += f" [paper {rule.paper}]"
            print(line)
        return 0

    # Capture this invocation's compile-phase spans on a private
    # registry (the process-wide REGISTRY is left untouched, so library
    # embedders running zeusc in-process do not race it).
    registry = _spans.SpanRegistry()
    with _spans.use_registry(registry):
        return _dispatch(args, registry)


def _dispatch(args: argparse.Namespace, registry) -> int:
    if args.cmd == "equiv":
        return _equiv(args, registry)
    if args.cmd == "import-verilog":
        return _import_verilog(args)

    try:
        circuit = _load(args)
    except ZeusError as exc:
        # Every subcommand follows the exit-code contract: a design that
        # fails to parse/elaborate/check is an error, never a traceback
        # (and never a silent 1 that looks like mere warnings).
        return _report_error(args, exc)

    if args.cmd == "check":
        for diag in circuit.diagnostics.diagnostics:
            print(diag.render(circuit.design.source))
        errors = len(circuit.diagnostics.errors)
        warnings = len(circuit.diagnostics.warnings)
        print(f"{circuit.name}: {errors} error(s), {warnings} warning(s)")
        if args.metrics:
            write_metrics(args.metrics, metrics_report(circuit, registry=registry))
            print(f"wrote {args.metrics}")
        if errors:
            return 2
        if args.werror and warnings:
            return 1
        return 0

    if args.cmd == "lint":
        return _lint(args, circuit, registry)

    if args.cmd == "stats":
        print(circuit.netlist.describe())
        for port in circuit.netlist.ports:
            print(f"  {port.mode:>5} {port.name} [{len(port.nets)} bits]")
        return 0

    if args.cmd == "layout":
        plan = circuit.layout()
        print(f"{circuit.name}: {plan.width} x {plan.height} "
              f"(area {plan.area}, {plan.leaf_count()} cells)")
        print(plan.render_text())
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as f:
                f.write(plan.render_svg())
            print(f"wrote {args.svg}")
        return 0

    if args.cmd == "analyze":
        from .analysis import cone_of_influence, critical_path, summary

        info = summary(circuit.netlist)
        for key, value in info.items():
            print(f"{key:>16}: {value}")
        path = critical_path(circuit.netlist)
        named = [p for p in path if not p.split(".")[-1].startswith("$")]
        print(f"{'critical path':>16}: " + " -> ".join(named))
        if args.cone:
            nets = circuit.netlist.signals.get(args.cone)
            if nets is None:
                nets = circuit.netlist.signals.get(f"{circuit.name}.{args.cone}")
            if not nets:
                print(f"error: unknown signal {args.cone!r}", file=sys.stderr)
                return 1
            cone = sorted(cone_of_influence(circuit.netlist, nets[0]))
            named = [c for c in cone if not c.split(".")[-1].startswith("$")]
            print(f"{'cone of ' + args.cone:>16}: {', '.join(named)}")
        if args.metrics:
            write_metrics(args.metrics, metrics_report(circuit, registry=registry))
            print(f"wrote {args.metrics}")
        return 0

    if args.cmd == "dot":
        from .analysis import to_dot

        text = to_dot(circuit.netlist, include_synthetic=not args.no_synthetic)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
            print(f"wrote {args.output}")
        else:
            print(text, end="")
        return 0

    if args.cmd == "emit-verilog":
        return _emit_verilog(args, circuit)

    if args.cmd == "timing":
        return _timing(args, circuit, registry)

    if args.cmd == "prove":
        return _prove(args, circuit, registry)

    if args.cmd == "profile":
        return _guard_runtime(lambda: _profile(args, circuit, registry))

    if args.cmd == "explain":
        return _guard_runtime(lambda: _explain(args, circuit, registry))

    return _guard_runtime(lambda: _sim(args, circuit, registry))


def _guard_runtime(thunk) -> int:
    """Run a simulating subcommand body under the exit-code contract: a
    runtime failure (strict-mode violation, unknown poke/watch signal)
    is an error -- report it, exit 2, never a traceback."""
    try:
        return thunk()
    except ZeusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Bad stimulus shapes (lane-count mismatches, over-wide poke
        # values) surface as ValueError from the simulator layer.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        # The simulator raises KeyError with a full message for unknown
        # poke/peek/watch paths; bare keys get a generic wrapper.
        what = exc.args[0] if exc.args else exc
        if not (isinstance(what, str) and " " in what):
            what = f"unknown signal {what!r}"
        print(f"error: {what}", file=sys.stderr)
        return 2


_LANE_GLYPHS = {"0": "0", "1": "1", "UNDEF": "X", "NOINFL": "Z"}


def _lane_cell(bits) -> str:
    """Render one lane's value: an int when fully defined, else a
    MSB-first glyph string (X = UNDEF, Z = NOINFL)."""
    from .core.values import num_of

    value = num_of(bits)
    if value is not None:
        return str(value)
    return "".join(_LANE_GLYPHS[str(b)] for b in reversed(bits))


def _sim_batched(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc sim --batch`` body: one bit-parallel run, one final
    per-lane table of the watched signals."""
    from .core.batched import BatchStimulus

    stim = BatchStimulus.from_json(args.batch) if args.batch else None
    if args.lanes is not None:
        lanes = args.lanes
    elif stim is not None:
        lanes = stim.lanes
    else:
        lanes = 64
    if stim is not None and stim.lanes != lanes:
        print(
            f"error: --lanes {lanes} conflicts with --batch lane count "
            f"{stim.lanes}",
            file=sys.stderr,
        )
        return 2
    sim = circuit.simulator(
        seed=args.seed, strict=not args.lenient, metrics=bool(args.metrics),
        engine="codegen", lanes=lanes, flight=_flight_capacity(args),
    )
    if stim is not None:
        stim.apply(sim)
    pokes = _parse_pokes(args.poke)
    watch = args.watch or [p.name for p in circuit.netlist.ports]
    t0 = time.perf_counter()
    for t in range(args.cycles):
        for cycle, sig, val in pokes:
            if cycle == t:
                sim.poke(sig, val)
        sim.step()
    elapsed = time.perf_counter() - t0
    mode = "bit-parallel" if sim._batched_fast else "per-lane fallback"
    print(f"{sim.engine} run: {lanes} lanes x {args.cycles} cycles ({mode})")
    if sim.engine_reason:
        print(f"  ({sim.engine_reason})")
    columns = [(name, sim.peek_lanes(name)) for name in watch]
    cells = [
        [_lane_cell(per_lane[k]) for name, per_lane in columns]
        for k in range(lanes)
    ]
    headers = ["lane"] + [name for name, _ in columns]
    widths = [
        max(len(headers[c]), *(len(row[c - 1]) if c else len(str(k))
                               for k, row in enumerate(cells)))
        for c in range(len(headers))
    ]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for k, row in enumerate(cells):
        print("  ".join(
            v.rjust(w) for v, w in zip([str(k)] + row, widths)
        ))
    if sim.violations:
        print(f"{len(sim.violations)} runtime violation(s):")
        for v in sim.violations:
            print(f"  {v}")
    _write_trace_out(args, circuit, sim)
    if args.metrics:
        write_metrics(
            args.metrics,
            metrics_report(circuit, sim, registry, elapsed=elapsed),
        )
        print(f"wrote {args.metrics}")
    return 0


def _flight_capacity(args: argparse.Namespace) -> int | None:
    """The flight-recorder capacity for a ``sim`` run: ``--flight N``,
    or the whole run when ``--trace-out`` is given without it."""
    if args.flight is not None:
        return args.flight
    if args.trace_out:
        return max(args.cycles, 1)
    return None


def _write_trace_out(args: argparse.Namespace, circuit: Circuit, sim) -> None:
    if not args.trace_out:
        return
    from .obs import trace_report, write_trace

    write_trace(args.trace_out, trace_report(circuit, sim))
    print(f"wrote {args.trace_out}")


def _sim(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc sim`` body: run the cycles, print the trace."""
    if args.batch or args.lanes is not None or args.engine in (
        "batched", "codegen"
    ):
        return _sim_batched(args, circuit, registry)
    sim = circuit.simulator(
        seed=args.seed, strict=not args.lenient, metrics=bool(args.metrics),
        engine=args.engine, flight=_flight_capacity(args),
    )
    pokes = _parse_pokes(args.poke)
    watch = args.watch or [p.name for p in circuit.netlist.ports]
    trace = Trace(watch)
    sim.attach_trace(trace)
    t0 = time.perf_counter()
    for t in range(args.cycles):
        for cycle, sig, val in pokes:
            if cycle == t:
                sim.poke(sig, val)
        sim.step()
    elapsed = time.perf_counter() - t0
    print(trace.render_ascii())
    if sim.violations:
        print(f"{len(sim.violations)} runtime violation(s):")
        for v in sim.violations:
            print(f"  {v}")
    if args.vcd:
        trace.write_vcd(args.vcd, circuit.name)
        print(f"wrote {args.vcd}")
    _write_trace_out(args, circuit, sim)
    if args.metrics:
        write_metrics(
            args.metrics,
            metrics_report(circuit, sim, registry, elapsed=elapsed),
        )
        print(f"wrote {args.metrics}")
    return 0


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {output}")
    else:
        print(text, end="")


def _emit_verilog(args: argparse.Namespace, circuit: Circuit) -> int:
    """The ``zeusc emit-verilog`` body: walk the elaborated netlist,
    write structural Verilog and the zeus.interchange/1 manifest.  An
    unencodable design shape (see :mod:`repro.interchange.emit`) is an
    error under the exit contract (2)."""
    from .interchange import emit_verilog

    try:
        text, manifest = emit_verilog(
            circuit.design, module_name=args.module)
    except ZeusError as exc:
        if circuit.design.source is not None:
            exc.source_text = circuit.design.source.text
            exc.source_name = circuit.design.source.name
        return _report_error(args, exc)
    if args.format == "json":
        _write_or_print(json_text({"verilog": text, "manifest": manifest}),
                        args.output)
    else:
        _write_or_print(text, args.output)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as f:
            f.write(json_text(manifest))
        print(f"wrote {args.manifest}")
    return 0


def _import_verilog(args: argparse.Namespace) -> int:
    """The ``zeusc import-verilog`` body: parse the structural subset,
    rebuild the semantics graph, report its shape.  Unsupported
    constructs, dangling instance ports and duplicate modules exit 2
    with a ``zeus.error/1`` payload (``--format json``) naming the
    source line."""
    from .interchange import import_manifest, read_verilog

    with open(args.file, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        design = read_verilog(text, name=args.file, top=args.top)
    except ZeusError as exc:
        exc.source_text = text
        exc.source_name = args.file
        return _report_error(args, exc)
    if args.format == "json":
        _write_or_print(json_text(import_manifest(design)), args.output)
        return 0
    stats = design.netlist.stats()
    info = design.interchange
    lines = [
        f"{design.name}: imported from {args.file}",
        f"  modules   : {', '.join(info['modules'])} "
        f"(top {info['top']}, {info['flattened_instances']} "
        f"flattened instance(s))",
        f"  intrinsics: {', '.join(info['intrinsics']) or '-'}",
        f"  netlist   : {stats['nets']} nets, {stats['gates']} gates, "
        f"{stats['connections']} connections, "
        f"{stats['registers']} registers",
    ]
    for port in design.netlist.ports:
        lines.append(f"  {port.mode:>5} {port.name} [{len(port.nets)} bits]")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def _lint(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc lint`` body: build the config from the CLI flags, run
    every enabled pass, render, honor the exit-code contract."""
    from .lint import LintConfig, run_lint

    config = LintConfig(werror=args.werror)
    if args.max_fanout is not None:
        config.max_fanout = args.max_fanout
    if args.max_depth is not None:
        config.max_depth = args.max_depth
    if args.prover_budget is not None:
        config.prover_budget = args.prover_budget
    try:
        for spec in args.warn:
            rule, _, sev = spec.partition("=")
            config.set_severity(rule.strip(), (sev or "warning").strip())
        for rule in args.error:
            config.set_severity(rule.strip(), "error")
        for rule in args.disable:
            config.set_severity(rule.strip(), "off")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_lint(circuit, config)
    if args.format == "json":
        text = report.render_json()
    elif args.format == "sarif":
        text = report.render_sarif()
    else:
        text = report.render_text(show_suppressed=args.show_suppressed) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    if args.metrics:
        write_metrics(
            args.metrics,
            metrics_report(circuit, registry=registry, lint=report),
        )
        print(f"wrote {args.metrics}")
    return report.exit_code()


def _explain(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc explain`` body: simulate with the flight recorder on,
    then walk the causal cone of ``--net`` at ``--cycle``.

    The run is always lenient (strict mode would abort at the very
    conflict being diagnosed); an unknown net or a cycle outside the
    recorded window is an error under the exit-code contract (2)."""
    from .obs import causal, export

    cycles = args.cycles if args.cycles is not None else args.cycle + 1
    if cycles < 1:
        print(f"error: --cycle {args.cycle} is before the first cycle (0)",
              file=sys.stderr)
        return 2
    capacity = args.flight if args.flight is not None else cycles
    sim = circuit.simulator(
        seed=args.seed, strict=False, engine=args.engine, flight=capacity,
    )
    pokes = _parse_pokes(args.poke)
    for t in range(cycles):
        for cycle, sig, val in pokes:
            if cycle == t:
                sim.poke(sig, val)
        sim.step()
    explanation = causal.explain(
        sim, args.net, args.cycle, max_nodes=args.max_nodes
    )
    if args.format == "dot":
        text = explanation.render_dot() + "\n"
    elif args.format == "json":
        report = export.trace_report(circuit, sim, explanation=explanation)
        export.validate_trace_report(report)
        text = json_text(report)
    else:
        text = explanation.render_text() + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _profile(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc profile`` body: phase timings, activity statistics,
    hottest nets/gates, optional JSON export."""
    sim = circuit.simulator(
        seed=args.seed, strict=not args.lenient, metrics=True,
        engine=args.engine,
    )
    pokes = _parse_pokes(args.poke)
    t0 = time.perf_counter()
    for t in range(args.cycles):
        for cycle, sig, val in pokes:
            if cycle == t:
                sim.poke(sig, val)
        sim.step()
    elapsed = time.perf_counter() - t0

    stats = circuit.netlist.stats()
    print(f"== {circuit.name}: {stats['nets']} nets, {stats['gates']} gates, "
          f"{stats['registers']} registers ==")
    engine_line = sim.engine
    if sim.engine_reason:
        engine_line += f" ({sim.engine_reason})"
    print(f"simulation engine : {engine_line}")
    print("\ncompile phases:")
    print(registry.render())
    print("\nsimulation activity:")
    print(sim.metrics.render(top=args.top_n))
    rate = args.cycles / elapsed if elapsed > 0 else float("inf")
    print(f"\nwall clock        : {elapsed * 1e3:.2f} ms "
          f"for {args.cycles} cycles ({rate:,.0f} cycles/sec)")
    if args.chrome:
        from .obs import chrome_trace, write_chrome_trace

        write_chrome_trace(
            args.chrome, chrome_trace(registry, sim, elapsed=elapsed)
        )
        print(f"wrote {args.chrome}")
    if args.metrics:
        write_metrics(
            args.metrics,
            metrics_report(circuit, sim, registry,
                           elapsed=elapsed, top=args.top_n),
        )
        print(f"wrote {args.metrics}")
    return 0


def _timing(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc timing`` body: run the STA, render, honor the
    exit-code contract (1 on a violated --clock constraint)."""
    from .timing import analyze_timing, write_timing_report

    report = analyze_timing(
        circuit, model=args.model, clock=args.clock, k=args.paths,
        sat=not args.no_sat, budget=args.budget, max_sat=args.max_sat)
    if args.format == "json":
        text = report.render_json()
    elif args.format == "sarif":
        text = report.render_sarif()
    else:
        text = report.render_text() + "\n"
    if args.output:
        if args.format == "json":
            write_timing_report(args.output, report)
        else:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    if args.metrics:
        write_metrics(
            args.metrics,
            metrics_report(circuit, registry=registry, timing=report),
        )
        print(f"wrote {args.metrics}")
    return report.exit_code()


def _emit_formal(args: argparse.Namespace, report, circuit,
                 registry) -> int:
    """Render/write a zeus.proof/1 report and apply the exit contract."""
    from .formal import write_proof_report

    if args.format == "json":
        text = report.render_json()
    else:
        text = report.render_text() + "\n"
    if args.output:
        if args.format == "json":
            write_proof_report(args.output, report)
        else:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    if args.metrics:
        write_metrics(
            args.metrics,
            metrics_report(circuit, registry=registry, formal=report),
        )
        print(f"wrote {args.metrics}")
    return report.exit_code(werror=args.werror)


def _prove(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc prove`` body: BMC + k-induction over the properties."""
    from .formal import FormalConfig, prove

    config = FormalConfig(depth=args.depth, budget=args.budget,
                          induction=not args.no_induction)
    try:
        report = prove(circuit, args.prop or None, config)
    except ValueError as exc:  # bad --prop spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_formal(args, report, circuit, registry)


def _equiv(args: argparse.Namespace, registry) -> int:
    """The ``zeusc equiv`` body: load both designs, run the miter, and
    optionally cross-check with random co-simulation."""
    from .formal import FormalConfig, check_equivalence

    try:
        a = _load(args)
        b = _load(argparse.Namespace(
            builtin=args.builtin2, file=args.file2, top=args.top2,
            lenient=args.lenient))
    except ZeusError as exc:
        return _report_error(args, exc)
    config = FormalConfig(depth=args.depth, budget=args.budget,
                          induction=not args.no_induction)
    try:
        report = check_equivalence(a, b, config)
    except ValueError as exc:  # mismatched interfaces
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = _emit_formal(args, report, a, registry)
    if args.sample:
        from .analysis import random_equivalent

        sampled = random_equivalent(a, b, trials=args.sample,
                                    seed=args.seed)
        verdict = "agree" if sampled.equivalent else "MISMATCH"
        print(f"co-simulation: {sampled.vectors_checked} random "
              f"vector(s) (seed {sampled.seed}): {verdict}")
        if not sampled.equivalent:
            for m in sampled.mismatches[:4]:
                print(f"  {m}")
            code = max(code, 2)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
