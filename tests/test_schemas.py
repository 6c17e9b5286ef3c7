"""Exhaustive mutation coverage of the five ``zeus.*`` report schemas.

Each case starts from a real report: lint of htree; timing of falsepath
(witnesses, replays and pruned paths); prove of section8 (two
counterexamples) and of mux4 (two proofs); a metrics report with sim
(on the lane engine), compile, lint, formal, timing and wall sections;
a zeusd service metrics report; a blackjack trace with a causal
explanation; and a section8 trace on the lane engine, whose violation
events carry lanes and values.  From it the walker deletes every key
and retypes every leaf, one mutation at a time, walking the first and
the last item of every list:

* a required field must raise ``ValueError`` naming the schema and the
  field, by at least the last two segments of its dotted path;
* an item of a list or an entry of a name-keyed map must raise
  ``ValueError`` naming the schema;
* an optional key may be removed (``OPTIONAL``), and a field the schema
  leaves open may be removed or retyped (``FREE``, with everything
  below it): the report must still validate.

Values of the right type that break a rule have their own cases: an
enum outside its set, and the cross-field rules a shape cannot state
(series lengths, path counts, event order, the recorded window, 0/1
bits).
"""

import asyncio
import copy
import json
import re

import pytest

import repro
from repro.formal import prove, validate_proof_report
from repro.lint import run_lint, validate_lint_report
from repro.obs import (
    SpanRegistry,
    explain,
    metrics_report,
    trace_report,
    validate_report,
    validate_trace_report,
)
from repro.stdlib import programs
from repro.timing import analyze_timing, validate_timing_report


def _lenient(name, registry=None):
    return repro.compile_text(programs.ALL_PROGRAMS[name], name=name,
                              strict=False, registry=registry)


def _lint():
    return json.loads(run_lint(_lenient("htree")).render_json())


def _timing():
    return json.loads(
        analyze_timing(_lenient("falsepath"), clock=3).render_json())


def _prove(name):
    return json.loads(prove(_lenient(name)).render_json())


def _metrics():
    registry = SpanRegistry()
    circuit = _lenient("blackjack", registry)
    sim = circuit.simulator(engine="codegen", lanes=2, metrics=True,
                            strict=False)
    sim.poke("RSET", 1)
    sim.step()
    sim.poke("RSET", 0)
    sim.step(3)
    return json.loads(json.dumps(metrics_report(
        circuit, sim, registry, elapsed=0.5,
        lint=run_lint(circuit),
        formal=prove(_lenient("section8")),
        timing=analyze_timing(_lenient("falsepath"), clock=3))))


class _Writer:
    """Collects what the daemon sends on one connection."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data


def _service():
    from repro.service.server import ZeusDaemon

    daemon = ZeusDaemon(workers=1)
    try:
        async def drive():
            body = json.dumps({"source": programs.MUX4}).encode()
            await daemon._dispatch("POST", "/v1/compile", body, _Writer(),
                                   True)
            await daemon._session_open({"source": programs.MUX4,
                                        "engine": "codegen"})
            out = _Writer()
            await daemon._dispatch("GET", "/v1/metrics", b"", out, True)
            return out.data

        sent = asyncio.run(drive())
    finally:
        daemon.pool.shutdown()
    return json.loads(sent.split(b"\r\n\r\n", 1)[1])


def _trace():
    circuit = _lenient("blackjack")
    sim = circuit.simulator(strict=False, flight=6)
    for t in range(6):
        sim.poke("RSET", 1 if t == 0 else 0)
        sim.step()
    report = trace_report(circuit, sim,
                          explanation=explain(sim, "hit", 5))
    return json.loads(json.dumps(report))


def _lane_trace():
    """section8's driver conflict on the lane engine: violation events
    carry their lane and the conflicting values."""
    circuit = _lenient("section8")
    sim = circuit.simulator(engine="codegen", lanes=2, strict=False,
                            flight=4)
    for name, value in dict(a=0, b=0, c=0, x=1, y=1, rin=0).items():
        sim.poke(name, value)
    sim.step(2)
    report = trace_report(circuit, sim,
                          explanation=explain(sim, "out", 1))
    return json.loads(json.dumps(report))


# name -> (kind, validator, build, data maps, OPTIONAL, FREE).  Data maps
# are objects keyed by names from the design (rules, endpoints, phases,
# poke paths): their entries are retyped, never deleted.  Paths through
# the explanation tree are written with one ``children[]`` for any depth.
_SPANS_FREE = {"compile.spans[].meta"}
_NODE_OPTIONAL = {"explanation", "explanation.tree[].children"}
CASES = {
    "lint-htree": (
        "lint", validate_lint_report, _lint,
        {"summary.by_rule"},
        {"prover"},
        {"prover.nets[].pairs[].witness"},
    ),
    "timing-falsepath": (
        "timing", validate_timing_report, _timing,
        {"paths[].witness"},
        {"paths[].witness", "paths[].replay"},
        set(),
    ),
    "proof-section8": (
        "proof", validate_proof_report, lambda: _prove("section8"),
        {"results[].counterexample.frames[]"},
        set(),
        set(),
    ),
    "proof-mux4": (
        "proof", validate_proof_report, lambda: _prove("mux4"),
        set(), set(), set(),
    ),
    "metrics": (
        "metrics", validate_report, _metrics,
        {"compile.phases", "compile.self_phases", "lint.by_rule"},
        {"compile", "sim", "sim.engine", "sim.batched", "lint",
         "lint.prover", "formal", "timing", "wall"},
        _SPANS_FREE | {"sim.firings_by_cycle[]", "sim.steps_by_cycle[]"},
    ),
    "metrics-service": (
        "metrics", validate_report, _service,
        {"compile.phases", "compile.self_phases",
         "service.requests.by_endpoint"},
        {"compile"},
        _SPANS_FREE,
    ),
    "trace-blackjack": (
        "trace", validate_trace_report, _trace,
        set(),
        _NODE_OPTIONAL | {"explanation.tree[].children[].children"},
        {"events[].cause"},
    ),
    "trace-section8-lanes": (
        "trace", validate_trace_report, _lane_trace,
        set(),
        _NODE_OPTIONAL | {"events[].lane", "events[].values"},
        {"events[].cause"},
    ),
}


def _norm(path):
    return re.sub(r"(\.children\[\])+", ".children[]", path)


def _free(path, free):
    path = _norm(path)
    return any(path == f or path.startswith((f + ".", f + "["))
               for f in free)


def _walk(node, path, steps, maps, free, visited):
    """Yield ``(path, steps, op, field)`` for every mutation below
    *node*: *steps* locate the mutated value, *op* is "delete" or
    "retype", *field* is False for list items and map entries.  Lists
    are walked at their first and last item, and only at the first on
    a path already walked (the explanation tree recurses)."""
    if _free(path, free):
        return
    if isinstance(node, dict):
        for key, value in node.items():
            if _norm(path) in maps:
                yield f"{path}[{key!r}]", steps + [key], "retype", False
                continue
            sub = f"{path}.{key}" if path else key
            yield sub, steps + [key], "delete", True
            yield sub, steps + [key], "retype", True
            yield from _walk(value, sub, steps + [key], maps, free,
                             visited)
    elif isinstance(node, list) and node:
        sub = path + "[]"
        items = {0} if _norm(sub) in visited else {0, len(node) - 1}
        visited.add(_norm(sub))
        for i in sorted(items):
            yield sub, steps + [i], "retype", False
            yield from _walk(node[i], sub, steps + [i], maps, free,
                             visited)


def _mutate(report, steps, op):
    doc = copy.deepcopy(report)
    parent = doc
    for step in steps[:-1]:
        parent = parent[step]
    last = steps[-1]
    if op == "delete":
        del parent[last]
    else:
        # A value of the wrong JSON type: a list for an object, a
        # string for a list, an object for anything else.
        value = parent[last]
        parent[last] = ([] if isinstance(value, dict)
                        else "x" if isinstance(value, list) else {})
    return doc


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    kind, validate, build, maps, optional, free = CASES[request.param]
    return kind, validate, build(), maps, optional, free


class TestMutations:
    def test_real_report_validates(self, case):
        _kind, validate, report, *_ = case
        validate(report)

    def test_every_mutation(self, case):
        kind, validate, report, maps, optional, free = case
        seen = set()
        failures = []
        for path, steps, op, field in _walk(report, "", [], maps, free,
                                            set()):
            seen.add(_norm(path))
            allowed = _free(path, free) or (
                op == "delete" and _norm(path) in optional)
            try:
                validate(_mutate(report, steps, op))
            except ValueError as exc:
                msg = str(exc)
                tail = ".".join(path.split(".")[-2:])
                if path == "service" and op == "delete":
                    # Without its service section a metrics report
                    # describes one design, so design becomes required.
                    tail = "report.design"
                if allowed:
                    failures.append(f"{op} {path}: rejected ({msg})")
                elif not msg.startswith(f"{kind} report"):
                    failures.append(f"{op} {path}: {msg!r} names no schema")
                elif field and tail not in msg:
                    failures.append(f"{op} {path}: {msg!r} lacks {tail!r}")
            else:
                if not allowed:
                    failures.append(f"{op} {path}: accepted")
        assert not failures, "\n".join(failures)
        # Every optional or free path the table names is in the report,
        # so the table cannot go stale unnoticed.
        assert optional | free <= seen, sorted((optional | free) - seen)


def _break(doc, steps, value):
    for step in steps[:-1]:
        doc = doc[step]
    doc[steps[-1]] = value


BAD_VALUES = [
    ("metrics", _metrics, ["sim", "firings_by_cycle"], [1]),
    ("metrics", _metrics, ["sim", "batched", "lanes"], 0),
    ("metrics", _metrics, ["compile", "phases", "parse"], -1.0),
    ("trace", _trace, ["window", "first"], None),
    ("trace", _trace, ["window", "recorded"], -1),
    ("trace", _trace, ["events", 0, "cycle"], 99),
    ("trace", _trace, ["events", 0, "kind"], "burn"),
    ("trace", _trace, ["events", 0, "value"], "2"),
    ("proof", lambda: _prove("section8"), ["designs"], []),
    ("proof", lambda: _prove("section8"),
     ["results", 0, "counterexample", "frames", 0, "a"], [2]),
    ("proof", lambda: _prove("section8"), ["results", 0, "verdict"],
     "maybe"),
    ("proof", lambda: _prove("mux4"), ["results", 0, "verdict"],
     "counterexample"),
    ("timing", _timing, ["summary", "paths_reported"], 0),
    ("timing", _timing, ["summary", "paths_pruned"], 0),
    ("timing", _timing, ["paths", 0, "nets"], []),
    ("timing", _timing, ["paths", 2, "witness", "fp.b"], 2),
    ("timing", _timing, ["paths", 0, "sensitization"], "hoped"),
    ("lint", _lint, ["findings", 0, "severity"], "fatal"),
    ("lint", _lint, ["prover", "nets", 0, "verdict"], "maybe"),
]
VALIDATORS = {"lint": validate_lint_report, "timing": validate_timing_report,
              "proof": validate_proof_report, "metrics": validate_report,
              "trace": validate_trace_report}


@pytest.mark.parametrize("kind, build, steps, value", BAD_VALUES,
                         ids=[f"{k}-{'.'.join(map(str, s))}"
                              for k, _, s, _ in BAD_VALUES])
def test_bad_value_rejected(kind, build, steps, value):
    doc = build()
    if kind == "trace" and steps == ["events", 0, "cycle"]:
        assert len({e["cycle"] for e in doc["events"]}) > 1
    _break(doc, steps, value)
    with pytest.raises(ValueError, match=f"^{kind} report"):
        VALIDATORS[kind](doc)


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_header(kind):
    validate = VALIDATORS[kind]
    with pytest.raises(ValueError, match=f"^{kind} report must be a dict"):
        validate([])
    with pytest.raises(ValueError,
                       match=f"^{kind} report: schema must be 'zeus."):
        validate({"schema": "zeus.other/1"})
