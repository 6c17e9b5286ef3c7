"""repro.obs -- the observability layer.

Two generations:

* :mod:`repro.obs.spans` -- compile-phase wall-clock spans (lex, parse,
  elaborate, check) collected on a process-wide registry, or a private
  one via :func:`use_registry` / ``compile_text(..., registry=...)``;
* :mod:`repro.obs.metrics` -- simulator activity counters (firing
  events, net toggles, gate evaluations, latches, violations) hanging
  off every :class:`~repro.core.simulator.Simulator` as ``sim.metrics``;
* :mod:`repro.obs.flight` -- the cycle-level flight recorder: a bounded
  ring of per-cycle events (firings with causes, latches, pokes,
  violations) fed by all three evaluators (``Simulator(..., flight=N)``);
* :mod:`repro.obs.causal` -- the "why" explainer: walks recorded
  firings backward through netlist fan-in to the minimal causal cone
  for ``(net, cycle)``;
* :mod:`repro.obs.chrometrace` -- Chrome trace-event export (compile
  spans + per-cycle slices + counter tracks) for Perfetto.

:mod:`repro.obs.export` serialises the counters as ``zeus.metrics/1``
and the flight recorder / explainer as ``zeus.trace/1`` -- both
versioned JSON schemas consumed by ``zeusc profile``, ``zeusc sim
--trace-out`` and ``zeusc explain``.
"""

from .causal import CauseNode, Explanation, explain
from .chrometrace import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .export import (
    SCHEMA,
    TRACE_SCHEMA,
    metrics_report,
    service_metrics_report,
    trace_report,
    validate_report,
    validate_trace_report,
    write_metrics,
    write_trace,
)
from .flight import CycleRecord, FlightEvent, FlightRecorder
from .metrics import SimMetrics
from .spans import (
    REGISTRY,
    Span,
    SpanRegistry,
    current_registry,
    span,
    use_registry,
)

__all__ = [
    "REGISTRY",
    "SCHEMA",
    "TRACE_SCHEMA",
    "CauseNode",
    "CycleRecord",
    "Explanation",
    "FlightEvent",
    "FlightRecorder",
    "SimMetrics",
    "Span",
    "SpanRegistry",
    "chrome_trace",
    "current_registry",
    "explain",
    "metrics_report",
    "service_metrics_report",
    "span",
    "trace_report",
    "use_registry",
    "validate_chrome_trace",
    "validate_report",
    "validate_trace_report",
    "write_chrome_trace",
    "write_metrics",
    "write_trace",
]
