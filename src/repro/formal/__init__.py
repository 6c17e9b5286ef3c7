"""zeusprove: the SAT-based formal verification subsystem.

Three layers over one shared solver core:

* :mod:`repro.formal.solver` — the expression language, the
  four-valued evaluator (routed through the simulator's own gate
  table), and :func:`solve`, a clause-learning search over a dual-rail
  CNF of the expression DAG (:mod:`repro.formal.cdcl`) that answers
  :class:`Sat`, :class:`Unsat` or :class:`Unknown`.  The lint
  driver-exclusivity prover and the timing false-path pruner run on
  this exact core.
* :mod:`repro.formal.encode` — frame-indexed unrolling of the REG-cut
  semantics graph (buses, latches, amplifiers) with structural
  interning.
* :mod:`repro.formal.bmc` / :mod:`repro.formal.equiv` — bounded model
  checking with k-induction, and miter-based sequential equivalence;
  every refutation is replayed through the real simulator
  (:mod:`repro.formal.replay`) before it is reported, and results ship
  as the versioned ``zeus.proof/1`` schema
  (:mod:`repro.formal.report`).

Quickstart::

    import repro
    from repro.formal import check_equivalence, prove

    a = repro.compile_text(RIPPLE4_TEXT)
    b = repro.compile_text(RIPPLE_N_TEXT)
    report = check_equivalence(a, b)
    assert report.verdict == "proved"

    report = prove(a, ["no-conflict", "out-defined:s"])
"""

from .solver import (  # noqa: F401  (import order: solver has no deps)
    ConeBuilder,
    ExprFactory,
    Sat,
    Solver,
    SolverStats,
    Unknown,
    Unsat,
    apply_op,
    eval_expr,
    solve,
    support_of,
)
from .encode import EncodeError, Encoder, input_groups, out_ports  # noqa: F401
from .report import (  # noqa: F401
    SCHEMA,
    Counterexample,
    ProofReport,
    PropertyResult,
    validate_proof_report,
    write_proof_report,
)
from .bmc import FormalConfig, default_properties, prove  # noqa: F401
from .equiv import check_equivalence  # noqa: F401

__all__ = [
    "ConeBuilder",
    "Counterexample",
    "EncodeError",
    "Encoder",
    "ExprFactory",
    "FormalConfig",
    "ProofReport",
    "PropertyResult",
    "SCHEMA",
    "Sat",
    "Solver",
    "SolverStats",
    "Unknown",
    "Unsat",
    "apply_op",
    "check_equivalence",
    "default_properties",
    "eval_expr",
    "input_groups",
    "out_ports",
    "prove",
    "solve",
    "support_of",
    "validate_proof_report",
    "write_proof_report",
]
