"""The original bounded case split, kept as a test oracle for the CDCL
core behind :func:`repro.formal.solver.solve`.

A DPLL-style recursion with a static variable order (most-referenced
variables first): at each node it re-evaluates every target and blocker
under the partial assignment with :func:`eval_expr` and branches on the
next unassigned support variable.  It neither propagates nor learns,
so it is only useful on small supports, which is exactly what makes it
an independent reference.  Its budget counts search-tree nodes.
"""

from repro.formal.solver import Sat, Unknown, Unsat, children_of, eval_expr

_DEFAULT_DOMAIN = (1, 0)


def _var_refs(exprs) -> dict:
    """How many distinct parent nodes reference each variable."""
    counts: dict = {}
    seen: set[int] = set()
    stack = []
    for e in exprs:
        if e[0] == "var":
            counts[e[1]] = counts.get(e[1], 0) + 1
        else:
            stack.append(e)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        for c in children_of(e):
            if c[0] == "var":
                counts[c[1]] = counts.get(c[1], 0) + 1
            else:
                stack.append(c)
    return counts


class _OutOfBudget(Exception):
    pass


def reference_solve(targets, blockers=(), support=(), *, budget=20_000,
                    domains=None):
    """Case split over *support*: Sat(witness), Unsat() or Unknown when
    more than *budget* search-tree nodes were needed."""
    targets = tuple(targets)
    blockers = tuple(blockers)
    support = tuple(support)
    if len(support) > 1:
        counts = _var_refs(targets + blockers)
        pos = {v: i for i, v in enumerate(support)}
        support = tuple(sorted(
            support, key=lambda v: (-counts.get(v, 0), pos[v])))
    domains = domains or {}
    asn: dict = {}
    nodes = 0

    def rec():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        settled = True
        for t in targets:
            v = eval_expr(t, asn)
            if v in (0, "U", "Z"):
                return None
            if v is None:
                settled = False
        for b in blockers:
            v = eval_expr(b, asn)
            if v == 1:
                return None
            if v is None:
                settled = False
        if settled:
            return dict(asn)
        var = next((v for v in support if v not in asn), None)
        if var is None:
            return None
        for val in domains.get(var, _DEFAULT_DOMAIN):
            asn[var] = val
            hit = rec()
            if hit is not None:
                return hit
            del asn[var]
        return None

    try:
        witness = rec()
    except _OutOfBudget:
        return Unknown(f"case-split budget of {budget} nodes exhausted")
    return Unsat() if witness is None else Sat(witness)
