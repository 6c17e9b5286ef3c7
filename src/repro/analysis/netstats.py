"""Netlist analysis: logic depth, critical paths, fan-out, cones.

These are the queries a user of an early-80s silicon compiler front-end
would ask of the semantics graph: how deep is the combinational logic
between registers (the clock-period proxy in the unit-delay model), what
is the critical path, which inputs feed a given signal.
"""

from __future__ import annotations

from ..core.checker import feedback_loop_message
from ..core.netlist import Net, Netlist
from ..core.view import ClassView
from ..lang.errors import CheckError


def _levels(view: ClassView) -> dict[int, int]:
    if view.levels is None:
        raise CheckError(feedback_loop_message(view))
    canon = view.canon_ids
    return {canon[ci]: level for ci, level in view.levels.items()}


def logic_levels(netlist: Netlist) -> dict[int, int]:
    """Unit-delay level per canonical net id, in topological order:
    sources (inputs, register outputs, constants) are level 0; every
    edge adds one.  Raises :class:`CheckError` on a combinational
    cycle.  The levels are the view's (:attr:`ClassView.levels`), so
    netstats, lint and STA share one levelization."""
    return _levels(ClassView(netlist))


def logic_depth(netlist: Netlist) -> int:
    """The maximum unit-delay level -- the combinational critical depth."""
    levels = logic_levels(netlist)
    return max(levels.values(), default=0)


def critical_path(netlist: Netlist) -> list[str]:
    """Net names along one deepest combinational path, source first."""
    view = ClassView(netlist)
    levels = _levels(view)
    if not levels:
        return []
    deps = view.net_deps
    node = max(levels, key=lambda nid: levels[nid])
    path = [node]
    while levels[node] > 0:
        node = max(deps.get(node, ()), key=lambda p: levels[p])
        path.append(node)
    path.reverse()
    return [netlist.nets[nid].name for nid in path]


def fanout(netlist: Netlist) -> dict[int, int]:
    """Consumers per canonical net id (gate inputs + connection sources
    + guards + register data inputs)."""
    view = ClassView(netlist)
    canon = view.canon_ids
    return {canon[ci]: count for ci, count in view.fanout.items()}


def max_fanout(netlist: Netlist) -> tuple[str, int]:
    """(net name, consumer count) of the most loaded net."""
    counts = fanout(netlist)
    if not counts:
        return ("", 0)
    nid = max(counts, key=lambda k: counts[k])
    return (netlist.nets[nid].name, counts[nid])


def cone_of_influence(netlist: Netlist, net: Net) -> set[str]:
    """Names of all nets the given net transitively depends on
    (combinationally; REG outputs terminate the cone)."""
    deps = ClassView(netlist).net_deps
    start = netlist.find(net).id
    seen = {start}
    stack = [start]
    while stack:
        nid = stack.pop()
        for p in deps.get(nid, ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    seen.discard(start)
    return {netlist.nets[nid].name for nid in seen}


def register_paths(netlist: Netlist) -> dict[str, int]:
    """For each register, the combinational depth feeding its data pin
    (the per-register clock-period requirement in unit delays)."""
    levels = logic_levels(netlist)
    find = netlist.find
    return {
        reg.name or f"$reg{reg.id}": levels.get(find(reg.d).id, 0)
        for reg in netlist.regs
    }


def summary(netlist: Netlist) -> dict[str, object]:
    """A one-call report used by the CLI and the benchmarks."""
    name, fo = max_fanout(netlist)
    return {
        **netlist.stats(),
        "logic_depth": logic_depth(netlist),
        "max_fanout_net": name,
        "max_fanout": fo,
    }
