"""Dual-rail CNF encoding and the clause-learning search behind
:func:`repro.formal.solver.solve`.

Every expression node gets two boolean *rails* in the lane kernel's
plane convention: ``p0`` ("may be 0") and ``p1`` ("may be 1"), so that
0 = (1, 0), 1 = (0, 1), UNDEF = (1, 1) and NOINFL = (0, 0).  A rail is a
literal, not necessarily a fresh variable: a node whose value domain
pins a rail (a constant, an output that is never NOINFL, ...) gets the
constant literal, and a node that only ever holds 0 or 1 gets one
variable for both rails.  Domains are computed bottom-up as the image
of the children's domains.

Clauses come from three sources:

* **tables** for every fixed-arity node (gates after splitting n-ary
  AND/OR/XOR/NAND/NOR and multi-position EQUAL into binary nodes, the
  amplifier, latches, comparators and ``isundef``): the prime
  implicates of the node's truth table over its children's domains,
  enumerated through the evaluator (so gates through
  :data:`NETLIST_GATE_FUNCTIONS`) on first use and cached per (kind,
  op, child domains);
* **structural** encodings of ``bus`` and ``conflict``, linear in the
  driver count (a sequential at-least-two counter);
* **units** for constants (one shared TRUE variable) and targets.

The search is CDCL: two watched literals (binary clauses on implication
lists), first-UIP learning, VSIDS over every variable, phase saving,
Luby restarts and learnt-clause reduction at restarts.  The budget
bounds *conflicts*.
"""

from __future__ import annotations

import heapq
import itertools

from .solver import _eval, children_of

# Literals: 2 * var + sign (sign 1 = negated).  Var 1 is the constant
# TRUE, fixed by a unit clause.
TRUE = 2
FALSE = 3

_BIT = {0: 1, 1: 2, "U": 4, "Z": 8}
_VALUES = (0, 1, "U", "Z")
#: value -> (p0, p1)
_RAILS = {0: (1, 0), 1: (0, 1), "U": (1, 1), "Z": (0, 0)}
_FROM_RAILS = {(1, 0): 0, (0, 1): 1, (1, 1): "U", (0, 0): "Z"}


def _values_of(mask: int) -> tuple:
    return tuple(v for v in _VALUES if mask & _BIT[v])


def _mask_of(values) -> int:
    m = 0
    for v in values:
        m |= _BIT[v]
    return m


# ---------------------------------------------------------------------------
# Truth tables -> prime implicates (built lazily, cached per key).
# ---------------------------------------------------------------------------

_TABLES: dict[tuple, tuple] = {}


def _prime_implicates(nbits: int, rows: set[int]) -> list[tuple[int, int]]:
    """All prime implicates ``(pos_mask, neg_mask)`` of the boolean
    function whose true points are *rows* (bitmasks over *nbits*)."""
    full = (1 << nbits) - 1
    found: list[tuple[int, int]] = []
    for size in range(1, nbits + 1):
        for chosen in itertools.combinations(range(nbits), size):
            for signs in itertools.product((0, 1), repeat=size):
                pos = neg = 0
                for bit, s in zip(chosen, signs):
                    if s:
                        neg |= 1 << bit
                    else:
                        pos |= 1 << bit
                if any(p & pos == p and n & neg == n for p, n in found):
                    continue  # subsumed by a shorter implicate
                if all(r & pos or ~r & full & neg for r in rows):
                    found.append((pos, neg))
    return found


def node_table(kind: str, op: str | None, masks: tuple) -> tuple:
    """``(clauses, out_mask, alias)`` for one table-encoded node.

    The table is written over the nodes' *own* variables (see
    :data:`_OWN`): slots ``0..k-1`` are the children (``masks``), slot
    ``k`` the node, and local literal ``2 * j + sign`` names the j-th
    own variable in slot order.  Only clauses that mention the node's
    variables are kept (the rest restate a child's domain, which the
    child's encoding enforces).  When every variable of the node
    equals a child literal on every row (NOT, an amplifier on a
    boolean, EQUAL against a constant, ...), ``alias`` lists those
    local literals and the node needs no variable and no clause.  A
    ``var`` node has no children: its clauses pin it to its domain
    ``masks[0]``."""
    key = (kind, op, masks)
    hit = _TABLES.get(key)
    if hit is not None:
        return hit
    kids = () if kind == "var" else masks
    outs = {}
    for vals in itertools.product(*(_values_of(m) for m in kids)):
        if kind == "var":
            results = _values_of(masks[0])
        else:
            # The evaluator defines every node; gates route through
            # NETLIST_GATE_FUNCTIONS.
            consts = tuple(("const", v) for v in vals)
            node = ("gate", op, consts) if kind == "gate" else (kind, *consts)
            results = (_eval(node, {}, {}),)
        for out in results:
            outs[vals + (out,)] = None
    out_mask = _mask_of(row[-1] for row in outs)
    slots = [_OWN[m] for m in kids] + [_OWN[out_mask]]
    rows = set()
    for row in outs:
        bits, j = 0, 0
        for v, own in zip(row, slots):
            for rail in own:
                bits |= _RAILS[v][rail] << j
                j += 1
        rows.add(bits)
    nbits = sum(len(own) for own in slots)
    first = nbits - len(slots[-1])
    alias = [] if kids else None
    for o in range(first, nbits):
        for lit in range(2 * first):
            j, sign = lit >> 1, lit & 1
            if all((r >> o & 1) == (r >> j & 1) ^ sign for r in rows):
                alias.append(lit)
                break
        else:
            alias = None
            break
    if alias is not None:
        hit = _TABLES[key] = ((), out_mask, tuple(alias))
        return hit
    mine = ((1 << len(slots[-1])) - 1) << first
    clauses = []
    for pos, neg in _prime_implicates(nbits, rows):
        if (pos | neg) & mine:
            clauses.append(tuple(
                2 * j + ((neg >> j) & 1) for j in range(nbits)
                if (pos | neg) >> j & 1))
    hit = _TABLES[key] = (tuple(clauses), out_mask, None)
    return hit


# Rail shapes per domain mask: (fresh vars, spec0, spec1) where a spec
# is a constant literal (TRUE/FALSE) or (var offset, sign).
def _shape(mask: int) -> tuple:
    vals = _values_of(mask)
    r0 = {_RAILS[v][0] for v in vals}
    r1 = {_RAILS[v][1] for v in vals}
    spec0 = (TRUE if r0 == {1} else FALSE) if len(r0) == 1 else None
    spec1 = (TRUE if r1 == {1} else FALSE) if len(r1) == 1 else None
    if spec0 is None and spec1 is None:
        if len(vals) == 2:
            # {0, 1}: complementary rails; {U, Z}: equal rails.
            return (1, (0, 1 if _RAILS[vals[0]][0] != _RAILS[vals[0]][1]
                        else 0), (0, 0))
        return (2, (0, 0), (1, 0))
    if spec0 is None:
        return (1, (0, 0), spec1)
    if spec1 is None:
        return (1, spec0, (0, 0))
    return (0, spec0, spec1)


_SHAPES = {m: _shape(m) for m in range(1, 16)}
#: Per domain mask, the rails (0 = p0, 1 = p1) that carry the node's
#: own variables, in variable order: a node that is only ever 0 or 1
#: has one variable (its p1 rail), a constant none.
_OWN = {m: ((0, 1) if n == 2 else (1,) if n == 1 and s1 == (0, 0)
            else (0,) if n == 1 else ())
        for m, (n, _s0, s1) in _SHAPES.items()}


# ---------------------------------------------------------------------------
# The encoder.
# ---------------------------------------------------------------------------


class Cnf:
    """Dual-rail CNF of one expression DAG (nodes keyed by identity).

    ``rails[id(node)]`` is ``(l0, l1, mask)``; ``var_rails[key]`` the
    rails of each free variable.  Clauses of length >= 2 collect in
    ``clauses``, units in ``units``; ``unsat`` records an empty clause
    found while simplifying."""

    def __init__(self, domains: dict | None = None):
        self.domains = domains or {}
        self.nvars = 1
        self.clauses: list[list[int]] = []
        self.units: list[int] = [TRUE]
        self.unsat = False
        self.rails: dict[int, tuple] = {}
        self.var_rails: dict = {}

    # -- clause plumbing ----------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        return 2 * self.nvars

    def add(self, lits) -> None:
        out: list[int] = []
        for lit in lits:
            if lit == TRUE or lit ^ 1 in out:
                return
            if lit == FALSE or lit in out:
                continue
            out.append(lit)
        if len(out) > 1:
            self.clauses.append(out)
        elif out:
            self.units.append(out[0])
        else:
            self.unsat = True

    def and2(self, a: int, b: int) -> int:
        if a == FALSE or b == FALSE or a == b ^ 1:
            return FALSE
        if a == TRUE or a == b:
            return b
        if b == TRUE:
            return a
        x = self.new_var()
        self.add((x ^ 1, a))
        self.add((x ^ 1, b))
        self.add((x, a ^ 1, b ^ 1))
        return x

    def or_n(self, lits) -> int:
        kept: list[int] = []
        for lit in lits:
            if lit == TRUE or lit ^ 1 in kept:
                return TRUE
            if lit != FALSE and lit not in kept:
                kept.append(lit)
        if not kept:
            return FALSE
        if len(kept) == 1:
            return kept[0]
        x = self.new_var()
        self.add([x ^ 1] + kept)
        for lit in kept:
            self.add((x, lit ^ 1))
        return x

    def at_least_two(self, xs) -> int:
        """Sequential counter: 1 iff two or more of *xs* are true."""
        xs = [x for x in xs if x != FALSE]
        if len(xs) < 2:
            return FALSE
        seen, two = xs[0], FALSE
        for i, x in enumerate(xs[1:], 2):
            two = self.or_n((two, self.and2(seen, x)))
            if i < len(xs):
                seen = self.or_n((seen, x))
        return two

    def alloc(self, mask: int, own=None) -> tuple:
        """Rails for a node with domain *mask*: fresh variables, or the
        literals *own* standing in for them."""
        n, s0, s1 = _SHAPES[mask]
        if own is None:
            own = [2 * (self.nvars + 1 + k) for k in range(n)]
            self.nvars += n
        l0 = s0 if isinstance(s0, int) else own[s0[0]] ^ s0[1]
        l1 = s1 if isinstance(s1, int) else own[s1[0]] ^ s1[1]
        return (l0, l1, mask)

    def table(self, kind: str, op, kids: list) -> tuple:
        masks = tuple([k[2] for k in kids])
        clauses, mask, alias = (_TABLES.get((kind, op, masks))
                                or node_table(kind, op, masks))
        flat = [k[r] for k in kids for r in _OWN[k[2]]]
        if alias is not None:
            return self.alloc(mask, [flat[t >> 1] ^ (t & 1) for t in alias])
        out = self.alloc(mask)
        flat += [out[r] for r in _OWN[mask]]
        for clause in clauses:
            self.add([flat[t >> 1] ^ (t & 1) for t in clause])
        return out

    # -- nodes ----------------------------------------------------------------

    def encode(self, root: tuple) -> tuple:
        """Rails of *root*, encoding every not-yet-seen node below it."""
        rails = self.rails
        hit = rails.get(id(root))
        if hit is not None:
            return hit
        stack = [root]
        while stack:
            e = stack[-1]
            if id(e) in rails:
                stack.pop()
                continue
            pending = [c for c in children_of(e) if id(c) not in rails]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            rails[id(e)] = self._node(e)
        return rails[id(root)]

    def _node(self, e: tuple) -> tuple:
        tag = e[0]
        rails = self.rails
        if tag == "const":
            p0, p1 = _RAILS[e[1]]
            return (TRUE if p0 else FALSE, TRUE if p1 else FALSE,
                    _BIT[e[1]])
        if tag == "var":
            # One variable per key: an uninterned cone may hold several
            # ("var", key) tuples for one net (a cyclic back-reference).
            hit = self.var_rails.get(e[1])
            if hit is not None:
                return hit
            domain = self.domains.get(e[1])
            if domain is None:  # {0, 1}: one variable, no clause
                self.nvars += 1
                out = self.var_rails[e[1]] = (2 * self.nvars + 1,
                                              2 * self.nvars, 3)
                return out
            mask = _mask_of(domain)
            clauses, _, _ = node_table("var", None, (mask,))
            out = self.alloc(mask)
            flat = [out[r] for r in _OWN[mask]]
            for clause in clauses:
                self.add([flat[t >> 1] ^ (t & 1) for t in clause])
            self.var_rails[e[1]] = out
            return out
        if tag == "gate":
            return self._gate(e[1], [rails[id(a)] for a in e[2]])
        if tag in ("bus", "conflict"):
            pairs = [(self._guard(rails[id(g)]), rails[id(s)])
                     for g, s in e[1]]
            return self._bus(pairs) if tag == "bus" else self._conflict(pairs)
        return self.table(tag, None, [rails[id(c)] for c in children_of(e)])

    def _gate(self, op: str, args: list) -> tuple:
        if len(args) <= 2:
            return self.table("gate", op, args)
        if op == "EQUAL":
            half = len(args) // 2
            terms = [self.table("gate", "EQUAL", [a, b])
                     for a, b in zip(args[:half], args[half:])]
            return self._gate("AND", terms)
        base = {"NAND": "AND", "NOR": "OR"}.get(op, op)
        acc = args[0]
        for a in args[1:-1]:
            acc = self.table("gate", base, [acc, a])
        return self.table("gate", op, [acc, args[-1]])

    def _guard(self, g: tuple) -> tuple:
        # A floating guard reads as UNDEF (maybe-drive), like amp.
        return self.table("amp", None, [g]) if g[2] & _BIT["Z"] else g

    # Guards arrive in {0, 1, U} (see _guard), so "guard is 1" is the
    # literal g0 ^ 1 and "guard is U" is g0 AND g1.

    def _bus(self, pairs) -> tuple:
        """``p1 = poison OR two-or-more OR some armed driver may be 1``
        (and ``p0`` likewise with 0): poison is a U guard, and an armed
        driver (guard 1) with a non-NOINFL source contributes."""
        poison, drives, x0s, x1s = [], [], [], []
        for (g0, g1, gm), (s0, s1, sm) in pairs:
            if gm & _BIT["U"]:
                poison.append(self.and2(g0, g1))
            x0s.append(self.and2(g0 ^ 1, s0))
            x1s.append(self.and2(g0 ^ 1, s1))
            drives.append(self.or_n((x0s[-1], x1s[-1]))
                          if sm & _BIT["Z"] else g0 ^ 1)
        multi = self.at_least_two(drives)
        r0 = self.or_n(poison + [multi] + x0s)
        r1 = self.or_n(poison + [multi] + x1s)
        return (r0, r1, _bus_mask(pairs))

    def _conflict(self, pairs) -> tuple:
        """1 iff two or more drivers have guard 1 and a non-NOINFL
        source."""
        multi = self.at_least_two([
            self.and2(g0 ^ 1, self.or_n((s0, s1))) if sm & _BIT["Z"]
            else g0 ^ 1
            for (g0, _, _), (s0, s1, sm) in pairs])
        mask = (_BIT[0] if multi != TRUE else 0) | \
            (_BIT[1] if multi != FALSE else 0)
        return (multi ^ 1, multi, mask)


def _bus_mask(pairs) -> int:
    """A superset of the values a bus over these drivers can take."""
    b0, b1, bu, bz = _BIT[0], _BIT[1], _BIT["U"], _BIT["Z"]
    mask = 0
    can_drive = 0
    quiet = True
    for (_, _, gm), (_, _, sm) in pairs:
        if gm & bu:
            mask |= bu
        if gm & b1:
            mask |= sm & (b0 | b1 | bu)
            if sm & (b0 | b1 | bu):
                can_drive += 1
        if not (gm & b0 or (gm & b1 and sm & bz)):
            quiet = False
    if can_drive >= 2:
        mask |= bu
    if quiet:
        mask |= bz
    return mask


# ---------------------------------------------------------------------------
# The CDCL search.
# ---------------------------------------------------------------------------


def _luby(i: int) -> int:
    """The i-th (0-based) element of the Luby sequence 1 1 2 1 1 2 4 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


def search(cnf: Cnf, budget: int) -> tuple:
    """CDCL over *cnf*.  Returns ``(status, model, conflicts,
    decisions)``: status True (SAT; ``model[lit]`` is 1 for true
    literals), False (UNSAT) or None (more than *budget* conflicts)."""
    if cnf.unsat:
        return False, None, 0, 0
    nvars = cnf.nvars
    n2 = 2 * nvars + 2
    val = [0] * n2          # per literal: 1 true, -1 false, 0 free
    level = [0] * (nvars + 1)
    reason: list = [None] * (nvars + 1)
    act = [0.0] * (nvars + 1)
    phase = [1] * (nvars + 1)   # preferred sign: 1 = negative
    watches: list[list] = [[] for _ in range(n2)]
    bins: list[list] = [[] for _ in range(n2)]
    trail: list[int] = []
    lim: list[int] = []
    learnts: list[list] = []
    conflicts = decisions = 0
    for c in cnf.clauses:
        if len(c) == 2:
            bins[c[0]].append(c[1])
            bins[c[1]].append(c[0])
        else:
            watches[c[0]].append(c)
            watches[c[1]].append(c)

    def enqueue(lit, why) -> bool:
        v = val[lit]
        if v:
            return v == 1
        val[lit] = 1
        val[lit ^ 1] = -1
        var = lit >> 1
        level[var] = len(lim)
        reason[var] = why
        trail.append(lit)
        return True

    qhead = 0

    def propagate():
        nonlocal qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            f = p ^ 1
            dl = len(lim)
            for y in bins[f]:
                vy = val[y]
                if vy == 1:
                    continue
                if vy == -1:
                    return [y, f]
                val[y] = 1
                val[y ^ 1] = -1
                level[y >> 1] = dl
                reason[y >> 1] = f
                trail.append(y)
            ws = watches[f]
            if not ws:
                continue
            kept: list = []
            watches[f] = kept
            i, n = 0, len(ws)
            while i < n:
                c = ws[i]
                i += 1
                first = c[0]
                if first == f:
                    first = c[0] = c[1]
                    c[1] = f
                if val[first] == 1:
                    kept.append(c)
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] != -1:
                        c[1] = lk
                        c[k] = f
                        watches[lk].append(c)
                        break
                else:
                    kept.append(c)
                    if val[first] == -1:
                        kept.extend(ws[i:])
                        qhead = len(trail)
                        return c
                    val[first] = 1
                    val[first ^ 1] = -1
                    level[first >> 1] = dl
                    reason[first >> 1] = c
                    trail.append(first)
        return None

    heap = [(0.0, v) for v in range(2, nvars + 1)]
    inc = 1.0

    def cancel(to: int) -> None:
        nonlocal qhead
        if len(lim) <= to:
            return
        stop = lim[to]
        for lit in trail[stop:]:
            var = lit >> 1
            val[lit] = val[lit ^ 1] = 0
            reason[var] = None
            phase[var] = lit & 1
            heapq.heappush(heap, (-act[var], var))
        del trail[stop:]
        del lim[to:]
        qhead = stop

    seen = [False] * (nvars + 1)

    def analyze(confl) -> tuple[list, int]:
        nonlocal inc
        learnt = [0]
        dl = len(lim)
        pending = 0
        idx = len(trail) - 1
        lits = confl
        p = -1
        while True:
            for q in lits:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    act[var] += inc
                    if level[var] >= dl:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            var = p >> 1
            seen[var] = False
            pending -= 1
            if pending == 0:
                break
            why = reason[var]
            lits = (why,) if isinstance(why, int) else why[1:]
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = False
        inc *= 1.05
        if inc > 1e100:
            for v in range(nvars + 1):
                act[v] *= 1e-100
            inc *= 1e-100
        back = 0
        if len(learnt) > 1:
            best = 1
            for j in range(2, len(learnt)):
                if level[learnt[j] >> 1] > level[learnt[best] >> 1]:
                    best = j
            learnt[1], learnt[best] = learnt[best], learnt[1]
            back = level[learnt[1] >> 1]
        return learnt, back

    for lit in cnf.units:
        if not enqueue(lit, None):
            return False, None, 0, 0
    if propagate() is not None:
        return False, None, 0, 0

    restarts = 0
    next_restart = 64
    max_learnts = len(cnf.clauses) // 3 + 2000
    while True:
        confl = propagate()
        if confl is not None:
            if not lim:
                return False, None, conflicts, decisions
            conflicts += 1
            if conflicts > budget:
                return None, None, conflicts, decisions
            learnt, back = analyze(confl)
            cancel(back)
            if len(heap) > 4 * nvars:
                heap = [(-act[v], v) for v in range(2, nvars + 1)
                        if not val[2 * v]]
                heapq.heapify(heap)
            if len(learnt) == 1:
                enqueue(learnt[0], None)
            elif len(learnt) == 2:
                bins[learnt[0]].append(learnt[1])
                bins[learnt[1]].append(learnt[0])
                enqueue(learnt[0], learnt[1])
            else:
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
                learnts.append(learnt)
                enqueue(learnt[0], learnt)
            continue
        if conflicts >= next_restart:
            restarts += 1
            next_restart = conflicts + 64 * _luby(restarts)
            cancel(0)
            if len(learnts) > max_learnts:
                learnts = _reduce(learnts, cnf.clauses, watches)
                max_learnts = int(max_learnts * 1.1)
        var = 0
        while heap:
            key, v = heapq.heappop(heap)
            if not val[2 * v] and -key == act[v]:
                var = v
                break
        if not var:
            # Stale heap entries may hide a free variable: rescan once.
            free = [v for v in range(2, nvars + 1) if not val[2 * v]]
            if not free:
                return True, val, conflicts, decisions
            heap = [(-act[v], v) for v in free]
            heapq.heapify(heap)
            continue
        decisions += 1
        lim.append(len(trail))
        enqueue(2 * var + phase[var], None)


def _reduce(learnts: list, clauses: list, watches: list) -> list:
    """Drop the longer half of the learnt clauses (at decision level
    0, where no learnt clause is a reason) and rebuild the watches
    from every surviving clause's first two literals."""
    learnts.sort(key=len)
    kept = learnts[:len(learnts) // 2]
    for ws in watches:
        ws.clear()
    for c in itertools.chain(clauses, kept):
        if len(c) > 2:
            watches[c[0]].append(c)
            watches[c[1]].append(c)
    return kept


def rails_value(model: list, l0: int, l1: int):
    """The four-valued value a model gives a pair of rails."""
    return _FROM_RAILS[(int(model[l0] == 1), int(model[l1] == 1))]


def settles(asn: dict, targets, blockers, memo=None) -> bool:
    """Does the (partial) assignment settle every target to 1 and every
    blocker off 1 under the partial evaluator?"""
    if memo is None:
        memo = {}
    for t in targets:
        if _eval(t, asn, memo) != 1:
            return False
    for b in blockers:
        v = _eval(b, asn, memo)
        if v is None or v == 1:
            return False
    return True


def minimize(asn: dict, targets, blockers, avoid) -> dict:
    """Cut a full satisfying assignment down to a partial witness.

    Greedily unassigns every variable the targets and blockers stay
    settled without (see :func:`settles`), variables *avoid* flags
    first, re-evaluating only that variable's ancestors per check."""
    need = dict(asn)
    memo: dict = {}
    if not settles(need, targets, blockers, memo):
        raise RuntimeError("CDCL model does not settle its targets")
    parents: dict[int, list] = {}
    var_nodes: dict = {}
    seen: set = set()
    stack = list(targets) + list(blockers)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if e[0] == "var":
            var_nodes.setdefault(e[1], []).append(e)
            continue
        for c in children_of(e):
            parents.setdefault(id(c), []).append(e)
            stack.append(c)
    for key in sorted(need, key=lambda k: not avoid(k)):
        ups: set[int] = set()
        stack = list(var_nodes[key])
        while stack:
            for p in parents.get(id(stack.pop()), ()):
                if id(p) not in ups:
                    ups.add(id(p))
                    stack.append(p)
        saved = {i: memo.pop(i, memo) for i in ups}
        v = need.pop(key)
        if settles(need, targets, blockers, memo):
            continue
        need[key] = v
        for i, old in saved.items():
            if old is memo:
                memo.pop(i, None)
            else:
                memo[i] = old
    return need
