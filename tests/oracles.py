"""Independent reference implementations used only to cross-check the
library.  Everything here is deliberately naive and coded along different
lines than the package internals."""

from __future__ import annotations

import itertools

from reslat import (
    FiniteRL,
    NotResiduatedError,
    make_algebra,
    validate,
)
from reslat.identities import Const, Neg, Var
from reslat.algebra import meet_table, join_table


def naive_chains(n, integral=True, commutative=False):
    """Blind fill of every non-unit product cell, filtered by validate.

    The unit row and column are dictated by the monoid law, so fixing them
    loses no generality; every other cell ranges over all n values.
    """
    out = []
    units = [n - 1] if integral else list(range(n))
    for unit in units:
        free = [(x, y) for x in range(n) for y in range(n) if x != unit and y != unit]
        if commutative:
            free = [(x, y) for (x, y) in free if x <= y]
        for vals in itertools.product(range(n), repeat=len(free)):
            t = [[0] * n for _ in range(n)]
            for x in range(n):
                t[unit][x] = x
                t[x][unit] = x
            for (x, y), v in zip(free, vals):
                t[x][y] = v
                if commutative:
                    t[y][x] = v
            if not _quick_plausible(t, n):
                continue
            try:
                alg = make_algebra(product=t, unit=unit)
            except NotResiduatedError:
                continue
            flags = ["lattice", "monoid", "residuation"]
            if integral:
                flags.append("integral")
            if commutative:
                flags.append("commutative")
            if validate(alg, flags).ok:
                out.append(tuple(map(tuple, t)))
    return out


def _quick_plausible(t, n):
    # cheap monotonicity + bottom-annihilation filter before full validation
    for x in range(n):
        if t[x][0] != 0 or t[0][x] != 0:
            return False
        for y in range(1, n):
            if t[x][y] < t[x][y - 1] or t[y][x] < t[y - 1][x]:
                return False
    return True


def naive_ordinal_sum(lower: FiniteRL, upper: FiniteRL) -> FiniteRL:
    """Ordinal sum of two integral chains from the definition: the non-units
    of ``lower`` sit below all of ``upper``, and a product with one factor
    from each part is the lower factor.  Only the product is built; the
    divisions are derived by ``make_algebra``."""
    elems = [("lo", x) for x in range(lower.size) if x != lower.unit]
    elems += [("up", y) for y in range(upper.size)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(p, q):
        if p[0] == q[0] == "lo":
            return ("lo", lower.product[p[1]][q[1]])
        if p[0] == q[0] == "up":
            return ("up", upper.product[p[1]][q[1]])
        return p if p[0] == "lo" else q

    product = [[index[mul(p, q)] for q in elems] for p in elems]
    return make_algebra(product=product, unit=index["up", upper.unit])


def brute_force_congruences(alg: FiniteRL):
    """All congruence partitions, found by scanning every set partition."""
    mt, jt = meet_table(alg), join_table(alg)
    tables = (alg.product, mt, jt, alg.ldiv, alg.rdiv)

    def partitions(elems):
        if not elems:
            yield []
            return
        head, rest = elems[0], elems[1:]
        for smaller in partitions(rest):
            for i in range(len(smaller)):
                yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1 :]
            yield [[head]] + smaller

    found = []
    for blocks in partitions(list(range(alg.size))):
        block_of = {}
        for i, b in enumerate(blocks):
            for x in b:
                block_of[x] = i
        if all(
            len({block_of[t[x][y]] for x in b1 for y in b2}) == 1
            for t in tables
            for b1 in blocks
            for b2 in blocks
        ):
            found.append(tuple(tuple(sorted(b)) for b in sorted(blocks, key=min)))
    return found


def brute_force_filters(alg: FiniteRL):
    """All congruence filters, by scanning every subset containing the unit."""
    others = [x for x in range(alg.size) if x != alg.unit]
    found = []
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            members = frozenset(extra) | {alg.unit}
            if _is_filter(alg, members):
                found.append(members)
    return sorted(found, key=lambda f: (len(f), tuple(sorted(f))))


def _is_filter(alg, members):
    for x in members:
        for y in range(alg.size):
            if alg.le(x, y) and y not in members:
                return False
    for x in members:
        for y in members:
            if alg.product[x][y] not in members:
                return False
    for x in members:
        for y in range(alg.size):
            if alg.ldiv[y][alg.product[x][y]] not in members:
                return False
            if alg.rdiv[y][alg.product[y][x]] not in members:
                return False
    return True


def brute_amalgam_exists(vf, m, flags=None) -> bool:
    """Amalgam existence at exactly size m, the slow way: every residuated
    chain of that size, every embedding of B, every compatible embedding of
    C.  Shares no search code with the bounded engine.  ``flags`` may ask
    for k-potent or divisible chains only; they are filtered here, with
    their definitions read off the product table."""
    from reslat import ChainFlags, enumerate_chains
    from reslat.amalgamation import find_embeddings

    flags = flags or ChainFlags()
    assert not (flags.integral or flags.commutative or flags.pointed), "only k_potent and divisible are filtered"
    for d in enumerate_chains(m, ChainFlags()):
        if flags.k_potent is not None and not _has_equal_powers(d.product, flags.k_potent):
            continue
        if flags.divisible and not _divides(d.product):
            continue
        for h in find_embeddings(vf.B, d):
            pin = {vf.j.map[a]: h.map[vf.i.map[a]] for a in range(vf.A.size)}
            if len(set(pin.values())) != len(pin):
                continue
            if find_embeddings(vf.C, d, pin=pin):
                return True
    return False


def _has_equal_powers(t, k):
    """x^(k+1) = x^k for every x, each power built as x*(x*(...))."""
    for x in range(len(t)):
        powers = [x]
        while len(powers) <= k:
            powers.append(t[x][powers[-1]])
        if powers[k] != powers[k - 1]:
            return False
    return True


def _divides(t):
    """x /\\ y = x*(x\\y) = (y/x)*x for all x, y, each residual found as
    the greatest s with x*s <= y (s*x <= y); s = 0 always qualifies."""
    n = len(t)
    for x in range(n):
        for y in range(n):
            left = max(s for s in range(n) if t[x][s] <= y)
            right = max(s for s in range(n) if t[s][x] <= y)
            if not t[x][left] == t[right][x] == min(x, y):
                return False
    return True


def naive_placements(vf, m, flags):
    """Every pair (hpos, kpos) of increasing position tuples of B and C in a
    chain of size m that agrees on A, with the units at the top when
    ``flags.integral`` and the zeros at 0 when ``flags.pointed``, in
    lexicographic order.  It filters the product of all position tuples,
    joining the two sides on the positions they give A."""
    B, C, i, j = vf.B, vf.C, vf.i.map, vf.j.map

    def admitted(pos, alg):
        if flags.integral and pos[alg.unit] != m - 1:
            return False
        return not flags.pointed or pos[alg.zero] == 0

    by_anchors = {}
    for kpos in itertools.combinations(range(m), C.size):
        if admitted(kpos, C):
            by_anchors.setdefault(tuple(kpos[x] for x in j), []).append(kpos)
    return [
        (hpos, kpos)
        for hpos in itertools.combinations(range(m), B.size)
        if admitted(hpos, B)
        for kpos in by_anchors.get(tuple(hpos[x] for x in i), ())
    ]


def rpn_eval(alg: FiniteRL, term, env):
    """Second evaluator: compile to postfix, run a stack machine."""
    code = []

    def emit(t):
        if isinstance(t, Var):
            code.append(("load", t.name))
        elif isinstance(t, Const):
            code.append(("const", t.symbol))
        elif isinstance(t, Neg):
            emit(t.arg)
            code.append(("neg", None))
        else:
            emit(t.left)
            emit(t.right)
            code.append(("op", t.op))

    emit(term)
    mt, jt = meet_table(alg), join_table(alg)
    stack = []
    for kind, payload in code:
        if kind == "load":
            stack.append(env[payload])
        elif kind == "const":
            stack.append(alg.unit if payload == "1" else alg.zero)
        elif kind == "neg":
            stack.append(alg.ldiv[stack.pop()][alg.zero])
        else:
            b = stack.pop()
            a = stack.pop()
            if payload == "*":
                stack.append(alg.product[a][b])
            elif payload == "/\\":
                stack.append(mt[a][b])
            elif payload == "\\/":
                stack.append(jt[a][b])
            elif payload in ("\\", "->"):
                stack.append(alg.ldiv[a][b])
            elif payload == "/":
                stack.append(alg.rdiv[b][a])
            else:
                raise ValueError(payload)
    (result,) = stack
    return result
