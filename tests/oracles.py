"""Independent reference implementations used only to cross-check the
library.  Everything here is deliberately naive and coded along different
lines than the package internals."""

from __future__ import annotations

import itertools

from reslat import (
    CHAIN,
    FiniteRL,
    IdentityResult,
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


def naive_residuals(order, product):
    """``(ldiv, rdiv)`` of a product table cell by cell: each residual is
    the greatest of its candidates ``{y : x*y <= z}`` (``{x : x*y <= z}``
    for ``rdiv``), all ``ldiv`` pairs before the ``rdiv`` ones; raises
    :class:`NotResiduatedError` with the least pair that has none."""
    n = len(product)
    chain = order == CHAIN
    le = (lambda x, y: x <= y) if chain else (lambda x, y: order[x][y])

    def greatest(candidates, pair):
        if not candidates:
            raise NotResiduatedError(pair)
        if chain:  # the candidates ascend, and the last is the greatest
            return candidates[-1]
        top = candidates[0]
        for c in candidates[1:]:
            if le(top, c):
                top = c
        if all(le(c, top) for c in candidates):
            return top
        raise NotResiduatedError(pair)

    ldiv = [[0] * n for _ in range(n)]
    rdiv = [[0] * n for _ in range(n)]
    for x in range(n):
        for z in range(n):
            ldiv[x][z] = greatest([y for y in range(n) if le(product[x][y], z)], (x, z))
    for y in range(n):
        for z in range(n):
            rdiv[y][z] = greatest([x for x in range(n) if le(product[x][y], z)], (y, z))
    return tuple(map(tuple, ldiv)), tuple(map(tuple, rdiv))


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
    chain of that size, every embedding of B and every embedding of C,
    matched on A.  Shares no search code with the bounded engine.
    ``flags`` may ask for k-potent or divisible chains only; they are
    filtered here, with their definitions read off the product table."""
    from reslat import ChainFlags, enumerate_chains
    from reslat.amalgamation import find_embeddings

    flags = flags or ChainFlags()
    assert not (flags.integral or flags.commutative or flags.pointed), "only k_potent and divisible are filtered"
    for d in enumerate_chains(m, ChainFlags()):
        if flags.k_potent is not None and not _has_equal_powers(d.product, flags.k_potent):
            continue
        if flags.divisible and not _divides(d.product):
            continue
        on_a = {tuple(h[b] for b in vf.i) for h in find_embeddings(vf.B, d)}
        if on_a and any(tuple(k[c] for c in vf.j) in on_a for k in find_embeddings(vf.C, d)):
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


def naive_leaf_check(problem, table):
    """Whether a complete product table (a list of rows) is a chain that
    solves ``problem``: the unit's and the zero's rows and columns, both
    monotonicity laws cell by cell, associativity row by row, every product
    pin, every division pin as the greatest s with x*s <= z (s*y <= z) and
    the class.  The unit and 0 associate with anything once the checks
    before associativity hold."""
    t, m, u = table, problem.size, problem.unit
    rng = range(m)
    for x in rng:
        if t[u][x] != x or t[x][u] != x:
            return False
    if m > 1:
        for x in rng:
            if t[x][0] != 0 or t[0][x] != 0:
                return False
    for x in rng:
        for y in rng:
            if x and t[x][y] < t[x - 1][y]:
                return False
            if y and t[x][y] < t[x][y - 1]:
                return False
    inner = [z for z in range(1, m) if z != u]
    for x in inner:
        for y in inner:
            if t[t[x][y]] != [t[x][w] for w in t[y]]:
                return False
    for (x, y), v in problem.product_pins.items():
        if t[x][y] != v:
            return False
    for (x, z), d in problem.ldiv_pins.items():
        if max(s for s in rng if t[x][s] <= z) != d:
            return False
    for (y, z), d in problem.rdiv_pins.items():
        if max(s for s in rng if t[s][y] <= z) != d:
            return False
    return problem.flags.admits(t, u)


def naive_placements(vf, m, flags):
    """Every pair (hpos, kpos) of increasing position tuples of B and C in a
    chain of size m that agrees on A, with the units at the top when
    ``flags.integral`` and the zeros at 0 when ``flags.pointed``, in
    lexicographic order.  It filters the product of all position tuples,
    joining the two sides on the positions they give A."""
    B, C, i, j = vf.B, vf.C, vf.i, vf.j

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


def rpn_eval(alg: FiniteRL, term, env, lattice=None):
    """Second evaluator: compile to postfix, run a stack machine.
    ``lattice`` is the pair of meet and join tables, built here if not given."""
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
    mt, jt = lattice if lattice is not None else (meet_table(alg), join_table(alg))
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


def naive_check_identity(alg: FiniteRL, ident) -> IdentityResult:
    """``check_identity`` from its definition: every assignment in
    ``itertools.product`` order, each term by :func:`rpn_eval`, stopping at
    the first that fails.  The lattice tables are built once per check."""
    variables = ident.variables()
    lattice = meet_table(alg), join_table(alg)
    for assignment in itertools.product(range(alg.size), repeat=len(variables)):
        env = dict(zip(variables, assignment))
        values = [rpn_eval(alg, t, env, lattice) for t in ident.terms]
        if ident.relation == "GEQ":
            ok = alg.le(values[1], values[0])
        else:
            ok = len(set(values)) == 1
        if not ok:
            where = "".join(f"{v}={alg.labels[x]}, " for v, x in env.items())
            sides = " , ".join(alg.labels[v] for v in values)
            detail = f"{where[:-2]}: values {sides}" if where else f"values {sides}"
            return IdentityResult(False, variables, assignment, detail)
    return IdentityResult(True, variables)


def naive_find_obstruction(vf):
    """The least W1-W3 witness by a blind scan of every (a, b, c, u1, u2,
    side) in product order, LEFT before RIGHT, each clause read straight
    from the tables."""
    from reslat import ObstructionWitness

    A, B, C, i, j = vf.A, vf.B, vf.C, vf.i, vf.j
    sides = ("LEFT", "RIGHT")
    for a, b, c, u1, u2, side in itertools.product(
        range(A.size), range(B.size), range(C.size), range(A.size), range(A.size), sides
    ):
        if b in i or c in j:
            continue
        if side == "LEFT":
            pb, pc = B.product[i[a]][b], C.product[j[a]][c]
        else:
            pb, pc = B.product[b][i[a]], C.product[c][j[a]]
        w1 = pb == b and pc != c
        w2 = C.le(C.product[c][c], j[u1]) and B.le(B.ldiv[b][i[u1]], b)
        w3 = B.le(B.product[b][b], i[u2]) and C.le(C.ldiv[c][j[u2]], c)
        if w1 and w2 and w3:
            return ObstructionWitness(a, b, c, u1, u2, side)
    return None


def naive_pins(vf, hpos, kpos):
    """The product, ldiv and rdiv pins that h and k force, one dict each,
    keyed by pairs of positions (or ranks) of D: every cell of B's and
    C's tables, B's first, read through ``hpos`` and ``kpos``.  ``None``
    when two cells pin one pair to different values."""
    pins = ({}, {}, {})
    for alg, pos in ((vf.B, hpos), (vf.C, kpos)):
        for x, y in itertools.product(range(alg.size), repeat=2):
            for found, table in zip(pins, (alg.product, alg.ldiv, alg.rdiv)):
                key, value = (pos[x], pos[y]), pos[table[x][y]]
                if found.get(key, value) != value:
                    return None
                found[key] = value
    return pins


def naive_type_refuted(vf, htype, ktype, flags):
    """Whether the slot intervals refute the order type ``(htype, ktype)``,
    by full passes of every rule until nothing moves, as
    ``amalgamation._type_pins`` decides it without returning early.  The
    result names where an interval was first empty: ``"pin conflict"``,
    ``"init"`` (the exact and division bounds), ``"sweep"`` (monotonicity)
    or ``"rules"`` (commutativity and associativity); ``None`` when the
    type survives."""
    pins = naive_pins(vf, htype, ktype)
    if pins is None:
        return "pin conflict"
    product_pins, ldiv_pins, rdiv_pins = pins
    t = max(htype + ktype) + 1
    lo, hi = [0] * (t * t), [2 * t] * (t * t)
    exact = [(x * t + y, v) for (x, y), v in product_pins.items()]
    u = htype[vf.B.unit]
    exact += [(c, y) for y in range(t) for c in (u * t + y, y * t + u)]
    for c, v in exact:
        lo[c], hi[c] = max(lo[c], 2 * v + 1), min(hi[c], 2 * v + 1)
    for division, cell in ((ldiv_pins, lambda x, s: x * t + s), (rdiv_pins, lambda y, s: s * t + y)):
        for (x, z), d in division.items():
            hi[cell(x, d)] = min(hi[cell(x, d)], 2 * z + 1)
            for s in range(d + 1, t):
                lo[cell(x, s)] = max(lo[cell(x, s)], 2 * z + 2)
    cells = range(t * t)

    def empty():
        return any(lo[c] > hi[c] for c in cells)

    stage = "init" if empty() else None
    changed = True
    while changed:
        before = lo + hi
        for c in cells:
            x, y = divmod(c, t)
            if x:
                lo[c] = max(lo[c], lo[c - t])
            if y:
                lo[c] = max(lo[c], lo[c - 1])
        for c in reversed(cells):
            x, y = divmod(c, t)
            if x < t - 1:
                hi[c] = min(hi[c], hi[c + t])
            if y < t - 1:
                hi[c] = min(hi[c], hi[c + 1])
        stage = stage or ("sweep" if empty() else None)
        equal = []
        if flags.commutative:
            equal += [(c, (c % t) * t + c // t) for c in cells]
        point = [lo[c] // 2 if lo[c] == hi[c] and lo[c] % 2 else -1 for c in cells]
        for c in cells:
            if point[c] >= 0:
                x, y = divmod(c, t)
                equal += [(point[c] * t + z, x * t + point[y * t + z]) for z in range(t) if point[y * t + z] >= 0]
        for a, b in equal:
            lo[a] = lo[b] = max(lo[a], lo[b])
            hi[a] = hi[b] = min(hi[a], hi[b])
        if empty():
            return stage or "rules"
        changed = lo + hi != before
    return None
