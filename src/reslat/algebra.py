"""Finite residuated lattices represented as operation tables.

Elements are integers ``0 .. n-1``.  An algebra ordered by index
(``0 < 1 < ... < n-1``) stores the ``CHAIN`` order marker, however its order
was given; every other lattice carries an explicit ``leq`` table.  All
structures are immutable after construction and every operation in this
module is a pure function.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

CHAIN = "chain"

#: The three flags that make a table a residuated lattice.
RL_FLAGS = ("lattice", "monoid", "residuation")

#: The flags of a partial integral residuated lattice, checked where defined.
PARTIAL_IRL_FLAGS = ("lattice", "monoid", "residuation", "integral")


class ReslatError(Exception):
    """Base class for all workbench errors."""


class FormatError(ReslatError):
    """Malformed tables, labels, documents, or indices."""


class PreconditionError(ReslatError):
    """A construction was called on inputs outside its contract."""


class UnsupportedError(ReslatError):
    """The operation is not defined for this kind of algebra."""


class UnsupportedSymbolError(ReslatError):
    """An identity uses a symbol the target algebra cannot interpret."""


class NotResiduatedError(ReslatError):
    """A product table has no residuals; ``pair`` is the offending (x, z)."""

    def __init__(self, pair):
        super().__init__(f"no residual exists for pair {pair}")
        self.pair = pair


class BudgetExceededError(ReslatError):
    """A bounded search ran out of its node budget."""

    def __init__(self, nodes):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


class FiniteRL(NamedTuple):
    """A finite residuated lattice (or candidate: validity is checked lazily).

    ``leq`` is ``None`` exactly for chains in index order, otherwise an
    ``n x n`` boolean table.  ``ldiv[x][z] = x\\z`` and ``rdiv[x][z] = z/x``.
    ``zero`` is the optional pointed constant.  ``masks`` is ``None`` for a
    total algebra; a partial one carries the (product, ldiv, rdiv)
    definedness tables, read through :func:`definedness`.
    """

    size: int
    labels: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...] | None
    unit: int
    product: tuple[tuple[int, ...], ...]
    ldiv: tuple[tuple[int, ...], ...]
    rdiv: tuple[tuple[int, ...], ...]
    zero: int | None = None
    name: str = ""
    masks: tuple[tuple[tuple[bool, ...], ...], ...] | None = None

    @property
    def is_chain_order(self) -> bool:
        return self.leq is None

    def le(self, x: int, y: int) -> bool:
        if self.leq is None:
            return x <= y
        return self.leq[x][y]

    def __repr__(self):  # keep pytest output short
        return f"FiniteRL({self.name or 'unnamed'}, size={self.size})"


class CheckOutcome(NamedTuple):
    flag: str
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __str__(self):
        if self.ok:
            return f"{self.flag}: ok"
        where = f" at {self.witness}" if self.witness is not None else ""
        tail = f" ({self.detail})" if self.detail else ""
        return f"{self.flag}: FAIL{where}{tail}"


class ValidationReport(NamedTuple):
    subject: str
    checks: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def outcome(self, flag: str) -> CheckOutcome:
        for c in self.checks:
            if c.flag == flag:
                return c
        raise KeyError(flag)

    def first_failure(self) -> CheckOutcome | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def __str__(self):
        head = f"{self.subject}: {'pass' if self.ok else 'FAIL'}"
        return "\n".join([head] + [f"  {c}" for c in self.checks])


class CongruenceFilter(NamedTuple):
    parent: FiniteRL
    members: frozenset[int]

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __repr__(self):
        return f"CongruenceFilter({sorted(self.members)})"


# ---------------------------------------------------------------------------
# table construction helpers


def _as_index(v, n, what):
    if type(v) is not int or not 0 <= v < n:  # bool is no index
        raise FormatError(f"{what} {v!r} out of range 0..{n - 1}")
    return v


def _check_square(table, n, what):
    if not isinstance(table, (list, tuple)) or len(table) != n or any(
        not isinstance(row, (list, tuple)) or len(row) != n for row in table
    ):
        raise FormatError(f"{what} must be {n}x{n}")


def _as_bool_table(table, n, what):
    _check_square(table, n, what)
    if any(not isinstance(v, int) or v not in (0, 1) for row in table for v in row):
        raise FormatError(f"{what} entries must be 0 or 1")
    return tuple(tuple(bool(v) for v in row) for row in table)


def _as_int_table(table, n, what):
    _check_square(table, n, what)
    for row in table:
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise FormatError(f"{what} entry {v!r} out of range 0..{n - 1}")
    return tuple(map(tuple, table))


def _as_name(name):
    if not isinstance(name, str):
        raise FormatError("name must be a string")
    return name


def _default_labels(n):
    return tuple(f"e{i}" for i in range(n))


def _as_labels(labels, n):
    if not isinstance(labels, (list, tuple)) or not all(isinstance(lab, str) for lab in labels):
        raise FormatError("labels must be a list of strings")
    if len(labels) != n:
        raise FormatError("labels length must equal size")
    if len(set(labels)) != n:
        raise FormatError("labels must be distinct")
    return tuple(labels)


def make_algebra(
    *,
    product,
    unit,
    order=CHAIN,
    labels=None,
    ldiv=None,
    rdiv=None,
    zero=None,
    name="",
    masks=None,
) -> FiniteRL:
    """Build a :class:`FiniteRL`, deriving divisions when not supplied.

    ``order`` is ``CHAIN`` or a 0/1 table; a table equal to the index order
    is stored as ``CHAIN``, so each order has one representation.
    ``masks``, when given, is the (product, ldiv, rdiv) triple of
    definedness tables of a partial algebra, which must carry explicit
    divisions.  Raises :class:`FormatError` for malformed shapes and
    :class:`NotResiduatedError` when divisions must be derived but do not
    exist.
    """
    if not isinstance(product, (list, tuple)) or not product:
        raise FormatError("product must be a non-empty table: algebras have at least one element")
    n = len(product)
    product = _as_int_table(product, n, "product")
    leq = None if order == CHAIN else _as_bool_table(order, n, "order")
    if leq is not None and all(leq[x][y] == (x <= y) for x in range(n) for y in range(n)):
        leq = None
    labels = _default_labels(n) if labels is None else _as_labels(labels, n)
    name = _as_name(name)
    unit = _as_index(unit, n, "unit index")
    if zero is not None:
        zero = _as_index(zero, n, "zero index")
    if masks is not None and (ldiv is None or rdiv is None):
        raise FormatError("partial algebras must carry explicit divisions")
    if (ldiv is None) != (rdiv is None):
        raise FormatError("supply both divisions or neither")
    if ldiv is None:
        ldiv, rdiv = residuals_from_product(CHAIN if leq is None else leq, product)
    ldiv = _as_int_table(ldiv, n, "ldiv")
    rdiv = _as_int_table(rdiv, n, "rdiv")
    if masks is not None:
        if not isinstance(masks, (list, tuple)) or len(masks) != 3:
            raise FormatError("masks must be the product, ldiv and rdiv tables")
        masks = tuple(_as_bool_table(t, n, f"{op} mask") for op, t in zip(("product", "ldiv", "rdiv"), masks))
    return FiniteRL(
        size=n,
        labels=labels,
        leq=leq,
        unit=unit,
        product=product,
        ldiv=ldiv,
        rdiv=rdiv,
        zero=zero,
        name=name,
        masks=masks,
    )


def definedness(alg: FiniteRL):
    """The (product, ldiv, rdiv) definedness tables; all true when total."""
    if alg.masks is not None:
        return alg.masks
    full = ((True,) * alg.size,) * alg.size
    return full, full, full


def with_zero(alg: FiniteRL, zero: int | None) -> FiniteRL:
    """Designate an element as the pointed constant 0, or drop it with ``None``."""
    if zero is not None:
        _as_index(zero, alg.size, "zero index")
    return alg._replace(zero=zero)


def relabel(alg: FiniteRL, labels, name=None) -> FiniteRL:
    """The algebra with new labels and name, checked as ``make_algebra`` checks them."""
    return alg._replace(labels=_as_labels(labels, alg.size), name=alg.name if name is None else _as_name(name))


# ---------------------------------------------------------------------------
# order utilities


def _lub(alg, x: int, y: int) -> int | None:
    """Least upper bound in the stored order, or None if it does not exist."""
    if alg.leq is None:
        return max(x, y)
    ubs = [z for z in range(alg.size) if alg.leq[x][z] and alg.leq[y][z]]
    for m in ubs:
        if all(alg.leq[m][z] for z in ubs):
            return m
    return None


def _glb(alg, x: int, y: int) -> int | None:
    if alg.leq is None:
        return min(x, y)
    lbs = [z for z in range(alg.size) if alg.leq[z][x] and alg.leq[z][y]]
    for m in lbs:
        if all(alg.leq[z][m] for z in lbs):
            return m
    return None


def _bound_table(alg, bound, what) -> tuple[tuple[int, ...], ...]:
    rows = []
    for x in range(alg.size):
        row = []
        for y in range(alg.size):
            m = bound(alg, x, y)
            if m is None:
                raise FormatError(f"order has no {what} for pair ({x}, {y})")
            row.append(m)
        rows.append(tuple(row))
    return tuple(rows)


def meet_table(alg) -> tuple[tuple[int, ...], ...]:
    if alg.leq is None:  # row x of min: 0 .. x-1, then x
        n = alg.size
        return tuple((*range(x), *(x,) * (n - x)) for x in range(n))
    return _bound_table(alg, _glb, "meet")


def join_table(alg) -> tuple[tuple[int, ...], ...]:
    if alg.leq is None:  # row x of max: x, then x+1 .. n-1
        n = alg.size
        return tuple((*(x,) * (x + 1), *range(x + 1, n)) for x in range(n))
    return _bound_table(alg, _lub, "join")


class OperationTables(NamedTuple):
    product: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    ldiv: tuple[tuple[int, ...], ...]
    rdiv: tuple[tuple[int, ...], ...]


def operation_tables(alg) -> OperationTables:
    """The five binary operation tables.  The lattice tables are built on
    each call and nothing is kept, so fetch them once per computation."""
    return OperationTables(alg.product, meet_table(alg), join_table(alg), alg.ldiv, alg.rdiv)


# ---------------------------------------------------------------------------
# residuals


def residuals_from_product(order, product):
    """Derive ``(ldiv, rdiv)`` from a product table.

    ``ldiv[x][z]`` is the maximum ``y`` with ``x*y <= z``; ``rdiv[y][z]``
    the maximum ``x`` with ``x*y <= z``.  Raises :class:`NotResiduatedError`
    with the least pair whose candidate set has no maximum.  On ``CHAIN``
    each row of ``ldiv`` is read off one product row, and each row of
    ``rdiv`` off one product column.
    """
    if order == CHAIN:
        return _chain_residuals(product), _chain_residuals(list(zip(*product)))
    n = len(product)

    def greatest(candidates, pair):
        if not candidates:
            raise NotResiduatedError(pair)
        top = candidates[0]
        for c in candidates[1:]:
            if order[top][c]:
                top = c
        if all(order[c][top] for c in candidates):
            return top
        raise NotResiduatedError(pair)

    ldiv = [[0] * n for _ in range(n)]
    rdiv = [[0] * n for _ in range(n)]
    for x in range(n):
        for z in range(n):
            ldiv[x][z] = greatest([y for y in range(n) if order[product[x][y]][z]], (x, z))
    for y in range(n):
        for z in range(n):
            rdiv[y][z] = greatest([x for x in range(n) if order[product[x][y]][z]], (y, z))
    return tuple(map(tuple, ldiv)), tuple(map(tuple, rdiv))


def _chain_residuals(lines):
    """Row x holds ``max{y : lines[x][y] <= z}`` at each z, the running
    maximum of the largest y holding each value.  A set that is empty is
    empty at z = 0, so a row that has one raises with the pair (x, 0)."""
    out = []
    for x, line in enumerate(lines):
        top = [-1] * len(line)
        for y, v in enumerate(line):
            top[v] = y
        out.append(tuple(itertools.accumulate(top, max)))
        if out[-1][0] < 0:
            raise NotResiduatedError((x, 0))
    return tuple(out)


# ---------------------------------------------------------------------------
# validation


def _check_lattice(alg):
    if alg.leq is None:
        return CheckOutcome("lattice", True)
    n = alg.size
    leq = alg.leq
    for x in range(n):
        if not leq[x][x]:
            return CheckOutcome("lattice", False, (x,), "order not reflexive")
    for x in range(n):
        for y in range(n):
            if x != y and leq[x][y] and leq[y][x]:
                return CheckOutcome("lattice", False, (x, y), "order not antisymmetric")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if leq[x][y] and leq[y][z] and not leq[x][z]:
                    return CheckOutcome("lattice", False, (x, y, z), "order not transitive")
    for x in range(n):
        for y in range(n):
            if _glb(alg, x, y) is None:
                return CheckOutcome("lattice", False, (x, y), "pair has no meet")
            if _lub(alg, x, y) is None:
                return CheckOutcome("lattice", False, (x, y), "pair has no join")
    return CheckOutcome("lattice", True)


def _byte_rows(table):
    """The rows of a table of at most 256 elements as ``bytes``, and each
    padded to the 256-byte table of ``bytes.translate``."""
    rows = [bytes(row) for row in table]
    pad = bytes(256 - len(rows))
    return rows, [row + pad for row in rows]


def _first_difference(*rows):
    """The least index at which the rows disagree."""
    return next(z for z, cells in enumerate(zip(*rows)) if len(set(cells)) > 1)


def _check_monoid(alg):
    n, p, e = alg.size, alg.product, alg.unit
    pm = definedness(alg)[0]
    for x in range(n):
        if not (pm[e][x] and pm[x][e]) or p[e][x] != x or p[x][e] != x:
            return CheckOutcome("monoid", False, (x,), "unit law fails")
    if alg.masks is None and n <= 256:  # (x*y)*z against x*(y*z), one row of z at a time
        rows, through = _byte_rows(p)
        for x in range(n):
            for y, xy in enumerate(p[x]):
                left, right = rows[xy], rows[y].translate(through[x])
                if left != right:
                    return CheckOutcome("monoid", False, (x, y, _first_difference(left, right)), "associativity fails")
        return CheckOutcome("monoid", True)
    for x in range(n):
        px, pmx = p[x], pm[x]
        for y in range(n):
            py, pmy, pxy, pmxy = p[y], pm[y], p[px[y]], pm[px[y]]
            for z in range(n):
                left = pmx[y] and pmxy[z]
                if left != (pmy[z] and pmx[py[z]]):
                    return CheckOutcome("monoid", False, (x, y, z), "only one bracketing is defined")
                if left and pxy[z] != px[py[z]]:
                    return CheckOutcome("monoid", False, (x, y, z), "associativity fails")
    return CheckOutcome("monoid", True)


def _check_residuation(alg):
    n, p, ld, rd = alg.size, alg.product, alg.ldiv, alg.rdiv
    le = alg.le
    if alg.masks is None and n <= 256:  # row z of x*y <= z, of y <= x\\z and of x <= z/y
        order = [bytes(v) + b"\1" * (n - v) for v in range(n)] if alg.leq is None else alg.leq
        above, through = _byte_rows(order)  # above[v][z] = (v <= z)
        ld, rd = list(map(bytes, ld)), list(map(bytes, rd))
        for x, ldx in enumerate(ld):
            for y, xy in enumerate(p[x]):
                a, b, c = above[xy], ldx.translate(through[y]), rd[y].translate(through[x])
                if a != b or b != c:
                    z = _first_difference(a, b, c)
                    return CheckOutcome("residuation", False, (x, y, z), "x*y <= z <=> y <= x\\z <=> x <= z/y fails")
        return CheckOutcome("residuation", True)
    pm, lm, rm = definedness(alg)
    for x in range(n):
        for y in range(n):
            if not pm[x][y]:
                continue
            xy, ldx, lmx, rdy, rmy = p[x][y], ld[x], lm[x], rd[y], rm[y]
            for z in range(n):
                if not (lmx[z] and rmy[z]):
                    continue
                a = le(xy, z)
                b = le(y, ldx[z])
                c = le(x, rdy[z])
                if a != b or b != c:
                    return CheckOutcome("residuation", False, (x, y, z), "x*y <= z <=> y <= x\\z <=> x <= z/y fails")
    if alg.masks is None:
        # Residuation of total operations already makes the product monotone
        # and the divisions monotone in the numerator and antitone in the
        # denominator.  Skipping the clauses below keeps every total report as
        # it is, also over an order that is not transitive.
        return CheckOutcome("residuation", True)
    for x in range(n):
        for y in range(n):
            if not le(x, y):
                continue
            for z in range(n):
                if (pm[x][z] and pm[y][z] and not le(p[x][z], p[y][z])) or (
                    pm[z][x] and pm[z][y] and not le(p[z][x], p[z][y])
                ):
                    return CheckOutcome("residuation", False, (x, y, z), "product not monotone")
                if (
                    (lm[z][x] and lm[z][y] and not le(ld[z][x], ld[z][y]))
                    or (lm[y][z] and lm[x][z] and not le(ld[y][z], ld[x][z]))
                    or (rm[x][z] and rm[y][z] and not le(rd[y][z], rd[x][z]))
                    or (rm[z][x] and rm[z][y] and not le(rd[z][x], rd[z][y]))
                ):
                    return CheckOutcome("residuation", False, (x, y, z), "division not monotone")
    return CheckOutcome("residuation", True)


def _check_integral(alg):
    for x in range(alg.size):
        if not alg.le(x, alg.unit):
            return CheckOutcome("integral", False, (x,), "element above the unit")
    return CheckOutcome("integral", True)


def _check_commutative(alg):
    pm = definedness(alg)[0]
    for x in range(alg.size):
        for y in range(alg.size):
            if pm[x][y] != pm[y][x] or (pm[x][y] and alg.product[x][y] != alg.product[y][x]):
                return CheckOutcome("commutative", False, (x, y), "product not symmetric")
    return CheckOutcome("commutative", True)


def _check_chain(alg):
    if alg.leq is None:
        return CheckOutcome("chain", True)
    for x in range(alg.size):
        for y in range(alg.size):
            if not alg.leq[x][y] and not alg.leq[y][x]:
                return CheckOutcome("chain", False, (x, y), "incomparable pair")
    return CheckOutcome("chain", True)


def _check_zero_bounded(alg):
    if alg.zero is None:
        return CheckOutcome("zero-bounded", False, None, "no zero constant")
    for x in range(alg.size):
        if not alg.le(alg.zero, x):
            return CheckOutcome("zero-bounded", False, (x,), "zero is not the bottom")
    return CheckOutcome("zero-bounded", True)


_FLAG_CHECKS = {
    "lattice": _check_lattice,
    "monoid": _check_monoid,
    "residuation": _check_residuation,
    "integral": _check_integral,
    "commutative": _check_commutative,
    "chain": _check_chain,
    "zero-bounded": _check_zero_bounded,
}

#: Flags understood by :func:`validate`, in canonical checking order.
VALIDATE_FLAGS = tuple(_FLAG_CHECKS)


def validate(alg: FiniteRL, required=RL_FLAGS) -> ValidationReport:
    """Check the requested flags, reporting the least counterexample each.

    A partial algebra is checked where its operations are defined, and its
    two bracketings of a product must be defined together."""
    required = list(required)
    for f in required:
        if f not in _FLAG_CHECKS:
            raise FormatError(f"unknown validation flag {f!r}")
    checks = []
    for flag in VALIDATE_FLAGS:
        if flag in required:
            checks.append(_FLAG_CHECKS[flag](alg))
    return ValidationReport(alg.name or "algebra", tuple(checks))


# ---------------------------------------------------------------------------
# congruence filters, congruences, quotients


def _filter_closure(alg: FiniteRL, seed) -> frozenset[int]:
    """Least congruence filter containing ``seed``: the members' up-set,
    their products and each y\\(x*y) and (y*x)/y.  A round expands only
    the elements the round before added."""
    n, p, ld, rd, leq = alg.size, alg.product, alg.ldiv, alg.rdiv, alg.leq
    members, todo = set(), set(seed) | {alg.unit}
    while todo:
        members |= todo
        if leq is None:
            new = set(range(min(members), n))
        else:
            new = {y for x in todo for y in itertools.compress(range(n), leq[x])}
        for x in todo:
            px = p[x]
            for y in members:
                new.add(px[y])
                new.add(p[y][x])
            for y in range(n):
                new.add(ld[y][px[y]])
                new.add(rd[y][p[y][x]])
        todo = new - members
    return frozenset(members)


def congruence_filters(alg: FiniteRL) -> list[CongruenceFilter]:
    """All congruence filters, by breadth-first closure of added generators.

    Sorted by size, then lexicographically on the sorted member tuples.
    """
    least = _filter_closure(alg, ())
    found = {least}
    frontier = [least]
    while frontier:
        current = frontier.pop()
        for x in range(alg.size):
            if x in current:
                continue
            bigger = _filter_closure(alg, current | {x})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    ordered = sorted(found, key=lambda f: (len(f), tuple(sorted(f))))
    return [CongruenceFilter(alg, f) for f in ordered]


def filter_to_congruence(F: CongruenceFilter) -> tuple[tuple[int, ...], ...]:
    """Partition induced by ``x ~ y iff x\\y and y\\x in F``.

    For a congruence filter this relation is already an equivalence, so each
    x joins the block of the least y related to it."""
    alg, members = F.parent, F.members
    blocks = {}
    for x in range(alg.size):
        least = next(y for y in range(x + 1) if alg.ldiv[x][y] in members and alg.ldiv[y][x] in members)
        blocks.setdefault(least, []).append(x)
    return tuple(map(tuple, blocks.values()))


def quotient(F: CongruenceFilter) -> tuple[FiniteRL, tuple[int, ...]]:
    """Quotient of ``F.parent`` on the blocks of the induced congruence, with
    the quotient map: each element goes to the block that holds it."""
    alg, blocks = F.parent, filter_to_congruence(F)
    block_of = [0] * alg.size
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x] = i
    reps = [b[0] for b in blocks]
    m = len(blocks)
    product = [[block_of[alg.product[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    mt = meet_table(alg)
    order = [[block_of[mt[reps[i]][reps[j]]] == i for j in range(m)] for i in range(m)]
    labels = tuple("|".join(alg.labels[x] for x in b) for b in blocks)
    q = make_algebra(
        product=product,
        unit=block_of[alg.unit],
        order=order,
        labels=labels,
        zero=None if alg.zero is None else block_of[alg.zero],
        name=f"{alg.name}/{sorted(F.members)}" if alg.name else "",
    )
    return q, tuple(block_of)


# ---------------------------------------------------------------------------
# morphisms: a map from dom to cod is the tuple of its images, f[x] for x in dom


def map_fault(dom: FiniteRL, cod: FiniteRL, f: tuple[int, ...]) -> str:
    """Why ``f`` is no index map from ``dom`` into ``cod``, or ``""``."""
    if len(f) != dom.size:
        return f"map of length {len(f)} on {dom.size} elements"
    outside = [v for v in f if type(v) is not int or not 0 <= v < cod.size]  # bool is no index
    return f"image {outside[0]!r} out of range 0..{cod.size - 1}" if outside else ""


def validate_morphism(dom: FiniteRL, cod: FiniteRL, f: tuple[int, ...], injective: bool = False) -> ValidationReport:
    """Preservation of all operations and constants by the index map ``f``;
    injectivity too when ``injective``, for an embedding."""
    fault = map_fault(dom, cod, f)
    checks = [CheckOutcome("format", not fault, None, fault)]
    if fault:
        return ValidationReport("morphism", tuple(checks))

    checks.append(CheckOutcome("unit", f[dom.unit] == cod.unit, (dom.unit,) if f[dom.unit] != cod.unit else None))
    if dom.zero is not None and cod.zero is not None:
        checks.append(CheckOutcome("zero", f[dom.zero] == cod.zero))

    for opname, dt, ct in zip(OperationTables._fields, operation_tables(dom), operation_tables(cod)):
        witness = None
        for x in range(dom.size):
            for y in range(dom.size):
                if f[dt[x][y]] != ct[f[x]][f[y]]:
                    witness = (x, y)
                    break
            if witness:
                break
        checks.append(CheckOutcome(opname, witness is None, witness))

    if injective:
        inj = len(set(f)) == len(f)
        checks.append(CheckOutcome("injective", inj, None, "" if inj else "two elements share an image"))
    return ValidationReport("morphism", tuple(checks))


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """Index map of ``outer . inner``."""
    return tuple(outer[v] for v in inner)


def tables_equal(a: FiniteRL, b: FiniteRL) -> bool:
    """Structural equality: everything except names and labels, masks
    included.  Compare unpointed reducts by dropping the constant first
    with ``with_zero(alg, None)``."""
    return (
        a.size == b.size
        and a.leq == b.leq
        and a.unit == b.unit
        and a.product == b.product
        and a.ldiv == b.ldiv
        and a.rdiv == b.rdiv
        and a.zero == b.zero
        and a.masks == b.masks
    )
