"""Constraint-propagation completion of residuated-chain product tables.

The engine fills an ``m x m`` product table over the index chain
``0 < 1 < ... < m-1`` so that the result is a residuated chain: associative,
monotone in both arguments, with the given unit and with ``x*0 = 0*x = 0``
(on a finite chain that annihilation is exactly what makes both residuals
exist).  Cells may be pinned in advance, and division pins of the form
``x \\ z = d`` or ``z / y = d`` are enforced as exact residual values.

Candidate sets are bitmasks.  Propagation is deliberately limited to four
rules (monotonicity against fixed cells, associativity instances whose two
inner products are fixed, residual-pin consistency, unit laws); every
complete assignment is re-verified before it is reported, as one ``bytes``
of ``m*m`` cells checked with byte-string operations (monotonicity as two
subtractions on the cells widened to 16-bit lanes of one integer), so the
pruning rules only ever need to be sound, not complete.  The class of chains,
``ChainFlags``, is applied the same way: commutativity propagates, and
``ChainFlags.admits`` decides each complete table.

Propagation is incremental.  A cell whose candidate set shrinks to a
singleton is queued as it shrinks; ``propagate`` fixes the queued cells in
passes, each pass in ascending cell order, and the singletons a pass creates
wait for the next pass.  A branch fixes its own cell at once, without
queueing it (in a commutative class its mirror is queued as it narrows), and
propagation runs after a branch only when something was queued.  Fixing
``x*y = v`` bounds only the unfixed cells in its monotonicity cones
(``a*b >= v`` for ``a >= x, b >= y`` and ``a*b <= v`` for ``a <= x,
b <= y``; a fixed cell applied its own cones, which contain ``(x, y)``, so
it is inside the bound already), and a division pin bounds only the cells
on its ray; cells already inside a bound are skipped.  The search is one
loop over an explicit stack of open nodes; each node keeps a copy of its
candidate sets and values, and every branch after its first starts from
that copy, restored in place.  The associativity rule is applied once per
fixed cell against the cells fixed before it, so its outcome depends on the
order in which cells are fixed, and that order is part of the engine's
contract: node counts and the order of solutions depend on it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .algebra import BudgetExceededError, FormatError, make_algebra


class _ChainFlagFields(NamedTuple):
    integral: bool = False
    commutative: bool = False
    k_potent: int | None = None
    divisible: bool = False
    pointed: bool = False


class ChainFlags(_ChainFlagFields):
    """A class of residuated chains: the chains that ``enumerate_chains``
    lists, that an amalgam D is searched in, and that the engine completes
    to.  ``k_potent`` selects the chains with ``x^(k+1) = x^k``.  The
    flags are given by keyword, and ``_replace`` checks them again."""

    __slots__ = ()

    def __new__(cls, **flags):
        k = flags.get("k_potent")
        if k is not None and (type(k) is not int or k < 1):  # bool is no count
            raise FormatError(f"k_potent must be an integer of at least 1, not {k!r}")
        return super().__new__(cls, **flags)

    def _replace(self, **changes) -> ChainFlags:
        return ChainFlags(**self._asdict() | changes)

    def __getnewargs_ex__(self):  # copy and pickle pass the flags by keyword
        return (), self._asdict()

    def admits(self, table, unit) -> bool:
        """Whether the chain with this product table, in index order, and
        this unit lies in the class; ``pointed`` asks nothing of a table."""
        integral, commutative, k, divisible, _ = self
        n = len(table)
        rng = range(n)
        if integral and unit != n - 1:
            return False
        if commutative and list(zip(*table)) != list(map(tuple, table)):
            return False
        # on a chain the powers of x are monotone, so x^n = x^(n+1) and any k >= n holds
        if k is not None and k < n:
            for x in rng:
                p = x
                for _ in range(k - 1):
                    p = table[p][x]
                if table[p][x] != p:
                    return False
        if divisible:
            # row x rises from x*0 = 0, so x*(x\y) is its largest entry <= y, and
            # x*(x\y) = min(x, y) for every y iff the row takes exactly the
            # values 0..x; likewise (y/x)*x and column x
            for x in rng:
                want = set(range(x + 1))
                if set(table[x]) != want or {table[y][x] for y in rng} != want:
                    return False
        return True


# a completed table is checked and reported as one byte per cell
MAX_CHAIN_SIZE = 256

# the default bound on the branching nodes of one search
DEFAULT_BUDGET = 10**8


class CompletionProblem(NamedTuple):
    """A partially pinned product table over an ``m``-element chain, to be
    completed to a chain of the class ``flags``."""

    size: int
    unit: int
    product_pins: dict  # (x, y) -> value
    ldiv_pins: dict  # (x, z) -> d, meaning x \ z = d exactly
    rdiv_pins: dict  # (y, z) -> d, meaning z / y = d exactly
    flags: ChainFlags = ChainFlags()

    def check_well_formed(self):
        m = self.size
        if m < 1:
            raise FormatError("size must be positive")
        if m > MAX_CHAIN_SIZE:
            raise FormatError(f"size must be at most {MAX_CHAIN_SIZE}")
        if not 0 <= self.unit < m:
            raise FormatError("unit out of range")
        if self.flags.integral and self.unit != m - 1:
            raise FormatError("integral problems need the unit on top")
        for (x, y), v in self.product_pins.items():
            if not (0 <= x < m and 0 <= y < m and 0 <= v < m):
                raise FormatError("product pin out of range")
        for pins in (self.ldiv_pins, self.rdiv_pins):
            for (x, z), d in pins.items():
                if not (0 <= x < m and 0 <= z < m and 0 <= d < m):
                    raise FormatError("division pin out of range")


class SearchStats:
    """Counts of the engine, updated in place as it runs."""

    __slots__ = ("nodes", "solutions")

    def __init__(self, nodes: int = 0, solutions: int = 0):
        self.nodes = nodes
        self.solutions = solutions

    def __repr__(self):
        return f"SearchStats(nodes={self.nodes}, solutions={self.solutions})"


def division_cells(ldiv_pins, rdiv_pins, n):
    """The cells of an ``n x n`` row-major table that each division pin
    bounds, as ``(z, at, above)``, the ldiv pins first.  ``x \\ z = d``
    holds exactly when cell ``at`` = (x, d) is ``<= z`` and every cell of
    ``above``, the cells (x, s) with s > d in ascending order, is ``> z``;
    ``z / y = d`` likewise, with ``at`` = (d, y) and the cells (s, y)."""
    for (x, z), d in ldiv_pins.items():
        yield z, x * n + d, range(x * n + d + 1, x * n + n)
    for (y, z), d in rdiv_pins.items():
        yield z, d * n + y, range((d + 1) * n + y, n * n, n)


class _Conflict(Exception):
    pass


def _low_mask(v):
    # candidates <= v
    return (1 << (v + 1)) - 1


@lru_cache(maxsize=None)
def _cone_masks(m):
    """Cell bitmasks of an ``m x m`` table (bit ``x*m + y`` is cell ``(x, y)``):
    rows ``>= x``, rows ``<= x``, columns ``>= y`` and columns ``<= y``, each
    indexed by ``x`` or ``y``.  A monotonicity cone is one row mask and one
    column mask ANDed; the four lists hold ``4 m`` masks of ``m*m`` bits."""
    everything = (1 << (m * m)) - 1
    rows_from = [everything >> (x * m) << (x * m) for x in range(m + 1)]
    every_row = everything // ((1 << m) - 1)  # bit 0 of every row
    cols_from = [every_row * (((1 << m) - 1) >> y << y) for y in range(m + 1)]
    return (
        rows_from[:m],
        [everything ^ r for r in rows_from[1:]],
        cols_from[:m],
        [everything ^ c for c in cols_from[1:]],
    )


@lru_cache(maxsize=None)
def _lane_masks(m):
    """The leaf check's monotonicity masks for an ``m x m`` table whose cells
    are 16-bit lanes of one integer (lane ``x*m + y`` is cell ``(x, y)``):
    bit 15 of every lane, of the lanes with a right neighbour and of the
    lanes with a cell below.  A guard bit exceeds any byte difference, so a
    lane's subtraction never borrows from the next lane."""
    guards = int.from_bytes(b"\x00\x80" * (m * m), "little")
    row_ends = int.from_bytes((b"\x00\x00" * (m - 1) + b"\x00\x80") * m, "little")
    last_row = int.from_bytes(b"\x00\x80" * m, "little") << (16 * m * (m - 1))
    return guards, guards ^ row_ends, guards ^ last_row


class _Engine:
    def __init__(self, problem: CompletionProblem, budget: int, stats: SearchStats):
        problem.check_well_formed()
        self.m = problem.size
        self.p = problem
        self.budget = budget
        self.stats = stats
        # read on every candidate update, where a NamedTuple field is a
        # slower load than an attribute of the engine
        self.commutative = problem.flags.commutative
        m = self.m
        full = (1 << m) - 1
        self.cand = [full] * (m * m)
        self.value = [-1] * (m * m)
        # bit c is set while cell c is unfixed; a fixed cell has applied
        # both of its monotonicity cones, so no later cone needs to visit it
        self.free = (1 << (m * m)) - 1
        self.cones = _cone_masks(m)
        self.lanes = _lane_masks(m)
        # the rows and columns other than the unit's and the zero's
        self.inner = [z for z in range(1, m) if z != problem.unit]
        # cells that became singletons and were not processed yet; on a
        # one-element chain every cell starts out as one
        self.queue: list[int] = [0] if m == 1 else []

    # -- basic cell operations ------------------------------------------------

    def _set_mask(self, cell, mask):
        old = self.cand[cell]
        new = old & mask
        if new == old:
            return
        if new == 0:
            raise _Conflict
        self.cand[cell] = new
        if new & (new - 1) == 0:
            self.queue.append(cell)
        if self.commutative:
            x, y = divmod(cell, self.m)
            mirror = y * self.m + x
            if mirror != cell:
                self._set_mask(mirror, new)

    # -- initial constraints ---------------------------------------------------

    def init_constraints(self):
        m, u = self.m, self.p.unit
        cand, set_mask = self.cand, self._set_mask
        for y in range(m):
            set_mask(u * m + y, 1 << y)
            set_mask(y * m + u, 1 << y)
        if m > 1:
            for x in range(m):
                set_mask(x * m + 0, 1)
                set_mask(0 * m + x, 1)
        # each bound is applied only where it would narrow the candidates
        for (x, y), v in self.p.product_pins.items():
            if cand[x * m + y] != 1 << v:
                set_mask(x * m + y, 1 << v)
        for z, at, above in division_cells(self.p.ldiv_pins, self.p.rdiv_pins, m):
            low = _low_mask(z)
            if cand[at] > low:
                set_mask(at, low)
            for c in above:
                if cand[c] & low:
                    set_mask(c, ~low)

    # -- propagation ------------------------------------------------------------

    def _fix(self, cell, v):
        m, cand, value, set_mask = self.m, self.cand, self.value, self._set_mask
        x, y = divmod(cell, m)
        # fixed here, so never queued; a commutative mirror narrows and is
        cand[cell] = 1 << v
        if self.commutative and x != y:
            set_mask(y * m + x, 1 << v)
        value[cell] = v
        self.free ^= 1 << cell
        rows_from, rows_upto, cols_from, cols_upto = self.cones
        # monotonicity against the newly fixed cell: only the unfixed cells
        # of the cones, in ascending order, and only those that still hold a
        # candidate on the wrong side of v
        below = (1 << v) - 1
        if v > 0:
            ge_mask = ((1 << m) - 1) & ~below
            bits = self.free & rows_from[x] & cols_from[y]
            while bits:
                low = bits & -bits
                bits ^= low
                c = low.bit_length() - 1
                if cand[c] & below:
                    set_mask(c, ge_mask)
        if v < m - 1:
            le_mask = _low_mask(v)
            bits = self.free & rows_upto[x] & cols_upto[y]
            while bits:
                low = bits & -bits
                bits ^= low
                c = low.bit_length() - 1
                if cand[c] > le_mask:
                    set_mask(c, le_mask)
        # associativity instances whose two inner products are fixed: both
        # cells narrow to their common candidates, and a cell already inside
        # them is left alone (equal masks, the same cell included, leave
        # nothing to narrow).  The unit's and the zero's rows and columns
        # hold their singletons from init_constraints, so z or w among them
        # links only equal cells:
        # (v,u) and (x,y) hold v, as do (u,v) and (x,y); (v,0) and (x,0)
        # hold 0, as do (0,y) and (0,v)
        vm, xm, ym = v * m, x * m, y * m
        for z in self.inner:
            w = value[ym + z]
            if w != -1:  # (x*y)*z = x*(y*z)
                a, b = vm + z, xm + w
                ca, cb = cand[a], cand[b]
                if ca != cb:
                    common = ca & cb
                    if ca != common:
                        set_mask(a, common)
                    if cand[b] != common:
                        set_mask(b, common)
        for w in self.inner:
            t = value[w * m + x]
            if t != -1:  # (w*x)*y = w*(x*y)
                a, b = t * m + y, w * m + v
                ca, cb = cand[a], cand[b]
                if ca != cb:
                    common = ca & cb
                    if ca != common:
                        set_mask(a, common)
                    if cand[b] != common:
                        set_mask(b, common)

    def propagate(self):
        """Fix every pending singleton, in passes of ascending cell order;
        singletons a pass creates wait for the next pass."""
        value, cand = self.value, self.cand
        while self.queue:
            pending = sorted(self.queue)
            self.queue = []
            for cell in pending:
                if value[cell] == -1:
                    self._fix(cell, cand[cell].bit_length() - 1)

    # -- backtracking -----------------------------------------------------------

    def _select_cell(self):
        best, best_count = -1, 1 << 30
        cand, bits = self.cand, self.free
        while bits:
            low = bits & -bits
            bits ^= low
            c = low.bit_length() - 1
            k = cand[c].bit_count()
            if k < best_count:
                best, best_count = c, k
                if k == 2:
                    break
        return best

    def solutions(self):
        try:
            self.init_constraints()
            self.propagate()
        except _Conflict:
            return
        yield from self._search()

    def _search(self):
        """The solutions below the current state, depth first over one
        explicit stack.  A frame is an open node: its cell, its candidate
        sets, values and free cells as they were before its first branch,
        its candidates not tried yet (bit 0 is value ``v``) and ``v``, the
        value after the last one tried, 0 before the first.  Each later
        branch starts from the node's state, restored in place."""
        stats, budget = self.stats, self.budget
        cand, value = self.cand, self.value
        stack = []
        while True:
            if self.free:
                cell = self._select_cell()
                stack.append([cell, cand[:], value[:], self.free, cand[cell], 0])
            else:
                cells = bytes(value)
                if self._verify(cells):
                    stats.solutions += 1
                    yield cells
            # the next branch of the deepest node that has one left
            while stack:
                frame = stack[-1]
                cell, saved_cand, saved_value, free, untried, v = frame
                if not untried:
                    stack.pop()
                    continue
                if v:  # a branch of this node ran before
                    cand[:] = saved_cand
                    value[:] = saved_value
                    self.free = free
                step = (untried & -untried).bit_length()
                v += step - 1
                frame[4], frame[5] = untried >> step, v + 1
                stats.nodes += 1
                if stats.nodes > budget:
                    raise BudgetExceededError(stats.nodes)
                try:
                    self._fix(cell, v)
                    if self.queue:
                        self.propagate()
                    break
                except _Conflict:
                    self.queue = []
            else:
                return

    # -- leaf verification --------------------------------------------------------

    def _verify(self, cells):
        m, u = self.m, self.p.unit
        t = [cells[i:i + m] for i in range(0, m * m, m)]
        ident = bytes(range(m))
        if t[u] != ident or cells[u::m] != ident:
            return False
        if m > 1 and (any(t[0]) or any(cells[::m])):
            return False
        # each cell is at most the one to its right and the one below it: a
        # lane of (neighbour | guard) - cell keeps its guard bit iff cell <= neighbour
        wide = bytearray(2 * m * m)
        wide[::2] = cells
        a = int.from_bytes(wide, "little")
        guards, right, down = self.lanes
        if ((a >> 16 | guards) - a) & right != right or ((a >> 16 * m | guards) - a) & down != down:
            return False
        # (x*y)*z = x*(y*z) for all z, as rows: row y mapped through row x;
        # the unit and 0 associate with anything once the checks above hold
        pad = bytes(256 - m)
        for x in self.inner:
            tx, through_x = t[x], t[x] + pad
            for y in self.inner:
                if t[tx[y]] != t[y].translate(through_x):
                    return False
        for (x, y), v in self.p.product_pins.items():
            if cells[x * m + y] != v:
                return False
        for z, at, above in division_cells(self.p.ldiv_pins, self.p.rdiv_pins, m):
            if cells[at] > z or above and cells[above[0]] <= z:
                return False
        return self.p.flags.admits(t, u)


def iter_completions(problem: CompletionProblem, budget: int = DEFAULT_BUDGET, stats: SearchStats | None = None):
    """All completed product tables, in canonical depth-first order, each
    as the engine's ``m*m`` bytes in row-major order.  Raises
    :class:`BudgetExceededError` once ``stats.nodes`` passes ``budget``."""
    stats = stats if stats is not None else SearchStats()
    yield from _Engine(problem, budget, stats).solutions()


# ---------------------------------------------------------------------------
# chain enumeration


# (n, unit, commutative) -> every table of the unpinned search for that key,
# in stream order, each the engine's n*n bytes in row-major order; an entry
# is stored only once its search has run to the end
_CHAINS: dict[tuple[int, int, bool], list[bytes]] = {}


def _unit_stream(n: int, unit: int, commutative: bool):
    """The chains of size ``n`` with this unit, commutative or all of them,
    each as row-major bytes: from the memo, or else from the engine, lazily."""
    key = (n, unit, commutative)
    tables = _CHAINS.get(key)
    if tables is not None:
        yield from tables
        return
    tables = []
    problem = CompletionProblem(n, unit, {}, {}, {}, ChainFlags(commutative=commutative))
    for cells in iter_completions(problem):
        tables.append(cells)
        yield cells
    _CHAINS[key] = tables


def _raw_stream(n: int, flags: ChainFlags):
    """The (unit, product table) pairs of the chains that ``flags`` select,
    in canonical order, each table the engine's row-major bytes.

    ``integral`` only picks the unit, and every flag but ``commutative`` is
    decided on complete tables, so one engine run per ``(n, unit,
    commutative)``, kept in ``_CHAINS``, serves every class.  That run fixed
    the unit, and its leaf check decided commutativity with ``admits``, so
    only ``k_potent`` and ``divisible`` are left to ask."""
    CompletionProblem(n, 0, {}, {}, {}).check_well_formed()  # the size, before any unit
    asked = flags.k_potent is not None or flags.divisible
    rest = ChainFlags(k_potent=flags.k_potent, divisible=flags.divisible)
    for unit in [n - 1] if flags.integral else range(n):
        for cells in _unit_stream(n, unit, flags.commutative):
            if not asked or rest.admits([cells[i:i + n] for i in range(0, n * n, n)], unit):
                yield unit, cells


def enumerate_chains(n: int, flags: ChainFlags = ChainFlags()):
    """All residuated chains of size ``n`` with the requested properties.

    On a chain the only order automorphism is the identity, so distinct
    tables are pairwise non-isomorphic and the stream is a transversal of
    isomorphism classes.  The order is canonical and deterministic.
    """
    zero = 0 if flags.pointed else None
    for count, (unit, cells) in enumerate(_raw_stream(n, flags)):
        product = [tuple(cells[i:i + n]) for i in range(0, n * n, n)]
        yield make_algebra(product=product, unit=unit, zero=zero, name=f"chain{n}_{count}")


def count_chains(n: int, flags: ChainFlags = ChainFlags()) -> int:
    """Number of chains :func:`enumerate_chains` would yield, without
    materializing algebra objects.  It reads the same memoized engine runs,
    so counting a class and then listing it, or counting several classes of
    one size, runs the engine once per ``(n, unit, commutative)``."""
    return sum(1 for _ in _raw_stream(n, flags))
