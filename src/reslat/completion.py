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
``ChainFlags.admits`` decides each complete table when the class asks
commutativity, k-potency or divisibility of one.

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

Every rule narrows a cell the same way, written out in place: the cell keeps
its candidates inside a mask, a cell that narrows to one candidate is queued,
and in a commutative class the cell's mirror, read from a per-size table,
gets the same set, so the candidate sets stay symmetric.  An empty set is a
conflict: ``init_constraints``, ``_fix`` and ``propagate`` return ``False``,
and no exception is raised.  The order of fixes, the ``>=`` cone before the
``<=`` cone and the order of the associativity links are the contract above.
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
        if commutative or divisible:
            columns = list(zip(*table))
        if commutative and columns != list(map(tuple, table)):
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
                if set(table[x]) != want or set(columns[x]) != want:
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
        if type(m) is not int or type(self.unit) is not int:  # bool is no index
            raise FormatError("size and unit must be integers")
        if not isinstance(self.flags, ChainFlags):
            raise FormatError(f"flags must be ChainFlags, not {self.flags!r}")
        if m < 1:
            raise FormatError("size must be positive")
        if m > MAX_CHAIN_SIZE:
            raise FormatError(f"size must be at most {MAX_CHAIN_SIZE}")
        if not 0 <= self.unit < m:
            raise FormatError("unit out of range")
        if self.flags.integral and self.unit != m - 1:
            raise FormatError("integral problems need the unit on top")
        for kind, pins in (("product", self.product_pins), ("division", self.ldiv_pins), ("division", self.rdiv_pins)):
            for key, v in pins.items():
                if not (type(key) is tuple and len(key) == 2 and all(type(i) is int for i in (*key, v))):
                    raise FormatError(f"{kind} pin {key!r}: {v!r} is not three integers")
                x, y = key
                if not (0 <= x < m and 0 <= y < m and 0 <= v < m):
                    raise FormatError(f"{kind} pin out of range")


class SearchStats:
    """Counts of the engine, updated in place as it runs."""

    __slots__ = ("nodes", "solutions")

    def __init__(self):
        self.nodes = 0
        self.solutions = 0

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


@lru_cache(maxsize=None)
def _cells(m):
    """Per-size tables of an ``m x m`` row-major table: each cell's ``(x,
    y)``, each cell's mirror ``y*m + x``, the slices of the rows and the
    identity row ``bytes(range(m))``."""
    coords = [divmod(c, m) for c in range(m * m)]
    return coords, [y * m + x for x, y in coords], [slice(i, i + m) for i in range(0, m * m, m)], bytes(range(m))


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
        self.m = m = problem.size
        self.p = problem
        self.budget = budget
        self.stats = stats
        self.cand = [(1 << m) - 1] * (m * m)
        self.value = [-1] * (m * m)
        # bit c is set while cell c is unfixed; a fixed cell has applied
        # both of its monotonicity cones, so no later cone needs to visit it
        self.free = (1 << (m * m)) - 1
        self.coords, mirrors, self.rows, self.ident = _cells(m)
        # in a commutative class the candidates stay symmetric: a cell's
        # mirror is given the cell's set whenever the cell narrows
        self.mirrors = mirrors if problem.flags.commutative else None
        # the leaf asks the class about a complete table only when the class
        # asks something of one: check_well_formed already put an integral
        # class's unit on top, and pointed asks nothing of a table
        flags = problem.flags
        asked = flags.commutative or flags.k_potent is not None or flags.divisible
        self.admits = flags.admits if asked else None
        self.cones = _cone_masks(m)
        self.lanes = _lane_masks(m)
        self.divisions = list(division_cells(problem.ldiv_pins, problem.rdiv_pins, m))
        # the rows and columns other than the unit's and the zero's
        self.inner = [z for z in range(1, m) if z != problem.unit]
        # cells that became singletons and were not processed yet; on a
        # one-element chain every cell starts out as one
        self.queue: list[int] = [0] if m == 1 else []

    # -- the narrowing rule, written out wherever a cell narrows, so the hot
    # path calls no method per cell; a cell on the diagonal, its own mirror,
    # is queued twice and fixed once ------------------------------------------

    def init_constraints(self):
        """Narrow by the unit laws, ``x*0 = 0*x = 0`` and the pins; False
        on a conflict."""
        m, u, cand, queue, mirrors = self.m, self.p.unit, self.cand, self.queue, self.mirrors
        bounds = [(c, 1 << y) for y in range(m) for c in (u * m + y, y * m + u)]
        if m > 1:
            bounds += [(c, 1) for x in range(m) for c in (x * m, x)]
        bounds += [(x * m + y, 1 << v) for (x, y), v in self.p.product_pins.items()]
        for z, at, above in self.divisions:
            low = (2 << z) - 1  # candidates <= z
            bounds += [(at, low)] + [(c, ~low) for c in above]
        for c, mask in bounds:
            new = cand[c] & mask
            if new != cand[c]:
                if not new:
                    return False
                cand[c] = new
                if mirrors:
                    cand[mirrors[c]] = new
                if not new & (new - 1):
                    queue.append(c)
                    if mirrors:
                        queue.append(mirrors[c])
        return True

    # -- propagation ------------------------------------------------------------

    def _fix(self, cell, v):
        """Fix ``cell`` to ``v`` and narrow the cells it bounds; False on a
        conflict."""
        m, cand, value, queue, mirrors = self.m, self.cand, self.value, self.queue, self.mirrors
        x, y = self.coords[cell]
        # fixed here, so never queued; a commutative mirror narrows and is queued
        cand[cell] = 1 << v
        if mirrors and cand[mirrors[cell]] != 1 << v:
            cand[mirrors[cell]] = 1 << v
            queue.append(mirrors[cell])
        value[cell] = v
        free = self.free = self.free ^ (1 << cell)
        rows_from, rows_upto, cols_from, cols_upto = self.cones
        # monotonicity against the newly fixed cell: only the unfixed cells
        # of the cones, the >= cone first, each in ascending order
        if v:
            mask = -1 << v  # candidates >= v
            bits = free & rows_from[x] & cols_from[y]
            while bits:
                low = bits & -bits
                bits ^= low
                c = low.bit_length() - 1
                new = cand[c] & mask
                if new != cand[c]:
                    if not new:
                        return False
                    cand[c] = new
                    if mirrors:
                        cand[mirrors[c]] = new
                    if not new & (new - 1):
                        queue.append(c)
                        if mirrors:
                            queue.append(mirrors[c])
        if v < m - 1:
            mask = (2 << v) - 1  # candidates <= v
            bits = free & rows_upto[x] & cols_upto[y]
            while bits:
                low = bits & -bits
                bits ^= low
                c = low.bit_length() - 1
                new = cand[c] & mask
                if new != cand[c]:
                    if not new:
                        return False
                    cand[c] = new
                    if mirrors:
                        cand[mirrors[c]] = new
                    if not new & (new - 1):
                        queue.append(c)
                        if mirrors:
                            queue.append(mirrors[c])
        # associativity instances whose two inner products are fixed: both
        # cells narrow to their common candidates, a before b, and b is read
        # again after a narrows (it may be a's mirror).  The unit's and the
        # zero's rows and columns hold their singletons from
        # init_constraints, so z or w among them links only equal cells:
        # (v,u) and (x,y) hold v, as do (u,v) and (x,y); (v,0) and (x,0)
        # hold 0, as do (0,y) and (0,v)
        vm, xm, ym = v * m, x * m, y * m
        for z in self.inner:
            w = value[ym + z]
            if w != -1:  # (x*y)*z = x*(y*z)
                a, b = vm + z, xm + w
                if cand[a] != cand[b]:
                    common = cand[a] & cand[b]
                    if not common:
                        return False
                    for c in (a, b):
                        if cand[c] != common:
                            cand[c] = common
                            if mirrors:
                                cand[mirrors[c]] = common
                            if not common & (common - 1):
                                queue.append(c)
                                if mirrors:
                                    queue.append(mirrors[c])
        for w in self.inner:
            t = value[w * m + x]
            if t != -1:  # (w*x)*y = w*(x*y)
                a, b = t * m + y, w * m + v
                if cand[a] != cand[b]:
                    common = cand[a] & cand[b]
                    if not common:
                        return False
                    for c in (a, b):
                        if cand[c] != common:
                            cand[c] = common
                            if mirrors:
                                cand[mirrors[c]] = common
                            if not common & (common - 1):
                                queue.append(c)
                                if mirrors:
                                    queue.append(mirrors[c])
        return True

    def propagate(self):
        """Fix every pending singleton, in passes of ascending cell order;
        singletons a pass creates wait for the next pass.  False on a
        conflict, with cells left in the queue."""
        value, cand, queue, fix = self.value, self.cand, self.queue, self._fix
        while queue:
            pending = sorted(queue)
            queue.clear()
            for cell in pending:
                if value[cell] == -1 and not fix(cell, cand[cell].bit_length() - 1):
                    return False
        return True

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
        if self.init_constraints() and self.propagate():
            yield from self._search()

    def _search(self):
        """The solutions below the current state, depth first over one
        explicit stack.  A frame is an open node: its cell, its candidate
        sets, values and free cells as they were before its first branch,
        its candidates not tried yet (bit 0 is value ``v``) and ``v``, the
        value after the last one tried, 0 before the first.  Each later
        branch starts from the node's state, restored in place."""
        stats, budget = self.stats, self.budget
        cand, value, queue = self.cand, self.value, self.queue
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
                if self._fix(cell, v) and (not queue or self.propagate()):
                    break
                queue.clear()
            else:
                return

    # -- leaf verification --------------------------------------------------------

    def _verify(self, cells):
        m, u, ident = self.m, self.p.unit, self.ident
        t = [cells[s] for s in self.rows]
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
        for z, at, above in self.divisions:
            if cells[at] > z or above and cells[above[0]] <= z:
                return False
        return self.admits is None or self.admits(t, u)


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
# is stored once its search has run to the end, or, for a commutative key,
# once it is filtered from the stored full entry of the same (n, unit)
_CHAINS: dict[tuple[int, int, bool], list[bytes]] = {}


def _commutative_tables(tables, n: int, unit: int) -> list[bytes]:
    """The symmetric tables among ``tables``, the full unpinned run of
    ``(n, unit)``, in its order: the commutative run's stream.  The leaf
    check fixed the rows and columns of 0 and of the unit, so each other
    row is compared with its column, one byte slice against another."""
    _, _, rows, _ = _cells(n)
    inner = [(rows[i], slice(i, None, n)) for i in range(1, n) if i != unit]
    kept = []
    for cells in tables:
        for row, column in inner:
            if cells[row] != cells[column]:
                break
        else:
            kept.append(cells)
    return kept


def _unit_stream(n: int, unit: int, commutative: bool):
    """The chains of size ``n`` with this unit, commutative or all of them,
    each as row-major bytes: from the memo, or else from the engine, lazily.
    A commutative stream is filtered from the full stream when the memo
    holds that, and otherwise runs its own, much smaller, search."""
    key = (n, unit, commutative)
    tables = _CHAINS.get(key)
    if tables is None and commutative and (n, unit, False) in _CHAINS:
        tables = _CHAINS[key] = _commutative_tables(_CHAINS[n, unit, False], n, unit)
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
    decided on complete tables, so the streams of ``_unit_stream``, kept in
    ``_CHAINS``, serve every class: one engine run per ``(n, unit)`` when
    the full stream is read first, as the census does, and a commutative
    run of its own when a commutative stream is read first.  Either way the
    stream fixed the unit and decided commutativity, so only ``k_potent``
    and ``divisible`` are left to ask."""
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
    materializing algebra objects.  It reads the same memoized streams, so
    counting a class and then listing it, or counting several classes of
    one size, runs the engine at most once per ``(n, unit, commutative)``:
    a commutative class counted after a class of all chains of the same
    units filters the full runs, and one counted first runs the engine's
    commutative search, which visits far fewer nodes (13,446 against
    349,908 at n = 8 with the unit on top)."""
    return sum(1 for _ in _raw_stream(n, flags))
