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
complete assignment is re-verified before it is reported, so the pruning
rules only ever need to be sound, not complete.  The class of chains,
``ChainFlags``, is applied the same way: commutativity propagates, and
``ChainFlags.admits`` decides each complete table.

Propagation is incremental.  A cell whose candidate set shrinks to a
singleton is queued as it shrinks; ``propagate`` fixes the queued cells in
passes, each pass in ascending cell order, and the singletons a pass creates
wait for the next pass.  Fixing ``x*y = v`` bounds only the cells in its
monotonicity cones (``a*b >= v`` for ``a >= x, b >= y`` and ``a*b <= v``
for ``a <= x, b <= y``), and a division pin bounds only the cells on its
ray; cells already inside a bound are skipped.  The associativity rule is
applied once per fixed cell against the cells fixed before it, so its
outcome depends on the order in which cells are fixed, and that order is
part of the engine's contract: node counts and the order of solutions
depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    CHAIN,
    BudgetExceededError,
    FormatError,
    make_algebra,
    residuals_from_product,
)


@dataclass(frozen=True, kw_only=True)
class ChainFlags:
    """A class of residuated chains: the chains that ``enumerate_chains``
    lists, that an amalgam D is searched in, and that the engine completes
    to.  ``k_potent`` selects the chains with ``x^(k+1) = x^k``."""

    integral: bool = False
    commutative: bool = False
    k_potent: int | None = None
    divisible: bool = False
    pointed: bool = False

    def __post_init__(self):
        k = self.k_potent
        if k is not None and (type(k) is not int or k < 1):  # bool is no count
            raise FormatError(f"k_potent must be an integer of at least 1, not {k!r}")

    def admits(self, table, unit) -> bool:
        """Whether the chain with this product table, in index order, and
        this unit lies in the class; ``pointed`` asks nothing of a table."""
        n = len(table)
        rng = range(n)
        if self.integral and unit != n - 1:
            return False
        if self.commutative and any(table[x][y] != table[y][x] for x in rng for y in rng):
            return False
        # on a chain the powers of x are monotone, so x^n = x^(n+1) and any k >= n holds
        k = self.k_potent
        if k is not None and k < n:
            for x in rng:
                p = x
                for _ in range(k - 1):
                    p = table[p][x]
                if table[p][x] != p:
                    return False
        if self.divisible:
            ldiv, rdiv = residuals_from_product(CHAIN, table, unit)  # a chain has both: x*0 = 0
            return all(table[x][ldiv[x][y]] == table[rdiv[x][y]][x] == min(x, y) for x in rng for y in rng)
        return True


@dataclass(frozen=True)
class CompletionProblem:
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


@dataclass
class SearchStats:
    nodes: int = 0
    solutions: int = 0


@dataclass(frozen=True)
class Budget:
    max_nodes: int = 10**8


class _Conflict(Exception):
    pass


def _low_mask(v):
    # candidates <= v
    return (1 << (v + 1)) - 1


class _Engine:
    def __init__(self, problem: CompletionProblem, budget: Budget, stats: SearchStats):
        problem.check_well_formed()
        self.m = problem.size
        self.p = problem
        self.budget = budget
        self.stats = stats
        m = self.m
        full = (1 << m) - 1
        self.cand = [full] * (m * m)
        self.value = [-1] * (m * m)
        self.unfixed = m * m
        self.trail: list[tuple[int, int]] = []
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
        self.trail.append((cell, old))
        self.cand[cell] = new
        if new & (new - 1) == 0:
            self.queue.append(cell)
        if self.p.flags.commutative:
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
        full = (1 << m) - 1
        # x \ z = d: x*d <= z < x*s for every s above d (likewise z / y = d)
        for (x, z), d in self.p.ldiv_pins.items():
            low = _low_mask(z)
            if cand[x * m + d] > low:
                set_mask(x * m + d, low)
            above = full & ~low
            for c in range(x * m + d + 1, x * m + m):
                if cand[c] & low:
                    set_mask(c, above)
        for (y, z), d in self.p.rdiv_pins.items():
            low = _low_mask(z)
            if cand[d * m + y] > low:
                set_mask(d * m + y, low)
            above = full & ~low
            for c in range((d + 1) * m + y, m * m, m):
                if cand[c] & low:
                    set_mask(c, above)

    # -- propagation ------------------------------------------------------------

    def _fix(self, cell, v):
        self._set_mask(cell, 1 << v)
        self.trail.append((-cell - 1, self.value[cell]))
        self.value[cell] = v
        self.unfixed -= 1
        m, cand, value, set_mask = self.m, self.cand, self.value, self._set_mask
        x, y = divmod(cell, m)
        # monotonicity against the newly fixed cell: only the cones, and only
        # cells that still hold a candidate on the wrong side of v
        below = (1 << v) - 1
        if v > 0:
            ge_mask = ((1 << m) - 1) & ~below
            for a in range(x, m):
                for c in range(a * m + y, a * m + m):
                    if cand[c] & below:
                        set_mask(c, ge_mask)
        if v < m - 1:
            le_mask = _low_mask(v)
            for a in range(x + 1):
                for c in range(a * m, a * m + y + 1):
                    if cand[c] > le_mask:
                        set_mask(c, le_mask)
        # associativity instances whose two inner products are fixed
        for z in range(m):
            w = value[y * m + z]
            if w != -1:  # (x*y)*z = x*(y*z) with x*y, y*z fixed
                self._link(v * m + z, x * m + w)
        for w in range(m):
            t = value[w * m + x]
            if t != -1:  # (w*x)*y = w*(x*y) with w*x, x*y fixed
                self._link(t * m + y, w * m + v)

    def _link(self, cell_a, cell_b):
        if cell_a == cell_b:
            return
        cand = self.cand
        mask_a, mask_b = cand[cell_a], cand[cell_b]
        if mask_a != mask_b:
            common = mask_a & mask_b
            self._set_mask(cell_a, common)
            self._set_mask(cell_b, common)

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

    def _mark(self):
        return len(self.trail)

    def _undo(self, mark):
        self.queue = []  # left over from a conflict
        while len(self.trail) > mark:
            key, old = self.trail.pop()
            if key < 0:
                cell = -key - 1
                if self.value[cell] != -1 and old == -1:
                    self.unfixed += 1
                self.value[cell] = old
            else:
                self.cand[key] = old

    def _select_cell(self):
        best, best_count = -1, 1 << 30
        for c in range(self.m * self.m):
            if self.value[c] != -1:
                continue
            k = self.cand[c].bit_count()
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
        if self.unfixed == 0:
            table = [
                [self.value[x * self.m + y] for y in range(self.m)]
                for x in range(self.m)
            ]
            if self._verify(table):
                self.stats.solutions += 1
                yield table
            return
        cell = self._select_cell()
        mask = self.cand[cell]
        v = 0
        while mask:
            if mask & 1:
                self.stats.nodes += 1
                if self.stats.nodes > self.budget.max_nodes:
                    raise BudgetExceededError(self.stats.nodes)
                mark = self._mark()
                try:
                    self._fix(cell, v)
                    self.propagate()
                    yield from self._search()
                except _Conflict:
                    pass
                self._undo(mark)
            mask >>= 1
            v += 1

    # -- leaf verification --------------------------------------------------------

    def _verify(self, t):
        m, u = self.m, self.p.unit
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
        for x in rng:
            for y in rng:
                txy = t[x][y]
                for z in rng:
                    if t[txy][z] != t[x][t[y][z]]:
                        return False
        for (x, y), v in self.p.product_pins.items():
            if t[x][y] != v:
                return False
        for (x, z), d in self.p.ldiv_pins.items():
            if t[x][d] > z or (d + 1 < m and t[x][d + 1] <= z):
                return False
        for (y, z), d in self.p.rdiv_pins.items():
            if t[d][y] > z or (d + 1 < m and t[d + 1][y] <= z):
                return False
        return self.p.flags.admits(t, u)


def iter_completions(problem: CompletionProblem, budget: Budget = Budget(), stats: SearchStats | None = None):
    """All completed product tables, in canonical depth-first order."""
    stats = stats if stats is not None else SearchStats()
    yield from _Engine(problem, budget, stats).solutions()


# ---------------------------------------------------------------------------
# chain enumeration


def _raw_stream(n: int, flags: ChainFlags):
    """The (unit, product table) pairs of the chains that ``flags`` select,
    in canonical order."""
    if n < 1:
        raise FormatError("size must be positive")
    for unit in [n - 1] if flags.integral else range(n):
        for table in iter_completions(CompletionProblem(n, unit, {}, {}, {}, flags)):
            yield unit, table


def enumerate_chains(n: int, flags: ChainFlags = ChainFlags()):
    """All residuated chains of size ``n`` with the requested properties.

    On a chain the only order automorphism is the identity, so distinct
    tables are pairwise non-isomorphic and the stream is a transversal of
    isomorphism classes.  The order is canonical and deterministic.
    """
    zero = 0 if flags.pointed else None
    for count, (unit, table) in enumerate(_raw_stream(n, flags)):
        yield make_algebra(product=table, unit=unit, order=CHAIN, zero=zero, name=f"chain{n}_{count}")


def count_chains(n: int, flags: ChainFlags = ChainFlags()) -> int:
    """Number of chains :func:`enumerate_chains` would yield, without
    materializing algebra objects."""
    return sum(1 for _ in _raw_stream(n, flags))
