"""Terms and identities over the residuated-lattice signature.

Grammar (ASCII aliases in parentheses):

    variables   [a-z][0-9]*
    constants   1  0
    operators   * (product), /\\ (meet), \\/ (join), \\ (left division),
                / (right division), -> (arrow), neg (prefix negation)
    relators    =  (chains allowed: t1 = t2 = t3)   >=

Precedence, tightest first: ``neg``, ``*``, meet, join, divisions; all
binary operators associate to the left.  ``->`` desugars to ``\\`` on
commutative algebras only, and ``neg x`` to ``x \\ 0`` on pointed algebras
only.

Evaluation works on tables, not on one assignment at a time.
:class:`TermEvaluator` lists each subterm's values over the assignments
of its own variables, in ``itertools.product`` order, as ``bytes`` with
one element index per byte (a ``list`` above 256 elements), and applies
an operator to whole lists in C: one ``bytes.translate`` through a row,
a column or, on algebras of at most 16 elements, the whole row-major
table indexed by ``a * n + b`` (larger ones look up one cell per entry
when both operands vary).  :func:`check_identity` compares the
terms' lists, reading ``>=`` through the order table the same way; an
identity with more than ``BLOCK_CELLS`` assignments is checked in blocks
that fix its leading variables, in lexicographic order, so no list grows
past that constant (or the size of the algebra, if larger).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from itertools import chain, compress, count
from operator import getitem, ne
from typing import NamedTuple

from .algebra import (
    FiniteRL,
    FormatError,
    UnsupportedSymbolError,
    join_table,
    meet_table,
    validate,
)

EQ = "EQ"
GEQ = "GEQ"


class Var(NamedTuple):
    name: str


class Const(NamedTuple):
    symbol: str  # "1" or "0"


class BinOp(NamedTuple):
    op: str  # one of * /\ \/ \ / ->
    left: "Term"
    right: "Term"


class Neg(NamedTuple):
    arg: "Term"


Term = Var | Const | BinOp | Neg


class Identity(NamedTuple):
    """``terms`` all equal (EQ, length >= 2) or ``terms[0] >= terms[1]`` (GEQ)."""

    terms: tuple[Term, ...]
    relation: str

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for t in self.terms:
            seen |= term_variables(t)
        return tuple(sorted(seen))


class IdentityResult(NamedTuple):
    holds: bool
    variables: tuple[str, ...]
    assignment: tuple[int, ...] | None = None
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "HOLDS" if self.holds else "FAILS"

    def assignment_dict(self) -> dict[str, int] | None:
        if self.assignment is None:
            return None
        return dict(zip(self.variables, self.assignment))


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    if isinstance(t, Neg):
        return term_variables(t.arg)
    return term_variables(t.left) | term_variables(t.right)


# ---------------------------------------------------------------------------
# parsing


# binding strength of each binary operator, for the parser and the printer
_PRECEDENCE = {"\\": 1, "/": 1, "->": 1, "\\/": 2, "/\\": 3, "*": 4}


# the parser refuses terms deeper than this, and deeper parentheses; every
# walk over a term recurses once per level
MAX_TERM_DEPTH = 100


class ParseError(FormatError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


# every symbol, ASCII or Unicode, and the token it reads as; none is longer
# than two characters, and the longer one matches first
_SYMBOLS = {
    "/\\": "/\\",
    "\\/": "\\/",
    "\\\\": "\\",
    "->": "->",
    ">=": ">=",
    "*": "*",
    "·": "*",
    "∧": "/\\",
    "∨": "\\/",
    "\\": "\\",
    "/": "/",
    "→": "->",
    "¬": "neg",
    "≥": ">=",
    "=": "=",
    "(": "(",
    ")": ")",
    "1": "const:1",
    "0": "const:0",
}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        symbol = text[i : i + 2] if text[i : i + 2] in _SYMBOLS else ch
        if symbol in _SYMBOLS:
            tokens.append((_SYMBOLS[symbol], i))
            i += len(symbol)
            continue
        j = i
        while j < n and text[j].isalpha() and text[j].islower():
            j += 1
        word = text[i:j]
        if len(word) == 1:  # a variable: one letter, then digits
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("var:" + text[i:j], i))
        elif word == "neg":
            tokens.append(("neg", i))
        else:
            raise ParseError(f"unknown word {word!r}" if word else f"unexpected character {ch!r}", i)
        i = j
    return tokens


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.open = 0  # parentheses open at the current token

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_identity(self) -> Identity:
        terms = [self.parse_term()[0]]
        rel = self.peek()
        if rel not in ("=", ">="):
            raise ParseError("expected '=' or '>='", self.where())
        # '=' chains; '>=' relates two terms
        while self.peek() == rel and (rel == "=" or len(terms) == 1):
            self.take()
            terms.append(self.parse_term()[0])
        if self.peek() is not None:
            raise ParseError("trailing input", self.where())
        return Identity(tuple(terms), EQ if rel == "=" else GEQ)

    def deeper(self, depth: int, position: int) -> int:
        if depth >= MAX_TERM_DEPTH:
            raise ParseError(f"nested deeper than {MAX_TERM_DEPTH} levels", position)
        return depth + 1

    def parse_term(self, min_prec: int = 1) -> tuple[Term, int]:
        """Precedence climbing over ``_PRECEDENCE``: a binary operator
        binds its right operand one level tighter, so it associates to
        the left.  Returns the term and its depth."""
        left, depth = self.parse_unary()
        while _PRECEDENCE.get(self.peek(), 0) >= min_prec:
            op, position = self.take()
            right, right_depth = self.parse_term(_PRECEDENCE[op] + 1)
            left, depth = BinOp(op, left, right), self.deeper(max(depth, right_depth), position)
        return left, depth

    def parse_unary(self) -> tuple[Term, int]:
        negations = []
        while self.peek() == "neg":
            negations.append(self.take()[1])
        term, depth = self.parse_atom()
        for position in reversed(negations):
            term, depth = Neg(term), self.deeper(depth, position)
        return term, depth

    def parse_atom(self) -> tuple[Term, int]:
        tok = self.peek()
        if tok == "(":
            # between two parentheses the parser recurses at most once per
            # precedence level, so bounding them bounds its own recursion
            self.open = self.deeper(self.open, self.where())
            self.take()
            inner = self.parse_term()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.where())
            self.take()
            self.open -= 1
            return inner
        if tok is None:
            raise ParseError("unexpected end of input", self.where())
        if tok.startswith("var:"):
            self.take()
            return Var(tok[4:]), 1
        if tok.startswith("const:"):
            self.take()
            return Const(tok[6:]), 1
        raise ParseError(f"unexpected token {tok!r}", self.where())


# the identities a name stands for, in the order ``identity --id`` lists them
NAMED_IDENTITIES = {
    "prel": "(x -> y) \\/ (y -> x) >= 1",
    "sem": "((u \\ ((x / (x \\/ y)) * u)) /\\ 1) \\/ (((v * (y / (x \\/ y))) / v) /\\ 1) = 1",
    "div": "x /\\ y = x * (x \\ y) = (y / x) * x",
    "inv": "neg neg x = x",
    "idem": "x * x = x",
    "stone": "neg x \\/ neg neg x = 1",
}


def parse_identity(text: str) -> Identity:
    """Parse an identity, expanding ``NAMED_IDENTITIES`` and ``potent:n`` first."""
    stripped = text.strip()
    if stripped in NAMED_IDENTITIES:
        return parse_identity(NAMED_IDENTITIES[stripped])
    if stripped.startswith("potent:"):
        try:
            k = int(stripped.split(":", 1)[1])
        except ValueError:
            raise ParseError("potent:n needs an integer", 0) from None
        if not 1 <= k < MAX_TERM_DEPTH:  # x^(n+1) is n+1 levels deep
            raise ParseError(f"potent:n needs 1 <= n < {MAX_TERM_DEPTH}", 0)
        return parse_identity(" = ".join(" * ".join("x" * m) for m in (k, k + 1)))
    tokens = _tokenize(text)
    return _Parser(tokens, text).parse_identity()


# ---------------------------------------------------------------------------
# pretty printing


def format_term(t: Term, parent_prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.symbol
    if isinstance(t, Neg):
        return f"neg {format_term(t.arg, 5)}"
    prec = _PRECEDENCE[t.op]
    # left-associative: same precedence allowed on the left, not on the right
    body = f"{format_term(t.left, prec)} {t.op} {format_term(t.right, prec + 1)}"
    if prec < parent_prec:
        return f"({body})"
    return body


def format_identity(ident: Identity) -> str:
    rel = " >= " if ident.relation == GEQ else " = "
    return rel.join(format_term(t) for t in ident.terms)


# ---------------------------------------------------------------------------
# evaluation


# the most assignments one value list covers; an identity with more is
# checked block by block, its leading variables fixed in each block
BLOCK_CELLS = 1 << 16


class TermEvaluator:
    """Value lists of terms over ``alg``.

    ``domains`` maps each variable, in the identity's order, to the values
    it ranges over (a one-entry tuple fixes it).  A term's list holds its
    value at each assignment of the domains, in ``itertools.product``
    order, one element index per byte (a ``list`` on an algebra of more
    than 256 elements).  Each subterm is evaluated once per assignment of
    its own variables, and an operator maps whole lists in C: a negation,
    or an operator with a constant operand, translates the other list
    through one image, row or column; two varying operands, on an algebra
    of at most 16 elements, are read as the pair index ``a * n + b`` of
    every lane at once and translated through the row-major table (on a
    larger algebra, one table cell is looked up per entry).  A child is
    spread over the variables its sibling adds by repeating it.

    Tables are looked up on first use and kept for the evaluator's life:
    a negation checks for the zero before it evaluates its argument, and
    a binary node evaluates both operands before it rejects ``->`` on a
    non-commutative algebra or builds a meet or join table (only a term
    that uses one needs the order to have it).
    """

    def __init__(self, alg: FiniteRL):
        self.alg = alg
        self._pack = bytes if alg.size <= 256 else list
        self._tables: dict[str, tuple] = {}
        self._flat: dict[str, bytes] = {}  # padded row-major tables, for n <= 16

    def values(self, terms: Sequence[Term], domains: dict[str, Sequence[int]]) -> list[Sequence[int]]:
        """Each term's values at every assignment of ``domains``: ``bytes``
        (or a ``bytearray``), or a ``list`` on an algebra of more than 256
        elements.  The terms are all evaluated before any is spread over
        every variable."""
        position = {v: i for i, v in enumerate(domains)}
        sizes = [len(d) for d in domains.values()]
        every = range(len(sizes))
        listed = [self._values(t, domains, position, sizes) for t in terms]
        return [
            values if len(have) == len(sizes) else _spread(values, have, every, sizes)
            for values, have in listed
        ]

    def _values(self, t, domains, position, sizes) -> tuple[Sequence[int], tuple[int, ...]]:
        """``t``'s values, listed over the variables at the returned positions."""
        alg = self.alg
        if isinstance(t, Var):
            return self._pack(domains[t.name]), (position[t.name],)
        if isinstance(t, Const):
            if t.symbol == "1":
                return self._pack((alg.unit,)), ()
            if alg.zero is None:
                raise UnsupportedSymbolError("constant 0 on an unpointed algebra")
            return self._pack((alg.zero,)), ()
        if isinstance(t, Neg):
            if alg.zero is None:
                raise UnsupportedSymbolError("negation on an unpointed algebra")
            arg, have = self._values(t.arg, domains, position, sizes)
            return self._image(self._table("neg"), arg), have
        a, pa = self._values(t.left, domains, position, sizes)
        b, pb = self._values(t.right, domains, position, sizes)
        table = self._table(t.op)
        if t.op == "/":  # a / b is rdiv[b][a]
            a, pa, b, pb = b, pb, a, pa
        # a one-entry list is constant over its variables
        if len(a) == 1:
            return self._image(table[a[0]], b), pb
        if len(b) == 1:
            return self._image([row[b[0]] for row in table], a), pa
        both = tuple(sorted({*pa, *pb}))
        return self._pairs(t.op, _spread(a, pa, both, sizes), _spread(b, pb, both, sizes)), both

    def _image(self, image: Sequence[int], values: Sequence[int]) -> Sequence[int]:
        """``image[v]`` for each ``v`` in ``values``."""
        if self._pack is bytes:
            return values.translate(bytes(image).ljust(256, b"\0"))
        return list(map(image.__getitem__, values))

    def _pairs(self, op: str, a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
        """``op``'s table at ``(a[i], b[i])`` for each lane ``i`` of two
        equally long value lists."""
        table = self._table(op)
        n = self.alg.size
        if n > 16:
            return self._pack(map(getitem, map(table.__getitem__, a), b))
        flat = self._flat.get(op)
        if flat is None:
            flat = self._flat[op] = bytes(chain.from_iterable(table)).ljust(256, b"\0")
        # each lane holds a * n + b <= n * n - 1 <= 255, so no lane carries
        lanes = int.from_bytes(a, "little") * n + int.from_bytes(b, "little")
        return lanes.to_bytes(len(a), "little").translate(flat)

    def _table(self, op: str) -> tuple:
        table = self._tables.get(op)
        if table is not None:
            return table
        alg = self.alg
        if op == "neg":
            table = tuple(row[alg.zero] for row in alg.ldiv)
        elif op == "->" and not validate(alg, ["commutative"]).ok:
            raise UnsupportedSymbolError("arrow on a non-commutative algebra")
        elif op == "/\\":
            table = meet_table(alg)
        elif op == "\\/":
            table = join_table(alg)
        elif op == "*":
            table = alg.product
        elif op == "/":
            table = alg.rdiv
        elif op in ("\\", "->"):
            table = alg.ldiv
        elif op == "<=":  # the order, as a table of truth values
            n = alg.size
            table = alg.leq if alg.leq is not None else tuple(tuple(x <= y for y in range(n)) for x in range(n))
        else:
            raise FormatError(f"unknown operator {op!r}")
        self._tables[op] = table
        return table


def _spread(values: Sequence[int], have, want, sizes) -> Sequence[int]:
    """``values``, listed over the variables at positions ``have``, spread
    over the positions ``want`` (a sorted superset).  A run of new
    variables between two old ones repeats each block of ``values`` that
    shares the variables before the run as often as the run has
    assignments."""
    have = iter(have)
    next_old = next(have, None)
    outer = run = 1  # assignments of the positions before the run; of the run
    for p in want:
        if p != next_old:
            run *= sizes[p]
            continue
        if run > 1:
            values = _repeat_blocks(values, outer, run)
            outer *= run
            run = 1
        outer *= sizes[p]
        next_old = next(have, None)
    return _repeat_blocks(values, outer, run) if run > 1 else values


def _repeat_blocks(values: Sequence[int], blocks: int, times: int) -> Sequence[int]:
    """Each of the ``blocks`` equal slices of ``values``, ``times`` times:
    one slice assignment per block, or, if that takes fewer, one strided
    assignment per copy of each offset within a block."""
    if blocks == 1:
        return values * times
    width = len(values) // blocks
    step = width * times  # one block's copies
    out = [0] * (len(values) * times) if isinstance(values, list) else bytearray(len(values) * times)
    if blocks <= step:
        for i in range(blocks):
            out[i * step : (i + 1) * step] = values[i * width : (i + 1) * width] * times
    else:
        for k in range(width):
            lane = values[k::width]
            for j in range(k, step, width):
                out[j::step] = lane
    return out


def _first_failure(evaluator: TermEvaluator, relation: str, values: list[Sequence[int]]) -> int | None:
    """The least index where the term values break ``relation``, if any."""
    first = values[0]
    if relation == GEQ:  # first >= second
        holds = evaluator._pairs("<=", values[1], first)
        return holds.index(0) if 0 in holds else None
    return min(
        (next(compress(count(), map(ne, first, other))) for other in values[1:] if other != first),
        default=None,
    )


def check_identity(alg: FiniteRL, ident: Identity) -> IdentityResult:
    """Evaluate over every assignment; report the least failing one.

    The terms are evaluated as value lists over at most ``BLOCK_CELLS``
    assignments (or ``alg.size``, if that is more) at a time: the leading
    variables are fixed block by block in lexicographic order, and the
    check stops at the first block with a failure.
    """
    variables = ident.variables()
    n = alg.size
    free = len(variables)
    while free > 1 and n**free > BLOCK_CELLS:
        free -= 1
    evaluator = TermEvaluator(alg)
    for prefix in itertools.product(range(n), repeat=len(variables) - free):
        domains = dict(zip(variables, [(v,) for v in prefix] + [range(n)] * free))
        values = evaluator.values(ident.terms, domains)
        index = _first_failure(evaluator, ident.relation, values)
        if index is None:
            continue
        sides = " , ".join(alg.labels[v[index]] for v in values)
        rest = []
        for _ in range(free):
            index, digit = divmod(index, n)
            rest.append(digit)
        assignment = prefix + tuple(reversed(rest))
        shown = ", ".join(f"{v}={alg.labels[i]}" for v, i in zip(variables, assignment))
        return IdentityResult(False, variables, assignment, f"{shown}: values {sides}" if shown else f"values {sides}")
    return IdentityResult(True, variables)
