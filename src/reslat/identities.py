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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    symbol: str  # "1" or "0"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of * /\ \/ \ / ->
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Neg:
    arg: "Term"


Term = Var | Const | BinOp | Neg


@dataclass(frozen=True)
class Identity:
    """``terms`` all equal (EQ, length >= 2) or ``terms[0] >= terms[1]`` (GEQ)."""

    terms: tuple[Term, ...]
    relation: str

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for t in self.terms:
            seen |= term_variables(t)
        return tuple(sorted(seen))


@dataclass(frozen=True)
class IdentityResult:
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


_MULTI = (("/\\", "/\\"), ("\\/", "\\/"), ("\\\\", "\\"), ("->", "->"), (">=", ">="))
_SINGLE = {
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
}


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for pat, tok in _MULTI:
            if text.startswith(pat, i):
                tokens.append((tok, i))
                i += len(pat)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE:
            tokens.append((_SINGLE[ch], i))
            i += 1
            continue
        if ch in "10":
            tokens.append(("const:" + ch, i))
            i += 1
            continue
        if ch.isalpha() and ch.islower():
            j = i + 1
            while j < len(text) and text[j].isalpha() and text[j].islower():
                j += 1
            word = text[i:j]
            if word == "neg":
                tokens.append(("neg", i))
                i = j
                continue
            if len(word) == 1:
                k = j
                while k < len(text) and text[k].isdigit():
                    k += 1
                tokens.append(("var:" + text[i:k], i))
                i = k
                continue
            raise ParseError(f"unknown word {word!r}", i)
        raise ParseError(f"unexpected character {ch!r}", i)
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

    def expect(self, tok):
        if self.peek() != tok:
            raise ParseError(f"expected {tok!r}", self.where())
        return self.take()

    def parse_identity(self) -> Identity:
        first, _ = self.parse_term()
        rel = self.peek()
        if rel not in ("=", ">="):
            raise ParseError("expected '=' or '>='", self.where())
        if rel == ">=":
            self.take()
            second, _ = self.parse_term()
            if self.peek() is not None:
                raise ParseError("trailing input", self.where())
            return Identity((first, second), GEQ)
        terms = [first]
        while self.peek() == "=":
            self.take()
            terms.append(self.parse_term()[0])
        if self.peek() is not None:
            raise ParseError("trailing input", self.where())
        return Identity(tuple(terms), EQ)

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
            self.expect(")")
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


def _power(var: str, k: int) -> Term:
    t: Term = Var(var)
    for _ in range(k - 1):
        t = BinOp("*", t, Var(var))
    return t


def _shortcut(name: str) -> str | None:
    """Expand a named identity to its source text."""
    if name == "prel":
        return "(x -> y) \\/ (y -> x) >= 1"
    if name == "sem":
        return (
            "((u \\ ((x / (x \\/ y)) * u)) /\\ 1)"
            " \\/ (((v * (y / (x \\/ y))) / v) /\\ 1) = 1"
        )
    if name == "div":
        return "x /\\ y = x * (x \\ y) = (y / x) * x"
    if name == "inv":
        return "neg neg x = x"
    if name == "idem":
        return "x * x = x"
    if name == "stone":
        return "neg x \\/ neg neg x = 1"
    return None


def parse_identity(text: str) -> Identity:
    """Parse an identity, expanding named shortcuts first."""
    stripped = text.strip()
    expansion = _shortcut(stripped)
    if expansion is not None:
        return parse_identity(expansion)
    if stripped.startswith("potent:"):
        try:
            k = int(stripped.split(":", 1)[1])
        except ValueError:
            raise ParseError("potent:n needs an integer", 0) from None
        if not 1 <= k < MAX_TERM_DEPTH:  # x^(n+1) is n+1 levels deep
            raise ParseError(f"potent:n needs 1 <= n < {MAX_TERM_DEPTH}", 0)
        return Identity((_power("x", k), _power("x", k + 1)), EQ)
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


def compile_term(alg: FiniteRL, t: Term, variables: tuple[str, ...]):
    """Compile ``t`` over ``alg`` to a function of an assignment tuple that
    gives ``variables`` their values in order.

    Tables, constants and errors are resolved here, once: a negation
    checks for the zero before compiling its argument, and a binary node
    compiles both operands before it rejects ``->`` on a non-commutative
    algebra or builds a meet or join table (only a term that uses one
    needs the order to have it).
    """
    if isinstance(t, Var):
        return itemgetter(variables.index(t.name))
    if isinstance(t, Const):
        if t.symbol == "1":
            value = alg.unit
        elif alg.zero is None:
            raise UnsupportedSymbolError("constant 0 on an unpointed algebra")
        else:
            value = alg.zero
        return lambda env: value
    if isinstance(t, Neg):
        if alg.zero is None:
            raise UnsupportedSymbolError("negation on an unpointed algebra")
        to_zero = tuple(row[alg.zero] for row in alg.ldiv)
        arg = compile_term(alg, t.arg, variables)
        return lambda env: to_zero[arg(env)]
    left = compile_term(alg, t.left, variables)
    right = compile_term(alg, t.right, variables)
    if t.op == "->" and not validate(alg, ["commutative"]).ok:
        raise UnsupportedSymbolError("arrow on a non-commutative algebra")
    if t.op == "/":  # a / b: numerator a, denominator b
        rdiv = alg.rdiv
        return lambda env: rdiv[right(env)][left(env)]
    if t.op == "/\\":
        table = meet_table(alg)
    elif t.op == "\\/":
        table = join_table(alg)
    elif t.op in ("*", "\\", "->"):
        table = alg.product if t.op == "*" else alg.ldiv
    else:
        raise FormatError(f"unknown operator {t.op!r}")
    return lambda env: table[left(env)][right(env)]


def check_identity(alg: FiniteRL, ident: Identity) -> IdentityResult:
    """Evaluate over every assignment; report the least failing one."""
    variables = ident.variables()
    compiled = [compile_term(alg, t, variables) for t in ident.terms]
    for assignment in itertools.product(range(alg.size), repeat=len(variables)):
        values = [term(assignment) for term in compiled]
        if ident.relation == GEQ:
            ok = alg.le(values[1], values[0])
        else:
            ok = all(v == values[0] for v in values[1:])
        if not ok:
            shown = ", ".join(
                f"{v}={alg.labels[i]}" for v, i in zip(variables, assignment)
            )
            sides = " , ".join(alg.labels[v] for v in values)
            return IdentityResult(False, variables, assignment, f"{shown}: values {sides}")
    return IdentityResult(True, variables)
