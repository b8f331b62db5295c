import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslat import (
    ChainFlags,
    UnsupportedSymbolError,
    check_identity,
    enumerate_chains,
    format_identity,
    godel,
    lukasiewicz,
    parse_identity,
    two,
    validate,
    vs_a,
    vs_b,
    vs_c,
    with_zero,
)
from reslat.identities import BinOp, Const, Identity, Neg, ParseError, Var, compile_term

from oracles import rpn_eval


def test_parse_basic_forms():
    ident = parse_identity("x*1 = x")
    assert ident.relation == "EQ" and len(ident.terms) == 2
    assert format_identity(ident) == "x * 1 = x"

    prel = parse_identity("prel")
    assert prel.relation == "GEQ"
    assert format_identity(prel) == "(x -> y) \\/ (y -> x) >= 1"

    div = parse_identity("div")
    assert len(div.terms) == 3
    assert format_identity(div) == "x /\\ y = x * (x \\ y) = (y / x) * x"


def test_parse_unicode_aliases():
    a = parse_identity("x ∧ y = x*(x\\y)")
    b = parse_identity("x /\\ y = x * (x \\ y)")
    assert a == b
    assert parse_identity("¬x ∨ ¬¬x = 1") == parse_identity("stone")


def test_precedence():
    ident = parse_identity("x /\\ y \\/ z = x \\ y * z")
    left, right = ident.terms
    assert left == BinOp("\\/", BinOp("/\\", Var("x"), Var("y")), Var("z"))
    assert right == BinOp("\\", Var("x"), BinOp("*", Var("y"), Var("z")))
    # divisions are left-associative
    assert parse_identity("x \\ y \\ z = 1").terms[0] == BinOp(
        "\\", BinOp("\\", Var("x"), Var("y")), Var("z")
    )


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_identity("x * = y")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_identity("x + y = x")
    with pytest.raises(ParseError):
        parse_identity("xy = x")
    with pytest.raises(ParseError):
        parse_identity("x = y >= z")


def test_parse_depth_limit():
    from reslat.identities import MAX_TERM_DEPTH as d

    # d factors make a term d levels deep; d parentheses may be open at once
    for text in (" * ".join(["x"] * d) + " = x", "neg " * (d - 1) + "x = x", "(" * d + "x" + ")" * d + " = x", f"potent:{d - 1}"):
        parse_identity(text)
    for text, position in (
        (" * ".join(["x"] * (d + 1)) + " = x", 4 * d - 2),
        ("neg " * d + "x = x", 0),
        ("(" * (d + 1) + "x" + ")" * (d + 1) + " = x", d),
        (f"potent:{d}", 0),
    ):
        with pytest.raises(ParseError, match=f"{d} levels|n < {d}") as exc:
            parse_identity(text)
        assert exc.value.position == position


def test_potent_shortcut():
    ident = parse_identity("potent:2")
    assert format_identity(ident) == "x * x = x * x * x"


_leaves = st.sampled_from([Var("x"), Var("y"), Var("z"), Const("1"), Const("0")])


def _combine(children):
    op = st.sampled_from(["*", "/\\", "\\/", "\\", "/", "->"])
    return st.one_of(
        st.builds(BinOp, op, children, children),
        st.builds(Neg, children),
    )


_terms = st.recursive(_leaves, _combine, max_leaves=6)
_identities = st.builds(
    lambda lhs, rhs, geq: Identity((lhs, rhs), "GEQ" if geq else "EQ"),
    _terms,
    _terms,
    st.booleans(),
)


@settings(deadline=None, max_examples=200)
@given(_identities)
def test_pretty_print_round_trip(ident):
    assert parse_identity(format_identity(ident)) == ident


def test_tree_walk_agrees_with_stack_machine_on_100_random_identities():
    # compile_term against the oracle's postfix machine on every assignment.
    # The non-commutative chains tell x / y from y \ x, so reading one
    # division as the other cannot pass; -> is drawn on commutative ones only.
    rng = random.Random(20240817)
    noncomm = [a for a in enumerate_chains(4, ChainFlags()) if not validate(a, ("commutative",)).ok]
    pool = [
        with_zero(lukasiewicz(3), 0),
        with_zero(lukasiewicz(4), 0),
        with_zero(godel(3), 0),
        with_zero(godel(4), 0),
        with_zero(vs_b(), 0),
    ] + [with_zero(a, 0) for a in noncomm]
    variables = ("x", "y", "z")

    def random_term(ops, depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Var("x"), Var("y"), Var("z"), Const("1"), Const("0")])
        if rng.random() < 0.15:
            return Neg(random_term(ops, depth - 1))
        return BinOp(rng.choice(ops), random_term(ops, depth - 1), random_term(ops, depth - 1))

    def swap_divisions(t):  # x / y read as y \ x
        if isinstance(t, Neg):
            return Neg(swap_divisions(t.arg))
        if not isinstance(t, BinOp):
            return t
        left, right = swap_divisions(t.left), swap_divisions(t.right)
        return BinOp("\\", right, left) if t.op == "/" else BinOp(t.op, left, right)

    sided = 0  # draws whose value changes when x / y is read as y \ x
    for _ in range(100):
        alg = rng.choice(pool)
        commutative = validate(alg, ("commutative",)).ok
        term = random_term(["*", "/\\", "\\/", "\\", "/"] + (["->"] if commutative else []), 3)
        compiled, swapped = compile_term(alg, term, variables), swap_divisions(term)
        changed = False
        for assignment in itertools.product(range(alg.size), repeat=3):
            env = dict(zip(variables, assignment))
            expected = rpn_eval(alg, term, env)
            assert compiled(assignment) == expected
            changed |= rpn_eval(alg, swapped, env) != expected
        sided += changed
    assert len(noncomm) == 4 and sided > 0


def test_check_identity_examples():
    c = vs_c()
    assert check_identity(c, parse_identity("prel")).holds
    div = check_identity(c, parse_identity("div"))
    assert not div.holds
    assert div.assignment_dict() == {"x": 3, "y": 2}  # x = v, y = c

    assert check_identity(with_zero(lukasiewicz(3), 0), parse_identity("inv")).holds
    for alg in (vs_a(), vs_b(), vs_c()):
        assert check_identity(alg, parse_identity("potent:2")).holds
    assert check_identity(vs_b(), parse_identity("div")).holds
    assert check_identity(vs_a(), parse_identity("idem")).holds
    assert not check_identity(vs_b(), parse_identity("idem")).holds


def test_every_chain_satisfies_sem_and_commutative_ones_prel(small_chain_pool):
    sem, prel = parse_identity("sem"), parse_identity("prel")
    for alg in small_chain_pool:
        if alg.size > 4:
            continue
        assert check_identity(alg, sem).holds
        if validate(alg, ("commutative",)).ok:
            assert check_identity(alg, prel).holds


def test_unsupported_symbols():
    with pytest.raises(UnsupportedSymbolError):
        check_identity(vs_b(), parse_identity("inv"))  # unpointed
    noncomm = None
    for alg in enumerate_chains(4, ChainFlags(integral=True)):
        if not validate(alg, ("commutative",)).ok:
            noncomm = alg
            break
    assert noncomm is not None
    with pytest.raises(UnsupportedSymbolError):
        check_identity(noncomm, parse_identity("prel"))  # arrow needs commutativity
    assert check_identity(noncomm, parse_identity("sem")).holds
    # the messages, on an unpointed and on a non-commutative algebra
    for alg, text, message in (
        (vs_b(), "neg 0 = 1", "negation on an unpointed algebra"),
        (vs_b(), "x = 0", "constant 0 on an unpointed algebra"),
        (noncomm, "x -> y = 1", "arrow on a non-commutative algebra"),
        (noncomm, "x -> 0 = 1", "constant 0 on an unpointed algebra"),  # operands first
    ):
        with pytest.raises(UnsupportedSymbolError, match=f"^{message}$"):
            check_identity(alg, parse_identity(text))


def test_geq_is_evaluated_as_stated():
    # on 2, x \/ y >= x*y holds; x*y >= 1 fails at (0, 0)
    alg = two()
    assert check_identity(alg, parse_identity("x \\/ y >= x*y")).holds
    res = check_identity(alg, parse_identity("x*y >= 1"))
    assert not res.holds and res.assignment == (0, 0)
