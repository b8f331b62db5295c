import functools
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
    make_algebra,
    parse_identity,
    two,
    validate,
    vs_a,
    vs_b,
    vs_c,
    with_zero,
)
from reslat import identities
from reslat.identities import NAMED_IDENTITIES, BinOp, Const, Identity, IdentityResult, Neg, ParseError, TermEvaluator, Var

from oracles import naive_check_identity, rpn_eval
from test_algebra import diamond


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
    # the longer symbol wins: a join, then one left division spelled twice
    join, ldiv = BinOp("\\/", Var("x"), Var("y")), BinOp("\\", Var("x"), Var("y"))
    assert parse_identity("x\\/y = x\\\\y") == Identity((join, ldiv), "EQ")
    assert identities._tokenize("10 x10") == [("const:1", 0), ("const:0", 1), ("var:x10", 3)]


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
    for text, message, position in (
        ("negx = x", "unknown word 'negx'", 0),
        ("x = X", "unexpected character 'X'", 4),
        ("x - y = x", "unexpected character '-'", 2),
        ("x² = x*x", "unexpected character '²'", 1),  # variables are [a-z][0-9]* in ASCII
        ("é = 1", "unexpected character 'é'", 0),
        ("x٣ = x", "unexpected character '٣'", 1),
    ):
        with pytest.raises(ParseError, match=message) as exc:
            parse_identity(text)
        assert exc.value.position == position


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
    # the evaluator's value list against the oracle's postfix machine on
    # every assignment, in itertools.product order.
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
        (values,) = TermEvaluator(alg).values([term], dict.fromkeys(variables, range(alg.size)))
        swapped = swap_divisions(term)
        assert len(values) == alg.size**3
        changed = False
        for value, assignment in zip(values, itertools.product(range(alg.size), repeat=3)):
            env = dict(zip(variables, assignment))
            expected = rpn_eval(alg, term, env)
            assert value == expected
            changed |= rpn_eval(alg, swapped, env) != expected
        sided += changed
    assert len(noncomm) == 4 and sided > 0


def _oracle_pool():
    noncomm = [a for a in enumerate_chains(4, ChainFlags()) if not validate(a, ("commutative",)).ok]
    assert len(noncomm) == 4
    pool = [lukasiewicz(3), lukasiewicz(5), godel(3), godel(5), diamond()] + noncomm
    return [with_zero(a, 0) for a in pool] + [vs_b(), vs_c(), diamond()]


def _random_term(rng, leaves, ops, pointed, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    if pointed and rng.random() < 0.15:
        return Neg(_random_term(rng, leaves, ops, pointed, depth - 1))
    return BinOp(rng.choice(ops), _random_term(rng, leaves, ops, pointed, depth - 1), _random_term(rng, leaves, ops, pointed, depth - 1))


def test_check_identity_agrees_with_the_naive_oracle_on_1200_random_identities():
    # Equation chains of 2-3 terms and >= identities, on chains, the
    # non-commutative 4-chains (which tell x / y from y \ x) and the
    # diamond, where >= reads the order table, not the index order.
    # Some draws have no variables.  0 and neg are drawn on pointed
    # algebras only, -> on commutative ones only.
    rng = random.Random(20261018)
    pool = [(a, a.zero is not None, validate(a, ("commutative",)).ok) for a in _oracle_pool()]
    random_term = functools.partial(_random_term, rng)

    seen = {"holds": 0, "fails": 0, "variable-free fails": 0, "fails by the order table": 0}
    for _ in range(1200):
        alg, pointed, commutative = rng.choice(pool)
        variables = rng.choice([(), ("x",), ("x", "y"), ("x", "y", "z")])
        leaves = [Var(v) for v in variables] + [Const("1")] + ([Const("0")] if pointed else [])
        ops = ["*", "/\\", "\\/", "\\", "/"] + (["->"] if commutative else [])
        if rng.random() < 0.5:
            ident = Identity(tuple(random_term(leaves, ops, pointed, 3) for _ in range(2)), "GEQ")
        else:
            ident = Identity(tuple(random_term(leaves, ops, pointed, 3) for _ in range(rng.choice((2, 3)))), "EQ")
        result = check_identity(alg, ident)
        assert result == naive_check_identity(alg, ident), format_identity(ident)
        seen["holds" if result.holds else "fails"] += 1
        if not result.holds:
            seen["variable-free fails"] += not result.variables
            env = dict(zip(result.variables, result.assignment))
            first, second = (rpn_eval(alg, t, env) for t in ident.terms[:2])
            seen["fails by the order table"] += ident.relation == "GEQ" and second <= first
    assert min(seen.values()) > 0, seen


def test_named_identities_agree_with_the_naive_oracle():
    for alg in _oracle_pool():
        for name in (*NAMED_IDENTITIES, "potent:2"):
            ident = parse_identity(name)
            try:
                result = check_identity(alg, ident)
            except UnsupportedSymbolError:
                continue
            assert result == naive_check_identity(alg, ident), (alg, name)


def _record_lists(monkeypatch):
    """Lengths of the value lists ``check_identity`` compares."""
    lengths = []
    values = TermEvaluator.values

    def recording(self, terms, domains):
        out = values(self, terms, domains)
        lengths.extend(map(len, out))
        return out

    monkeypatch.setattr(TermEvaluator, "values", recording)
    return lengths


def test_least_failure_in_a_later_block(monkeypatch):
    monkeypatch.setattr(identities, "BLOCK_CELLS", 4)
    lengths = _record_lists(monkeypatch)
    alg = lukasiewicz(4)
    ident = parse_identity("x * y * z >= x /\\ y /\\ z")
    result = check_identity(alg, ident)
    # x and y are fixed in each block of 4; (0, *) holds, so the least
    # failure (1, 1, 1) is in the sixth block
    assert result.assignment == (1, 1, 1) and result == naive_check_identity(alg, ident)
    assert lengths == [4] * 12
    lengths.clear()
    assert check_identity(alg, parse_identity("x * (y * z) = (x * y) * z")).holds
    assert lengths == [4] * 32


def test_six_variables_stop_at_the_first_failing_block(monkeypatch):
    lengths = _record_lists(monkeypatch)
    alg = lukasiewicz(12)  # 12^6 = 2,985,984 assignments; blocks of 12^4 fix u and v
    result = check_identity(alg, parse_identity("u \\/ v \\/ w \\/ x \\/ y \\/ z = x"))
    assert result.assignment == (0, 0, 0, 0, 0, 1)
    assert result.detail == "u=0, v=0, w=0, x=0, y=0, z=a1: values a1 , 0"
    assert lengths == [12**4] * 2 and 12**4 <= identities.BLOCK_CELLS < 12**5


@pytest.mark.parametrize("n", [16, 17])
def test_both_sides_of_the_pair_index_agree_with_the_naive_oracle(n):
    # on 16 elements a pair index a * n + b still fits in a byte, so two
    # varying operands are read through one translation; from 17 on, one
    # cell is looked up per entry
    rng = random.Random(n)
    pool = [with_zero(lukasiewicz(n), 0), with_zero(godel(n), 0)]
    leaves = [Var("x"), Var("y"), Const("1"), Const("0")]
    ops = ["*", "/\\", "\\/", "\\", "/", "->"]
    fails = 0
    for _ in range(30):
        alg = rng.choice(pool)
        relation = rng.choice(["EQ", "GEQ"])
        ident = Identity(tuple(_random_term(rng, leaves, ops, True, 3) for _ in range(2)), relation)
        result = check_identity(alg, ident)
        assert result == naive_check_identity(alg, ident), format_identity(ident)
        fails += not result.holds
    assert 0 < fails < 30
    # (x, y) spread over (x, y, z) strides, (x, z) repeats whole blocks
    alg = pool[0]
    ident = parse_identity("x * y * (z \\/ x) = x * y * z \\/ x * y * x")
    assert check_identity(alg, ident) == naive_check_identity(alg, ident) == IdentityResult(True, ("x", "y", "z"))
    (values,) = TermEvaluator(alg).values(ident.terms[:1], dict.fromkeys("xyz", range(n)))
    assert isinstance(values, (bytes, bytearray)) and len(values) == n**3


def test_right_division_reads_its_operands_swapped():
    # x / y is rdiv[y][x]; on the non-commutative 4-chains it differs from
    # y \ x, with both operands varying or either one constant
    noncomm = [with_zero(a, 0) for a in enumerate_chains(4, ChainFlags()) if not validate(a, ("commutative",)).ok]
    texts = ("x / y = y \\ x", "x / y >= x", "(x / y) * y >= x /\\ y", "x / 1 = x", "1 / x = x \\ 1", "0 / x = x \\ 0", "x / 0 >= y / x")
    sided = 0
    for alg in noncomm:
        for text in texts:
            ident = parse_identity(text)
            assert check_identity(alg, ident) == naive_check_identity(alg, ident), (alg.name, text)
        sided += not check_identity(alg, parse_identity(texts[0])).holds
    assert len(noncomm) == 4 and sided > 0


def test_constants_negation_and_variable_free_identities_agree_with_the_naive_oracle():
    texts = (
        "neg 0 = 1", "neg 1 = 0", "0 >= 1", "1 >= 0", "0 \\ 0 = 1 / 0 = neg 0", "neg neg 0 = neg 1",
        "neg x * x = 0", "x \\/ neg x = 1", "neg (x * y) >= neg x \\/ neg y", "0 / x = neg x", "neg x = neg neg neg x",
    )
    for alg in _oracle_pool():
        if alg.zero is None:
            continue
        for text in texts:
            ident = parse_identity(text)
            assert check_identity(alg, ident) == naive_check_identity(alg, ident), (alg.name, text)
    alg = with_zero(lukasiewicz(3), 0)
    assert check_identity(alg, parse_identity("0 >= 1")) == IdentityResult(False, (), (), "values 0 , 1")
    assert check_identity(alg, parse_identity("neg 1 = 0 = 1")) == IdentityResult(False, (), (), "values 0 , 0 , 1")


def test_geq_reads_the_diamonds_order_table():
    # at x = 0, y = a the left side is a \ 0 = b: b >= a fails in the
    # order, though b comes after a in the index order
    alg = diamond()
    ident = parse_identity("(y \\ x) \\/ x >= y")
    result = check_identity(alg, ident)
    assert result == naive_check_identity(alg, ident)
    assert result == IdentityResult(False, ("x", "y"), (0, 1), "x=0, y=a: values b , a")


def test_five_variables_fail_in_a_late_block(monkeypatch):
    lengths = _record_lists(monkeypatch)
    alg = lukasiewicz(12)  # 12^5 assignments in 12 blocks of 12^4, each fixing v
    ident = parse_identity("v * v * v * (w \\/ x) = v * v * v * (y /\\ z)")
    result = check_identity(alg, ident)
    # v^3 is 0 up to v = 7, and at v = 8 it is a2, so the right side leaves
    # 0 first at y = z = a10; naive_check_identity would take seconds to
    # reach the ninth block, so the same tables are scanned directly
    p = alg.product
    least = next(
        (v, w, x, y, z)
        for v, w, x, y, z in itertools.product(range(12), repeat=5)
        if p[p[p[v][v]][v]][max(w, x)] != p[p[p[v][v]][v]][min(y, z)]
    )
    assert result == IdentityResult(False, ("v", "w", "x", "y", "z"), least, "v=a8, w=0, x=0, y=a10, z=a10: values 0 , a1")
    env = dict(zip(result.variables, least))
    assert [rpn_eval(alg, t, env) for t in ident.terms] == [0, 1]
    assert lengths == [12**4] * 18


def test_algebras_above_256_elements_keep_list_values():
    # a pointed Goedel chain: x \ y = y / x is the top when x <= y and y
    # otherwise; each identity below but the first fails within a few
    # assignments, since the naive oracle would take minutes on 257^2 of them
    n = 257
    meet = [[min(x, y) for y in range(n)] for x in range(n)]
    div = [[n - 1 if x <= y else y for y in range(n)] for x in range(n)]
    alg = make_algebra(product=meet, unit=n - 1, ldiv=div, rdiv=div, zero=0)
    derived = make_algebra(product=meet, unit=n - 1, zero=0)
    assert (derived.ldiv, derived.rdiv) == (alg.ldiv, alg.rdiv)
    for text in ("x /\\ neg x = 0", "neg neg x = x", "x * y >= x \\/ y", "x / y = x \\ y"):
        ident = parse_identity(text)
        assert check_identity(alg, ident) == naive_check_identity(alg, ident), text
    (values,) = TermEvaluator(alg).values([parse_identity("neg x = x").terms[0]], {"x": range(n)})
    assert type(values) is list and values == [n - 1] + [0] * (n - 1)


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


@pytest.mark.parametrize("op", ["%", "", "<"])
def test_an_operator_outside_the_grammar_is_a_format_error(op):
    """The parser never builds such a term; one built by hand is refused
    when its table is looked up."""
    from reslat import FormatError

    with pytest.raises(FormatError, match=f"^unknown operator {op!r}$"):
        check_identity(two(), Identity((BinOp(op, Var("x"), Var("y")), Var("x")), "EQ"))
