import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslat import (
    CHAIN,
    PARTIAL_IRL_FLAGS,
    FormatError,
    NotResiduatedError,
    check_identity,
    congruence_filters,
    filter_to_congruence,
    godel,
    lukasiewicz,
    make_algebra,
    parse_identity,
    quotient,
    relabel,
    residuals_from_product,
    tables_equal,
    trivial,
    validate,
    validate_morphism,
    vs_a,
    vs_b,
    vs_c,
    vs_k_triple,
    with_zero,
)
from reslat.algebra import CongruenceFilter, _bound_table, _glb, _lub, definedness, meet_table, join_table

from oracles import brute_force_congruences, brute_force_filters

ALL_FLAGS = ("lattice", "monoid", "residuation", "integral", "commutative", "chain")


@pytest.mark.parametrize(
    "order, detail, witness",
    [
        ([[0, 1], [0, 1]], "order not reflexive", (0,)),
        ([[1, 1], [1, 1]], "order not antisymmetric", (0, 1)),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "order not transitive", (0, 1, 2)),
        # 0 and 1 are minimal and incomparable: nothing lies below both
        ([[1, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]], "pair has no meet", (0, 1)),
        # 2 is below the incomparable 0 and 1, and nothing is above both
        ([[1, 0, 0], [0, 1, 0], [1, 1, 1]], "pair has no join", (0, 1)),
    ],
)
def test_lattice_check_rejects_orders_that_are_no_lattice(order, detail, witness):
    # explicit divisions, so that make_algebra derives nothing from the order
    table = [[0] * len(order) for _ in order]
    alg = make_algebra(product=table, unit=0, order=order, ldiv=table, rdiv=table)
    bad = validate(alg, ("lattice",)).first_failure()
    assert (bad.flag, bad.detail, bad.witness) == ("lattice", detail, witness)


def diamond():
    # 2x2 Goedel square: 0 < a, b < 1 with a, b incomparable, product = meet
    leq = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    return make_algebra(product=meet, unit=3, order=leq, labels=("0", "a", "b", "1"))


def test_figure_chains_validate():
    for alg in (vs_a(), vs_b(), vs_c()):
        assert validate(alg, ALL_FLAGS).ok


def test_trivial_algebra_passes_everything():
    rep = validate(with_zero(trivial(), 0), ALL_FLAGS + ("zero-bounded",))
    assert rep.ok


def test_diamond_is_residuated_but_not_chain():
    alg = diamond()
    rep = validate(alg, ALL_FLAGS)
    assert rep.outcome("lattice").ok
    assert rep.outcome("residuation").ok
    assert rep.outcome("commutative").ok
    assert not rep.outcome("chain").ok
    assert rep.outcome("chain").witness == (1, 2)
    # Heyting negation on the square: a \ 0 = b
    assert alg.ldiv[1][0] == 2


def test_mutated_product_breaks_residuation():
    b = vs_b()
    product = [list(row) for row in b.product]
    product[1][2] = 0  # b*v was b
    broken = make_algebra(product=product, unit=b.unit, ldiv=b.ldiv, rdiv=b.rdiv)
    rep = validate(broken, ("residuation",))
    assert not rep.ok
    # oracle: least (x, y, z) where the three-way equivalence fails
    expected = next(
        (x, y, z)
        for x, y, z in itertools.product(range(4), repeat=3)
        if not (
            (product[x][y] <= z)
            == (y <= broken.ldiv[x][z])
            == (x <= broken.rdiv[y][z])
        )
    )
    assert rep.outcome("residuation").witness == expected == (1, 2, 0)


def test_validate_rejects_malformed_tables():
    with pytest.raises(FormatError):
        make_algebra(product=[[0, 0], [0]], unit=1)
    with pytest.raises(FormatError):
        make_algebra(product=[[0, 2], [0, 1]], unit=1)
    with pytest.raises(FormatError):
        make_algebra(product=[[0, 0], [0, 1]], unit=1, labels=("x", "x"))


@pytest.mark.parametrize(
    "labels, message",
    [
        ((0, 1), "labels must be a list of strings"),
        (("a",), "labels length must equal size"),
        (("a", "a"), "labels must be distinct"),
    ],
)
def test_relabel_checks_labels_as_make_algebra_does(labels, message):
    g2 = godel(2)
    for build in (lambda: relabel(g2, labels), lambda: make_algebra(product=g2.product, unit=1, labels=labels)):
        with pytest.raises(FormatError, match=f"^{message}$"):
            build()
    from reslat import algebra_to_document, document_to_algebra

    # what relabel accepts, a document carries back
    assert document_to_algebra(algebra_to_document(relabel(g2, ["a", "b"]))).labels == ("a", "b")


def test_relabel_checks_its_name_as_make_algebra_does():
    g2 = godel(2)
    for build in (lambda: relabel(g2, ("a", "b"), name=5), lambda: make_algebra(product=g2.product, unit=1, name=5)):
        with pytest.raises(FormatError, match="^name must be a string$"):
            build()
    assert relabel(g2, ("a", "b"), name="G").name == "G" and relabel(g2, ("a", "b")).name == g2.name


def test_index_order_table_is_stored_as_chain():
    for alg in (trivial(), godel(3), vs_c()):
        n = alg.size
        table = [[int(x <= y) for y in range(n)] for x in range(n)]
        rebuilt = make_algebra(product=alg.product, unit=alg.unit, order=table)
        assert rebuilt.leq is None
        assert tables_equal(rebuilt, alg)
    # the order is validated before it is compared with the index order
    with pytest.raises(FormatError):
        make_algebra(product=[[0, 0], [0, 1]], unit=1, order=[[1, 1], [0, 2]])


def test_residuals_examples():
    b = vs_b()
    ldiv, rdiv = residuals_from_product(CHAIN, b.product)
    assert ldiv == b.ldiv and rdiv == b.rdiv
    assert ldiv[1][0] == 1  # b \ u = b
    one = trivial()
    assert residuals_from_product(CHAIN, one.product) == (((0,),), ((0,),))
    c = vs_c()
    ldiv, _ = residuals_from_product(CHAIN, c.product)
    assert ldiv[3][1] == 2  # v \ d = c
    assert ldiv[2][1] == 3  # c \ d = v


def test_not_residuated_witness():
    # join as product with unit at the bottom: {y : max(1, y) <= 0} is empty
    product = [[max(x, y) for y in range(3)] for x in range(3)]
    with pytest.raises(NotResiduatedError) as exc:
        residuals_from_product(CHAIN, product)
    assert exc.value.pair == (1, 0)


def _residuals_or_pair(order, product, derive):
    try:
        return derive(order, product)
    except NotResiduatedError as exc:
        return exc.pair


def test_residuals_agree_with_the_naive_oracle_on_random_tables():
    """Random tables up to n = 6, a third with ascending rows and a third
    with ascending rows and columns, under the index order, its reverse and
    the order of M_(n-2) (0 at the bottom, n-1 on top, the rest
    incomparable): the same divisions or the same least pair."""
    import random
    from collections import Counter

    from oracles import naive_residuals

    rng = random.Random(20)
    outcomes = Counter()
    for trial in range(1500):
        n = rng.randint(1, 6)
        product = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if trial % 3:
            product = [sorted(row) for row in product]
        if trial % 3 == 2:
            product = [list(row) for row in zip(*map(sorted, zip(*product)))]
        orders = {
            "index": CHAIN,
            "reverse": [[x >= y for y in range(n)] for x in range(n)],
            "M": [[x == y or x == 0 or y == n - 1 for y in range(n)] for x in range(n)],
        }
        for name, order in orders.items():
            got = _residuals_or_pair(order, product, residuals_from_product)
            assert got == _residuals_or_pair(order, product, naive_residuals), (name, product)
            outcomes[name, "error" if type(got[0]) is int else "divisions"] += 1
    assert min(outcomes.values()) >= 100 and len(outcomes) == 6


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_residual_round_trip_on_corpus(small_chain_pool, data):
    alg = data.draw(st.sampled_from(small_chain_pool))
    order = CHAIN if alg.leq is None else alg.leq
    assert residuals_from_product(order, alg.product) == (alg.ldiv, alg.rdiv)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_commutative_iff_divisions_coincide(small_chain_pool, data):
    alg = data.draw(st.sampled_from(small_chain_pool))
    assert validate(alg, ("commutative",)).ok == (alg.ldiv == alg.rdiv)


# ---------------------------------------------------------------------------
# filters, congruences, quotients


def test_filters_of_b():
    b = vs_b()
    filters = congruence_filters(b)
    assert [F.sorted_members() for F in filters] == [(3,), (2, 3), (0, 1, 2, 3)]


def test_filters_of_trivial_and_l3():
    assert [F.sorted_members() for F in congruence_filters(trivial())] == [(0,)]
    assert [F.sorted_members() for F in congruence_filters(lukasiewicz(3))] == [(2,), (0, 1, 2)]


def grid():
    # L3 x G3 ordered componentwise: a 3x3 square, element 3a + b is (a, b)
    l3, g3 = lukasiewicz(3), godel(3)
    pairs = list(itertools.product(range(3), repeat=2))
    return make_algebra(
        product=[[3 * l3.product[a][c] + g3.product[b][d] for c, d in pairs] for a, b in pairs],
        unit=8,
        order=[[int(a <= c and b <= d) for c, d in pairs] for a, b in pairs],
    )


def test_filters_match_subset_scan_oracle(small_chain_pool):
    for alg in small_chain_pool:
        if alg.size > 6:
            continue
        assert [F.members for F in congruence_filters(alg)] == brute_force_filters(alg)
    # a chain's up-closure is a range; these two read their order tables
    for alg in (diamond(), grid()):
        assert alg.leq is not None
        assert [F.members for F in congruence_filters(alg)] == brute_force_filters(alg)
    assert len(congruence_filters(grid())) == 6


def test_congruences_by_direct_search_match_filters(small_chain_pool):
    for alg in small_chain_pool:
        if alg.size > 5:
            continue
        via_filters = {filter_to_congruence(F) for F in congruence_filters(alg)}
        assert via_filters == set(brute_force_congruences(alg))


def test_filter_to_congruence_example():
    b = vs_b()
    F = CongruenceFilter(b, frozenset({2, 3}))
    assert filter_to_congruence(F) == ((0,), (1,), (2, 3))
    assert filter_to_congruence(CongruenceFilter(b, frozenset({3}))) == ((0,), (1,), (2,), (3,))
    assert filter_to_congruence(CongruenceFilter(b, frozenset(range(4)))) == ((0, 1, 2, 3),)


def test_quotients_of_b():
    b = vs_b()
    filters = {F.sorted_members(): F for F in congruence_filters(b)}
    q, qmap = quotient(filters[(2, 3)])
    assert tables_equal(q, lukasiewicz(3)) and qmap == (0, 1, 2, 2)
    q, qmap = quotient(filters[(3,)])
    assert tables_equal(q, b) and qmap == (0, 1, 2, 3)
    q, qmap = quotient(filters[(0, 1, 2, 3)])
    assert q.size == 1 and qmap == (0, 0, 0, 0)


def test_quotients_of_the_square():
    square = diamond()
    filters = {F.sorted_members(): F for F in congruence_filters(square)}
    for members in ((1, 3), (2, 3)):  # {a, 1} and {b, 1}
        assert tables_equal(quotient(filters[members])[0], godel(2))
    assert tables_equal(quotient(filters[(0, 1, 2, 3)])[0], trivial())
    assert quotient(filters[(3,)])[1] == (0, 1, 2, 3)
    assert tables_equal(quotient(filters[(3,)])[0], square)


def test_quotient_of_chain_is_chain(small_chain_pool):
    for alg in small_chain_pool:
        if alg.leq is not None:
            continue
        for F in congruence_filters(alg):
            q, qmap = quotient(F)
            assert q.leq is None and validate(q, ("chain",)).ok
            assert q.size == len(filter_to_congruence(F)) == len(set(qmap))
            assert validate(q, ("lattice", "monoid", "residuation")).ok


# ---------------------------------------------------------------------------
# partial algebras


def test_k_is_a_partial_irl():
    assert validate(vs_k_triple().K, PARTIAL_IRL_FLAGS).ok


def _single_cell_mutants(alg):
    """``alg`` with one cell of its product, ldiv or rdiv changed, each way."""
    for field in ("product", "ldiv", "rdiv"):
        table = getattr(alg, field)
        for x, y in itertools.product(range(alg.size), repeat=2):
            for v in range(alg.size):
                if v != table[x][y]:
                    row = table[x][:y] + (v,) + table[x][y + 1 :]
                    yield alg._replace(**{field: table[:x] + (row,) + table[x + 1 :]})


def _assert_rows_match_cell_scan(alg):
    # all-true masks send validate through the cell scan, which also checks
    # the clauses that residuation already implies on total operations
    masked = alg._replace(masks=definedness(alg))
    assert validate(alg, PARTIAL_IRL_FLAGS).checks == validate(masked, PARTIAL_IRL_FLAGS).checks


def test_total_algebra_as_partial_reduces_to_validate(small_chain_pool):
    algebras = [alg for alg in small_chain_pool if alg.size <= 4] + [diamond()]
    failures = set()
    for alg in algebras:
        _assert_rows_match_cell_scan(alg)
        for mutant in _single_cell_mutants(alg):
            _assert_rows_match_cell_scan(mutant)
            failures.update((c.flag, c.detail) for c in validate(mutant, PARTIAL_IRL_FLAGS).checks if not c.ok)
    assert failures == {
        ("monoid", "unit law fails"),
        ("monoid", "associativity fails"),
        ("residuation", "x*y <= z <=> y <= x\\z <=> x <= z/y fails"),
    }
    # above 256 elements both run the cell scan; 0 * top = 1 fails at x = 0
    big = godel(300)
    mutant = big._replace(product=(big.product[0][:-1] + (1,),) + big.product[1:])
    _assert_rows_match_cell_scan(mutant)
    assert [c.witness for c in validate(mutant).checks] == [None, (0,), (0, 299, 0)]


def test_asymmetric_product_mask_fails_partial_monoid():
    K = vs_k_triple().K
    product_mask, ldiv_mask, rdiv_mask = K.masks
    mask = [list(row) for row in product_mask]
    mask[2][1] = False  # clear c*d but keep d*c

    broken = make_algebra(
        product=K.product,
        unit=K.unit,
        ldiv=K.ldiv,
        rdiv=K.rdiv,
        masks=(mask, ldiv_mask, rdiv_mask),
    )
    rep = validate(broken, PARTIAL_IRL_FLAGS)
    assert not rep.ok
    assert rep.first_failure().flag == "monoid"


def test_partial_validation_of_k_mutants():
    # how many one- and two-cell mutants of VS.K pass as partial IRLs; the
    # double flips also pin the monotonicity clauses (without them 437 pass)
    K = vs_k_triple().K
    n = K.size
    tables = (K.product, K.ldiv, K.rdiv)
    cells = [(t, x, y) for t in range(3) for x in range(n) for y in range(n)]

    def passes(masks, tabs=tables):
        alg = make_algebra(product=tabs[0], unit=K.unit, ldiv=tabs[1], rdiv=tabs[2], masks=masks)
        return validate(alg, PARTIAL_IRL_FLAGS).ok

    def flipped(flips):
        masks = [[list(row) for row in m] for m in K.masks]
        for t, x, y in flips:
            masks[t][x][y] = not masks[t][x][y]
        return masks

    def changed(t, x, y, v):
        tabs = [[list(row) for row in tab] for tab in tables]
        tabs[t][x][y] = v
        return tabs

    assert sum(passes(flipped([c])) for c in cells) == 30
    assert sum(
        passes(K.masks, changed(t, x, y, v)) for t, x, y in cells for v in range(n) if v != tables[t][x][y]
    ) == 8
    assert sum(passes(flipped(pair)) for pair in itertools.combinations(cells, 2)) == 435


def test_zero_bounded_flag():
    b = with_zero(vs_b(), 0)
    assert validate(b, ("zero-bounded",)).ok
    assert not validate(with_zero(vs_b(), 1), ("zero-bounded",)).ok
    rep = validate(vs_b(), ("zero-bounded",))
    assert not rep.ok and rep.outcome("zero-bounded").detail == "no zero constant"


def test_meet_join_tables_on_diamond():
    alg = diamond()
    assert meet_table(alg)[1][2] == 0
    assert join_table(alg)[1][2] == 3


@pytest.mark.parametrize("n", range(1, 13))
def test_chain_lattice_rows_match_the_pairwise_bounds(n):
    # a chain in index order builds min and max row by row; the pairwise
    # glb/lub scan that serves every other order is the oracle
    alg = godel(n)
    assert alg.leq is None
    assert meet_table(alg) == _bound_table(alg, _glb, "meet")
    assert join_table(alg) == _bound_table(alg, _lub, "join")


def test_lattice_operations_keep_no_algebra_alive():
    alg = diamond()
    refs = sys.getrefcount(alg)
    assert check_identity(alg, parse_identity("x /\\ y \\/ x = x")).holds
    assert validate_morphism(alg, alg, tuple(range(alg.size))).ok
    assert sys.getrefcount(alg) == refs
