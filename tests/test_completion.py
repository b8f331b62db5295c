import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reslat import (
    CHAIN,
    Budget,
    BudgetExceededError,
    ChainFlags,
    CompletionProblem,
    FormatError,
    bounded_amalgam_search,
    check_identity,
    count_chains,
    enumerate_chains,
    iter_completions,
    make_algebra,
    parse_identity,
    validate,
    vs_b,
)
from reslat.completion import SearchStats


def test_trivial_completion():
    table = next(iter_completions(CompletionProblem(1, 0, {}, {}, {})), None)
    assert table is not None and len(table) == 1


def test_blanked_cell_of_b_is_forced_back():
    b = vs_b()
    pins = {
        (x, y): b.product[x][y]
        for x in range(4)
        for y in range(4)
        if (x, y) != (1, 1)
    }
    ldiv_pins = {(x, z): b.ldiv[x][z] for x in range(4) for z in range(4)}
    rdiv_pins = {(x, z): b.rdiv[x][z] for x in range(4) for z in range(4)}
    problem = CompletionProblem(4, 3, pins, ldiv_pins, rdiv_pins, flags=ChainFlags(commutative=True, integral=True))
    solutions = list(iter_completions(problem))
    assert len(solutions) == 1
    assert tuple(map(tuple, solutions[0])) == b.product  # b*b = u restored


def test_unit_product_pins_below_unit_are_unsat():
    # x*y = 1 for x, y < 1 contradicts integrality
    problem = CompletionProblem(3, 2, {(1, 1): 2}, {}, {}, flags=ChainFlags(integral=True))
    assert next(iter_completions(problem), None) is None


def test_budget_exceeded():
    problem = CompletionProblem(6, 5, {}, {}, {}, flags=ChainFlags(integral=True))
    with pytest.raises(BudgetExceededError):
        list(iter_completions(problem, Budget(max_nodes=3)))


def test_enumeration_counts():
    assert count_chains(1, ChainFlags()) == 1
    assert count_chains(2, ChainFlags(integral=True)) == 1
    assert count_chains(3, ChainFlags(integral=True, commutative=True)) == 2
    assert count_chains(3, ChainFlags()) == 3  # one extra with the unit inside


def test_three_element_commutative_integral_chains():
    algs = list(enumerate_chains(3, ChainFlags(integral=True, commutative=True)))
    coatom_squares = sorted(alg.product[1][1] for alg in algs)
    assert coatom_squares == [0, 1]  # coatom squares to bottom, or is idempotent


def test_enumeration_matches_naive_oracle_n_le_3():
    from oracles import naive_chains

    for n in (1, 2, 3):
        for commutative in (False, True):
            got = {alg.product for alg in enumerate_chains(n, ChainFlags(integral=True, commutative=commutative))}
            assert got == set(naive_chains(n, integral=True, commutative=commutative))


def test_enumeration_matches_naive_oracle_n_4_commutative(naive_ci4):
    got = {alg.product for alg in enumerate_chains(4, ChainFlags(integral=True, commutative=True))}
    assert got == naive_ci4
    assert count_chains(4, ChainFlags(integral=True, commutative=True)) == len(naive_ci4) == 6


def test_enumeration_matches_naive_oracle_n_4_integral(naive_i4):
    got = {alg.product for alg in enumerate_chains(4, ChainFlags(integral=True))}
    assert got == naive_i4
    assert count_chains(4, ChainFlags(integral=True)) == len(naive_i4) == 8


def test_every_streamed_algebra_validates_with_its_flags():
    flags = ChainFlags(integral=True, commutative=True)
    for n in (1, 2, 3, 4):
        for alg in enumerate_chains(n, flags):
            assert validate(alg, ("lattice", "monoid", "residuation", "integral", "commutative", "chain")).ok


def test_divisible_flag_matches_div_identity():
    div = parse_identity("div")
    for n in range(1, 6):
        for base in (ChainFlags(), ChainFlags(integral=True, commutative=True)):
            flagged = replace(base, divisible=True)
            with_flag = [a.product for a in enumerate_chains(n, flagged)]
            by_filter = [a.product for a in enumerate_chains(n, base) if check_identity(a, div).holds]
            assert with_flag == by_filter
            assert count_chains(n, flagged) == len(by_filter)
            if n == 4 and base.integral:
                assert len(with_flag) == 4  # L4, G4, and the two mixed ordinal sums


def test_potent_flag():
    pot = parse_identity("potent:2")
    with_flag = {a.product for a in enumerate_chains(4, ChainFlags(integral=True, commutative=True, k_potent=2))}
    by_filter = {
        a.product
        for a in enumerate_chains(4, ChainFlags(integral=True, commutative=True))
        if check_identity(a, pot).holds
    }
    assert with_flag == by_filter


def test_pointed_flag_designates_bottom():
    for alg in enumerate_chains(3, ChainFlags(integral=True, pointed=True)):
        assert alg.zero == 0
        assert validate(alg, ("zero-bounded",)).ok


def test_streams_are_deterministic():
    flags = ChainFlags(integral=True)
    first = [a.product for a in enumerate_chains(4, flags)]
    second = [a.product for a in enumerate_chains(4, flags)]
    assert first == second


def test_all_solutions_mode_equals_enumeration():
    flags = ChainFlags(integral=True, commutative=True)
    streamed = [a.product for a in enumerate_chains(4, flags)]
    problem = CompletionProblem(4, 3, {}, {}, {}, flags=ChainFlags(commutative=True, integral=True))
    direct = [tuple(map(tuple, t)) for t in iter_completions(problem)]
    assert streamed == direct


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_partial_pins_of_valid_chains_always_complete(small_chain_pool, data):
    alg = data.draw(st.sampled_from([a for a in small_chain_pool if a.leq is None]))
    n = alg.size
    cells = [(x, y) for x in range(n) for y in range(n)]
    kept = data.draw(st.sets(st.sampled_from(cells))) if n > 1 else set()
    with_divs = data.draw(st.booleans())
    problem = CompletionProblem(
        size=n,
        unit=alg.unit,
        product_pins={c: alg.product[c[0]][c[1]] for c in kept},
        ldiv_pins={c: alg.ldiv[c[0]][c[1]] for c in cells} if with_divs else {},
        rdiv_pins={c: alg.rdiv[c[0]][c[1]] for c in cells} if with_divs else {},
        flags=ChainFlags(integral=alg.unit == n - 1),
    )
    table = next(iter_completions(problem), None)
    assert table is not None  # the original table is one completion
    first = make_algebra(product=table, unit=problem.unit, order=CHAIN)
    assert validate(first, ("lattice", "monoid", "residuation", "chain")).ok
    for (x, y), v in problem.product_pins.items():
        assert first.product[x][y] == v
    if with_divs:
        assert first.ldiv == alg.ldiv and first.rdiv == alg.rdiv


def test_size_validation():
    with pytest.raises(FormatError):
        count_chains(0, ChainFlags())
    with pytest.raises(FormatError):
        CompletionProblem(3, 5, {}, {}, {}).check_well_formed()
    with pytest.raises(FormatError):
        CompletionProblem(3, 1, {}, {}, {}, flags=ChainFlags(integral=True)).check_well_formed()


# ---------------------------------------------------------------------------
# the census of scripts/chain_census.py


def _census_columns():
    path = Path(__file__).resolve().parents[1] / "scripts" / "chain_census.py"
    spec = importlib.util.spec_from_file_location("chain_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COLUMNS


# rows n = 1..6; columns in the order of the script's COLUMNS
CENSUS_COUNTS = (
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1),
    (3, 2, 2, 2, 2, 1),
    (15, 8, 6, 4, 5, 1),
    (84, 44, 22, 8, 15, 1),
    (575, 308, 94, 16, 53, 1),
)


def test_census_columns_are_pinned():
    columns = _census_columns()
    assert [name for name, _ in columns] == [
        "all", "integral", "comm. integral", "divisible CI", "2-potent CI", "idempotent CI",
    ]
    got = tuple(tuple(count_chains(n, flags) for _, flags in columns) for n in range(1, 7))
    assert got == CENSUS_COUNTS


def test_census_columns_match_naive_oracle_n_le_4(naive_tables):
    # the all, integral and commutative integral columns
    for column, (_, flags) in enumerate(_census_columns()[:3]):
        for n in (1, 2, 3, 4):
            want = naive_tables[n, flags.integral, flags.commutative]
            assert {alg.product for alg in enumerate_chains(n, flags)} == want
            assert count_chains(n, flags) == len(want) == CENSUS_COUNTS[n - 1][column]


# ---------------------------------------------------------------------------
# exactness pins: the engine's search order and work counts, which depend on
# the order of propagation; a faster engine must reproduce them exactly


# enumerate_chains(5, integral) in stream order, each table row-major
INTEGRAL_5_CHAINS = (
    "0000000001000020000301234", "0000000001000020001301234", "0000000001000020002301234",
    "0000000001000020003301234", "0000000001000020011301234", "0000000001000020023301234",
    "0000000001000120001301234", "0000000001000120011301234", "0000000001000120012301234",
    "0000000001000220003301234", "0000000001000220023301234", "0000000001001120011301234",
    "0000000001002220022301234", "0000000001002220023301234", "0000000001000020113301234",
    "0000000001000020123301234", "0000000001000220123301234", "0000000001002220123301234",
    "0000000001012220122301234", "0000000001012220123301234", "0000000011000120003301234",
    "0000000011000120113301234", "0000000011000120123301234", "0000000011000220003301234",
    "0000000011000220023301234", "0000000011002220023301234", "0000000011000220113301234",
    "0000000011000220123301234", "0000000011001220123301234", "0000000011002220123301234",
    "0000000011012220123301234", "0000000111002220022301234", "0000000111002220023301234",
    "0000000111002220123301234", "0000000111012220122301234", "0000000111012220123301234",
    "0000001111011120111301234", "0000001111011120112301234", "0000001111011120113301234",
    "0000001111011120123301234", "0000001111011220113301234", "0000001111011220123301234",
    "0000001111012220122301234", "0000001111012220123301234",
)


def test_integral_5_chain_stream_is_pinned():
    got = tuple("".join(map(str, sum(alg.product, ()))) for alg in enumerate_chains(5, ChainFlags(integral=True)))
    assert got == INTEGRAL_5_CHAINS


# (nodes, solutions) summed over every unit, for n = 1..6, in the first
# three census columns
UNPINNED_SEARCH_TOTALS = (
    ((0, 1), (0, 1), (2, 3), (38, 15), (378, 84), (3780, 575)),  # all
    ((0, 1), (0, 1), (2, 2), (19, 8), (154, 44), (1719, 308)),  # integral
    ((0, 1), (0, 1), (2, 2), (11, 6), (55, 22), (314, 94)),  # comm. integral
)


@pytest.mark.parametrize("column", range(3))
def test_unpinned_search_totals_are_pinned(column):
    _, flags = _census_columns()[column]
    got = []
    for n in range(1, 7):
        stats = SearchStats()
        for unit in [n - 1] if flags.integral else range(n):
            problem = CompletionProblem(n, unit, {}, {}, {}, flags=flags)
            for _ in iter_completions(problem, stats=stats):
                pass
        got.append((stats.nodes, stats.solutions))
    assert tuple(got) == UNPINNED_SEARCH_TOTALS[column]


def test_vs_search_work_per_size_is_pinned(vs):
    report = bounded_amalgam_search(vs, 10)
    assert report.verdict == "UNSAT"
    got = [(s.size, s.placements, s.nodes) for s in report.sizes]
    assert got == [(5, 2, 0), (6, 15, 0), (7, 63, 0), (8, 196, 0), (9, 504, 0), (10, 1134, 0)]


# ---------------------------------------------------------------------------
# the engine against the naive oracle, under random pins


def _naive_residual(row_or_column, z):
    # the greatest s with (product at s) <= z; s = 0 always qualifies
    return max(s for s, p in enumerate(row_or_column) if p <= z)


def _meets_pins(t, product_pins, ldiv_pins, rdiv_pins):
    m = len(t)
    return (
        all(t[x][y] == v for (x, y), v in product_pins.items())
        and all(_naive_residual(t[x], z) == d for (x, z), d in ldiv_pins.items())
        and all(_naive_residual([t[s][y] for s in range(m)], z) == d for (y, z), d in rdiv_pins.items())
    )


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_pinned_completions_match_naive_oracle(naive_tables, data):
    m = data.draw(st.integers(1, 4), label="m")
    integral = data.draw(st.booleans(), label="integral")
    commutative = data.draw(st.booleans(), label="commutative")
    unit = m - 1 if integral else data.draw(st.integers(0, m - 1), label="unit")
    chains = sorted(t for t in naive_tables[m, integral, commutative] if t[unit] == tuple(range(m)))
    # pins read off a chain with this unit, each replaced by a random value
    # with probability 1/10 (mostly satisfiable), or all drawn at random
    # (mostly contradictory)
    source = data.draw(st.sampled_from(chains), label="source") if chains and data.draw(st.booleans()) else None
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    pins = []
    for kind in ("product", "ldiv", "rdiv"):
        keys = data.draw(st.lists(cell, max_size=m * m, unique=True), label=f"{kind} cells")
        table = {}
        for x, y in keys:
            if source is not None and data.draw(st.integers(0, 9), label="keep") > 0:
                if kind == "product":
                    table[x, y] = source[x][y]
                elif kind == "ldiv":
                    table[x, y] = _naive_residual(source[x], y)
                else:
                    table[x, y] = _naive_residual([source[s][x] for s in range(m)], y)
            else:
                table[x, y] = data.draw(st.integers(0, m - 1), label="value")
        pins.append(table)
    problem = CompletionProblem(m, unit, *pins, flags=ChainFlags(commutative=commutative, integral=integral))
    got = [tuple(map(tuple, t)) for t in iter_completions(problem)]
    event("satisfiable" if got else "unsatisfiable")
    assert len(got) == len(set(got))
    assert set(got) == {t for t in chains if _meets_pins(t, *pins)}
