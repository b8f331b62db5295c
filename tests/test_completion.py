import hashlib
import importlib.util
import itertools
import random
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reslat import (
    CHAIN,
    BudgetExceededError,
    ChainFlags,
    CompletionProblem,
    FormatError,
    bounded_amalgam_search,
    check_identity,
    completion,
    count_chains,
    enumerate_chains,
    godel,
    iter_completions,
    lukasiewicz,
    make_algebra,
    parse_identity,
    validate,
    vs_b,
)
from reslat.completion import DEFAULT_BUDGET, SearchStats


def _rows(cells, m):
    """The engine's m*m row-major bytes as a table of row tuples."""
    return tuple(tuple(cells[i:i + m]) for i in range(0, m * m, m))


def test_trivial_completion():
    table = next(iter_completions(CompletionProblem(1, 0, {}, {}, {})), None)
    assert table == bytes([0])


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
    assert _rows(solutions[0], 4) == b.product  # b*b = u restored


def test_unit_product_pins_below_unit_are_unsat():
    # x*y = 1 for x, y < 1 contradicts integrality
    problem = CompletionProblem(3, 2, {(1, 1): 2}, {}, {}, flags=ChainFlags(integral=True))
    assert next(iter_completions(problem), None) is None


def test_budget_exceeded():
    """Under a budget of k nodes the search yields exactly the tables that the
    unlimited stream yields within its first k nodes, then raises at node
    k + 1; a stream read one table at a time has searched only as far as
    that table."""
    problem = CompletionProblem(7, 6, {}, {}, {}, flags=ChainFlags(integral=True))
    stats = SearchStats()
    full, nodes_at = [], []  # each table and the node count when it came
    for cells in iter_completions(problem, 22_437, stats):
        full.append(cells)
        nodes_at.append(stats.nodes)
    assert (stats.nodes, stats.solutions, len(full)) == (22_437, 2_641, 2_641)
    assert nodes_at == sorted(nodes_at) and nodes_at[0] < nodes_at[-1] <= 22_437
    for k in (0, 1, 7, nodes_at[100], 10_000, 22_436):
        stats, got = SearchStats(), []
        with pytest.raises(BudgetExceededError):
            for cells in iter_completions(problem, k, stats):
                got.append(cells)
        assert stats.nodes == k + 1, k
        assert got == full[:sum(n <= k for n in nodes_at)] and stats.solutions == len(got), k


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
            flagged = base._replace(divisible=True)
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
    direct = [_rows(t, 4) for t in iter_completions(problem)]
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
    first = make_algebra(product=_rows(table, n), unit=problem.unit, order=CHAIN)
    assert validate(first, ("lattice", "monoid", "residuation", "chain")).ok
    for (x, y), v in problem.product_pins.items():
        assert first.product[x][y] == v
    if with_divs:
        assert first.ldiv == alg.ldiv and first.rdiv == alg.rdiv


def test_size_validation():
    with pytest.raises(FormatError):
        count_chains(0, ChainFlags())
    with pytest.raises(FormatError):  # the memo keeps one byte per cell
        count_chains(completion.MAX_CHAIN_SIZE + 1, ChainFlags())
    with pytest.raises(FormatError):
        CompletionProblem(3, 5, {}, {}, {}).check_well_formed()
    with pytest.raises(FormatError):
        CompletionProblem(3, 1, {}, {}, {}, flags=ChainFlags(integral=True)).check_well_formed()
    for problem, message in (
        (CompletionProblem(0, 0, {}, {}, {}), "size must be positive"),
        (CompletionProblem(2, 1, {(0, 2): 0}, {}, {}), "product pin out of range"),
        (CompletionProblem(2, 1, {}, {(0, 0): 2}, {}), "division pin out of range"),
        (CompletionProblem(2, 1, {}, {}, {(0, 0): 2}), "division pin out of range"),
    ):
        with pytest.raises(FormatError, match=message):
            problem.check_well_formed()
    for k in (0, True, 2.5):  # bool is no count
        with pytest.raises(FormatError):
            ChainFlags(k_potent=k)
    # the engine keeps one byte per cell: a larger problem is refused before
    # the search starts, pinned or not
    too_big = completion.MAX_CHAIN_SIZE + 1
    for problem in (
        CompletionProblem(too_big, too_big - 1, {}, {}, {}),
        CompletionProblem(too_big, 0, {(1, 1): 0}, {}, {}),
    ):
        with pytest.raises(FormatError, match=f"at most {completion.MAX_CHAIN_SIZE}"):
            next(iter_completions(problem))


# ---------------------------------------------------------------------------
# the census of scripts/chain_census.py


def _census_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "chain_census.py"
    spec = importlib.util.spec_from_file_location("chain_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _census_columns():
    return _census_script().COLUMNS


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


def test_census_script_refuses_sizes_the_engine_cannot_take(capsys):
    """A bound below 1 or above MAX_CHAIN_SIZE exits 2 before the header."""
    script = _census_script()
    for bound in (0, -3, completion.MAX_CHAIN_SIZE + 1):
        with pytest.raises(SystemExit) as exit_info:
            script.main(["--max-size", str(bound)])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2 and out == ""
        assert f"--max-size must be between 1 and {completion.MAX_CHAIN_SIZE}" in err
    assert script.main(["--max-size", "3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split("\t") == ["n", *(name for name, _ in script.COLUMNS), "seconds"]
    assert [row.split("\t")[:-1] for row in rows] == [[str(n), *map(str, CENSUS_COUNTS[n - 1])] for n in (1, 2, 3)]


def test_census_columns_match_naive_oracle_n_le_4(naive_tables):
    # the all, integral and commutative integral columns
    for column, (_, flags) in enumerate(_census_columns()[:3]):
        for n in (1, 2, 3, 4):
            want = naive_tables[n, flags.integral, flags.commutative]
            assert {alg.product for alg in enumerate_chains(n, flags)} == want
            assert count_chains(n, flags) == len(want) == CENSUS_COUNTS[n - 1][column]


def test_admits_matches_the_oracles():
    """``ChainFlags.admits`` against direct checks, on every chain of size
    at most 5 and every census column with k = 1 ... n+1; k = 10**12 is
    admitted wherever the column's other flags are, and ``pointed`` asks
    nothing of a table."""
    from oracles import _divides, _has_equal_powers

    for n in range(1, 6):
        for chain in enumerate_chains(n):
            t, u, rng = chain.product, chain.unit, range(n)
            holds = {
                "integral": u == n - 1,
                "commutative": all(t[x][y] == t[y][x] for x in rng for y in rng),
                "divisible": _divides(t),
            }
            for _, column in _census_columns():
                others = all(ok for flag, ok in holds.items() if getattr(column, flag))
                for k in range(1, n + 2):
                    assert column._replace(k_potent=k).admits(t, u) == (others and _has_equal_powers(t, k))
                assert column._replace(k_potent=10**12).admits(t, u) == others
                assert column._replace(pointed=True).admits(t, u) == column.admits(t, u)


# ---------------------------------------------------------------------------
# the memo of unpinned engine runs behind enumerate_chains and count_chains


@pytest.fixture
def cold_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(completion, "_CHAINS", memo)
    return memo


def _stream(n, flags):
    return [(alg.unit, alg.product) for alg in enumerate_chains(n, flags)]


@pytest.mark.parametrize("column", range(6))
def test_memo_is_invisible(column, cold_memo):
    """Cold, warm and unmemoized streams list the same tables in the same order."""
    _, flags = _census_columns()[column]
    for n in range(1, 7):
        cold_memo.clear()
        cold = _stream(n, flags)
        warm = _stream(n, flags)
        direct = [
            (unit, _rows(table, n))
            for unit in ([n - 1] if flags.integral else range(n))
            for table in iter_completions(CompletionProblem(n, unit, {}, {}, {}, flags=flags))
        ]
        assert cold == warm == direct
        assert count_chains(n, flags) == len(direct) == CENSUS_COUNTS[n - 1][column]


def test_streams_read_in_parts_match_one_read(cold_memo):
    flags = ChainFlags(integral=True)
    at_once = _stream(5, flags)
    cold_memo.clear()
    abandoned = [alg.product for alg in islice(enumerate_chains(5, flags), 7)]
    assert cold_memo == {}  # a stream stopped early stores nothing
    stream = enumerate_chains(5, flags)
    head = [(alg.unit, alg.product) for alg in islice(stream, 7)]
    beside = _stream(5, flags)  # a second cold stream, run while the first is paused
    parts = head + [(alg.unit, alg.product) for alg in stream]
    assert abandoned == [product for _, product in head]
    assert parts == beside == at_once == _stream(5, flags)


def test_first_chain_costs_one_engine_table(monkeypatch, cold_memo):
    produced = []
    engine = completion.iter_completions

    def spy(*args, **kwargs):
        for table in engine(*args, **kwargs):
            produced.append(table)
            yield table

    monkeypatch.setattr(completion, "iter_completions", spy)
    first = next(enumerate_chains(8, ChainFlags(integral=True)))
    assert len(produced) == 1
    cells = produced[0]  # the memo's stream reads the engine's bytes
    assert first.product == tuple(tuple(cells[i:i + 8]) for i in range(0, 64, 8))
    assert cold_memo == {}


def test_every_unit_stream_is_pinned(cold_memo):
    """The engine's tables for n = 1..6, every unit, all then the
    commutative ones, hashed as the memo stores them."""
    digest, count = hashlib.sha256(), 0
    for n in range(1, 7):
        for unit in range(n):
            for commutative in (False, True):
                for cells in completion._unit_stream(n, unit, commutative):
                    digest.update(cells)
                    count += 1
    assert count == 954
    assert digest.hexdigest() == "0cf1954fca7282e71fe609c572165f67cdb436106b5e4434d6722f8ad42be212"


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


@pytest.mark.parametrize(
    "commutative, nodes, solutions", [(False, 22_437, 2_641), (True, 1_939, 451)]
)
def test_census_size_search_is_pinned(commutative, nodes, solutions):
    """n = 7, unit 6: where skipping the fixed cells of a cone saves most."""
    stats = SearchStats()
    problem = CompletionProblem(7, 6, {}, {}, {}, flags=ChainFlags(integral=True, commutative=commutative))
    for _ in iter_completions(problem, stats=stats):
        pass
    assert (stats.nodes, stats.solutions) == (nodes, solutions)


# (nodes, solutions) of the unpinned search on 7 elements, for unit = 0..6;
# with the n <= 6 totals of the "all" and "comm. integral" columns above,
# the non-commutative units and the commutative unit 6 make up the census's
# 48,874 engine nodes
SIZE_7_SEARCHES = {
    False: ((0, 0), (1272, 308), (2265, 226), (2918, 253), (4372, 395), (9091, 864), (22437, 2641)),
    True: ((0, 0), (233, 94), (431, 90), (519, 97), (681, 127), (1046, 214), (1939, 451)),
}


@pytest.mark.parametrize("commutative", (False, True))
def test_every_unit_of_the_size_7_search_is_pinned(commutative):
    got = []
    for unit in range(7):
        stats = SearchStats()
        problem = CompletionProblem(7, unit, {}, {}, {}, flags=ChainFlags(commutative=commutative))
        for _ in iter_completions(problem, stats=stats):
            pass
        got.append((stats.nodes, stats.solutions))
    assert tuple(got) == SIZE_7_SEARCHES[commutative]


def test_vs_search_work_per_size_is_pinned(vs):
    report = bounded_amalgam_search(vs, 10)
    assert report.verdict == "UNSAT"
    got = [(s.size, s.placements, s.nodes) for s in report.sizes]
    assert got == [(5, 2, 0), (6, 15, 0), (7, 63, 0), (8, 196, 0), (9, 504, 0), (10, 1134, 0)]


# ---------------------------------------------------------------------------
# the engine against the naive oracle, under random pins


def _naive_residual(row_or_column, z):
    # the greatest s with (product at s) <= z; on a chain s = 0 qualifies,
    # and a table without x*0 = 0 may have no such s, which reads as 0
    return max((s for s, p in enumerate(row_or_column) if p <= z), default=0)


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
    got = [_rows(t, m) for t in iter_completions(problem)]
    event("satisfiable" if got else "unsatisfiable")
    assert len(got) == len(set(got))
    assert set(got) == {t for t in chains if _meets_pins(t, *pins)}


def test_leaf_check_holds_each_division_pin_exactly():
    """On a non-commutative 4-chain, the leaf check accepts the table under
    each single division pin it meets and rejects it under every other
    value of that pin, the top included."""
    from reslat.completion import _Engine

    alg = next(a for a in enumerate_chains(4) if a.ldiv != a.rdiv)
    cells = bytes(v for row in alg.product for v in row)
    for kind, divisions in (("ldiv", alg.ldiv), ("rdiv", alg.rdiv)):
        for x, z, d in itertools.product(range(4), repeat=3):
            pins = {"ldiv": {}, "rdiv": {}, kind: {(x, z): d}}
            problem = CompletionProblem(4, alg.unit, {}, pins["ldiv"], pins["rdiv"])
            engine = _Engine(problem, DEFAULT_BUDGET, SearchStats())
            assert engine._verify(cells) == (d == divisions[x][z]), (kind, x, z, d)


def test_leaf_check_matches_naive_oracle():
    """The engine's leaf check on bytes agrees with the list-based oracle on
    every chain of size <= 4 under each unit, on every change of one cell of
    those chains (which breaks the unit's or the zero's row or column,
    monotonicity or associativity, or nothing), and under random product and
    division pins, read off the table or drawn at random."""
    from oracles import naive_leaf_check
    from reslat.completion import _Engine

    rng = random.Random(23)

    def random_pins(t, n, kind):
        pins = {}
        for _ in range(rng.randrange(3)):
            a, b = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.3:
                pins[a, b] = rng.randrange(n)
            elif kind == "product":
                pins[a, b] = t[a][b]
            else:
                pins[a, b] = _naive_residual(t[a] if kind == "ldiv" else [row[a] for row in t], b)
        return pins

    outcomes = {True: 0, False: 0}
    for n in range(1, 5):
        for alg in enumerate_chains(n):
            chain = [list(row) for row in alg.product]
            tables = [chain] * 8  # the chain itself under eight draws of pins
            for x, y, v in itertools.product(range(n), repeat=3):
                if v != chain[x][y]:
                    mutant = [row[:] for row in chain]
                    mutant[x][y] = v
                    tables.append(mutant)
            for t, unit in itertools.product(tables, range(n)):
                pinned = rng.random() < 0.5
                pins = [random_pins(t, n, kind) if pinned else {} for kind in ("product", "ldiv", "rdiv")]
                problem = CompletionProblem(n, unit, *pins, flags=ChainFlags(commutative=rng.random() < 0.5))
                want = naive_leaf_check(problem, t)
                engine = _Engine(problem, DEFAULT_BUDGET, SearchStats())
                assert engine._verify(bytes(v for row in t for v in row)) == want, (t, problem)
                outcomes[want] += 1
    assert outcomes[True] > 100 and outcomes[False] > 3000, outcomes


def test_leaf_check_matches_naive_oracle_past_one_byte_half():
    """The leaf check reads monotonicity off 16-bit lanes, so it must read
    cells of 128-255 as the oracle does: on the 256-element Goedel chain and
    the 200-element Lukasiewicz chain, both accepted (a row's last cell,
    up to 255, is not compared with the 0 that starts the next row), and on
    single-cell mutants that break a row law, a column law or both at a
    value >= 128, by one or by far, at a row's last pair included, each
    rejected by both.  Such a mutant breaks associativity as well, so an engine with no inner
    rows, which checks no associativity, must reject it by the lanes alone."""
    from oracles import naive_leaf_check
    from reslat.completion import _Engine

    rng = random.Random(25)
    kinds = {"row": 0, "column": 0, "both": 0}
    for alg in (godel(256), lukasiewicz(200)):
        m = alg.size
        t = [list(row) for row in alg.product]
        problem = CompletionProblem(m, alg.unit, {}, {}, {})
        engine = _Engine(problem, DEFAULT_BUDGET, SearchStats())
        lanes_only = _Engine(problem, DEFAULT_BUDGET, SearchStats())
        lanes_only.inner = []
        cells = bytes(v for row in t for v in row)
        assert engine._verify(cells) and lanes_only._verify(cells) and naive_leaf_check(problem, t)

        def breaks(x, y, v):  # cells 1..m-2 leave the unit's and the zero's rows and columns alone
            row = v < t[x][y - 1] or v > t[x][y + 1]
            column = v < t[x - 1][y] or v > t[x + 1][y]
            return {(True, False): "row", (False, True): "column", (True, True): "both"}.get((row, column))

        # the last pair of rows 128..m-3, then random cells moved past a
        # neighbour or to an end; both chains are commutative, so each
        # change's mirror breaks the other law
        changes = [(x, m - 2, t[x][m - 1] + 1) for x in range(128, m - 2, 6)]
        while len(changes) < 400:
            x, y = rng.randrange(1, m - 1), rng.randrange(1, m - 1)
            changes += [
                (x, y, v) for v in (t[x][y + 1] + 1, t[x][y - 1] - 1, t[x + 1][y] + 1, t[x - 1][y] - 1, 0, m - 1)
            ]
        mutants = []
        for x, y, v in changes:
            for a, b in ((x, y), (y, x)):
                if 0 <= v < m and 128 <= max(v, t[a][b]) and breaks(a, b, v) and (a, b, v) not in mutants:
                    mutants.append((a, b, v))
        for x, y, v in mutants[:90]:
            kinds[breaks(x, y, v)] += 1
            kept, t[x][y] = t[x][y], v
            cells = bytes(c for row in t for c in row)
            assert not naive_leaf_check(problem, t)
            assert not engine._verify(cells) and not lanes_only._verify(cells), (alg.name, x, y, v)
            t[x][y] = kept
    assert sum(kinds.values()) == 180 and min(kinds.values()) > 10, kinds
