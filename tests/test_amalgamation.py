import itertools
import math

import pytest

from reslat import (
    ChainFlags,
    FiniteRL,
    FormatError,
    ObstructionWitness,
    PreconditionError,
    UnsupportedError,
    VFormation,
    bounded_amalgam_search,
    bounded_one_amalgam_search,
    check_obstruction,
    check_vformation,
    congruence_filters,
    find_embeddings,
    find_obstruction,
    godel,
    injectivity_reduction,
    lukasiewicz,
    ordinal_sum,
    pointed_vformation,
    rotated_vformation,
    tables_equal,
    trivial,
    two,
    validate,
    validate_morphism,
    vs_b,
)
from reslat.algebra import compose
from reslat.amalgamation import ObstructionCheck


def _vf(A, B, C, name=""):
    i = find_embeddings(A, B)[0]
    j = find_embeddings(A, C)[0]
    return VFormation(A, B, C, i, j, name=name)


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_examples(vs):
    assert find_embeddings(vs.A, vs.B) == [(0, 2, 3)]
    assert find_embeddings(vs.A, vs.A) == [(0, 1, 2)]
    assert find_embeddings(vs.B, vs.A) == []
    assert find_embeddings(vs.A, vs.C) == [(0, 3, 4)]


def test_embeddings_are_lexicographically_ordered():
    maps = find_embeddings(two(), godel(4))
    assert maps == sorted(maps)
    assert maps == [(0, 3), (1, 3), (2, 3)]


def test_chain_embeddings_are_strictly_monotone(builtin_chains):
    for x, y in itertools.product(builtin_chains, repeat=2):
        if x.size > 4 or y.size > 5:
            continue
        for m in find_embeddings(x, y):
            assert all(m[a] < m[b] for a in range(x.size) for b in range(x.size) if a < b)


def test_embeddings_are_injective_homomorphisms(builtin_chains):
    smalls = [a for a in builtin_chains if a.size <= 5]
    for x, y in itertools.product(smalls, repeat=2):
        brute_force = [
            f for f in itertools.permutations(range(y.size), x.size)
            if validate_morphism(x, y, f, injective=True).ok
        ]
        assert find_embeddings(x, y) == brute_force


def test_quotient_map_is_a_homomorphism(vs):
    l3 = lukasiewicz(3)
    assert not validate_morphism(vs.B, l3, (0, 0, 1, 2)).ok  # collapsing u with b is not compatible
    assert validate_morphism(vs.B, l3, (0, 1, 2, 2)).ok  # collapsing v with 1 is the filter {1, v}


# ---------------------------------------------------------------------------
# V-formations


def test_vs_formation_is_valid(vs):
    assert check_vformation(vs).ok


def test_bad_embedding_is_reported(vs):
    bad = VFormation(vs.A, vs.B, vs.C, (0, 1, 3), vs.j)
    rep = check_vformation(bad)
    assert not rep.ok  # v is idempotent but its image b is not


def test_each_map_is_validated_against_the_formations_own_algebras(vs):
    """j sends A into the 5-element C; as i it would send A out of the
    4-element B."""
    rep = check_vformation(vs._replace(i=vs.j))
    bad = rep.first_failure()
    assert (bad.flag, bad.detail) == ("i", "image 4 out of range 0..3")
    assert [c.flag for c in rep.checks if not c.ok] == ["i"]


@pytest.mark.parametrize(
    "search",
    [
        lambda vf: bounded_amalgam_search(vf, 9),
        lambda vf: bounded_one_amalgam_search(vf, 9),
        find_obstruction,
        lambda vf: check_obstruction(vf, ObstructionWitness(0, 1, 1, 0, 0)),
    ],
    ids=["amalgam", "one-amalgam", "find_obstruction", "check_obstruction"],
)
def test_searches_refuse_maps_of_the_wrong_shape(vs, search):
    """The searches check the shape of i and j, not the whole formation,
    and name the map with the fault ``validate_morphism`` reports."""
    for vf, fault in (
        (vs._replace(i=vs.j), "'i': image 4 out of range 0..3"),
        (vs._replace(j=vs.j[:2]), "'j': map of length 2 on 3 elements"),
        (vs._replace(j=(0, 3, -1)), "'j': image -1 out of range 0..4"),
        (vs._replace(i=(0, "2", 3)), "'i': image '2' out of range 0..3"),
        (vs._replace(i=(0, True, 3)), "'i': image True out of range 0..3"),
    ):
        with pytest.raises(FormatError, match=f"^V-formation map {fault}$"):
            search(vf)


def test_trivial_base_formation_is_valid():
    vf = _vf(trivial(), vs_b(), godel(3))
    assert check_vformation(vf).ok


# ---------------------------------------------------------------------------
# searches


def test_vs_has_no_amalgam_up_to_9(vs):
    rep = bounded_amalgam_search(vs, 9)
    assert rep.verdict == "UNSAT"
    assert [s.size for s in rep.sizes] == [5, 6, 7, 8, 9]


def test_unsat_is_monotone_in_the_bound(vs):
    for bound in (5, 6, 7, 8):
        assert bounded_amalgam_search(vs, bound).verdict == "UNSAT"


def test_trivial_formation_amalgamates_by_ordinal_sum():
    vf = _vf(trivial(), lukasiewicz(3), lukasiewicz(3))
    rep = bounded_amalgam_search(vf, 5)
    assert rep.found
    assert tables_equal(rep.d, lukasiewicz(3))  # least carrier wins: D = B = C
    forced = bounded_amalgam_search(vf, 5, min_size=5)
    assert forced.found
    assert tables_equal(forced.d, ordinal_sum(lukasiewicz(3), lukasiewicz(3)))


def test_identity_formation_amalgamates_trivially(vs):
    vf = VFormation(vs.A, vs.B, vs.B, vs.i, vs.i)
    rep = bounded_amalgam_search(vf, 4)
    assert rep.found and tables_equal(rep.d, vs.B)
    assert rep.h == rep.k == (0, 1, 2, 3)


def test_found_reports_revalidate():
    vf = _vf(trivial(), lukasiewicz(3), godel(3))
    rep = bounded_amalgam_search(vf, 5)
    assert rep.found
    assert validate(rep.d, ("lattice", "monoid", "residuation", "chain")).ok
    assert validate_morphism(vf.B, rep.d, rep.h, injective=True).ok
    assert validate_morphism(vf.C, rep.d, rep.k, injective=True).ok
    assert compose(rep.h, vf.i) == compose(rep.k, vf.j)


def _two_into_g3():
    """A = B = 2 and C = G3, with A's bottom sent to C's middle element."""
    return VFormation(two(), two(), godel(3), (0, 1), (1, 2))


@pytest.mark.parametrize("search", [bounded_amalgam_search, bounded_one_amalgam_search])
def test_found_maps_that_disagree_on_a_raise(monkeypatch, search):
    """A merge that forgets A's anchors places h(0) at G3's bottom, so h
    and k embed B and C but h.i = (0, 2) differs from k.j = (1, 2)."""
    from reslat import amalgamation

    order_types = amalgamation._order_types

    def unanchored(vf, flags, max_ranks):
        return order_types(vf._replace(i=(), j=()), flags, max_ranks)

    monkeypatch.setattr(amalgamation, "_order_types", unanchored)
    with pytest.raises(AssertionError, match="disagree on A"):
        search(_two_into_g3(), 4)


@pytest.mark.parametrize(
    "bad_h, match",
    [((0, 2), "disagree on A"), ((1, 1), "invalid hom")],
)
def test_one_amalgam_revalidates_its_composed_h(monkeypatch, bad_h, match):
    from reslat import amalgamation

    vf = _two_into_g3()
    assert bounded_one_amalgam_search(vf, 4).h == (1, 2)
    amalgam_search = amalgamation.bounded_amalgam_search

    def wrong_h(sub_vf, *args):
        rep = amalgam_search(sub_vf, *args)
        return rep._replace(h=bad_h)

    monkeypatch.setattr(amalgamation, "bounded_amalgam_search", wrong_h)
    with pytest.raises(AssertionError, match=match):
        bounded_one_amalgam_search(vf, 4)


def test_one_amalgam_of_vs_fails(vs):
    rep = bounded_one_amalgam_search(vs, 9)
    assert rep.verdict == "UNSAT"
    assert "identifies elements of A, skipped" in rep.detail


def test_one_amalgam_builds_quotients_only_for_filters_it_searches(vs, monkeypatch):
    # VS's filters [2, 3] and [0, 1, 2, 3] identify elements of i(A) and are
    # skipped before their quotients are built
    from reslat import amalgamation

    built = []
    build = amalgamation.quotient
    monkeypatch.setattr(amalgamation, "quotient", lambda F: built.append(sorted(F.members)) or build(F))
    rep = bounded_one_amalgam_search(vs, 10)
    assert built == [[3]]
    assert rep.detail == (
        "filter [3]: UNSAT; filter [2, 3]: identifies elements of A, skipped; "
        "filter [0, 1, 2, 3]: identifies elements of A, skipped"
    )


@pytest.mark.parametrize("search", [bounded_amalgam_search, bounded_one_amalgam_search])
def test_found_reports_hold_one_algebra_and_index_maps(search):
    rep = search(_vf(trivial(), lukasiewicz(3), godel(3)), 5)
    assert rep.found
    assert [v for v in rep if isinstance(v, FiniteRL)] == [rep.d]
    assert type(rep.h) is type(rep.k) is tuple


def test_one_amalgam_found_for_identity_formation(vs):
    vf = VFormation(vs.A, vs.B, vs.B, vs.i, vs.i)
    rep = bounded_one_amalgam_search(vf, 4)
    assert rep.found
    assert validate_morphism(vf.B, rep.d, rep.h).ok
    assert validate_morphism(vf.B, rep.d, rep.k, injective=True).ok
    assert compose(rep.h, vf.i) == compose(rep.k, vf.i)


def test_amalgam_found_implies_one_amalgam_found():
    for vf in (
        _vf(trivial(), lukasiewicz(3), godel(3)),
        _vf(two(), godel(3), lukasiewicz(3)),
    ):
        amal = bounded_amalgam_search(vf, 5)
        one = bounded_one_amalgam_search(vf, 5)
        assert amal.found and one.found
        assert tables_equal(amal.d, one.d)


def test_pointed_search_requires_pointed_components(vs):
    from reslat import with_zero

    with pytest.raises(PreconditionError):
        bounded_amalgam_search(vs, 6, ChainFlags(pointed=True))
    # a 0 above the bottom fits no order type, so nothing would be searched
    zero_inside = with_zero(godel(3), 1)
    with pytest.raises(PreconditionError):
        bounded_amalgam_search(_vf(trivial(), zero_inside, zero_inside), 6, ChainFlags(pointed=True))


def test_bounds_beyond_the_engine_are_refused_before_any_type(monkeypatch, vs):
    """A bound above MAX_CHAIN_SIZE raises before a type is listed, in both
    searches, even where every type would be refuted without the engine."""
    from reslat import amalgamation
    from reslat.completion import MAX_CHAIN_SIZE

    monkeypatch.setattr(amalgamation, "_order_types", lambda *args: pytest.fail("types were listed"))
    for search in (bounded_amalgam_search, bounded_one_amalgam_search):
        for bound in (MAX_CHAIN_SIZE + 1, 10**9):
            with pytest.raises(PreconditionError, match=f"above {MAX_CHAIN_SIZE}"):
                search(vs, bound)


def test_a_class_without_b_or_c_refutes_every_type_at_once(monkeypatch):
    """L3 is not idempotent, so no idempotent chain contains it: the search
    decides no type and runs no engine, names the component outside the
    class, and still counts each size's placements in closed form.  The
    one-amalgam searches each quotient of B, and the quotient by the full
    filter is in the class."""
    from reslat import amalgamation

    A, L3, G3 = trivial(), lukasiewicz(3), godel(3)
    idempotent = ChainFlags(k_potent=1)
    unrestricted = {}
    for tag, vf in (("B", _vf(A, L3, G3)), ("C", _vf(A, G3, L3))):
        unrestricted[tag] = [bounded_amalgam_search(vf, m, min_size=m).sizes[0].placements for m in range(3, 8)]
        with monkeypatch.context() as patch:
            patch.setattr(amalgamation, "_type_pins", lambda *args: pytest.fail("a type was decided"))
            patch.setattr(amalgamation, "iter_completions", lambda *args: pytest.fail("the engine ran"))
            report = bounded_amalgam_search(vf, 7, idempotent)
        assert report.verdict == "UNSAT" and report.detail == f"{tag} outside the class"
        assert [(s.size, s.placements, s.nodes) for s in report.sizes] == [
            (m, p, 0) for m, p in zip(range(3, 8), unrestricted[tag])
        ]
    one = bounded_one_amalgam_search(_vf(A, L3, G3), 7, idempotent)
    assert one.found and one.h == (2, 2, 2)


def test_pointed_variant_unsat(vs):
    vsp = pointed_vformation(vs, 0)
    assert bounded_amalgam_search(vsp, 8, ChainFlags(pointed=True)).verdict == "UNSAT"


def test_budget_verdict():
    vf = _vf(trivial(), lukasiewicz(3), lukasiewicz(3))
    rep = bounded_amalgam_search(vf, 5, budget=0, min_size=5)
    assert rep.verdict == "BUDGET"
    # plenty of budget: the same search succeeds
    assert bounded_amalgam_search(vf, 5, min_size=5).found


def _budget_formation():
    """A = 2 in B = L3 at (0, 2) and in the 2-potent CI chain chain5_1 at
    (3, 4): at bound 9 the engine spends 6 nodes at size 8 and 56 at size 9."""
    from reslat import enumerate_chains

    C = list(enumerate_chains(5, ChainFlags(commutative=True, integral=True, k_potent=2)))[1]
    return VFormation(two(), lukasiewicz(3), C, (0, 2), (3, 4))


@pytest.mark.parametrize("search", [bounded_amalgam_search, bounded_one_amalgam_search])
def test_budget_bounds_the_whole_search(search):
    vf = _budget_formation()
    enough = search(vf, 9, budget=62)
    assert enough.verdict == "UNSAT"
    assert [(s.size, s.nodes) for s in enough.sizes] == [(5, 0), (6, 0), (7, 0), (8, 6), (9, 56)]
    short = search(vf, 9, budget=56)
    assert short.verdict == "BUDGET"
    # the 57th node overruns the budget; size 9 reports the nodes it spent
    assert [(s.size, s.nodes) for s in short.sizes][-2:] == [(8, 6), (9, 51)]


def test_one_amalgam_budget_is_shared_by_its_filters():
    """Over B = chain5_2 the trivial filter {4} spends 12 nodes and finds
    nothing, and the filter {3, 4} finds a one-amalgam after 4 more."""
    from reslat import enumerate_chains

    flags = ChainFlags(commutative=True, integral=True, k_potent=2)
    B = list(enumerate_chains(5, flags))[2]
    C = list(enumerate_chains(4, flags))[1]
    vf = VFormation(two(), B, C, (0, 4), (2, 3))
    found = bounded_one_amalgam_search(vf, 8, budget=16)
    assert found.found and sum(s.nodes for s in found.sizes) == 16
    assert found.detail == "filter [4]: UNSAT; filter [3, 4]: FOUND"
    short = bounded_one_amalgam_search(vf, 8, budget=15)
    assert short.verdict == "BUDGET"
    assert short.detail == "filter [4]: UNSAT; filter [3, 4]: BUDGET"


def test_search_agrees_with_brute_force_over_all_chains(vs):
    from oracles import brute_amalgam_exists

    # negative instance: the headline formation at the two smallest carriers
    for m in (5, 6):
        assert not brute_amalgam_exists(vs, m)
        assert bounded_amalgam_search(vs, m, min_size=m).verdict == "UNSAT"
    # positive instances agree too
    vf = _vf(trivial(), lukasiewicz(3), lukasiewicz(3))
    for m in (3, 4, 5):
        assert brute_amalgam_exists(vf, m)
        assert bounded_amalgam_search(vf, m, min_size=m).found
    vf2 = _vf(two(), lukasiewicz(3), godel(3))
    for m in (4, 5):
        assert brute_amalgam_exists(vf2, m) == bounded_amalgam_search(vf2, m, min_size=m).found


def test_class_flags_narrow_the_search(vs):
    # narrower classes stay UNSAT for VS
    assert bounded_amalgam_search(vs, 7, ChainFlags(commutative=True)).verdict == "UNSAT"
    assert bounded_amalgam_search(vs, 7, ChainFlags(integral=True)).verdict == "UNSAT"
    # and a commutative integral amalgam is still found where one exists
    vf = _vf(trivial(), lukasiewicz(3), godel(3))
    rep = bounded_amalgam_search(vf, 5, ChainFlags(commutative=True, integral=True))
    assert rep.found
    assert validate(rep.d, ("commutative", "integral")).ok


def test_restricted_searches_agree_with_brute_force():
    """Amalgams inside the idempotent, the 2-potent and the divisible chains,
    for every formation of chains of size <= 3 over the trivial and the
    2-element algebra, at the two least sizes (82 cases each): the search
    and the oracle agree, and the class changes 22 verdicts of the
    unrestricted search for the idempotent chains and 8 for the divisible."""
    from oracles import brute_amalgam_exists
    from reslat import enumerate_chains

    chains = [c for n in (1, 2, 3) for c in enumerate_chains(n)]
    changed = {}
    for flags in (ChainFlags(k_potent=1), ChainFlags(k_potent=2), ChainFlags(divisible=True)):
        changed[flags.k_potent or "divisible"] = 0
        for A, B, C in itertools.product((trivial(), two()), chains, chains):
            for i, j in itertools.product(find_embeddings(A, B), find_embeddings(A, C)):
                vf = VFormation(A, B, C, i, j)
                lo = max(B.size, C.size)
                for m in (lo, lo + 1):
                    found = bounded_amalgam_search(vf, m, flags, min_size=m).found
                    assert found == brute_amalgam_exists(vf, m, flags), (vf, flags, m)
                    changed[flags.k_potent or "divisible"] += found != bounded_amalgam_search(vf, m, min_size=m).found
    assert changed == {1: 22, 2: 0, "divisible": 8}


def test_equal_searches_return_equal_reports(vs):
    found = _vf(trivial(), lukasiewicz(3), godel(3))
    for search in (bounded_amalgam_search, bounded_one_amalgam_search):
        for vf, bound in ((vs, 9), (found, 5)):
            assert search(vf, bound) == search(vf, bound)


# ---------------------------------------------------------------------------
# oracles: classes known to amalgamate, found at the size theory predicts


def _gaps(embedding: tuple[int, ...]) -> list[int]:
    """The elements of the target strictly below the image of each element
    of the source and above the image of the one before it."""
    bounds = (-1, *embedding)
    return [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]


def test_goedel_chains_amalgamate_at_their_order_amalgam():
    """Goedel logic has interpolation: every V-formation of Goedel chains
    amalgamates in a Goedel chain.  On idempotent chains every order
    embedding that keeps the top is an embedding, so the least amalgam
    merges B's and C's elements between each two images of A: it has
    ``|A| + sum of max(gap in B, gap in C)`` elements, at most
    ``|B| + |C| - |A|``."""
    flags = ChainFlags(integral=True, commutative=True, k_potent=1)
    sizes = range(2, 6)
    formations = 0
    for a, b, c in itertools.product(sizes, repeat=3):
        if a >= min(b, c):
            continue
        A, B, C = godel(a), godel(b), godel(c)
        for i, j in itertools.product(find_embeddings(A, B), find_embeddings(A, C)):
            formations += 1
            want = a + sum(map(max, _gaps(i), _gaps(j)))
            report = bounded_amalgam_search(VFormation(A, B, C, i, j), b + c - a, flags)
            assert report.found and report.d.size == want, (i, j, report.verdict)
            assert tables_equal(report.d, godel(want))
    assert formations == 178


@pytest.mark.parametrize("n, size", [(4, 7), (5, 5)])
def test_lukasiewicz_chains_amalgamate_at_the_lcm(n, size):
    """Ł3 and Łn over 2, bottoms fixed, amalgamate in divisible CI chains
    first in Ł_(lcm(2, n - 1) + 1): the least MV-chain containing both."""
    flags = ChainFlags(integral=True, commutative=True, divisible=True)
    vf = VFormation(two(), lukasiewicz(3), lukasiewicz(n), (0, 2), (0, n - 1))
    if size > n:
        assert bounded_amalgam_search(vf, size - 1, flags).verdict == "UNSAT"
    report = bounded_amalgam_search(vf, size, flags)
    assert report.found and report.d.size == size
    assert tables_equal(report.d, lukasiewicz(size))


# ---------------------------------------------------------------------------
# obstructions


def test_vs_obstruction_witness(vs):
    w = find_obstruction(vs)
    assert w == ObstructionWitness(a=1, b=1, c=2, u1=0, u2=0, side="LEFT")
    labels = (vs.A.labels[w.a], vs.B.labels[w.b], vs.C.labels[w.c], vs.A.labels[w.u1], vs.A.labels[w.u2])
    assert labels == ("v", "b", "c", "u", "u")


def test_obstruction_trace_mirrors_the_refutation(vs):
    w = find_obstruction(vs)
    result = check_obstruction(vs, w)
    assert result.accepted
    text = "\n".join(result.lines)
    assert "k(c) <= h(b)\\h(u) = h(b\\u) <= h(b)" in text
    assert "h(b) <= k(c)\\k(u) = k(c\\u) <= k(c)" in text


def test_obstruction_rejections(vs):
    w = find_obstruction(vs)
    bad_u1 = w._replace(u1=1)  # v instead of u
    rej = check_obstruction(vs, bad_u1)
    assert not rej.accepted and rej.clause == "W2"
    assert "b\\v = 1" in "\n".join(rej.lines)

    inside = w._replace(b=2)  # v lies in i(A)
    rej2 = check_obstruction(vs, inside)
    assert not rej2.accepted and rej2.clause == "W1-domain"

    not_fixing = w._replace(a=0)  # u*b = u != b breaks W1
    rej3 = check_obstruction(vs, not_fixing)
    assert not rej3.accepted and rej3.clause == "W1"


def test_obstruction_check_lines(vs):
    """The exact lines of each rejection on VS, and of a RIGHT-side
    acceptance on a formation of integral 4- and 5-chains over VS.A."""
    from reslat import make_algebra, vs_a

    w = find_obstruction(vs)
    w1 = "  W1: v*b = b in B and v*c = d in C"
    w2 = r"  W2: c*c = u <= u in C; b\u = b <= b in B"
    expected = [
        (w._replace(b=2), "W1-domain", ("REJECT(W1-domain)", "  b = v lies in the image of A")),
        (w._replace(c=0), "W1-domain", ("REJECT(W1-domain)", "  c = u lies in the image of A")),
        (w._replace(a=0), "W1", ("REJECT(W1)", "  W1: u*b = u in B and u*c = u in C")),
        (w._replace(u1=1), "W2", ("REJECT(W2)", w1, r"  W2: c*c = u <= v in C; b\v = 1 <= b in B")),
        (w._replace(u2=1), "W3", ("REJECT(W3)", w1, w2, r"  W3: b*b = u <= v in B; c\v = 1 <= c in C")),
    ]
    for witness, clause, lines in expected:
        assert check_obstruction(vs, witness) == ObstructionCheck(clause, lines)

    B = make_algebra(product=[[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]], unit=3)
    C = make_algebra(
        product=[[0, 0, 0, 0, 0], [0, 0, 0, 1, 1], [0, 0, 0, 1, 2], [0, 1, 2, 3, 3], [0, 1, 2, 3, 4]], unit=4
    )
    vf = VFormation(vs_a(), B, C, (0, 2, 3), (0, 3, 4))
    right = find_obstruction(vf)
    assert right == ObstructionWitness(a=1, b=1, c=2, u1=0, u2=0, side="RIGHT")
    assert check_obstruction(vf, right) == ObstructionCheck(
        None,
        (
            "witness (a=v, b=e1, c=e2, u1=u, u2=u, side=RIGHT)",
            "(i) e1*v = e1 in B and e2*v = e1 in C; since any amalgam identifies the images of v, h(b) = k(c) "
            "would force h(b)*v to be both h(b) and a smaller element, so h(b) != k(c) and the chain orders "
            "them strictly.",
            r"(ii) if h(b) < k(c): h(b)*k(c) <= k(c)*k(c) and e2*e2 = e0 <= e0 in C; e1\e0 = e1 <= e1 in B, "
            r"so by residuation k(c) <= h(b)\h(u) = h(e1\u) <= h(b), contradicting h(b) < k(c).",
            r"(iii) if k(c) < h(b): k(c)*h(b) <= h(b)*h(b) and e1*e1 = e0 <= e0 in B; e2\e0 = e2 <= e2 in C, "
            r"so by residuation h(b) <= k(c)\k(u) = k(e2\u) <= k(c), contradicting k(c) < h(b).",
            "conclusion: no totally ordered residuated lattice amalgamates this V-formation, at any cardinality.",
        ),
    )


def test_no_witness_for_amalgamable_formation(vs):
    vf = VFormation(vs.A, vs.B, vs.B, vs.i, vs.i)
    assert find_obstruction(vf) is None


def test_witness_requires_chains(vs):
    from reslat import make_algebra

    leq = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    square = make_algebra(product=meet, unit=3, order=leq)
    i = find_embeddings(trivial(), square)[0]
    j = find_embeddings(trivial(), vs.C)[0]
    vf = VFormation(trivial(), square, vs.C, i, j)
    with pytest.raises(UnsupportedError):
        find_obstruction(vf)


def test_witness_implies_search_unsat(vs):
    corpus = [
        vs,
        pointed_vformation(vs, 0),
        rotated_vformation(vs, "const-1", 2),
    ]
    for vf in corpus:
        if find_obstruction(vf) is not None:
            assert bounded_amalgam_search(vf, 8).verdict == "UNSAT"


def test_rotated_formations_obstructed(vs):
    for delta in ("identity", "const-1"):
        rvf = rotated_vformation(vs, delta, 2)
        assert check_vformation(rvf).ok
        assert find_obstruction(rvf) is not None


@pytest.mark.parametrize("delta, sizes", [("identity", (7, 9, 11)), ("const-1", (5, 6, 7))])
def test_three_level_rotations_of_vs(vs, delta, sizes):
    # n = 3 puts one interior Lukasiewicz level into every component
    rvf = rotated_vformation(vs, delta, 3)
    assert check_vformation(rvf).ok
    assert (rvf.A.size, rvf.B.size, rvf.C.size) == sizes
    assert find_obstruction(rvf) is not None
    assert bounded_amalgam_search(rvf, max(sizes[1:])).verdict == "UNSAT"


def test_rotated_identity_formation_one_amalgam_unsat_at_9(vs):
    # |C| = 10, so bound 9 leaves nothing to search and must not read UNSAT
    rvf = rotated_vformation(vs, "identity", 2)
    with pytest.raises(PreconditionError):
        bounded_one_amalgam_search(rvf, 9)
    with pytest.raises(PreconditionError):
        bounded_amalgam_search(rvf, 9)
    assert bounded_one_amalgam_search(rvf, 10).verdict == "UNSAT"


def test_no_witness_over_the_two_element_base():
    """Formations over the 2-element algebra always amalgamate (stack B below
    C at the shared bounds), so a sound certificate must never fire there."""
    from reslat import ChainFlags, enumerate_chains

    A = two()
    chains4 = list(enumerate_chains(4, ChainFlags(integral=True)))
    for B in chains4:
        for C in chains4:
            vf = VFormation(A, B, C, find_embeddings(A, B)[0], find_embeddings(A, C)[0])
            assert find_obstruction(vf) is None


def test_certificate_soundness_over_random_formations():
    """Whenever a witness exists for a formation of 5-chains over the
    3-element Goedel base, brute-force search over all chains must find no
    amalgam at the smallest carrier, and the engine must agree."""
    from reslat import ChainFlags, enumerate_chains, vs_a
    from oracles import brute_amalgam_exists

    A = vs_a()
    hosts = []
    for B in enumerate_chains(5, ChainFlags(integral=True)):
        embeds = find_embeddings(A, B)
        if embeds:
            hosts.append((B, embeds[0]))
    assert len(hosts) >= 5
    witnessed = checked = 0
    for B, i in hosts:
        for C, j in hosts:
            vf = VFormation(A, B, C, i, j)
            w = find_obstruction(vf)
            if w is None:
                continue
            witnessed += 1
            assert check_obstruction(vf, w).accepted
            if checked < 6:  # brute force is slow; spot-check a handful
                checked += 1
                assert not brute_amalgam_exists(vf, 5)
            assert bounded_amalgam_search(vf, 6).verdict == "UNSAT"
    assert witnessed > 0  # the corpus does exercise the certificate


def _vs_family(vs):
    """VS, its pointed copy, the 2- and 3-level rotations, and VS with B and
    C swapped."""
    rotations = [rotated_vformation(vs, delta, n) for n in (2, 3) for delta in ("identity", "const-1")]
    return [vs, pointed_vformation(vs, 0), *rotations, VFormation(vs.A, vs.C, vs.B, vs.j, vs.i)]


def test_obstruction_scan_matches_the_naive_scan(vs):
    """The clause-by-clause scan finds the least tuple of the blind product
    scan: on the VS family (only swapped VS has none) and on every
    formation of integral 4- and 5-chains over VS.A, with every embedding."""
    from collections import Counter

    from reslat import enumerate_chains, vs_a
    from oracles import naive_find_obstruction

    family = _vs_family(vs)
    witnesses = [find_obstruction(vf) for vf in family]
    assert witnesses == [naive_find_obstruction(vf) for vf in family]
    assert [w is None for w in witnesses] == [False] * 6 + [True]
    A = vs_a()
    hosts = [(B, i) for n in (4, 5) for B in enumerate_chains(n, ChainFlags(integral=True)) for i in find_embeddings(A, B)]
    sides = Counter()
    for (B, i), (C, j) in itertools.product(hosts, repeat=2):
        vf = VFormation(A, B, C, i, j)
        w = find_obstruction(vf)
        assert w == naive_find_obstruction(vf), (B, C, i, j)
        sides[w and w.side] += 1
    assert sides == {None: 2000, "LEFT": 16, "RIGHT": 9}


def test_obstruction_scan_takes_the_least_bounds():
    """A commutative integral formation of a 4-, a 5- and a 6-chain whose
    witness passes W2 and W3 with u1, u2 = 0 and with 1: both scans report
    0 for each."""
    from reslat import make_algebra
    from oracles import naive_find_obstruction

    A = make_algebra(product=[[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]], unit=3)
    B = make_algebra(
        product=[[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 2, 2], [0, 0, 2, 3, 3], [0, 1, 2, 3, 4]], unit=4
    )
    C = make_algebra(
        product=[
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 2, 2],
            [0, 0, 0, 0, 2, 3],
            [0, 0, 2, 2, 4, 4],
            [0, 1, 2, 3, 4, 5],
        ],
        unit=5,
    )
    vf = VFormation(A, B, C, (0, 1, 3, 4), (0, 1, 4, 5))
    assert check_vformation(vf).ok
    w = ObstructionWitness(2, 2, 3, 0, 0, "LEFT")
    assert find_obstruction(vf) == naive_find_obstruction(vf) == w
    assert all(check_obstruction(vf, w._replace(**{u: 1})).accepted for u in ("u1", "u2"))


def test_injectivity_reduction_examples(vs):
    assert injectivity_reduction(vs) == [1]  # the element v
    filters = [F.sorted_members() for F in congruence_filters(vs.B)]
    assert filters == [(3,), (2, 3), (0, 1, 2, 3)]

    vf_trivial = _vf(trivial(), vs_b(), godel(3))
    assert injectivity_reduction(vf_trivial) == []

    rvf = rotated_vformation(vs, "identity", 2)
    assert injectivity_reduction(rvf)


# ---------------------------------------------------------------------------
# search work


# (size, placements, nodes) per size of the paper's searches, at bounds past
# the paper's own; every search is UNSAT
SEARCH_WORK = {
    "VS": (
        13,
        ChainFlags(),
        [(5, 2, 0), (6, 15, 0), (7, 63, 0), (8, 196, 0), (9, 504, 0), (10, 1134, 0), (11, 2310, 0), (12, 4356, 0), (13, 7722, 0)],
    ),
    "VS.pointed": (
        11,
        ChainFlags(pointed=True),
        [(5, 2, 0), (6, 13, 0), (7, 48, 0), (8, 133, 0), (9, 308, 0), (10, 630, 0), (11, 1176, 0)],
    ),
    "VS^const-1:2": (11, ChainFlags(), [(6, 2, 0), (7, 17, 0), (8, 80, 0), (9, 276, 0), (10, 780, 0), (11, 1914, 0)]),
    "VS^identity:2": (14, ChainFlags(), [(10, 4, 0), (11, 56, 0), (12, 417, 0), (13, 2197, 0), (14, 9191, 0)]),
}


def _paper_formation(vs, name):
    if name == "VS":
        return vs
    if name == "VS.pointed":
        return pointed_vformation(vs, 0)
    delta, n = name.split("^")[1].split(":")
    return rotated_vformation(vs, delta, int(n))


@pytest.mark.parametrize("name", sorted(SEARCH_WORK))
def test_search_work_per_size_is_pinned(vs, name):
    bound, flags, expected = SEARCH_WORK[name]
    report = bounded_amalgam_search(_paper_formation(vs, name), bound, flags)
    assert report.verdict == "UNSAT"
    assert [(s.size, s.placements, s.nodes) for s in report.sizes] == expected


# ---------------------------------------------------------------------------
# order types: each is refuted once, before the engine runs


def _rank_type(hpos, kpos):
    rank = {p: r for r, p in enumerate(sorted(set(hpos) | set(kpos)))}
    return tuple(rank[p] for p in hpos), tuple(rank[p] for p in kpos)


@pytest.mark.parametrize("name, m, types, conflicts", [("VS", 12, 5, 2), ("VS^identity:2", 14, 25, 16)])
def test_order_types_of_the_paper_formations(monkeypatch, vs, name, m, types, conflicts):
    """Every type is refuted, so the search to bound m never calls the
    engine and decides each type once, at its first placement."""
    from collections import Counter

    from oracles import naive_placements
    from reslat import amalgamation
    from reslat.amalgamation import _order_types, _pins_for, _type_pins

    vf = _paper_formation(vs, name)
    found = {_rank_type(*placement) for placement in naive_placements(vf, m, ChainFlags())}
    assert len(found) == types
    assert found == set(_order_types(vf, ChainFlags(), m))
    assert sum(_pins_for(vf, *t) is None for t in found) == conflicts
    assert all(_type_pins(vf, *t) is None for t in found)
    decided = Counter()
    monkeypatch.setattr(amalgamation, "_type_pins", lambda vf, *t: decided.update([t]) or _type_pins(vf, *t))
    monkeypatch.setattr(amalgamation, "iter_completions", lambda *args: pytest.fail("the engine ran"))
    assert bounded_amalgam_search(vf, m).verdict == "UNSAT"
    assert set(decided) == found and set(decided.values()) == {1}


def test_paper_report_never_calls_the_engine(monkeypatch):
    from reslat import amalgamation, completion
    from reslat.cli import paper_report

    calls = []

    def spy(*args, **kwargs):  # stands in for the name the search imported
        calls.append(args)
        return completion.iter_completions(*args, **kwargs)

    monkeypatch.setattr(amalgamation, "iter_completions", spy)
    paper_report(10)
    assert calls == []


def _small_formations():
    """Every formation of chains of size <= 3 over the trivial and the
    2-element algebra, each with its flags: the four commutative/integral
    combinations, and pointed once with every bottom of B and C designated
    as 0, over A with its bottom as 0 and over A unpointed, where C's zero
    need not be an image of A.  Then the unpointed ones over the trivial
    algebra with C a 4-chain, which are the least that tell a gap just
    above a point from the point above it."""
    from reslat import enumerate_chains, with_zero

    chains = [c for n in (1, 2, 3) for c in enumerate_chains(n)]
    pointed = [with_zero(c, 0) for c in chains]
    unpointed = [ChainFlags(commutative=c, integral=i) for c in (False, True) for i in (False, True)]
    groups = [
        ((trivial(), two()), chains, chains, unpointed),
        ([with_zero(A, 0) for A in (trivial(), two())], pointed, pointed, [ChainFlags(pointed=True)]),
        ((trivial(), two()), pointed, pointed, [ChainFlags(pointed=True)]),
        ((trivial(),), chains, list(enumerate_chains(4)), unpointed),
    ]
    out = []
    for bases, b_hosts, c_hosts, flag_sets in groups:
        for A, B, C in itertools.product(bases, b_hosts, c_hosts):
            for i, j in itertools.product(find_embeddings(A, B), find_embeddings(A, C)):
                out += [(VFormation(A, B, C, i, j), flags) for flags in flag_sets]
    return out


def test_type_refutation_matches_the_full_pass_oracle(vs):
    """Pins, the exact and division bounds and one monotonicity sweep decide
    every order type as the oracle's full passes of every rule do, with its
    commutativity and associativity merges, and a type that survives gets
    ``_pins_for``'s pins.  Unbounded, on the VS family
    under no flags and under integral and commutative, on the pointed VS
    search of ``paper``, on the commutative integral formations with
    2 <= |A| < |B|, |C| <= 4 under the same two, and on their pointed
    copies, 0 at the bottom, under pointed and pointed, integral and
    commutative; each way a type ends occurs."""
    from collections import Counter

    from reslat import enumerate_chains, with_zero
    from reslat.amalgamation import _order_types, _pins_for, _type_pins
    from oracles import naive_type_refuted

    ci = ChainFlags(integral=True, commutative=True)
    pointed, pointed_ci = ChainFlags(pointed=True), ChainFlags(pointed=True, integral=True, commutative=True)
    chains = {n: list(enumerate_chains(n, ci)) for n in (2, 3, 4)}
    pointed_chains = {n: [with_zero(ch, 0) for ch in chains[n]] for n in chains}
    cases = [(vf, flags) for vf in _vs_family(vs) for flags in (ChainFlags(), ci)]
    cases.append((pointed_vformation(vs, 0), pointed))
    for family, flag_sets in ((chains, (ChainFlags(), ci)), (pointed_chains, (pointed, pointed_ci))):
        for na in (2, 3):
            for nb, nc in itertools.product(range(na + 1, 5), repeat=2):
                for A, B, C in itertools.product(family[na], family[nb], family[nc]):
                    for i, j in itertools.product(find_embeddings(A, B), find_embeddings(A, C)):
                        cases += [(VFormation(A, B, C, i, j), flags) for flags in flag_sets]
    outcomes = Counter()
    for vf, flags in cases:
        for htype, ktype in _order_types(vf, flags, vf.B.size + vf.C.size):
            outcome = naive_type_refuted(vf, htype, ktype, flags)
            assert (_type_pins(vf, htype, ktype) is None) == (outcome is not None), (vf, flags, htype, ktype)
            assert outcome or _type_pins(vf, htype, ktype) == _pins_for(vf, htype, ktype), (vf, flags, htype, ktype)
            outcomes[outcome] += 1
    assert sum(outcomes.values()) == 3683
    assert {"pin conflict", "init", "sweep", None} <= set(outcomes)


def test_a_division_bound_holds_against_a_later_pin_on_its_cell():
    """Over the trivial algebra, with B = chain4_7 at ranks (0, 2, 3, 5) and
    C = chain5_47 at (0, 1, 3, 4, 5): in B, e2 \\ e1 = e2, so p_3*p_4 lies
    above p_2, and C, whose rows are read after B's, pins p_3*p_4 = p_1.
    The pins agree on every shared cell, and the cell's interval is empty,
    as the oracle finds it; a pin that overwrote the raised lower bound
    would let the type survive."""
    from oracles import naive_type_refuted
    from reslat import enumerate_chains
    from reslat.amalgamation import _pins_for, _type_pins

    chains = {ch.name: ch for n in (4, 5) for ch in enumerate_chains(n)}
    vf = VFormation(trivial(), chains["chain4_7"], chains["chain5_47"], (3,), (4,))
    htype, ktype = (0, 2, 3, 5), (0, 1, 3, 4, 5)
    assert _pins_for(vf, htype, ktype) is not None
    assert naive_type_refuted(vf, htype, ktype, ChainFlags()) == "init"
    assert _type_pins(vf, htype, ktype) is None


def test_types_fit_the_bound_and_are_decided_at_the_first_size_they_fit(monkeypatch):
    """Over the trivial algebra the free elements of a 5- and a 6-chain
    merge in 681 order types, and only 5 of them fit the bound 6.  A search
    to bound 10 finds an amalgam at size 9.  555 types fit 9, but it decides
    only the 279 whose first placement comes up before the amalgam's, each
    once, and none of the rest."""
    from reslat import amalgamation
    from reslat.amalgamation import _order_types

    A, B, C = trivial(), godel(5), lukasiewicz(6)
    vf = VFormation(A, B, C, find_embeddings(A, B)[0], find_embeddings(A, C)[0])
    assert [len(list(_order_types(vf, ChainFlags(), bound))) for bound in (6, 7, 10)] == [5, 65, 681]
    calls = []
    decide = amalgamation._type_pins
    monkeypatch.setattr(amalgamation, "_type_pins", lambda *args: calls.append(args) or decide(*args))
    report = bounded_amalgam_search(vf, 10)
    assert report.found and report.sizes[-1].size == 9
    assert len(calls) == len(set(calls)) == 279


def test_refuted_order_types_have_no_completion():
    from oracles import naive_placements
    from reslat import CompletionProblem
    from reslat.amalgamation import _pins_for, _type_pins
    from reslat.completion import iter_completions

    checked = 0
    for vf, flags in _small_formations():
        refuted = {}
        lo = max(vf.B.size, vf.C.size)
        for m in range(lo, lo + 3):
            for hpos, kpos in naive_placements(vf, m, flags):
                key = _rank_type(hpos, kpos)
                if key not in refuted:
                    refuted[key] = _type_pins(vf, *key) is None and _pins_for(vf, *key) is not None
                if not refuted[key]:  # survives, or a pin conflict
                    continue
                pins = _pins_for(vf, hpos, kpos)  # the same pins, labelled by positions in D
                problem = CompletionProblem(m, hpos[vf.B.unit], *pins, flags)
                assert next(iter_completions(problem), None) is None, (vf, flags, hpos, kpos)
                checked += 1
    assert checked > 100  # the rules beyond pin conflicts do fire


def test_order_types_and_placement_counts_match_the_naive_placements(vs):
    """Every type of the naive placements at sizes lo..lo+3 is listed once,
    no other type is, the placements of all the types, sorted by (h, k), are
    the naive ones in the naive order, and each type's count and each
    size's count are the closed-form ones."""
    from collections import Counter

    from oracles import naive_placements
    from reslat import with_zero
    from reslat.amalgamation import _order_types, _placements

    cases = _small_formations() + [(_paper_formation(vs, name), SEARCH_WORK[name][1]) for name in sorted(SEARCH_WORK)]
    for vf, flags in cases:
        lo = max(vf.B.size, vf.C.size)
        fixed = flags.pointed + flags.integral
        types = list(_order_types(vf, flags, lo + 3))
        assert len(set(types)) == len(types), (vf, flags)
        naive = {m: naive_placements(vf, m, flags) for m in range(lo, lo + 4)}
        assert {_rank_type(*placement) for m in naive for placement in naive[m]} == set(types), (vf, flags)
        for m in naive:
            placed = _placements(types, m, flags)
            assert [(h, k) for h, k, _, _ in placed] == naive[m], (vf, flags, m)
            of_type = Counter(t for _, _, _, t in placed)
            for h, k in types:
                r = max(h + k) + 1
                assert of_type[h, k] == math.comb(m - fixed, r - fixed), (vf, flags, m, h, k)
        report = bounded_amalgam_search(vf, lo + 3, flags)
        assert [s.placements for s in report.sizes] == [len(naive[s.size]) for s in report.sizes], (vf, flags)
    # one rank that is both zero and unit fits only the trivial D
    A = with_zero(trivial(), 0)
    vf = VFormation(A, A, A, find_embeddings(A, A)[0], find_embeddings(A, A)[0])
    flags = ChainFlags(integral=True, pointed=True)
    assert [len(_placements(_order_types(vf, flags, 3), m, flags)) for m in (1, 2, 3)] == [1, 0, 0]
    assert [(s.size, s.placements) for s in bounded_amalgam_search(vf, 3, flags).sizes] == [(1, 1)]
    report = bounded_amalgam_search(vf, 3, flags, min_size=2)
    assert [s.placements for s in report.sizes] == [len(naive_placements(vf, m, flags)) for m in (2, 3)] == [0, 0]


_SMALL_D = ((0, 0, 0), (0, 1, 1), (0, 1, 2))
_LARGE_D = (
    (0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 1, 1),
    (0, 1, 2, 2, 2, 2),
    (0, 1, 2, 2, 2, 3),
    (0, 1, 2, 3, 4, 4),
    (0, 1, 2, 3, 4, 5),
)


@pytest.mark.parametrize(
    "b, c, i, j, flags, h, k, product",
    [
        ("chain3_2", "chain2_0", 2, 1, ChainFlags(commutative=f[0], integral=f[1]), [0, 1, 2], [0, 2], _SMALL_D)
        for f in itertools.product((False, True), repeat=2)
    ]
    + [
        ("chain3_1", "chain4_10", 2, 3, ChainFlags(integral=f), [0, 1, 5], [2, 3, 4, 5], _LARGE_D)
        for f in (False, True)
    ],
)
def test_found_witness_is_the_least_placement(b, c, i, j, flags, h, k, product):
    """FOUND reports the lexicographically least placement that completes,
    whatever its type.  The first formation has two placements at size 3,
    k = (0, 2) and k = (1, 2), one of each type; the second has, at size 6,
    a completing placement h = (3, 4, 5) of a type with fewer ranks, which a
    search that took the types one after another would report instead."""
    from oracles import naive_placements
    from reslat import enumerate_chains

    chains = {ch.name: ch for n in (2, 3, 4) for ch in enumerate_chains(n)}
    A, B, C = trivial(), chains[b], chains[c]
    vf = VFormation(A, B, C, (i,), (j,))
    report = bounded_amalgam_search(vf, max(B.size, C.size) + 2, flags)
    assert report.found
    assert (list(report.h), list(report.k)) == (h, k)
    assert report.d.product == product
    last = report.sizes[-1]
    assert last.placements == len(naive_placements(vf, last.size, flags))


def test_type_filter_changes_no_search_result(monkeypatch):
    from reslat import amalgamation

    cases = _small_formations()
    filtered = [bounded_amalgam_search(vf, max(vf.B.size, vf.C.size) + 2, flags) for vf, flags in cases]
    monkeypatch.setattr(amalgamation, "_type_pins", lambda vf, h, k: amalgamation._pins_for(vf, h, k))
    unfiltered = [bounded_amalgam_search(vf, max(vf.B.size, vf.C.size) + 2, flags) for vf, flags in cases]
    assert {r.verdict for r in filtered} == {"FOUND", "UNSAT"}
    for got, want in zip(filtered, unfiltered):
        assert got.verdict == want.verdict
        assert [(s.size, s.placements) for s in got.sizes] == [(s.size, s.placements) for s in want.sizes]
        assert sum(s.nodes for s in got.sizes) <= sum(s.nodes for s in want.sizes)
        if want.found:
            assert got.d.product == want.d.product and got.d.unit == want.d.unit
            assert (got.h, got.k) == (want.h, want.k)


# ---------------------------------------------------------------------------
# the V-formation census of 2-potent commutative integral chains of size <= 4


def _census_formations(pointed):
    """A, B and C range over the 2-potent CI chains with 2 <= |A| < |B|,
    |C| <= 4, with every pair of embeddings, pointed with 0 at the bottom
    or not."""
    from reslat import enumerate_chains, with_zero

    ci2 = ChainFlags(integral=True, commutative=True, k_potent=2)
    chains = {n: list(enumerate_chains(n, ci2)) for n in (2, 3, 4)}
    if pointed:
        chains = {n: [with_zero(ch, 0) for ch in chains[n]] for n in chains}
    for na in (2, 3):
        for nb, nc in itertools.product(range(na + 1, 5), repeat=2):
            for A, B, C in itertools.product(chains[na], chains[nb], chains[nc]):
                for i, j in itertools.product(find_embeddings(A, B), find_embeddings(A, C)):
                    yield VFormation(A, B, C, i, j)


@pytest.mark.parametrize(
    "pointed, counts, digest",
    [
        (False, {"FOUND": 201, "UNSAT": 2}, "017e50bdd28f257e90d159faed570f8eab40e4d2aaa61ea139372d757f644cfd"),
        (True, {"FOUND": 69}, "ec207725d10beb4e3b309aaab63df8a23663c50df4cce3336b03a121b8b66113"),
    ],
    ids=("unpointed", "pointed"),
)
def test_small_vformation_census_is_pinned(pointed, counts, digest):
    """Each formation of the census is searched to |B| + |C| - |A| + 1.
    The digest covers each report's verdict, sizes with placements and
    nodes, h, k and D's product, in the order the formations are listed."""
    import hashlib
    import json
    from collections import Counter

    flags = ChainFlags(pointed=pointed)
    verdicts, sha = Counter(), hashlib.sha256()
    for vf in _census_formations(pointed):
        r = bounded_amalgam_search(vf, vf.B.size + vf.C.size - vf.A.size + 1, flags)
        verdicts[r.verdict] += 1
        maps = [list(r.h), list(r.k), [list(row) for row in r.d.product]] if r.found else [None] * 3
        sha.update(json.dumps([r.verdict, [list(s) for s in r.sizes], *maps]).encode() + b"\n")
    assert verdicts == counts
    assert sha.hexdigest() == digest


@pytest.mark.parametrize("levels", [2, 3])
def test_rotating_the_census_yields_v_formations_of_bounded_chains(levels):
    """``rotated_vformation`` does not check what it builds; this pins that
    every rotation of the unpointed census, by either nucleus, is a
    V-formation of index-ordered chains with 0 at the bottom."""
    formations = list(_census_formations(pointed=False))
    assert len(formations) == 203
    for vf in formations:
        for delta_name in ("identity", "const-1"):
            rvf = rotated_vformation(vf, delta_name, levels)
            assert check_vformation(rvf).ok, (vf, delta_name, levels)
            assert all(alg.is_chain_order and alg.zero == 0 for alg in (rvf.A, rvf.B, rvf.C)), (vf, delta_name, levels)
