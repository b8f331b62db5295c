import itertools
from dataclasses import replace

import pytest

from reslat import (
    EMBEDDING,
    HOM,
    Morphism,
    ObstructionWitness,
    PreconditionError,
    SearchFlags,
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


def _vf(A, B, C, name=""):
    i = find_embeddings(A, B)[0]
    j = find_embeddings(A, C)[0]
    return VFormation(A, B, C, i, j, name=name)


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_examples(vs):
    assert [m.map for m in find_embeddings(vs.A, vs.B)] == [(0, 2, 3)]
    assert [m.map for m in find_embeddings(vs.A, vs.A)] == [(0, 1, 2)]
    assert find_embeddings(vs.B, vs.A) == []
    assert [m.map for m in find_embeddings(vs.A, vs.C)] == [(0, 3, 4)]


def test_embeddings_are_lexicographically_ordered():
    maps = [m.map for m in find_embeddings(two(), godel(4))]
    assert maps == sorted(maps)
    assert maps == [(0, 3), (1, 3), (2, 3)]


def test_embeddings_respect_pins():
    maps = [m.map for m in find_embeddings(two(), godel(4), pin={0: 1})]
    assert maps == [(1, 3)]
    with pytest.raises(Exception):
        find_embeddings(godel(3), godel(4), pin={0: 1, 1: 1})


def test_chain_embeddings_are_strictly_monotone(builtin_chains):
    for x, y in itertools.product(builtin_chains, repeat=2):
        if x.size > 4 or y.size > 5:
            continue
        for m in find_embeddings(x, y):
            assert all(m.map[a] < m.map[b] for a in range(x.size) for b in range(x.size) if a < b)


def test_embeddings_are_injective_homomorphisms(builtin_chains):
    smalls = [a for a in builtin_chains if a.size <= 5]
    for x, y in itertools.product(smalls, repeat=2):
        brute_force = [
            f for f in itertools.permutations(range(y.size), x.size)
            if validate_morphism(Morphism(x, y, f, EMBEDDING)).ok
        ]
        assert [m.map for m in find_embeddings(x, y)] == brute_force


def test_quotient_map_is_a_homomorphism(vs):
    l3 = lukasiewicz(3)
    assert not validate_morphism(Morphism(vs.B, l3, (0, 0, 1, 2), HOM)).ok  # collapsing u with b is not compatible
    assert validate_morphism(Morphism(vs.B, l3, (0, 1, 2, 2), HOM)).ok  # collapsing v with 1 is the filter {1, v}


# ---------------------------------------------------------------------------
# V-formations


def test_vs_formation_is_valid(vs):
    assert check_vformation(vs).ok


def test_bad_embedding_is_reported(vs):
    bad = VFormation(vs.A, vs.B, vs.C, Morphism(vs.A, vs.B, (0, 1, 3), EMBEDDING), vs.j)
    rep = check_vformation(bad)
    assert not rep.ok  # v is idempotent but its image b is not


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
    assert rep.h.map == rep.k.map == (0, 1, 2, 3)


def test_found_reports_revalidate():
    vf = _vf(trivial(), lukasiewicz(3), godel(3))
    rep = bounded_amalgam_search(vf, 5)
    assert rep.found
    assert validate(rep.d, ("lattice", "monoid", "residuation", "chain")).ok
    assert validate_morphism(rep.h).ok and validate_morphism(rep.k).ok
    assert compose(rep.h, vf.i) == compose(rep.k, vf.j)


def test_one_amalgam_of_vs_fails(vs):
    rep = bounded_one_amalgam_search(vs, 9)
    assert rep.verdict == "UNSAT"
    assert "identifies elements of A, skipped" in rep.detail


def test_one_amalgam_found_for_identity_formation(vs):
    vf = VFormation(vs.A, vs.B, vs.B, vs.i, vs.i)
    rep = bounded_one_amalgam_search(vf, 4)
    assert rep.found
    assert rep.h.kind == "HOM" and rep.k.kind == "EMBEDDING"
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
    with pytest.raises(PreconditionError):
        bounded_amalgam_search(vs, 6, SearchFlags(pointed=True))


def test_pointed_variant_unsat(vs):
    vsp = pointed_vformation(vs, 0)
    assert bounded_amalgam_search(vsp, 8, SearchFlags(pointed=True)).verdict == "UNSAT"


def test_budget_verdict():
    from reslat import Budget

    vf = _vf(trivial(), lukasiewicz(3), lukasiewicz(3))
    rep = bounded_amalgam_search(vf, 5, budget=Budget(max_nodes=0), min_size=5)
    assert rep.verdict == "BUDGET"
    # plenty of budget: the same search succeeds
    assert bounded_amalgam_search(vf, 5, min_size=5).found


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
    assert bounded_amalgam_search(vs, 7, SearchFlags(commutative=True)).verdict == "UNSAT"
    assert bounded_amalgam_search(vs, 7, SearchFlags(integral=True)).verdict == "UNSAT"
    # and a commutative integral amalgam is still found where one exists
    vf = _vf(trivial(), lukasiewicz(3), godel(3))
    rep = bounded_amalgam_search(vf, 5, SearchFlags(commutative=True, integral=True))
    assert rep.found
    assert validate(rep.d, ("commutative", "integral")).ok


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
    bad_u1 = replace(w, u1=1)  # v instead of u
    rej = check_obstruction(vs, bad_u1)
    assert not rej.accepted and rej.clause == "W2"
    assert "b\\v = 1" in "\n".join(rej.lines)

    inside = replace(w, b=2)  # v lies in i(A)
    rej2 = check_obstruction(vs, inside)
    assert not rej2.accepted and rej2.clause == "W1-domain"

    not_fixing = replace(w, a=0)  # u*b = u != b breaks W1
    rej3 = check_obstruction(vs, not_fixing)
    assert not rej3.accepted and rej3.clause == "W1"


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
        SearchFlags(),
        [(5, 2, 0), (6, 15, 0), (7, 63, 0), (8, 196, 0), (9, 504, 0), (10, 1134, 0), (11, 2310, 0), (12, 4356, 0), (13, 7722, 0)],
    ),
    "VS.pointed": (
        11,
        SearchFlags(pointed=True),
        [(5, 2, 0), (6, 13, 0), (7, 48, 0), (8, 133, 0), (9, 308, 0), (10, 630, 0), (11, 1176, 0)],
    ),
    "VS^const-1:2": (11, SearchFlags(), [(6, 2, 0), (7, 17, 0), (8, 80, 0), (9, 276, 0), (10, 780, 0), (11, 1914, 0)]),
    "VS^identity:2": (14, SearchFlags(), [(10, 4, 0), (11, 56, 0), (12, 417, 0), (13, 2197, 0), (14, 9191, 0)]),
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


@pytest.mark.parametrize("name, m, types, conflicts", [("VS", 12, 5, 2), ("VS^identity:2", 14, 25, 16)])
def test_order_types_of_the_paper_formations(vs, name, m, types, conflicts):
    from reslat.amalgamation import _order_type, _pins_for, _placements, _type_refuted

    vf = _paper_formation(vs, name)
    found = {_order_type(hpos, kpos)[:2] for hpos, kpos in _placements(vf, m, SearchFlags())}
    assert len(found) == types
    assert sum(_pins_for(vf, *t) is None for t in found) == conflicts
    assert all(_type_refuted(vf, *t, SearchFlags()) for t in found)


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
    combinations, and pointed once with every bottom designated as 0.  Then
    the unpointed ones over the trivial algebra with C a 4-chain, which are
    the least that tell a gap just above a point from the point above it."""
    from reslat import enumerate_chains, with_zero

    chains = [c for n in (1, 2, 3) for c in enumerate_chains(n)]
    pointed = [with_zero(c, 0) for c in chains]
    unpointed = [SearchFlags(c, i) for c in (False, True) for i in (False, True)]
    groups = [
        ((trivial(), two()), chains, chains, unpointed),
        ([with_zero(A, 0) for A in (trivial(), two())], pointed, pointed, [SearchFlags(pointed=True)]),
        ((trivial(),), chains, list(enumerate_chains(4)), unpointed),
    ]
    out = []
    for bases, b_hosts, c_hosts, flag_sets in groups:
        for A, B, C in itertools.product(bases, b_hosts, c_hosts):
            for i, j in itertools.product(find_embeddings(A, B), find_embeddings(A, C)):
                out += [(VFormation(A, B, C, i, j), flags) for flags in flag_sets]
    return out


def test_refuted_order_types_have_no_completion():
    from reslat import CompletionProblem
    from reslat.amalgamation import _order_type, _pins_for, _placements, _type_refuted
    from reslat.completion import iter_completions

    checked = 0
    for vf, flags in _small_formations():
        refuted = {}
        lo = max(vf.B.size, vf.C.size)
        for m in range(lo, lo + 3):
            for hpos, kpos in _placements(vf, m, flags):
                key = _order_type(hpos, kpos)[:2]
                if key not in refuted:
                    refuted[key] = _type_refuted(vf, *key, flags) and _pins_for(vf, *key) is not None
                if not refuted[key]:  # survives, or a pin conflict
                    continue
                pins = _pins_for(vf, hpos, kpos)
                problem = CompletionProblem(
                    m,
                    hpos[vf.B.unit],
                    *pins,
                    commutative=flags.commutative,
                    integral=flags.integral,
                    zero=0 if flags.pointed else None,
                )
                assert next(iter_completions(problem), None) is None, (vf, flags, hpos, kpos)
                checked += 1
    assert checked > 100  # the rules beyond pin conflicts do fire


def test_type_filter_changes_no_search_result(monkeypatch):
    from reslat import amalgamation

    cases = _small_formations()
    filtered = [bounded_amalgam_search(vf, max(vf.B.size, vf.C.size) + 2, flags) for vf, flags in cases]
    monkeypatch.setattr(amalgamation, "_type_refuted", lambda *a: False)
    unfiltered = [bounded_amalgam_search(vf, max(vf.B.size, vf.C.size) + 2, flags) for vf, flags in cases]
    assert {r.verdict for r in filtered} == {"FOUND", "UNSAT"}
    for got, want in zip(filtered, unfiltered):
        assert got.verdict == want.verdict
        assert [(s.size, s.placements) for s in got.sizes] == [(s.size, s.placements) for s in want.sizes]
        assert sum(s.nodes for s in got.sizes) <= sum(s.nodes for s in want.sizes)
        if want.found:
            assert got.d.product == want.d.product and got.d.unit == want.d.unit
            assert (got.h.map, got.k.map) == (want.h.map, want.k.map)
