"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time

from reslat import (
    CHAIN,
    ChainFlags,
    LowerCompatibleTriple,
    bounded_amalgam_search,
    bounded_one_amalgam_search,
    canonical_tables_json,
    check_identity,
    check_obstruction,
    congruence_filters,
    constant_one_nucleus,
    enumerate_chains,
    filter_to_congruence,
    find_obstruction,
    generalized_rotation,
    godel,
    injectivity_reduction,
    lukasiewicz,
    ordinal_sum,
    parse_identity,
    partial_gluing,
    pointed_vformation,
    residuals_from_product,
    rotated_vformation,
    tables_equal,
    trivial,
    two,
    validate,
    validate_triple,
    vs_a,
    vs_b,
    vs_c,
    vs_formation,
    vs_k_triple,
    with_zero,
)
from reslat.constructions import nucleus_by_name

from oracles import naive_chains


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_01_figure_reproduction():
    start = time.monotonic()
    A, B, C = vs_a(), vs_b(), vs_c()
    for alg in (A, B, C):
        assert validate(alg, ("chain", "commutative", "integral")).ok
        assert validate(alg, ("lattice", "monoid", "residuation")).ok
    bl = {s: i for i, s in enumerate(B.labels)}
    cl = {s: i for i, s in enumerate(C.labels)}
    # b = vb = b\u = v\b ; u = b^2 ; u = v\u
    assert B.product[bl["v"]][bl["b"]] == bl["b"]
    assert B.ldiv[bl["b"]][bl["u"]] == bl["b"]
    assert B.ldiv[bl["v"]][bl["b"]] == bl["b"]
    assert B.product[bl["b"]][bl["b"]] == bl["u"]
    assert B.ldiv[bl["v"]][bl["u"]] == bl["u"]
    # c = c\u = v\c = v\d ; d = vc = vd ; u = c^2 ; u = v\u
    assert C.ldiv[cl["c"]][cl["u"]] == cl["c"]
    assert C.ldiv[cl["v"]][cl["c"]] == cl["c"]
    assert C.ldiv[cl["v"]][cl["d"]] == cl["c"]
    assert C.product[cl["v"]][cl["c"]] == cl["d"]
    assert C.product[cl["v"]][cl["d"]] == cl["d"]
    assert C.product[cl["c"]][cl["c"]] == cl["u"]
    assert C.ldiv[cl["v"]][cl["u"]] == cl["u"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"VS chains validate and carry the annotated tables ({elapsed:.3f}s)")


def test_criterion_02_lower_compatible_triple():
    start = time.monotonic()
    triple = vs_k_triple()
    assert validate_triple(triple).ok
    sigma = list(triple.sigma)
    sigma[2] = 2  # sigma(c) := c
    broken = LowerCompatibleTriple(triple.K, tuple(sigma), triple.gamma)
    assert not validate_triple(broken).ok
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"triple valid, sigma(c) := c refuted ({elapsed:.3f}s)")


def test_criterion_03_construction_identities():
    start = time.monotonic()
    assert canonical_tables_json(ordinal_sum(lukasiewicz(3), two())) == canonical_tables_json(vs_b())
    assert canonical_tables_json(partial_gluing(vs_k_triple(), two())) == canonical_tables_json(vs_c())
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(3, f"ordinal sum = B, gluing = C byte-identically ({elapsed:.3f}s)")


def test_criterion_04_no_amalgam():
    start = time.monotonic()
    vs = vs_formation()
    w = find_obstruction(vs)
    assert w is not None and w.as_tuple() == (1, 1, 2, 0, 0, "LEFT")
    assert (vs.A.labels[w.a], vs.B.labels[w.b], vs.C.labels[w.c]) == ("v", "b", "c")
    assert (vs.A.labels[w.u1], vs.A.labels[w.u2]) == ("u", "u")
    trace = check_obstruction(vs, w)
    assert trace.accepted
    text = "\n".join(trace.lines)
    assert "k(c) <= h(b)\\h(u)" in text and "h(b) <= k(c)\\k(u)" in text
    report = bounded_amalgam_search(vs, 9)
    assert report.verdict == "UNSAT"
    assert {6, 7, 8, 9} <= {s.size for s in report.sizes}
    for bound in (6, 7, 8):
        assert bounded_amalgam_search(vs, bound).verdict == "UNSAT"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(4, f"witness (v,b,c,u,u) certified; UNSAT at sizes 6-9 ({elapsed:.2f}s)")


def test_criterion_05_no_one_amalgam():
    start = time.monotonic()
    vs = vs_formation()
    assert injectivity_reduction(vs) == [1]
    assert [F.sorted_members() for F in congruence_filters(vs.B)] == [
        (3,),
        (2, 3),
        (0, 1, 2, 3),
    ]
    report = bounded_one_amalgam_search(vs, 9)
    assert report.verdict == "UNSAT"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(5, f"Fil(B) as expected, v forces injectivity, one-amalgam UNSAT at 9 ({elapsed:.2f}s)")


def test_criterion_06_pointed_variant():
    start = time.monotonic()
    vs = pointed_vformation(vs_formation(), 0)
    w = find_obstruction(vs)
    assert w is not None and w.as_tuple() == (1, 1, 2, 0, 0, "LEFT")
    assert bounded_amalgam_search(vs, 9, ChainFlags(pointed=True)).verdict == "UNSAT"
    assert bounded_one_amalgam_search(vs, 9, ChainFlags(pointed=True)).verdict == "UNSAT"
    elapsed = time.monotonic() - start
    _report(6, f"0-designated variant: same witness, same verdicts ({elapsed:.2f}s)")


def test_criterion_07_rotation_corollaries():
    start = time.monotonic()
    vs = vs_formation()
    inv, stone = parse_identity("inv"), parse_identity("stone")

    rid = rotated_vformation(vs, "identity", 2)
    for alg in (rid.A, rid.B, rid.C):
        assert check_identity(alg, inv).holds
    assert bounded_amalgam_search(rid, 10).verdict == "UNSAT"  # |rid.C| = 10
    assert bounded_one_amalgam_search(rid, 10).verdict == "UNSAT"

    rc1 = rotated_vformation(vs, "const-1", 2)
    for alg in (rc1.A, rc1.B, rc1.C):
        assert check_identity(alg, stone).holds
    assert bounded_amalgam_search(rc1, 8).verdict == "UNSAT"
    assert bounded_one_amalgam_search(rc1, 8).verdict == "UNSAT"

    lift = generalized_rotation(vs.A, constant_one_nucleus(vs.A), 2)
    assert tables_equal(with_zero(lift, None), ordinal_sum(two(), vs.A))
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    _report(7, f"rotations: involutive family UNSAT at 10, Stone family at 8, lifting = 2+A ({elapsed:.2f}s)")


def test_criterion_08_two_potency():
    vs = vs_formation()
    rid = rotated_vformation(vs, "identity", 2)
    ident = parse_identity("potent:2")
    for alg in (vs.A, vs.B, vs.C, rid.A, rid.B, rid.C):
        assert check_identity(alg, ident).holds
    _report(8, "x*x = x*x*x on all six VS and rotated-VS chains")


def test_criterion_09_divisibility_contrast():
    div = parse_identity("div")
    assert check_identity(vs_b(), div).holds
    res = check_identity(vs_c(), div)
    assert not res.holds
    assert res.assignment_dict() == {"x": 3, "y": 2}
    assert (vs_c().labels[3], vs_c().labels[2]) == ("v", "c")
    _report(9, "B divisible; C fails divisibility first at x=v, y=c")


def test_criterion_10_property_suites(small_chain_pool, naive_ci4, naive_i4):
    start = time.monotonic()
    # residuation law round trip on the corpus
    for alg in small_chain_pool:
        order = CHAIN if alg.leq is None else alg.leq
        assert residuals_from_product(order, alg.product, alg.unit) == (alg.ldiv, alg.rdiv)
    # distinct congruence filters induce distinct congruences
    for alg in small_chain_pool:
        filters = congruence_filters(alg)
        assert len({filter_to_congruence(F) for F in filters}) == len(filters)
    # oracle equivalence of enumeration at n <= 4
    for n in (1, 2, 3):
        got = {a.product for a in enumerate_chains(n, ChainFlags(integral=True))}
        assert got == set(naive_chains(n, integral=True))
    assert {a.product for a in enumerate_chains(4, ChainFlags(integral=True))} == naive_i4
    assert {
        a.product for a in enumerate_chains(4, ChainFlags(integral=True, commutative=True))
    } == naive_ci4
    # ordinal-sum associativity on small builtin chains
    smalls = [trivial(), two(), lukasiewicz(3), godel(3), lukasiewicz(4)]
    for x, y, z in itertools.product(smalls, repeat=3):
        assert tables_equal(
            ordinal_sum(ordinal_sum(x, y), z), ordinal_sum(x, ordinal_sum(y, z))
        )
    # rotation size formula
    for alg in (trivial(), two(), lukasiewicz(3), godel(3), vs_a()):
        for name in ("identity", "const-1"):
            for n in (2, 3, 4):
                d = nucleus_by_name(alg, name)
                r = generalized_rotation(alg, d, n)
                assert r.size == alg.size + len(set(d.map)) + (n - 2)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(10, f"property suites green ({elapsed:.2f}s)")
