import itertools

import pytest

from reslat import (
    FormatError,
    LowerCompatibleTriple,
    Nucleus,
    PreconditionError,
    UnsupportedError,
    builtin,
    check_identity,
    congruence_filters,
    constant_one_nucleus,
    find_embeddings,
    generalized_rotation,
    godel,
    identity_nucleus,
    identity_triple,
    lukasiewicz,
    make_algebra,
    nucleus_image,
    ordinal_sum,
    parse_identity,
    partial_gluing,
    quotient,
    tables_equal,
    trivial,
    two,
    validate,
    validate_morphism,
    validate_nucleus,
    validate_triple,
    vs_a,
    vs_b,
    vs_c,
    vs_k_triple,
    with_zero,
)
from reslat.constructions import nucleus_by_name

from oracles import naive_ordinal_sum


def test_ordinal_sum_reproduces_b():
    assert tables_equal(ordinal_sum(lukasiewicz(3), two()), vs_b())


def test_ordinal_sum_unit_laws():
    for alg in (lukasiewicz(3), godel(4), vs_b()):
        assert tables_equal(ordinal_sum(alg, trivial()), alg)
        assert tables_equal(ordinal_sum(trivial(), alg), alg)


def test_two_plus_two_is_godel_three():
    assert tables_equal(ordinal_sum(two(), two()), godel(3))


def test_ordinal_sum_is_associative_on_small_chains(builtin_chains):
    smalls = [a for a in builtin_chains if a.size <= 4][:5]
    for x, y, z in itertools.product(smalls, repeat=3):
        left = ordinal_sum(ordinal_sum(x, y), z)
        right = ordinal_sum(x, ordinal_sum(y, z))
        assert tables_equal(left, right)


def test_ordinal_sum_preserves_divisibility(builtin_chains):
    div = parse_identity("div")
    divisible = [a for a in builtin_chains if a.size <= 4 and check_identity(a, div).holds]
    assert divisible
    for x, y in itertools.product(divisible, repeat=2):
        assert check_identity(ordinal_sum(x, y), div).holds


def test_ordinal_sum_rejects_non_integral():
    # chain 0 < 1 < 2 with unit 1 in the middle is residuated but not integral
    notint = make_algebra(product=[[0, 0, 0], [0, 1, 2], [0, 2, 2]], unit=1)
    assert not validate(notint, ("integral",)).ok
    with pytest.raises(UnsupportedError):
        ordinal_sum(notint, two())


def test_ordinal_sum_rejects_a_pointed_summand():
    with pytest.raises(PreconditionError, match="unpointed"):
        ordinal_sum(with_zero(two(), 0), two())


def test_ordinal_sum_components_embed():
    s = ordinal_sum(lukasiewicz(3), lukasiewicz(3))
    assert (0, 1, 4) in find_embeddings(lukasiewicz(3), s)
    assert (2, 3, 4) in find_embeddings(lukasiewicz(3), s)


# ---------------------------------------------------------------------------
# triples and gluing


def test_builtin_triple_is_lower_compatible():
    assert validate_triple(vs_k_triple()).ok


def test_mutating_sigma_breaks_the_triple():
    t = vs_k_triple()
    sigma = list(t.sigma)
    sigma[2] = 2  # sigma(c) := c
    broken = LowerCompatibleTriple(t.K, tuple(sigma), t.gamma)
    rep = validate_triple(broken)
    assert not rep.ok
    assert rep.first_failure().flag == "undefinedness-pattern"
    assert rep.first_failure().witness == (2, 1)


def _k_mutant(product=None, ldiv=None, product_mask=None, gamma=None):
    """``vs_k_triple()`` with K's product, its divisions (one table for
    both), its product mask or gamma replaced; K is c2 < d < c < 1."""
    t = vs_k_triple()
    K = t.K
    ldiv = ldiv or K.ldiv
    masks = K.masks if product_mask is None else (product_mask, *K.masks[1:])
    K = make_algebra(product=product or K.product, unit=K.unit, ldiv=ldiv, rdiv=ldiv, labels=K.labels, masks=masks)
    return LowerCompatibleTriple(K, t.sigma, gamma or t.gamma)


@pytest.mark.parametrize(
    "triple, clause, witness",
    [
        # d*d = d breaks monotonicity of the product: not residuated
        (_k_mutant(product=[[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 0, 2], [0, 1, 2, 3]]), "partial-irl", (1, 1, 0)),
        # only products with the unit defined: a partial IRL, but not a triple's K
        (_k_mutant(product_mask=[[x == 3 or y == 3 for y in range(4)] for x in range(4)]), "total-product", (0, 0)),
        # gamma(c) = 1 is not the upper adjoint of sigma: sigma(1) <= c fails, 1 <= gamma(c) holds
        (_k_mutant(gamma=(0, 2, 3, 3)), "residuated-pair", (3, 2)),
        # c*c = d (so c\c2 = d): c*sigma(c) = c*d = c2 but sigma(c*c) = d
        (
            _k_mutant(
                product=[[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 2], [0, 1, 2, 3]],
                ldiv=[[3] * 4, [2, 3, 3, 3], [1, 0, 3, 3], [0, 1, 2, 3]],
            ),
            "strong-conucleus",
            (2, 2),
        ),
        # the Goedel product: sigma commutes with it, but c*c = c lies above sigma(c) = d
        (
            _k_mutant(
                product=[[min(x, y) for y in range(4)] for x in range(4)],
                ldiv=[[3] * 4, [0, 3, 3, 3], [0, 0, 3, 3], [0, 1, 2, 3]],
            ),
            "products-below-sigma",
            (2, 2),
        ),
    ],
)
def test_each_triple_clause_rejects_its_mutant_first(triple, clause, witness):
    rep = validate_triple(triple)
    assert [c.flag for c in rep.checks if not c.ok] == [clause]
    assert rep.first_failure().witness == witness


def test_accepted_triples_have_a_monotone_sigma_and_a_closure_gamma():
    """``validate_triple`` leaves out two clauses of the definition: sigma
    monotone, and gamma increasing, idempotent and monotone.  A residuated
    pair makes gamma the upper adjoint of sigma, which implies both.  Over
    every gamma with K's sigma and every sigma with K's gamma, each accepted
    triple is checked against the definition directly, and the first
    failure comes no later than ``residuated-pair``."""
    t = vs_k_triple()
    K, n = t.K, t.K.size
    pairs = itertools.chain(
        ((t.sigma, gamma) for gamma in itertools.product(range(n), repeat=n)),
        ((sigma, t.gamma) for sigma in itertools.product(range(n), repeat=n)),
    )
    first = set()
    for sigma, gamma in pairs:
        rep = validate_triple(LowerCompatibleTriple(K, sigma, gamma))
        first.add(None if rep.ok else rep.first_failure().flag)
        if rep.ok:
            for x, y in itertools.product(range(n), repeat=2):
                assert K.le(x, gamma[x]) and gamma[gamma[x]] == gamma[x]
                if K.le(x, y):
                    assert K.le(gamma[x], gamma[y]) and K.le(sigma[x], sigma[y])
    assert first == {None, "undefinedness-pattern", "residuated-pair"}


def test_every_triple_on_the_small_integral_chains_is_checked_against_the_definition():
    """Every (sigma, gamma) on each integral chain of size <= 3: 1,475
    triples.  Each accepted one has a monotone sigma and a closure gamma,
    checked directly, and more than one is accepted."""
    from reslat import ChainFlags, enumerate_chains

    triples = accepted = 0
    for K in (K for n in (1, 2, 3) for K in enumerate_chains(n, ChainFlags(integral=True))):
        maps = list(itertools.product(range(K.size), repeat=K.size))
        for sigma, gamma in itertools.product(maps, repeat=2):
            triples += 1
            if not validate_triple(LowerCompatibleTriple(K, sigma, gamma)).ok:
                continue
            accepted += 1
            for x, y in itertools.product(range(K.size), repeat=2):
                assert K.le(x, gamma[x]) and gamma[gamma[x]] == gamma[x]
                if K.le(x, y):
                    assert K.le(gamma[x], gamma[y]) and K.le(sigma[x], sigma[y])
    assert triples == 1475 and accepted > 1


def test_identity_maps_on_partial_k_fail():
    t = vs_k_triple()
    ident = tuple(range(4))
    rep = validate_triple(LowerCompatibleTriple(t.K, ident, ident))
    assert not rep.ok
    assert rep.first_failure().flag == "undefinedness-pattern"
    assert rep.first_failure().witness == (2, 1)


def test_trivial_triple_is_valid():
    assert validate_triple(identity_triple(trivial())).ok


def test_gluing_reproduces_c():
    assert tables_equal(partial_gluing(vs_k_triple(), two()), vs_c())
    c = vs_c()
    assert c.product[3][2] == 1  # v*c = d
    assert c.ldiv[3][1] == 2  # v\d = c
    assert c.ldiv[2][1] == 3  # c\d = v


def test_gluing_with_identity_triple_is_ordinal_sum(builtin_chains):
    for lower, upper in itertools.product(builtin_chains, repeat=2):
        expected = naive_ordinal_sum(lower, upper)
        assert tables_equal(ordinal_sum(lower, upper), expected)
        assert tables_equal(partial_gluing(identity_triple(lower), upper), expected)


def test_gluing_upper_is_subalgebra_and_lower_a_subreduct():
    glued = partial_gluing(vs_k_triple(), two())
    assert find_embeddings(two(), glued)
    K = vs_k_triple().K
    from reslat.algebra import meet_table, join_table

    # K sits at indices 0..2 plus the unit; product, meet, and join restrict
    pos = [0, 1, 2, glued.unit]
    gm, gj = meet_table(glued), join_table(glued)
    for x in range(4):
        for y in range(4):
            assert glued.product[pos[x]][pos[y]] == pos[K.product[x][y]]
            assert gm[pos[x]][pos[y]] == pos[min(x, y)]
            assert gj[pos[x]][pos[y]] == pos[max(x, y)]


def _square():
    """The 2x2 Goedel square 0 < a, b < 1 with a, b incomparable."""
    leq = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    meet = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
    return make_algebra(product=meet, unit=3, order=leq)


def test_gluing_with_square_lower_component():
    # the square has a \/ b = 1; gluing on 2 re-routes that join to the
    # upper bottom
    glued = partial_gluing(identity_triple(_square()), two())
    assert validate(glued, ("lattice", "monoid", "residuation", "integral")).ok
    from reslat.algebra import join_table

    assert join_table(glued)[1][2] == 3  # join of the incomparable pair = 0 of 2
    assert glued.size == 5


def test_gluing_rejects_trivial_upper():
    with pytest.raises(PreconditionError):
        partial_gluing(vs_k_triple(), trivial())  # no splitting coatom


def test_gluing_total_lower_needs_no_splitting_coatom():
    # only undefined divisions of K are sent to the coatom, so a total K
    # glues below an upper algebra that has none
    square = _square()
    glued = partial_gluing(identity_triple(square), square)
    assert glued.size == 7
    assert validate(glued, ("lattice", "monoid", "residuation", "integral")).ok


def test_gluing_rejects_pointed_inputs():
    from reslat import with_zero

    with pytest.raises(PreconditionError):
        partial_gluing(vs_k_triple(), with_zero(two(), 0))


# ---------------------------------------------------------------------------
# nuclei and rotations


def test_nucleus_image_examples():
    a = vs_a()
    img, surj = nucleus_image(identity_nucleus(a))
    assert tables_equal(img, a) and surj == (0, 1, 2)

    img1, surj1 = nucleus_image(constant_one_nucleus(a))
    assert img1.size == 1 and surj1 == (0, 0, 0)

    collapse = Nucleus(a, (0, 2, 2))  # u -> u, v -> 1, 1 -> 1
    assert validate_nucleus(collapse).ok
    img2, surj2 = nucleus_image(collapse)
    assert tables_equal(img2, two())
    assert surj2 == (0, 1, 1)


def _closure_operators(alg):
    """Every closure operator on ``alg``, one per closed set that contains
    the top and has a least member above each element."""
    top = next(t for t in range(alg.size) if all(alg.le(x, t) for x in range(alg.size)))
    rest = [x for x in range(alg.size) if x != top]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            closed = (top,) + extra
            d = []
            for x in range(alg.size):
                above = [c for c in closed if alg.le(x, c)]
                least = [c for c in above if all(alg.le(c, o) for o in above)]
                if not least:
                    break
                d.append(least[0])
            else:
                yield tuple(d)


def test_induced_algebras_keep_the_parent_operations(small_chain_pool):
    """Quotients and nucleus images carry the parent's five operations:
    the quotient map is a homomorphism, and an image divides closed
    elements as the parent does."""
    for alg in small_chain_pool + [_square()]:
        for F in congruence_filters(alg):
            q, qmap = quotient(F)
            assert validate_morphism(alg, q, qmap).ok, (alg, F)
            assert {x for x in range(alg.size) if qmap[x] == q.unit} == F.members, (alg, F)
        for dmap in _closure_operators(alg):
            d = Nucleus(alg, dmap)
            if not validate_nucleus(d).ok:
                continue
            img, surj = nucleus_image(d)
            closed = sorted(set(dmap))
            for i, x in enumerate(closed):
                for j, y in enumerate(closed):
                    assert closed[img.ldiv[i][j]] == alg.ldiv[x][y], (alg, dmap, x, y)
                    assert closed[img.rdiv[i][j]] == alg.rdiv[x][y], (alg, dmap, x, y)


def test_invalid_nucleus_is_rejected():
    a = vs_a()
    rep = validate_nucleus(Nucleus(a, (0, 0, 2)))  # decreasing on v
    assert not rep.ok
    with pytest.raises(PreconditionError):
        nucleus_image(Nucleus(a, (0, 0, 2)))
    for dmap, detail, witness in (((1, 0, 2), "not idempotent", (0,)), ((2, 1, 2), "not monotone", (0, 1))):
        bad = validate_nucleus(Nucleus(a, dmap)).first_failure()
        assert (bad.flag, bad.detail, bad.witness) == ("closure", detail, witness)


def test_disconnected_rotation_of_two():
    r = generalized_rotation(identity_nucleus(two()), 2)
    assert r.size == 4 and r.zero == 0
    assert validate(r, ("lattice", "monoid", "residuation", "integral", "commutative", "chain", "zero-bounded")).ok
    assert check_identity(r, parse_identity("inv")).holds
    # the rotated copy annihilates: x' * y' = 0
    assert r.product[1][1] == 0


def test_rotation_of_trivial_is_two_pointed():
    r = generalized_rotation(identity_nucleus(trivial()), 2)
    assert r.size == 2 and r.zero == 0
    assert tables_equal(with_zero(r, None), two())


def test_rotation_of_l3_is_involutive_six_chain():
    r = generalized_rotation(identity_nucleus(lukasiewicz(3)), 2)
    assert r.size == 6
    assert validate(r, ("lattice", "monoid", "residuation", "chain", "zero-bounded")).ok
    assert check_identity(r, parse_identity("inv")).holds
    # the original chain sits on top, its rotated copy annihilates below
    assert (3, 4, 5) in find_embeddings(lukasiewicz(3), r)
    assert r.product[2][2] == 0


def test_lifting_is_ordinal_sum_with_two():
    for alg in (vs_a(), vs_b(), vs_c(), lukasiewicz(3)):
        lift = generalized_rotation(constant_one_nucleus(alg), 2)
        assert tables_equal(with_zero(lift, None), ordinal_sum(two(), alg))
        assert check_identity(lift, parse_identity("stone")).holds


def test_rotation_size_formula_and_validity(builtin_chains):
    for alg in builtin_chains:
        if alg.size > 4:
            continue
        for name in ("identity", "const-1"):
            for n in (2, 3, 4):
                d = nucleus_by_name(alg, name)
                r = generalized_rotation(d, n)
                image = len(set(d.map))
                assert r.size == alg.size + image + (n - 2)
                assert validate(r, ("lattice", "monoid", "residuation", "integral", "chain", "zero-bounded")).ok


def _square_unit_first():
    """The square re-indexed with its unit at index 0 and its bottom at 3."""
    square = _square()
    swap = (3, 1, 2, 0)
    return make_algebra(
        product=[[swap[square.product[swap[x]][swap[y]]] for y in range(4)] for x in range(4)],
        unit=0,
        order=[[square.le(swap[x], swap[y]) for y in range(4)] for x in range(4)],
    )


def test_rotations_of_square():
    for square in (_square(), _square_unit_first()):
        for name in ("identity", "const-1"):
            for n in (2, 3):
                r = generalized_rotation(nucleus_by_name(square, name), n)
                assert not r.is_chain_order
                assert validate(r, ("lattice", "monoid", "residuation", "integral", "zero-bounded")).ok
                if name == "identity":
                    assert check_identity(r, parse_identity("inv")).holds


def test_rotation_on_trivial_gives_lukasiewicz_chains():
    for n in (2, 3, 4, 5):
        r = generalized_rotation(identity_nucleus(trivial()), n)
        assert tables_equal(with_zero(r, None), lukasiewicz(n))


def test_rotation_rejects_bad_arity():
    with pytest.raises(PreconditionError):
        generalized_rotation(identity_nucleus(vs_a()), 1)


def test_rotation_rejects_bad_inputs():
    a, pointed = vs_a(), with_zero(vs_a(), 0)
    notint = make_algebra(product=[[0, 0, 0], [0, 1, 2], [0, 2, 2]], unit=1)
    for nucleus, error, message in (
        (identity_nucleus(pointed), PreconditionError, "unpointed"),
        (Nucleus(a, (1, 0, 2)), PreconditionError, "not a nucleus"),
        (identity_nucleus(notint), UnsupportedError, "must be an IRL"),
    ):
        with pytest.raises(error, match=message):
            generalized_rotation(nucleus, 2)


def test_rotation_involution_only_with_identity_nucleus():
    a = vs_a()
    r = generalized_rotation(constant_one_nucleus(a), 2)
    assert not check_identity(r, parse_identity("inv")).holds


# ---------------------------------------------------------------------------
# builtins


def test_builtin_dispatch():
    assert tables_equal(builtin("two"), two())
    assert tables_equal(builtin("lukasiewicz(3)"), lukasiewicz(3))
    assert tables_equal(builtin("godel(4)"), godel(4))
    assert builtin("VS.A").labels == ("u", "v", "1")
    assert isinstance(builtin("VS.K_triple"), LowerCompatibleTriple)
    with pytest.raises(FormatError):
        builtin("frobnicate")
    with pytest.raises(FormatError):
        builtin("lukasiewicz(x)")


def test_vs_a_is_godel_3():
    assert tables_equal(vs_a(), godel(3))


def test_vs_builtin_annotations():
    a, b, c = vs_a(), vs_b(), vs_c()
    assert a.ldiv[1][0] == 0  # v \ u = u
    assert b.labels == ("u", "b", "v", "1") and c.labels == ("u", "d", "c", "v", "1")
    assert c.ldiv[2][0] == 2  # c \ u = c
