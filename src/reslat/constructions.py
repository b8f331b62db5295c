"""Constructors for finite residuated lattices.

Ordinal sums, partial gluings driven by a lower-compatible triple, nucleus
images and generalized n-rotations (the disconnected rotation is the one by
the identity nucleus at n = 2), plus the built-in algebras (Lukasiewicz and
Goedel chains and the VS formation components).

Carrier convention: constructed algebras list the lower block first, so
every constructed chain is in index order, which ``make_algebra`` stores as
``CHAIN``, and table equality is meaningful.  Total constructions state only
the product and the order table; ``make_algebra`` derives the divisions,
which are unique.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .algebra import (
    CheckOutcome,
    FiniteRL,
    FormatError,
    PARTIAL_IRL_FLAGS,
    PreconditionError,
    UnsupportedError,
    ValidationReport,
    definedness,
    make_algebra,
    relabel,
    validate,
)


class LowerCompatibleTriple(NamedTuple):
    """A partial IRL together with its conucleus/closure pair."""

    K: FiniteRL
    sigma: tuple[int, ...]
    gamma: tuple[int, ...]


class Nucleus(NamedTuple):
    """A closure operator with delta(x)*delta(y) <= delta(x*y)."""

    parent: FiniteRL
    map: tuple[int, ...]


def _uniquify(labels):
    seen = {}
    out = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = 1
            out.append(lab)
        else:
            seen[lab] += 1
            candidate = f"{lab}_{seen[lab]}"
            while candidate in seen:
                seen[lab] += 1
                candidate = f"{lab}_{seen[lab]}"
            seen[candidate] = 1
            out.append(candidate)
    return tuple(out)


# ---------------------------------------------------------------------------
# ordinal sum


def ordinal_sum(lower: FiniteRL, upper: FiniteRL, name: str = "") -> FiniteRL:
    """Stack two integral chains, identifying their units.

    Elements of ``lower`` minus its unit sit below all of ``upper``; cross
    products absorb downwards (b*c = c*b = b) and cross divisions are
    c\\b = b/c = b and b\\c = c/b = 1.  This is the partial gluing of
    the identity triple of ``lower``.
    """
    for alg, side in ((lower, "lower"), (upper, "upper")):
        if not alg.is_chain_order:
            raise UnsupportedError(f"{side} summand must use the index-order chain convention")
        rep = validate(alg, ("lattice", "monoid", "residuation", "integral", "chain"))
        if not rep.ok:
            raise UnsupportedError(f"{side} summand is not an integral residuated chain: {rep.first_failure()}")
        if alg.zero is not None:
            raise PreconditionError("ordinal sum takes unpointed summands")
    return partial_gluing(identity_triple(lower), upper, name=name or f"({lower.name}+{upper.name})")


# ---------------------------------------------------------------------------
# lower-compatible triples and partial gluing


def validate_triple(t: LowerCompatibleTriple) -> ValidationReport:
    """Check the clauses of the lower-compatible-triple definition that can
    fail.  Sigma monotone and gamma a closure operator (increasing,
    idempotent, monotone) are not checked: ``residuated-pair`` makes gamma
    the upper adjoint of sigma, so sigma is monotone, and the upper adjoint
    of a decreasing idempotent sigma is increasing, idempotent and monotone."""
    K, sigma, gamma = t.K, t.sigma, t.gamma
    n = K.size
    if len(sigma) != n or len(gamma) != n:
        raise FormatError("sigma and gamma must have one entry per element")
    if any(not 0 <= v < n for v in itertools.chain(sigma, gamma)):
        raise FormatError("sigma/gamma entry out of range")
    le = K.le
    product_mask, ldiv_mask, rdiv_mask = definedness(K)
    checks = []

    def fail(clause, witness, detail=""):
        checks.append(CheckOutcome(clause, False, witness, detail))
        return ValidationReport("triple", tuple(checks))

    sub = validate(K, PARTIAL_IRL_FLAGS)
    if not sub.ok:
        bad = sub.first_failure()
        return fail("partial-irl", bad.witness, f"K: {bad.flag}")
    checks.append(CheckOutcome("partial-irl", True))

    for x in range(n):
        for y in range(n):
            if not product_mask[x][y]:
                return fail("total-product", (x, y), "K must have a total product")
    checks.append(CheckOutcome("total-product", True))

    for x in range(n):
        for y in range(n):
            undefined = le(sigma[x], y) and not le(x, y)
            if ldiv_mask[x][y] == undefined:
                return fail("undefinedness-pattern", (x, y), "x\\y defined iff not (sigma(x) <= y and x !<= y)")
            if rdiv_mask[x][y] == undefined:
                return fail("undefinedness-pattern", (x, y), "y/x defined iff not (sigma(x) <= y and x !<= y)")
    checks.append(CheckOutcome("undefinedness-pattern", True))

    for x in range(n):
        for y in range(n):
            if le(sigma[x], y) != le(x, gamma[y]):
                return fail("residuated-pair", (x, y), "sigma(x) <= y iff x <= gamma(y)")
    checks.append(CheckOutcome("residuated-pair", True))

    for x in range(n):
        if not le(sigma[x], x):
            return fail("strong-conucleus", (x,), "sigma not decreasing")
        if sigma[sigma[x]] != sigma[x]:
            return fail("strong-conucleus", (x,), "sigma not idempotent")
    if sigma[K.unit] != K.unit:
        return fail("strong-conucleus", (K.unit,), "sigma(1) != 1")
    for x in range(n):
        for y in range(n):
            if x == K.unit or y == K.unit:
                continue
            a = K.product[x][sigma[y]]
            b = sigma[K.product[x][y]]
            c = K.product[sigma[x]][y]
            if a != b or b != c:
                return fail("strong-conucleus", (x, y), "x*sigma(y) = sigma(x*y) = sigma(x)*y fails")
    checks.append(CheckOutcome("strong-conucleus", True))

    for x in range(n):
        for y in range(n):
            if y == K.unit:
                continue
            if not le(K.product[x][y], sigma[x]) or not le(K.product[y][x], sigma[x]):
                return fail("products-below-sigma", (x, y), "x*y, y*x <= sigma(x) fails")
    checks.append(CheckOutcome("products-below-sigma", True))

    return ValidationReport("triple", tuple(checks))


def identity_triple(alg: FiniteRL) -> LowerCompatibleTriple:
    """Total algebra viewed as a triple with identity maps (ordinal-sum case)."""
    ident = tuple(range(alg.size))
    return LowerCompatibleTriple(alg, ident, ident)


def _splitting_coatom(L: FiniteRL) -> int:
    """The coatom below which every non-unit element lives."""
    candidates = [
        c
        for c in range(L.size)
        if c != L.unit and all(L.le(x, c) for x in range(L.size) if x != L.unit)
    ]
    if not candidates:
        raise PreconditionError("upper algebra has no splitting coatom")
    return candidates[0]


def _stacked_order(blocks) -> list[list[bool]]:
    """Order table of a carrier made of blocks stacked bottom to top.

    Each block is a pair ``(members, le)``: a dict from carrier index to
    element and the order on those elements.  Every element of a block lies
    below every element of the blocks above it.
    """
    place = {i: (height, x, le) for height, (members, le) in enumerate(blocks) for i, x in members.items()}
    leq = [[False] * len(place) for _ in place]
    for i, (hi, x, le) in place.items():
        for j, (hj, y, _) in place.items():
            leq[i][j] = hi < hj or (hi == hj and le(x, y))
    return leq


def partial_gluing(t: LowerCompatibleTriple, L: FiniteRL, name: str = "") -> FiniteRL:
    """Glue a lower-compatible triple below an integral algebra at the unit.

    Products across the two parts go through sigma, and the divisions follow
    from the product.  A division that is undefined in K lands on the upper
    part's splitting coatom, which is therefore required only when some
    division of K is undefined.  A join of two non-units of K that reaches
    the unit becomes the bottom of the upper part, as the stacked order
    dictates.
    """
    report = validate_triple(t)
    if not report.ok:
        raise PreconditionError(f"invalid lower-compatible triple: {report.first_failure()}")
    rep = validate(L, ("lattice", "monoid", "residuation", "integral"))
    if not rep.ok:
        raise UnsupportedError(f"upper algebra must be an IRL: {rep.first_failure()}")
    K = t.K
    if K.zero is not None or L.zero is not None:
        raise PreconditionError("gluing takes unpointed inputs")
    _, ldiv_mask, rdiv_mask = definedness(K)
    if not all(map(all, ldiv_mask + rdiv_mask)):
        _splitting_coatom(L)

    nk = K.size - 1  # lower block without the shared unit
    n = nk + L.size
    unit = nk + L.unit
    k_elems = [x for x in range(K.size) if x != K.unit]
    in_K = {x if x < K.unit else x - 1: x for x in k_elems}  # glued index -> K index
    glued = {x: i for i, x in in_K.items()}
    glued[K.unit] = unit

    def mul(a, b):
        if a in in_K and b in in_K:
            return glued[K.product[in_K[a]][in_K[b]]]
        if a in in_K:  # x * y = sigma(x) for y in L below its unit
            return a if b == unit else glued[t.sigma[in_K[a]]]
        if b in in_K:
            return b if a == unit else glued[t.sigma[in_K[b]]]
        return nk + L.product[a - nk][b - nk]

    labels = _uniquify([K.labels[x] for x in k_elems] + list(L.labels))
    return make_algebra(
        product=[[mul(a, b) for b in range(n)] for a in range(n)],
        unit=unit,
        order=_stacked_order([(in_K, K.le), ({nk + x: x for x in range(L.size)}, L.le)]),
        labels=labels,
        name=name or f"({K.name}&{L.name})",
    )


# ---------------------------------------------------------------------------
# nuclei and rotations


def validate_nucleus(n: Nucleus) -> ValidationReport:
    alg, d = n.parent, n.map
    if len(d) != alg.size or any(not 0 <= v < alg.size for v in d):
        raise FormatError("nucleus map must send elements to elements")
    checks = []

    def fail(clause, witness, detail=""):
        checks.append(CheckOutcome(clause, False, witness, detail))
        return ValidationReport("nucleus", tuple(checks))

    for x in range(alg.size):
        if not alg.le(x, d[x]):
            return fail("closure", (x,), "not increasing")
        if d[d[x]] != d[x]:
            return fail("closure", (x,), "not idempotent")
    for x in range(alg.size):
        for y in range(alg.size):
            if alg.le(x, y) and not alg.le(d[x], d[y]):
                return fail("closure", (x, y), "not monotone")
    checks.append(CheckOutcome("closure", True))
    for x in range(alg.size):
        for y in range(alg.size):
            if not alg.le(alg.product[d[x]][d[y]], d[alg.product[x][y]]):
                return fail("nucleus-law", (x, y), "delta(x)*delta(y) <= delta(x*y) fails")
    checks.append(CheckOutcome("nucleus-law", True))
    return ValidationReport("nucleus", tuple(checks))


def identity_nucleus(alg: FiniteRL) -> Nucleus:
    return Nucleus(alg, tuple(range(alg.size)))


def constant_one_nucleus(alg: FiniteRL) -> Nucleus:
    return Nucleus(alg, tuple(alg.unit for _ in range(alg.size)))


def nucleus_by_name(alg: FiniteRL, name: str) -> Nucleus:
    if name == "identity":
        return identity_nucleus(alg)
    if name == "const-1":
        return constant_one_nucleus(alg)
    raise FormatError(f"unknown nucleus name {name!r}")


def nucleus_image(n: Nucleus) -> tuple[FiniteRL, tuple[int, ...]]:
    """Image algebra on the closed elements, with the closure surjection."""
    report = validate_nucleus(n)
    if not report.ok:
        raise PreconditionError(f"not a nucleus: {report.first_failure()}")
    alg, d = n.parent, n.map
    elems = sorted({d[x] for x in range(alg.size)})
    index = {x: i for i, x in enumerate(elems)}
    product = [[index[d[alg.product[x][y]]] for y in elems] for x in elems]
    image = make_algebra(
        product=product,
        unit=index[d[alg.unit]],
        order=[[alg.le(x, y) for y in elems] for x in elems],
        labels=tuple(alg.labels[x] for x in elems),
        name=f"{alg.name}_img" if alg.name else "",
    )
    surjection = tuple(index[d[x]] for x in range(alg.size))
    return image, surjection


def _rotation_layout(d: Nucleus, n: int):
    """The carrier of the n-rotation by ``d``, bottom to top: primed closed
    elements in dual order, then the n-2 interior Lukasiewicz levels, then
    the base algebra.

    Returns the closed elements in ascending index order and three index
    maps: closed element -> its primed copy, level 1..n-2 -> its index, and
    base element -> its index.
    """
    closed = sorted(set(d.map))
    k = len(closed)
    primed = {b: k - 1 - r for r, b in enumerate(closed)}
    levels = {t: k + t - 1 for t in range(1, n - 1)}
    base = {x: k + n - 2 + x for x in range(d.parent.size)}
    return closed, primed, levels, base


def rotation_map(src: Nucleus, tgt: Nucleus, n: int, base_map) -> tuple[int, ...]:
    """Index map between the n-rotations by ``src`` and ``tgt`` induced by a
    map of their base algebras.

    The base map must carry closed elements to closed elements, which holds
    for the identity and constant-one nuclei.
    """
    _, s_primed, s_levels, s_base = _rotation_layout(src, n)
    _, t_primed, t_levels, t_base = _rotation_layout(tgt, n)
    out = [0] * (len(s_primed) + len(s_levels) + len(s_base))
    for b, i in s_primed.items():
        out[i] = t_primed[base_map[b]]
    for t, i in s_levels.items():
        out[i] = t_levels[t]
    for x, i in s_base.items():
        out[i] = t_base[base_map[x]]
    return tuple(out)


def generalized_rotation(d: Nucleus, n: int, name: str = "") -> FiniteRL:
    """Bounded algebra from ``a = d.parent``, a rotated copy of the nucleus
    image, and an n-element Lukasiewicz block in between.

    Carrier, bottom to top: primed closed elements in dual order, then the
    n-2 interior Lukasiewicz levels, then ``a`` itself.  The result is
    pointed with zero the primed unit.
    """
    a = d.parent
    if n < 2:
        raise PreconditionError("rotations need n >= 2")
    rep = validate(a, ("lattice", "monoid", "residuation", "integral"))
    if not rep.ok:
        raise UnsupportedError(f"rotation input must be an IRL: {rep.first_failure()}")
    if a.zero is not None:
        raise PreconditionError("rotation takes an unpointed input")
    nrep = validate_nucleus(d)
    if not nrep.ok:
        raise PreconditionError(f"not a nucleus: {nrep.first_failure()}")

    dm = d.map
    closed, primed, levels, base = _rotation_layout(d, n)
    size = len(primed) + len(levels) + len(base)
    unit, zero = base[a.unit], primed[a.unit]
    in_a = {i: x for x, i in base.items()}
    in_p = {i: b for b, i in primed.items()}
    in_l = {i: t for t, i in levels.items()}

    def mul(i, j):
        if i in in_a and j in in_a:
            return base[a.product[in_a[i]][in_a[j]]]
        if i in in_a and j in in_p:  # x * b' = (delta(b/x))'
            return primed[dm[a.rdiv[in_a[i]][in_p[j]]]]
        if i in in_p and j in in_a:  # b' * x = (delta(x\b))'
            return primed[dm[a.ldiv[in_a[j]][in_p[i]]]]
        if i in in_l and j in in_l:  # the Lukasiewicz product of the levels
            t = in_l[i] + in_l[j] - (n - 1)
            return levels[t] if t > 0 else zero
        if i in in_a or j in in_a:  # x * l_t = l_t * x = l_t
            return j if i in in_a else i
        return zero  # products of two primed elements or of a primed element and a level

    labels = _uniquify(
        [f"{a.labels[b]}'" for b in reversed(closed)]
        + [f"l{i}" for i in range(1, n - 1)]
        + list(a.labels)
    )
    return make_algebra(
        product=[[mul(i, j) for j in range(size)] for i in range(size)],
        unit=unit,
        order=_stacked_order([(in_p, lambda b, c: a.le(c, b)), (in_l, lambda s, t: s <= t), (in_a, a.le)]),
        labels=labels,
        zero=zero,
        name=name or (f"{a.name}^rot{n}" if a.name else ""),
    )


# ---------------------------------------------------------------------------
# built-in algebras


def trivial() -> FiniteRL:
    return make_algebra(product=[[0]], unit=0, labels=("1",), name="trivial")


def two() -> FiniteRL:
    return make_algebra(product=[[0, 0], [0, 1]], unit=1, labels=("0", "1"), name="2")


def lukasiewicz(n: int) -> FiniteRL:
    """The n-element MV-chain: x*y = max(0, x+y-(n-1))."""
    if n < 1:
        raise FormatError("need n >= 1")
    product = [[max(0, x + y - (n - 1)) for y in range(n)] for x in range(n)]
    labels = tuple(["0"] + [f"a{i}" for i in range(1, n - 1)] + ["1"]) if n > 1 else ("1",)
    return make_algebra(product=product, unit=n - 1, labels=labels, name=f"L{n}")


def godel(n: int) -> FiniteRL:
    """The n-element Goedel chain: product is the meet."""
    if n < 1:
        raise FormatError("need n >= 1")
    product = [[min(x, y) for y in range(n)] for x in range(n)]
    labels = tuple(["0"] + [f"g{i}" for i in range(1, n - 1)] + ["1"]) if n > 1 else ("1",)
    return make_algebra(product=product, unit=n - 1, labels=labels, name=f"G{n}")


def vs_a() -> FiniteRL:
    """Three-element Goedel chain u < v < 1 with both elements idempotent."""
    return relabel(godel(3), ("u", "v", "1"), name="VS.A")


def vs_b() -> FiniteRL:
    """Ordinal sum of the 3-element MV-chain and 2: the chain u < b < v < 1."""
    alg = ordinal_sum(lukasiewicz(3), two(), name="VS.B")
    return relabel(alg, ("u", "b", "v", "1"), name="VS.B")


def vs_k_triple() -> LowerCompatibleTriple:
    """The 4-chain c2 < d < c < 1 with all non-unit products at the bottom,
    the division c\\d forgotten, sigma collapsing c to d, gamma lifting d to c."""
    # indices: c2=0, d=1, c=2, 1=3
    product = [
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 2],
        [0, 1, 2, 3],
    ]
    ldiv = [
        [3, 3, 3, 3],
        [2, 3, 3, 3],
        [2, 0, 3, 3],  # the (c, d) cell is masked off
        [0, 1, 2, 3],
    ]
    true_row = [True, True, True, True]
    div_mask = [true_row, true_row, [True, False, True, True], true_row]
    K = make_algebra(
        product=product,
        unit=3,
        ldiv=ldiv,
        rdiv=ldiv,
        labels=("c2", "d", "c", "1"),
        name="VS.K",
        masks=([true_row] * 4, div_mask, div_mask),
    )
    sigma = (0, 1, 1, 3)
    gamma = (0, 2, 2, 3)
    return LowerCompatibleTriple(K, sigma, gamma)


def vs_c() -> FiniteRL:
    """Partial gluing of the K triple with 2: the chain u < d < c < v < 1."""
    alg = partial_gluing(vs_k_triple(), two(), name="VS.C")
    return relabel(alg, ("u", "d", "c", "v", "1"), name="VS.C")


def builtin(name: str):
    """Look up a built-in algebra or triple by name.

    Parametric names take the form ``lukasiewicz(5)`` / ``godel(4)``.
    """
    fixed = {
        "trivial": trivial,
        "two": two,
        "2": two,
        "VS.A": vs_a,
        "VS.B": vs_b,
        "VS.C": vs_c,
        "VS.K_triple": vs_k_triple,
    }
    if name in fixed:
        return fixed[name]()
    for prefix, fn in (("lukasiewicz", lukasiewicz), ("godel", godel)):
        if name.startswith(prefix + "(") and name.endswith(")"):
            try:
                k = int(name[len(prefix) + 1 : -1])
            except ValueError:
                raise FormatError(f"bad parameter in builtin name {name!r}") from None
            return fn(k)
    raise FormatError(f"unknown builtin {name!r}")

