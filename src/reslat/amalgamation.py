"""V-formations over finite residuated chains: embedding search, bounded
amalgam and one-amalgam search, and obstruction certificates.

An obstruction witness is a finite tuple of table facts in B and C alone
which rules out a chain amalgam of *any* size: the distinguished images
h(b), k(c) can be neither equal nor ordered either way without violating
order preservation and residuation in the would-be chain.  The amalgam
search refutes whole order types of h(B) | k(C) the same way before it
completes any table.
"""

from __future__ import annotations

import itertools
import json
import math
from operator import gt
from typing import NamedTuple

from .algebra import (
    CHAIN,
    BudgetExceededError,
    CheckOutcome,
    FiniteRL,
    FormatError,
    PreconditionError,
    UnsupportedError,
    ValidationReport,
    compose,
    congruence_filters,
    filter_to_congruence,
    make_algebra,
    map_fault,
    operation_tables,
    quotient,
    validate,
    validate_morphism,
    with_zero,
)
from .completion import (
    DEFAULT_BUDGET,
    MAX_CHAIN_SIZE,
    ChainFlags,
    CompletionProblem,
    SearchStats,
    iter_completions,
)
from .documents import algebra_to_document, document_to_algebra
from .constructions import (
    builtin,
    generalized_rotation,
    nucleus_by_name,
    rotation_map,
    vs_a,
    vs_b,
    vs_c,
)


class VFormation(NamedTuple):
    A: FiniteRL
    B: FiniteRL
    C: FiniteRL
    i: tuple[int, ...]  # index map A -> B, an embedding
    j: tuple[int, ...]  # index map A -> C, an embedding
    name: str = ""


LEFT = "LEFT"
RIGHT = "RIGHT"


class ObstructionWitness(NamedTuple):
    a: int  # element of A
    b: int  # element of B outside i(A)
    c: int  # element of C outside j(A)
    u1: int  # element of A bounding c*c
    u2: int  # element of A bounding b*b
    side: str = LEFT


class ObstructionCheck(NamedTuple):
    clause: str | None  # the first W1-W3 clause that fails, None if none does
    lines: tuple[str, ...]

    @property
    def accepted(self) -> bool:
        return self.clause is None


class SizeStats(NamedTuple):
    """One size of D: all its placements, counted in closed form (at the
    last size of a FOUND or BUDGET report too), and the engine's nodes."""

    size: int
    placements: int
    nodes: int


class SearchReport(NamedTuple):
    verdict: str  # FOUND | UNSAT | BUDGET
    bound: int
    d: FiniteRL | None = None
    h: tuple[int, ...] | None = None  # index map B -> d
    k: tuple[int, ...] | None = None  # index map C -> d, an embedding
    sizes: tuple[SizeStats, ...] = ()
    detail: str = ""

    @property
    def found(self):
        return self.verdict == "FOUND"


def check_vformation(vf: VFormation) -> ValidationReport:
    """Validate the three algebras as RLs and both maps as embeddings of A,
    into B and into C."""
    checks = []
    for alg, tag in ((vf.A, "A"), (vf.B, "B"), (vf.C, "C")):
        rep = validate(alg, ("lattice", "monoid", "residuation"))
        bad = rep.first_failure()
        checks.append(
            CheckOutcome(tag, rep.ok, None if rep.ok else bad.witness, "" if rep.ok else f"{bad.flag}: {bad.detail}")
        )
    for cod, f, tag in ((vf.B, vf.i, "i"), (vf.C, vf.j, "j")):
        rep = validate_morphism(vf.A, cod, f, injective=True)
        bad = rep.first_failure()
        fault = "" if rep.ok else bad.detail or f"{bad.flag} not preserved"  # operations have no detail
        checks.append(CheckOutcome(tag, rep.ok, None if rep.ok else bad.witness, fault))
    return ValidationReport(vf.name or "v-formation", tuple(checks))


# ---------------------------------------------------------------------------
# V-formation documents: keys ``name``, ``A``, ``B``, ``C`` (algebra
# documents or builtin names), ``i`` and ``j`` (index maps)


_VF_KEYS = ("name", "A", "B", "C", "i", "j")


def vformation_to_document(vf: VFormation) -> dict:
    return {
        "name": vf.name,
        "A": algebra_to_document(vf.A),
        "B": algebra_to_document(vf.B),
        "C": algebra_to_document(vf.C),
        "i": list(vf.i),
        "j": list(vf.j),
    }


def _component(value):
    alg = builtin(value) if isinstance(value, str) else document_to_algebra(value)
    if not isinstance(alg, FiniteRL):
        raise FormatError(f"builtin {value!r} is not an algebra")
    if alg.masks is not None:
        raise FormatError(f"V-formation component {alg.name or 'unnamed'!r} is a partial algebra")
    return alg


def document_to_vformation(doc: dict) -> VFormation:
    if not isinstance(doc, dict):
        raise FormatError("V-formation document must be a JSON object")
    unknown = set(doc) - set(_VF_KEYS)
    if unknown:
        raise FormatError(f"unknown V-formation fields: {sorted(unknown)}")
    for key in ("A", "B", "C", "i", "j"):
        if key not in doc:
            raise FormatError(f"missing V-formation field {key!r}")
    for key in ("i", "j"):
        if not isinstance(doc[key], list) or not all(type(v) is int for v in doc[key]):
            raise FormatError(f"V-formation map {key!r} must be a list of integers")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FormatError("V-formation name must be a string")
    A, B, C = _component(doc["A"]), _component(doc["B"]), _component(doc["C"])
    vf = VFormation(A, B, C, tuple(doc["i"]), tuple(doc["j"]), name)
    report = check_vformation(vf)
    if not report.ok:
        raise FormatError(f"invalid V-formation: {report.first_failure()}")
    return vf


def load_vformation(path: str) -> VFormation:
    with open(path, encoding="utf-8") as fh:
        return document_to_vformation(json.load(fh))


# ---------------------------------------------------------------------------
# embedding search


def find_embeddings(x: FiniteRL, y: FiniteRL) -> list[tuple[int, ...]]:
    """All injective operation-preserving index maps from x into y, in
    lexicographic order."""
    n = x.size
    ops_x, ops_y = operation_tables(x), operation_tables(y)
    both_zero = x.zero is not None and y.zero is not None
    image = [-1] * n
    out = []

    def consistent(e, v):
        # sound pruning against the assigned prefix; leaves are re-verified
        if e == x.unit and v != y.unit:
            return False
        if both_zero and e == x.zero and v != y.zero:
            return False
        if v in image[:e]:
            return False

        def img(t):
            return v if t == e else image[t]

        for e2 in range(e + 1):
            w = img(e2)
            for tx, ty in zip(ops_x, ops_y):
                r = img(tx[e][e2])
                if r != -1 and ty[v][w] != r:
                    return False
                r = img(tx[e2][e])
                if r != -1 and ty[w][v] != r:
                    return False
        return True

    def extend(e):
        if e == n:
            if validate_morphism(x, y, image, injective=True).ok:
                out.append(tuple(image))
            return
        for v in range(y.size):
            if consistent(e, v):
                image[e] = v
                extend(e + 1)
                image[e] = -1

    extend(0)
    return out


# ---------------------------------------------------------------------------
# obstruction certificates


def _w1(vf: VFormation, a, b, c, side):
    """W1: a*b = b in B and a*c != c in C (b*a, c*a on the RIGHT); whether it holds, and both products."""
    ia, ja = vf.i[a], vf.j[a]
    B, C = vf.B.product, vf.C.product
    pb, pc = (B[ia][b], C[ja][c]) if side == LEFT else (B[b][ia], C[c][ja])
    return pb == b and pc != c, pb, pc


def _w2(vf: VFormation, b, c, u1):
    """W2: c*c <= u1 in C and b\\u1 <= b in B; whether it holds, c*c and b\\u1."""
    cc, bdiv = vf.C.product[c][c], vf.B.ldiv[b][vf.i[u1]]
    return vf.C.le(cc, vf.j[u1]) and vf.B.le(bdiv, b), cc, bdiv


def _w3(vf: VFormation, b, c, u2):
    """W3: b*b <= u2 in B and c\\u2 <= c in C; whether it holds, b*b and c\\u2."""
    bb, cdiv = vf.B.product[b][b], vf.C.ldiv[c][vf.j[u2]]
    return vf.B.le(bb, vf.i[u2]) and vf.C.le(cdiv, c), bb, cdiv


def _check_maps(vf: VFormation) -> None:
    """Refuse a formation whose i or j is no index map of A into B or C."""
    for cod, f, tag in ((vf.B, vf.i, "i"), (vf.C, vf.j, "j")):
        fault = map_fault(vf.A, cod, f)
        if fault:
            raise FormatError(f"V-formation map {tag!r}: {fault}")


def _side_product(side, s, t):
    return f"{s}*{t}" if side == LEFT else f"{t}*{s}"


def find_obstruction(vf: VFormation) -> ObstructionWitness | None:
    """The least witness (a, b, c, u1, u2, side), LEFT before RIGHT; a hit
    certifies that no chain amalgam of any size exists.  ``None`` proves
    nothing.  W1 reads (a, b, c, side), W2 (b, c, u1) and W3 (b, c, u2), so
    the least u1 and u2 are found once per (b, c), and the scan walks
    (a, b, c) and takes the least side.  Only the given roles are scanned,
    b in B and c in C: VS with B and C swapped has no witness."""
    _check_maps(vf)
    for alg, tag in ((vf.B, "B"), (vf.C, "C")):
        if not validate(alg, ("chain",)).ok:
            raise UnsupportedError(f"{tag} must be a chain")
    us = range(vf.A.size)
    b_outside = [b for b in range(vf.B.size) if b not in vf.i]
    c_outside = [c for c in range(vf.C.size) if c not in vf.j]
    least = {}  # (b, c) -> the least (u1, u2), for the pairs that have both
    for b, c in itertools.product(b_outside, c_outside):
        u1 = next((u for u in us if _w2(vf, b, c, u)[0]), None)
        u2 = next((u for u in us if _w3(vf, b, c, u)[0]), None)
        if u1 is not None and u2 is not None:
            least[b, c] = u1, u2
    for a, ((b, c), (u1, u2)) in itertools.product(us, least.items()):
        side = next((s for s in (LEFT, RIGHT) if _w1(vf, a, b, c, s)[0]), None)
        if side is not None:
            return ObstructionWitness(a, b, c, u1, u2, side)
    return None


def check_obstruction(vf: VFormation, w: ObstructionWitness) -> ObstructionCheck:
    """Re-evaluate the witness clauses and emit the refutation trace, or
    REJECT with the facts up to the first clause that fails."""
    _check_maps(vf)
    A, B, C, i, j = vf.A, vf.B, vf.C, vf.i, vf.j
    for e, alg, what in ((w.a, A, "a"), (w.u1, A, "u1"), (w.u2, A, "u2")):
        if not 0 <= e < alg.size:
            raise FormatError(f"witness field {what} out of range")
    if not 0 <= w.b < B.size or not 0 <= w.c < C.size:
        raise FormatError("witness field b or c out of range")
    if w.side not in (LEFT, RIGHT):
        raise FormatError("witness side must be LEFT or RIGHT")
    la, lb, lc = A.labels, B.labels, C.labels
    a, b, c, u1, u2 = la[w.a], lb[w.b], lc[w.c], la[w.u1], la[w.u2]
    for e, image, fact in ((w.b, i, f"b = {b}"), (w.c, j, f"c = {c}")):
        if e in image:
            return ObstructionCheck("W1-domain", ("REJECT(W1-domain)", f"  {fact} lies in the image of A"))
    ok1, pb, pc = _w1(vf, w.a, w.b, w.c, w.side)
    ok2, cc, bdiv = _w2(vf, w.b, w.c, w.u1)
    ok3, bb, cdiv = _w3(vf, w.b, w.c, w.u2)
    w1, w2, w3 = facts = (
        f"{_side_product(w.side, a, b)} = {lb[pb]} in B and {_side_product(w.side, a, c)} = {lc[pc]} in C",
        f"{c}*{c} = {lc[cc]} <= {lc[j[w.u1]]} in C; {b}\\{lb[i[w.u1]]} = {lb[bdiv]} <= {b} in B",
        f"{b}*{b} = {lb[bb]} <= {lb[i[w.u2]]} in B; {c}\\{lc[j[w.u2]]} = {lc[cdiv]} <= {c} in C",
    )
    for n, ok in enumerate((ok1, ok2, ok3), 1):
        if not ok:
            lines = [f"REJECT(W{n})"] + [f"  W{k}: {fact}" for k, fact in enumerate(facts[:n], 1)]
            return ObstructionCheck(f"W{n}", tuple(lines))
    lines = (
        f"witness (a={a}, b={b}, c={c}, u1={u1}, u2={u2}, side={w.side})",
        f"(i) {w1}; since any amalgam identifies the images of {a}, "
        f"h(b) = k(c) would force {_side_product(w.side, a, 'h(b)')} to be both h(b) and a smaller "
        f"element, so h(b) != k(c) and the chain orders them strictly.",
        f"(ii) if h(b) < k(c): h(b)*k(c) <= k(c)*k(c) and {w2}, so by "
        f"residuation k(c) <= h(b)\\h({u1}) = h({b}\\{u1}) <= h(b), "
        f"contradicting h(b) < k(c).",
        f"(iii) if k(c) < h(b): k(c)*h(b) <= h(b)*h(b) and {w3}, so by "
        f"residuation h(b) <= k(c)\\k({u2}) = k({c}\\{u2}) <= k(c), "
        f"contradicting k(c) < h(b).",
        "conclusion: no totally ordered residuated lattice amalgamates this "
        "V-formation, at any cardinality.",
    )
    return ObstructionCheck(None, lines)


def injectivity_reduction(vf: VFormation) -> list[int]:
    """Elements a of A (a != 1) with i(a) inside every nontrivial congruence
    filter of B.  Nonempty output forces any one-amalgam homomorphism from B
    agreeing with an injective map on A to be injective itself."""
    trivial_filter = frozenset({vf.B.unit})
    nontrivial = [F.members for F in congruence_filters(vf.B) if F.members != trivial_filter]
    return [
        a
        for a in range(vf.A.size)
        if a != vf.A.unit and all(vf.i[a] in F for F in nontrivial)
    ]


# ---------------------------------------------------------------------------
# bounded amalgam search


def _order_types(vf: VFormation, flags: ChainFlags, max_ranks: int):
    """Each order type ``(htype, ktype)`` of h(B) | k(C) with at most
    ``max_ranks`` ranks once: the ranks of B's and C's elements among the
    distinct image points.  B and C are merged along the anchors
    i(a) ~ j(a); an element of B and one of C outside the images of A may
    share a rank.  With ``integral`` B's unit holds the top rank, with
    ``pointed`` both zeros hold rank 0.  Anchors that are not monotone
    deadlock the merge, so they yield nothing.  A merge is cut as soon as
    the elements left on one side need more ranks than the bound leaves,
    so a type that fits no chain of ``max_ranks`` elements is never built."""
    B, C = vf.B, vf.C
    partner = dict(zip(vf.i, vf.j))
    anchored_c = set(vf.j)
    htype, ktype = [0] * B.size, [0] * C.size

    def merge(b, c, r):  # b, c: the least elements not ranked yet; r: the next rank
        if r + max(B.size - b, C.size - c) > max_ranks:
            return
        if b == B.size and c == C.size:
            if flags.integral and htype[B.unit] != r - 1:
                return
            if flags.pointed and (htype[B.zero] or ktype[C.zero]):
                return
            yield tuple(htype), tuple(ktype)
            return
        b_free = b < B.size and b not in partner
        c_free = c < C.size and c not in anchored_c
        if b_free:
            htype[b] = r
            yield from merge(b + 1, c, r + 1)
        if c_free:
            ktype[c] = r
            yield from merge(b, c + 1, r + 1)
        if b_free and c_free or partner.get(b) == c:
            htype[b] = ktype[c] = r
            yield from merge(b + 1, c + 1, r + 1)

    yield from merge(0, 0, 0)


def _placements(types, m: int, flags: ChainFlags) -> list:
    """Each placement ``(hpos, kpos, points, type)`` of the order types
    ``types`` in a chain of size m, sorted by (hpos, kpos).  ``points`` are
    t increasing positions, ``points[r]`` the position of rank r, with rank
    0 at D's bottom when ``pointed`` and rank t-1 at its top when
    ``integral``; hpos and kpos read them through htype and ktype."""
    out = []
    for htype, ktype in types:
        for points in itertools.combinations(range(m), max(htype + ktype) + 1):
            if flags.pointed and points[0] or flags.integral and points[-1] != m - 1:
                continue
            out.append((tuple([points[r] for r in htype]), tuple([points[r] for r in ktype]), points, (htype, ktype)))
    out.sort()  # no two placements share (hpos, kpos), so the sort never compares further
    return out


def _pins_for(vf: VFormation, htype, ktype):
    """Product and division pins, in ranks of the order type ``(htype,
    ktype)``, induced by requiring h and k to preserve operations.  h and k
    are one-to-one, so only a cell whose two ranks B and C both hold gets
    two pins, and the caller has checked that those agree."""
    pins = ({}, {}, {})
    for alg, pos in ((vf.B, htype), (vf.C, ktype)):
        for cell_pins, table in zip(pins, (alg.product, alg.ldiv, alg.rdiv)):
            for px, row in zip(pos, table):
                for py, v in zip(pos, row):
                    cell_pins[px, py] = pos[v]
    return pins


def _type_pins(vf: VFormation, htype, ktype):
    """The type's pins, as ``_pins_for`` builds them, or ``None`` when no
    chain D, of any size, embeds B and C with h(B) | k(C) in the order type
    ``(htype, ktype)``.

    D is cut into 2t+1 slots around its t image points p_0 < ... < p_{t-1}:
    gap, p_0, gap, p_1, ..., p_{t-1}, gap, so p_r sits in slot 2r+1.  Sending
    each element of D to its slot is monotone and one-to-one on the points.
    Each product p_x*p_y keeps an interval of slots, narrowed by four rules
    that hold in every D of the type, so an empty interval refutes the type
    at every size:

    - pins: h and k preserve products, so p_x*p_y = p_v, in slot 2v+1, and
      a conflict between two pins refutes the type at once;
    - unit: p_u*p_y = p_y*p_u = p_y, which the pins on the units' rows and
      columns already say, since every rank is B's or C's;
    - division: p_x \\ p_z = p_d gives p_x*s > p_z for every s > p_d, and
      elements above p_z sit in slots above 2z+1; the rule raises only the
      first cell of that row ray, and the rest of the ray lies above-right
      of it, where monotonicity reaches (p_z / p_y alike, down a column).
      Its other half, p_x*p_d <= p_z, is B's or C's product pin on the
      same cell;
    - monotonicity: D's product is monotone and so is the slot map.

    h and k are one-to-one, so only the cells whose two ranks both B and C
    hold can get conflicting pins, and those are compared first.  Then the
    pins and division bounds are read from B's and C's rows, each bound
    only ever tightening its cell, so their order does not matter.  No
    rule reads one kind of bound to move the other, so some interval is
    empty exactly when some cell's own lower bound exceeds the least upper
    bound at or above-right of it.  One backward sweep takes that running
    minimum, row by row from the last, each row read from its end, and
    checks every cell.  Only a type that survives gets its pins built.
    """
    B, C = vf.B, vf.C
    shared = [(b, ktype.index(r)) for b, r in enumerate(htype) if r in ktype]
    for tb, tc in ((B.product, C.product), (B.ldiv, C.ldiv), (B.rdiv, C.rdiv)):
        if any(htype[tb[b][b2]] != ktype[tc[c][c2]] for b, c in shared for b2, c2 in shared):
            return None
    t = max(htype + ktype) + 1
    lo, hi = [0] * (t * t), [2 * t] * (t * t)
    for alg, pos in ((B, htype), (C, ktype)):
        for x, prod_row, ldiv_row, rdiv_row in zip(pos, alg.product, alg.ldiv, alg.rdiv):
            for y, p, ld, rd in zip(pos, prod_row, ldiv_row, rdiv_row):
                c, v = x * t + y, 2 * pos[p] + 1  # the pin x*y = pos[p]
                if lo[c] < v:
                    lo[c] = v
                if hi[c] > v:
                    hi[c] = v
                v = 2 * y + 2  # x \ y = d puts (x, d+1) above y, and y / x = d puts (d+1, x)
                if pos[ld] < t - 1 and lo[x * t + pos[ld] + 1] < v:
                    lo[x * t + pos[ld] + 1] = v
                if pos[rd] < t - 1 and lo[pos[rd] * t + t + x] < v:
                    lo[pos[rd] * t + t + x] = v
    row = [2 * t] * t
    for x in reversed(range(0, t * t, t)):  # upper bounds downwards, each row read from its end
        row = list(itertools.accumulate(map(min, reversed(hi[x : x + t]), row), min))
        if any(map(gt, reversed(lo[x : x + t]), row)):
            return None
    return _pins_for(vf, htype, ktype)


def _revalidate(vf: VFormation, d: FiniteRL, h, k, h_injective: bool = True) -> None:
    """Re-check a found amalgam: k embeds C into d, h embeds B into d (or
    is a homomorphism, when not ``h_injective``), and they agree on A,
    h.i = k.j; anything else is a fault of the search."""
    for dom, f, injective in ((vf.B, h, h_injective), (vf.C, k, True)):
        if not validate_morphism(dom, d, f, injective).ok:
            raise AssertionError(f"search produced an invalid {'embedding' if injective else 'hom'}: {list(f)}")
    hi, kj = compose(h, vf.i), compose(k, vf.j)
    if hi != kj:
        raise AssertionError(f"search produced maps that disagree on A: h.i = {hi}, k.j = {kj}")


def bounded_amalgam_search(
    vf: VFormation,
    max_size: int,
    flags: ChainFlags = ChainFlags(),
    budget: int = DEFAULT_BUDGET,
    min_size: int | None = None,
) -> SearchReport:
    """Search for a chain amalgam of every size up to ``max_size``, in the
    class of chains that ``flags`` selects.

    FOUND returns the canonically least completion; UNSAT means no chain D
    of the class with ``|D| <= max_size`` admits embeddings h, k with
    h.i = k.j.  The bound is the only blind spot: extra elements outside the
    images may be needed at larger sizes, so UNSAT-at-bound is
    corroboration, not proof.

    The order types of h(B) | k(C) with at most ``max_size`` ranks are
    listed directly, by ``_order_types``.  A placement (h, k) is a type
    with its t ranks sent to positions in D, so per-size ``placements`` is
    counted in closed form, the sum over all types of comb(m - e, t - e)
    with e the ranks held at D's bottom (pointed) or top (integral); on
    FOUND or BUDGET the last size counts all of its placements too.  Each
    size lists, by ``_placements``, every placement of the types that fit
    it and are not refuted yet, sorted by (h, k).  A type is decided once,
    when its first placement comes up: a type that ``_type_pins`` refutes,
    by a pin conflict or an empty slot interval, has no amalgam in any
    chain, of any size, so its later placements are skipped and no later
    size lists it.  The completion engine runs on the placements of the
    other types, so per-size ``nodes`` counts its branching nodes on those
    placements alone.  D contains B and C, so when ``flags`` does not
    admit B or C every type is refuted at once and ``detail`` names them.
    ``budget`` bounds the engine nodes of all sizes together.
    Raises :class:`PreconditionError` when the sizes to search, from
    ``max(|B|, |C|)`` (or ``min_size``) up to the bound, are none, when
    the bound is above ``MAX_CHAIN_SIZE``, the largest chain the engine
    builds, and in a pointed search when the 0 of B or C is not its bottom.
    Raises :class:`FormatError` when i or j is no index map of A.
    """
    _check_maps(vf)
    for alg, tag in ((vf.A, "A"), (vf.B, "B"), (vf.C, "C")):
        if not alg.is_chain_order:
            raise UnsupportedError(f"{tag} must use the index-order chain convention")
    if flags.pointed and (vf.B.zero != 0 or vf.C.zero != 0):
        raise PreconditionError("pointed search needs B and C with 0 at the bottom")
    lo = max(vf.B.size, vf.C.size) if min_size is None else min_size
    if lo > max_size:
        raise PreconditionError(f"nothing to search: sizes start at {lo}, above the bound {max_size}")
    if max_size > MAX_CHAIN_SIZE:
        raise PreconditionError(f"the bound {max_size} is above {MAX_CHAIN_SIZE}, the largest chain the engine builds")
    per_size = []
    stats = SearchStats()  # one count for the whole search, which the budget bounds
    zero = 0 if flags.pointed else None
    fixed = flags.pointed + flags.integral  # ranks held at D's bottom or top
    types = [(max(h + k) + 1, (h, k)) for h, k in _order_types(vf, flags, max_size)]  # (ranks, type)
    outside = [tag for alg, tag in ((vf.B, "B"), (vf.C, "C")) if not flags.admits(alg.product, alg.unit)]
    # each decided type: its pins in ranks, or None when it is refuted
    pins = dict.fromkeys([t for _, t in types]) if outside else {}

    for m in range(lo, max_size + 1):
        before = stats.nodes
        # a type places its free ranks in D's free elements; a lone rank that
        # is both zero and unit (trivial B and C) fits only the trivial D
        placements = sum(math.comb(m - fixed, r - fixed) if r >= fixed else int(m == 1) for r, _ in types)
        live = [t for r, t in types if r <= m and pins.get(t, ()) is not None]
        # in (hpos, kpos) order: FOUND is the least completion
        for hpos, kpos, points, t in _placements(live, m, flags):
            if t not in pins:
                pins[t] = _type_pins(vf, *t)
            if pins[t] is None:
                continue
            at = ({(points[x], points[y]): points[v] for (x, y), v in table.items()} for table in pins[t])
            problem = CompletionProblem(m, hpos[vf.B.unit], *at, flags)
            try:
                for cells in iter_completions(problem, budget, stats):
                    table = [tuple(cells[i:i + m]) for i in range(0, m * m, m)]
                    d = make_algebra(product=table, unit=problem.unit, order=CHAIN, zero=zero, name=f"amalgam{m}")
                    _revalidate(vf, d, hpos, kpos)
                    per_size.append(SizeStats(m, placements, stats.nodes - before))
                    return SearchReport("FOUND", max_size, d, hpos, kpos, tuple(per_size))
            except BudgetExceededError:
                per_size.append(SizeStats(m, placements, stats.nodes - before))
                return SearchReport("BUDGET", max_size, sizes=tuple(per_size), detail=f"budget exhausted at size {m}")
        per_size.append(SizeStats(m, placements, stats.nodes - before))
    detail = f"{' and '.join(outside)} outside the class" if outside else ""
    return SearchReport("UNSAT", max_size, sizes=tuple(per_size), detail=detail)


def bounded_one_amalgam_search(
    vf: VFormation,
    max_size: int,
    flags: ChainFlags = ChainFlags(),
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Search for a one-amalgam: k embeds C, h is any homomorphism on B.

    Every homomorphism factors as a quotient by its kernel filter followed
    by an embedding, so it suffices to run the amalgam search on (A, B/F, C)
    for each congruence filter F of B that does not identify distinct
    elements of i(A).  A filter whose quotient or C exceeds the bound is
    skipped; :class:`PreconditionError` is raised when no filter is left.
    The budget bounds the nodes of all the sub-searches together.  On FOUND,
    h is the map of ``quotient`` followed by the sub-search's embedding,
    re-validated with k against the formation.  Raises
    :class:`FormatError` when i or j is no index map of A."""
    _check_maps(vf)
    all_sizes: list[SizeStats] = []
    details = []
    searched = 0
    image = set(vf.i)
    for F in congruence_filters(vf.B):
        members = F.members
        if any(len(image.intersection(block)) > 1 for block in filter_to_congruence(F)):
            details.append(f"filter {sorted(members)}: identifies elements of A, skipped")
            continue
        Bq, q = quotient(F)
        if max(Bq.size, vf.C.size) > max_size:
            details.append(f"filter {sorted(members)}: needs more than {max_size} elements, skipped")
            continue
        searched += 1
        sub_vf = VFormation(vf.A, Bq, vf.C, compose(q, vf.i), vf.j, f"{vf.name}/F")
        spent = sum(s.nodes for s in all_sizes)
        report = bounded_amalgam_search(sub_vf, max_size, flags, budget - spent)
        all_sizes.extend(report.sizes)
        details.append(f"filter {sorted(members)}: {report.verdict}")
        if report.found:
            h = compose(report.h, q)
            _revalidate(vf, report.d, h, report.k, h_injective=False)
            report = report._replace(h=h)
        if report.verdict != "UNSAT":
            break
    if not searched:
        raise PreconditionError(f"nothing to search within the bound {max_size}: {'; '.join(details)}")
    return report._replace(sizes=tuple(all_sizes), detail="; ".join(details))


# ---------------------------------------------------------------------------
# the built-in formation and its variants


def vs_formation() -> VFormation:
    """The V-formation of 2-potent commutative integral chains with no chain
    amalgam: A the 3-element Goedel chain, B an ordinal sum, C a gluing."""
    A, B, C = vs_a(), vs_b(), vs_c()
    return VFormation(A, B, C, find_embeddings(A, B)[0], find_embeddings(A, C)[0], "VS")


def pointed_vformation(vf: VFormation, a_zero: int) -> VFormation:
    """Designate an element of A (and its images) as the constant 0."""
    A = with_zero(vf.A, a_zero)
    B = with_zero(vf.B, vf.i[a_zero])
    C = with_zero(vf.C, vf.j[a_zero])
    return VFormation(A, B, C, vf.i, vf.j, f"{vf.name}.pointed" if vf.name else "")


def rotated_vformation(vf: VFormation, delta_name: str, n: int) -> VFormation:
    """Apply the generalized n-rotation to every component of a V-formation.
    The result is not checked here: ``check_vformation`` does that."""
    dA, dB, dC = (nucleus_by_name(x, delta_name) for x in (vf.A, vf.B, vf.C))
    RA, RB, RC = (generalized_rotation(d, n, name=f"{d.parent.name}^{delta_name}:{n}") for d in (dA, dB, dC))
    name = f"{vf.name}^{delta_name}:{n}" if vf.name else ""
    return VFormation(RA, RB, RC, rotation_map(dA, dB, n, vf.i), rotation_map(dA, dC, n, vf.j), name)


def builtin_vformation(name: str) -> VFormation:
    if name == "VS":
        return vs_formation()
    if name == "VS.pointed":
        vs = vs_formation()
        return pointed_vformation(vs, 0)
    raise FormatError(f"unknown builtin V-formation {name!r}")
