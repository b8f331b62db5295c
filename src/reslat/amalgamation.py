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

import heapq
import itertools
import json
import math
from dataclasses import dataclass, replace

from .algebra import (
    CHAIN,
    EMBEDDING,
    HOM,
    BudgetExceededError,
    CheckOutcome,
    FiniteRL,
    FormatError,
    Morphism,
    PreconditionError,
    UnsupportedError,
    ValidationReport,
    compose,
    congruence_filters,
    filter_to_congruence,
    make_algebra,
    operation_tables,
    quotient,
    validate,
    validate_morphism,
    with_zero,
)
from .completion import Budget, ChainFlags, CompletionProblem, SearchStats, iter_completions
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


@dataclass(frozen=True)
class VFormation:
    A: FiniteRL
    B: FiniteRL
    C: FiniteRL
    i: Morphism  # A -> B
    j: Morphism  # A -> C
    name: str = ""


LEFT = "LEFT"
RIGHT = "RIGHT"


@dataclass(frozen=True)
class ObstructionWitness:
    a: int  # element of A
    b: int  # element of B outside i(A)
    c: int  # element of C outside j(A)
    u1: int  # element of A bounding c*c
    u2: int  # element of A bounding b*b
    side: str = LEFT

    def as_tuple(self):
        return (self.a, self.b, self.c, self.u1, self.u2, self.side)


@dataclass(frozen=True)
class ObstructionCheck:
    accepted: bool
    clause: str | None
    lines: tuple[str, ...]

    def __str__(self):
        return "\n".join(self.lines)


@dataclass(frozen=True)
class SizeStats:
    """One size of D: all its placements, counted in closed form (at the
    last size of a FOUND or BUDGET report too), and the engine's nodes."""

    size: int
    placements: int
    nodes: int


@dataclass(frozen=True)
class SearchReport:
    verdict: str  # FOUND | UNSAT | BUDGET
    bound: int
    d: FiniteRL | None = None
    h: Morphism | None = None
    k: Morphism | None = None
    sizes: tuple[SizeStats, ...] = ()
    detail: str = ""

    @property
    def found(self):
        return self.verdict == "FOUND"


def make_vformation(A, B, C, i_map, j_map, name="") -> VFormation:
    return VFormation(
        A,
        B,
        C,
        Morphism(A, B, tuple(i_map), EMBEDDING),
        Morphism(A, C, tuple(j_map), EMBEDDING),
        name=name,
    )


def check_vformation(vf: VFormation) -> ValidationReport:
    """Validate the three algebras as RLs and both maps as embeddings."""
    checks = []
    for alg, tag in ((vf.A, "A"), (vf.B, "B"), (vf.C, "C")):
        rep = validate(alg, ("lattice", "monoid", "residuation"))
        bad = rep.first_failure()
        checks.append(
            CheckOutcome(tag, rep.ok, None if rep.ok else bad.witness, "" if rep.ok else f"{bad.flag}: {bad.detail}")
        )
    for m, tag in ((vf.i, "i"), (vf.j, "j")):
        rep = validate_morphism(m)
        bad = rep.first_failure()
        checks.append(
            CheckOutcome(tag, rep.ok, None if rep.ok else bad.witness, "" if rep.ok else f"{bad.flag} not preserved")
        )
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
        "i": list(vf.i.map),
        "j": list(vf.j.map),
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
    A, B, C = _component(doc["A"]), _component(doc["B"]), _component(doc["C"])
    vf = make_vformation(A, B, C, doc["i"], doc["j"], name=doc.get("name", ""))
    report = check_vformation(vf)
    if not report.ok:
        raise FormatError(f"invalid V-formation: {report.first_failure()}")
    return vf


def load_vformation(path: str) -> VFormation:
    with open(path, encoding="utf-8") as fh:
        return document_to_vformation(json.load(fh))


# ---------------------------------------------------------------------------
# embedding search


def find_embeddings(x: FiniteRL, y: FiniteRL, pin=None) -> list[Morphism]:
    """All injective operation-preserving maps from x into y extending
    ``pin``, in lexicographic order of the map list."""
    pin = dict(pin or {})
    if len(set(pin.values())) != len(pin):
        raise FormatError("pin must map distinct elements to distinct elements")
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
            m = Morphism(x, y, tuple(image), EMBEDDING)
            if validate_morphism(m).ok:
                out.append(m)
            return
        candidates = [pin[e]] if e in pin else range(y.size)
        for v in candidates:
            if consistent(e, v):
                image[e] = v
                extend(e + 1)
                image[e] = -1

    extend(0)
    return out


# ---------------------------------------------------------------------------
# obstruction certificates


def _witness_clauses(vf: VFormation, w: ObstructionWitness):
    """Evaluate W1-W3; returns (clause_name_or_None, facts dict)."""
    A, B, C, i, j = vf.A, vf.B, vf.C, vf.i.map, vf.j.map
    la, lb, lc = A.labels, B.labels, C.labels
    for e, alg, what in ((w.a, A, "a"), (w.u1, A, "u1"), (w.u2, A, "u2")):
        if not 0 <= e < alg.size:
            raise FormatError(f"witness field {what} out of range")
    if not 0 <= w.b < B.size or not 0 <= w.c < C.size:
        raise FormatError("witness field b or c out of range")
    if w.side not in (LEFT, RIGHT):
        raise FormatError("witness side must be LEFT or RIGHT")
    facts = {}
    if w.b in set(i):
        return "W1-domain", {"detail": f"b = {lb[w.b]} lies in the image of A"}
    if w.c in set(j):
        return "W1-domain", {"detail": f"c = {lc[w.c]} lies in the image of A"}
    ia, ja = i[w.a], j[w.a]
    if w.side == LEFT:
        pb, pc = B.product[ia][w.b], C.product[ja][w.c]
        facts["w1"] = (
            f"{la[w.a]}*{lb[w.b]} = {lb[pb]} in B and "
            f"{la[w.a]}*{lc[w.c]} = {lc[pc]} in C"
        )
    else:
        pb, pc = B.product[w.b][ia], C.product[w.c][ja]
        facts["w1"] = (
            f"{lb[w.b]}*{la[w.a]} = {lb[pb]} in B and "
            f"{lc[w.c]}*{la[w.a]} = {lc[pc]} in C"
        )
    if pb != w.b or pc == w.c:
        return "W1", facts
    cc = C.product[w.c][w.c]
    bdiv = B.ldiv[w.b][i[w.u1]]
    facts["w2"] = (
        f"{lc[w.c]}*{lc[w.c]} = {lc[cc]} <= {lc[j[w.u1]]} in C; "
        f"{lb[w.b]}\\{lb[i[w.u1]]} = {lb[bdiv]} <= {lb[w.b]} in B"
    )
    if not C.le(cc, j[w.u1]) or not B.le(bdiv, w.b):
        return "W2", facts
    bb = B.product[w.b][w.b]
    cdiv = C.ldiv[w.c][j[w.u2]]
    facts["w3"] = (
        f"{lb[w.b]}*{lb[w.b]} = {lb[bb]} <= {lb[i[w.u2]]} in B; "
        f"{lc[w.c]}\\{lc[j[w.u2]]} = {lc[cdiv]} <= {lc[w.c]} in C"
    )
    if not B.le(bb, i[w.u2]) or not C.le(cdiv, w.c):
        return "W3", facts
    return None, facts


def find_obstruction(vf: VFormation) -> ObstructionWitness | None:
    """Scan for the least witness; a hit certifies that no chain amalgam of
    any size exists.  ``None`` proves nothing."""
    for alg, tag in ((vf.B, "B"), (vf.C, "C")):
        if not validate(alg, ("chain",)).ok:
            raise UnsupportedError(f"{tag} must be a chain")
    i_img, j_img = set(vf.i.map), set(vf.j.map)
    b_outside = [b for b in range(vf.B.size) if b not in i_img]
    c_outside = [c for c in range(vf.C.size) if c not in j_img]
    for a, b, c, u1, u2, side in itertools.product(
        range(vf.A.size), b_outside, c_outside, range(vf.A.size), range(vf.A.size), (LEFT, RIGHT)
    ):
        w = ObstructionWitness(a, b, c, u1, u2, side)
        clause, _ = _witness_clauses(vf, w)
        if clause is None:
            return w
    return None


def check_obstruction(vf: VFormation, w: ObstructionWitness) -> ObstructionCheck:
    """Re-evaluate the witness clauses and emit the refutation trace."""
    clause, facts = _witness_clauses(vf, w)
    if clause is not None:
        lines = [f"REJECT({clause})"]
        for key in ("w1", "w2", "w3"):
            if key in facts:
                lines.append(f"  {key.upper()}: {facts[key]}")
        if "detail" in facts:
            lines.append(f"  {facts['detail']}")
        return ObstructionCheck(False, clause, tuple(lines))
    la, lb, lc = vf.A.labels, vf.B.labels, vf.C.labels
    a, b, c, u1, u2 = la[w.a], lb[w.b], lc[w.c], la[w.u1], la[w.u2]
    mul = (lambda s, t: f"{s}*{t}") if w.side == LEFT else (lambda s, t: f"{t}*{s}")
    lines = (
        f"witness (a={a}, b={b}, c={c}, u1={u1}, u2={u2}, side={w.side})",
        f"(i) {facts['w1']}; since any amalgam identifies the images of {a}, "
        f"h(b) = k(c) would force {mul(a, 'h(b)')} to be both h(b) and a smaller "
        f"element, so h(b) != k(c) and the chain orders them strictly.",
        f"(ii) if h(b) < k(c): h(b)*k(c) <= k(c)*k(c) and {facts['w2']}, so by "
        f"residuation k(c) <= h(b)\\h({u1}) = h({b}\\{u1}) <= h(b), "
        f"contradicting h(b) < k(c).",
        f"(iii) if k(c) < h(b): k(c)*h(b) <= h(b)*h(b) and {facts['w3']}, so by "
        f"residuation h(b) <= k(c)\\k({u2}) = k({c}\\{u2}) <= k(c), "
        f"contradicting k(c) < h(b).",
        "conclusion: no totally ordered residuated lattice amalgamates this "
        "V-formation, at any cardinality.",
    )
    return ObstructionCheck(True, None, lines)


def injectivity_reduction(vf: VFormation) -> list[int]:
    """Elements a of A (a != 1) with i(a) inside every nontrivial congruence
    filter of B.  Nonempty output forces any one-amalgam homomorphism from B
    agreeing with an injective map on A to be injective itself."""
    trivial_filter = frozenset({vf.B.unit})
    nontrivial = [F.members for F in congruence_filters(vf.B) if F.members != trivial_filter]
    return [
        a
        for a in range(vf.A.size)
        if a != vf.A.unit and all(vf.i.map[a] in F for F in nontrivial)
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
    partner = dict(zip(vf.i.map, vf.j.map))
    anchored_c = set(vf.j.map)
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


def _type_positions(htype, ktype, m: int, flags: ChainFlags):
    """Each placement ``(hpos, kpos, points)`` of the order type ``(htype,
    ktype)`` in a chain of size m, ``points[r]`` the position of rank r, in
    lexicographic order of (hpos, kpos): B's positions first, then C's own
    ranks fill the gaps between them in order."""
    t, b = max(htype + ktype) + 1, len(htype)
    order = htype + tuple(r for r in range(t) if r not in htype)  # B's ranks, then C's own
    ends = (-1,) + htype + (t,)
    counts = [y - x - 1 for x, y in zip(ends, ends[1:])]  # C's own ranks in each gap between B's
    # q[j] = hpos[j] - htype[j] + j is increasing and leaves each gap room for its ranks
    for q in itertools.combinations(range(m - t + b), b):
        hpos = tuple([x + r - j for j, (x, r) in enumerate(zip(q, htype))])
        if flags.pointed and hpos[0] or flags.integral and hpos[-1] != m - 1:
            continue
        cuts = (-1,) + hpos + (m,)
        gaps = [itertools.combinations(range(x + 1, y), n) for x, y, n in zip(cuts, cuts[1:], counts)]
        for fill in itertools.product(*gaps):
            points = [0] * t
            for r, p in zip(order, hpos + tuple(itertools.chain(*fill))):
                points[r] = p
            yield hpos, tuple([points[r] for r in ktype]), tuple(points)


def _pins_for(vf: VFormation, htype, ktype):
    """Product and division pins, in ranks of the order type ``(htype,
    ktype)``, induced by requiring h and k to preserve operations; ``None``
    when the two sets of pins conflict."""
    product_pins = {}
    ldiv_pins = {}
    rdiv_pins = {}
    for alg, pos in ((vf.B, htype), (vf.C, ktype)):
        for px, prod_row, ldiv_row, rdiv_row in zip(pos, alg.product, alg.ldiv, alg.rdiv):
            for y, py in enumerate(pos):
                key = (px, py)
                v = pos[prod_row[y]]
                if product_pins.setdefault(key, v) != v:
                    return None
                v = pos[ldiv_row[y]]
                if ldiv_pins.setdefault(key, v) != v:
                    return None
                v = pos[rdiv_row[y]]
                if rdiv_pins.setdefault(key, v) != v:
                    return None
    return product_pins, ldiv_pins, rdiv_pins


def _type_refuted(vf: VFormation, htype, ktype, flags: ChainFlags) -> bool:
    """True when no chain D, of any size, embeds B and C with h(B) | k(C) in
    the order type ``(htype, ktype)``.

    D is cut into 2t+1 slots around its t image points p_0 < ... < p_{t-1}:
    gap, p_0, gap, p_1, ..., p_{t-1}, gap, so p_r sits in slot 2r+1.  Sending
    each element of D to its slot is monotone and one-to-one on the points.
    Each product p_x*p_y keeps an interval of slots, tightened to a fixpoint
    by rules that hold in every D of the type, so an empty interval refutes
    the type at every size.  Why each rule holds:

    - pins: h and k preserve products, so p_x*p_y = p_v, in slot 2v+1;
    - unit: p_u*p_y = p_y*p_u = p_y;
    - division: p_x \\ p_z = p_d gives p_x*p_d <= p_z and p_x*s > p_z for
      every s > p_d; elements above p_z sit in slots above 2z+1 (p_z / p_y
      alike);
    - monotonicity: D's product is monotone and so is the slot map;
    - commutativity: in commutative mode p_x*p_y and p_y*p_x are one element;
    - associativity: p_x*p_y = p_a and p_y*p_z = p_b make p_a*p_z and
      p_x*p_b one element.
    """
    pins = _pins_for(vf, htype, ktype)
    if pins is None:
        return True
    product_pins, ldiv_pins, rdiv_pins = pins
    t = max(htype + ktype) + 1
    lo, hi = [0] * (t * t), [2 * t] * (t * t)
    exact = [(x * t + y, v) for (x, y), v in product_pins.items()]
    u = htype[vf.B.unit]
    exact += [(c, y) for y in range(t) for c in (u * t + y, y * t + u)]
    for c, v in exact:
        lo[c], hi[c] = max(lo[c], 2 * v + 1), min(hi[c], 2 * v + 1)
    for division, cell in ((ldiv_pins, lambda x, s: x * t + s), (rdiv_pins, lambda y, s: s * t + y)):
        for (x, z), d in division.items():
            hi[cell(x, d)] = min(hi[cell(x, d)], 2 * z + 1)
            for s in range(d + 1, t):
                lo[cell(x, s)] = max(lo[cell(x, s)], 2 * z + 2)
    cells = range(t * t)
    changed = True
    while changed:
        before = lo + hi
        for c in cells:  # monotonicity, lower bounds upwards
            x, y = divmod(c, t)
            if x:
                lo[c] = max(lo[c], lo[c - t])
            if y:
                lo[c] = max(lo[c], lo[c - 1])
        for c in reversed(cells):  # and upper bounds downwards
            x, y = divmod(c, t)
            if x < t - 1:
                hi[c] = min(hi[c], hi[c + t])
            if y < t - 1:
                hi[c] = min(hi[c], hi[c + 1])
        equal = []
        if flags.commutative:
            equal += [(c, (c % t) * t + c // t) for c in cells]
        point = [lo[c] // 2 if lo[c] == hi[c] and lo[c] % 2 else -1 for c in cells]
        for c in cells:
            if point[c] >= 0:
                x, y = divmod(c, t)
                equal += [(point[c] * t + z, x * t + point[y * t + z]) for z in range(t) if point[y * t + z] >= 0]
        for a, b in equal:
            lo[a] = lo[b] = max(lo[a], lo[b])
            hi[a] = hi[b] = min(hi[a], hi[b])
        if any(lo[c] > hi[c] for c in cells):
            return True
        changed = lo + hi != before
    return False


def bounded_amalgam_search(
    vf: VFormation,
    max_size: int,
    flags: ChainFlags = ChainFlags(),
    budget: Budget = Budget(),
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
    type's placements are generated one at a time, by ``_type_positions``,
    and merged in lexicographic order of (h, k).  A type is decided once,
    when its first placement comes up: a type that a pin conflict or
    ``_type_refuted`` rules out has no amalgam in any chain, of any size,
    and is placed no further.  The completion engine runs on the placements
    of the other types, so per-size ``nodes`` counts its branching nodes on
    those placements alone.
    Raises :class:`PreconditionError` when the sizes to search, from
    ``max(|B|, |C|)`` (or ``min_size``) up to the bound, are none.
    """
    for alg, tag in ((vf.A, "A"), (vf.B, "B"), (vf.C, "C")):
        if not alg.is_chain_order:
            raise UnsupportedError(f"{tag} must use the index-order chain convention")
    if flags.pointed and (vf.B.zero is None or vf.C.zero is None):
        raise PreconditionError("pointed search needs pointed B and C")
    lo = max(vf.B.size, vf.C.size) if min_size is None else min_size
    if lo > max_size:
        raise PreconditionError(f"nothing to search: sizes start at {lo}, above the bound {max_size}")
    per_size = []
    zero = 0 if flags.pointed else None
    fixed = flags.pointed + flags.integral  # ranks held at D's bottom or top
    types = [(max(h + k) + 1, (h, k)) for h, k in _order_types(vf, flags, max_size)]  # (ranks, type)
    pins = {}  # each decided type: its pins in ranks, or None when it is refuted

    def placed(t, m):  # the placements of type t in size m, until t is refuted
        for placement in _type_positions(*t, m, flags):
            yield placement, t
            if pins[t] is None:
                return

    for m in range(lo, max_size + 1):
        stats = SearchStats()
        # a type places its free ranks in D's free elements; a lone rank that
        # is both zero and unit (trivial B and C) fits only the trivial D
        placements = sum(math.comb(m - fixed, r - fixed) if r >= fixed else int(m == 1) for r, _ in types)
        streams = [placed(t, m) for r, t in types if r <= m and pins.get(t, ()) is not None]
        # each stream is in (hpos, kpos) order, and so is their merge: FOUND is the least completion
        for (hpos, kpos, points), t in heapq.merge(*streams, key=lambda c: c[0][:2]):
            if t not in pins:
                pins[t] = None if _type_refuted(vf, *t, flags) else _pins_for(vf, *t)
            if pins[t] is None:
                continue
            at = ({(points[x], points[y]): points[v] for (x, y), v in table.items()} for table in pins[t])
            problem = CompletionProblem(m, hpos[vf.B.unit], *at, flags)
            try:
                for table in iter_completions(problem, budget, stats):
                    d = make_algebra(product=table, unit=problem.unit, order=CHAIN, zero=zero, name=f"amalgam{m}")
                    h = Morphism(vf.B, d, hpos, EMBEDDING)
                    k = Morphism(vf.C, d, kpos, EMBEDDING)
                    if not (validate_morphism(h).ok and validate_morphism(k).ok):
                        raise AssertionError("search produced a non-embedding")
                    per_size.append(SizeStats(m, placements, stats.nodes))
                    return SearchReport("FOUND", max_size, d, h, k, tuple(per_size))
            except BudgetExceededError as exc:
                per_size.append(SizeStats(m, placements, exc.nodes))
                return SearchReport("BUDGET", max_size, sizes=tuple(per_size), detail=f"budget exhausted at size {m}")
        per_size.append(SizeStats(m, placements, stats.nodes))
    return SearchReport("UNSAT", max_size, sizes=tuple(per_size))


def bounded_one_amalgam_search(
    vf: VFormation,
    max_size: int,
    flags: ChainFlags = ChainFlags(),
    budget: Budget = Budget(),
) -> SearchReport:
    """Search for a one-amalgam: k embeds C, h is any homomorphism on B.

    Every homomorphism factors as a quotient by its kernel filter followed
    by an embedding, so it suffices to run the amalgam search on (A, B/F, C)
    for each congruence filter F of B that does not identify distinct
    elements of i(A).  A filter whose quotient or C exceeds the bound is
    skipped; :class:`PreconditionError` is raised when no filter is left."""
    all_sizes: list[SizeStats] = []
    details = []
    searched = 0
    i_img = vf.i.map
    for F in congruence_filters(vf.B):
        blocks = filter_to_congruence(F)
        block_of = {}
        for bi, block in enumerate(blocks):
            for x in block:
                block_of[x] = bi
        if len({block_of[i_img[a]] for a in range(vf.A.size)}) != vf.A.size:
            details.append(f"filter {sorted(F.members)}: identifies elements of A, skipped")
            continue
        if max(len(blocks), vf.C.size) > max_size:
            details.append(f"filter {sorted(F.members)}: needs more than {max_size} elements, skipped")
            continue
        searched += 1
        Bq = quotient(vf.B, F)
        iq = tuple(block_of[i_img[a]] for a in range(vf.A.size))
        sub_vf = make_vformation(vf.A, Bq, vf.C, iq, vf.j.map, name=f"{vf.name}/F")
        report = bounded_amalgam_search(sub_vf, max_size, flags, budget)
        all_sizes.extend(report.sizes)
        details.append(f"filter {sorted(F.members)}: {report.verdict}")
        if report.found:
            quotient_map = Morphism(vf.B, Bq, tuple(block_of[x] for x in range(vf.B.size)), HOM)
            report = replace(report, h=Morphism(vf.B, report.d, compose(report.h, quotient_map), HOM))
        if report.verdict != "UNSAT":
            break
    if not searched:
        raise PreconditionError(f"nothing to search within the bound {max_size}: {'; '.join(details)}")
    return replace(report, sizes=tuple(all_sizes), detail="; ".join(details))


# ---------------------------------------------------------------------------
# the built-in formation and its variants


def vs_formation() -> VFormation:
    """The V-formation of 2-potent commutative integral chains with no chain
    amalgam: A the 3-element Goedel chain, B an ordinal sum, C a gluing."""
    A, B, C = vs_a(), vs_b(), vs_c()
    i = find_embeddings(A, B)
    j = find_embeddings(A, C)
    return VFormation(A, B, C, i[0], j[0], name="VS")


def pointed_vformation(vf: VFormation, a_zero: int, name="") -> VFormation:
    """Designate an element of A (and its images) as the constant 0."""
    A = with_zero(vf.A, a_zero)
    B = with_zero(vf.B, vf.i.map[a_zero])
    C = with_zero(vf.C, vf.j.map[a_zero])
    return VFormation(
        A,
        B,
        C,
        Morphism(A, B, vf.i.map, EMBEDDING),
        Morphism(A, C, vf.j.map, EMBEDDING),
        name=name or (f"{vf.name}.pointed" if vf.name else ""),
    )


def rotated_vformation(vf: VFormation, delta_name: str, n: int) -> VFormation:
    """Apply the generalized n-rotation to every component of a V-formation."""
    A, B, C = vf.A, vf.B, vf.C
    dA, dB, dC = (nucleus_by_name(x, delta_name) for x in (A, B, C))
    RA = generalized_rotation(A, dA, n, name=f"{A.name}^{delta_name}:{n}")
    RB = generalized_rotation(B, dB, n, name=f"{B.name}^{delta_name}:{n}")
    RC = generalized_rotation(C, dC, n, name=f"{C.name}^{delta_name}:{n}")
    i_map = rotation_map(dA, dB, n, vf.i.map)
    j_map = rotation_map(dA, dC, n, vf.j.map)
    out = VFormation(
        RA,
        RB,
        RC,
        Morphism(RA, RB, i_map, EMBEDDING),
        Morphism(RA, RC, j_map, EMBEDDING),
        name=f"{vf.name}^{delta_name}:{n}" if vf.name else "",
    )
    rep = check_vformation(out)
    if not rep.ok:
        raise PreconditionError(f"rotation did not yield a V-formation: {rep.first_failure()}")
    return out


def builtin_vformation(name: str) -> VFormation:
    if name == "VS":
        return vs_formation()
    if name == "VS.pointed":
        vs = vs_formation()
        return pointed_vformation(vs, 0)
    raise FormatError(f"unknown builtin V-formation {name!r}")
