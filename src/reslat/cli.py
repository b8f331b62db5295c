"""Command-line front end.

Subcommands: verify, identity, construct, embed, filters, quotient,
enumerate, amalgam, one-amalgam, obstruct, paper.  Exit codes: 0 for
pass/FOUND/HOLDS, 1 for fail/UNSAT/FAILS, 2 for usage or format errors,
3 when a search budget is exhausted.

Algebra arguments accept either a builtin name (``VS.B``, ``lukasiewicz(4)``)
or a path to an algebra document; V-formation arguments accept ``VS``,
``VS.pointed``, or a document path.  Reports are plain text by default and
canonical JSON with ``--format json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import islice

from .algebra import (
    BudgetExceededError,
    FiniteRL,
    FormatError,
    PARTIAL_IRL_FLAGS,
    PreconditionError,
    RL_FLAGS,
    ReslatError,
    UnsupportedSymbolError,
    VALIDATE_FLAGS,
    congruence_filters,
    quotient,
    tables_equal,
    validate,
    with_zero,
)
from .amalgamation import (
    ObstructionWitness,
    SearchReport,
    bounded_amalgam_search,
    bounded_one_amalgam_search,
    builtin_vformation,
    check_obstruction,
    check_vformation,
    find_embeddings,
    find_obstruction,
    injectivity_reduction,
    load_vformation,
    pointed_vformation,
    rotated_vformation,
    vs_formation,
)
from .completion import DEFAULT_BUDGET, ChainFlags, count_chains, enumerate_chains
from .constructions import (
    LowerCompatibleTriple,
    builtin,
    generalized_rotation,
    lukasiewicz,
    nucleus_by_name,
    nucleus_image,
    ordinal_sum,
    partial_gluing,
    two,
    validate_triple,
    vs_k_triple,
)
from .documents import (
    algebra_to_document,
    canonical_tables_json,
    dumps_canonical,
    load_algebra,
    write_atomic,
)
from .identities import NAMED_IDENTITIES, TermEvaluator, check_identity, format_identity, parse_identity


# ---------------------------------------------------------------------------
# argument loading helpers


def _load_algebra_arg(spec: str) -> FiniteRL:
    alg = load_algebra(spec) if os.path.exists(spec) else builtin(spec)
    if not isinstance(alg, FiniteRL):
        raise FormatError(f"{spec!r} is not an algebra")
    return alg


def _load_total_algebra(spec: str) -> FiniteRL:
    alg = _load_algebra_arg(spec)
    if alg.masks is not None:
        raise FormatError(f"{spec!r} is a partial algebra where a total one is needed")
    rep = validate(alg, RL_FLAGS)
    if not rep.ok:
        raise FormatError(f"{spec!r} is not a residuated lattice: {rep.first_failure()}")
    return alg


def _load_vf(spec: str, rotate: str | None):
    vf = load_vformation(spec) if os.path.exists(spec) else builtin_vformation(spec)
    if rotate is not None:
        name, levels = _parse_rotation(rotate)
        vf = rotated_vformation(vf, name, levels)
    return vf


def _parse_rotation(text: str):
    try:
        name, levels = text.split(":")
        return name, int(levels)
    except ValueError:
        raise FormatError(f"rotation spec {text!r} must look like identity:2") from None


def _parse_flag_list(text: str | None, allowed, what):
    if not text:
        return []
    flags = [f.strip() for f in text.split(",") if f.strip()]
    for f in flags:
        if f not in allowed:
            raise FormatError(f"unknown {what} flag {f!r} (allowed: {', '.join(allowed)})")
    return flags


_CHAIN_FLAGS = ("integral", "commutative", "divisible", "pointed")
_CHAIN_FLAGS_HELP = "comma list of integral,commutative,divisible,pointed,potent:k (x^(k+1) = x^k, k >= 1)"


def _chain_flags(text: str | None) -> ChainFlags:
    """The class of chains named by a comma list of ``_CHAIN_FLAGS`` and
    ``potent:k``."""
    flags = {}
    for f in (s.strip() for s in (text or "").split(",") if s.strip()):
        name, _, k = f.partition(":")
        if f in _CHAIN_FLAGS:
            flags[f] = True
        elif name == "potent" and k.lstrip("-").isdigit():
            flags["k_potent"] = int(k)
        else:
            raise FormatError(f"unknown chain flag {f!r} (allowed: {', '.join(_CHAIN_FLAGS)}, potent:k)")
    return ChainFlags(**flags)


def _emit(args, report: dict, text_lines: list[str]):
    payload = dumps_canonical(report) if args.format == "json" else "\n".join(text_lines)
    if args.output:
        write_atomic(args.output, payload + "\n")
    else:
        print(payload)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args):
    spec = args.algebra
    alg = _load_algebra_arg(spec)
    if args.zero is not None:
        if alg.masks is not None:
            raise FormatError("--zero applies to total algebras")
        alg = with_zero(alg, args.zero)
    flags = _parse_flag_list(args.flags, VALIDATE_FLAGS, "validate")
    if flags and alg.masks is not None:
        raise FormatError("--flags applies to total algebras")
    rep = validate(alg, flags or (RL_FLAGS if alg.masks is None else PARTIAL_IRL_FLAGS))
    report = {
        "command": "verify",
        "algebra": alg.name or spec,
        "ok": rep.ok,
        "checks": [
            {"flag": c.flag, "ok": c.ok, "witness": list(c.witness) if c.witness else None, "detail": c.detail}
            for c in rep.checks
        ],
    }
    return (0 if rep.ok else 1), report, str(rep).splitlines()


def _cmd_identity(args):
    spec = args.algebra
    alg = _load_total_algebra(spec)
    if args.zero is not None:
        alg = with_zero(alg, args.zero)
    ident = parse_identity(args.id)
    result = check_identity(alg, ident)
    report = {
        "command": "identity",
        "algebra": alg.name or spec,
        "identity": format_identity(ident),
        "verdict": result.verdict,
        "assignment": result.assignment_dict(),
        "detail": result.detail,
    }
    lines = [f"{format_identity(ident)} on {alg.name or spec}: {result.verdict}"]
    if not result.holds:
        lines.append(f"  least failing assignment: {result.detail}")
    return (0 if result.holds else 1), report, lines


def _algebra_payload(command, alg):
    doc = algebra_to_document(alg)
    return {"command": command, "algebra": doc}, [dumps_canonical(doc)]


# the options each kind of construction reads and has no default for
_CONSTRUCT_NEEDS = {
    "builtin": ("name",),
    "ordinal-sum": ("lower", "upper"),
    "gluing": ("upper",),
    "rotation": ("base",),
    "nucleus-image": ("base",),
}


def _cmd_construct(args):
    kind = args.kind
    for option in _CONSTRUCT_NEEDS[kind]:
        if getattr(args, option) is None:
            raise FormatError(f"construct {kind} needs --{option}")
    if kind == "builtin":
        obj = builtin(args.name)
        if isinstance(obj, LowerCompatibleTriple):
            if args.zero is not None:
                raise FormatError("--zero applies to algebras, not to triples")
            doc = {
                "K": algebra_to_document(obj.K),
                "sigma": list(obj.sigma),
                "gamma": list(obj.gamma),
            }
            return 0, {"command": "construct", "triple": doc}, [dumps_canonical(doc)]
        alg = obj
    elif kind == "ordinal-sum":
        alg = ordinal_sum(_load_total_algebra(args.lower), _load_total_algebra(args.upper))
    elif kind == "gluing":
        alg = partial_gluing(vs_k_triple(), _load_total_algebra(args.upper))
    elif kind == "rotation":
        base = _load_total_algebra(args.base)
        alg = generalized_rotation(nucleus_by_name(base, args.nucleus), args.levels)
    elif kind == "nucleus-image":
        base = _load_total_algebra(args.base)
        alg, _ = nucleus_image(nucleus_by_name(base, args.nucleus))
    else:  # pragma: no cover - argparse restricts choices
        raise FormatError(f"unknown construction {kind!r}")
    if args.zero is not None:
        alg = with_zero(alg, args.zero)
    return 0, *_algebra_payload("construct", alg)


def _cmd_embed(args):
    dom = _load_total_algebra(args.source)
    cod = _load_total_algebra(args.target)
    maps = find_embeddings(dom, cod)
    report = {
        "command": "embed",
        "from": dom.name or args.source,
        "to": cod.name or args.target,
        "embeddings": [list(m) for m in maps],
    }
    lines = [f"{len(maps)} embedding(s) of {dom.name or args.source} into {cod.name or args.target}"]
    lines += [f"  {list(m)}" for m in maps]
    return (0 if maps else 1), report, lines


def _cmd_filters(args):
    spec = args.algebra
    alg = _load_total_algebra(spec)
    filters = congruence_filters(alg)
    report = {
        "command": "filters",
        "algebra": alg.name or spec,
        "filters": [list(F.sorted_members()) for F in filters],
    }
    lines = [f"{len(filters)} congruence filter(s) of {alg.name or spec}"]
    lines += ["  {" + ", ".join(alg.labels[x] for x in F.sorted_members()) + "}" for F in filters]
    return 0, report, lines


def _cmd_quotient(args):
    spec = args.algebra
    alg = _load_total_algebra(spec)
    try:
        members = frozenset(int(x) for x in args.filter.split(","))
    except ValueError:
        raise FormatError("--filter needs a comma list of member indices") from None
    filters = {F.members: F for F in congruence_filters(alg)}
    if members not in filters:
        raise PreconditionError(f"{sorted(members)} is not a congruence filter of {alg.name or spec}")
    q, _ = quotient(filters[members])
    return 0, *_algebra_payload("quotient", q)


def _cmd_enumerate(args):
    if args.limit is not None and args.limit < 0:
        raise FormatError("--limit must be non-negative")
    flags = _chain_flags(args.flags)
    if args.count:
        n = count_chains(args.size, flags)
        report = {"command": "enumerate", "size": args.size, "count": n}
        return 0, report, [str(n)]
    docs = [algebra_to_document(alg) for alg in islice(enumerate_chains(args.size, flags), args.limit)]
    report = {"command": "enumerate", "size": args.size, "algebras": docs}
    return 0, report, [dumps_canonical(d) for d in docs]


def _search_report_json(rep: SearchReport) -> dict:
    out = {
        "verdict": rep.verdict,
        "bound": rep.bound,
        "sizes": [{"size": s.size, "placements": s.placements, "nodes": s.nodes} for s in rep.sizes],
    }
    if rep.detail:
        out["detail"] = rep.detail
    if rep.found:
        out["D"] = algebra_to_document(rep.d)
        out["h"] = list(rep.h)
        out["k"] = list(rep.k)
    return out


def _search_lines(tag, rep: SearchReport, seconds: float):
    lines = [f"{tag}: {rep.verdict} (bound {rep.bound}, {seconds:.2f}s)"]
    for s in rep.sizes:
        lines.append(f"  size {s.size}: {s.placements} placements, {s.nodes} nodes")
    if rep.found:
        lines.append(f"  D = {canonical_tables_json(rep.d)}")
        lines.append(f"  h = {list(rep.h)}  k = {list(rep.k)}")
    if rep.detail:
        lines.append(f"  {rep.detail}")
    return lines


def _exit_for_search(rep: SearchReport) -> int:
    return {"FOUND": 0, "UNSAT": 1, "BUDGET": 3}[rep.verdict]


def _cmd_amalgam(args, one_sided: bool):
    if args.max_size < 1:
        raise FormatError("--max-size must be positive")
    if args.budget < 0:
        raise FormatError("--budget must be non-negative")
    flags = _chain_flags(args.flags)
    vf = _load_vf(args.vf, args.rotate)
    search = bounded_one_amalgam_search if one_sided else bounded_amalgam_search
    start = time.monotonic()
    rep = search(vf, args.max_size, flags, args.budget)
    seconds = time.monotonic() - start
    name = "one-amalgam" if one_sided else "amalgam"
    report = {"command": name, "vformation": vf.name or args.vf, "search": _search_report_json(rep)}
    return _exit_for_search(rep), report, _search_lines(f"{name} search for {vf.name or args.vf}", rep, seconds)


def _cmd_obstruct(args):
    vf = _load_vf(args.vf, args.rotate)
    report = {"command": "obstruct", "vformation": vf.name or args.vf}
    if args.check:
        parts = [p.strip() for p in args.check.split(",")]
        try:
            if len(parts) not in (5, 6):
                raise ValueError
            w = ObstructionWitness(*(int(p) for p in parts[:5]), *parts[5:])
        except ValueError:
            raise FormatError("--check needs a,b,c,u1,u2[,side]") from None
    else:
        w = find_obstruction(vf)
    if w is None:
        report["witness"] = None
        return 1, report, ["no obstruction witness found (this proves nothing by itself)"]
    result = check_obstruction(vf, w)
    report.update(witness=list(w), accepted=result.accepted, clause=result.clause, trace=list(result.lines))
    return (0 if result.accepted else 1), report, list(result.lines)


# ---------------------------------------------------------------------------
# the one-shot reproduction pipeline


# The B and C table-fact steps of ``paper_report``: each step's name and the
# chains it also checks without naming them (C's name leaves out v\u = u).
_TABLE_FACTS = (
    ("B: b = v*b = b\\u = v\\b and u = b*b = v\\u", ""),
    ("C: c = c\\u = v\\c = v\\d, d = v*c = v*d, u = c*c, c\\d = v", ", u = v\\u"),
)
# the step that carries the obstruction certificate's trace, one line each
_TRACE_STEP = "obstruction trace"
# the named identity each nucleus's rotations satisfy, and what the paper calls it
_NUCLEUS_IDENTITIES = {"identity": ("involution", "inv"), "const-1": ("Stone identity", "stone")}


def _table_facts_hold(alg, facts: str) -> bool:
    """Whether each equation chain of ``facts`` (after the ``"X: "`` prefix,
    chains separated by ``", "`` or ``" and "``) holds in ``alg`` when every
    label names its own element."""
    evaluator = TermEvaluator(alg)
    own = {label: (x,) for x, label in enumerate(alg.labels)}
    chains = facts.split(": ", 1)[1].replace(" and ", ", ").split(", ")
    return all(
        len({values[0] for values in evaluator.values(parse_identity(chain).terms, own)}) == 1
        for chain in chains
    )


def paper_report(max_size: int = 10, rotations=(("identity", 2), ("const-1", 2)), budget: int = DEFAULT_BUDGET) -> dict:
    """Run the full reproduction pipeline and return its one record.

    Builds the VS chains, re-validates every finite fact (tables, triple,
    construction identities, obstruction certificates, injectivity argument,
    bounded searches, pointed variant, rotated variants) and summarizes what
    the computations establish.  Returns ``{"steps", "conclusions", "ok"}``:
    a step is a fact ``{"step", "ok", "detail"}``, an accepted certificate's
    trace (``_TRACE_STEP``) or, after each VS search's fact, that search's
    report ``{"step", "ok", "search"}``; ``ok`` holds when every step does,
    and the conclusions are stated only then (``[]`` otherwise), the one on
    2-rotations only if both ``identity:2`` and ``const-1:2`` ran.  Raises
    :class:`PreconditionError`, before any step, when a rotation is given
    twice or ``max_size`` is below the largest B or C of VS and the
    rotations, where a search would start, and from the first search when
    it is above ``MAX_CHAIN_SIZE``.
    """
    for k, (delta_name, levels) in enumerate(rotations):
        if (delta_name, levels) in rotations[:k]:
            raise PreconditionError(f"rotation {delta_name}:{levels} is given twice")
    vs = vs_formation()
    rotated = [(delta_name, levels, rotated_vformation(vs, delta_name, levels)) for delta_name, levels in rotations]
    need = max(max(vf.B.size, vf.C.size) for vf in (vs, *(rvf for _, _, rvf in rotated)))
    if max_size < need:
        raise PreconditionError(f"the pipeline needs max-size >= {need}")
    steps: list[dict] = []

    def fact(name, ok, detail=""):
        steps.append({"step": name, "ok": bool(ok), "detail": detail})

    def holds_on(algs, name, identity):
        for alg in algs:
            try:
                holds, detail = check_identity(alg, identity).holds, ""
            except UnsupportedSymbolError as exc:  # negation where no 0 is designated
                holds, detail = False, str(exc)
            fact(f"{name} on {alg.name}", holds, detail)

    def unsat(claim, search, vf, flags=ChainFlags(), report=""):
        rep = search(vf, max_size, flags, budget)
        ok = rep.verdict == "UNSAT"
        fact(claim, ok)
        if report:
            steps.append({"step": f"{report} search report", "ok": ok, "search": _search_report_json(rep)})

    def certified(vf, w):
        return w is not None and check_obstruction(vf, w).accepted

    A, B, C = vs.A, vs.B, vs.C
    base_flags = ("lattice", "monoid", "residuation", "integral", "commutative", "chain")
    for alg in (A, B, C):
        fact(f"validate {alg.name} (commutative integral chain)", validate(alg, base_flags).ok)
    two_potent = parse_identity("potent:2")
    holds_on((A, B, C), "2-potency x*x = x*x*x", two_potent)

    for alg, (facts, unnamed) in zip((B, C), _TABLE_FACTS):
        fact(facts, _table_facts_hold(alg, facts + unnamed))

    triple = vs_k_triple()
    fact("(K, sigma, gamma) is a lower-compatible triple", validate_triple(triple).ok)
    fact(
        "B equals the ordinal sum of the 3-element MV-chain and 2 (canonical tables)",
        tables_equal(ordinal_sum(lukasiewicz(3), two()), B),
    )
    fact(
        "C equals the partial gluing of (K, sigma, gamma) with 2 (canonical tables)",
        tables_equal(partial_gluing(triple, two()), C),
    )

    fact("divisibility holds on B", check_identity(B, parse_identity("div")).holds)
    div_c = check_identity(C, parse_identity("div"))
    fact(
        "divisibility fails on C at x=v, y=c",
        not div_c.holds and div_c.assignment == (C.labels.index("v"), C.labels.index("c")),
    )

    witness = find_obstruction(vs)
    a_u = A.labels.index("u")
    expected = (A.labels.index("v"), B.labels.index("b"), C.labels.index("c"), a_u, a_u, "LEFT")
    fact("obstruction witness (a=v, b=b, c=c, u1=u, u2=u)", witness == expected)
    trace = check_obstruction(vs, witness) if witness else None
    rejected = f"REJECT({trace.clause})" if trace and not trace.accepted else ""
    fact("witness certified (both orderings refuted by residuation)", trace and trace.accepted, rejected)
    if trace and trace.accepted:
        steps.append({"step": _TRACE_STEP, "ok": True, "detail": "\n".join(trace.lines)})

    fact("every nontrivial congruence filter of B contains v (one-amalgam reduction)", 1 in injectivity_reduction(vs))

    admitted = " (non-commutative, non-integral admitted)"
    unsat(f"no chain amalgam up to size {max_size}{admitted}", bounded_amalgam_search, vs, report="amalgam")
    unsat(f"no one-amalgam up to size {max_size}", bounded_one_amalgam_search, vs, report="one-amalgam")

    vsp = pointed_vformation(vs, 0)
    wp = find_obstruction(vsp)
    fact("pointed variant (u designated 0): same witness", certified(vsp, wp) and wp == expected)
    claim = f"pointed variant: no 0-bounded chain amalgam up to size {max_size}"
    unsat(claim, bounded_amalgam_search, vsp, ChainFlags(pointed=True))

    for delta_name, levels, rvf in rotated:
        components = (rvf.A, rvf.B, rvf.C)
        tag = f"rotation {delta_name}:{levels}"
        faults = [f"{c.flag}: {c.detail}" for c in check_vformation(rvf).checks if not c.ok]
        for part, alg in zip("ABC", components):
            faults += [f"{part}: {c.flag}: {c.detail}" for c in validate(alg, ("chain", "zero-bounded")).checks if not c.ok]
        fact(f"{tag}: components validate (bounded chains)", not faults, faults[0] if faults else "")
        sizes = (rvf.A.size, rvf.B.size, rvf.C.size)
        expected_sizes = tuple(
            base.size + len({nucleus_by_name(base, delta_name).map[x] for x in range(base.size)}) + (levels - 2)
            for base in (A, B, C)
        )
        fact(f"{tag}: size formula |A| + |delta[A]| + (n-2)", sizes == expected_sizes, str(sizes))
        holds_on(components, f"{tag}: 2-potency", two_potent)
        called, named = _NUCLEUS_IDENTITIES[delta_name]
        holds_on(components, f"{tag}: {called} {NAMED_IDENTITIES[named]}", parse_identity(named))
        if delta_name == "const-1" and levels == 2:
            same = tables_equal(with_zero(rvf.A, None), ordinal_sum(two(), A))
            fact(f"{tag}: lifting of A reproduces the ordinal sum 2 + A table-exactly", same)
        rw = find_obstruction(rvf)
        fact(f"{tag}: obstruction witness exists", certified(rvf, rw), str(tuple(rw)) if rw else "")
        unsat(f"{tag}: no chain amalgam up to size {max_size}", bounded_amalgam_search, rvf)
        unsat(f"{tag}: no one-amalgam up to size {max_size}", bounded_one_amalgam_search, rvf)

    conclusions = [
        "VS is a V-formation of 2-potent commutative integral residuated chains "
        "with no amalgam and no one-amalgam in totally ordered residuated "
        "lattices: the obstruction certificate rules out every size, and "
        f"exhaustive table completion corroborates it up to size {max_size}.",
        "The one-amalgam case reduces to the amalgam case: every nontrivial "
        "congruence filter of B contains the image of v, so a homomorphism on "
        "B that agrees with an injective map on A is itself injective.",
        "Designating the common bottom u as the constant 0 leaves the witness "
        "and both verdicts unchanged, so the failure persists for 0-bounded "
        "chains.",
        "The generalized 2-rotations transport the failure: the identity "
        "nucleus yields involutive bounded chains, the constant-one nucleus "
        "yields pseudocomplemented (Stone) ones, each again with certified "
        "non-amalgamation.",
        "For any variety of semilinear residuated lattices with the congruence "
        "extension property, amalgamation is equivalent to one-sided "
        "amalgamation over its chains; each family above therefore refutes "
        "amalgamation for every such variety containing it.",
    ]
    if not {("identity", 2), ("const-1", 2)} <= set(rotations):
        del conclusions[3]  # the 2-rotations' conclusion
    ok = all(step["ok"] for step in steps)
    return {"steps": steps, "conclusions": conclusions if ok else [], "ok": ok}


def _paper_lines(report: dict) -> list[str]:
    """The text of a ``paper_report``: a line per fact, the trace indented,
    then the conclusions and the overall verdict; search reports are left
    to the JSON.  A failed run has no conclusions and says how many steps
    failed."""
    lines = []
    for step in report["steps"]:
        if step["step"] == _TRACE_STEP:
            lines += ["    " + line for line in step["detail"].split("\n")]
        elif "search" not in step:
            detail = f": {step['detail']}" if step["detail"] else ""
            lines.append(f"[{'ok' if step['ok'] else 'FAIL'}] {step['step']}{detail}")
    failed = sum(not step["ok"] for step in report["steps"])
    lines += ["", "conclusions:"] + (["  - " + c for c in report["conclusions"]] or [f"  none: {failed} steps failed"])
    return lines + ["overall: " + ("pass" if report["ok"] else "FAIL")]


def _cmd_paper(args):
    if args.budget < 0:
        raise FormatError("--budget must be non-negative")
    rotations = [_parse_rotation(item.strip()) for item in args.rotations.split(",")]
    report = paper_report(args.max_size, rotations, args.budget)
    report = {"command": "paper", "max_size": args.max_size, **report}
    return (0 if report["ok"] else 1), report, _paper_lines(report)


# ---------------------------------------------------------------------------
# parser


class _Command:
    """A subcommand as ``add_subparsers`` stores it: its ``prog`` and
    ``setup``.  Its parser is built only when the subcommand runs, from
    ``setup``, which adds its own arguments and returns its ``run``, with
    ``--format`` and ``--output`` after them."""

    def __init__(self, setup, **kwargs):
        self.setup = setup
        self.kwargs = kwargs

    def parse_known_args(self, args, namespace):
        parser = argparse.ArgumentParser(**self.kwargs)
        parser.set_defaults(run=self.setup(parser))
        parser.add_argument("--format", choices=("text", "json"), default="text")
        parser.add_argument("--output", help="write the report to a file (atomically)")
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    description = "Workbench for finite residuated lattices and amalgamation over chains."
    parser = argparse.ArgumentParser(prog="reslat", description=description)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    def command(name, help):  # lists the subcommand whose setup it decorates
        return lambda setup: sub.add_parser(name, help=help, setup=setup)

    @command("verify", "validate an algebra against axiom flags")
    def verify(p):
        p.add_argument("algebra", help="builtin name or document path")
        p.add_argument("--flags", help="comma list of " + ",".join(VALIDATE_FLAGS))
        p.add_argument("--zero", type=int, help="designate an element as the constant 0")
        return _cmd_verify

    @command("identity", "check an identity on an algebra")
    def identity(p):
        p.add_argument("algebra", help="builtin name or document path")
        p.add_argument("--id", required=True, help=f"identity text or a named one ({', '.join(NAMED_IDENTITIES)}, potent:n)")
        p.add_argument("--zero", type=int)
        return _cmd_identity

    @command("construct", "run a constructor and print the algebra document")
    def construct(p):
        p.add_argument("kind", choices=("builtin", "ordinal-sum", "gluing", "rotation", "nucleus-image"))
        p.add_argument("--name", help="builtin name (for kind=builtin)")
        p.add_argument("--lower")
        p.add_argument("--upper")
        p.add_argument("--base")
        p.add_argument("--nucleus", default="identity", help="identity or const-1")
        p.add_argument("--levels", type=int, default=2)
        p.add_argument("--zero", type=int)
        return _cmd_construct

    @command("embed", "list all embeddings between two algebras")
    def embed(p):
        p.add_argument("source")
        p.add_argument("target")
        return _cmd_embed

    @command("filters", "list the congruence filters of an algebra")
    def filters(p):
        p.add_argument("algebra", help="builtin name or document path")
        return _cmd_filters

    @command("quotient", "quotient an algebra by a congruence filter")
    def quotient(p):
        p.add_argument("algebra", help="builtin name or document path")
        p.add_argument("--filter", required=True, help="comma list of member indices")
        return _cmd_quotient

    @command("enumerate", "enumerate residuated chains of a given size")
    def enumerate_(p):
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--flags", help=_CHAIN_FLAGS_HELP)
        p.add_argument("--count", action="store_true")
        p.add_argument("--limit", type=int)
        return _cmd_enumerate

    for name, one_sided in (("amalgam", False), ("one-amalgam", True)):
        @command(name, f"bounded {name} search over chains")
        def amalgam(p, one=one_sided):
            p.add_argument("--vf", required=True, help="VS, VS.pointed, or a V-formation document path")
            p.add_argument("--max-size", type=int, default=9)
            p.add_argument("--flags", help="the class of chains D ranges over: " + _CHAIN_FLAGS_HELP)
            p.add_argument("--rotate", help="apply a rotation first, e.g. identity:2")
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
            return lambda a: _cmd_amalgam(a, one)

    @command("obstruct", "find or check an obstruction certificate")
    def obstruct(p):
        p.add_argument("--vf", required=True)
        p.add_argument("--rotate")
        p.add_argument("--check", help="a,b,c,u1,u2[,side] to verify a given witness")
        return _cmd_obstruct

    @command("paper", "one-shot reproduction of the headline results")
    def paper(p):
        p.add_argument("--max-size", type=int, default=10)
        p.add_argument("--rotations", default="identity:2,const-1:2", help="comma list like identity:2,const-1:2")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        return _cmd_paper

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code, report, lines = args.run(args)
        _emit(args, report, lines)
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ReslatError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
