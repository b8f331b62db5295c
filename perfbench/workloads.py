"""The three workloads: inputs, the timed calls, and their pinned results.

Each workload has ``build(modules, seed)`` (untimed inputs, counted in
set-up), ``run(modules, inputs)`` (the timed calls), ``check(inputs,
outputs)`` (one ``(operation, ok)`` pair per checked result) and
``digest(outputs)`` (a hash that must repeat across rounds and agree
between traced and untraced rounds).  Functions of reslat are looked up on
their module at call time, so a traced round sees the traced wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import random
import re
from typing import Callable, NamedTuple

MODULES = ("algebra", "identities", "constructions", "completion", "amalgamation", "documents", "cli")


def import_reslat() -> dict:
    return {name: importlib.import_module(f"reslat.{name}") for name in MODULES}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# paper: what users run; its time is in the amalgamation searches


PAPER_MAX_SIZE = 10
PAPER_ARGV = ["paper", "--max-size", str(PAPER_MAX_SIZE), "--rotations", "identity:2,const-1:2", "--format", "json"]
PAPER_STEPS = 46
PAPER_SEARCHES = 7
PAPER_WITNESSES = {
    "rotation identity:2: obstruction witness exists": "(4, 5, 7, 3, 3, 'LEFT')",
    "rotation const-1:2: obstruction witness exists": "(2, 2, 3, 1, 1, 'LEFT')",
}
PAPER_DIGEST = "69cd2b9dea6e7c550d4b9c2e3c601d67f13499d1273c384a2f6ccd42e5827271"
_MEASURED_DETAIL = re.compile(r"^\d+\.\d+s$")


class _SearchLog:
    """Keeps every report of the searches the CLI runs, with the sizes of
    the formation, so that an empty or partial search can be caught."""

    def __init__(self, cli_module):
        self.reports: list[tuple[int, object]] = []
        for attr in ("bounded_amalgam_search", "bounded_one_amalgam_search"):
            setattr(cli_module, attr, self._logged(getattr(cli_module, attr)))

    def _logged(self, search):
        @functools.wraps(search)  # keeps the name and module the tracer keys on
        def logged(vf, max_size, *args, **kwargs):
            report = search(vf, max_size, *args, **kwargs)
            self.reports.append((max(vf.B.size, vf.C.size), report))
            return report

        return logged


def paper_canonical(report: dict):
    """The report with only measured times blanked."""
    blanked = json.loads(json.dumps(report))
    for step in blanked.get("steps", []):
        if _MEASURED_DETAIL.match(step.get("detail", "")):
            step["detail"] = ""
        if "search" in step:
            step["search"]["wall_time_s"] = None
    return blanked


def paper_build(modules, seed):
    return {"argv": list(PAPER_ARGV), "log": _SearchLog(modules["cli"])}


def paper_run(modules, inputs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = modules["cli"].main(inputs["argv"])
    searches = [
        (lo, r.verdict, r.bound, [s.size for s in r.sizes]) for lo, r in inputs["log"].reports
    ]
    return {"code": code, "stdout": out.getvalue(), "searches": searches}


def paper_check(inputs, outputs):
    checks = [("exit code 0", outputs["code"] == 0)]
    try:
        report = json.loads(outputs["stdout"])
    except ValueError:
        report = {}
    steps = report.get("steps", [])
    checks.append(("report ok", report.get("ok") is True))
    checks.append((f"{PAPER_STEPS} steps", len(steps) == PAPER_STEPS))
    checks.extend((f"step: {s.get('step')}", s.get("ok") is True) for s in steps)
    details = {s.get("step"): s.get("detail") for s in steps}
    checks.extend((f"witness: {name}", details.get(name) == want) for name, want in PAPER_WITNESSES.items())
    searches = outputs["searches"]
    checks.append((f"{PAPER_SEARCHES} searches", len(searches) == PAPER_SEARCHES))
    for lo, verdict, bound, sizes in searches:
        covered = bool(sizes) and set(range(lo, bound + 1)) <= set(sizes)
        checks.append((f"search UNSAT over sizes {lo}..{bound}", verdict == "UNSAT" and covered))
    checks.append(("canonical report digest", _sha(paper_canonical(report)) == PAPER_DIGEST))
    return checks


def paper_digest(outputs):
    try:
        report = json.loads(outputs["stdout"])
    except ValueError:
        report = None
    return _sha([outputs["code"], report and paper_canonical(report), outputs["searches"]])


# ---------------------------------------------------------------------------
# census: chain enumeration; the completion engine branches, no amalgamation


CENSUS_MAX_SIZE = 7
# the six columns of scripts/chain_census.py
CENSUS_COLUMNS = (
    {},
    {"integral": True},
    {"integral": True, "commutative": True},
    {"integral": True, "commutative": True, "divisible": True},
    {"integral": True, "commutative": True, "k_potent": 2},
    {"integral": True, "commutative": True, "k_potent": 1},
)
CENSUS_COUNTS = (
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 1),
    (3, 2, 2, 2, 2, 1),
    (15, 8, 6, 4, 5, 1),
    (84, 44, 22, 8, 15, 1),
    (575, 308, 94, 16, 53, 1),
    (4687, 2641, 451, 32, 213, 1),
)
ENUMERATE_SIZE = 7
ENUMERATE_FLAGS = {"integral": True, "commutative": True, "divisible": True}
ENUMERATE_COUNT = 32
ENUMERATE_DIGEST = "c1e99532c6756c027998b6a2eaf6c66bb2e3bace552f26dcea19e7edada972a1"


def census_build(modules, seed):
    flags = modules["completion"].ChainFlags
    return {"columns": [flags(**c) for c in CENSUS_COLUMNS], "enumerate": flags(**ENUMERATE_FLAGS)}


def census_run(modules, inputs):
    completion = modules["completion"]
    counts = [
        [completion.count_chains(n, flags) for flags in inputs["columns"]]
        for n in range(1, CENSUS_MAX_SIZE + 1)
    ]
    chains = list(completion.enumerate_chains(ENUMERATE_SIZE, inputs["enumerate"]))
    return {"counts": counts, "tables": [[list(row) for row in c.product] for c in chains]}


def census_check(inputs, outputs):
    checks = []
    for n, (got, want) in enumerate(zip(outputs["counts"], CENSUS_COUNTS), start=1):
        checks.extend((f"count n={n} column {c}", g == w) for c, (g, w) in enumerate(zip(got, want)))
    checks.append(("count rows", len(outputs["counts"]) == len(CENSUS_COUNTS)))
    checks.append((f"{ENUMERATE_COUNT} divisible CI {ENUMERATE_SIZE}-chains", len(outputs["tables"]) == ENUMERATE_COUNT))
    checks.append(("enumerated tables digest", _sha(outputs["tables"]) == ENUMERATE_DIGEST))
    return checks


# ---------------------------------------------------------------------------
# identities: few large algebras, every assignment evaluated


CHAIN_SIZE = 12
# (algebra, identity, least failing assignment or None when it holds); the
# algebras are Lukasiewicz and Goedel chains of CHAIN_SIZE and the C of the
# identity:2 and const-1:2 rotations of VS
NAMED_CASES = (
    ("L", "sem", None), ("L", "prel", None), ("L", "div", None), ("L", "idem", (1,)),
    ("G", "sem", None), ("G", "prel", None), ("G", "div", None), ("G", "idem", None),
    ("identity", "inv", None), ("identity", "potent:2", None), ("identity", "sem", None), ("identity", "div", (2, 1)),
    ("const-1", "stone", None), ("const-1", "potent:2", None), ("const-1", "sem", None), ("const-1", "div", (4, 3)),
)
RANDOM_VARIABLES = ("w", "x", "y", "z")
RANDOM_OPS = ("*", "\\", "/\\", "\\/")


def random_tautology(rng: random.Random) -> str:
    """A lattice tautology over all four variables with a fixed count of
    each operation, so every seed costs the same to check: ``x \\/ t >= x``
    or ``x >= x /\\ t`` for a random term ``t``."""
    leaves = list(RANDOM_VARIABLES) + [rng.choice(RANDOM_VARIABLES)]
    rng.shuffle(leaves)
    ops = list(RANDOM_OPS)
    rng.shuffle(ops)

    def term(lo, hi):  # leaves[lo:hi], using ops[lo:hi-1]
        if hi - lo == 1:
            return leaves[lo]
        cut = rng.randrange(lo + 1, hi)
        left, right = term(lo, cut), term(cut, hi)
        return f"({left} {ops[cut - 1]} {right})"

    t = term(0, len(leaves))
    x = rng.choice(RANDOM_VARIABLES)
    if rng.random() < 0.5:
        return f"{x} \\/ {t} >= {x}"
    return f"{x} >= {x} /\\ {t}"


def identities_build(modules, seed):
    constructions, amalgamation, identities = modules["constructions"], modules["amalgamation"], modules["identities"]
    parse = identities.parse_identity
    rng = random.Random(seed)
    vs = amalgamation.vs_formation()
    algebras = {
        "L": constructions.lukasiewicz(CHAIN_SIZE),
        "G": constructions.godel(CHAIN_SIZE),
        **{d: amalgamation.rotated_vformation(vs, d, 2).C for d in ("identity", "const-1")},
    }
    # (algebra, identity text, parsed identity, expected failing assignment)
    cases = [(algebras[a], text, parse(text), fails_at) for a, text, fails_at in NAMED_CASES]
    for alg in algebras.values():
        text = random_tautology(rng)
        cases.append((alg, text, parse(text), None))
    return {"cases": cases}


def identities_run(modules, inputs):
    identities = modules["identities"]
    results = [identities.check_identity(alg, ident) for alg, _, ident, _ in inputs["cases"]]
    return {"results": [(r.holds, list(r.variables), r.assignment) for r in results]}


def identities_check(inputs, outputs):
    checks = [("one result per check", len(outputs["results"]) == len(inputs["cases"]))]
    for (alg, text, ident, fails_at), (holds, variables, assignment) in zip(inputs["cases"], outputs["results"]):
        verdict = "holds" if fails_at is None else f"fails at {fails_at}"
        ok = holds is (fails_at is None) and variables == list(ident.variables())
        ok = ok and (assignment is None if fails_at is None else tuple(assignment) == fails_at)
        checks.append((f"{text} {verdict} on {alg.name}", ok))
    return checks


class Workload(NamedTuple):
    build: Callable
    run: Callable
    check: Callable
    digest: Callable
    uses_seed: bool


WORKLOADS = {
    "paper": Workload(paper_build, paper_run, paper_check, paper_digest, False),
    "census": Workload(census_build, census_run, census_check, _sha, False),
    "identities": Workload(identities_build, identities_run, identities_check, _sha, True),
}
