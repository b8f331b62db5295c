"""Per-layer metrics of reslat, computed from a traced round."""

from __future__ import annotations

import inspect

from spans import SpanSummary, Tracer

SEARCH = ("amalgamation.bounded_amalgam_search", "amalgamation.bounded_one_amalgam_search")
OBSTRUCTION = ("amalgamation.find_obstruction", "amalgamation.check_obstruction")
EMBED = ("amalgamation.find_embeddings", "amalgamation.find_homomorphisms")
ENGINE = ("completion.iter_completions",)
CHECK = ("identities.check_identity",)
LATTICE = ("algebra.meet_table", "algebra.join_table")
MAKE = ("algebra.make_algebra", "algebra.make_partial")
RESIDUALS = ("algebra.residuals_from_product",)
VALIDATE = ("algebra.validate", "algebra.validate_partial", "algebra.validate_morphism")
QUOTIENT = ("algebra.quotient", "algebra.congruence_filters", "algebra.filter_to_congruence")
EMIT = ("documents.dumps_canonical", "documents.algebra_to_document", "documents.canonical_tables_json",
        "documents.write_atomic")
CLI_ENTRY = ("cli.main",)

# name -> unit; design.json says which end-to-end metric each should move,
# on which workload
PER_LAYER = {
    "amalgamation.search_s": "s",
    "amalgamation.search_self_s": "s",
    "amalgamation.placements": "count",
    "amalgamation.pin_conflicts": "count",
    "amalgamation.placements_per_s": "1/s",
    "amalgamation.obstruction_s": "s",
    "amalgamation.embed_s": "s",
    "completion.calls": "count",
    "completion.s": "s",
    "completion.refuted_at_init": "count",
    "completion.nodes": "count",
    "completion.solutions": "count",
    "completion.nodes_per_s": "1/s",
    "completion.solutions_per_node": "ratio",
    "identities.checks": "count",
    "identities.check_s": "s",
    "identities.assignments": "count",
    "identities.assignments_per_s": "1/s",
    "algebra.lattice_table_s": "s",
    "algebra.lattice_table_calls": "count",
    "algebra.lattice_cache_entries": "count",
    "algebra.make_s": "s",
    "algebra.residuals_s": "s",
    "algebra.validate_s": "s",
    "algebra.quotient_s": "s",
    "constructions.s": "s",
    "documents.emit_s": "s",
    "documents.bytes": "bytes",
    "cli.paper_self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _search_hook(tracer, args, kwargs, report):
    if not tracer.inside(SEARCH):  # a one-amalgam report already sums its inner searches
        tracer.count("amalgamation.placements", sum(s.placements for s in report.sizes))


def _check_hook(tracer, args, kwargs, result):
    tracer.count("identities.assignments", assignments_evaluated(args[0].size, result))


def _dumps_hook(tracer, args, kwargs, text):
    tracer.count("documents.bytes", len(text.encode("utf-8")))


def assignments_evaluated(size: int, result) -> int:
    """Assignments ``check_identity`` evaluated: all of them when the
    identity holds, else those up to the lexicographically least failure."""
    if result.holds:
        return size ** len(result.variables)
    rank = 0
    for value in result.assignment:
        rank = rank * size + value
    return rank + 1


class _EngineHook:
    """Counts nodes, solutions and calls refuted before any branching."""

    def __init__(self, completion_module):
        self.signature = inspect.signature(completion_module.iter_completions)
        self.new_stats = completion_module.SearchStats

    def prepare(self, args, kwargs):
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["stats"] is None:
            bound.arguments["stats"] = self.new_stats()
        stats = bound.arguments["stats"]
        return bound.args, bound.kwargs, [stats, stats.nodes, 0]

    def step(self, tracer, state, first, item, done):
        stats, seen, call_nodes = state
        delta = stats.nodes - seen
        state[1] = stats.nodes
        state[2] = call_nodes + delta
        tracer.count("completion.nodes", delta)
        if not done:
            tracer.count("completion.solutions")
        elif first and state[2] == 0:
            tracer.count("completion.refuted_at_init")


def hooks(modules: dict) -> dict:
    return {
        "amalgamation.bounded_amalgam_search": _search_hook,
        "amalgamation.bounded_one_amalgam_search": _search_hook,
        "identities.check_identity": _check_hook,
        "documents.dumps_canonical": _dumps_hook,
        "completion.iter_completions": _EngineHook(modules["completion"]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, lattice_cache_entries: int) -> dict:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_s``, which
    compares rounds and is computed by the runner."""
    s = SpanSummary(tracer)
    counts = s.counts
    engine_calls = sum(v for k, v in counts.items() if k.startswith("calls.") and k.endswith(ENGINE[0]))
    from_search = counts.get("calls.amalgamation." + ENGINE[0], 0)
    search_s = s.total(SEARCH)
    placements = counts.get("amalgamation.placements", 0)
    engine_s = s.total(ENGINE)
    nodes = counts.get("completion.nodes", 0)
    solutions = counts.get("completion.solutions", 0)
    check_s = s.total(CHECK)
    assignments = counts.get("identities.assignments", 0)
    return {
        "amalgamation.search_s": search_s,
        "amalgamation.search_self_s": s.self_total(SEARCH),
        "amalgamation.placements": placements,
        "amalgamation.pin_conflicts": placements - from_search,
        "amalgamation.placements_per_s": _ratio(placements, search_s),
        "amalgamation.obstruction_s": s.total(OBSTRUCTION),
        "amalgamation.embed_s": s.total(EMBED),
        "completion.calls": engine_calls,
        "completion.s": engine_s,
        "completion.refuted_at_init": counts.get("completion.refuted_at_init", 0),
        "completion.nodes": nodes,
        "completion.solutions": solutions,
        "completion.nodes_per_s": _ratio(nodes, engine_s),
        "completion.solutions_per_node": _ratio(solutions, nodes),
        "identities.checks": s.calls(CHECK),
        "identities.check_s": check_s,
        "identities.assignments": assignments,
        "identities.assignments_per_s": _ratio(assignments, check_s),
        "algebra.lattice_table_s": s.total(LATTICE),
        "algebra.lattice_table_calls": s.calls(LATTICE),
        "algebra.lattice_cache_entries": lattice_cache_entries,
        "algebra.make_s": s.total(MAKE),
        "algebra.residuals_s": s.total(RESIDUALS),
        "algebra.validate_s": s.total(VALIDATE),
        "algebra.quotient_s": s.total(QUOTIENT),
        "constructions.s": s.total(s.layer_names("constructions")),
        "documents.emit_s": s.total(EMIT),
        "documents.bytes": counts.get("documents.bytes", 0),
        "cli.paper_self_s": s.self_total(CLI_ENTRY),
        "trace.spans": s.spans,
    }
