"""In-memory span tracing of calls between reslat modules.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
a round runs and reduced once at the end: a layer's time is the coverage of
its outermost spans, and a span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

LAYERS = ("cli", "amalgamation", "completion", "identities", "algebra", "constructions", "documents")

# Calls the benchmark makes itself, plus the module-internal calls that carry
# a layer metric: count_chains reaches the engine through completion's own
# iter_completions, vs_formation builds its maps through amalgamation's own
# find_embeddings, and algebra uses its own lattice tables.
ENTRY_POINTS = (
    ("cli", "main"),
    ("completion", "count_chains"),
    ("completion", "enumerate_chains"),
    ("completion", "iter_completions"),
    ("identities", "check_identity"),
    ("identities", "parse_identity"),
    ("constructions", "lukasiewicz"),
    ("constructions", "godel"),
    ("amalgamation", "vs_formation"),
    ("amalgamation", "rotated_vformation"),
    ("amalgamation", "find_embeddings"),
    ("algebra", "meet_table"),
    ("algebra", "join_table"),
)

NO_PARENT = -1


class Tracer:
    """Spans and counts of one round, held in memory."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, names) -> bool:
        """Whether a span named in ``names`` is open."""
        ids = {self._name_ids.get(n) for n in names}
        return any(self.name_of[i] in ids for i in self.stack)


class SpanSummary:
    """Totals over the spans of a finished round."""

    def __init__(self, tracer: Tracer):
        if tracer.stack:
            raise RuntimeError("summary of a round with open spans")
        self.names = tracer.names
        self.counts = dict(tracer.counts)
        self.name_of = tracer.name_of
        self.parent = tracer.parent
        self.spans = n = len(tracer.start)
        self.duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            if tracer.parent[i] != NO_PARENT:
                children[tracer.parent[i]].append(i)
        self.self_time = [
            self.duration[i] - coverage([(tracer.start[c], tracer.end[c]) for c in children[i]])
            for i in range(n)
        ]

    def _ids(self, names) -> set[int]:
        wanted = set(names)
        return {nid for nid, name in enumerate(self.names) if name in wanted}

    def calls(self, names) -> int:
        ids = self._ids(names)
        return sum(1 for i in range(self.spans) if self.name_of[i] in ids)

    def total(self, names) -> float:
        """Time covered by spans in ``names``; a span nested in another
        span of ``names`` adds nothing."""
        ids = self._ids(names)
        enclosed = [False] * self.spans
        total = 0.0
        for i in range(self.spans):  # parents are recorded before children
            p = self.parent[i]
            enclosed[i] = p != NO_PARENT and (enclosed[p] or self.name_of[p] in ids)
            if self.name_of[i] in ids and not enclosed[i]:
                total += self.duration[i]
        return total

    def self_total(self, names) -> float:
        ids = self._ids(names)
        return sum(self.self_time[i] for i in range(self.spans) if self.name_of[i] in ids)

    def layer_names(self, layer: str) -> list[str]:
        return [n for n in self.names if n.split(".", 1)[0] == layer]


def coverage(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------------------
# wrapping


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    layer = module[len("reslat."):] if module.startswith("reslat.") else None
    return layer if layer in LAYERS else None


def wrap_points(modules: dict) -> list[tuple[str, str]]:
    """(module, attribute) pairs to wrap: every function a reslat module
    imports from another reslat module, plus :data:`ENTRY_POINTS`."""
    points = []
    for mod_name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if callable(obj) and not inspect.isclass(obj) and _layer_of(obj) not in (None, mod_name):
                points.append((mod_name, attr))
    points.extend(p for p in ENTRY_POINTS if p not in points)
    return points


def install(tracer: Tracer, modules: dict, hooks: dict) -> None:
    """Replace each wrap point in ``modules`` by a recording wrapper.

    ``hooks`` maps a span name to a hook.  For a plain function the hook is
    called as ``hook(tracer, args, kwargs, result)`` after each
    call.  For a generator function it is an object whose ``prepare(args,
    kwargs)`` returns ``(args, kwargs, state)`` before the call and whose
    ``step(tracer, state, first, item, done)`` runs after each ``next()``.
    """
    for mod_name, attr in wrap_points(modules):
        mod = modules[mod_name]
        orig = getattr(mod, attr)
        name = f"{_layer_of(orig)}.{getattr(orig, '__name__', attr)}"
        setattr(mod, attr, _wrapper(tracer, orig, name, mod_name, hooks.get(name)))


def _wrapper(tracer: Tracer, orig, name: str, importer: str, hook):
    nid = tracer.name_id(name)
    call_key = f"calls.{importer}.{name}"

    if inspect.isgeneratorfunction(orig):

        @functools.wraps(orig)
        def gen_wrapper(*args, **kwargs):
            tracer.count(call_key)
            state = None
            if hook is not None:
                args, kwargs, state = hook.prepare(args, kwargs)
            it = orig(*args, **kwargs)
            first = True
            while True:
                idx = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(idx)
                    if hook is not None:
                        hook.step(tracer, state, first, None, True)
                    return
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx)
                if hook is not None:
                    hook.step(tracer, state, first, item, False)
                first = False
                yield item

        return gen_wrapper

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        tracer.count(call_key)
        idx = tracer.open(nid)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper
