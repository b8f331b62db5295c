"""A fixed reference loop that measures how fast the interpreter runs now.

On a shared machine the speed of one core drifts by tens of percent over
minutes, and reslat's work drifts with it.  This loop does the same kinds
of work (table lookups and tuple hashing as in identity checks, dict
traffic, bitmask candidate sets with an undo trail as in the completion
engine, position combinations and pin dicts as in the placement search),
imports nothing from reslat, and never changes, so timing it right before
and after a round gives the round's speed factor.  Times are rescaled to
the speed at which the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import itertools
import random
from time import perf_counter

NOMINAL_S = 0.25


def _lookups(rounds: int) -> int:
    rng = random.Random(1)
    table = [[rng.randrange(16) for _ in range(16)] for _ in range(16)]
    acc = 0
    for k in range(rounds):
        a, b = k & 15, (k >> 4) & 15
        c = table[table[a][b]][a]
        acc ^= hash((a, b, c))
    return acc


def _containers(rounds: int) -> int:
    rows = tuple(tuple((i * j) % 13 for j in range(12)) for i in range(12))
    seen: dict = {}

    def cell(a, b):
        return rows[a % 12][b % 12]

    acc = 0
    for k in range(rounds):
        key = (k % 97, rows[k % 12])
        seen[key] = seen.get(key, 0) + cell(k, k >> 3)
        acc += hash(rows) & 7
    return acc


def _masks(rounds: int) -> int:
    m = 8
    full = (1 << m) - 1
    cand = [full] * (m * m)
    trail = []
    acc = 0
    for k in range(rounds):
        cell = (k * 7) % (m * m)
        old = cand[cell]
        new = old & ~((1 << (k % m)) - 1) | 1
        if new != old:
            trail.append((cell, old))
            cand[cell] = new
        if len(trail) > 48:
            while trail:
                c, o = trail.pop()
                cand[c] = o
        acc += new.bit_count()
    return acc


def _pins(rounds: int) -> int:
    acc = 0
    for _ in range(rounds):
        for combo in itertools.combinations(range(9), 4):
            pins = {}
            for x in combo:
                key = (x, combo[0])
                if pins.get(key) is None:
                    pins[key] = x
            acc += len(pins)
    return acc


def reference_s() -> float:
    """Seconds the reference loop takes now."""
    start = perf_counter()
    _lookups(150_000)
    _containers(30_000)
    _masks(170_000)
    _pins(400)
    return perf_counter() - start
