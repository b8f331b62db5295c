#!/usr/bin/env python3
"""Census of finite residuated chains by size and property flags.

Counts are exact and isomorph-free (on a chain the only order automorphism
is the identity).  The columns of a row share their engine runs, one per
unit for the first two and one for the four commutative ones, kept in the
engine's memo; the 2-potent, idempotent and divisible columns then test
each memoized table of the commutative run for their one flag.  Each row
prints its own ``seconds``.  The commutative integral column reproduces
1, 1, 2, 6, 22, 94, 451, 2386, ...
``--max-size`` must lie between 1 and the engine's ``MAX_CHAIN_SIZE``;
any other bound exits 2 before the header is printed.
"""

import argparse
import sys
import time

from reslat.completion import MAX_CHAIN_SIZE, ChainFlags, count_chains

COLUMNS = [
    ("all", ChainFlags()),
    ("integral", ChainFlags(integral=True)),
    ("comm. integral", ChainFlags(integral=True, commutative=True)),
    ("divisible CI", ChainFlags(integral=True, commutative=True, divisible=True)),
    ("2-potent CI", ChainFlags(integral=True, commutative=True, k_potent=2)),
    ("idempotent CI", ChainFlags(integral=True, commutative=True, k_potent=1)),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=6)
    args = ap.parse_args(argv)
    if not 1 <= args.max_size <= MAX_CHAIN_SIZE:
        ap.error(f"--max-size must be between 1 and {MAX_CHAIN_SIZE}")

    header = ["n"] + [name for name, _ in COLUMNS] + ["seconds"]
    print("\t".join(header))
    for n in range(1, args.max_size + 1):
        t0 = time.monotonic()
        row = [str(n)]
        for _, flags in COLUMNS:
            row.append(str(count_chains(n, flags)))
        row.append(f"{time.monotonic() - t0:.2f}")
        print("\t".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
