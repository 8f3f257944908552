"""Walk through the full pipeline on a hypergraph file: build the row
family, print it with per-row sizes, then the cardinality spectrum, the
transversal number and a subset/superset query.  Bad input (a missing or
malformed file, a vertex list that is not integers or a vertex outside
1..w) gives one ``error:`` line on stderr and exit status 2.

Usage:
    python scripts/demo_walkthrough.py [file] [--require 8,9] [--forbid 7]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from transversals import (count_at_least, count_total, filter_family,
                          load_hypergraph, parse_vertex_list, run, spectrum,
                          transversal_number)

DEFAULT_FILE = pathlib.Path(__file__).resolve().parent.parent / "data" / "sample14.hg"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", nargs="?", default=str(DEFAULT_FILE))
    parser.add_argument("--require", default="", help="comma-separated vertices")
    parser.add_argument("--forbid", default="", help="comma-separated vertices")
    args = parser.parse_args()

    try:
        hg = load_hypergraph(args.file)
        require = list(parse_vertex_list(args.require))
        forbid = list(parse_vertex_list(args.forbid))
        start = time.perf_counter()
        family = run(hg)
        elapsed = time.perf_counter() - start
        filtered = (filter_family(family, require=require, forbid=forbid)
                    if require or forbid else None)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"hypergraph: w={hg.w}, h={hg.h}, d={hg.d}")
    total = count_total(family)
    print(f"\nfinal rows ({len(family.rows)} rows, {total} transversals, "
          f"{elapsed * 1000:.2f} ms):")
    for row in family.rows:
        print(f"  {row.render():<40}  |{row.size()}|")
    stats = family.stats
    print(f"stats: impositions={stats.impositions}, s_max={stats.s_max}, "
          f"max_stack={stats.max_stack}")

    print("\nspectrum (k : count):")
    for k, count in enumerate(spectrum(family).counts):
        if count:
            print(f"  {k:>3} : {count}")
    k_min, tau_min = transversal_number(family)
    print(f"transversal number: k_min={k_min}, tau_min={tau_min}")
    print(f"at least k_min+1 elements: {count_at_least(family, k_min + 1)}")

    if filtered is not None:
        print(f"\nquery require={require} forbid={forbid} "
              f"({len(filtered.rows)} rows, {count_total(filtered)} members):")
        for row in filtered.rows:
            print(f"  {row.render()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
