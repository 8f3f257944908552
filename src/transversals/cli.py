"""Command-line front end: count, spectrum, enumerate, rows and query
subcommands over a hypergraph file.

All input (the file, and query's vertex lists via
:func:`~transversals.hypergraph.parse_vertex_list`) is read under Python's
int/str digit limit.  ``count --verify`` hands each oracle to
:func:`_verify` as it is; the oracle keeps its own budget and says why it
skips.  Exit codes: 0 ok, 2 input error or out of memory, 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from collections import deque

from .analytics import (Spectrum, Tally, check_conditions, count_exactly,
                        filter_rows)
from .engine import final_rows
from .hypergraph import (Hypergraph, brief_repr, load_hypergraph,
                         parse_vertex_list)
from .oracles import brute_count, inclusion_exclusion_count
from .rows import _Memo, size_counts

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3

# Python 3.10.7+ limits int <-> str conversions (4300 digits by default)
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _int_value(text: str) -> int:
    """An int option's value.  A bad one is named briefly, so the error is
    one short line however long the text is (argparse's own message for
    ``type=int`` quotes all of it)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {brief_repr(text)}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transversals",
        description="Exact counting and enumeration of hypergraph transversals.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="hypergraph file ('w h' header text, or .json)")
    common.add_argument("--order", choices=("input", "size-asc"), default="input",
                        help="edge imposition order (default: input)")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", parents=[common],
                           help="count all transversals")
    count.add_argument("--at-least", type=_int_value, metavar="K",
                       help="also count transversals of cardinality >= K")
    count.add_argument("--exactly", type=_int_value, metavar="K",
                       help="count only the transversals of cardinality K")
    count.add_argument("--verify", action="store_true",
                       help="cross-check against both oracles (within limits)")
    count.add_argument("--json", action="store_true",
                       help="emit the run report as a JSON object")

    sub.add_parser("spectrum", parents=[common],
                   help="print 'k count' for every cardinality 0..w")

    enum = sub.add_parser("enumerate", parents=[common],
                          help="print all k-element transversals")
    enum.add_argument("--k", type=_int_value, required=True)
    enum.add_argument("--limit", type=_int_value, metavar="M",
                      help="stop after M transversals")

    sub.add_parser("rows", parents=[common],
                   help="print the final rows in canonical token form")

    query = sub.add_parser("query", parents=[common],
                           help="filter the family by required/forbidden vertices")
    query.add_argument("--require", default="", metavar="LIST",
                       help="comma-separated vertices every transversal must contain")
    query.add_argument("--forbid", default="", metavar="LIST",
                       help="comma-separated vertices no transversal may contain")
    return parser


def _load(args) -> Hypergraph:
    """The hypergraph of ``args.file``; for ``query`` also the condition
    masks, checked before any row exists, in place of the two lists."""
    hg = load_hypergraph(args.file)
    if args.command == "query":
        args.require, args.forbid = check_conditions(
            hg.w, parse_vertex_list(args.require), parse_vertex_list(args.forbid))
    if args.order == "size-asc":
        hg = Hypergraph(hg.w, tuple(sorted(hg.edges, key=len)))
    return hg


def _verify(args, answer: int, oracles) -> int:
    """Compare ``answer`` with each (name, oracle); an oracle past its budget
    raises ValueError before any work, and its message is the skip reason.
    Under ``--json`` the verify lines go to stderr, so stdout is one object."""
    out = sys.stderr if args.json else sys.stdout
    for name, oracle in oracles:
        try:
            got = oracle()
        except ValueError as exc:
            print(f"verify {name}: skipped ({exc})", file=out)
            continue
        if got != answer:
            print(f"verification mismatch: {name} says {got}, "
                  f"engine says {answer}", file=sys.stderr)
            return EXIT_MISMATCH
        print(f"verify {name}: {got} ok", file=out)
    return EXIT_OK


def _cmd_count(args, hg: Hypergraph) -> int:
    k, at_least = args.exactly, args.at_least
    if k is not None and at_least is not None:
        raise ValueError("--exactly cannot be combined with --at-least")
    start = time.perf_counter()
    if k is not None:
        answer = count_exactly(hg, k)
    else:
        # one pass over the engine's final rows; none is stored
        tally = Tally()
        rows = tally.tap(final_rows(hg))
        at_least_count = 0          # no size exceeds w: K past w counts none
        if at_least is None or at_least > hg.w:
            deque(rows, maxlen=0)
        else:
            # N less the counts of sizes 0..K-1, the only digits computed;
            # size_counts reads every row, so the tally holds N after it
            below = sum(size_counts(rows, hg.w, at_least - 1))
            at_least_count = tally.n_total - below
        answer = tally.n_total
    elapsed = time.perf_counter() - start

    if k is not None:
        report = {"exactly_k": k, "exactly_count": answer, "elapsed": elapsed}
        lines = [f"N(|X| = {k}) = {answer}"]
        oracles = [("inclusion-exclusion", lambda: inclusion_exclusion_count(hg, k))]
    else:
        report = {"n_total": answer, "r_final": tally.r_final,
                  "k_min": tally.k_min, "tau_min": tally.tau_min,
                  "impositions": tally.stats.impositions,
                  "s_max_observed": tally.stats.s_max, "elapsed": elapsed}
        lines = [f"N = {answer}, R = {tally.r_final}, "
                 f"k_min = {tally.k_min}, tau_min = {tally.tau_min}"]
        oracles = [("brute force", lambda: brute_count(hg)),
                   ("inclusion-exclusion", lambda: inclusion_exclusion_count(hg))]
        if at_least is not None:
            report.update(at_least_k=at_least, at_least_count=at_least_count)
            lines.append(f"N(|X| >= {at_least}) = {at_least_count}")
    print(json.dumps(report) if args.json else "\n".join(lines))
    if not args.verify:
        return EXIT_OK
    code = _verify(args, answer, oracles)
    if code == EXIT_OK and at_least is not None:
        # brute force sweeps again for the at-least line; agreement, or a
        # skip already reported for N, adds no line
        try:
            got = brute_count(hg, at_least=at_least)
        except ValueError:
            return code
        if got != at_least_count:
            print(f"verification mismatch: brute force says N(|X| >= {at_least}) "
                  f"= {got}, engine says {at_least_count}", file=sys.stderr)
            return EXIT_MISMATCH
    return code


def _cmd_spectrum(args, hg: Hypergraph) -> int:
    for k, count in enumerate(Spectrum.of(final_rows(hg), hg.w).counts):
        print(f"{k} {count}")
    return EXIT_OK


def _cmd_enumerate(args, hg: Hypergraph) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be >= 0")
    if not 0 <= args.k <= hg.w:
        return EXIT_OK
    # the run for k yields only the rows holding size-k transversals
    found = itertools.chain.from_iterable(
        row.members_of_size(args.k) for row in final_rows(hg, args.k))
    if args.limit is not None:
        found = itertools.islice(found, args.limit)
    # a vertex is labelled when first printed; writelines pulls the lines
    # one at a time
    label = _Memo(str)
    sys.stdout.writelines(" ".join(map(label.__getitem__, xs)) + "\n" for xs in found)
    return EXIT_OK


def _cmd_rows(args, hg: Hypergraph) -> int:
    # each row is printed as the engine finishes it; none is stored
    for row in final_rows(hg):
        print(row.render())
    return EXIT_OK


def _cmd_query(args, hg: Hypergraph) -> int:
    # each row is cut and printed as the engine yields it; none is stored
    tally = Tally()
    for row in tally.tap(filter_rows(final_rows(hg), args.require, args.forbid)):
        print(row.render())
    print(f"R = {tally.r_final}, N = {tally.n_total}")
    return EXIT_OK


_HANDLERS = {
    "count": _cmd_count,
    "spectrum": _cmd_spectrum,
    "enumerate": _cmd_enumerate,
    "rows": _cmd_rows,
    "query": _cmd_query,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    digit_limit = _get_digit_limit()
    try:
        hg = _load(args)
        # the input (the file, and query's vertex lists) is parsed under
        # Python's int/str digit limit; exact answers may be longer, so
        # they are printed without one
        _set_digit_limit(0)
        code = _HANDLERS[args.command](args, hg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early (`| head`); let the flush at exit hit devnull
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_INPUT
    finally:
        _set_digit_limit(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
