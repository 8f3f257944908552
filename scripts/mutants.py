"""Mutant sweep: apply each of a fixed list of one-line mutants of proved
steps to a temporary copy of the repository, run the tier-1 suite on it
with ``-x``, and print whether the suite killed the mutant.

    python scripts/mutants.py

Each mutant's old text must occur exactly once in its file, so a refactor
that moves a target fails here loudly instead of testing nothing.  The
unmutated copy is run first and must pass, or no kill would mean anything.
Exit status 0 when every mutant is killed, 1 otherwise.  Stdlib only.

A mutant that changes only speed is listed where a test pins the fast path
it removes, as for the skip of an edge that meets the 1s.  One that no test
can tell apart is listed in ``EQUIVALENT`` with its reason: its old text is
checked like the others, but it is neither run nor counted.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (name, file, old text, new text); an old text is one line or a part of one
MUTANTS = [
    ("first son's LB check dropped", "src/transversals/engine.py",
     "if k is not None and not is_feasible(sons[0], rest, k):", "if False:"),
    ("max_stack without the row in hand", "src/transversals/engine.py",
     "max_stack = len(stack) + 1", "max_stack = len(stack)"),
    ("max_stack rule misses a tie", "src/transversals/engine.py",
     "if len(stack) >= max_stack:", "if len(stack) > max_stack:"),
    ("s_max not raised", "src/transversals/engine.py",
     "s_max = len(sons)", "pass"),
    ("c_max test off by one", "src/transversals/engine.py",
     "if (k is None or k + son[0].bit_count() <= w)",
     "if (k is None or k + son[0].bit_count() < w)"),
    ("contained bubble not passed through", "src/transversals/engine.py",
     "if not rest:", "if False:"),
    ("one-position part left as a bubble", "src/transversals/engine.py",
     "if part & part - 1:", "if part:"),
    ("one-position free hit left as a bubble", "src/transversals/engine.py",
     "if free_hit & free_hit - 1:", "if free_hit:"),
    ("slack test one step late", "src/transversals/engine.py",
     "if not slack:", "if slack < 0:"),
    ("packing remembers only its last edge", "src/transversals/engine.py",
     "packed |= live", "packed = live"),
    ("size_counts digit width one byte short", "src/transversals/rows.py",
     "width = (min(w, max(top, 0) * w.bit_length()) + 8) // 8",
     "width = (min(w, max(top, 0) * w.bit_length()) + 8) // 8 - 1"),
    ("edge meeting the 1s passed to impose", "src/transversals/engine.py",
     "if not edge & ones:", "if True:"),
    ("impose walks the bubbles for a free-only edge", "src/transversals/engine.py",
     "if edge & ~(zeros | ones | twos):", "if True:"),
    ("pending edge inside the zeros accepted", "src/transversals/engine.py",
     "if not live:", "if False:"),
    ("pending edge meeting the 1s or a bubble not skipped", "src/transversals/engine.py",
     "if edge & fixed:", "if False:"),
    ("root kept for k past w", "src/transversals/engine.py",
     "if k is None or k <= w and is_feasible(root, edges, k):",
     "if k is None or is_feasible(root, edges, k):"),
    ("size_counts truncation one digit short", "src/transversals/rows.py",
     "keep = (1 << bits * (top + 1)) - 1", "keep = (1 << bits * top) - 1"),
    ("members_of_size lets a bubble pick nothing", "src/transversals/rows.py",
     "lo = max(1, left - room[p + 1])", "lo = max(0, left - room[p + 1])"),
    ("one-per-bubble tail takes the last bubble reversed", "src/transversals/rows.py",
     "itertools.product(*[b[::-1] for b in bubbles[:-1]], bubbles[-1])",
     "itertools.product(*[b[::-1] for b in bubbles[:-1]], bubbles[-1][::-1])"),
    ("row without bubbles picks in reverse", "src/transversals/rows.py",
     "_labelled(itertools.combinations(free, need), label)",
     "_labelled(itertools.combinations(free[::-1], need), label)"),
    ("free pick left unlabelled", "src/transversals/rows.py",
     "picks = map(map, itertools.repeat(label), picks)", "pass"),
    ("free block labelled as the row is decoded", "src/transversals/rows.py",
     "free = _vertices(twos)", "free = _vertices(twos); label and [*map(label, free)]"),
    ("a row at c_min walks its free picks", "src/transversals/rows.py",
     "if not extra:", "if False:"),
    ("a row at c_min without bubbles yields nothing", "src/transversals/rows.py",
     "return iter((sorted(ones),))", "return iter(())"),
    ("a row at c_min takes its bubbles in reverse order", "src/transversals/rows.py",
     "_tails(bubbles, need)", "_tails(bubbles[::-1], need)"),
    ("size bound lets one size below c_min through", "src/transversals/rows.py",
     "if extra < 0 or", "if extra < -1 or"),
    ("a cut-off tail list replayed", "src/transversals/rows.py",
     "walked = len(kept) * t > _REPLAY", "walked = len(kept) * t > _REPLAY + t"),
    ("a walked tail replayed from the cut-off list", "src/transversals/rows.py",
     "_tails(bubbles, t) if walked else kept", "kept"),
    ("restrict keeps a bubble's forbidden positions", "src/transversals/rows.py",
     "rest = bubble & ~forbid", "rest = bubble"),
    ("restrict keeps a one-position rest as a bubble", "src/transversals/rows.py",
     "if rest & rest - 1:", "if rest:"),
    ("restrict leaves a promoted rest out of the 1s", "src/transversals/rows.py",
     "ones |= rest", "pass"),
    ("restrict walks the bubbles for a cut that meets none", "src/transversals/rows.py",
     "if not cut & ~(zeros | ones | twos):", "if False:"),
    ("one-position bubble dropped, not promoted", "src/transversals/rows.py",
     "ones |= bubble", "pass"),
    ("rendered bubbles numbered by mask, not least element", "src/transversals/rows.py",
     "sorted(bubbles, key=lambda b: b & -b)", "sorted(bubbles)"),
    ("size_counts reads the 2s as the 1s", "src/transversals/rows.py",
     "for _, ones, twos, bubbles in", "for _, twos, ones, bubbles in"),
    ("filter_family returns the parts uncut", "src/transversals/analytics.py",
     "RowFamily(family.w, filter_rows(family.parts, require, forbid))",
     "RowFamily(family.w, family.parts)"),
    ("count_total reads R from the kept tally", "src/transversals/analytics.py",
     "return _tally(family).n_total", "return _tally(family).r_final"),
    ("a family keeps a one-shot iterator of parts", "src/transversals/engine.py",
     'object.__setattr__(self, "parts", tuple(self.parts))', "pass"),
    ("the rows view rebuilt on every read", "src/transversals/engine.py",
     "@cached_property", "@property"),
    ("Tally reads the 2s as the 1s", "src/transversals/analytics.py",
     "_, ones, twos, bubbles = row", "_, twos, ones, bubbles = row"),
    ("tau_min ignores bubble sizes", "src/transversals/analytics.py",
     "tau_min += count", "tau_min += 1"),
    ("N counts a bubble's empty pick", "src/transversals/analytics.py",
     "size *= (1 << bubble.bit_count()) - 1", "size *= 1 << bubble.bit_count()"),
    ("at-least memo key drops k", "src/transversals/analytics.py",
     '("at least", max(k, 0))', '"at least"'),
    ("memo serves the first fold for every key", "src/transversals/analytics.py",
     "if key not in folds:", "if not folds:"),
    ("kept-spectrum tail off by one", "src/transversals/analytics.py",
     "kept.counts[max(k, 0):]", "kept.counts[max(k, 0) + 1:]"),
    ("enumerate label width one short", "src/transversals/cli.py",
     '% len(str(hg.w))).format', '% (len(str(hg.w)) - 1)).format'),
    ("enumerate batch keeps its NULs", "src/transversals/cli.py",
     '.replace("\\0", "")', ""),
    ("writer batch not bounded by its characters", "src/transversals/cli.py",
     "min(_BATCH, _BATCH_CHARS // (len(first) + 1))", "_BATCH"),
    ("--at-least K leaves out size K", "src/transversals/cli.py",
     "below = sum(size_counts(rows, hg.w, at_least - 1))",
     "below = sum(size_counts(rows, hg.w, at_least))"),
    ("later son checked against the edges missing the split edge",
     "src/transversals/engine.py", "if e & edge]", "if not e & edge]"),
    ("one split index's pending list used at the next index", "src/transversals/engine.py",
     "rest = meets[done]", "rest = meets[done - 1]"),
]

# (name, file, old text, new text, reason)
EQUIVALENT = [
    ("every later edge kept for a later son", "src/transversals/engine.py",
     "if e & edge]", "]",
     "only speed: the edges missing the split edge never fail a later son"),
    ("a pass of one free pick lists its tails", "src/transversals/rows.py",
     "walked = d in (0, len(free))", "walked = False",
     "only speed and memory: the one pick meets the same tails, listed or walked"),
]

# a mutated copy lacks the mutant's old text, so the test that checks each
# old text occurs once would kill every mutant; the sweep leaves it out
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors",
          "--deselect", "tests/test_scripts.py::test_every_mutant_targets_one_place"]


def mutate(text: str, old: str, new: str) -> str:
    """``text`` with its one occurrence of ``old`` replaced by ``new``."""
    if text.count(old) != 1:
        raise ValueError(f"{old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def copy_env(copy: pathlib.Path) -> dict[str, str]:
    """Import the package from ``copy``, and cache no bytecode: a mutant
    and its undoing may share a source's mtime."""
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def tier1(copy: pathlib.Path) -> tuple[bool, str]:
    """Run tier-1 in ``copy``: whether it passed, and its first failure."""
    env = copy_env(copy)
    try:
        proc = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=600)
    except subprocess.TimeoutExpired:
        return False, "timed out"
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, (failed[0] if failed else f"exit status {proc.returncode}")


def main() -> int:
    sources = {}
    for name, file, old, new, *_ in MUTANTS + EQUIVALENT:
        text = sources.setdefault(file, (ROOT / file).read_text())
        mutate(text, old, new)
    for name, _, _, _, reason in EQUIVALENT:
        print(f"equivalent  {name}  ({reason})")
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_work"))
        found = subprocess.run(
            [sys.executable, "-c", "import transversals; print(transversals.__file__)"],
            cwd=copy, env=copy_env(copy), capture_output=True, text=True, check=True).stdout
        if not pathlib.Path(found.strip()).is_relative_to(copy):
            print(f"the copy imports transversals from {found.strip()}", file=sys.stderr)
            return 1
        passed, first = tier1(copy)
        if not passed:
            print(f"the unmutated copy fails: {first}", file=sys.stderr)
            return 1
        survivors = 0
        for name, file, old, new in MUTANTS:
            target = copy / file
            target.write_text(mutate(sources[file], old, new))
            start = time.perf_counter()
            passed, first = tier1(copy)
            seconds = time.perf_counter() - start
            target.write_text(sources[file])
            survivors += passed
            verdict = f"survived  {name}" if passed else f"killed    {name}  ({first})"
            print(f"{verdict}  [{seconds:.1f} s]", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
