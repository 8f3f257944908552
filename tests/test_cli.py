import hashlib
import io
import itertools
import json
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

from transversals import (Hypergraph, Row, Spectrum, analytics, cli, engine, final_parts,
                          load_hypergraph, run)
from transversals.cli import main
from transversals.hypergraph import MAX_W
from conftest import DEMO_FINAL_ROWS, DEMO_TEXT


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.hg"
    path.write_text(DEMO_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_demo_report(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "count", demo_file)
        assert code == 0
        assert out.splitlines()[0] == "N = 8784, R = 7, k_min = 4, tau_min = 66"

    def test_no_edges(self, capsys, tmp_path):
        path = tmp_path / "free.hg"
        path.write_text("3 0\n")
        code, out, _ = run_cli(capsys, "count", str(path))
        assert code == 0
        assert "N = 8" in out

    def test_at_least(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "count", demo_file, "--at-least", "5")
        assert code == 0
        assert "8718" in out

    def test_verify_ok(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "count", demo_file, "--verify")
        assert code == 0
        assert "verify brute force: 8784 ok" in out
        assert "verify inclusion-exclusion: 8784 ok" in out

    @pytest.mark.parametrize("text, verify_lines", [
        ("25 1\n1 2\n", "verify brute force: skipped (w > 24: 2^25 masks)\n"
                         "verify inclusion-exclusion: 25165824 ok\n"),
        ("5 21\n" + "".join(" ".join(map(str, e)) + "\n" for e in
                            [*itertools.combinations(range(1, 6), 2),
                             *itertools.combinations(range(1, 6), 3), (1, 2, 3, 4)]),
         "verify brute force: 6 ok\n"
         "verify inclusion-exclusion: skipped (h > 20: 2^21 subsets)\n"),
    ], ids=["brute-skipped", "ie-skipped"])
    def test_verify_skips_oracle_over_its_limit(self, capsys, tmp_path, text,
                                                verify_lines):
        path = tmp_path / "big.hg"
        path.write_text(text)
        code, out, err = run_cli(capsys, "count", str(path), "--verify")
        assert (code, out.split("\n", 1)[1], err) == (0, verify_lines, "")

    def test_verify_mismatch(self, capsys, demo_file, monkeypatch):
        monkeypatch.setattr(cli, "inclusion_exclusion_count", lambda hg: 8783)
        code, out, err = run_cli(capsys, "count", demo_file, "--verify")
        assert (code, out.splitlines()[-1], err) == (
            3, "verify brute force: 8784 ok",
            "verification mismatch: inclusion-exclusion says 8783, "
            "engine says 8784\n")

    def test_verify_at_least_mismatch(self, capsys, demo_file, monkeypatch):
        # counts one more member below K: the engine's at-least line is 8717
        real = cli.size_counts
        monkeypatch.setattr(cli, "size_counts", lambda *args: real(*args) + [1])
        code, out, err = run_cli(capsys, "count", demo_file, "--at-least", "5",
                                 "--verify")
        assert (code, out.splitlines()[1:], err) == (
            3, ["N(|X| >= 5) = 8717", "verify brute force: 8784 ok",
                "verify inclusion-exclusion: 8784 ok"],
            "verification mismatch: brute force says N(|X| >= 5) = 8718, "
            "engine says 8717\n")

    @pytest.mark.parametrize("k", [-1, 0, 2, 3, 4])
    def test_verify_at_least_checks_the_tail(self, capsys, tmp_path, monkeypatch, k):
        # on "3 1 / 1 2" N = 6 and N(|X| >= 2) = 4; the sweep counts the tail
        calls = []
        real = cli.brute_count
        monkeypatch.setattr(cli, "brute_count",
                            lambda hg, **kw: calls.append(kw) or real(hg, **kw))
        path = tmp_path / "three.hg"
        path.write_text("3 1\n1 2\n")
        code, out, err = run_cli(capsys, "count", str(path), "--at-least", str(k),
                                 "--verify")
        tail = {-1: 6, 0: 6, 2: 4, 3: 1, 4: 0}[k]
        assert (code, out, err) == (
            0, f"N = 6, R = 1, k_min = 1, tau_min = 2\nN(|X| >= {k}) = {tail}\n"
               "verify brute force: 6 ok\nverify inclusion-exclusion: 6 ok\n", "")
        assert calls == [{}, {"at_least": k}]

    def test_verify_at_least_over_budget_reports_one_skip(self, capsys, tmp_path):
        # the skip of brute force for N covers the tail: no second line
        path = tmp_path / "big.hg"
        path.write_text("25 1\n1 2\n")
        assert run_cli(capsys, "count", str(path), "--at-least", "2", "--verify") == (
            0, "N = 25165824, R = 1, k_min = 1, tau_min = 2\n"
               "N(|X| >= 2) = 25165822\n"
               "verify brute force: skipped (w > 24: 2^25 masks)\n"
               "verify inclusion-exclusion: 25165824 ok\n", "")

    def test_json_report(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "count", demo_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_total"] == 8784
        assert payload["r_final"] == 7
        assert payload["r_final"] <= payload["n_total"]
        assert payload["k_min"] == 4
        assert payload["tau_min"] == 66
        assert payload["impositions"] >= 6
        assert payload["s_max_observed"] >= 1
        assert payload["elapsed"] >= 0

    def test_json_verify_keeps_stdout_one_object(self, capsys, demo_file):
        code, out, err = run_cli(capsys, "count", demo_file, "--json", "--verify")
        assert (code, json.loads(out)["n_total"]) == (0, 8784)
        assert err == ("verify brute force: 8784 ok\n"
                       "verify inclusion-exclusion: 8784 ok\n")

    def test_size_ascending_order_same_count(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "count", demo_file,
                               "--order", "size-asc")
        assert code == 0
        assert out.startswith("N = 8784, ")

    def test_size_ascending_order_checks_each_edge_once(self, capsys, tmp_path,
                                                        monkeypatch):
        checks, seen = [], []
        real_check, real_parts = Hypergraph.__post_init__, cli.final_parts
        monkeypatch.setattr(Hypergraph, "__post_init__",
                            lambda hg: checks.append(hg) or real_check(hg))
        monkeypatch.setattr(cli, "final_parts",
                            lambda hg: seen.append(hg) or real_parts(hg))
        path = tmp_path / "mixed.hg"
        path.write_text("4 4\n1 2 3\n4\n3 2\n1\n")
        code, out, _ = run_cli(capsys, "count", str(path), "--order", "size-asc")
        assert (code, out) == (0, "N = 3, R = 1, k_min = 3, tau_min = 2\n")
        # a stable sort of the one loaded instance
        assert len(checks) == 1 and seen[0] is checks[0]
        assert seen[0].edges == ((4,), (1,), (2, 3), (1, 2, 3))

    def test_exact_count_past_int_digit_limit(self, capsys, tmp_path):
        # N = 3 * 2^14998 has 4516 digits, past Python's default limit of
        # 4300 for int <-> str conversion; the limit is lifted for output only
        path = tmp_path / "big.hg"
        path.write_text("15000 1\n1 2\n")
        limit = sys.get_int_max_str_digits()
        text = run_cli(capsys, "count", str(path))
        report = run_cli(capsys, "count", "--json", str(path))
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = f"N = {3 << 14998}, R = 1, k_min = 1, tau_min = 2\n"
            payload = json.loads(report[1])
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == (0, expected, "")
        assert (report[0], report[2]) == (0, "")
        assert payload["n_total"] == 3 << 14998

    def test_input_keeps_int_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"w": 1' + "0" * 5000 + ', "edges": []}')
        code, out, err = run_cli(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCountExactly:
    @pytest.mark.parametrize("k, count", [("5", 419), ("14", 1), ("3", 0)])
    def test_demo_counts(self, capsys, demo_file, k, count):
        assert run_cli(capsys, "count", demo_file, "--exactly", k) == \
            (0, f"N(|X| = {k}) = {count}\n", "")

    def test_runs_engine_in_size_window(self, capsys, demo_file, monkeypatch):
        sizes = []
        real = analytics.final_parts

        def spy(hg, k=None):
            sizes.append(k)
            return real(hg, k)

        monkeypatch.setattr(analytics, "final_parts", spy)
        assert run_cli(capsys, "count", demo_file, "--exactly", "5")[:2] == \
            (0, "N(|X| = 5) = 419\n")
        assert sizes == [5]

    @pytest.mark.parametrize("k", ["-1", "15"])
    def test_k_outside_ground_set_skips_engine(self, capsys, demo_file,
                                               monkeypatch, k):
        monkeypatch.setattr(analytics, "final_parts", None)
        assert run_cli(capsys, "count", demo_file, "--exactly", k) == \
            (0, f"N(|X| = {k}) = 0\n", "")

    def test_at_least_is_usage_error(self, capsys, demo_file):
        assert run_cli(capsys, "count", demo_file, "--exactly", "4",
                       "--at-least", "5") == \
            (2, "", "error: --exactly cannot be combined with --at-least\n")

    def test_verify(self, capsys, demo_file):
        assert run_cli(capsys, "count", demo_file, "--exactly", "6", "--verify") == \
            (0, "N(|X| = 6) = 1171\nverify inclusion-exclusion: 1171 ok\n", "")

    def test_verify_skips_over_edge_limit(self, capsys, tmp_path):
        path = tmp_path / "many.hg"
        path.write_text("3 21\n" + "1 2\n" * 21)
        assert run_cli(capsys, "count", str(path), "--exactly", "2", "--verify") == \
            (0, "N(|X| = 2) = 3\n"
             "verify inclusion-exclusion: skipped (h > 20: 2^21 subsets)\n", "")

    def test_verify_mismatch(self, capsys, demo_file, monkeypatch):
        monkeypatch.setattr(cli, "inclusion_exclusion_count", lambda hg, k: 65)
        assert run_cli(capsys, "count", demo_file, "--exactly", "4", "--verify") == \
            (3, "N(|X| = 4) = 66\n",
             "verification mismatch: inclusion-exclusion says 65, engine says 66\n")

    def test_json(self, capsys, demo_file):
        code, out, err = run_cli(capsys, "count", demo_file, "--exactly", "4",
                                 "--json")
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert list(payload) == ["exactly_k", "exactly_count", "elapsed"]
        assert (payload["exactly_k"], payload["exactly_count"]) == (4, 66)

    def test_json_verify_keeps_stdout_one_object(self, capsys, demo_file):
        code, out, err = run_cli(capsys, "count", demo_file, "--exactly", "4",
                                 "--json", "--verify")
        assert (code, json.loads(out)["exactly_count"]) == (0, 66)
        assert err == "verify inclusion-exclusion: 66 ok\n"


class TestWideCounting:
    """The one edge {1, 2} over w = 8000, where N(|X| = k) = C(w, k) -
    C(w - 2, k): answers of a few digits cost a few digits of arithmetic."""

    W = 8000

    @pytest.fixture(scope="class")
    def wide_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wide") / "wide.hg"
        path.write_text(f"{self.W} 1\n1 2\n")
        return str(path)

    @pytest.fixture(scope="class")
    def spectrum(self, wide_file):
        hg = load_hypergraph(wide_file)
        return Spectrum.of(final_parts(hg), hg.w)

    def test_exactly_two(self, capsys, wide_file):
        assert run_cli(capsys, "count", wide_file, "--exactly", "2") == \
            (0, f"N(|X| = 2) = {2 * self.W - 3}\n", "")

    def test_at_least_three_json(self, capsys, wide_file):
        code, out, err = run_cli(capsys, "count", wide_file, "--at-least", "3",
                                 "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["at_least_count"] == \
            3 * 2 ** 7998 - 15_999 == 3 * 2 ** (self.W - 2) - 2 * self.W + 1

    @pytest.mark.parametrize("k", [-1, 0, 1, 2, W, W + 1])
    def test_at_least_is_spectrum_tail(self, capsys, wide_file, spectrum, k):
        code, out, err = run_cli(capsys, "count", wide_file, "--at-least", str(k))
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"N(|X| >= {k}) = {sum(spectrum.counts[max(k, 0):])}"

    @pytest.mark.parametrize("k", [W + 1, 10**6])
    def test_at_least_past_w_counts_no_size(self, capsys, monkeypatch, wide_file, k):
        # no member is larger than w, so the answer is 0 without a digit
        def no_counts(*args):
            raise AssertionError("size_counts was called")

        monkeypatch.setattr(cli, "size_counts", no_counts)
        monkeypatch.setattr(analytics, "size_counts", no_counts)
        code, out, err = run_cli(capsys, "count", wide_file, "--at-least", str(k))
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"N(|X| >= {k}) = 0"
        assert analytics.count_at_least(run(load_hypergraph(wide_file)), k) == 0


class TestWideRows:
    """The one edge {1, 2} over w = 200 000: one final row, printed, cut
    and expanded through masks of 200 001 bits."""

    W = 200_000

    @pytest.fixture(scope="class")
    def wide_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wide") / "wide.hg"
        path.write_text(f"{self.W} 1\n1 2\n")
        return str(path)

    def test_rows(self, capsys, wide_file):
        assert run_cli(capsys, "rows", wide_file) == \
            (0, "e1 e1" + " 2" * (self.W - 2) + "\n", "")

    @pytest.mark.parametrize("k, limit, expected", [
        (2, 1, [f"1 {W}"]),
        (3, 3, [f"1 {W - 1} {W}", f"2 {W - 1} {W}", f"1 {W - 2} {W}"]),
    ], ids=["k2", "k3"])
    def test_enumerate_first_members(self, capsys, wide_file, k, limit, expected):
        # a free pick costs O(w) here, so the first members must come after
        # the few picks that make them
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", wide_file, "--k", str(k),
                                 "--limit", str(limit))
        elapsed = time.perf_counter() - start
        assert (code, out.splitlines(), err) == (0, expected, "")
        assert elapsed < 1

    def test_enumerate_labels_only_picked_positions(self, capsys, wide_file):
        # a free position is labelled when a pick takes it; labelling the
        # 199 998 free positions as the row is decoded took the traced peak
        # at k = 2 from 10.7 MB to 20.3 MB, and a memo of them all to
        # 37.8 MB.  At k = 1 = c_min no free position is picked, and the
        # free block is not decoded: 0.11 MB, where decoding it took 10.5 MB
        for argv, expected, bound in ((["--k", "2", "--limit", "1"], f"1 {self.W}\n", 15e6),
                                      (["--k", "1"], "1\n2\n", 1e6)):
            tracemalloc.start()
            try:
                got = run_cli(capsys, "enumerate", wide_file, *argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == (0, expected, "")
            assert peak < bound

    def test_query_require(self, capsys, wide_file):
        got = run_cli(capsys, "query", wide_file, "--require", "3")
        # N has 60 206 digits, past the default int <-> str limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            n = str(3 * 2 ** (self.W - 3))
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == (0, "e1 e1 1" + " 2" * (self.W - 3) + f"\nR = 1, N = {n}\n", "")


class TestFold:
    """Every subcommand reads the engine's stream once: count and spectrum
    fold it, rows prints it, enumerate expands it and query cuts it.  None
    stores a row or builds a family."""

    @pytest.mark.parametrize("argv", [
        ["count"], ["count", "--at-least", "5"], ["spectrum"], ["rows"],
        ["enumerate", "--k", "4"], ["query", "--require", "8,9", "--forbid", "7"]])
    def test_no_stored_family(self, capsys, demo_file, monkeypatch, argv):
        def no_family(*args, **kwargs):
            raise AssertionError("a RowFamily was built")

        calls = []

        def spy(real):
            def call(*args):
                calls.append(args)
                return real(*args)
            return call

        monkeypatch.setattr(engine, "RowFamily", no_family)
        monkeypatch.setattr(analytics, "RowFamily", no_family)
        monkeypatch.setattr(cli, "final_parts", spy(cli.final_parts))
        code, out, err = run_cli(capsys, argv[0], demo_file, *argv[1:])
        assert (code, err, len(calls)) == (0, "", 1)
        assert out.startswith({"count": "N = 8784, R = 7, ", "spectrum": "0 0\n",
                               "rows": "\n".join(DEMO_FINAL_ROWS) + "\n",
                               "enumerate": "4 8 10 12\n",
                               "query": GOLDEN_QUERY}[argv[0]])


    @pytest.mark.parametrize("argv", [
        ["count"], ["count", "--at-least", "5"], ["count", "--exactly", "5"],
        ["spectrum"], ["enumerate", "--k", "5"], ["rows"],
        ["query", "--require", "8,9", "--forbid", "7"]])
    def test_counting_builds_no_row_but_the_root(self, capsys, demo_file,
                                                 monkeypatch, argv):
        # count and spectrum fold the engine's parts, enumerate expands
        # them, rows renders them and query cuts and renders them, and the
        # engine starts from the all-free root's parts, so none builds a
        # Row; every listing goes through the one writer
        built, written = [], []
        validate, write = Row.__post_init__, cli._write

        def spy(row):
            built.append(row)
            validate(row)

        def writer(lines):
            written.append(argv[0])
            write(lines)

        monkeypatch.setattr(Row, "__post_init__", spy)
        monkeypatch.setattr(cli, "_write", writer)
        code, out, err = run_cli(capsys, argv[0], demo_file, *argv[1:])
        if argv[0] == "enumerate":
            out = hashlib.sha256(out.encode()).hexdigest()
        golden = {
            "count": GOLDEN_COUNT,
            "count --at-least 5": GOLDEN_COUNT + "N(|X| >= 5) = 8718\n",
            "count --exactly 5": "N(|X| = 5) = 419\n",
            "spectrum": GOLDEN_SPECTRUM,
            "enumerate --k 5": GOLDEN_ENUMERATE_SHA256,
            "rows": "".join(line + "\n" for line in DEMO_FINAL_ROWS),
            "query --require 8,9 --forbid 7": GOLDEN_QUERY}[" ".join(argv)]
        assert (code, out, err, built) == (0, golden, "", [])
        assert written == ([] if argv[0] == "count" else [argv[0]])


class TestSpectrum:
    def test_demo_lines(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "spectrum", demo_file)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 15
        assert "3 0" in lines
        assert "4 66" in lines
        assert sum(int(line.split()[1]) for line in lines) == 8784


class TestEnumerate:
    def test_minimum_size(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "enumerate", demo_file, "--k", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 66
        assert len(set(lines)) == 66

    def test_below_minimum(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "enumerate", demo_file, "--k", "3")
        assert code == 0
        assert out == ""

    def test_limit(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "enumerate", demo_file,
                               "--k", "4", "--limit", "5")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_limit_past_maxsize_prints_everything(self, capsys):
        # islice takes no stop past sys.maxsize; no output reaches one
        full = run_cli(capsys, "enumerate", SAMPLE, "--k", "4")
        assert run_cli(capsys, "enumerate", SAMPLE, "--k", "4",
                       "--limit", str(10**30)) == full
        assert (full[0], len(full[1].splitlines()), full[2]) == (0, 66, "")

    def test_negative_limit_rejected(self, capsys):
        assert run_cli(capsys, "enumerate", SAMPLE, "--k", "5",
                       "--limit", "-1") == (2, "", "error: --limit must be >= 0\n")

    @pytest.mark.parametrize("k", ["-1", "99"])
    def test_k_outside_ground_set_prints_nothing(self, capsys, k):
        assert run_cli(capsys, "enumerate", SAMPLE, "--k", k) == (0, "", "")

    def test_k_outside_ground_set_skips_engine(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "final_parts", lambda *a: calls.append(a))
        for k in ("-1", "15"):
            assert run_cli(capsys, "enumerate", SAMPLE, "--k", k) == (0, "", "")
        assert calls == []

    def test_runs_engine_in_size_window(self, capsys, monkeypatch):
        sizes = []
        real = cli.final_parts

        def spy(hg, k=None):
            sizes.append(k)
            return real(hg, k)

        monkeypatch.setattr(cli, "final_parts", spy)
        code, out, _ = run_cli(capsys, "enumerate", SAMPLE, "--k", "4")
        assert (code, len(out.splitlines())) == (0, 66)
        assert sizes == [4]

    def test_limit_takes_one_row(self, capsys, monkeypatch):
        # the run for k = 5 has 7 rows; the first member of the first row
        # is printed before the engine yields a second
        taken = []
        real = cli.final_parts

        def counting(*args):
            for parts in real(*args):
                taken.append(parts)
                yield parts

        monkeypatch.setattr(cli, "final_parts", counting)
        assert run_cli(capsys, "enumerate", SAMPLE, "--k", "5", "--limit", "1") == \
            (0, "4 8 9 10 12\n", "")
        assert len(taken) == 1


class TestRows:
    def test_demo_rows(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "rows", demo_file)
        assert code == 0
        assert out.splitlines() == DEMO_FINAL_ROWS

    def test_free_system(self, capsys, tmp_path):
        path = tmp_path / "free.hg"
        path.write_text("3 0\n")
        code, out, _ = run_cli(capsys, "rows", str(path))
        assert code == 0
        assert out.splitlines() == ["2 2 2"]

    def test_forced_system(self, capsys, tmp_path):
        path = tmp_path / "one.hg"
        path.write_text("1 1\n1\n")
        code, out, _ = run_cli(capsys, "rows", str(path))
        assert code == 0
        assert out.splitlines() == ["1"]


class TestQuery:
    def test_demo_query(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "query", demo_file,
                               "--require", "8,9", "--forbid", "7")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[-1] == "R = 4, N = 1344"

    def test_empty_conditions(self, capsys, demo_file):
        code, out, _ = run_cli(capsys, "query", demo_file,
                               "--require", "", "--forbid", "")
        assert code == 0
        lines = out.splitlines()
        assert lines[:-1] == DEMO_FINAL_ROWS
        assert lines[-1] == "R = 7, N = 8784"

    def test_overlap_is_usage_error(self, capsys, demo_file):
        code, _, err = run_cli(capsys, "query", demo_file,
                               "--require", "7", "--forbid", "7")
        assert code == 2
        assert "error" in err

    def test_vertex_outside_ground_set(self, capsys, tmp_path):
        path = tmp_path / "one.hg"
        path.write_text("3 1\n1\n")
        # forbidding 1 drops every row, so only an up-front check sees the 5
        assert run_cli(capsys, "query", str(path), "--forbid", "1,5") == \
            (2, "", "error: vertex 5 not in ground set 1..3\n")

    def test_overlap_reported_before_engine_run(self, capsys, demo_file,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "final_parts", lambda *a: calls.append(a))
        code, _, err = run_cli(capsys, "query", demo_file,
                               "--require", "8", "--forbid", "8")
        assert (code, err, calls) == (
            2, "error: require and forbid overlap on [8]\n", [])


class TestWrite:
    """The one writer of listings, on a stub stdout that keeps each write."""

    def writes(self, monkeypatch, lines):
        class Stub:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        stub = Stub()
        monkeypatch.setattr(sys, "stdout", stub)
        cli._write(lines)
        monkeypatch.undo()
        return stub.writes

    def test_short_lines_in_batches(self, monkeypatch):
        lines = [f"{i} \0{i}" for i in range(3000)]
        writes = self.writes(monkeypatch, iter(lines))
        assert "".join(writes) == "\n".join(lines).replace("\0", "") + "\n"
        assert [text.count("\n") for text in writes] == [1024, 1024, 952]

    def test_long_lines_one_per_write(self, monkeypatch):
        # 1 024 lines of 2 MiB in one batch would hold 2 GiB
        lines = [c * (2 << 20) for c in "abc"]
        assert self.writes(monkeypatch, lines) == [line + "\n" for line in lines]

    def test_no_lines_no_write(self, monkeypatch):
        assert self.writes(monkeypatch, []) == []


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--k", "5"], ["rows"],
        ["query", "--require", "8,9", "--forbid", "7"], ["spectrum"]],
        ids=["enumerate", "rows", "query", "spectrum"])
    def test_closed_stdout_in_process(self, capsys, demo_file, monkeypatch, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main([argv[0], demo_file, *argv[1:]])
        monkeypatch.undo()
        assert (code, capsys.readouterr().err) == (0, "")

    # far more output than a pipe buffer holds, so the command is still
    # writing when the reader goes away: C(18, 9) lines, and the 1 897
    # final rows (107 464 bytes) of the path 1-2, 2-3, ..., 27-28
    @pytest.mark.parametrize("text, argv, first", [
        ("18 0\n", ["enumerate", "--k", "9"], "1 2 3 4 5 6 7 8 9"),
        ("28 27\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 28)), ["rows"],
         " ".join("21" * 13) + " e1 e1"),
    ], ids=["enumerate", "rows"])
    def test_reader_closes_pipe_after_first_line(self, tmp_path, text, argv, first):
        path = tmp_path / "input.hg"
        path.write_text(text)
        proc = subprocess.Popen(
            [sys.executable, "-m", "transversals", argv[0], str(path), *argv[1:]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        got = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert (got, code, err) == (f"{first}\n".encode(), 0, b"")


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "count", "/nonexistent/x.hg")
        assert code == 2
        assert err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("not a hypergraph\n")
        code, _, err = run_cli(capsys, "count", str(path))
        assert code == 2
        assert "error" in err

    def test_vertex_out_of_range(self, capsys, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("4 1\n2 5\n")
        code, _, err = run_cli(capsys, "count", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("payload", [
        '{"w": 3, "edges": [[1.5, 2]]}',
        '{"w": 3, "edges": [["1", 2]]}',
        '{"w": true, "edges": [[1]]}',
        '{"w": 3, "edges": [[1], ' + "[" * 900 + "]" * 900 + ']}',
        '{"w": 3, "edges": [' + str(list(range(1, 100_001))) + ']}',
    ], ids=["float-vertex", "string-vertex", "bool-w", "nested-edge", "wide-edge"])
    def test_non_integer_json_input(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, out, err = run_cli(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_wide_text_edge_names_edge_by_index(self, capsys, tmp_path):
        path = tmp_path / "wide.hg"
        path.write_text("3 1\n" + " ".join(map(str, range(1, 100_001))) + "\n")
        code, out, err = run_cli(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err == "error: edge 1 has a vertex outside 1..3\n"

    @pytest.mark.parametrize("text", [
        "3 1\n" + "1 " * 50_000 + "x\n",
        "3 " + "1 " * 50_000 + "\n1 2\n",
        "x" * 100_000 + " 1\n1 2\n",
    ], ids=["bad-edge-line", "long-header", "non-integer-header"])
    def test_long_bad_text_line_is_not_quoted(self, capsys, tmp_path, text):
        path = tmp_path / "long.hg"
        path.write_text(text)
        code, out, err = run_cli(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("name, text", [
        ("huge-w.hg", "9" * 4299 + " 1\n1 2\n"),
        ("negative-w.hg", "-" + "9" * 4299 + " 0\n"),
        ("negative-h.hg", "3 -" + "9" * 4299 + "\n"),
        ("huge-h.hg", "3 " + "9" * 4299 + "\n1 2\n"),
        ("huge-w.json", '{"w": ' + "9" * 4299 + ', "edges": [[1]]}'),
    ], ids=["huge-w", "negative-w", "negative-h", "huge-h", "huge-json-w"])
    def test_huge_header_number_is_not_quoted(self, capsys, tmp_path, name, text):
        # 4 299 digits is just inside int()'s limit, so each number parses
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_w_above_bound_is_input_error(self, capsys, tmp_path):
        # rejected while parsing, before any row mask is allocated
        path = tmp_path / "wide.hg"
        path.write_text(f"{MAX_W + 1} 1\n1 2\n")
        assert run_cli(capsys, "count", str(path)) == (
            2, "", f"error: vertex count must be an integer in 1..{MAX_W}\n")

    def test_empty_json_edge_names_edge_by_index(self, capsys, tmp_path):
        path = tmp_path / "empty-edge.json"
        path.write_text('{"w": 3, "edges": [[1,2],[]]}')
        code, out, err = run_cli(capsys, "count", str(path))
        assert (code, out, err) == (2, "", "error: edge 2 is empty\n")

    @pytest.mark.parametrize("command, options", [
        ("count", ["--exactly"]),
        ("count", ["--at-least"]),
        ("enumerate", ["--k"]),
        ("enumerate", ["--k", "4", "--limit"]),
    ], ids=["exactly", "at-least", "k", "limit"])
    def test_oversized_int_option_is_not_quoted(self, capsys, demo_file,
                                                command, options):
        # 5 000 digits is past int()'s digit limit; argparse's own message
        # for type=int would quote all of them
        with pytest.raises(SystemExit) as exc:
            main([command, demo_file, *options, "9" * 5000])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        error = err.splitlines()[-1]
        assert "error: argument " in error
        assert len(error.encode()) < 200

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text('{"w": 3, "edges": [' + "[" * depth + "]" * depth + "]}")
        code, out, err = run_cli(capsys, "count", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON in ") and err.count("\n") == 1

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch, demo_file):
        def no_memory(hg, k):
            raise MemoryError

        monkeypatch.setattr(cli, "count_exactly", no_memory)
        code, out, err = run_cli(capsys, "count", demo_file, "--exactly", "4")
        assert (code, out, err) == (2, "", "error: count ran out of memory\n")


def test_byte_for_byte_determinism(capsys, demo_file):
    first = run_cli(capsys, "rows", demo_file)
    second = run_cli(capsys, "rows", demo_file)
    assert first == second
    first = run_cli(capsys, "count", demo_file, "--at-least", "7")
    second = run_cli(capsys, "count", demo_file, "--at-least", "7")
    assert first == second


def test_module_invocation(demo_file):
    proc = subprocess.run(
        [sys.executable, "-m", "transversals", "count", demo_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == \
        "N = 8784, R = 7, k_min = 4, tau_min = 66"


# ----- golden output on data/sample14.hg --------------------------------------
# Exact stdout and exit code per subcommand: the CLI output is byte-for-byte
# deterministic apart from the ``elapsed`` field of ``count --json``.

SAMPLE = str(pathlib.Path(__file__).resolve().parent.parent / "data" / "sample14.hg")

GOLDEN_COUNT = "N = 8784, R = 7, k_min = 4, tau_min = 66\n"

# enumerate --k 5: all 419 lines
GOLDEN_ENUMERATE_SHA256 = "b62c174cb0684467d34303a2448f6da54d54bae606391119c2226be60e3c6dbf"

GOLDEN_SPECTRUM = """\
0 0
1 0
2 0
3 0
4 66
5 419
6 1171
7 1945
8 2152
9 1664
10 912
11 350
12 90
13 14
14 1
"""

GOLDEN_ROWS_SIZE_ASC = """\
2 2 e1 e1 1 e2 e2 e3 e1 2 e2 e2 e3 e3
2 2 e1 e1 0 e2 e2 e3 2 1 e2 e2 e3 e3
2 2 0 0 0 e1 e1 1 1 1 e1 e1 2 2
2 2 0 0 0 e1 e1 0 1 1 2 2 1 2
e1 e1 0 0 0 0 0 0 1 1 e2 e2 1 2
e1 e1 0 0 0 e1 e1 0 1 1 2 1 0 1
"""

GOLDEN_QUERY = """\
2 2 e1 e1 e2 e3 0 1 1 e2 e3 e3 2 2
2 2 0 0 1 e1 0 1 1 2 e1 e1 2 2
2 2 0 0 0 1 0 1 1 1 2 2 2 2
2 2 0 0 0 0 0 1 1 1 e1 e1 2 2
R = 4, N = 1344
"""


@pytest.mark.parametrize("argv, expected", [
    (["count", SAMPLE, "--at-least", "5", "--verify"],
     "N = 8784, R = 7, k_min = 4, tau_min = 66\n"
     "N(|X| >= 5) = 8718\n"
     "verify brute force: 8784 ok\n"
     "verify inclusion-exclusion: 8784 ok\n"),
    (["count", SAMPLE, "--exactly", "4"], "N(|X| = 4) = 66\n"),
    (["spectrum", SAMPLE], GOLDEN_SPECTRUM),
    (["rows", SAMPLE], "".join(line + "\n" for line in DEMO_FINAL_ROWS)),
    (["rows", SAMPLE, "--order", "size-asc"], GOLDEN_ROWS_SIZE_ASC),
    (["query", SAMPLE, "--require", "8,9", "--forbid", "7"], GOLDEN_QUERY),
], ids=["count-verify", "count-exactly", "spectrum", "rows-input",
        "rows-size-asc", "query"])
def test_golden_stdout(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_golden_count_json(capsys):
    code, out, err = run_cli(capsys, "count", SAMPLE, "--json")
    assert json.loads(out)["elapsed"] >= 0
    masked = re.sub(r'"elapsed": [^,}]+', '"elapsed": ELAPSED', out)
    assert (code, masked, err) == (
        0,
        '{"n_total": 8784, "r_final": 7, "k_min": 4, "tau_min": 66, '
        '"impositions": 10, "s_max_observed": 5, "elapsed": ELAPSED}\n',
        "")


def test_golden_enumerate_full_order(capsys):
    code, out, err = run_cli(capsys, "enumerate", SAMPLE, "--k", "5")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 419
    assert lines[:3] == ["4 8 9 10 12", "4 9 10 12 13", "4 9 10 12 14"]
    assert lines[-3:] == ["2 9 10 12 13", "1 9 10 11 13", "2 9 10 11 13"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ENUMERATE_SHA256


def test_golden_overlap_error(capsys):
    assert run_cli(capsys, "query", SAMPLE, "--require", "8", "--forbid", "8") == \
        (2, "", "error: require and forbid overlap on [8]\n")


def test_golden_count_at_least_json(capsys):
    code, out, err = run_cli(capsys, "count", SAMPLE, "--at-least", "5", "--json")
    masked = re.sub(r'"elapsed": [^,}]+', '"elapsed": E', out)
    assert (code, masked, err) == (
        0,
        '{"n_total": 8784, "r_final": 7, "k_min": 4, "tau_min": 66, '
        '"impositions": 10, "s_max_observed": 5, "elapsed": E, '
        '"at_least_k": 5, "at_least_count": 8718}\n',
        "")


def test_golden_bad_vertex_list(capsys):
    assert run_cli(capsys, "query", SAMPLE, "--require", "x") == \
        (2, "", "error: bad vertex list 'x'\n")


@pytest.mark.parametrize("argv", [
    ["--require", "9" * 20_000],
    ["--forbid", "x" * 100_000],
    ["--require", ",".join(map(str, range(1, 10_001))),
     "--forbid", ",".join(map(str, range(1, 10_001)))],
], ids=["huge-vertex", "long-non-integer-list", "long-overlap"])
def test_long_condition_gives_short_error(capsys, argv):
    # the lists are parsed under the int/str digit limit, and no message
    # quotes a long list, a huge vertex or every shared vertex
    code, out, err = run_cli(capsys, "query", SAMPLE, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_verify_brute_force_counts_in_constant_memory(capsys, tmp_path):
    # 2^16 - 1 transversals; a list of their tuples peaks at several MB
    path = tmp_path / "one-edge.hg"
    path.write_text("16 1\n" + " ".join(map(str, range(1, 17))) + "\n")
    tracemalloc.start()
    try:
        code = main(["count", str(path), "--verify"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out.splitlines()[1]) == \
        (0, "verify brute force: 65535 ok")
    assert peak < 2 << 20


# ----- one parser per process -------------------------------------------------

class TestParser:
    """The argparse parser is built once per process and reused, so every
    call must leave it as a fresh one would be."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_usage_error_leaves_the_parser_as_new(self, capsys):
        argv = ["count", SAMPLE, "--at-least", "5"]
        cli._build_parser.cache_clear()
        fresh = run_cli(capsys, *argv)
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["count"])
            errors.append((info.value.code, *capsys.readouterr()))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (2, "")
        assert errors[0][2].endswith("the following arguments are required: file\n")
        assert run_cli(capsys, *argv) == fresh == \
            (0, "N = 8784, R = 7, k_min = 4, tau_min = 66\nN(|X| >= 5) = 8718\n", "")

    def test_commands_in_one_process(self, capsys):
        assert run_cli(capsys, "count", SAMPLE) == \
            (0, "N = 8784, R = 7, k_min = 4, tau_min = 66\n", "")
        code, out, err = run_cli(capsys, "enumerate", SAMPLE, "--k", "5")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ENUMERATE_SHA256
        assert run_cli(capsys, "spectrum", SAMPLE) == (0, GOLDEN_SPECTRUM, "")
