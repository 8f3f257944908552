"""The demo walkthrough script: its query output, and its input errors as one
``error:`` line on stderr with exit status 2, as in the CLI; the
cross-check script stopping quietly when its reader leaves; and the mutant
sweep's targets."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
DEMO_SCRIPT = SCRIPTS / "demo_walkthrough.py"


def walkthrough(*args):
    proc = subprocess.run([sys.executable, str(DEMO_SCRIPT), *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_query_on_default_file():
    code, out, err = walkthrough("--require", "8,9", "--forbid", "7")
    assert (code, err) == (0, "")
    assert "transversal number: k_min=4, tau_min=66\n" in out
    assert "query require=[8, 9] forbid=[7] (4 rows, 1344 members):\n" in out


@pytest.mark.parametrize("args, message", [
    (["--require", "99"], "error: vertex 99 not in ground set 1..14\n"),
    (["--require", "3", "--forbid", "3"], "error: require and forbid overlap on [3]\n"),
    (["--require", "x"], "error: bad vertex list 'x'\n"),
    (["--require", "8,,9"], "error: bad vertex list '8,,9'\n"),
], ids=["outside-ground-set", "overlap", "not-an-integer", "empty-token"])
def test_bad_condition(args, message):
    assert walkthrough(*args) == (2, "", message)


def test_missing_file(tmp_path):
    code, out, err = walkthrough(str(tmp_path / "missing.hg"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_blank_condition_is_empty():
    # as in the CLI, a blank list names no vertex, so no query is run
    code, out, err = walkthrough("--require", " ")
    assert (code, err) == (0, "")
    assert "\nquery " not in out


def test_cross_check_reader_closes_pipe():
    # the reader is gone before the first line, as with `| head -0`: the
    # script ends with exit status 0 and no traceback, as the CLI does
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "cross_check.py"), "--instances", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert (code, err) == (0, b"")


def test_every_mutant_targets_one_place():
    # the sweep itself runs the suite once per mutant; this only checks that
    # each old text still occurs exactly once, so no mutant tests nothing
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    listed = mutants.MUTANTS + [mutant[:4] for mutant in mutants.EQUIVALENT]
    names = [name for name, _, _, _ in listed]
    assert len(names) == len(set(names))
    for name, file, old, new in listed:
        text = (SCRIPTS.parent / file).read_text()
        assert mutants.mutate(text, old, new) != text, name
