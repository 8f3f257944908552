"""The package's public surface: every exported name resolves."""

import pathlib
import re

import transversals


def test_all_names_resolve():
    assert len(set(transversals.__all__)) == len(transversals.__all__)
    missing = [name for name in transversals.__all__
               if not hasattr(transversals, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from transversals import *", namespace)
    assert set(transversals.__all__) <= namespace.keys()


def test_readme_python_examples_run(monkeypatch):
    # every python block of README.md, in order, in one namespace, from the
    # repository root: a deleted or renamed API name in them fails here
    root = pathlib.Path(__file__).resolve().parent.parent
    blocks = re.findall(r"^```python\n(.*?)^```$", (root / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    monkeypatch.chdir(root)
    namespace = {}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
