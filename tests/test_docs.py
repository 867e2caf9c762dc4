"""The READMEs cite tests that exist.

Every ``tests/<module>.py`` path, with its ``::`` parts, and every bare
``test_*`` or ``Test*`` name in README.md and perfbench/README.md must name
a module, class or function under tests/.  The test files are read with
``ast``, not imported.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = re.compile(r"tests/(\w+)\.py((?:::\w+)*)")
NAME = re.compile(r"\b(?:test_|Test)\w+")


def _defined(node):
    """The classes and functions defined directly in ``node``, each mapped
    to its own."""
    return {child.name: _defined(child) for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))}


def _names(tree):
    return set(tree).union(*(_names(sub) for sub in tree.values()))


MODULES = {path.stem: _defined(ast.parse(path.read_text()))
           for path in (ROOT / "tests").glob("*.py")}
KNOWN = set(MODULES).union(*(_names(tree) for tree in MODULES.values()))


def dead_citations(text):
    """The citations in ``text`` that name nothing under tests/, in order:
    the paths first, then the bare names outside them."""
    dead = []
    for match in PATH.finditer(text):
        node = MODULES.get(match[1])
        for part in match[2].split("::")[1:]:
            node = None if node is None else node.get(part)
        if node is None:
            dead.append(match[0])
    return dead + [name for name in NAME.findall(PATH.sub("", text)) if name not in KNOWN]


@pytest.mark.parametrize("doc", ["README.md", "perfbench/README.md"])
def test_every_cited_test_exists(doc):
    assert dead_citations((ROOT / doc).read_text()) == []


def test_dead_citations_are_found():
    # the README cited the first after its test was folded into the second
    text = ("(`test_mirror_symmetry_exact`) "
            "`tests/test_line.py::TestEngineProperties::test_swapping_the_ends_swaps_the_series` "
            "`tests/test_line.py::TestEngineProperties::test_gone` `tests/test_gone.py` "
            "`tests/test_line.py::test_swapping_the_ends_swaps_the_series` `TestGone`")
    assert dead_citations(text) == [
        "tests/test_line.py::TestEngineProperties::test_gone", "tests/test_gone.py",
        "tests/test_line.py::test_swapping_the_ends_swaps_the_series",
        "test_mirror_symmetry_exact", "TestGone",
    ]
