"""Every name a ddsi module or a test module imports is used in that module.

A stand-in for a linter's unused-import rule (F401): it walks each
module's syntax tree and fails on an imported name that no expression of
the module reads. A name is used when it is read anywhere in the module
or listed in its `__all__`. An import line of a test module that carries
`# noqa: F401` is exempt. On such a line of a ddsi module, a name is
exempt only if the benchmark wraps it on that module
(`rec.wrap(<module>, "<name>", ...)` in perfbench/layers.py), so an import
kept for a wrapper the benchmark drops is reported.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ddsi"
LAYERS = TESTS.parent / "perfbench" / "layers.py"


def benchmark_wrapped() -> dict[str, set[str]]:
    """Module name -> the names perfbench/layers.py wraps on that module by a literal name."""
    wrapped = defaultdict(set)
    for module, name in re.findall(r'rec\.wrap\((\w+), "(\w+)"', LAYERS.read_text()):
        wrapped[module].add(name)
    return wrapped


def unused_imports(source: str, wrapped: set[str] | None = None) -> list[str]:
    """Report imported names never read; with `wrapped` given, `# noqa: F401` exempts only those names."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number of its import
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not (noqa and (wrapped is None or name in wrapped)):
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {lineno}: {name}" for name, lineno in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text(), benchmark_wrapped()[module.removesuffix(".py")]) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_uses_every_name_it_imports(module):
    assert unused_imports((TESTS / module).read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["line 1: os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import (\n    b,\n    c,\n)\nc()\n", ["line 1: b"]),
    ("from a import b as c\nb\n", ["line 1: c"]),
    ("from a import b  # noqa: F401\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
])
def test_unused_imports_finds_names_never_read(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("source, wrapped, unused", [
    ("from a import b  # noqa: F401\n", {"b"}, []),
    ("from a import b  # noqa: F401\n", {"c"}, ["line 1: b"]),
    ("from a import b\n", {"b"}, ["line 1: b"]),
])
def test_noqa_exempts_only_names_the_benchmark_wraps(source, wrapped, unused):
    assert unused_imports(source, wrapped) == unused
