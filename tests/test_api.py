"""The package's public surface: ``reldep.__all__`` and what callers import."""

import ast
import re
import types
from pathlib import Path

import pytest

import reldep

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("perfbench/workloads.py", "perfbench/selftest.py", "perfbench/stamp.py")


def _names_used(path):
    """Names a script takes from ``reldep``: from-imports and attribute reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "reldep":
            names.update(a.name for a in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "reldep"
        ):
            names.add(node.attr)
    return names


def _readme_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set()
    for line in re.findall(r"^from reldep import (.+)$", text, flags=re.M):
        names.update(n.strip() for n in line.split(","))
    names.update(re.findall(r"\breldep\.(\w+)\(", text))
    return names


def test_every_exported_name_resolves():
    assert len(set(reldep.__all__)) == len(reldep.__all__)
    for name in reldep.__all__:
        assert getattr(reldep, name, None) is not None, name


@pytest.mark.parametrize("caller", CALLERS + ("README.md",))
def test_callers_find_their_names(caller):
    names = _readme_names() if caller == "README.md" else _names_used(ROOT / caller)
    assert names, f"no reldep names found in {caller}"
    for name in sorted(names):
        value = getattr(reldep, name, None)
        if isinstance(value, types.ModuleType):
            continue  # submodules are reached through the package
        assert name in reldep.__all__, f"{caller} uses reldep.{name}"
