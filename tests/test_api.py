"""The package's public surface: ``reldep.__all__`` and what callers import."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
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


def test_tracer_targets_resolve():
    # The tracer marks a missing target absent and carries on, so a kernel
    # that moves would silently zero its layer metrics.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_benchmark_selftest_passes():
    # The benchmark's own checks: its reference against brute force, its
    # checker against the library, and the tracer against the targets it
    # names, so a change that drops a traced name fails here too.
    run = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert "benchmark self-tests passed" in run.stdout


def test_array_holding_types_compare_by_identity():
    # A generated __eq__ would compare their ndarray fields and raise
    # "truth value of an array ... is ambiguous".
    from reldep.reltest import rotation_matrix

    rng = np.random.default_rng(3)
    x, y, z = (reldep.Sample(rng.standard_normal((20, 2))) for _ in range(3))
    j = reldep.align(x, y, z)
    pairs = [(0, 1), (0, 2)]
    twins = [
        (x, reldep.Sample(x.data)),
        (reldep.hsic_estimate(x, y), reldep.hsic_estimate(x, y)),
        (reldep.joint_summary(j, pairs), reldep.joint_summary(j, pairs)),
        (rotation_matrix([1.0, -1.0]), rotation_matrix([1.0, -1.0])),
    ]
    for one, other in twins:
        assert one == one and one != other
        assert len({one, other}) == 2
    assert j == reldep.align(x, y, z)  # the same samples, so equal
    assert reldep.dependent_test(j) == reldep.dependent_test(j)  # results compare by value
