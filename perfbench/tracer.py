"""Outside-in tracer: wraps named reldep entry points from the benchmark.

``install`` looks up each target once, then replaces every reference to that
exact object (by identity) in every loaded ``reldep.*`` namespace, so call
sites that did ``from reldep.x import f`` are covered too.  ``uninstall``
puts the original objects back.  A target that no longer exists is recorded
in ``absent`` and skipped; the run goes on.

Spans are kept in memory as ``[name, start, end, parent_index, op_id, tag]``
and written out with ``dump``.  A span's self time is its duration minus the
durations of its direct children.
"""

import functools
import importlib
import json
import sys
import time


def _rows(args):
    """m of the first argument (an m x m matrix or an (m, d) array)."""
    return args[0].shape[0] if args and hasattr(args[0], "shape") else 0


def _variable(args):
    """Content key of the sample a Gram matrix is built for."""
    data = getattr(args[0], "data", None) if args else None
    return hash((data.shape, data.tobytes())) if data is not None else None


# (metric prefix, module, function, tag function)
TARGETS = (
    ("backend.pairwise_sq_dists", "reldep._backend", "pairwise_sq_dists", _rows),
    ("backend.sq_distance_order_stats", "reldep._backend", "sq_distance_order_stats", _rows),
    ("backend.hsic_h_reductions", "reldep._backend", "hsic_h_reductions", _rows),
    ("kernels.build_zero_diag_gram", "reldep.kernels", "build_zero_diag_gram", _variable),
    ("hsic.hsic_estimate", "reldep.hsic", "hsic_estimate", None),
    ("hsic.covariance_summary", "reldep.hsic", "covariance_summary", None),
    ("reltest.dependent_test", "reldep.reltest", "dependent_test", None),
    ("reltest.independent_test", "reldep.reltest", "independent_test", None),
    ("reltest.joint_summary", "reldep.reltest", "joint_summary", None),
    ("reltest.generalized_test", "reldep.reltest", "generalized_test", None),
    ("dataset.split_half", "reldep.dataset", "split_half", None),
    ("synthbench.sample_synthetic", "reldep.synthbench", "sample_synthetic", None),
    ("synthbench.power_curve", "reldep.synthbench", "power_curve", None),
)
NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.op = None
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, tag_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_fn(args) if tag_fn else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op, tag])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self):
        """Wrap every target in every loaded reldep namespace."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        self.absent = []
        for name, module, attr, tag_fn in self.targets:
            try:
                fn = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, fn, tag_fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "reldep" or modname.startswith("reldep.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self):
        """Restore every original object that ``install`` replaced."""
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def summary(self, op_ms):
        """Per-operation counts and times over traced operations.

        ``op_ms`` maps each traced op id to its wall time in ms, measured by
        the caller around the operation.
        """
        n = len(op_ms)
        calls = dict.fromkeys(NAMES, 0)
        self_s = dict.fromkeys(NAMES, 0.0)
        m2 = dict.fromkeys(NAMES, 0)  # sum of m^2 over calls, for traffic
        root_s = 0.0
        variables = set()
        for name, start, end, parent, op, tag in self.spans:
            dur = end - start
            calls[name] += 1
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                root_s += dur
            if name.startswith("backend."):
                m2[name] += tag * tag
            elif name == "kernels.build_zero_diag_gram":
                variables.add((op, tag))
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = calls[name] / n
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / n
        for name, bytes_per_m2 in (
            ("backend.pairwise_sq_dists", 8),
            ("backend.sq_distance_order_stats", 8),
            ("backend.hsic_h_reductions", 16),
        ):
            sec = self_s[name]
            out[f"{name}.gbps_computed"] = bytes_per_m2 * m2[name] / sec / 1e9 if sec else 0.0
        grams = calls["kernels.build_zero_diag_gram"]
        out["kernels.gram_builds_per_variable"] = grams / len(variables) if variables else 0.0
        out["kernels.dists_per_gram"] = calls["backend.pairwise_sq_dists"] / grams if grams else 0.0
        total_ms = sum(op_ms.values())
        out["trace.traced_ms_per_op"] = total_ms / n
        out["trace.untraced_ms_per_op"] = (total_ms - 1e3 * root_s) / n
        return out

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
