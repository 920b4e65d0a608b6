import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_tool("bench_pairs")
SPECS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
LATENCY = next(spec for spec in SPECS if spec["name"] == "latency_vs_ref.p50")  # bound 0.25
PARENT = [0.76, 0.77, 0.78, 0.75, 0.77, 0.76, 0.78, 0.77, 0.76, 0.77]  # q3 - q1 = 0.01


class TestBenchPairVerdicts:
    def test_claim_met_by_a_wide_win_in_every_pair(self):
        out = bench_pairs.summarise(PARENT, [r - 0.08 for r in PARENT], LATENCY)
        assert out["change_wins"] == 10 and out["pairs"] == 10
        assert out["claim_met"] and out["within_bound"]

    def test_claim_not_met_with_eight_wins(self):
        change = [r - 0.08 for r in PARENT[:8]] + [r + 0.01 for r in PARENT[8:]]
        out = bench_pairs.summarise(PARENT, change, LATENCY)
        assert out["change_wins"] == 8
        assert not out["claim_met"] and out["within_bound"]

    def test_claim_not_met_by_a_gap_inside_the_parent_spread(self):
        out = bench_pairs.summarise(PARENT, [r - 0.005 for r in PARENT], LATENCY)
        assert out["change_wins"] == 10
        assert not out["claim_met"] and out["within_bound"]

    # 0.77 is the parent's median; the bound lets the change reach 0.9625.
    @pytest.mark.parametrize("worse, within", [(0.15, True), (0.25, False)])
    def test_within_bound_is_the_bound_on_the_median(self, worse, within):
        out = bench_pairs.summarise(PARENT, [r + worse for r in PARENT], LATENCY)
        assert out["change_wins"] == 0
        assert not out["claim_met"] and out["within_bound"] is within

    def test_higher_is_better_counts_the_other_way(self):
        rate = dict(LATENCY, better="higher")
        out = bench_pairs.summarise(PARENT, [r + 0.08 for r in PARENT], rate)
        assert out["change_wins"] == 10 and out["claim_met"] and out["within_bound"]
        out = bench_pairs.summarise(PARENT, [r - 0.25 for r in PARENT], rate)
        assert out["change_wins"] == 0 and not out["within_bound"]

    def test_no_spec_gives_no_verdict(self):
        out = bench_pairs.summarise(PARENT, PARENT)
        assert out["change_wins"] == 0 and "claim_met" not in out


SELECT = "backend.sq_distance_order_stats.self_ms"


def trace_records(values):
    """Trace records, one per value, with ``SELECT`` at that value and every other layer at 0."""
    return [{k: v if k == SELECT else 0.0 for k in bench_pairs.LAYERS} for v in values]


class TestLayerDifferences:
    def test_pairs_moved_down_with_overlapping_medians(self):
        # Per-tree medians 45.0 and 44.0 sit inside each other's spread, but
        # every pair fell by 0.5 to 1.5 ms.
        out = bench_pairs.layer_differences(trace_records([45.0, 48.0, 41.0]),
                                            trace_records([44.0, 46.5, 40.5]))[SELECT]
        assert out["per_seed"] == [-1.0, -1.5, -0.5]
        assert out["median"] == -1.0 and out["down"] == 3 and out["pairs"] == 3

    def test_ties_and_rises_are_not_counted_down(self):
        out = bench_pairs.layer_differences(trace_records([10.0] * 4),
                                            trace_records([10.0, 12.0, 9.0, 11.0]))
        assert out[SELECT]["down"] == 1 and out[SELECT]["median"] == 0.5
        assert set(out) == set(bench_pairs.LAYERS)
        assert out["trace.traced_ms_per_op"] == {"median": 0.0, "down": 0, "pairs": 4,
                                                 "per_seed": [0.0] * 4}
