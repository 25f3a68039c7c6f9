"""Stats-tree diffing: flatten, classification, regression flags, CLI."""

import json

import pytest

from repro.cli import main
from repro.obs.diff import (
    DiffEntry,
    classify,
    diff_stats,
    flatten_tree,
    render_diff,
)


def _tree(wall=10.0, hits=90, misses=10, occupancy=0.8, coverage=0.95,
          lag_mean=120.0):
    return {
        "pipeline": {
            "timing": {"wall_time_ms": wall},
            "trace": {"wall_time_ms": wall / 2},
        },
        "main": {"caches": {"l1d": {"hits": hits, "misses": misses}}},
        "checkers": {"c0": {"occupancy": occupancy},
                     "pool_occupancy": occupancy},
        "schedule": {"coverage": coverage,
                     "checker_lag_ns": {"count": 10, "sum": lag_mean * 10,
                                        "mean": lag_mean, "min": 1.0,
                                        "max": 500.0,
                                        "buckets": {">=0": 10}}},
        "result": {"slowdown": 1.05},
    }


def test_flatten_tree_histograms_and_leaves():
    flat = flatten_tree(_tree())
    assert flat["pipeline.timing.wall_time_ms"] == 10.0
    assert flat["main.caches.l1d.hits"] == 90.0
    assert flat["schedule.checker_lag_ns.mean"] == 120.0
    assert "schedule.checker_lag_ns.buckets.>=0" not in flat


def test_classification():
    assert classify("pipeline.timing.wall_time_ms") == 1
    assert classify("schedule.stall_ns") == 1
    assert classify("result.slowdown") == 1
    assert classify("checkers.c0.occupancy") == -1
    assert classify("schedule.coverage") == -1
    assert classify("main.caches.l1d.hit_rate") == -1
    assert classify("main.caches.l1d.hits") == 0


def test_identical_trees_have_no_regressions():
    entries = diff_stats(_tree(), _tree())
    assert not any(entry.regression for entry in entries)


def test_wall_time_regression_flagged():
    entries = diff_stats(_tree(wall=10.0), _tree(wall=12.0),
                         threshold=0.10)
    flagged = {e.key for e in entries if e.regression}
    assert "pipeline.timing.wall_time_ms" in flagged
    # Within-threshold growth is not a regression.
    entries = diff_stats(_tree(wall=10.0), _tree(wall=10.5),
                         threshold=0.10)
    assert not any(e.regression for e in entries)


def test_hit_rate_regression_derived_from_counters():
    # 90% -> 70% hit rate: a >10% relative drop.
    entries = diff_stats(_tree(hits=90, misses=10),
                         _tree(hits=70, misses=30), threshold=0.10)
    flagged = {e.key for e in entries if e.regression}
    assert "main.caches.l1d.hit_rate" in flagged


def test_occupancy_and_coverage_regressions():
    entries = diff_stats(_tree(occupancy=0.8, coverage=0.95),
                         _tree(occupancy=0.5, coverage=0.6),
                         threshold=0.10)
    flagged = {e.key for e in entries if e.regression}
    assert "checkers.c0.occupancy" in flagged
    assert "checkers.pool_occupancy" in flagged
    assert "schedule.coverage" in flagged


def test_improvements_are_not_regressions():
    entries = diff_stats(_tree(wall=10.0, occupancy=0.5),
                         _tree(wall=5.0, occupancy=0.9))
    assert not any(e.regression for e in entries)


def test_rel_change_handles_zero_baseline():
    entry = DiffEntry(key="x.wall_time_ms", a=0.0, b=1.0, direction=1,
                      regression=True)
    assert entry.rel_change == float("inf")


def test_render_marks_regressions():
    entries = diff_stats(_tree(wall=10.0), _tree(wall=20.0))
    text = render_diff(entries)
    assert "REGRESSION" in text
    assert "regression(s)" in text


class TestCli:
    @pytest.fixture()
    def dumps(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(_tree()))
        return a, b

    def test_exit_zero_when_clean(self, dumps, capsys):
        a, b = dumps
        b.write_text(json.dumps(_tree()))
        assert main(["stats-diff", str(a), str(b)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, dumps, capsys):
        a, b = dumps
        b.write_text(json.dumps(_tree(wall=30.0)))
        assert main(["stats-diff", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_is_configurable(self, dumps, capsys):
        """--threshold only labels a change; any change still fails."""
        a, b = dumps
        b.write_text(json.dumps(_tree(wall=12.0)))
        assert main(["stats-diff", str(a), str(b),
                     "--threshold", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" not in out and "higher-worse" in out
        assert "0 regression(s)" in out
        assert main(["stats-diff", str(a), str(b),
                     "--threshold", "0.05"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("mutate,marker", [
        (lambda tree: tree["faults"].update(injected=11), "+10.0%"),
        (lambda tree: tree["faults"].update(extra=1), "added"),
        (lambda tree: tree["faults"].pop("detected"), "removed"),
    ], ids=["changed", "added", "removed"])
    def test_any_leaf_mismatch_fails(self, tmp_path, capsys, mutate,
                                     marker):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        golden = {"faults": {"injected": 10, "detected": 7}}
        a.write_text(json.dumps(golden))
        candidate = json.loads(json.dumps(golden))
        mutate(candidate)
        b.write_text(json.dumps(candidate))
        assert main(["stats-diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert marker in out
        assert "1 changed, added or removed" in out
        # Masking the leaf's group restores a clean gate.
        assert main(["stats-diff", str(a), str(b),
                     "--ignore", "faults.*"]) == 0

    def test_real_stats_dump_diffs_cleanly(self, tmp_path, capsys):
        a = tmp_path / "runA.json"
        b = tmp_path / "runB.json"
        for path in (a, b):
            code = main(["run", "-w", "exchange2", "-c", "1xA510@2.0",
                         "-n", "6000", "--stats-json", str(path)])
            assert code == 0
        capsys.readouterr()
        # Simulated outcomes are bit-identical; only the pipeline.*
        # wall-clock gauges move.  With those masked, every other leaf
        # of two real dumps must compare exactly.
        code = main(["stats-diff", str(a), str(b), "--ignore", "pipeline.*"])
        assert code == 0


class TestRouterClassification:
    """Shard-router leaves carry regression directions."""

    def test_router_failure_counters_are_higher_worse(self):
        assert classify("router.re_dispatches") == 1
        assert classify("router.mark_downs") == 1
        assert classify("router.unroutable") == 1
        assert classify("router.shards.shard0.re_dispatched_away") == 1

    def test_locality_ratio_is_lower_worse(self):
        assert classify("router.locality.primary_ratio") == -1

    def test_neutral_router_counters_stay_informational(self):
        assert classify("router.requests_total") == 0
        assert classify("router.locality.primary") == 0
        assert classify("router.campaign.trials_forwarded") == 0

    def _router_tree(self, re_dispatches=0, primary_ratio=1.0):
        return {"router": {
            "re_dispatches": re_dispatches,
            "mark_downs": 0,
            "locality": {"primary_ratio": primary_ratio},
        }}

    def test_re_dispatch_growth_flags_a_regression(self):
        entries = diff_stats(self._router_tree(re_dispatches=0),
                             self._router_tree(re_dispatches=5))
        flagged = {e.key for e in entries if e.regression}
        assert "router.re_dispatches" in flagged

    def test_lost_locality_flags_a_regression(self):
        entries = diff_stats(self._router_tree(primary_ratio=1.0),
                             self._router_tree(primary_ratio=0.6))
        flagged = {e.key for e in entries if e.regression}
        assert "router.locality.primary_ratio" in flagged

    def test_identical_router_trees_are_clean(self):
        entries = diff_stats(self._router_tree(), self._router_tree())
        assert not any(e.regression for e in entries)


class TestControlClassification:
    """Control-plane and power leaves carry regression directions."""

    def test_thrash_and_energy_leaves_are_higher_worse(self):
        assert classify("control.cell.switch_rate") == 1
        assert classify("power.cell.budget_overshoot") == 1
        assert classify("power.cell.energy_overhead") == 1
        assert classify("power.cell.ed2p_j_ms2") == 1
        assert classify("control.cell.residency.disabled_frac") == 1

    def test_full_residency_is_lower_worse(self):
        assert classify("control.cell.residency.full_frac") == -1

    def test_neutral_control_counters_stay_informational(self):
        assert classify("control.cell.epochs") == 0
        assert classify("control.cell.switches") == 0
        assert classify("power.cell.main_j") == 0

    def _control_tree(self, switch_rate=0.1, full_frac=0.8,
                      overhead=0.3):
        return {
            "control": {"cell": {
                "switch_rate": switch_rate,
                "residency": {"full_frac": full_frac,
                              "disabled_frac": 0.0},
            }},
            "power": {"cell": {"energy_overhead": overhead,
                               "budget_overshoot": 0.0}},
        }

    def test_mode_thrash_flags_a_regression(self):
        entries = diff_stats(self._control_tree(switch_rate=0.1),
                             self._control_tree(switch_rate=0.5))
        flagged = {e.key for e in entries if e.regression}
        assert "control.cell.switch_rate" in flagged

    def test_lost_full_coverage_time_flags_a_regression(self):
        entries = diff_stats(self._control_tree(full_frac=0.8),
                             self._control_tree(full_frac=0.4))
        flagged = {e.key for e in entries if e.regression}
        assert "control.cell.residency.full_frac" in flagged

    def test_identical_control_trees_are_clean(self):
        entries = diff_stats(self._control_tree(), self._control_tree())
        assert not any(e.regression for e in entries)
