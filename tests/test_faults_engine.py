"""Parallel campaign engine: determinism, shards/resume, stats, serve."""

import dataclasses
import json

import pytest

from repro.faults.engine import (
    SHARD_GLOB,
    CampaignRunner,
    CampaignSpec,
    TrialRecord,
    load_completed,
    publish_campaign_stats,
    run_campaign,
    run_trial_in_worker,
)
from repro.obs import StatGroup

#: Tiny but non-trivial: enough segments for opportunistic coverage to
#: have holes, small enough for a sub-second trial.
SPEC = CampaignSpec(workload="exchange2", instructions=6000, seed=7,
                    trials=6)


@pytest.fixture(scope="module")
def serial_outcome():
    return run_campaign(SPEC, jobs=1)


class TestDeterminism:
    def test_parallel_matches_serial(self, serial_outcome):
        parallel = run_campaign(SPEC, jobs=4)
        assert parallel.records == serial_outcome.records
        assert parallel.tally == serial_outcome.tally

    def test_trial_is_order_independent(self, serial_outcome):
        # A single trial evaluated in isolation must equal its slot in
        # the full campaign — no shared RNG stream to advance.
        lone = TrialRecord.from_json(run_trial_in_worker(SPEC, 3))
        assert lone == serial_outcome.records[3]

    def test_growing_a_campaign_preserves_the_prefix(self, serial_outcome):
        import dataclasses
        bigger = run_campaign(
            dataclasses.replace(SPEC, trials=8), jobs=1)
        assert bigger.records[:6] == serial_outcome.records

    def test_fault_kind_mix_covers_all_sites(self, serial_outcome):
        kinds = {record.kind for record in serial_outcome.records}
        # 6 derived draws over 3 kinds: at least two distinct sites.
        assert len(kinds) >= 2


class TestSpecKey:
    def test_key_ignores_trial_count(self):
        import dataclasses
        assert SPEC.key() == dataclasses.replace(SPEC, trials=500).key()

    def test_key_changes_with_seed(self):
        import dataclasses
        assert SPEC.key() != dataclasses.replace(SPEC, seed=8).key()

    def test_json_round_trip(self):
        assert CampaignSpec.from_json(SPEC.to_json()) == SPEC


class TestShardsAndResume:
    def test_shards_record_every_trial(self, tmp_path, serial_outcome):
        outcome = run_campaign(SPEC, jobs=1, campaign_dir=tmp_path)
        assert outcome.records == serial_outcome.records
        shards = list(tmp_path.glob(SHARD_GLOB))
        assert shards
        completed = load_completed(tmp_path, SPEC)
        assert sorted(completed) == list(range(SPEC.trials))
        assert [completed[t] for t in sorted(completed)] == outcome.records

    def test_resume_skips_completed_trials(self, tmp_path, serial_outcome):
        import dataclasses
        # A campaign killed after 3 trials: the shards hold a prefix.
        partial = dataclasses.replace(SPEC, trials=3)
        run_campaign(partial, jobs=1, campaign_dir=tmp_path)
        resumed = run_campaign(SPEC, jobs=1, campaign_dir=tmp_path,
                               resume=True)
        assert resumed.resumed_trials == 3
        assert resumed.records == serial_outcome.records

    def test_parallel_resume_matches_serial(self, tmp_path, serial_outcome):
        import dataclasses
        partial = dataclasses.replace(SPEC, trials=2)
        run_campaign(partial, jobs=1, campaign_dir=tmp_path)
        resumed = run_campaign(SPEC, jobs=4, campaign_dir=tmp_path,
                               resume=True)
        assert resumed.resumed_trials == 2
        assert resumed.records == serial_outcome.records

    def test_fully_complete_resume_runs_nothing(self, tmp_path,
                                                serial_outcome):
        run_campaign(SPEC, jobs=1, campaign_dir=tmp_path)
        with CampaignRunner(jobs=1, campaign_dir=tmp_path,
                            resume=True) as runner:
            outcome = runner.run(SPEC)
        assert outcome.resumed_trials == SPEC.trials
        assert outcome.busy_s == 0.0
        assert outcome.records == serial_outcome.records

    def test_resume_without_dir_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=1, resume=True).run(SPEC)

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path, caplog):
        good = TrialRecord(trial=0, kind="stuck_at", fault="f",
                           detected=True, masked=False)
        shard = tmp_path / "shard-1.jsonl"
        foreign = json.dumps({"spec": "deadbeef", "trial": 9,
                              "kind": "stuck_at", "fault": "f",
                              "detected": True, "masked": False})
        lines = [
            json.dumps({"spec": SPEC.key(), **good.to_json()}),
            "{not json at all",
            json.dumps({"spec": SPEC.key(), "trial": 1}),  # missing keys
            foreign,
            json.dumps({"spec": SPEC.key(), **good.to_json()})[:-9],
        ]
        shard.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING", logger="repro.faults.engine"):
            completed = load_completed(tmp_path, SPEC)
        assert completed == {0: good}
        assert any("corrupt" in r.getMessage() for r in caplog.records)


class TestStatsPublication:
    def test_faults_tree_leaves(self, serial_outcome):
        stats = StatGroup("root")
        publish_campaign_stats(stats, serial_outcome)
        flat = stats.flatten()
        assert flat["faults.injected"] == SPEC.trials
        assert (flat["faults.detected"] + flat["faults.masked"]
                + flat["faults.missed"] == SPEC.trials)
        assert 0.0 <= flat["faults.detection_rate_all"] <= 1.0
        assert 0.0 <= flat["faults.detection_rate_effective"] <= 1.0
        assert "faults.runtime.elapsed_s" in flat
        per_kind = [k for k in flat if k.startswith("faults.")
                    and k.endswith(".injected") and k.count(".") == 2]
        assert sum(flat[k] for k in per_kind) == SPEC.trials


class TestServeIntegration:
    def test_evaluate_spec_campaign_row(self, serial_outcome):
        from repro.serve.protocol import CampaignRequest
        from repro.serve.workers import evaluate_spec

        request = CampaignRequest(
            workload=SPEC.workload, checkers=SPEC.checkers,
            mode=SPEC.mode, instructions=SPEC.instructions,
            seed=SPEC.seed, trials=SPEC.trials,
            fault_kinds=SPEC.fault_kinds)
        row = evaluate_spec(request.sim_spec())
        assert row["trials"] == SPEC.trials
        tally = serial_outcome.tally
        assert row["detected"] == tally.detected
        assert row["masked"] == tally.masked
        assert row["detection_rate_effective"] == \
            tally.detection_rate_effective
        assert row["trace_source"] in ("computed", "memory", "disk")


class TestSharedSubstrate:
    """One substrate per checked run, shared by every scheme's spec."""

    @staticmethod
    def _scheme_specs(**overrides):
        from repro.faults.scenarios import (
            CAMPAIGN_SCHEMES,
            default_fault_kinds,
        )

        return [dataclasses.replace(SPEC, scheme=scheme, trials=1,
                                    fault_kinds=default_fault_kinds(scheme),
                                    **overrides)
                for scheme in CAMPAIGN_SCHEMES]

    def test_schemes_share_one_substrate(self, monkeypatch):
        from repro.faults import engine

        monkeypatch.setattr(engine, "_CONTEXTS", {})
        for spec in self._scheme_specs():
            run_trial_in_worker(spec, 0)
        assert len(engine._CONTEXTS) == 4
        assert len({id(ctx.substrate)
                    for ctx in engine._CONTEXTS.values()}) == 1

    def test_eviction_bounds_substrates_not_specs(self, monkeypatch):
        from repro.faults import engine

        monkeypatch.setattr(engine, "_CONTEXTS", {})
        monkeypatch.setattr(engine, "_CONTEXT_LIMIT", 1)
        first = self._scheme_specs()[:2]
        for spec in first:
            run_trial_in_worker(spec, 0)
        # Two specs on one substrate fit a limit of one substrate.
        assert set(engine._CONTEXTS) == {spec.key() for spec in first}
        second = self._scheme_specs(seed=SPEC.seed + 1)[:2]
        for spec in second:
            run_trial_in_worker(spec, 0)
        assert set(engine._CONTEXTS) == {spec.key() for spec in second}


#: (workload, pool, instructions, seed, trials): single- and multi-group
#: pools, a down-clocked checker, several seeds.
ORACLE_CASES = [
    ("exchange2", "1xA510@1.0", 6000, 7, 12),
    ("mcf", "2xA510@1.0", 10_000, 3, 10),
    ("gcc", "1xA510@0.5", 10_000, 5, 10),
    ("deepsjeng", "1xA510@1.0,1xX2@2.0", 10_000, 5, 10),
]


@pytest.mark.parametrize("workload,pool,instructions,seed,trials",
                         ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_fault_campaign_run_matches_the_engine(workload, pool, instructions,
                                               seed, trials):
    """Differential oracle: ``FaultCampaign.run`` (what Fig. 8, ``eval
    --fault-trials`` and the examples use) equals the campaign engine
    with a stuck-at-only mix, record for record."""
    from repro.core.system import CheckMode, ParaVerserConfig, \
        ParaVerserSystem
    from repro.cpu.config import CoreInstance
    from repro.cpu.presets import X2, pool_instances
    from repro.faults.campaign import FaultCampaign, covered_segments
    from repro.workloads.generator import build_program
    from repro.workloads.profiles import get_profile

    program = build_program(get_profile(workload), seed=seed)
    config = ParaVerserConfig(main=CoreInstance(X2, 3.0),
                              checkers=pool_instances(pool),
                              mode=CheckMode.OPPORTUNISTIC, seed=seed)
    system = ParaVerserSystem(config)
    run = system.execute(program, max_instructions=instructions)
    result = system.run(program, run_result=run)
    direct = FaultCampaign(program, system.segment(run),
                           config.checkers[0].config).run(
        trials, seed=seed, covered=covered_segments(result),
        kinds=("stuck_at",))

    engine = run_campaign(CampaignSpec(
        workload=workload, checkers=pool, instructions=instructions,
        seed=seed, trials=trials, fault_kinds=("stuck_at",)), jobs=1)

    assert [(t.trial, t.fault.describe(), t.detected, t.masked,
             t.detection_instruction) for t in direct.trials] == \
        [(r.trial, r.fault, r.detected, r.masked, r.detection_instruction)
         for r in engine.records]
