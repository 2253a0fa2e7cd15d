"""Tests for the ``repro.api`` facade.

The facade promises three things: (1) one spec-driven call assembles the
exact world that manual ``build_world`` wiring produces — same RNG stream,
so runs are bit-identical — (2) the convenience accessors on
:class:`ScenarioResult` agree with the raw metrics they summarise, and
(3) a :class:`ScenarioSpec` is hashable and equal to its own JSON round
trip.
"""

import json

import numpy as np
import pytest

import repro
from repro.api import (
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    build_scenario,
    list_experiments,
    run_experiment,
    run_scenario,
)
from repro.experiments import CollusionKind, SystemKind, WorldConfig, build_world

SMALL = dict(
    n_nodes=24,
    n_pretrusted=2,
    n_colluders=6,
    n_interests=5,
    interests_per_node=(1, 3),
    simulation_cycles=2,
    query_cycles=4,
)


def spec(seed=0, **build):
    return ScenarioSpec.from_build(dict(SMALL, **build), seed=seed)


class TestBuildScenario:
    def test_matches_manual_build_world_bit_for_bit(self):
        manual = build_world(
            WorldConfig(
                collusion=CollusionKind.PCM,
                system=SystemKind.EIGENTRUST_SOCIALTRUST,
                **SMALL,
            ),
            seed=3,
        )
        manual_history = manual.simulation.run().reputation_history()
        result = run_scenario(
            spec(collusion="pcm", system="EigenTrust+SocialTrust", seed=3)
        )
        assert np.array_equal(result.history, manual_history)

    def test_string_enums_resolve(self):
        scenario = build_scenario(spec(system="eigentrust", collusion="PCM"))
        assert scenario.config.system is SystemKind.EIGENTRUST
        assert scenario.config.collusion is CollusionKind.PCM

    def test_use_socialtrust_upgrades_and_downgrades(self):
        # SystemKind maps each base stack to its SocialTrust variant and back.
        up = build_scenario(spec(system=SystemKind.EBAY.socialtrust))
        assert up.config.system is SystemKind.EBAY_SOCIALTRUST
        down = build_scenario(
            spec(system=SystemKind.POWERTRUST_SOCIALTRUST.base)
        )
        assert down.config.system is SystemKind.POWERTRUST
        assert SystemKind.TRUSTGUARD.socialtrust is SystemKind.TRUSTGUARD
        assert (
            SystemKind.EIGENTRUST_SOCIALTRUST.socialtrust
            is SystemKind.EIGENTRUST_SOCIALTRUST
        )

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown reputation system"):
            build_scenario(spec(system="PageRank"))

    def test_unknown_keyword_rejected(self):
        # The scenario keyword bag is gone: only a ScenarioSpec gets in.
        with pytest.raises(TypeError, match=r"ScenarioSpec\.from_build"):
            build_scenario(n_peers=10)
        with pytest.raises(TypeError, match=r"ScenarioSpec\.from_build"):
            build_scenario(**SMALL)
        with pytest.raises(TypeError, match=r"ScenarioSpec\.from_build"):
            run_scenario(spec(), simulation_cycles=3)
        with pytest.raises(TypeError, match=r"ScenarioSpec\.from_build"):
            run_scenario(dict(SMALL))
        with pytest.raises(ValueError, match="n_peers"):
            ScenarioSpec.from_build({"n_peers": 10})

    def test_engine_keyword_rejected(self):
        # The batched engine is the only query-cycle engine; the scalar
        # reference loop lives in repro.qa.reference.
        with pytest.raises(TypeError, match="engine"):
            build_scenario(spec(), engine="scalar")
        with pytest.raises(ValueError, match="engine"):
            spec(engine="scalar")

    def test_result_after_manual_cycles_matches_run(self):
        driven = build_scenario(spec(collusion="pcm", seed=5))
        for _ in range(SMALL["simulation_cycles"]):
            driven.simulation.run_simulation_cycle()
        by_hand = driven.result()
        ran = run_scenario(spec(collusion="pcm", seed=5))
        assert np.array_equal(by_hand.history, ran.history)
        assert by_hand.summary() == ran.summary()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("coefficient_backend", "sparse"),
            ("sparse_top_k", 8),
            ("cache_rebuild_interval", 64),
        ],
    )
    def test_removed_socialtrust_keys_refused(self, key, value):
        # The dense core is the only coefficient core (API 5.0): the keys
        # that selected or tuned the sparse one are refused by name.
        world = spec(system="EigenTrust+SocialTrust", socialtrust={key: value})
        with pytest.raises(ValueError, match=key):
            build_scenario(world)

    def test_world_beyond_physical_memory_refused_before_building(
        self, monkeypatch
    ):
        import repro.api as api

        need = api._estimate_state_bytes(SMALL["n_nodes"])
        monkeypatch.setattr(api, "_physical_memory_bytes", lambda: need)
        assert build_scenario(spec()).config.n_nodes == SMALL["n_nodes"]

        def no_build(*args, **kwargs):
            raise AssertionError("the world was built despite the refusal")

        monkeypatch.setattr(api, "build_world", no_build)
        monkeypatch.setattr(api, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ValueError, match=r"n_nodes=24 needs an estimated"):
            build_scenario(spec())

    def test_scenario_exposes_world_parts(self):
        scenario = build_scenario(spec())
        assert isinstance(scenario, Scenario)
        assert scenario.simulation is scenario.world.simulation
        assert scenario.world.config is scenario.config


class TestScenarioResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(spec(collusion="pcm", seed=1))

    def test_reputations_match_metrics(self, result):
        assert isinstance(result, ScenarioResult)
        assert np.array_equal(
            result.reputations, result.metrics.final_reputations()
        )
        assert result.history.shape == (SMALL["simulation_cycles"], SMALL["n_nodes"])

    def test_group_means_agree_with_raw_vector(self, result):
        reps = result.reputations
        assert result.colluder_mean == pytest.approx(
            reps[list(result.colluder_ids)].mean()
        )
        assert result.normal_mean == pytest.approx(
            reps[list(result.normal_ids)].mean()
        )

    def test_request_share_agrees_with_metrics(self, result):
        assert result.colluder_request_share == pytest.approx(
            result.metrics.fraction_served_by(list(result.colluder_ids))
        )

    def test_summary_mentions_the_cell(self, result):
        text = result.summary()
        assert "collusion=pcm" in text
        assert "seed=1" in text
        assert "colluder mean reputation" in text


class TestScenarioSpecContract:
    """A spec equals and hashes like its own JSON round trip."""

    @pytest.mark.parametrize(
        "world",
        [
            {"interests_per_node": (1, 3)},
            {"socialtrust": {"center": "global", "min_band_size": 5}},
            {
                "n_managers": 3,
                "chaos": {
                    "partitions": [{"start_cycle": 1, "heal_cycle": 3}],
                    "byzantines": [
                        {"manager_id": 1, "start_cycle": 2, "heal_cycle": 4}
                    ],
                },
            },
        ],
        ids=["tuple", "socialtrust-dict", "chaos-dict"],
    )
    def test_json_round_trip_is_equal_and_hashable(self, world):
        original = ScenarioSpec(
            system="EigenTrust+SocialTrust", collusion="pcm", seed=4, world=world
        )
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(original.to_dict())))
        assert restored == original
        assert hash(restored) == hash(original)
        assert len({original, restored}) == 1

    def test_different_specs_differ(self):
        assert spec(seed=1) != spec(seed=2)
        assert spec(n_nodes=30) != spec()


class TestRegistryPassthrough:
    def test_list_experiments_nonempty(self):
        names = list_experiments()
        assert "fig8" in names

    def test_run_experiment_forwards_kwargs(self):
        result = run_experiment("fig1", seed=0)
        assert result.describe()

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestTopLevelReexports:
    def test_repro_package_exposes_facade(self):
        assert repro.build_scenario is build_scenario
        assert repro.run_scenario is run_scenario
        assert repro.list_experiments is list_experiments
        for name in repro.__all__:
            assert hasattr(repro, name)
