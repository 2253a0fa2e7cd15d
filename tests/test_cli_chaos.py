"""CLI coverage for the chaos flags, checkpointing, and qa reconverge."""

import json

import pytest

from repro.cli import EXIT_CONFIG, build_parser, main

SMALL_WORLD = [
    "--nodes", "16",
    "--pretrusted", "2",
    "--colluders", "4",
    "--cycles", "4",
    "--seed", "3",
]


def summary_lines(text):
    """The scenario summary, minus progress and timing chatter."""
    return [
        line
        for line in text.splitlines()
        if line
        and not line.startswith(("checkpoint @", "resumed "))
        and not line.lstrip().startswith("[")
    ]


class TestParser:
    def test_chaos_flags(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "--managers", "3",
                "--partition", "1:3",
                "--partition", "5:7",
                "--byzantine", "1:2:4",
                "--checkpoint", "ck.jsonl",
                "--checkpoint-every", "2",
            ]
        )
        assert args.managers == 3
        assert args.partition == ["1:3", "5:7"]
        assert args.byzantine == ["1:2:4"]
        assert args.checkpoint_every == 2

    def test_scenario_flags_keep_per_command_defaults(self):
        parser = build_parser()
        sim = parser.parse_args(["simulate"])
        serve = parser.parse_args(["serve"])
        assert (sim.nodes, sim.pretrusted, sim.colluders, sim.cycles) == (200, 9, 30, 25)
        assert (serve.nodes, serve.pretrusted, serve.colluders, serve.cycles) == (100, 5, 15, 6)
        for args in (sim, serve):
            assert (args.system, args.collusion) == ("EigenTrust+SocialTrust", "pcm")
            assert (args.colluder_b, args.seed) == (0.2, 0)

    def test_reconverge_defaults(self):
        args = build_parser().parse_args(["qa", "reconverge"])
        assert args.cycles == 12
        assert args.tolerance == 0.02
        assert args.budget == 5
        assert args.report is None


class TestSimulateChaosErrors:
    def test_malformed_partition(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--partition", "3"]) == EXIT_CONFIG
        assert "--partition expects" in capsys.readouterr().err

    def test_malformed_byzantine(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--byzantine", "a:b"]) == EXIT_CONFIG
        assert "--byzantine expects" in capsys.readouterr().err

    def test_byzantine_requires_managers(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--byzantine", "0:1:3"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_checkpoint_every_requires_target(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--checkpoint-every", "2"]) == EXIT_CONFIG
        assert "--checkpoint-every requires" in capsys.readouterr().err

    def test_checkpoint_requires_every(self, tmp_path, capsys):
        # A checkpoint target with no interval would never be written.
        ck = tmp_path / "ck.jsonl"
        assert main(["simulate", *SMALL_WORLD, "--checkpoint", str(ck)]) == EXIT_CONFIG
        assert "error: --checkpoint requires --checkpoint-every" in capsys.readouterr().err
        assert not ck.exists()

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_checkpoint_every_must_be_positive(self, tmp_path, capsys, every):
        # N < 1 names no checkpoint cycle (and -1 divides every cycle).
        ck = tmp_path / "ck.jsonl"
        argv = ["simulate", *SMALL_WORLD, "--checkpoint", str(ck), "--checkpoint-every", every]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not ck.exists()

    def test_resume_refuses_trace(self, tmp_path, capsys):
        # A resumed run could only trace its remaining cycles.
        ck = tmp_path / "ck.jsonl"
        argv = ["simulate", *SMALL_WORLD, "--checkpoint", str(ck), "--checkpoint-every", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        trace = tmp_path / "t.jsonl"
        assert main(["simulate", "--resume", str(ck), "--trace", str(trace)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "error: --trace cannot be combined with --resume" in captured.err
        assert "resumed" not in captured.out
        assert not trace.exists()

    @staticmethod
    def _checkpoint_with_build(tmp_path, capsys, **build):
        """A finished SMALL_WORLD checkpoint whose header's build mapping
        is updated with ``build`` (the state line is left as written)."""
        ck = tmp_path / "ck.jsonl"
        code = main(
            ["simulate", *SMALL_WORLD, "--checkpoint", str(ck), "--checkpoint-every", "2"]
        )
        assert code == 0
        header, state = ck.read_text().splitlines()
        header = json.loads(header)
        header["build"].update(build)
        ck.write_text(json.dumps(header) + "\n" + state + "\n")
        capsys.readouterr()
        return ck

    def test_resume_checkpoint_with_engine_field(self, tmp_path, capsys):
        """Checkpoints written before the engine knob was removed carry
        ``build.engine``; resuming one is a config error naming it."""
        ck = self._checkpoint_with_build(tmp_path, capsys, engine="batched")
        assert main(["simulate", "--resume", str(ck)]) == EXIT_CONFIG
        assert "['engine']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("coefficient_backend", "sparse"),
            ("sparse_top_k", 8),
            ("cache_rebuild_interval", 64),
        ],
    )
    def test_resume_checkpoint_with_removed_socialtrust_key(
        self, tmp_path, capsys, key, value
    ):
        """The sparse coefficient core and its knobs are gone; a header
        whose ``socialtrust`` still carries one is refused by name."""
        ck = self._checkpoint_with_build(tmp_path, capsys, socialtrust={key: value})
        assert main(["simulate", "--resume", str(ck)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert key in captured.err
        assert "resumed" not in captured.out

    @pytest.mark.parametrize(
        "build, missing",
        [
            ({"system": "PowerTrust+SocialTrust"}, "power_nodes"),
            ({"n_managers": 3}, "last_weights"),
        ],
        ids=["other-system", "other-managers"],
    )
    def test_resume_state_not_matching_header(self, tmp_path, capsys, build, missing):
        """State written by another scenario than its header names is a
        config error saying so, not a bare KeyError."""
        ck = self._checkpoint_with_build(tmp_path, capsys, **build)
        assert main(["simulate", "--resume", str(ck)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "checkpoint state does not match its header" in err
        assert f"'{missing}'" in err

    def test_resume_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["simulate", "--resume", str(missing)]) == EXIT_CONFIG
        assert "cannot resume" in capsys.readouterr().err


class TestSimulateChaosRun:
    def test_partition_and_byzantine_window(self, capsys):
        code = main(
            [
                "simulate",
                *SMALL_WORLD,
                "--managers", "3",
                "--partition", "1:3",
                "--byzantine", "1:2:4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "colluder" in out  # the usual scenario summary printed


class TestCheckpointResume:
    def test_resumed_run_matches_checkpointed_run(self, tmp_path, capsys):
        """Kill-and-resume through the CLI: the resumed process must
        print the exact same scenario summary as the original."""
        ck = tmp_path / "ck.jsonl"
        code = main(
            [
                "simulate",
                *SMALL_WORLD,
                "--cycles", "6",
                "--managers", "3",
                "--partition", "1:3",
                "--checkpoint", str(ck),
                "--checkpoint-every", "4",
            ]
        )
        assert code == 0
        full_out = capsys.readouterr().out
        assert f"checkpoint @ cycle 4: {ck}" in full_out
        assert ck.exists()

        code = main(["simulate", "--resume", str(ck)])
        assert code == 0
        resumed_out = capsys.readouterr().out
        assert f"resumed {ck} at cycle 4/6" in resumed_out
        assert summary_lines(resumed_out) == summary_lines(full_out)


class TestQaReconverge:
    def test_writes_report_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "reconvergence.json"
        code = main(["qa", "reconverge", "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ALL BACKENDS RECONVERGED" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert len(payload["results"]) == 5

    def test_bad_spec_is_an_error(self, capsys):
        # Heal cycle beyond the run: the harness rejects it, the CLI
        # reports instead of crashing.
        assert main(["qa", "reconverge", "--cycles", "2"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err
