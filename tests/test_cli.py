"""Command line tests, run in-process through ``main`` plus one smoke
test through a real subprocess."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ghzqss
from ghzqss.cli import CSV_HEADER, main

# Frozen copy of the contract: consumers parse sweep output by these
# column names, so any drift must fail a test.
EXPECTED_HEADER = (
    "variant,strategy,rounds,check_fraction,seed,rounds_run,checked_rounds,"
    "honest_error_rate,detected,eve_accuracy,err_product,err_pair,err_single_w1,err_single_w2"
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_process(argv, **env):
    """``python -m ghzqss.cli argv`` in a fresh interpreter that imports this
    checkout's package; ``env`` adds to the environment."""
    source = str(pathlib.Path(ghzqss.__file__).parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "ghzqss.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


class TestRunCommand:
    def test_json_report(self, capsys):
        code, out, _ = _run(
            capsys, ["run", "--rounds", "50", "--seed", "7", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["variant"] == "revised"
        assert report["strategy"] == "none"
        assert report["rounds_run"] == 50
        assert report["seed"] == 7
        assert report["honest_error_rate"] == 0.0
        assert report["detected"] is False
        assert report["eve_accuracy"] is None

    def test_output_is_deterministic(self, capsys):
        argv = ["run", "--rounds", "40", "--seed", "3", "--attack", "dishonest-bob",
                "--format", "json"]
        first = _run(capsys, argv)
        second = _run(capsys, argv)
        assert first == second

    def test_csv_report(self, capsys):
        code, out, _ = _run(
            capsys, ["run", "--rounds", "30", "--seed", "1", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADER
        assert CSV_HEADER == EXPECTED_HEADER
        fields = lines[1].split(",")
        assert len(fields) == 14
        assert fields[0] == "revised"
        assert fields[8] == "false"
        assert fields[9] == ""  # no eavesdropper to score
        assert fields[10] == ""  # no product rounds in this variant

    def test_human_report(self, capsys):
        code, out, _ = _run(capsys, ["run", "--rounds", "25", "--seed", "2"])
        assert code == 0
        assert "variant            revised" in out
        assert "per-mode errors:" in out

    def test_explicit_secrets(self, capsys):
        code, out, _ = _run(
            capsys,
            ["run", "--rounds", "6", "--secrets", "010110", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["rounds_run"] == 6

    def test_secret_length_mismatch_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["run", "--rounds", "5", "--secrets", "01"])
        assert code == 2
        assert "error:" in err

    def test_incompatible_combo_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["run", "--protocol", "revised", "--attack", "a2"])
        assert code == 2
        assert "not defined" in err

    def test_bad_rounds_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["run", "--rounds", "0"])
        assert code == 2
        assert "error:" in err

    def test_a_round_count_past_sys_maxsize_is_usage_error_naming_rounds(self, capsys):
        code, out, err = _run(capsys, ["run", "--rounds", "99999999999999999999"])
        assert code == 2
        assert err == f"error: rounds must be at most {sys.maxsize}, got 99999999999999999999\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            # A NaN threshold would report a 46.5% error rate as undetected.
            ["--attack", "a2-probe", "--check-fraction", "1.0", "--detect-threshold", "nan"],
            # A negative threshold would flag an error-free honest session.
            ["--rounds", "20", "--detect-threshold", "-1"],
        ],
    )
    def test_bad_detect_threshold_is_usage_error(self, capsys, argv):
        code, out, err = _run(capsys, ["run", *argv])
        assert code == 2
        assert "detect_threshold" in err
        assert out == ""

    def test_fail_on_detect(self, capsys):
        argv = ["run", "--attack", "dishonest-bob", "--rounds", "400", "--seed", "0",
                "--check-fraction", "1.0", "--format", "json", "--fail-on-detect"]
        code, out, _ = _run(capsys, argv)
        assert code == 1
        assert json.loads(out)["detected"] is True
        # Without the flag the same session exits 0.
        code, _, _ = _run(capsys, argv[:-1])
        assert code == 0

    def test_transcript_file(self, capsys, tmp_path):
        path = tmp_path / "rounds.jsonl"
        code, _, _ = _run(
            capsys,
            ["run", "--rounds", "12", "--seed", "5", "--transcripts", str(path)],
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 12
        for i, line in enumerate(lines, start=1):
            record = json.loads(line)
            assert record["round"] == i
            assert record["recovered"] == record["secret"]
            assert list(record)[0] == "round"

    def test_bad_seed_leaves_an_existing_transcript_file_intact(self, capsys, tmp_path):
        path = tmp_path / "existing.jsonl"
        path.write_bytes(b'{"round":1}\n')
        code, out, err = _run(capsys, ["run", "--seed", "-1", "--transcripts", str(path)])
        assert code == 2
        assert "seed" in err
        assert out == ""
        assert path.read_bytes() == b'{"round":1}\n'

    def test_unwritable_transcript_path_fails_before_simulating(
        self, capsys, monkeypatch, tmp_path
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("session simulated before the transcript path was checked")

        monkeypatch.setattr("ghzqss.cli.run_simulation", no_simulation)
        path = tmp_path / "missing-dir" / "rounds.jsonl"
        code, out, err = _run(
            capsys, ["run", "--rounds", "5000", "--transcripts", str(path)]
        )
        assert code == 2
        assert "error:" in err
        assert out == ""
        assert not path.parent.exists()

    def test_calls_in_one_process_match_separate_processes(self, capsys, monkeypatch):
        argv = ["run", "--attack", "dishonest-bob", "--rounds", "400",
                "--check-fraction", "1.0", "--format", "json"]
        # Both sessions are detected, so only the flag tells the exit codes apart.
        codes = []
        for args, seed in ((argv + ["--fail-on-detect"], "0"), (argv, "1")):
            proc = _run_process(args, QSS_SEED=seed)
            monkeypatch.setenv("QSS_SEED", seed)
            assert _run(capsys, args) == (proc.returncode, proc.stdout, proc.stderr)
            report = json.loads(proc.stdout)
            assert report["detected"] and report["seed"] == int(seed)
            codes.append(proc.returncode)
        assert codes == [1, 0]

    def test_seed_env_default_and_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QSS_SEED", "123")
        _, out, _ = _run(capsys, ["run", "--rounds", "5", "--format", "json"])
        assert json.loads(out)["seed"] == 123
        _, out, _ = _run(capsys, ["run", "--rounds", "5", "--seed", "9", "--format", "json"])
        assert json.loads(out)["seed"] == 9
        for bad in ("not-a-number", "1.5"):
            monkeypatch.setenv("QSS_SEED", bad)
            code, out, err = _run(capsys, ["run", "--rounds", "5", "--format", "json"])
            assert code == 2
            assert "QSS_SEED" in err
            assert out == ""
            code, out, _ = _run(capsys, ["sweep", "--rounds", "5"])
            assert code == 2
            # An explicit --seed does not read QSS_SEED.
            code, out, _ = _run(capsys, ["run", "--rounds", "5", "--seed", "9", "--format", "json"])
            assert code == 0
            assert json.loads(out)["seed"] == 9


class TestSweepCommand:
    def test_grid_rows(self, capsys):
        code, out, _ = _run(
            capsys,
            ["sweep", "--attacks", "none,a1", "--rounds", "20,30",
             "--check-fractions", "0.25,0.5", "--repeats", "2", "--seed", "11"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 1 + 2 * 2 * 2 * 2

    def test_sweep_is_deterministic(self, capsys):
        argv = ["sweep", "--attacks", "none", "--rounds", "25", "--repeats", "3"]
        assert _run(capsys, argv) == _run(capsys, argv)

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = _run(capsys, ["sweep", "--attacks", ""])
        assert code == 2
        assert "empty" in err

    def test_incompatible_sweep_strategy(self, capsys):
        code, _, err = _run(capsys, ["sweep", "--protocol", "original", "--attacks", "a1"])
        assert code == 2
        assert "not defined" in err

    def test_negative_seed_is_usage_error_naming_the_seed(self, capsys):
        code, out, err = _run(capsys, ["sweep", "--rounds", "5", "--seed", "-1"])
        assert code == 2
        assert "seed must be at least 0" in err
        assert out == ""

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--rounds", "4.0", "--rounds entries must be integers, got '4.0'"),
            ("--rounds", "8,x,16", "--rounds entries must be integers, got 'x'"),
            ("--check-fractions", "x", "--check-fractions entries must be numbers, got 'x'"),
            ("--check-fractions", "0.25,,1/2", "--check-fractions entries must be numbers, got '1/2'"),
        ],
    )
    def test_a_bad_grid_entry_is_usage_error_naming_the_option(self, capsys, option, value, message):
        code, out, err = _run(capsys, ["sweep", option, value])
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_json_format(self, capsys):
        code, out, _ = _run(
            capsys, ["sweep", "--attacks", "none", "--rounds", "15", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["rounds_run"] == 15


class TestVerifyCommand:
    def test_all_identities_hold(self, capsys):
        code, out, _ = _run(capsys, ["verify-equations"])
        assert code == 0
        assert "all 11 identities hold" in out
        assert "FAIL" not in out

    def test_corrupt_control_fails(self, capsys):
        code, out, _ = _run(capsys, ["verify-equations", "--corrupt", "E5"])
        assert code == 1
        assert "FAIL" in out
        assert "E5" in out

    def test_unknown_corrupt_id_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, ["verify-equations", "--corrupt", "E99"])
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, ["verify-equations", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [entry["identity"] for entry in payload] == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
        ]
        assert all(entry["ok"] for entry in payload)
        assert all(b["deviation"] <= 1e-12 for entry in payload for b in entry["branches"])

    def test_csv_format(self, capsys):
        code, out, _ = _run(capsys, ["verify-equations", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "identity,branch,deviation,ok"
        assert all(line.endswith("true") for line in lines[1:])


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert _run(capsys, [])[0] == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert _run(capsys, ["run", "--frobnicate"])[0] == 2

    def test_module_entry_point(self, tmp_path):
        proc = _run_process(["run", "--rounds", "15", "--seed", "4", "--format", "json"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rounds_run"] == 15


class TestPublicNames:
    def test_every_exported_name_resolves(self):
        import ghzqss

        assert len(set(ghzqss.__all__)) == len(ghzqss.__all__)
        missing = [name for name in ghzqss.__all__ if not hasattr(ghzqss, name)]
        assert missing == []
