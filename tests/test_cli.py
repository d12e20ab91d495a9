import json
import subprocess
import sys

import pytest

from bergeham.cli import build_parser, main
from bergeham.engine import DEFAULT_BUDGET
from bergeham.generators import complete, two_cliques, two_cliques_matching
from bergeham.hypergraph import serialize
from bergeham.thresholds import PROPERTY_GUARD


@pytest.fixture
def k7_file(tmp_path):
    path = tmp_path / "k7.txt"
    path.write_text(serialize(complete(7, 3)), encoding="utf-8")
    return str(path)


@pytest.fixture
def two_cliques_file(tmp_path):
    path = tmp_path / "tc.txt"
    path.write_text(serialize(two_cliques(8, 3)), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_complete_edge_count(self, tmp_path, capsys):
        out = tmp_path / "host.txt"
        code, _, _ = run_cli(
            ["gen", "--family", "complete", "--n", "7", "--r", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = [
            l for l in out.read_text().splitlines() if l and not l.startswith("#")
        ]
        assert lines[0] == "7 3 35"
        assert len(lines) == 36

    def test_gen_seed_echoed(self, capsys):
        code, text, _ = run_cli(
            ["gen", "--family", "binomial", "--n", "8", "--p", "0.4", "--seed", "9"],
            capsys,
        )
        assert code == 0
        assert "seed=9" in text.splitlines()[0]

    def test_bad_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["gen", "--family", "nope", "--n", "7"])
        assert info.value.code == 2

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(
            ["gen", "--family", "two_cliques", "--n", "7", "--r", "3"], capsys
        )
        assert code == 2
        assert "error" in err


class TestOracleCmd:
    def test_yes_exit_0(self, k7_file, capsys):
        code, text, _ = run_cli(["oracle", "--host", k7_file], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload["verdict"] == "yes"
        assert payload["certificate"]["cycle"] is True

    def test_no_exit_1(self, two_cliques_file, capsys):
        code, text, _ = run_cli(["oracle", "--host", two_cliques_file], capsys)
        assert code == 1
        assert json.loads(text)["verdict"] == "no"

    def test_guard_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(serialize(complete(12, 3)), encoding="utf-8")
        code, _, err = run_cli(["oracle", "--host", str(path)], capsys)
        assert code == 2
        assert "guard" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["oracle", "--host", "/nonexistent/x.txt"], capsys)
        assert code == 2

    def test_malformed_host_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 3 1\n0 1\n", encoding="utf-8")
        code, _, err = run_cli(["oracle", "--host", str(path)], capsys)
        assert code == 2
        assert "line 2" in err


class TestDecideCmd:
    def test_yes(self, k7_file, capsys):
        code, text, _ = run_cli(["decide", "--host", k7_file, "--seed", "1"], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload["verdict"] == "yes"
        assert payload["seed"] == 1

    def test_no_on_disconnected(self, two_cliques_file, capsys):
        code, text, _ = run_cli(["decide", "--host", two_cliques_file], capsys)
        assert code == 1

    def test_agreement_with_oracle_under_fallback(self, tmp_path, capsys):
        from bergeham.generators import binomial

        for seed in (0, 1, 2):
            host = tmp_path / f"h{seed}.txt"
            host.write_text(serialize(binomial(7, 3, 0.25, seed=seed)))
            dec, dtext, _ = run_cli(
                ["decide", "--host", str(host), "--fallback"], capsys
            )
            orc, otext, _ = run_cli(["oracle", "--host", str(host)], capsys)
            assert dec == orc
            assert json.loads(dtext)["verdict"] == json.loads(otext)["verdict"]

    def test_unwritable_out_exit_2(self, k7_file, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        code, text, err = run_cli(["decide", "--host", k7_file, "--out", out], capsys)
        assert code == 2 and text == ""
        assert err.startswith("error: cannot write")


class TestAbsorbCmd:
    def test_runs_and_traces(self, tmp_path, capsys):
        host = tmp_path / "k12.txt"
        host.write_text(serialize(complete(12, 3)))
        code, text, _ = run_cli(
            ["absorb", "--host", str(host), "--d0", "4", "--seed", "2"], capsys
        )
        assert code == 0
        lines = text.strip().split("\n")
        head = json.loads(lines[0])
        assert head["verdict"] == "yes"
        events = [json.loads(l)["event"] for l in lines[1:]]
        assert events[0] == "extract"


class TestTauCmd:
    def test_csv_and_summary(self, k7_file, capsys):
        code, text, _ = run_cli(
            ["tau", "--host", k7_file, "--trials", "5", "--seed", "3"], capsys
        )
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "# seed_base=3 trials=5"
        assert lines[1].startswith("trial,seed,tau2")
        assert len(lines) == 8  # comment + header + 5 rows + summary
        summary = json.loads(lines[-1])
        assert summary["trials"] == 5

    def test_byte_identical_across_jobs(self, k7_file, tmp_path, capsys):
        outputs = []
        for jobs, tag in (("1", "a"), ("3", "b")):
            prefix = str(tmp_path / tag)
            code, _, _ = run_cli(
                [
                    "tau",
                    "--host",
                    k7_file,
                    "--trials",
                    "6",
                    "--seed",
                    "5",
                    "--jobs",
                    jobs,
                    "--out",
                    prefix,
                ],
                capsys,
            )
            assert code == 0
            outputs.append(
                (
                    (tmp_path / f"{tag}.csv").read_bytes(),
                    (tmp_path / f"{tag}.summary.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_budget_default_and_single_value(self, tmp_path, capsys):
        host = tmp_path / "tcm.txt"
        host.write_text(serialize(two_cliques_matching(24, seed=1)), encoding="utf-8")
        args = ["tau", "--host", str(host), "--trials", "6", "--seed", "4"]
        default = run_cli(args, capsys)
        assert default[0] == 0
        assert run_cli(args + ["--budget", "200000"], capsys) == default
        with pytest.raises(SystemExit) as info:
            main(args + ["--budget", "2000", "500"])
        assert info.value.code == 2
        assert build_parser().parse_args(args).budget == DEFAULT_BUDGET

    def test_jobs_below_one_exit_2(self, k7_file, capsys):
        code, text, err = run_cli(
            ["tau", "--host", k7_file, "--trials", "2", "--jobs", "0"], capsys
        )
        assert code == 2 and text == ""
        assert "at least one job" in err

    def test_unwritable_out_exit_2(self, k7_file, tmp_path, capsys):
        prefix = str(tmp_path / "missing" / "x")
        code, text, err = run_cli(
            ["tau", "--host", k7_file, "--trials", "2", "--out", prefix], capsys
        )
        assert code == 2 and text == ""
        assert err.startswith("error: cannot write")


class TestThresholdsCmd:
    def test_json_report(self, k7_file, capsys):
        code, text, _ = run_cli(
            ["thresholds", "--host", k7_file, "--eps", "0.3"], capsys
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["N"] == 35
        assert payload["p3"] <= payload["p0"] <= payload["p4"]


class TestPropsCmd:
    def test_exact_verdicts(self, tmp_path, capsys):
        host = tmp_path / "k8.txt"
        host.write_text(serialize(complete(8, 3)))
        code, text, _ = run_cli(
            ["props", "--host", str(host), "--eps", "0.5"], capsys
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["P7"]["status"] == "verified"
        assert set(payload) == {f"P{i}" for i in range(1, 8)}

    def test_sampled_mode(self, k7_file, capsys):
        code, text, _ = run_cli(
            [
                "props", "--host", k7_file, "--eps", "0.3",
                "--mode", "sampled", "--trials", "25", "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["P4"]["status"] in ("no_counterexample", "violated")

    def test_one_vertex_host_exit_2(self, tmp_path, capsys):
        host = tmp_path / "k1.txt"
        host.write_text("1 2 0\n")
        for mode in ("exact", "sampled"):
            code, text, err = run_cli(
                ["props", "--host", str(host), "--eps", "0.3", "--mode", mode],
                capsys,
            )
            assert code == 2 and text == ""
            assert err == "error: need n >= 2, got 1\n"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_sampled_trials_below_one_exit_2(self, k7_file, trials, capsys):
        args = ["props", "--host", k7_file, "--eps", "0.3", "--trials", trials]
        code, text, err = run_cli(args + ["--mode", "sampled"], capsys)
        assert code == 2 and text == ""
        assert err == f"error: need at least one trial, got {trials}\n"
        code, text, _ = run_cli(args, capsys)  # exact mode ignores trials
        assert code == 0 and json.loads(text)["P4"]["trials"] == 0

    def test_guard_defaults_to_property_guard(self, monkeypatch):
        # the default is read from thresholds, not copied into the parser
        args = ["props", "--host", "h.txt", "--eps", "0.3"]
        assert build_parser().parse_args(args).guard == PROPERTY_GUARD
        monkeypatch.setattr("bergeham.cli.PROPERTY_GUARD", PROPERTY_GUARD + 1)
        assert build_parser().parse_args(args).guard == PROPERTY_GUARD + 1


class TestRotateTraceCmd:
    def test_trace_shape(self, k7_file, capsys):
        code, text, _ = run_cli(["rotate-trace", "--host", k7_file], capsys)
        assert code == 0
        lines = [json.loads(l) for l in text.strip().split("\n")]
        assert lines[0]["event"] == "initial"
        assert lines[-1]["event"] == "summary"
        assert lines[-1]["endpoints"] >= 1


class TestEntryPoint:
    def test_module_invocation(self, k7_file, cli_env):
        proc = subprocess.run(
            [sys.executable, "-m", "bergeham.cli", "decide", "--host", k7_file],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "yes"

    def test_identical_argv_identical_bytes(self, k7_file, cli_env):
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "bergeham.cli",
                    "tau", "--host", k7_file, "--trials", "4", "--seed", "8",
                ],
                capture_output=True,
                env=cli_env,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout)
        assert runs[0] == runs[1]
