import csv
import itertools
import json
from types import SimpleNamespace

import pytest

from helpers import counterexample_mission, recursion_limit
from ppabt import planners, verify
from ppabt.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from ppabt.mission import render_mission


KEYDOOR_ATOMS = ["NoErr", "KeyStacked", "IsKeyDoor", "VisibleKeyDoor", "KeyDoorPassive",
                 "PrizePassive", "PrizeVisible"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_single_error_line(capsys, fragment):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


class TestParseCompile:
    def test_parse_builtin_c2h(self, capsys):
        assert main(["parse"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["mission"]["op"] == "until"
        assert data["formula"].startswith("U (F (|")

    def test_parse_mission_file(self, tmp_path, capsys):
        path = tmp_path / "m.mission"
        path.write_text("F (task(t, post=a & b))\n")
        out = tmp_path / "ast.json"
        assert main(["parse", "--mission", str(path), "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["mission"]["op"] == "finally"
        assert sorted(data["alphabet"]) == ["a", "b", "t"]

    def test_parse_empty_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.mission"
        path.write_text("")
        assert main(["parse", "--mission", str(path)]) == EXIT_USAGE

    def test_parse_missing_file(self):
        assert main(["parse", "--mission", "/nonexistent.mission"]) == EXIT_USAGE

    def test_compile_writes_bt_and_dot(self, tmp_path):
        out = tmp_path / "bt.json"
        dot = tmp_path / "bt.dot"
        assert main(["compile", "--out", str(out), "--dot", str(dot),
                     "--theta", "1"]) == EXIT_OK
        tree = json.loads(out.read_text())
        assert tree["kind"] == "sequence"  # c2h is an until mission
        assert "digraph" in dot.read_text()

    def test_too_deep_mission_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.mission"
        path.write_text("F (" * 1500 + "task(t, post=a)" + ")" * 1500 + "\n")
        assert main(["parse", "--mission", str(path)]) == EXIT_USAGE
        assert_single_error_line(capsys, "nested")

    def test_reserved_atom_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "m.mission"
        path.write_text("task(t, post=__action_x)\n")
        assert main(["parse", "--mission", str(path)]) == EXIT_USAGE
        assert_single_error_line(capsys, "reserved")

    # An explicit alphabet is used as given, even when empty, minus empty
    # names.  A name no condition can read as an atom (not one identifier,
    # a constant, a temporal operator or the reserved action prefix) is an
    # error: as an atom it would only multiply the streams verify counts.
    @pytest.mark.parametrize("text, alphabet, fragment", [
        (None, "", "not in the declared alphabet"),
        ("task(t, post=__action_x)", "a", "not in the declared alphabet"),
        ("task(t, post=__action_x)", "a,,__action_x", "reserved"),
        (None, "Cheese,Fire,Home,True", "'True' is a constant"),
        (None, "Cheese,Fire,Home,False", "'False' is a constant"),
        (None, "Cheese,Fire,Home,U", "'U' is a constant or a temporal operator"),
        (None, "Cheese,Fire,Home,F", "'F' is a constant or a temporal operator"),
        (None, "Cheese,Fire,Home,__action_cheese", "'__action_cheese' is reserved"),
        (None, "Cheese,Fire,Home,a b", "'a b' is not a single identifier"),
    ], ids=["c2h_empty", "reserved_not_declared", "reserved_declared", "true",
            "false", "until", "finally", "action_prefix", "two_words"])
    def test_explicit_alphabet_is_honoured(self, tmp_path, capsys, text, alphabet,
                                           fragment):
        path = "missions/c2h.mission"
        if text is not None:
            path = tmp_path / "m.mission"
            path.write_text(text + "\n")
        assert main(["parse", "--mission", str(path),
                     "--alphabet", alphabet]) == EXIT_USAGE
        assert_single_error_line(capsys, fragment)

    def test_task_and_field_names_may_be_declared_atoms(self, tmp_path, capsys):
        path = tmp_path / "m.mission"
        path.write_text("task(t, post=post & task, gc=action)\n")
        assert main(["parse", "--mission", str(path),
                     "--alphabet", "post,task,action"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["alphabet"] == ["action", "post", "task"]

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_USAGE


class TestSweep:
    def test_small_sweep_csv(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "r_other": [-0.04, -1.5], "r_good": [1.0], "r_fire": [-1.0],
            "p_in": [0.9], "n_trials": 30,
        }))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
        rows = read_csv(str(out))
        assert len(rows) == 2
        by_r = {row["r_other"]: row for row in rows}
        assert float(by_r["-0.04"]["success_probability"]) > \
            float(by_r["-1.5"]["success_probability"])

    def test_zero_trials_gives_empty_csv_with_header(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "r_other": [-0.04], "r_good": [1.0], "r_fire": [-1.0],
            "p_in": [0.9], "n_trials": 0,
        }))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert read_csv(str(out)) == []
        assert out.read_text().startswith("cell,r_other,r_good")

    def test_sweep_rows_reproducible(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "r_other": [-0.04], "r_good": [1.0], "r_fire": [-1.0],
            "p_in": [0.9], "n_trials": 10,
        }))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["sweep", "--config", str(config), "--seed", "3",
                         "--out", str(out)]) == EXIT_OK
        assert out1.read_text() == out2.read_text()


class TestLearnInfer:
    def test_learn_writes_policy_and_curves(self, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(["learn", "--p-in", "0.95", "--runs", "2",
                     "--episodes", "40", "--trials", "10",
                     "--out", prefix]) == EXIT_OK
        policy = json.loads((tmp_path / "run.policy.json").read_text())
        assert set(policy["tables"]) == {"C", "H"}
        curves = read_csv(prefix + ".curves.csv")
        assert len(curves) == 2 * 40
        summary = read_csv(prefix + ".summary.csv")
        assert len(summary) == 2
        assert {row["run"] for row in summary} == {"0", "1"}

    def test_zero_runs_print_the_summary_header_alone(self, capsys):
        assert main(["learn", "--runs", "0"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "p_in,run,seed,learning_success,mean_learning_trace_len,"
            "inference_success,mean_inference_trace_len\r\n")

    def test_zero_episodes_write_the_curve_header_alone(self, tmp_path):
        prefix = str(tmp_path / "run")
        assert main(["learn", "--p-in", "0.9", "--runs", "1", "--episodes", "0",
                     "--trials", "2", "--out", prefix]) == EXIT_OK
        assert (tmp_path / "run.curves.csv").read_bytes() == \
            b"p_in,run,episode,status,trace_len,seed\r\n"
        assert len(read_csv(prefix + ".summary.csv")) == 1

    def test_infer_from_stored_policy(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        main(["learn", "--p-in", "1.0", "--runs", "1", "--episodes", "60",
              "--trials", "5", "--out", prefix])
        assert main(["infer", "--policy", prefix + ".policy.json",
                     "--p-in", "1.0", "--trials", "20"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["n_trials"] == 20
        assert 0.0 <= data["success_probability"] <= 1.0

    def test_soundness_failure_prints_read_only_states(self, monkeypatch, capsys):
        # grid states are read-only views; the failure report still prints
        # every tick of the offending trace as JSON
        monkeypatch.setattr(planners, "audit_trace", lambda *args: False)
        assert main(["learn", "--p-in", "0.9", "--runs", "1", "--episodes", "3",
                     "--trials", "1"]) == EXIT_VIOLATION
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("verification FAILED: ")
        ticks = lines[1:]
        assert ticks and len(ticks) == len(lines) - 1
        for t, line in enumerate(ticks):
            prefix = f"  tick {t}: "
            assert line.startswith(prefix)
            assert json.loads(line[len(prefix):])["Cheese"] in (False, True)


class TestMalformedInput:
    """Input of the wrong shape exits 1 with one ``error:`` line, no traceback."""

    @pytest.mark.parametrize("data", [
        {"foo": 1}, [1, 2], {"tables": {"X": {"1,1": [0.25] * 4}}},
        {"tables": {"C": {"1,1": 5}, "H": {}}},
    ], ids=["no_tables", "list", "unknown_phase", "row_not_a_list"])
    def test_infer_malformed_policy(self, tmp_path, capsys, data):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(data))
        assert main(["infer", "--policy", str(path)]) == EXIT_USAGE
        assert_single_error_line(capsys, "polic")

    @pytest.mark.parametrize("data", [
        [1], {"p_in": 0.5}, {"p_in": ["a"]}, {"p_in": [True]}, {"p_in": []},
        {"gamma": "x"}, {"n_trials": "3"}, {"n_trials": -1}, {"seed": 5},
        {"r_other": [float("nan")]}, {"r_good": [float("inf")]}, {"r_good": [10 ** 400]},
    ], ids=["list", "scalar_value_set", "string_value", "bool_value", "empty_value_set",
            "string_gamma", "string_n_trials", "negative_n_trials", "seed_key",
            "nan_value", "infinite_value", "int_past_float_range"])
    def test_sweep_malformed_config(self, tmp_path, capsys, data):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(path)]) == EXIT_USAGE
        assert_single_error_line(capsys, "sweep config")

    @pytest.mark.parametrize("argv, message", [
        (["infer", "--policy", "policy.json", "--trials", "-1"], "must not be negative"),
        (["learn", "--runs", "-1"], "must not be negative"),
        (["learn", "--episodes", "-1"], "must not be negative"),
        (["verify", "--missions", "-1"], "must not be negative"),
        (["verify", "--theta", "-1"], "must not be negative"),
        (["sweep", "--trials", "-1"], "must not be negative"),
        (["verify", "--missions", "0", "--bound", "-3"], "--bound: must be at least 1"),
        (["verify", "--bound", "0"], "--bound: must be at least 1"),
        (["sweep", "--trials", "0", "--max-trace", "-1"], "--max-trace: must be at least 1"),
        (["learn", "--runs", "0", "--max-trace", "-4"], "--max-trace: must be at least 1"),
        # compile builds no run, so it has no trace bound to take
        (["compile", "--max-trace", "0"], "unrecognized arguments: --max-trace 0"),
        (["infer", "--policy", "policy.json", "--max-trace", "-4"],
         "--max-trace: must be at least 1"),
    ], ids=["infer_trials", "learn_runs", "learn_episodes", "verify_missions",
            "verify_theta", "sweep_trials", "verify_bound", "verify_bound_zero",
            "sweep_max_trace", "learn_max_trace", "compile_max_trace",
            "infer_max_trace"])
    def test_negative_count_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("command", ["parse", "compile", "keydoor"])
    def test_seed_only_where_it_is_read(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--seed", "3"])
        assert err.value.code == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: unrecognized arguments: --seed 3"]

    def test_parse_mission_directory(self, tmp_path, capsys):
        assert main(["parse", "--mission", str(tmp_path)]) == EXIT_USAGE
        assert_single_error_line(capsys, "directory")


class TestVerifyKeydoor:
    def test_verify_corpus_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--missions", "8", "--bound", "4",
                     "--seed", "9", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["total_violations"] == 0

    def test_verify_violation_writes_counterexamples(self, tmp_path, capsys):
        path = tmp_path / "m.mission"
        path.write_text(render_mission(counterexample_mission(["a", "b", "c"])) + "\n")
        out = str(tmp_path / "report.json")
        assert main(["verify", "--mission", str(path), "--alphabet", "a,b,c",
                     "--bound", "4", "--theta", "0", "--out", out]) == EXIT_VIOLATION
        report = json.loads((tmp_path / "report.json").read_text())
        rows = read_csv(out + ".counterexamples.csv")
        assert {int(row["counterexample"]) for row in rows} == set(
            range(len(report["counterexamples"])))
        assert [json.loads(row["state"]) for row in rows if row["counterexample"] == "0"] \
            == report["counterexamples"][0]

    def test_verify_single_mission_file(self, tmp_path):
        path = tmp_path / "m.mission"
        path.write_text("task(t, post=a, gc=!b)\n")
        assert main(["verify", "--mission", str(path), "--bound", "4"]) == EXIT_OK

    def test_verify_action_shared_with_two_postconditions(self, tmp_path, capsys):
        path = tmp_path / "m.mission"
        path.write_text("& task(a, post=P, action=m) task(b, post=Q, action=m)\n")
        assert main(["verify", "--mission", str(path), "--bound", "3"]) == EXIT_USAGE
        assert_single_error_line(capsys, "share action 'm'")

    def test_verify_action_shared_with_one_postcondition(self, tmp_path, capsys):
        path = tmp_path / "m.mission"
        path.write_text("& task(a, post=P, action=m) task(b, post=P, action=m)\n")
        assert main(["verify", "--mission", str(path), "--bound", "4"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["n_violations"] == 0 and report["n_bt_success_traces"] > 0

    @pytest.mark.parametrize("argv, max_work, stop", [
        (["--mission", "missions/keydoor.mission", "--alphabet",
          ",".join([*KEYDOOR_ATOMS, *(f"x{i}" for i in range(14))])],
         1_000, "stopped at tick 1 of 5 over 21 atoms: past the limit of 1,000 "),
        (["--mission", "missions/c2h.mission", "--alphabet", "Cheese,Fire,Home",
          "--bound", "1000"],
         10_000, "stopped at tick 24 of 1000 over 3 atoms: past the limit of 10,000 "),
    ], ids=["wide_alphabet", "long_bound"])
    def test_verify_past_work_limit_is_usage_error(self, capsys, monkeypatch, argv,
                                                   max_work, stop):
        # a low limit keeps a regressed check small, and no list of 2**21
        # valuations may be built before the first layer is refused
        def product(*rows, repeat):
            assert repeat <= 20, "valuations built before the first layer was checked"
            return itertools.product(*rows, repeat=repeat)

        monkeypatch.setattr(verify, "MAX_WORK", max_work)
        monkeypatch.setattr(verify, "itertools", SimpleNamespace(product=product))
        assert main(["verify", *argv]) == EXIT_USAGE
        assert_single_error_line(capsys, stop)

    def test_verify_too_wide_a_mission_is_usage_error(self, tmp_path, capsys):
        # 512 tasks with distinct conditions over 5 atoms: progression's
        # recursion passes the limit that parsing and compiling stay under
        cubes = [" & ".join(a if i >> k & 1 else f"!{a}" for k, a in enumerate("abcde"))
                 for i in range(32)]
        tasks = [f"F (task(t{i}, post={cubes[i % 32]}, gc={cubes[i // 32]}))"
                 for i in range(512)]
        while len(tasks) > 1:
            tasks = [f"(& {left} {right})" for left, right in zip(tasks[::2], tasks[1::2])]
        path = tmp_path / "wide.mission"
        path.write_text(tasks[0] + "\n")
        mission = ["--mission", str(path), "--alphabet", "a,b,c,d,e"]
        with recursion_limit(250):
            assert main(["compile", *mission, "--out", str(tmp_path / "bt.json")]) == EXIT_OK
            assert main(["verify", *mission, "--bound", "1"]) == EXIT_USAGE
        assert_single_error_line(capsys, "formula too wide to progress: ")

    def test_verify_keydoor_with_inferred_alphabet(self, capsys):
        # 10 inferred atoms, 3 of them task names no condition reads
        assert main(["verify", "--mission", "missions/keydoor.mission",
                     "--bound", "3"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["alphabet_size"], report["n_bt_success_traces"],
                report["n_violations"]) == (10, 54_870_080, 0)

    def test_keydoor_report(self, tmp_path):
        out = tmp_path / "kd.json"
        assert main(["keydoor", "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["baseline"]["summary"]["normal_successes"] == 10
        assert data["bt"]["summary"]["disturbed_successes"]["key"] == 5


class TestShippedMissions:
    def test_shipped_mission_files_parse_and_compile(self, tmp_path):
        for name in ("missions/c2h.mission", "missions/keydoor.mission"):
            out = tmp_path / "bt.json"
            assert main(["compile", "--mission", name,
                         "--out", str(out)]) == EXIT_OK
            assert json.loads(out.read_text())["kind"] == "sequence"

    def test_shipped_keydoor_mission_verifies(self):
        # c2h over its three world atoms; key-door is the verify_keydoor golden
        assert main(["verify", "--mission", "missions/c2h.mission",
                     "--alphabet", "Cheese,Fire,Home", "--bound", "4"]) == EXIT_OK
