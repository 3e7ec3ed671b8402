"""End-to-end tests of the command line: file contracts and exit codes."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from braidplan.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NO_PATH,
    EXIT_OK,
    EXIT_VIOLATION,
    load_scenario,
    main,
    scenario_to_dict,
)
from braidplan.harness import make_scenario
from braidplan.planner import BraidTable


def _write_scenario(tmp_path, n=3, num_sets=2, seed=40, **overrides):
    doc = scenario_to_dict(make_scenario(n, num_sets, seed))
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path, doc


def test_scenario_file_round_trip(tmp_path):
    scenario = make_scenario(3, 2, 40)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    assert load_scenario(path) == scenario


def test_plan_writes_plan_file(tmp_path, capsys):
    sc_path, doc = _write_scenario(tmp_path)
    out = tmp_path / "plan.json"
    code = main(["plan", "--scenario", str(sc_path), "--out", str(out)])
    assert code == EXIT_OK
    assert "planned set 0" in capsys.readouterr().out
    plan_doc = json.loads(out.read_text())
    assert plan_doc["stats"]["reason"] == "goal"
    assert plan_doc["set_index"] == 0
    table = BraidTable.from_serializable(plan_doc["final_braids"])
    assert table.n == 3
    for traj in plan_doc["trajectories"]:
        rid = traj["robot_id"]
        first, last = traj["waypoints"][0], traj["waypoints"][-1]
        assert first[:2] == doc["initial_positions"][rid - 1]
        assert last[:2] == doc["target_sets"][0][rid - 1]
    assert len(plan_doc["permutation_path"]) == plan_doc["stats"]["actions"] + 1


def test_plan_budget_exhausted_exits_2(tmp_path, capsys):
    sc_path, _ = _write_scenario(tmp_path, max_expansions=1)
    out = tmp_path / "plan.json"
    code = main(["plan", "--scenario", str(sc_path), "--out", str(out)])
    assert code == EXIT_NO_PATH
    assert "no path found" in capsys.readouterr().err
    assert not out.exists()


def test_input_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["plan", "--scenario", str(tmp_path / "absent.json"), "--out", out]) == EXIT_INPUT_ERROR

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plan", "--scenario", str(bad), "--out", out]) == EXIT_INPUT_ERROR

    sc_path, doc = _write_scenario(tmp_path)
    del doc["d_safe"]
    sc_path.write_text(json.dumps(doc))
    assert main(["plan", "--scenario", str(sc_path), "--out", out]) == EXIT_INPUT_ERROR
    assert "d_safe" in capsys.readouterr().err

    sc_path, _ = _write_scenario(tmp_path)
    code = main(["plan", "--scenario", str(sc_path), "--set-index", "9", "--out", out])
    assert code == EXIT_INPUT_ERROR


def test_run_writes_report(tmp_path, capsys):
    sc_path, _ = _write_scenario(tmp_path)
    out = tmp_path / "report.json"
    code = main(["run", "--scenario", str(sc_path), "--out", str(out)])
    assert code == EXIT_OK
    assert "success rate 1.000" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["success_rate"] == 1.0
    assert report["sets_total"] == 2
    assert report["seed"] == 40
    assert report["all_tables_consistent"] is True


def test_run_seed_override_and_dump(tmp_path):
    sc_path, _ = _write_scenario(tmp_path)
    out = tmp_path / "report.json"
    dump = tmp_path / "dumps"
    code = main([
        "run", "--scenario", str(sc_path), "--out", str(out),
        "--seed-override", "99", "--dump-dir", str(dump),
    ])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["seed"] == 99
    assert sorted(p.name for p in dump.iterdir()) == ["set_000.json", "set_001.json"]


def test_usage_errors_exit_1(tmp_path, capsys):
    # exit code 2 means "no path found"; a malformed command line is bad input
    sc_path, _ = _write_scenario(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["run", "--scenario", str(sc_path), "--out", out, "--jobs", "2"]) == EXIT_INPUT_ERROR
    assert main(["run", "--scenario", str(sc_path), "--out", out, "--bogus"]) == EXIT_INPUT_ERROR
    assert main([]) == EXIT_INPUT_ERROR
    assert main(["plan", "--scenario", str(sc_path), "--set-index", "abc", "--out", out]) == EXIT_INPUT_ERROR
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    assert "plan" in capsys.readouterr().out


def test_verify_clean_plan_exits_0(tmp_path, capsys):
    sc_path, _ = _write_scenario(tmp_path)
    plan_path = tmp_path / "plan.json"
    main(["plan", "--scenario", str(sc_path), "--out", str(plan_path)])
    capsys.readouterr()
    code = main(["verify", str(plan_path), "--scenario", str(sc_path)])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is True
    assert verdict["violations"] == []


def test_verify_entangled_trajectories_exit_3(tmp_path, capsys):
    # strands weave s1 S2 s1 in the y-projection, a forbidden pattern
    trajectories = [
        {"robot_id": 1, "waypoints": [[0, 1, 0], [0, 2, 1], [0, 3, 2], [0, 3, 3]]},
        {"robot_id": 2, "waypoints": [[-1, 2, 0], [-1, 1, 1], [-1, 1, 2], [-1, 2, 3]]},
        {"robot_id": 3, "waypoints": [[2, 3, 0], [2, 3, 1], [2, 2, 2], [-6, 1, 3]]},
    ]
    traj_path = tmp_path / "weave.json"
    traj_path.write_text(json.dumps(trajectories))
    sc_path, _ = _write_scenario(tmp_path, n=3)
    code = main(["verify", str(traj_path), "--scenario", str(sc_path)])
    assert code == EXIT_VIOLATION
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is False
    words = {v["word"] for v in verdict["violations"]}
    assert "s1 S2 s1" in words
    assert all(v["ids"] == [1, 2, 3] for v in verdict["violations"])


def test_verify_robot_count_mismatch_exits_1(tmp_path, capsys):
    trajectories = [
        {"robot_id": 1, "waypoints": [[0, 0, 0], [1, 0, 1]]},
        {"robot_id": 2, "waypoints": [[3, 0, 0], [3, 1, 1]]},
    ]
    traj_path = tmp_path / "two.json"
    traj_path.write_text(json.dumps(trajectories))
    sc_path, _ = _write_scenario(tmp_path, n=3)
    assert main(["verify", str(traj_path), "--scenario", str(sc_path)]) == EXIT_INPUT_ERROR
    assert "2 robots" in capsys.readouterr().err


def test_bad_trajectory_file_exits_1(tmp_path, capsys):
    traj_path = tmp_path / "bad.json"
    traj_path.write_text(json.dumps([{"robot_id": 1, "waypoints": [[0, 0]]}]))
    sc_path, _ = _write_scenario(tmp_path)
    assert main(["verify", str(traj_path), "--scenario", str(sc_path)]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_plot_paths_and_braid(tmp_path, capsys):
    sc_path, _ = _write_scenario(tmp_path)
    plan_path = tmp_path / "plan.json"
    main(["plan", "--scenario", str(sc_path), "--out", str(plan_path)])

    paths_svg = tmp_path / "paths.svg"
    assert main(["plot", str(plan_path), "--out", str(paths_svg)]) == EXIT_OK
    text = paths_svg.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")

    for axis in (1, 2):
        braid_svg = tmp_path / f"braid{axis}.svg"
        code = main(["plot", str(plan_path), "--braid", str(axis), "--out", str(braid_svg)])
        assert code == EXIT_OK
        assert braid_svg.read_text().startswith("<svg")

    code = main(["plot", str(plan_path), "--braid", "3", "--out", str(tmp_path / "no.svg")])
    assert code == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_console_script_help():
    exe = shutil.which("braidplan")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for word in ("plan", "run", "verify", "plot"):
        assert word in proc.stdout
