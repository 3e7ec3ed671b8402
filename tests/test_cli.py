"""End-to-end tests of the command line: file contracts and exit codes."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplan import cli
from braidplan.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NO_PATH,
    EXIT_OK,
    EXIT_VIOLATION,
    load_scenario,
    main,
    scenario_to_dict,
)
from braidplan.errors import ConfigurationError
from braidplan.harness import MAX_M, RunMetrics, SetResult, make_scenario
from braidplan.planner import PlanResult, SearchTrace, from_serializable
from hostile_json import hostile


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
    tables = from_serializable(plan_doc["final_braids"])
    assert [t.n for t in tables] == [3, 3]
    for traj in plan_doc["trajectories"]:
        rid = traj["robot_id"]
        first, last = traj["waypoints"][0], traj["waypoints"][-1]
        assert first[:2] == doc["initial_positions"][rid - 1]
        assert last[:2] == doc["target_sets"][0][rid - 1]
    assert len(plan_doc["permutation_path"]) == plan_doc["stats"]["actions"] + 1


def test_plan_budget_exhausted_exits_2(tmp_path, capsys, monkeypatch):
    sc_path, _ = _write_scenario(tmp_path)
    failed = PlanResult((), None, SearchTrace(1, 0, 0, 1, "max_expansions"))
    monkeypatch.setattr(cli, "plan", lambda *args, **kwargs: failed)
    out = tmp_path / "plan.json"
    code = main(["plan", "--scenario", str(sc_path), "--out", str(out)])
    assert code == EXIT_NO_PATH
    assert "no path found" in capsys.readouterr().err
    assert not out.exists()


def test_input_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    absent = str(tmp_path / "absent.json")
    assert main(["plan", "--scenario", absent, "--out", out]) == EXIT_INPUT_ERROR

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


def test_final_braids_keep_the_two_axis_form(tmp_path):
    # a plan file and a run report write the planner's tables at pi/2 and 0
    # as one object: "axes": 2, an "axis" per entry, entries by ids first
    sc_path, _ = _write_scenario(tmp_path)
    plan_out, run_out = tmp_path / "plan.json", tmp_path / "report.json"
    assert main(["plan", "--scenario", str(sc_path), "--out", str(plan_out)]) == EXIT_OK
    assert main(["run", "--scenario", str(sc_path), "--out", str(run_out)]) == EXIT_OK
    for path in (plan_out, run_out):
        doc = json.loads(path.read_text())["final_braids"]
        assert (doc["n"], doc["axes"]) == (3, 2)
        for key, ids in (("pairs", [[1, 2], [1, 3], [2, 3]]), ("triplets", [[1, 2, 3]])):
            assert [(e["ids"], e["axis"]) for e in doc[key]] == [
                (i, axis) for i in ids for axis in (1, 2)
            ]
            assert all(set(e) == {"ids", "axis", "word", "violated"} for e in doc[key])


def test_run_dump_dir(tmp_path):
    sc_path, _ = _write_scenario(tmp_path)
    out = tmp_path / "report.json"
    dump = tmp_path / "dumps"
    code = main(["run", "--scenario", str(sc_path), "--out", str(out), "--dump-dir", str(dump)])
    assert code == EXIT_OK
    assert sorted(p.name for p in dump.iterdir()) == ["set_000.json", "set_001.json"]


def test_record_layout(tmp_path, capsys):
    """The keys of every record, in order.  The run report is the
    ``RunMetrics`` fields plus ``seed``, each result the ``SetResult``
    fields, and a dump the result plus the targets and the episode; the
    plan file and the ``verify`` verdict are pinned by name."""
    sc_path, doc = _write_scenario(tmp_path)
    out, dump, plan_path = tmp_path / "report.json", tmp_path / "dumps", tmp_path / "plan.json"
    run_cmd = ["run", "--scenario", str(sc_path), "--out", str(out), "--dump-dir", str(dump)]
    assert main(run_cmd) == EXIT_OK
    report = json.loads(out.read_text())
    assert list(report) == [f.name for f in dataclasses.fields(RunMetrics)] + ["seed"]
    result_keys = [f.name for f in dataclasses.fields(SetResult)]
    episode_keys = ["permutation_path", "trajectories"]
    for result in report["results"]:
        assert list(result) == result_keys
        payload = json.loads((dump / f"set_{result['set_index']:03d}.json").read_text())
        assert list(payload) == [*result_keys, "targets", *episode_keys]
        assert {key: payload[key] for key in result_keys} == result
        assert payload["targets"] == doc["target_sets"][result["set_index"]]

    assert main(["plan", "--scenario", str(sc_path), "--out", str(plan_path)]) == EXIT_OK
    plan_doc = json.loads(plan_path.read_text())
    assert list(plan_doc) == [
        "trajectories", "permutation_path", "final_braids", "stats", "set_index",
        "workspace", "cell_size", "d_safe", "speed", "bases", "targets",
    ]
    assert list(plan_doc["stats"]) == [
        "actions", "expanded", "generated", "rejected_by_braid", "peak_open", "reason",
        "plan_time_s",
    ]
    assert list(plan_doc["workspace"]) == ["xmin", "xmax", "ymin", "ymax"]
    assert list(plan_doc["permutation_path"][0]) == ["pi1", "pi2"]
    assert list(plan_doc["trajectories"][0]) == ["robot_id", "waypoints"]
    capsys.readouterr()
    assert main(["verify", str(plan_path), "--scenario", str(sc_path)]) == EXIT_OK
    assert list(json.loads(capsys.readouterr().out)) == ["ok", "violations", "perturbations"]


def test_usage_errors_exit_1(tmp_path, capsys):
    # exit code 2 means "no path found"; a malformed command line is bad input
    sc_path, _ = _write_scenario(tmp_path)
    out = str(tmp_path / "report.json")
    run_cmd = ["run", "--scenario", str(sc_path), "--out", out]
    assert main([*run_cmd, "--jobs", "2"]) == EXIT_INPUT_ERROR
    assert main([*run_cmd, "--seed-override", "99"]) == EXIT_INPUT_ERROR
    assert main([*run_cmd, "--bogus"]) == EXIT_INPUT_ERROR
    assert main([]) == EXIT_INPUT_ERROR
    plan_cmd = ["plan", "--scenario", str(sc_path), "--set-index", "abc", "--out", out]
    assert main(plan_cmd) == EXIT_INPUT_ERROR
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
    assert all(list(v) == ["ids", "axis_angle", "time", "word"] for v in verdict["violations"])


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


def test_plot_malformed_plan_file_exits_1(tmp_path, capsys):
    sc_path, _ = _write_scenario(tmp_path)
    plan_path = tmp_path / "plan.json"
    main(["plan", "--scenario", str(sc_path), "--out", str(plan_path)])
    doc = json.loads(plan_path.read_text())
    broken = [
        ("workspace", {}, "xmin"),
        ("workspace", {**doc["workspace"], "xmin": "0"}, "xmin"),
        ("bases", [[0, "x"]], "bases"),
    ]
    for key, value, named in broken:
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps({**doc, key: value}))
        capsys.readouterr()
        assert main(["plot", str(bad), "--out", str(tmp_path / "bad.svg")]) == EXIT_INPUT_ERROR
        assert named in capsys.readouterr().err
    assert not (tmp_path / "bad.svg").exists()


def test_oversized_json_integers_exit_1(tmp_path, capsys):
    # 10**400 is valid JSON but too large for a float
    huge = 10**400
    sc_path, doc = _write_scenario(tmp_path)
    plan_path = tmp_path / "plan.json"
    main(["plan", "--scenario", str(sc_path), "--out", str(plan_path)])
    plan_doc = json.loads(plan_path.read_text())

    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**doc, "workspace": {**doc["workspace"], "xmin": huge}}))
    far_base = tmp_path / "far_base.json"
    far_base.write_text(json.dumps({**doc, "bases": [[huge, 0]] + doc["bases"][1:]}))
    far_waypoint = tmp_path / "far_waypoint.json"
    trajectories = plan_doc["trajectories"]
    trajectories[0]["waypoints"][0][0] = huge
    far_waypoint.write_text(json.dumps({**plan_doc, "trajectories": trajectories}))

    out = str(tmp_path / "out")
    for bad, named in ((wide, "xmin"), (far_base, "bases")):
        for argv in (
            ["plan", "--scenario", str(bad), "--out", out],
            ["run", "--scenario", str(bad), "--out", out],
            ["verify", str(plan_path), "--scenario", str(bad)],
        ):
            capsys.readouterr()
            assert main(argv) == EXIT_INPUT_ERROR
            assert named in capsys.readouterr().err
    for argv in (
        ["verify", str(far_waypoint), "--scenario", str(sc_path)],
        ["plot", str(far_waypoint), "--out", out],
        ["plot", str(far_waypoint), "--braid", "1", "--out", out],
    ):
        capsys.readouterr()
        assert main(argv) == EXIT_INPUT_ERROR
        assert "waypoints" in capsys.readouterr().err


def test_scenario_m_above_bound_exits_1(tmp_path, capsys):
    path, _ = _write_scenario(tmp_path, m=1_000_000_000)
    with pytest.raises(ConfigurationError, match="m = 1000000000"):
        load_scenario(path)
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "run.json")])
    assert code == EXIT_INPUT_ERROR
    assert "m = 1000000000" in capsys.readouterr().err
    path, _ = _write_scenario(tmp_path, m=MAX_M)
    assert load_scenario(path).m == MAX_M
    path, _ = _write_scenario(tmp_path, m=MAX_M + 1)
    with pytest.raises(ConfigurationError):
        load_scenario(path)


def test_scenario_file_with_legacy_height_loads(tmp_path):
    # older scenario files carried an unused workspace.height and the
    # search knobs bias and max_expansions, which the planner now fixes
    path, doc = _write_scenario(tmp_path)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps({
        **doc, "workspace": {**doc["workspace"], "height": 1.0},
        "bias": 1.5, "max_expansions": 1,
    }))
    assert "height" not in doc["workspace"]
    assert "bias" not in doc and "max_expansions" not in doc
    assert load_scenario(legacy) == load_scenario(path)


# ---------------------------------------------------------------------------
# Hostile JSON: every subcommand exits with a documented code.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A valid 3-robot scenario file and a plan file planned from it."""
    root = tmp_path_factory.mktemp("hostile")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(scenario_to_dict(make_scenario(3, 2, 40))))
    plan_path = root / "plan.json"
    assert main(["plan", "--scenario", str(scenario), "--out", str(plan_path)]) == EXIT_OK
    return root, scenario, plan_path


_EXITS = {EXIT_OK, EXIT_INPUT_ERROR, EXIT_NO_PATH, EXIT_VIOLATION}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_hostile_scenario_file_exits_with_a_code(valid_files, data):
    root, scenario, plan_path = valid_files
    bad = root / "bad_scenario.json"
    bad.write_text(json.dumps(data.draw(hostile(json.loads(scenario.read_text())))))
    out = str(root / "out")
    assert {main(argv) for argv in (
        ["plan", "--scenario", str(bad), "--out", out],
        ["run", "--scenario", str(bad), "--out", out],
        ["verify", str(plan_path), "--scenario", str(bad)],
    )} <= _EXITS


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_hostile_plan_file_exits_with_a_code(valid_files, data):
    root, scenario, plan_path = valid_files
    bad = root / "bad_plan.json"
    bad.write_text(json.dumps(data.draw(hostile(json.loads(plan_path.read_text())))))
    out = str(root / "out")
    assert {main(argv) for argv in (
        ["verify", str(bad), "--scenario", str(scenario)],
        ["plot", str(bad), "--out", out],
        ["plot", str(bad), "--braid", "1", "--out", out],
    )} <= _EXITS


def test_console_script_help():
    exe = shutil.which("braidplan")
    assert exe is not None
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for word in ("plan", "run", "verify", "plot"):
        assert word in proc.stdout
