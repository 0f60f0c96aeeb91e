"""Command line behavior: formats, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from toricva import cli, fans, intersections
from toricva.harness import STATEMENTS, CheckReport, Hypothesis

from fixtures import DOUBLE_WOUND_CONES, DOUBLE_WOUND_RAYS, SUSPENDED_CONES, SUSPENDED_RAYS


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


@pytest.fixture
def weighted_input(tmp_path, capsys):
    code, out, err = run(capsys, "examples", "--emit", "weighted_112", "--dir", str(tmp_path))
    assert code == 0
    return out.strip()


def test_examples_lists_every_builtin(capsys):
    code, out, err = run(capsys, "examples")
    assert code == 0
    names = [line.split("(")[0] for line in out.strip().splitlines()]
    assert names == list(cli.BUILTINS)


def test_emitted_file_roundtrips(weighted_input, capsys):
    code, doc = run_json(capsys, "analyze", weighted_input, "--dprime", "Dprime", "--json")
    assert code == 0
    assert doc["exit_status"] == 0
    assert doc["verdicts"]["d"] == {"q_cartier": True, "cartier": False, "nef": True}
    assert doc["verdicts"]["combined"]["nef"] is False
    assert doc["divisors"]["perturbation"]["name"] == "Dprime"
    cone0 = doc["cones"][0]
    assert cone0["u_sigma"] == ["-1/2", "-1/2"]
    assert cone0["t"] == "1/2"
    assert {w["value"] for w in doc["walls"]} == {"1/2", 1}


def test_analyze_defaults_to_canonical_perturbation(weighted_input, capsys):
    code, doc = run_json(capsys, "analyze", weighted_input, "--json")
    assert code == 0
    assert doc["divisors"]["perturbation"]["name"] == "Dprime"


def test_analyze_is_byte_deterministic(weighted_input, capsys):
    _, first, _ = run(capsys, "analyze", weighted_input, "--json")
    _, second, _ = run(capsys, "analyze", weighted_input, "--json")
    assert first == second


def test_analyze_very_ample_verdicts(tmp_path, capsys):
    doc = {
        "rank": 2,
        "rays": [[-1, -1], [1, 0], [0, 1]],
        "max_cones": [[0, 1], [0, 2], [1, 2]],
        "divisors": {"D": [3, 0, 0]},
    }
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "analyze", str(path), "--very-ample", "--json")
    assert code == 0
    assert rep["verdicts"]["d"]["very_ample"] is True
    combined = rep["verdicts"]["combined"]
    # the adjoint divisor is basepoint free here yet not very ample
    assert combined["basepoint_free"] is True
    assert combined["very_ample"] is False
    assert any("canonical" in r for r in rep["remarks"])


def test_analyze_combined_very_ample(tmp_path, capsys):
    code, out, err = run(capsys, "examples", "--emit", "ew_simplex(4)", "--dir", str(tmp_path))
    assert code == 0
    code, rep = run_json(
        capsys, "analyze", out.strip(), "--dprime", "Dprime", "--very-ample", "--json"
    )
    assert code == 0
    assert rep["verdicts"]["combined"]["very_ample"] is True


def test_very_ample_analysis_computes_each_hilbert_basis_once(tmp_path, capsys, monkeypatch):
    # D and D+D' are both nef and Cartier: both scan every cone, one basis each
    calls = []
    real = fans.hilbert_basis
    monkeypatch.setattr(fans, "hilbert_basis", lambda c: calls.append(c) or real(c))
    code, out, err = run(capsys, "examples", "--emit", "ew_simplex(4)", "--dir", str(tmp_path))
    code, rep = run_json(capsys, "analyze", out.strip(), "--very-ample", "--json")
    assert code == 0
    assert rep["verdicts"]["d"]["very_ample"] and rep["verdicts"]["combined"]["very_ample"]
    assert len(calls) == len(set(calls)) == len(rep["cones"])


def test_analyze_checks_nef_against_the_polytope(weighted_input, capsys, monkeypatch):
    monkeypatch.setattr(intersections, "poly_contains", lambda p, u: False)
    code, out, err = run(capsys, "analyze", weighted_input, "--json")
    assert code == 2
    assert "curve test and polytope test disagree on nef" in err


def test_verify_wall_bound_report(capsys):
    code, doc = run_json(
        capsys, "verify", "wall-bound", "--builtin", "weighted_112", "--sigma", "1", "--json"
    )
    assert code == 0
    assert doc["summary"] == {"pass": 0, "fail": 0, "not_applicable": 1, "total": 1}
    inst = doc["instances"][0]
    assert inst["status"] == "not_applicable"
    assert inst["conclusion"] is False
    cone = inst["cones"][0]
    assert cone == {"index": 1, "t": "1/2", "m": -3, "lambda_min": 2, "lambda_max": 2}


def test_verify_wall_bound_all_cones(capsys):
    code, doc = run_json(
        capsys, "verify", "wall-bound", "--builtin", "projective_space(2,4)", "--json"
    )
    assert code == 0
    assert doc["summary"]["pass"] == 3


def test_verify_fuzz_batch(capsys):
    code, doc = run_json(capsys, "verify", "generation", "--fuzz", "2", "0", "3", "--json")
    assert code == 0
    assert doc["summary"]["pass"] == 3
    labels = [e["label"] for e in doc["instances"]]
    assert labels == [f"random(dim=2,seed={s})" for s in (0, 1, 2)]


def test_verify_fuzz_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "nef", "--fuzz", "2", "3", "4", "--json")
    _, second, _ = run(capsys, "verify", "nef", "--fuzz", "2", "3", "4", "--json")
    assert first == second


def test_verify_text_mentions_failed_hypotheses(capsys):
    code, out, err = run(capsys, "verify", "generation", "--builtin", "projective_space(2,3)")
    assert code == 0
    assert "not_applicable" in out
    assert "fan_is_not_projective_space" in out
    assert "missing semigroup generator" in out


def test_falsified_statement_exits_two(capsys, monkeypatch):
    def fake(inst):
        return CheckReport(
            "adjoint-nef",
            inst.label,
            (Hypothesis("anything", True),),
            False,
            (),
            (),
        )

    monkeypatch.setitem(STATEMENTS, "nef", dataclasses.replace(STATEMENTS["nef"], check=fake))
    code, doc = run_json(capsys, "verify", "nef", "--builtin", "weighted_112", "--json")
    assert code == 2
    assert doc["exit_status"] == 2
    assert doc["summary"]["fail"] == 1


def test_internal_invariant_exits_two(capsys, monkeypatch):
    def boom(inst):
        raise RuntimeError("wall scan disagreement")

    monkeypatch.setitem(STATEMENTS, "nef", dataclasses.replace(STATEMENTS["nef"], check=boom))
    code, out, err = run(capsys, "verify", "nef", "--builtin", "weighted_112")
    assert code == 2
    assert "internal invariant" in err


def test_hilbert_report(weighted_input, capsys):
    code, doc = run_json(capsys, "hilbert", weighted_input, "--sigma", "0", "--d", "D", "--json")
    assert code == 0
    assert doc["basis"] == [[-1, 1], [0, 1], [1, 1]]
    assert all(not row["in_shifted_polytope"] for row in doc["membership"])


def test_input_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv in (
        ["analyze", str(bad)],
        ["analyze", str(tmp_path / "missing.json")],
        ["verify", "nef"],
        ["verify", "nef", "--fuzz", "4", "0", "1"],
        ["verify", "nef", "--builtin", "weighted_112", "--r", "1"],
        ["verify", "wall-bound", "--builtin", "weighted_112", "--r", "0"],
        ["verify", "wall-bound", "--builtin", "weighted_112", "--r", "x/y"],
        ["verify", "generation", "--builtin", "projective_space(2,3)", "--fuzz", "2", "0", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "input error" in err


def test_input_validation_messages(tmp_path, capsys):
    cases = [
        (
            {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [1, 2]]},
            "complete",
        ),
        ({"rank": 1, "rays": [[1]], "max_cones": [[0]]}, "rank"),
        (
            {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1, 2]]},
            "not a fan: cone 0 is not pointed",
        ),
        (
            {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], []]},
            "input error: not a fan: cone 1 has no rays",
        ),
        (
            {
                "rank": 2,
                "rays": [[1, 1], [-1, 1], [0, -1]],
                "max_cones": [[0, 1], [1, 2], [0, 2]],
                "divisors": {"D": [0.5, 0, 0]},
            },
            "floats",
        ),
        (
            {
                "rank": 2,
                "rays": [[1, 1], [-1, 1], [0, -1]],
                "max_cones": [[0, 1], [1, 2], [0, 2]],
                "divisors": {"D": [1, 0]},
            },
            "coefficients",
        ),
    ]
    for doc, needle in cases:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert needle in err, (needle, err)


@pytest.mark.parametrize(
    "rank, rays, cones",
    [(2, DOUBLE_WOUND_RAYS, DOUBLE_WOUND_CONES), (3, SUSPENDED_RAYS, SUSPENDED_CONES)],
    ids=["double-wound", "suspended"],
)
def test_doubly_covering_fan_is_an_input_error(tmp_path, capsys, rank, rays, cones):
    path = tmp_path / "wound.json"
    path.write_text(json.dumps({"rank": rank, "rays": rays, "max_cones": cones}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "input error: not a fan: cones 0 and 3 overlap" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["missing", "file"])
def test_examples_unwritable_dir_is_an_input_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "deeper"
    if where == "file":
        target = tmp_path / "plain.txt"
        target.write_text("")
    code, out, err = run(capsys, "examples", "--emit", "ew_simplex(4)", "--dir", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"toricva: input error: cannot write {target}")


@pytest.mark.parametrize("options", [["--json"], ["--sigma", "1"]])
def test_verify_input_may_follow_options(weighted_input, capsys, options):
    statement = "nef" if options == ["--json"] else "wall-bound"
    before = run(capsys, "verify", statement, weighted_input, *options)
    after = run(capsys, "verify", statement, *options, weighted_input)
    assert before[0] == 0
    assert after == before
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", statement, *options, weighted_input, "extra"])
    assert exc.value.code == 1
    assert "input error: unrecognized arguments: extra" in capsys.readouterr().err


def test_missing_divisor_name(weighted_input, capsys):
    code, out, err = run(capsys, "analyze", weighted_input, "--d", "nope")
    assert code == 1
    assert "no divisor named" in err


def test_rational_coefficients_accepted(tmp_path, capsys):
    doc = {
        "rank": 2,
        "rays": [[1, 1], [-1, 1], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
        "divisors": {"D": ["3/2", 0, 0]},
    }
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert rep["divisors"]["d"]["coefficients"] == ["3/2", 0, 0]


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "toricva.cli", "verify", "nef", "--builtin", "ew_simplex(4)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_nonpositive_interior_bound_is_an_input_error(weighted_input, capsys, bound):
    code, out, err = run(capsys, "verify", "interior-bound", weighted_input, "--interior-bound", bound)
    assert code == 1
    assert out == ""
    assert "input error: --interior-bound must be at least 1" in err
    assert "Traceback" not in err


def test_interior_bound_over_the_box_cap_is_an_input_error(capsys):
    code, out, err = run(
        capsys, "verify", "interior-bound", "--builtin", "ew_simplex(4)", "--interior-bound", "1000"
    )
    assert code == 1
    assert out == ""
    assert "input error: ew_simplex(t=4): interior-point bound 1000 asks for" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "statement, flag, value",
    [
        (name, flag, value)
        for name in STATEMENTS
        for flag, option, value in (
            ("--sigma", "sigma", "1"),
            ("--r", "r", "1"),
            ("--interior-bound", "interior_bound", "3"),
        )
        if option not in STATEMENTS[name].options
    ],
)
def test_option_a_statement_does_not_take_is_an_input_error(capsys, statement, flag, value):
    code, out, err = run(capsys, "verify", statement, "--builtin", "weighted_112", flag, value)
    assert code == 1
    assert out == ""
    assert f"input error: {flag} does not apply to {statement}" in err
    assert "Traceback" not in err


def test_options_are_checked_before_any_instance_is_built(capsys):
    code, out, err = run(capsys, "verify", "nef", "--builtin", "no_such_builtin", "--sigma", "0")
    assert code == 1
    assert "input error: --sigma does not apply to nef" in err


def test_interior_bound_defaults_to_five(capsys):
    code, out, err = run(capsys, "verify", "interior-bound", "--builtin", "weighted_112", "--sigma", "0")
    assert code == 0
    assert "coordinate bound 5" in out


def test_verify_choices_follow_the_statement_table():
    verify = next(
        a for a in cli.build_parser()._actions if isinstance(a, cli.argparse._SubParsersAction)
    ).choices["verify"]
    (statement,) = [a for a in verify._actions if a.dest == "statement"]
    assert statement.choices == list(STATEMENTS)


def test_verify_text_tallies_hypothesis_rejections(capsys):
    code, out, err = run(capsys, "verify", "generation", "--builtin", "projective_space(2,2)")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "summary: pass=0 fail=0 not_applicable=1"
    assert lines[-1] == (
        "hypothesis rejections: fan_is_not_projective_space=1, wall_values_meet_threshold=1"
    )
    code, out, err = run(capsys, "verify", "nef", "--builtin", "ew_simplex(4)")
    assert code == 0
    assert "hypothesis rejections" not in out
    code, out, err = run(capsys, "verify", "generation", "--builtin", "projective_space(2,2)", "--json")
    assert "hypothesis rejections" not in out


def test_sharpness_demo_script_runs():
    repo = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "sharpness_demo.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all flips where expected" in proc.stdout
