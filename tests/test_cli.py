"""Command line behavior: formats, determinism, exit codes."""

import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import toricva
from toricva import cli, cones, divisors, fans, harness, intersections, lambdas, linalg, semigroups
from toricva.harness import STATEMENTS, CheckReport, Hypothesis
from toricva.semigroups import MAX_BASIS_ELEMENTS

from fixtures import (
    BUILTIN_ARGS,
    DOUBLE_WOUND_CONES,
    DOUBLE_WOUND_RAYS,
    SUSPENDED_CONES,
    SUSPENDED_RAYS,
)
from oracles import reference_enc_scalar, reference_hilbert_basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    # D is nef, so its offsets are all nonnegative; negative curve values disagree
    monkeypatch.setattr(intersections, "wall_value", lambda offsets, wall: Fraction(-1))
    code, out, err = run(capsys, "analyze", weighted_input, "--json")
    assert code == 2
    assert f"{weighted_input}: internal: curve test and polytope test disagree on nef" in err


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


@pytest.mark.parametrize(
    "source, where",
    [
        (("--builtin", "weighted_112", "--sigma", "1"), "weighted_112(t=1) cone 1: "),
        (("--fuzz", "2", "0", "2"), "random(dim=2,seed=0) cone 0: "),
    ],
)
def test_internal_error_names_the_instance_and_cone(capsys, monkeypatch, source, where):
    def broken(self, cells, z, sign):
        raise RuntimeError("internal: witness does not certify the coefficient sum")

    monkeypatch.setattr(lambdas.CoefficientSums, "_certify", broken)
    code, out, err = run(capsys, "verify", "interior-bound", *source)
    assert code == 2
    assert err == (
        f"toricva: internal invariant violated: {where}"
        "internal: witness does not certify the coefficient sum\n"
    )
    assert "Traceback" not in err


def _raise(message):
    def broken(*args):
        raise RuntimeError(message)

    return broken


def _offsets_bent_on_cone_0(fan, d):
    """The true local data, with every offset of cone 0 raised by one."""
    local, ((es, q), *rest) = divisors.local_offsets(fan, d)
    return local, ((tuple(e + 1 for e in es), q), *rest)


@pytest.mark.parametrize(
    "argv, target, name, value, where",
    [
        # a --fuzz draw builds its fan, which checks the wall normals' signs
        (
            ("verify", "nef", "--fuzz", "2", "0", "2"),
            fans, "pair", lambda u, v: abs(linalg.pair(u, v)),
            "internal invariant violated: random(dim=2,seed=0): internal: wall (0,) of cones 0 "
            "and 1: normal not negative beyond the wall",
        ),
        (
            ("verify", "nef", "--builtin", "weighted_112"),
            fans, "pair", lambda u, v: abs(linalg.pair(u, v)),
            "internal invariant violated: weighted_112: internal: wall (0,) of cones 0 "
            "and 2: normal not negative beyond the wall",
        ),
        (
            ("verify", "nef", "--fuzz", "4", "0", "1"),
            None, None, None,
            "input error: random(dim=4,seed=0): dimension must be 2 or 3",
        ),
        (
            ("analyze", "DOC"),
            intersections, "wall_value", lambda offsets, wall: Fraction(-1),
            "internal invariant violated: DOC: internal: curve test and polytope test "
            "disagree on nef",
        ),
        (
            ("verify", "nef", "DOC"),
            intersections, "local_offsets", _offsets_bent_on_cone_0,
            "internal invariant violated: DOC: internal: wall (1,) of cones 0 and 1: "
            "wall value depends on the chosen outside ray",
        ),
        (
            ("hilbert", "DOC", "--sigma", "1"),
            semigroups, "_certify_rank2",
            _raise("internal: the rank-2 basis does not end at the second ray"),
            "internal invariant violated: DOC: dual of maximal cone 1: internal: "
            "the rank-2 basis does not end at the second ray",
        ),
        (
            ("hilbert", "DOC", "--sigma", "1", "--d", "D"),
            intersections, "wall_value", lambda offsets, wall: Fraction(-1),
            "internal invariant violated: DOC: internal: curve test and polytope test "
            "disagree on nef",
        ),
    ],
    ids=[
        "fuzz-draw", "wall", "fuzz-input", "analyze", "wall-value", "hilbert", "hilbert-divisor"
    ],
)
def test_internal_error_names_the_input_and_wall(
    weighted_input, capsys, monkeypatch, argv, target, name, value, where
):
    if target is not None:
        monkeypatch.setattr(target, name, value)
    code, out, err = run(capsys, *(weighted_input if a == "DOC" else a for a in argv))
    assert code == (2 if "internal invariant" in where else 1)
    assert out == ""
    assert err == f"toricva: {where.replace('DOC', weighted_input)}\n"


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


def _small_doc(ray="1", coeff="1"):
    """The plane's fan and one divisor, with raw JSON text for the first
    ray's first coordinate and the divisor's first coefficient."""
    return (
        f'{{"rank": 2, "rays": [[{ray}, 0], [0, 1], [-1, -1]], '
        f'"max_cones": [[0, 1], [1, 2], [2, 0]], "divisors": {{"D": [{coeff}, 0, 0]}}}}'
    )


@pytest.mark.parametrize("field", ["ray", "coeff"])
@pytest.mark.parametrize(
    "argv", [("analyze", "DOC"), ("verify", "nef", "DOC"), ("hilbert", "DOC", "--sigma", "0")]
)
def test_overlong_json_integer_is_an_input_error(tmp_path, capsys, field, argv):
    # json.load refuses an integer past 4,300 digits with a ValueError that
    # is not a JSONDecodeError
    assert json.loads(_small_doc())
    path = tmp_path / "long.json"
    path.write_text(_small_doc(**{field: "1" * 5000}))
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert code == 1
    assert out == ""
    assert f"input error: {path}: invalid JSON: Exceeds the limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1e200000", "1e10000000", "0.5", "1/2 ", "1_000"])
@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_only_integers_and_fractions_are_rationals(tmp_path, capsys, value, flags):
    # Fraction("1e10000000") alone runs for seconds, and "1e200000" was
    # accepted and then failed while printing
    path = tmp_path / "exp.json"
    path.write_text(_small_doc(coeff=json.dumps(value)))
    for argv, where in (
        (("analyze", str(path)), f"{path}: divisor 'D'"),
        (("verify", "wall-bound", "--builtin", "weighted_112", "--r", value), "--r"),
    ):
        start = time.monotonic()
        code, out, err = run(capsys, *argv, *flags)
        assert time.monotonic() - start < 1.0, argv
        assert code == 1
        assert out == ""
        assert f"input error: {where}: {value!r} is not a rational" in err
        assert "Traceback" not in err


def test_input_validation_messages(tmp_path, capsys):
    cases = [
        (
            {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [1, 2]]},
            "complete",
        ),
        ({"rank": 1, "rays": [[1]], "max_cones": [[0]]}, "rank"),
        (
            {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1, 2]]},
            "input error: PATH: not a fan: cone 0 is not pointed",
        ),
        (
            {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], []]},
            "input error: PATH: not a fan: cone 1 has no rays",
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
        assert needle.replace("PATH", str(path)) in err, (needle, err)


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
    assert f"input error: {path}: not a fan: cones 0 and 3 overlap" in err
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


def test_very_ample_on_a_weighted_plane_past_the_old_point_cap(tmp_path, capsys, monkeypatch):
    # P(1,1,1000): the dual of cone 0 has lattice index 1000, which the
    # parallelepiped cap of 999 points refused
    doc = {
        "rank": 2,
        "rays": [[-1, -1000], [1, 0], [0, 1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
        "divisors": {"D": [0, 0, 1], "Dprime": [0, 0, 1]},
    }
    path = tmp_path / "p11_1000.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path), "--very-ample", "--json")
    assert code == 0 and err == ""
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["d"]["very_ample"] and verdicts["combined"]["very_ample"]
    monkeypatch.setattr(fans, "hilbert_basis", reference_hilbert_basis)
    assert run(capsys, "analyze", str(path), "--very-ample", "--json") == (0, out, "")


CAP_COMMANDS = [
    ("hilbert", "DOC", "--sigma", "0"),
    ("analyze", "DOC", "--very-ample"),
    ("verify", "generation", "DOC"),
]


def _run_over_a_cap(tmp_path, capsys, doc, argv):
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    return f"input error: {path}: dual of maximal cone 0: ", err


@pytest.mark.parametrize("height", [1000, 20000])
@pytest.mark.parametrize("argv", CAP_COMMANDS)
def test_hilbert_basis_over_the_point_cap_is_an_input_error(tmp_path, capsys, height, argv):
    # P(1,1,1,height): the dual of cone 0 is a rank-3 cone of lattice index
    # height^2, so the reduction would enumerate that many parallelepiped points
    doc = {
        "rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -height]],
        "max_cones": [[0, 1, 3], [0, 1, 2], [0, 2, 3], [1, 2, 3]],
        "divisors": {"D": [1, 1, 1, 1]},
    }
    where, err = _run_over_a_cap(tmp_path, capsys, doc, argv)
    assert f"{where}the Hilbert basis needs {height**2} parallelepiped points, more than 999" in err


@pytest.mark.parametrize("height", [MAX_BASIS_ELEMENTS, 10**30])
@pytest.mark.parametrize("argv", CAP_COMMANDS)
def test_rank2_hilbert_basis_over_the_element_cap_is_an_input_error(
    tmp_path, capsys, height, argv
):
    # the dual of cone 0 has height + 1 basis elements: the count refuses it
    # before any is built, where building 10^30 + 1 of them never finishes
    doc = {
        "rank": 2,
        "rays": [[1, 0], [-1, height], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 0]],
        "divisors": {"D": [1, 1, 1]},
    }
    where, err = _run_over_a_cap(tmp_path, capsys, doc, argv)
    assert f"{where}the Hilbert basis has {height + 1} elements, more than 10000" in err


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


@pytest.mark.parametrize("flag", ["--d", "--dprime"])
@pytest.mark.parametrize("source", [("--builtin", "ew_simplex(4)"), ("--fuzz", "2", "0", "1")])
def test_divisor_names_without_an_input_document_are_an_input_error(capsys, source, flag):
    code, out, err = run(capsys, "verify", "nef", *source, flag, "NOPE")
    assert code == 1
    assert out == ""
    assert f"input error: {flag} names a divisor of an INPUT document" in err
    assert "Traceback" not in err


def test_options_are_checked_before_any_instance_is_built(capsys):
    code, out, err = run(capsys, "verify", "nef", "--builtin", "no_such_builtin", "--sigma", "0")
    assert code == 1
    assert "input error: --sigma does not apply to nef" in err


def test_interior_bound_defaults_to_five(capsys):
    code, out, err = run(capsys, "verify", "interior-bound", "--builtin", "weighted_112", "--sigma", "0")
    assert code == 0
    assert "coordinate bound 5" in out


P2_FAILING_JSON = """{
  "command": "verify",
  "exit_status": 0,
  "instances": [
    {
      "applicable": false,
      "conclusion": false,
      "cones": [
        {
          "index": 0,
          "lambda_max": 4,
          "lambda_min": 4,
          "m": null,
          "t": null
        }
      ],
      "failures": [
        {
          "index": 0,
          "kind": "cone",
          "message": "interior point (1, 1) has smaller maximum sum"
        },
        {
          "index": 0,
          "kind": "cone",
          "message": "interior point (1, 2) has smaller maximum sum"
        },
        {
          "index": 0,
          "kind": "cone",
          "message": "interior point (2, 1) has smaller maximum sum"
        }
      ],
      "hypotheses": [
        {
          "detail": "",
          "holds": true,
          "name": "perturbation_q_cartier"
        },
        {
          "detail": "",
          "holds": false,
          "name": "perturbation_between_zero_and_canonical"
        }
      ],
      "label": "p2.json",
      "notes": [
        "checked 9 interior lattice points with coordinate bound 3"
      ],
      "statement": "interior-point-bound",
      "status": "not_applicable"
    }
  ],
  "remarks": [
    "projectivity is not certified for hand-entered fans"
  ],
  "statement": "interior-bound",
  "summary": {
    "fail": 0,
    "not_applicable": 1,
    "pass": 0,
    "total": 1
  }
}
"""


def test_interior_bound_failures_are_pinned(tmp_path, monkeypatch, capsys):
    doc = {
        "rank": 2,
        "rays": [[-1, -1], [1, 0], [0, 1]],
        "max_cones": [[1, 2], [0, 2], [0, 1]],
        "divisors": {"D": [1, 0, 0], "Dprime": [-2, -2, -2]},
    }
    (tmp_path / "p2.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    args = ("verify", "interior-bound", "p2.json", "--dprime", "Dprime", "--sigma", "0")
    code, out, err = run(capsys, *args, "--interior-bound", "3", "--json")
    assert (code, out, err) == (0, P2_FAILING_JSON, "")


def test_verify_choices_follow_the_statement_table():
    verify = next(
        a for a in cli.build_parser()._actions if isinstance(a, cli.argparse._SubParsersAction)
    ).choices["verify"]
    (statement,) = [a for a in verify._actions if a.dest == "statement"]
    assert statement.choices == list(STATEMENTS)


def run_exiting(capsys, *argv):
    """run(), with an argparse exit read as its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_builds_its_parser_once(weighted_input, capsys, monkeypatch):
    built = []
    real_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    commands = [
        ("examples",),
        ("analyze", weighted_input, "--json"),
        ("verify", "nef", weighted_input),
        ("hilbert", weighted_input, "--sigma", "0"),
        ("verify", "bogus"),
    ]
    for _ in range(3):
        for argv in commands:
            assert run_exiting(capsys, *argv)[0] == (1 if argv[-1] == "bogus" else 0)
    # The root parser and one subparser per subcommand, all in the first call.
    assert len(built) == 5
    assert built[0] == "toricva"


def test_shared_parser_carries_nothing_between_calls(weighted_input, capsys):
    commands = [
        ("verify", "wall-bound", weighted_input, "--sigma", "0", "--r", "1", "--json"),
        ("verify", "wall-bound", weighted_input, "--json"),
        ("verify", "nef", "--fuzz", "2", "0", "1"),
        ("verify", "bogus"),
        ("verify", "--help"),
        ("hilbert", weighted_input, "--sigma", "0", "--d", "D", "--json"),
        ("analyze", weighted_input, "--very-ample"),
    ]
    cli.build_parser.cache_clear()
    shared = [run_exiting(capsys, *argv) for argv in commands]
    fresh = []
    for argv in commands:
        cli.build_parser.cache_clear()
        fresh.append(run_exiting(capsys, *argv))
    assert [r[0] for r in shared] == [0, 0, 0, 1, 0, 0, 0]
    assert shared == fresh


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


def test_conclusions_flip_at_the_thresholds(capsys):
    # Every check still computes its conclusion where a hypothesis fails, so
    # a family shows its flip one step below where the statement applies.
    # Projective space is why nef-sharp excludes it: its adjoint divisor
    # becomes nef only at t = n + 1, one step later than on the other fans.
    flips = {
        "generation": ["ew_simplex(3)", "ew_simplex(4)"],
        "nef-sharp": [
            "projective_space(2,2)",
            "projective_space(2,3)",
            "projective_space(3,3)",
            "projective_space(3,4)",
        ],
    }
    for statement, builtins in flips.items():
        for i, expr in enumerate(builtins):
            code, doc = run_json(capsys, "verify", statement, "--builtin", expr, "--json")
            assert code == 0
            (entry,) = doc["instances"]
            assert entry["conclusion"] is (i % 2 == 1), (statement, expr)
            if expr == "ew_simplex(3)":
                assert entry["failures"][0]["message"] == "missing semigroup generator (-1, 1, 1)"


def _cube_face_fan(n):
    """The face fan of [-1, 1]^n: its vertices as rays, a cone per facet."""
    rays = [list(v) for v in itertools.product((-1, 1), repeat=n)]
    cones = [
        [j for j, v in enumerate(rays) if v[i] == s] for i in range(n) for s in (-1, 1)
    ]
    return {"rank": n, "rays": rays, "max_cones": cones, "divisors": {"D": [1] * len(rays)}}


def _pyramid_face_fan(k):
    """The face fan of a pyramid over a k-gon at height 1 with its apex at
    (0, 0, -1): the base cone has k rays, and so has its dual."""
    rays = [[i, i * i - 1, 1] for i in range(-(k // 2), k - k // 2)] + [[0, 0, -1]]
    cones = [list(range(k))] + [[i, (i + 1) % k, k] for i in range(k)]
    return {"rank": 3, "rays": rays, "max_cones": cones, "divisors": {"D": [1] * (k + 1)}}


def _cross_polytope_face_fan(n):
    """The face fan of conv(+-e_i) in rank n: 2n rays and 2^n regular cones."""
    rays = [[s * int(j == i) for j in range(n)] for i in range(n) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(bits)] for bits in itertools.product((0, 1), repeat=n)]
    return {"rank": n, "rays": rays, "max_cones": cones, "divisors": {"D": [1] * len(rays)}}


def _plane_fan(m):
    """A complete plane fan on 2m + 2 rays: (1, 0), then (i, 1) for i from
    m - 1 down to 0, then (-1, 0), then the negatives of the (i, 1)."""
    upper = [[i, 1] for i in range(m - 1, -1, -1)]
    rays = [[1, 0]] + upper + [[-1, 0]] + [[-x, -y] for x, y in upper]
    cones = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
    return {"rank": 2, "rays": rays, "max_cones": cones, "divisors": {"D": [1] * len(rays)}}


def _moment_cone_doc(rank, k):
    """A document whose cone 0 is the cone over the points (1, t, ..., t^(rank - 1))
    for t = 1..k of the moment curve, over a cyclic polytope; it is refused
    there, before anything else about the fan is asked."""
    rays = [[t**i for i in range(rank)] for t in range(1, k + 1)]
    return {"rank": rank, "rays": rays, "max_cones": [list(range(k))], "divisors": {"D": [1] * k}}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (
            _moment_cone_doc(7, 20),
            ("analyze", "DOC"),
            "DOC: cone 0: the facet search needs at least 116843 pair tests, more than 100000",
        ),
        (
            None,
            ("verify", "nef", "--builtin", "projective_space(40)"),
            "projective_space(40): the fan has rank 40",
        ),
        (_plane_fan(128), ("analyze", "DOC"), "DOC: the fan has 258 rays, more than 256"),
        (_plane_fan(128), ("hilbert", "DOC", "--sigma", "0"), "DOC: the fan has 258 rays"),
    ],
    ids=["moment-curve-cone", "rank-40", "258-rays", "258-rays-hilbert"],
)
def test_work_over_a_cap_is_refused_before_it_starts(tmp_path, capsys, doc, argv, message):
    # before the caps the rank-6 cube ran for 90 s and projective_space(40)
    # for 8 s
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert out == ""
    assert f"toricva: input error: {message.replace('DOC', str(path))}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc, argv",
    [
        (_cube_face_fan(6), ("analyze", "DOC")),
        (_pyramid_face_fan(51), ("analyze", "DOC", "--json")),
    ],
    ids=["rank-6-cube", "51-gon-dual"],
)
def test_fans_past_the_old_facet_scan_cap_run(tmp_path, capsys, doc, argv):
    # the subset scan refused both: C(32, 5) subsets for a cone of the cube,
    # C(51, 3) for the hull of the pyramid's base cone's dual rays
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert time.monotonic() - start < 1.0
    assert code == 0 and err == ""
    assert out


@pytest.mark.parametrize(
    "doc",
    [_cross_polytope_face_fan(10), _pyramid_face_fan(255)],
    ids=["cross-polytope-10", "255-gon-pyramid"],
)
def test_cap_edge_fans_analyze_in_time(tmp_path, capsys, doc):
    # the cheap part of the cap-edge corpus: 1,024 maximal cones in rank 10,
    # and 256 rays (MAX_RAYS) with a 255-ray base cone and dual
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert time.monotonic() - start < 1.5
    assert code == 0 and err == ""
    assert json.loads(out)


def _counted_inverse(monkeypatch, sizes):
    # record the shape of every matrix integer_left_inverse is given,
    # through both of its bindings
    real = linalg.integer_left_inverse

    def wrapper(rows):
        sizes.append((len(rows), len(rows[0])))
        return real(rows)

    monkeypatch.setattr(cones, "integer_left_inverse", wrapper)
    monkeypatch.setattr(linalg, "integer_left_inverse", wrapper)


def test_a_non_simplicial_cone_inverts_only_rank_rays(tmp_path, capsys, monkeypatch):
    # the 101-gon base cone and its dual are read off rank independent rays:
    # no matrix handed to integer_left_inverse has more rows than columns
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(_pyramid_face_fan(101)))
    sizes = []
    _counted_inverse(monkeypatch, sizes)
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and err == ""
    assert sizes and all(rows == columns for rows, columns in sizes)


def test_a_left_inverse_off_independent_rays_keeps_the_report(tmp_path, capsys, monkeypatch):
    # the 101-gon fan's --json report with the direct elimination of every
    # ray patched back into Cone.inverse, byte for byte
    path = tmp_path / "pyramid.json"
    path.write_text(json.dumps(_pyramid_face_fan(101)))
    code, fast, err = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and err == ""

    def direct(self):
        scaled, den = linalg.integer_left_inverse([r.coords for r in self.rays])
        return tuple(map(tuple, scaled)), den

    inverse = cached_property(direct)
    inverse.__set_name__(cones.Cone, "inverse")
    monkeypatch.setattr(cones.Cone, "inverse", inverse)
    sizes = []
    _counted_inverse(monkeypatch, sizes)
    code, out, err = run(capsys, "analyze", str(path), "--json")
    assert code == 0 and err == ""
    assert (101, 3) in sizes
    assert out == fast


@pytest.mark.parametrize("argv", [("--sigma", "1"), ("--sigma", "1", "--d", "D", "--json")])
def test_hilbert_builds_only_the_dual_it_prints(weighted_input, capsys, monkeypatch, argv):
    calls = []
    real = cones.dual_cone

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(cli, "dual_cone", counted)
    monkeypatch.setattr(fans, "dual_cone", counted)
    code, out, err = run(capsys, "hilbert", weighted_input, *argv)
    assert code == 0 and err == ""
    assert len(calls) == 1


def test_projective_space_past_the_rank_cap_builds_nothing(capsys, monkeypatch):
    # n + 1 rays of length n took 4.6 s at n = 4,000 before build_fan refused them
    def no_vectors(*args):
        raise AssertionError("projective_space built a vector past the rank cap")

    monkeypatch.setattr(harness, "vec", no_vectors)
    code, out, err = run(capsys, "verify", "nef", "--builtin", "projective_space(1000000)")
    assert code == 1
    assert out == ""
    assert err == (
        "toricva: input error: projective_space(1000000): "
        "the fan has rank 1000000, more than 12\n"
    )


_PLANE = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [2, 0]]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_PLANE, "rank": 1}, "rank must be at least 2"),
        ({**_PLANE, "rays": {"0": [1, 0]}}, "rays must be a list of integer vectors"),
        ({**_PLANE, "rays": [[1, 0], [0, 1], [-1]]}, "rays[2]: expected a list of 2 integers"),
        ({**_PLANE, "rays": [[1, 0], [0, "1"], [-1, -1]]}, "rays[1]: expected an integer"),
        ({**_PLANE, "max_cones": 3}, "max_cones must be a list of index lists"),
        ({**_PLANE, "max_cones": [[0, 1], 2]}, "max_cones[1]: expected a list of ray indices"),
        ({**_PLANE, "max_cones": [[0, 1.0]]}, "max_cones[0]: expected an integer"),
        ({**_PLANE, "divisors": [1, 0, 0]}, "divisors must be an object mapping names"),
        ({**_PLANE, "divisors": {"X": [1, 0]}}, "divisor 'X': expected 3 coefficients"),
        ({**_PLANE, "divisors": {"X": [0.5, 0, 0]}}, "divisor 'X': floats are not accepted"),
        ({**_PLANE, "divisors": {"X": ["1/0", 0, 0]}}, "divisor 'X': '1/0' is not a rational"),
        ({**_PLANE, "divisors": {"X": [True, 0, 0]}}, "divisor 'X': expected a rational"),
        ({**_PLANE, "divisors": {"X": [[1], 0, 0]}}, "divisor 'X': expected a rational, got list"),
        ({**_PLANE, "divisors": {"X": [{}, 0, 0]}}, "divisor 'X': expected a rational, got dict"),
        ([_PLANE], "top level must be an object"),
    ],
    ids=[
        "rank", "rays-type", "ray-length", "ray-entry", "cones-type", "cone-type",
        "cone-entry", "divisors-type", "coefficient-count", "float", "non-rational", "boolean",
        "coefficient-list", "coefficient-object", "top-level-array",
    ],
)
def test_every_document_error_names_the_document(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"toricva: input error: {path}: {message}"), err


def test_a_lone_divisor_not_named_d_is_the_base_divisor(tmp_path, capsys):
    path = tmp_path / "lone.json"
    path.write_text(json.dumps({**_PLANE, "divisors": {"X": [1, 0, 0]}}))
    code, doc = run_json(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert doc["divisors"]["d"] == {"coefficients": [1, 0, 0], "name": "X"}


# The plane with two divisors, neither named D, and the cone over a square
# completed below, whose D has no local data on the square cone 0.
_TWO_DIVISORS = {**_PLANE, "divisors": {"X": [1, 0, 0], "Y": [0, 1, 0]}}
_QUADRIC = {
    "rank": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1], [-1, -1, -1]],
    "max_cones": [[0, 1, 2, 3], [0, 1, 4], [0, 2, 4], [1, 3, 4], [2, 3, 4]],
    "divisors": {"D": [1, 0, 0, 0, 0]},
}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (_TWO_DIVISORS, ("analyze", "DOC"), "pass --d NAME: the file does not name a divisor 'D'"),
        (None, ("verify", "nef", "--builtin", "ew_simplex(4"),
         "cannot parse builtin expression 'ew_simplex(4'"),
        (None, ("verify", "nef", "--builtin", "ew_simplex(x)"),
         "builtin arguments must be integers: 'ew_simplex(x)'"),
        (None, ("verify", "nef", "--fuzz", "2", "0", "0"), "fuzz count must be positive"),
        (None, ("verify", "wall-bound", "--builtin", "weighted_112", "--sigma", "99"),
         "no maximal cone with index 99"),
        (_PLANE, ("hilbert", "DOC", "--sigma", "99"), "no maximal cone with index 99"),
        (_QUADRIC, ("verify", "wall-bound", "DOC"), "DOC: divisor has no local data on cone 0"),
    ],
    ids=[
        "two-divisors", "builtin-syntax", "builtin-argument", "fuzz-count",
        "verify-sigma", "hilbert-sigma", "wall-bound-not-q-cartier",
    ],
)
def test_source_and_selection_errors_exit_one(tmp_path, capsys, doc, argv, message):
    path = tmp_path / "doc.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert code == 1
    assert out == ""
    assert err == f"toricva: input error: {message.replace('DOC', str(path))}\n"


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"a": [], "b": {}, "c": [[]], "d": [{}]},
        {"z": 1, "a": -2, "m": 10**40, "t": True, "f": False, "n": None},
        {"nested": {"b": [1, [2, {"x": "y"}], []], "a": {"k": [None, True]}}},
        {"s": "café ☃ \U0001f600", "q": 'quote " back \\ slash', "c": "\n\t\x00\x7f"},
        {"é": 1, "E": 2, "": 3, "e": 4},
        [1, "two", [3]],
        "bare",
    ],
)
def test_emitter_writes_json_dumps_bytes(doc):
    out = io.StringIO()
    cli._emit(doc, out)
    assert out.getvalue() == _dumps(doc)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2), (1, 2), {1, 2}, object()])
def test_emitter_refuses_types_a_report_never_holds(value):
    for doc in ({"v": value}, {"v": [value]}):
        with pytest.raises(TypeError):
            cli._emit(doc, io.StringIO())
    with pytest.raises(TypeError):
        cli._emit({1: "int key"}, io.StringIO())


def test_emitter_matches_json_dumps_on_every_benchmark_report(tmp_path, monkeypatch, capsys):
    # every cli-docs command over the pools, `analyze --very-ample` over the
    # scaling series and `examples --emit` of every builtin at BUILTIN_ARGS:
    # each document the CLI emits is also encoded by json.dumps, byte for byte
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    real, seen = cli._emit, []

    def checked(doc, out):
        buf = io.StringIO()
        real(doc, buf)
        assert buf.getvalue() == _dumps(doc)
        seen.append(doc["command"] if "command" in doc else "examples")
        out.write(buf.getvalue())

    monkeypatch.setattr(cli, "_emit", checked)
    monkeypatch.chdir(tmp_path)
    for name in ("cli-docs", "ample-scale"):
        wl = workloads.WORKLOADS[name](toricva, cli)
        keys = wl.universe()
        wl.prepare(keys)
        for key in keys:
            assert wl.run(key)[1] is None, (name, key)
    for name, calls in BUILTIN_ARGS.items():
        for args in calls:
            expr = f"{name}({','.join(map(str, args))})"
            assert cli.main(["examples", "--emit", expr, "--dir", str(tmp_path)]) == 0
    capsys.readouterr()
    examples = sum(len(calls) for calls in BUILTIN_ARGS.values())
    assert Counter(seen) == {
        "analyze": 160 + len(workloads.SCALING_SERIES),
        "verify": 320,
        "hilbert": 160,
        "examples": examples,
    }


@pytest.mark.parametrize(
    "x",
    [0, 3, -7, Fraction(4, 2), Fraction(-6, 3), Fraction(1, 3), Fraction(-5, 4), "3/6", True],
    ids=repr,
)
def test_scalar_encoding_matches_the_fraction_reference(x):
    got, want = cli._enc_scalar(x), reference_enc_scalar(x)
    assert (got, type(got)) == (want, type(want))
