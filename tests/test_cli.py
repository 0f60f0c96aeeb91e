"""Command line behavior: formats, determinism, exit codes."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from toricva import cli, divisors, fans, harness, intersections, lambdas, linalg, semigroups
from toricva.harness import STATEMENTS, CheckReport, Hypothesis
from toricva.semigroups import MAX_BASIS_ELEMENTS

from fixtures import DOUBLE_WOUND_CONES, DOUBLE_WOUND_RAYS, SUSPENDED_CONES, SUSPENDED_RAYS
from oracles import reference_hilbert_basis


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


def _plane_fan(m):
    """A complete plane fan on 2m + 2 rays: (1, 0), then (i, 1) for i from
    m - 1 down to 0, then (-1, 0), then the negatives of the (i, 1)."""
    upper = [[i, 1] for i in range(m - 1, -1, -1)]
    rays = [[1, 0]] + upper + [[-1, 0]] + [[-x, -y] for x, y in upper]
    cones = [[i, (i + 1) % len(rays)] for i in range(len(rays))]
    return {"rank": 2, "rays": rays, "max_cones": cones, "divisors": {"D": [1] * len(rays)}}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (_cube_face_fan(6), ("analyze", "DOC"), "DOC: cone 0: the facet scan needs 201376 subsets"),
        (
            None,
            ("verify", "nef", "--builtin", "projective_space(40)"),
            "projective_space(40): the fan has rank 40",
        ),
        (_plane_fan(128), ("analyze", "DOC"), "DOC: the fan has 258 rays, more than 256"),
        (_plane_fan(128), ("hilbert", "DOC", "--sigma", "0"), "DOC: the fan has 258 rays"),
        (
            _pyramid_face_fan(51),
            ("analyze", "DOC", "--json"),
            "DOC: dual of maximal cone 0: the facet scan needs 20825 subsets, more than 20000",
        ),
    ],
    ids=["rank-6-cube", "rank-40", "258-rays", "258-rays-hilbert", "51-gon-dual"],
)
def test_work_over_a_cap_is_refused_before_it_starts(tmp_path, capsys, doc, argv, message):
    # before the caps the rank-6 cube ran for 90 s, projective_space(40)
    # for 8 s, and the cone table past the subset cap printed a traceback
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out, err = run(capsys, *(str(path) if a == "DOC" else a for a in argv))
    assert time.monotonic() - start < 1.0
    assert code == 1
    assert out == ""
    assert f"toricva: input error: {message.replace('DOC', str(path))}" in err
    assert "Traceback" not in err


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
    ],
    ids=[
        "rank", "rays-type", "ray-length", "ray-entry", "cones-type", "cone-type",
        "cone-entry", "divisors-type", "coefficient-count", "float", "non-rational", "boolean",
    ],
)
def test_every_document_error_names_the_document(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"toricva: input error: {path}: {message}"), err
