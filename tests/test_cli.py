"""Command-line surface: parsing, exit codes, reports, round trips."""

import ast
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import bcinv
from bcinv import analytic
from bcinv.cli import (
    JobSpec,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_REFUTED,
    main,
    parse_element,
    parse_ring,
    run,
    serialize_value,
)
from bcinv.inverses import CornerFrame, build_v
from bcinv.rings import RingDescriptor


def test_parse_ring_literals():
    assert parse_ring("Zn:6").name == "Zn:6"
    assert parse_ring("Z6").name == "Zn:6"
    assert parse_ring("MFp:2:2").name == "MFp:2:2"
    assert parse_ring("M2F2").name == "MFp:2:2"
    assert parse_ring("Q:3").name == "Q:3"
    assert parse_ring("R:4").name == "R:4"
    assert parse_ring("R:2:1e-11").tol == 1e-11
    with pytest.raises(ValueError):
        parse_ring("hexagons")


def test_parse_elements():
    z6 = parse_ring("Z6")
    assert parse_element(z6, "5").payload == 5
    r2 = parse_ring("R:2")
    e12 = parse_element(r2, "E12")
    assert np.allclose(e12.payload, [[0.0, 1.0], [0.0, 0.0]])
    m = parse_element(r2, "[[0,1],[1,0]]")
    assert np.allclose(m.payload, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(parse_element(r2, "I").payload, np.eye(2))
    assert np.allclose(parse_element(r2, "3").payload, 3 * np.eye(2))
    q2 = parse_ring("Q:2")
    half = parse_element(q2, '[["1/2", 0], [0, 2]]')
    assert str(half.payload[0, 0]) == "1/2"
    with pytest.raises(ValueError):
        parse_element(r2, "E13")


def test_compute_command_z6():
    job = JobSpec("compute", ring="Z6", elements={"a": "5", "b": "4", "c": "4"})
    status, report = run(job)
    assert status == STATUS_OK
    assert report["outputs"]["inverse"] == 2
    assert report["verdicts"]["certified"] is True
    assert all(v == 0.0 for v in report["residuals"].values())


def test_compute_command_absent_inverse():
    job = JobSpec("compute", ring="R:2",
                  elements={"a": "[[0,1],[1,0]]", "b": "E11", "c": "E11"})
    status, report = run(job)
    assert status == STATUS_REFUTED
    assert report["diagnostic"]["error"] == "InverseAbsent"
    assert "corner-rank" in report["diagnostic"]["message"]


def test_compute_refuses_a_float_core_of_rounding_noise(capsys):
    # Cr*a*B is [[-2.7e-15]] here: rounding noise against the scale of
    # ||a|| * ||b||, so R:2 refuses the job as Q:2 does.
    job = ["--a", "[[2,3],[3,-3]]", "--b", "[[0,0],[6,0]]", "--c", "[[-2,-2],[2,2]]"]
    for ring in ("R:2", "Q:2"):
        assert main(["compute", "--ring", ring, *job]) == STATUS_REFUTED
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostic"]["error"] == "InverseAbsent", ring
        assert "corner-rank" in report["diagnostic"]["message"], ring



def test_verify_refuses_a_blown_up_candidate(capsys):
    # The y that R:2 once returned for the job above: its residuals are
    # tiny against ||y||*||a|| but right_eq equals ||c||, so the
    # certificate, measured against b and c, refuses it.
    job = ["--a", "[[2,3],[3,-3]]", "--b", "[[0,0],[6,0]]", "--c", "[[-2,-2],[2,2]]",
           "--y", "[[0.0,0.0],[1592262918131443.2,1592262918131443.0]]"]
    assert main(["verify", "--ring", "R:2", *job]) == STATUS_REFUTED
    assert json.loads(capsys.readouterr().out)["verdicts"]["certified"] is False

def test_lab_command_m2f2():
    job = JobSpec("lab", ring="M2F2", suite="equivalences")
    status, report = run(job)
    assert status == STATUS_OK
    assert report["outputs"]["counterexample_count"] == 0
    assert report["outputs"]["examined"] == 16 ** 4


def test_verify_command():
    good = JobSpec("verify", ring="Z6",
                   elements={"a": "5", "b": "4", "c": "4", "y": "2"})
    assert run(good)[0] == STATUS_OK
    bad = JobSpec("verify", ring="Z6",
                  elements={"a": "5", "b": "4", "c": "4", "y": "3"})
    status, report = run(bad)
    assert status == STATUS_REFUTED
    assert report["verdicts"]["certified"] is False


def test_invalid_input_is_status_2():
    job = JobSpec("compute", ring="Z1", elements={"a": "1", "b": "1", "c": "1"})
    assert run(job)[0] == STATUS_INVALID
    job = JobSpec("compute", ring="Z6", elements={"a": "5", "b": "4", "c": "4"},
                  method="nonsense")
    assert run(job)[0] == STATUS_INVALID
    job = JobSpec("lab", ring="Z6", suite="nonsense")
    assert run(job)[0] == STATUS_INVALID


def test_banach_command_with_bound():
    job = JobSpec("banach", ring="R:2", method="series", lambda0=0.1,
                  elements={"a": "[[2,0],[0,3]]", "b": "E11", "c": "E11"})
    status, report = run(job)
    assert status == STATUS_OK
    assert report["verdicts"]["agrees"] and report["verdicts"]["bound_holds"]
    assert report["outputs"]["bound"]["measured"] == pytest.approx(0.5 - 1 / 2.1)
    assert report["outputs"]["bound"]["bound"] == pytest.approx(0.0375 / 0.925)


def test_rol_command_witnessed_failure():
    job = JobSpec("rol", ring="R:2",
                  elements={"a": "[[1,1],[0,1]]", "a2": "[[1,0],[1,1]]",
                            "b": "E11", "c": "E11", "b2": "E11", "c2": "E11"})
    status, report = run(job)
    assert status == STATUS_OK
    assert report["outputs"]["condition"] is False
    assert report["outputs"]["law_holds"] is False
    assert report["residuals"]["obstruction_norm"] == pytest.approx(1.0)


def test_continuity_command():
    job = JobSpec("continuity", ring="R:2", family="unbounded", count=200)
    status, report = run(job)
    assert status == STATUS_OK
    assert report["outputs"]["classification"] == "divergent"


@pytest.mark.parametrize("tol", ["0", "-1e-9"])
def test_nonpositive_tol_flag_is_status_2(capsys, tol):
    rc = main(["compute", "--ring", "R:2", f"--tol={tol}",
               "--a", "[[2,0],[0,3]]", "--b", "E11", "--c", "E11"])
    assert rc == STATUS_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostic"]["error"] == "ValueError"
    assert "positive tolerance" in out["diagnostic"]["message"]


@pytest.mark.parametrize("count", ["0", "-5"])
def test_nonpositive_count_is_status_2(capsys, count):
    rc = main(["continuity", "--ring", "R:2", f"--count={count}"])
    assert rc == STATUS_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostic"]["error"] == "ValueError"
    assert "count must be at least 1" in out["diagnostic"]["message"]


@pytest.mark.parametrize("literal", ["[[NaN,0],[0,1]]", '[[1,0],["-inf",1]]', "Infinity"])
def test_non_finite_float_entry_is_status_2(capsys, literal):
    rc = main(["compute", "--ring", "R:2", "--a", literal, "--b", "E11", "--c", "E11"])
    assert rc == STATUS_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostic"]["error"] == "PreconditionFailed"
    assert "needs finite entries" in out["diagnostic"]["message"]


@pytest.mark.parametrize("ring, literal", [
    ("R:2", "[[true,0],[0,1]]"),
    ("Q:2", "[[1,0],[0,false]]"),
    ("MFp:2:2", "[[true,0],[0,1]]"),
    ("Z6", "true"),
    ("R:2", "false"),
])
def test_boolean_element_literal_is_status_2(capsys, ring, literal):
    rc = main(["compute", "--ring", ring, "--a", literal, "--b", "I", "--c", "I"])
    assert rc == STATUS_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostic"]["error"] == "ValueError"
    assert "not booleans" in out["diagnostic"]["message"]


@pytest.mark.parametrize("ring, a", [("R:2", [[True, 0], [0, 1]]), ("Z6", [[False]])])
def test_boolean_element_in_a_job_file_is_status_2(tmp_path, capsys, ring, a):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "compute", "ring": ring,
                                "elements": {"a": a, "b": "I", "c": "I"}}))
    assert main(["compute", "--job", str(path)]) == STATUS_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostic"]["error"] == "ValueError"
    assert "not booleans" in out["diagnostic"]["message"]


@pytest.mark.parametrize("command, job", [
    ("continuity", {"command": "continuity", "count": "5"}),
    ("continuity", {"command": "continuity", "count": 5.0}),
    ("banach", {"command": "banach", "ring": "R:2", "method": "series", "beta": "0.5",
                "elements": {"a": "[[2,0],[0,3]]", "b": "E11", "c": "E11"}}),
    ("banach", {"command": "banach", "ring": "R:2", "lambda0": "0.1",
                "elements": {"a": "[[2,0],[0,3]]", "b": "E11", "c": "E11"}}),
    ("compute", {"command": "compute", "ring": "R:2", "tol": True,
                 "elements": {"a": "I", "b": "E11", "c": "E11"}}),
    ("compute", {"command": "compute", "ring": 6, "elements": {"a": 5, "b": 4, "c": 4}}),
    ("compute", {"command": "compute", "ring": "Z6", "elements": [5, 4, 4]}),
    ("compute", {"command": "compute", "ring": "Z6", "elements": {"a": {}, "b": 4, "c": 4}}),
    ("compute", {"command": "compute", "ring": "R:2",
                 "elements": {"a": [1, 2], "b": "E11", "c": "E11"}}),
    ("compute", {"ring": "Z6", "elements": {"a": 5, "b": 4, "c": 4}}),
    ("compute", {"job": [1]}),
    ("compute", [1, 2]),
])
def test_malformed_job_file_is_status_2(tmp_path, capsys, command, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main([command, "--job", str(path)]) == STATUS_INVALID
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == STATUS_INVALID
    assert out["diagnostic"]["error"] == "ValueError"


# (a, b, c, fixed beta, lambda0) per ring.  The R:4 frame has rank 2, and the
# nonzero eigenvalues of a*v (about 2.59 and 3.83) are positive, so every
# representation converges.
_BANACH_INSTANCES = {
    "R:2": ("[[2,0],[0,3]]", "E11", "E11", "0.3", "0.1"),
    "R:4": ("[[4,1,0,0],[1,3,0,1],[0,1,2,0],[1,0,0,1]]",
            "[[1,0,0,0],[0,1,0,0],[1,1,0,0],[0,0,0,0]]",
            "[[-1,0,-1,0],[0,-1,0,0],[0,0,0,0],[0,0,0,0]]", "0.25", "0.05"),
}


@pytest.mark.parametrize("ring_literal", sorted(_BANACH_INSTANCES))
@pytest.mark.parametrize("method, fixed_beta, with_bound", [
    ("series", False, False), ("series", True, False), ("series", False, True),
    ("limit", False, True), ("integral", False, False),
])
def test_banach_report_is_the_library_answer(tmp_path, ring_literal, method,
                                             fixed_beta, with_bound):
    a_lit, b_lit, c_lit, beta_lit, lam_lit = _BANACH_INSTANCES[ring_literal]
    args = ["banach", "--ring", ring_literal, "--a", a_lit, "--b", b_lit, "--c", c_lit,
            "--method", method]
    if fixed_beta:
        args += ["--beta", beta_lit]
    if with_bound:
        args += ["--lambda0", lam_lit]
    path = tmp_path / "report.json"
    assert main(args + ["--report", str(path)]) == STATUS_OK
    outputs = json.loads(path.read_text())["outputs"]

    ring = parse_ring(ring_literal)
    a = parse_element(ring, a_lit)
    frame = CornerFrame.make(parse_element(ring, b_lit), parse_element(ring, c_lit))
    v = build_v(frame)
    lam = float(lam_lit) if with_bound else None
    if method == "series":
        beta = float(beta_lit) if fixed_beta else analytic.choose_beta(a, v)
        assert outputs["beta"] == beta
        value = analytic.series_representation(a, v, beta)
    elif method == "limit":
        value = analytic.limit_representation(a, v, lam)
    else:
        value = analytic.integral_representation(a, v)
    assert outputs["representation"] == serialize_value(value)
    if with_bound:
        bound = analytic.perturbation_bound(a, v, frame, lam)
        assert outputs["bound"] == {k: x for k, x in asdict(bound).items() if x is not None}
    else:
        assert "bound" not in outputs


def test_cli_reads_no_private_name_of_another_module():
    # bench/tracer.py wraps only public functions, so a CLI job that reached
    # a private helper of another module would run untraced.
    tree = ast.parse(Path(bcinv.cli.__file__).read_text(encoding="utf-8"))
    modules = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:     # from . / from .x
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
                if node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert modules >= {"analytic", "lab"}
    assert private == []


_SCIPY_PROBE = """
import json, sys
import bcinv
from bcinv.cli import main
report = sys.argv[1]
frame = ["--b", "E11", "--c", "E11"]
statuses = [
    main(["compute", "--ring", "Z6", "--a", "5", "--b", "4", "--c", "4",
          "--report", report]),
    main(["verify", "--ring", "Z6", "--a", "5", "--b", "4", "--c", "4", "--y", "2",
          "--report", report]),
    main(["lab", "--ring", "Z6", "--suite", "equivalences", "--report", report]),
    main(["rol", "--ring", "R:2", "--a", "[[1,1],[0,1]]", "--a2", "[[1,0],[1,1]]",
          *frame, "--b2", "E11", "--c2", "E11", "--report", report]),
    main(["banach", "--ring", "R:2", "--method", "limit", "--lambda0", "0.1",
          "--a", "[[2,0],[0,3]]", *frame, "--report", report]),
    main(["continuity", "--ring", "R:2", "--count", "50", "--report", report]),
    main(["banach", "--ring", "R:2", "--method", "series",
          "--a", "[[2,0],[0,3]]", *frame, "--report", report]),
    main(["banach", "--ring", "R:2", "--method", "integral",
          "--a", "[[2,0],[0,3]]", *frame, "--report", report]),
]
print(json.dumps({"statuses": statuses, "scipy": "scipy" in sys.modules}))
"""


def test_no_job_loads_scipy(tmp_path):
    # A fresh interpreter: this one has scipy loaded already.
    src = str(Path(bcinv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["statuses"] == [STATUS_OK] * 8
    assert result["scipy"] is False


def test_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    rc = main(["compute", "--ring", "Z6", "--a", "5", "--b", "4", "--c", "4",
               "--report", str(path)])
    assert rc == STATUS_OK
    first = json.loads(path.read_text())
    # a report file works as a job file and reproduces the outputs
    job = JobSpec.from_file(str(path))
    status, second = run(job)
    assert status == STATUS_OK
    assert second["outputs"] == first["outputs"]
    assert second["residuals"] == first["residuals"]
    assert second["job"] == first["job"]


def test_summary_output(tmp_path):
    summary = tmp_path / "summary.csv"
    rc = main(["compute", "--ring", "Z6", "--a", "5", "--b", "4", "--c", "4",
               "--report", str(tmp_path / "r.json"), "--summary", str(summary)])
    assert rc == STATUS_OK
    header, values = summary.read_text().strip().splitlines()
    columns = dict(zip(header.split(","), values.split(",")))
    assert columns["outputs.inverse"] == "2"
    assert columns["status"] == "0"
    assert columns["verdicts.certified"] == "True"


def test_main_exit_codes(capsys):
    assert main(["compute", "--ring", "Z6", "--a", "5", "--b", "4", "--c", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outputs"]["inverse"] == 2
    assert main(["compute", "--ring", "R:2", "--a", "[[0,1],[1,0]]",
                 "--b", "E11", "--c", "E11"]) == 1
    capsys.readouterr()
    assert main(["compute", "--ring", "bogus", "--a", "1", "--b", "1", "--c", "1"]) == 2


@pytest.mark.parametrize("args, status", [
    (["--ring", "R:32", "--a", "I", "--b", "I", "--c", "I"], STATUS_OK),
    (["--ring", "R:2", "--a", "[[0,1],[1,0]]", "--b", "E11", "--c", "E11"], STATUS_REFUTED),
    (["--ring", "bogus", "--a", "1", "--b", "1", "--c", "1"], STATUS_INVALID),
])
def test_closed_stdout_keeps_the_job_status(args, status):
    # A pipe whose reader is gone before the job writes, as with `| head -c 10`;
    # with buffered stdout the write fails on flush, unbuffered in print.
    src = str(Path(bcinv.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "bcinv.cli", "compute", *args],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  timeout=120, env={**env, **unbuffered})
        finally:
            os.close(write_end)
        assert proc.returncode == status, unbuffered
        assert proc.stderr == "", unbuffered


def test_tolerance_env_var(monkeypatch):
    monkeypatch.setenv("BCINV_TOL", "1e-7")
    assert parse_ring("R:3").tol == 1e-7
    monkeypatch.delenv("BCINV_TOL")
    assert parse_ring("R:3").tol == 1e-9


def test_serialize_value_shapes():
    z6 = RingDescriptor.modular(6)
    assert serialize_value(z6.element(4)) == 4
    q2 = RingDescriptor.rational_matrices(2)
    assert serialize_value(q2.element([[1, 0], [0, 1]])) == [["1", "0"], ["0", "1"]]
    m = RingDescriptor.matrices_over_prime(2, 2)
    assert serialize_value(m.element([[1, 0], [1, 1]])) == [[1, 0], [1, 1]]
