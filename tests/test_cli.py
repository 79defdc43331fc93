import itertools
import json
import os
import subprocess
import sys
import time
import types

import click
import pytest
from click.testing import CliRunner

import qsp
import qsp.errors
import qsp.uqrep
from qsp.cli import main
from qsp.vogan10 import MAX_LEVELS


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def su2_diagram(tmp_path):
    path = tmp_path / "su2.json"
    path.write_text(json.dumps({"type": "A", "rank": 1, "X": []}))
    return str(path)


@pytest.fixture()
def aiii_diagram(tmp_path):
    path = tmp_path / "aiii.json"
    path.write_text(json.dumps({"type": "A", "rank": 3, "X": [2],
                                "tau": [[1, 3]]}))
    return str(path)


def test_diagram_check(runner, aiii_diagram):
    res = runner.invoke(main, ["diagram", "check", "--file", aiii_diagram])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["admissible"] and payload["diagram"]["X"] == [2]


def test_diagram_check_invalid(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "A", "rank": 2, "X": [1]}))
    res = runner.invoke(main, ["diagram", "check", "--file", str(bad)])
    assert res.exit_code == 2


def test_diagram_check_names_an_out_of_range_vertex(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "A", "rank": 3, "X": [5]}))
    res = runner.invoke(main, ["diagram", "check", "--file", str(bad)])
    assert res.exit_code == 2
    assert res.output.strip() == "input error: vertex 5 not in datum"


def test_diagram_list(runner):
    res = runner.invoke(main, ["diagram", "list", "--type", "A", "--rank", "3"])
    assert res.exit_code == 0
    assert len(json.loads(res.output)) == 4


def test_rep_build(runner, tmp_path):
    out = tmp_path / "rep.json"
    res = runner.invoke(main, ["rep", "build", "--algebra", "A1",
                               "--weight", "1", "--q", "0.7",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["q"] == 0.7
    assert payload["E"]["1"][0][1] == [pytest.approx(0.7 ** 0.5), 0.0]


def test_rep_build_overfull_is_a_json_report(runner):
    # Weyl dimension 256 is under the cap: keeping too many vectors is a
    # rank decision, reported as JSON with exit 1, not a resource limit
    res = runner.invoke(main, ["rep", "build", "--algebra", "B2",
                               "--weight", "3,3", "--q", "0.7"])
    assert (res.exit_code, res.stderr) == (1, "")
    payload = json.loads(res.stdout)
    assert payload["pass"] is False
    assert payload["error"]["type"] == "NumericalDegeneracyError"
    assert "Weyl dimension 256" in payload["error"]["message"]


def test_rmatrix_cmd(runner):
    res = runner.invoke(main, ["rmatrix", "--algebra", "A1", "--v", "1",
                               "--w", "1", "--q", "0.7"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["convention"] == "R"
    q = 0.7
    assert payload["matrix"][0][0][0] == pytest.approx(q ** 0.5 / q)


def test_rmatrix_cmd_g2_finishes():
    # a subprocess, so that the timeout also bounds a hang
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qsp.cli", "rmatrix", "--algebra", "G2",
         "--v", "1,0", "--w", "1,0", "--q", "0.7"],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert '"convention": "R"' in proc.stdout
    assert len(json.loads(proc.stdout)["matrix"]) == 49


def _python(code):
    """``code`` run in a fresh interpreter (so that no other test's import
    counts)."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsp.__file__)))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


def _fresh_python(code):
    """stdout of ``code`` in a fresh interpreter, which must exit 0."""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_leaves_scipy_integrate_out():
    # kzmono and its block layer (qsp.blocks) run on numpy alone: only a
    # non-normal residue (kzmono._decompose) and kzmono.mkz_consistency
    # import scipy, when called
    assert _fresh_python(
        f"import sys, qsp.cli; print({_LOADED_SCIPY})") == "[]"


def test_run_all_leaves_scipy_out():
    # the KZ block route (blocks.pattern_blocks, numpy's min-label spread,
    # not scipy.sparse.csgraph) and psi at twice-spin 8 x 8 too; the five
    # suites through the tests' run_all
    assert _fresh_python(
        f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r}); "
        "from module_helpers import run_all; "
        "from qsp import harness, kzmono; "
        "assert all(r.passed for r in run_all()); "
        "assert harness.run_kz_suite(0.7).passed; "
        "ts = kzmono.split_tensors(); "
        "res = kzmono.psi(kzmono.MonodromyProblem(*kzmono.kz_coeffs("
        "ts, 1.0, 8, 8, harness.QParams(0.75).hbar))); "
        "assert res.spread < 1e-6; "
        f"print({_LOADED_SCIPY})") == "[]"


def _without_scipy(code):
    """``code`` run in a fresh interpreter in which scipy cannot be
    imported: ``sys.modules["scipy"]`` is None before qsp is imported."""
    return _python("import sys; sys.modules['scipy'] = None\n" + code)


def test_the_program_runs_without_scipy(tmp_path):
    # scipy is a test dependency: the suites, psi and the CLI run without
    # it, and the one route that needs it is a resource error
    proc = _without_scipy(
        "import qsp.cli\n"
        "from qsp import harness, kzmono\n"
        "assert harness.run_rank_one(0.7, 0.25).passed\n"
        "assert harness.run_axioms('coideal', 0.7, t=0.3).passed\n"
        "assert harness.run_axioms('kz', 0.7, t=1.0).passed\n"
        "assert harness.run_axioms('vogan', 0.7, r=0.25, levels=14).passed\n"
        "assert harness.run_kz_suite(0.7).passed\n"
        "res = kzmono.psi(kzmono.MonodromyProblem(*kzmono.kz_coeffs("
        "kzmono.split_tensors(), 1.0, 8, 8, harness.QParams(0.75).hbar)))\n"
        "assert res.spread < 1e-6\n"
        "print('ok')\n")
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
    # a non-normal residue needs scipy.linalg.schur
    path = tmp_path / "nonnormal.json"
    path.write_text(json.dumps({
        "a": [[[0.1, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.2, 0.0]]],
        "b_plus": [[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.1, 0.0]]],
        "b_minus": [[[0.05, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.05, 0.0]]]}))
    proc = _without_scipy("from qsp.cli import main\n"
                          f"main(['kz', 'psi', '--config', {str(path)!r}])\n")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("resource error: ")
    assert "scipy" in proc.stderr


def test_coideal_validate(runner, su2_diagram):
    res = runner.invoke(main, ["coideal", "validate", "--diagram",
                               su2_diagram, "--q", "0.7"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["star_invariant"]
    res = runner.invoke(main, ["coideal", "validate", "--diagram",
                               su2_diagram, "--q", "0.7", "--c", "1.5"])
    assert res.exit_code == 1


def test_coideal_validate_reports_complex_c(runner, su2_diagram):
    res = runner.invoke(main, ["coideal", "validate", "--diagram",
                               su2_diagram, "--q", "0.7", "--c", "1+2j"])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["c"] == {"1": [1.0, 2.0]}


@pytest.mark.parametrize("args", [
    ["rep", "build", "--algebra", "A1", "--weight", "x", "--q", "0.7"],
    ["rmatrix", "--algebra", "A1", "--v", "x", "--w", "1", "--q", "0.7"],
    ["kmatrix", "--diagram", None, "--t", "0.3", "--rep", "abc", "--q", "0.7"],
    ["coideal", "validate", "--diagram", None, "--c", "abc", "--q", "0.7"],
    ["coideal", "validate", "--diagram", None, "--c", "1,2,3", "--q", "0.7"],
    ["coideal", "validate", "--diagram", None, "--s", "0,0", "--q", "0.7"],
    ["rep", "build", "--algebra", "A2", "--weight", "1", "--q", "0.6"],
    ["rmatrix", "--algebra", "A2", "--v", "1", "--w", "1,0", "--q", "0.6"],
    ["kmatrix", "--diagram", "AIII", "--t", "0.3", "--q", "0.6"],
], ids=["rep-weight", "rmatrix-v", "kmatrix-rep", "coideal-c",
        "coideal-c-length", "coideal-s-length", "rep-weight-length",
        "rmatrix-v-length", "kmatrix-rep-length"])
def test_malformed_value_is_input_error(runner, su2_diagram, aiii_diagram,
                                        args):
    # None stands for the su2 diagram file, AIII for the A3 one
    files = {None: su2_diagram, "AIII": aiii_diagram}
    res = runner.invoke(main, [files.get(a, a) for a in args])
    assert (res.exit_code, res.stdout) == (2, "")
    # the message names the option
    assert res.stderr.startswith("input error: --")
    assert len(res.stderr.strip().splitlines()) == 1
    assert "Traceback" not in res.stderr


_KMATRIX_SWEEP = """
import json, os, sys
from click.testing import CliRunner
from qsp.cli import main
from qsp.vogan10 import MAX_LEVELS
from qsp.diagrams import enumerate_admissible
from qsp.rootsys import build_root_datum
runner, out = CliRunner(), []
for typ, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)), ("C", (2, 3, 4)),
                   ("D", (4,))):
    for rank in ranks:
        datum = build_root_datum([(typ, rank)])
        for diag in enumerate_admissible(datum):
            path = os.path.join(sys.argv[1], "diagram.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(diag.to_json(), fh)
            res = runner.invoke(main, [
                "kmatrix", "--diagram", path, "--t", "0.3", "--q", "0.7",
                "--rep", " ".join(["1"] + ["0"] * (rank - 1))])
            crash = None if isinstance(res.exception, (SystemExit, type(None))) \
                else repr(res.exception)
            out.append([diag.to_json(), res.exit_code, res.stdout,
                        res.stderr, crash])
print(json.dumps(out))
"""


def test_kmatrix_keeps_the_contract_on_every_diagram_to_rank_four(tmp_path):
    # every admissible diagram of A1-A4, B2-B4, C2-C4 and D4 on its first
    # fundamental module: a solved braid or a reported ambiguity, never a
    # traceback, a resource error or a hang (one subprocess, so that the
    # timeout bounds a hang)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _KMATRIX_SWEEP, str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == 36
    for diag, code, stdout, stderr, crash in runs:
        assert crash is None and "Traceback" not in stderr, (diag, crash)
        payload = json.loads(stdout)
        if code == 0:
            assert payload["residuals"]["twisted_intertwining"] < 1e-10, diag
        else:
            assert code == 1, (diag, code, stderr)
            assert payload["error"]["type"] == "AmbiguityError", (diag, payload)


def test_kmatrix_cmd(runner, su2_diagram):
    res = runner.invoke(main, ["kmatrix", "--diagram", su2_diagram,
                               "--t", "0.3", "--rep", "1", "--q", "0.7"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert len(payload["singular_values"]) == 2
    assert payload["lambda_from_trace"] is not None


def test_kmatrix_cmd_high_spin(runner, su2_diagram):
    res = runner.invoke(main, ["kmatrix", "--diagram", su2_diagram,
                               "--t", "0.3", "--rep", "10", "--q", "0.7"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert len(payload["singular_values"]) == 11
    assert payload["residuals"]["twisted_intertwining"] < 1e-7


def test_kmatrix_ambiguity_is_a_json_report(runner, aiii_diagram):
    res = runner.invoke(main, ["kmatrix", "--diagram", aiii_diagram,
                               "--t", "0", "--rep", "1,0,0", "--q", "0.7"])
    assert res.exit_code == 1
    assert res.stderr == ""
    assert json.loads(res.stdout) == {
        "pass": False,
        "error": {"type": "AmbiguityError",
                  "message": "no trivial component in u ox u to fix the "
                             "scale"}}


def test_kz_psi_resonance_is_a_json_report(runner, tmp_path):
    cfg = tmp_path / "kz.json"
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    a = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cfg.write_text(json.dumps({"a": a, "b_plus": zero, "b_minus": zero}))
    res = runner.invoke(main, ["kz", "psi", "--config", str(cfg)])
    assert res.exit_code == 1
    assert res.stderr == ""
    payload = json.loads(res.stdout)
    assert payload["pass"] is False
    assert payload["error"]["type"] == "ResonanceError"
    assert payload["error"]["message"].startswith("resonant residues")


_ERROR_CLASSES = [
    cls for cls in vars(qsp.errors).values()
    if isinstance(cls, type) and issubclass(cls, qsp.errors.QspError)
    and cls is not qsp.errors.QspError]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_contract_per_class(runner, monkeypatch, cls):
    # the mapping listed in the errors.py docstring
    def fail(q):
        raise cls("boom")
    monkeypatch.setattr("qsp.cli.run_kz_suite", fail)
    res = runner.invoke(main, ["verify", "kz", "--q", "0.7"])
    if cls is qsp.errors.InputError:
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "input error: boom\n"
    elif cls is qsp.errors.ResourceError:
        assert (res.exit_code, res.stdout) == (3, "")
        assert res.stderr == "resource error: boom\n"
    else:
        assert (res.exit_code, res.stderr) == (1, "")
        assert json.loads(res.stdout) == {
            "pass": False, "error": {"type": cls.__name__, "message": "boom"}}


def test_kz_psi_from_config(runner, tmp_path):
    cfg = tmp_path / "kz.json"
    cfg.write_text(json.dumps({"q": 0.7, "lambda": 1.0}))
    res = runner.invoke(main, ["kz", "psi", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert set(payload) == {"psi", "spread", "tail_bound", "eig_condition",
                            "orders"}
    assert payload["spread"] < 1e-6
    assert payload["tail_bound"] < 1e-12
    assert payload["eig_condition"] >= 1.0
    # the stop orders of the series at 0 and at 1, under the default ceiling
    assert all(type(m) is int and 1 <= m <= 200 for m in payload["orders"])
    assert len(payload["orders"]) == 2


def test_kz_psi_inline_matrices(runner, tmp_path):
    cfg = tmp_path / "kz.json"
    zero = [[[0.0, 0.0]]]
    cfg.write_text(json.dumps({"a": zero, "b_plus": zero, "b_minus": zero}))
    res = runner.invoke(main, ["kz", "psi", "--config", str(cfg)])
    assert res.exit_code == 0
    assert json.loads(res.output)["psi"][0][0] == [pytest.approx(1.0), 0.0]


@pytest.mark.parametrize("a", [
    [[0.0, 0.0], [0.0, 0.0]],                   # numbers, not [re, im] pairs
    [[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],      # 2 x 3
     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
    [[[float("nan"), 0.0], [0.0, 0.0]],         # not finite
     [[0.0, 0.0], [1.0, 0.0]]],
], ids=["number-entry", "non-square", "nan-entry"])
def test_kz_psi_malformed_matrix_is_input_error(runner, tmp_path, a):
    cfg = tmp_path / "kz.json"
    cfg.write_text(json.dumps({"a": a, "b_plus": a, "b_minus": a}))
    res = runner.invoke(main, ["kz", "psi", "--config", str(cfg)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.startswith("input error:")
    assert len(res.stderr.strip().splitlines()) == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("cfg", [{}, {"q": -0.5}, {"q": 0}, {"q": "0.7"}],
                         ids=["no-q", "negative", "zero", "string"])
def test_kz_psi_bad_q_is_input_error(runner, tmp_path, cfg):
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["kz", "psi", "--config", str(path)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "input error: q must be a positive number\n"


@pytest.mark.parametrize("cfg, message", [
    ({"q": 0.7, "series_order": "20"}, "series_order must be a positive integer"),
    ({"q": 0.7, "lambda": "1"}, "lambda must be a finite number"),
    ({"q": 0.7, "spin2_1": "2"}, "spin2_1 must be a nonnegative integer"),
    ({"q": 1.5}, "q must lie in (0, 1)"),
], ids=["series-order-string", "lambda-string", "spin-string", "q-past-one"])
def test_kz_psi_bad_field_is_input_error(runner, tmp_path, cfg, message):
    path = tmp_path / "kz.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["kz", "psi", "--config", str(path)])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"input error: {message}\n"


def test_kz_verify(runner):
    res = runner.invoke(main, ["verify", "kz", "--q", "0.7"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["pass"]


def test_vogan_e_matrix(runner):
    res = runner.invoke(main, ["vogan", "e-matrix", "--r", "0.25",
                               "--q", "0.7", "--levels", "10"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["chain_defect"] < 1e-10


def test_verify_axioms(runner):
    res = runner.invoke(main, ["verify", "axioms", "--source", "coideal",
                               "--q", "0.7", "--t", "0.3"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["pass"]


def test_verify_rank_one(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["verify", "rank-one", "--q", "0.7",
                               "--r", "0.25", "--levels", "10",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["pass"]
    assert payload["info"]["matching_hypotheses"] == ["r+1"]


def test_verify_rank_one_on_a_rounding_boundary(runner):
    # -r + 2n + wt lands on a 9-digit rounding boundary at this r: the
    # weight blocks are those of the exact levels, two lowest weights
    res = runner.invoke(main, ["verify", "rank-one", "--q", "0.9", "--r",
                               "3.0000000005", "--levels", "20"])
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.stdout)["info"]["fusion"]) == 2


@pytest.mark.parametrize("levels", [3, 4])
def test_verify_rank_one_too_few_levels(runner, levels):
    res = runner.invoke(main, ["verify", "rank-one", "--q", "0.7",
                               "--r", "0.25", "--levels", str(levels)])
    assert res.exit_code == 2
    assert res.stderr.startswith("input error:")
    assert len(res.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("levels", [5, 20, 60, 80])
def test_verify_rank_one_accepts_levels(runner, levels):
    # the level bound passes these through to the probe, whose verdict is
    # its own (JSON, exit 0 or 1)
    res = runner.invoke(main, ["verify", "rank-one", "--q", "0.95",
                               "--r", "0.1", "--levels", str(levels)])
    assert res.exit_code in (0, 1), res.stderr
    assert json.loads(res.stdout)["parameters"]["levels"] == levels


def test_verify_rank_one_at_the_level_cap(runner):
    # MAX_LEVELS is the documented ceiling of the probe: it passes there,
    # every residual inside its tolerance
    res = runner.invoke(main, ["verify", "rank-one", "--q", "0.95", "--r",
                               "0.1", "--levels", str(MAX_LEVELS)])
    assert res.exit_code == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["parameters"]["levels"] == MAX_LEVELS
    assert payload["info"]["vogan-nonfinite-scalars"] == 0
    for key, val in payload["residuals"].items():
        assert val <= payload["tolerances"][key], key


def test_verify_rank_one_stderr_stays_empty():
    # the Vogan chains are normalised at every level, so at 60 and 360 levels
    # every scalar is finite, the probe passes and numpy prints no warning
    # (a subprocess, so that no warning filter of the test run hides one)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsp.__file__)))
    for levels in (60, 360):
        proc = subprocess.run(
            [sys.executable, "-m", "qsp.cli", "verify", "rank-one",
             "--q", "0.7", "--r", "0.25", "--levels", str(levels)],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stdout
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["info"]["vogan-nonfinite-scalars"] == 0


def test_vogan_e_matrix_overflow_is_resource_error(runner):
    # the ladder overflows at 1000 levels for q = 0.7; at q = 0.05 the
    # ladder fits 119 levels and the braid on the top level does not; at
    # q = 1e-20, r = 15.4 the ladder fits and q^r underflows, so the braid
    # blocks overflow
    for r, q, levels in (("0.25", "0.7", "1000"), ("0.1", "0.05", "119"),
                         ("15.4", "1e-20", "6")):
        res = runner.invoke(main, ["vogan", "e-matrix", "--r", r,
                                   "--q", q, "--levels", levels])
        assert (res.exit_code, res.stdout) == (3, "")
        assert res.stderr.startswith("resource error:")
        assert len(res.stderr.strip().splitlines()) == 1


def test_verify_appendix_b(runner, aiii_diagram):
    res = runner.invoke(main, ["verify", "appendixB", "--diagram",
                               aiii_diagram, "--q", "0.7"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["pass"]


def test_verify_appendix_b_mixed_root_lengths(runner, tmp_path):
    # X = {1, 3} in C3 is a short and a long A1
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"type": "C", "rank": 3, "X": [1, 3]}))
    res = runner.invoke(main, ["verify", "appendixB", "--diagram",
                               str(path), "--q", "0.7"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["pass"] and payload["parameters"]["X"] == [1, 3]


@pytest.mark.parametrize("args, text, code", [
    (["diagram", "check", "--file"], "{", 2),
    (["kz", "psi", "--config"], "[1]", 2),
    (["kmatrix", "--t", "0.3", "--q", "0.7", "--diagram"],
     '{"type": "A", "rank": 2, "X": [5]}', 2),
    (["vogan", "e-matrix", "--q", "0.8", "--levels", "24", "--r", "inf"],
     None, 2),
    (["verify", "kz", "--q", "0.0"], None, 2),
    (["verify", "axioms", "--source", "kz", "--q", "-0.5"], None, 2),
    (["verify", "axioms", "--source", "coideal", "--q", "0.7", "--t", "nan"],
     None, 2),
    (["verify", "rank-one", "--r", "0.25", "--levels", "20", "--q", "1e-200"],
     None, 3),
    # KZ coefficients past double precision
    (["verify", "axioms", "--source", "kz", "--q", "0.7", "--t", "1e300"],
     None, 3),
    # symmetrizers that do not symmetrize the Cartan matrix, or are not
    # positive integers
    (["diagram", "check", "--file"],
     '{"components": [["B", 2]], "d": [1, 1], "X": []}', 2),
    (["diagram", "check", "--file"],
     '{"components": [["A", 2]], "d": [1, "2"], "X": []}', 2),
    # ladders past vogan10.MAX_LEVELS stop before anything is allocated
    (["vogan", "e-matrix", "--r", "0.25", "--q", "0.99", "--levels",
      "100000"], None, 3),
    (["verify", "rank-one", "--q", "0.99", "--r", "0.25", "--levels",
      "100000"], None, 3),
    # Vogan axiom sides past double precision, once NaN or Infinity in JSON
    (["verify", "axioms", "--source", "vogan", "--q", "1e-5", "--r", "0.25"],
     None, 3),
    (["verify", "axioms", "--source", "vogan", "--q", "3e-5", "--r", "0.25"],
     None, 3),
])
def test_inputs_past_the_contract_are_one_line_errors(tmp_path, args, text,
                                                      code):
    # inputs that once ended in a traceback: malformed JSON files, a
    # non-finite r or t, q outside (0, 1) and double-precision overflow
    if text is not None:
        path = tmp_path / "input.json"
        path.write_text(text)
        args = args + [str(path)]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsp.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qsp.cli", *args],
                          capture_output=True, text=True, timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (code, ""), proc.stderr
    prefix = "input error:" if code == 2 else "resource error:"
    assert proc.stderr.startswith(prefix), proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr


def test_verify_characters(runner, su2_diagram):
    res = runner.invoke(main, ["verify", "characters", "--diagram",
                               su2_diagram, "--t", "0.3"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["pass"]


def _readme_commands():
    """The command paths of the ``qsp ...`` lines in README.md's CLI
    block: the words before the first option."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    paths = []
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["qsp"]:
            paths.append(list(itertools.takewhile(
                lambda word: not word.startswith("-"), words[1:])))
    return paths


def test_readme_commands_exist(runner):
    paths = _readme_commands()
    assert len(paths) >= 10
    for path in paths:
        res = runner.invoke(main, [*path, "--help"])
        assert res.exit_code == 0, (path, res.output)


def _leaf_commands(group, path=()):
    """The command paths of every subcommand registered under group."""
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from _leaf_commands(cmd, path + (name,))
        else:
            yield path + (name,)


# minimal valid options per subcommand; None stands for the su2 diagram file,
# "aiii.json" for the AIII diagram and "kz.json" for a KZ configuration
_MINIMAL_ARGS = {
    ("diagram", "check"): ["--file", None],
    ("diagram", "list"): ["--type", "A", "--rank", "1"],
    ("rep", "build"): ["--algebra", "A1", "--weight", "1", "--q", "0.7"],
    ("rmatrix",): ["--algebra", "A1", "--v", "1", "--w", "1", "--q", "0.7"],
    ("coideal", "validate"): ["--diagram", None, "--q", "0.7"],
    ("kmatrix",): ["--diagram", None, "--t", "0.3", "--q", "0.7"],
    ("kz", "psi"): ["--config", "kz.json"],
    ("vogan", "e-matrix"): ["--r", "0.25", "--q", "0.7", "--levels", "10"],
    ("verify", "rank-one"): ["--q", "0.7", "--r", "0.25", "--levels", "10"],
    ("verify", "axioms"): ["--source", "coideal", "--q", "0.7"],
    ("verify", "kz"): ["--q", "0.7"],
    ("verify", "appendixB"): ["--diagram", "aiii.json", "--q", "0.7"],
    ("verify", "characters"): ["--diagram", None, "--t", "0.3"],
}


def test_minimal_args_cover_every_command():
    # a new subcommand has to join the table, and so the --out check below
    assert sorted(_leaf_commands(main)) == sorted(_MINIMAL_ARGS)


@pytest.mark.parametrize("path", sorted(_MINIMAL_ARGS), ids=" ".join)
def test_unwritable_out_is_an_input_error(runner, tmp_path, su2_diagram,
                                          aiii_diagram, path):
    kz_config = tmp_path / "kz.json"
    kz_config.write_text(json.dumps({"q": 0.7}))
    files = {None: su2_diagram, "aiii.json": aiii_diagram,
             "kz.json": str(kz_config)}
    args = [files.get(a, a) for a in _MINIMAL_ARGS[path]]
    out = tmp_path / "missing" / "x.json"
    res = runner.invoke(main, [*path, *args, "--out", str(out)])
    assert (res.exit_code, res.stdout) == (2, ""), res.stderr
    assert res.stderr.startswith(f"input error: --out {out}: ")
    assert len(res.stderr.strip().splitlines()) == 1
    assert "Traceback" not in res.stderr
    assert not out.parent.exists()


def test_memory_error_is_a_resource_error(runner, monkeypatch):
    def fail(q):
        raise MemoryError("Unable to allocate 56.4 GiB")
    monkeypatch.setattr("qsp.cli.run_kz_suite", fail)
    res = runner.invoke(main, ["verify", "kz", "--q", "0.7"])
    assert (res.exit_code, res.stdout) == (3, "")
    assert res.stderr == ("resource error: out of memory "
                          "(Unable to allocate 56.4 GiB)\n")


def test_rmatrix_past_the_product_cap_is_a_resource_error(runner,
                                                          monkeypatch):
    # two E8 adjoints: R would be 61504 x 61504, 56.4 GiB; the Weyl
    # dimensions meet the cap before either irrep (11 s each) is built
    def never(*args):
        raise AssertionError("an irrep past the product cap was built")
    monkeypatch.setattr("qsp.cli.build_irrep", never)
    adjoint = "0,0,0,0,0,0,0,1"
    start = time.perf_counter()
    res = runner.invoke(main, ["rmatrix", "--algebra", "E8", "--v", adjoint,
                               "--w", adjoint, "--q", "0.7"])
    assert time.perf_counter() - start < 2.0
    assert (res.exit_code, res.stdout) == (3, "")
    assert res.stderr == (f"resource error: tensor product dimension 61504 "
                          f"exceeds cap {qsp.uqrep.PRODUCT_DIM_CAP}\n")


@pytest.mark.parametrize("cfg, dim", [
    ({"q": 0.5, "spin2_1": 10 ** 9, "spin2_2": 1}, 2 * (10 ** 9 + 1)),
    ({"q": 0.5, "spin2_1": 20, "spin2_2": 20}, 441),
    ({"a": [[[0.0, 0.0]] * 401] * 401}, 401),
], ids=["huge-spin", "spin-pair", "raw-matrices"])
def test_kz_psi_past_the_dimension_cap_is_a_resource_error(runner, tmp_path,
                                                           cfg, dim):
    path = tmp_path / "kz.json"
    cfg = dict(cfg)
    if "a" in cfg:
        cfg["b_plus"] = cfg["b_minus"] = cfg["a"]
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["kz", "psi", "--config", str(path)])
    assert (res.exit_code, res.stdout) == (3, "")
    assert res.stderr == (f"resource error: KZ problem dimension {dim} "
                          f"exceeds cap {qsp.uqrep.DIM_CAP}\n")


@pytest.mark.parametrize("args", [
    ["verify", "appendixB", "--diagram", None, "--q", "0.7"],
    ["verify", "characters", "--diagram", None, "--t", "0.3"],
], ids=["appendixB", "characters"])
def test_cli_reports_are_timed(runner, monkeypatch, aiii_diagram, args):
    # a clock that advances 2.5 s per reading: the report spans two readings
    clock = itertools.count(100.0, 2.5)
    monkeypatch.setattr("qsp.cli.time", types.SimpleNamespace(
        time=lambda: next(clock)))
    res = runner.invoke(main, [aiii_diagram if a is None else a
                               for a in args])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["runtime"] == 2.5
