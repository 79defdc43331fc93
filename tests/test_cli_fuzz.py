"""Fuzz of the CLI error contract (``qsp.errors``).

Every run, whatever its input, exits 0 or 1 with strict JSON (no NaN or
Infinity) on stdout, or 2 (input) or 3 (resource) with one line on
stderr, and ends within a subprocess timeout.  The inputs are drawn by Hypothesis: q, t, r, ladder
levels (also past ``vogan10.MAX_LEVELS``) and spins, the Satake diagrams that ``qsp diagram list`` gives for
types A-D up to rank 5, malformed JSON files, and an ``--out`` file that
can or cannot be written (an unwritable one is exit 2 or 3).  The draws are
derandomized and few, so the suite stays short and repeatable.
"""

import json
import math
import os
import subprocess
import sys

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qsp
from qsp.cli import main
from qsp.rootsys import _RANK_BOUNDS
from qsp.vogan10 import MAX_LEVELS

RUN_TIMEOUT = 60
_ENV = dict(os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(qsp.__file__)))


def _listed_diagrams():
    runner, out = CliRunner(), []
    for typ in "ABCD":
        for rank in range(_RANK_BOUNDS[typ][0], 6):
            res = runner.invoke(main, ["diagram", "list", "--type", typ,
                                       "--rank", str(rank)])
            assert res.exit_code == 0, res.output
            out += json.loads(res.output)
    return out


DIAGRAMS = _listed_diagrams()

_NUMBER = st.one_of(
    st.floats(-3.0, 6.0),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]))
_Q = st.one_of(st.floats(0.0, 1.0),
               st.sampled_from([-0.5, 1.5, math.nan, math.inf]))
_LEVELS = st.one_of(st.integers(-2, 400),
                    st.integers(MAX_LEVELS + 1, 10 ** 6))
_SPIN = st.integers(-1, 12)
# JSON that is not a diagram or a KZ configuration: broken text, values of
# the wrong kind, and objects with wrong or missing fields
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | _NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "rank", "X", "tau", "z", "q",
                                       "lambda", "a", "b_plus", "b_minus",
                                       "spin2_1", "spin2_2", "series_order",
                                       "components"]), inner, max_size=4),
    max_leaves=6)
_MALFORMED = st.one_of(
    st.text(max_size=12),
    _JSON_VALUE.map(lambda v: json.dumps(v)),
    st.sampled_from(DIAGRAMS).map(lambda d: json.dumps(d)[:-3]))


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def _reject_constant(name):
    """``parse_constant`` for json.loads: NaN and Infinity are not JSON."""
    raise AssertionError(f"{name} in the JSON output")


def _run_cli(args, out_path=None):
    """Run qsp with args, and with --out out_path unless that is None."""
    if out_path is not None:
        args = [*args, "--out", str(out_path)]
        if out_path.exists():
            out_path.unlink()
    proc = subprocess.run([sys.executable, "-m", "qsp.cli", *args],
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT, env=_ENV)
    code, out, err = proc.returncode, proc.stdout, proc.stderr
    assert code in (0, 1, 2, 3), (args, code, err)
    assert "Traceback" not in err, (args, err)
    if code in (0, 1):
        if out_path is not None:
            assert out == "", (args, out)
            out = out_path.read_text(encoding="utf-8")
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "" and len(err.strip().splitlines()) == 1, (args, err)
    return code


# --out: none (stdout), a writable file, or one in a missing directory
_OUT = st.sampled_from([None, "out.json", "missing/out.json"])


def _rep(diag, spin):
    """The twice-spin on a rank-one diagram, else the first fundamental."""
    if diag["rank"] == 1:
        return str(spin)
    return " ".join(["1"] + ["0"] * (diag["rank"] - 1))


_FUZZ = settings(max_examples=12, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(diag=st.sampled_from(DIAGRAMS), command=st.sampled_from(
           ["kmatrix", "appendixB", "characters", "validate"]),
       q=_Q, t=_NUMBER, spin=_SPIN, out=_OUT)
def test_diagram_commands_keep_the_contract(tmp_path, diag, command, q, t,
                                            spin, out):
    path = _write(tmp_path / "diagram.json", json.dumps(diag))
    args = {
        "kmatrix": ["kmatrix", "--diagram", path, "--t", repr(t),
                    "--rep", _rep(diag, spin), "--q", repr(q)],
        "appendixB": ["verify", "appendixB", "--diagram", path,
                      "--q", repr(q)],
        "characters": ["verify", "characters", "--diagram", path,
                       "--t", repr(t), "--q", repr(q)],
        "validate": ["coideal", "validate", "--diagram", path,
                     "--q", repr(q)],
    }[command]
    _run_cli(args, None if out is None else tmp_path / out)


@_FUZZ
@given(command=st.sampled_from(["rank-one", "e-matrix", "axioms", "kz"]),
       q=_Q, t=_NUMBER, r=_NUMBER, levels=_LEVELS,
       source=st.sampled_from(["coideal", "kz", "vogan"]), out=_OUT)
def test_numeric_commands_keep_the_contract(tmp_path, command, q, t, r,
                                            levels, source, out):
    args = {
        "rank-one": ["verify", "rank-one", "--q", repr(q), "--r", repr(r),
                     "--levels", str(levels)],
        "e-matrix": ["vogan", "e-matrix", "--r", repr(r), "--q", repr(q),
                     "--levels", str(levels)],
        "axioms": ["verify", "axioms", "--source", source, "--q", repr(q),
                   "--t", repr(t), "--r", repr(r)],
        "kz": ["verify", "kz", "--q", repr(q)],
    }[command]
    _run_cli(args, None if out is None else tmp_path / out)


@_FUZZ
@given(text=_MALFORMED, command=st.sampled_from(
           ["check", "kmatrix", "appendixB", "psi"]))
def test_malformed_json_keeps_the_contract(tmp_path, text, command):
    path = _write(tmp_path / "input.json", text)
    args = {
        "check": ["diagram", "check", "--file", path],
        "kmatrix": ["kmatrix", "--diagram", path, "--t", "0.3",
                    "--q", "0.7"],
        "appendixB": ["verify", "appendixB", "--diagram", path,
                      "--q", "0.7"],
        "psi": ["kz", "psi", "--config", path],
    }[command]
    _run_cli(args)
