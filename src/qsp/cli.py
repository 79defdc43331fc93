"""Command-line interface.

Exit codes: 0 pass, 1 check failed, 2 invalid input, 3 resource limit.
All subcommands emit JSON on stdout; --out writes it to a file instead.
Errors follow the mapping in ``errors.py``.
"""

from __future__ import annotations

import json
import math
import sys
import warnings

import click
import numpy as np

from .coideal import (
    CoidealParams,
    characters,
    character_relations_residual,
    counit_module,
    kmatrix_solve,
    no_parameter,
    tau_tau0_perm,
    validate_star,
)
from .diagrams import diagram_from_json, enumerate_admissible
from .errors import InputError, QspError, ResourceError
from .harness import (
    Report,
    lambda_from_trace,
    run_axioms,
    run_kz_suite,
    run_rank_one,
)
from .kzmono import MonodromyProblem, psi as kz_psi, split_tensors, kz_coeffs
from .lusztig import BraidContext, verify_appB
from .rmatrix import rmat
from .rootsys import build_root_datum, parse_type_string, restrict_datum
from .uqrep import QParams, build_irrep, mat_json, module_to_json, twist_module
from .vogan10 import build_Mr, plain_block_eigenvalues, e_matrix_component_scalars


def _emit(obj, out):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _run(fn, out):
    """fn(), or the error contract of ``errors.py``: one stderr line and
    exit 2 or 3, or a failed JSON report and exit 1.  Warnings raised on the
    way are shown after fn returns or fails a check; on exit 2 or 3 they
    are dropped, so that the error line stands alone."""
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            result = fn()
        except InputError as exc:
            _error_line(2, f"input error: {exc}")
        except ResourceError as exc:
            _error_line(3, f"resource error: {exc}")
        except OverflowError as exc:
            _error_line(3, f"resource error: double precision overflows "
                           f"({exc})")
        except QspError as exc:
            failure = exc
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if failure is not None:
        _emit({"pass": False, "error": {"type": type(failure).__name__,
                                        "message": str(failure)}}, out)
        sys.exit(1)
    return result


def _error_line(code, text):
    click.echo(text, err=True)
    sys.exit(code)


def _read_json(path):
    """The JSON value in a file; InputError when it cannot be read as one."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: not a JSON file ({exc})") from None


def _read_diagram(path):
    """The Satake diagram in a JSON file; InputError on any value that does
    not parse as one."""
    obj = _read_json(path)
    try:
        return diagram_from_json(obj)
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise InputError(f"{path}: not a Satake diagram "
                         f"({type(exc).__name__}: {exc})") from None


def _numbers(text, option, kind=int, count=None):
    """The comma or space separated values of an option, each read by kind
    (int or complex); InputError on a malformed value or, given count, on
    a list of another length."""
    try:
        vals = [kind(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"--{option}: {text!r} is not a list of "
                         f"{kind.__name__} values") from None
    if count is not None and len(vals) != count:
        raise InputError(f"--{option} needs one value per white vertex "
                         f"({count}), got {len(vals)}")
    return vals


def _exit_report(report, out):
    payload = report.to_json()
    _emit(payload, out)
    sys.exit(0 if payload["pass"] else 1)


@click.group()
def main():
    """Quantum symmetric pair workbench."""


@main.group()
def diagram():
    """Satake diagram utilities."""


@diagram.command("check")
@click.option("--file", "path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None)
def diagram_check(path, out):
    diag = _run(lambda: _read_diagram(path), out)
    _emit({"admissible": True, "diagram": diag.to_json()}, out)


@diagram.command("list")
@click.option("--type", "typ", required=True)
@click.option("--rank", required=True, type=int)
@click.option("--out", default=None)
def diagram_list(typ, rank, out):
    def go():
        datum = build_root_datum([(typ, rank)])
        return [d.to_json() for d in enumerate_admissible(datum)]
    _emit(_run(go, out), out)


@main.group()
def rep():
    """Representation builders."""


@rep.command("build")
@click.option("--algebra", required=True)
@click.option("--weight", required=True)
@click.option("--q", required=True, type=float)
@click.option("--out", default=None)
def rep_build(algebra, weight, q, out):
    def go():
        datum = build_root_datum(parse_type_string(algebra))
        coords = _numbers(weight, "weight")
        return module_to_json(build_irrep(datum, datum.weight(coords), QParams(q)))
    _emit(_run(go, out), out)


@main.command("rmatrix")
@click.option("--algebra", required=True)
@click.option("--v", "vw", required=True)
@click.option("--w", "ww", required=True)
@click.option("--q", required=True, type=float)
@click.option("--out", default=None)
def rmatrix_cmd(algebra, vw, ww, q, out):
    def go():
        datum = build_root_datum(parse_type_string(algebra))
        qp = QParams(q)
        mv = build_irrep(datum, datum.weight(_numbers(vw, "v")), qp)
        mw = build_irrep(datum, datum.weight(_numbers(ww, "w")), qp)
        r = rmat(mv, mw)
        return {"convention": r.convention,
                "matrix": mat_json(r.matrix)}
    _emit(_run(go, out), out)


@main.group()
def coideal():
    """Coideal subalgebra utilities."""


@coideal.command("validate")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--c", "c_str", default=None,
              help="comma separated values per white vertex; default: "
                   "no-parameter solution")
@click.option("--s", "s_str", default=None)
@click.option("--q", required=True, type=float)
@click.option("--out", default=None)
def coideal_validate(diagram_path, c_str, s_str, q, out):
    def go():
        diag = _read_diagram(diagram_path)
        qp = QParams(q)
        params = no_parameter(diag, qp)
        c, s = params.c, params.s
        if c_str:
            c = dict(zip(diag.white, _numbers(c_str, "c", complex,
                                              len(diag.white))))
        if s_str:
            s = dict(zip(diag.white, _numbers(s_str, "s", complex,
                                              len(diag.white))))
        params = CoidealParams(c, s)
        ok, violations = validate_star(diag, params, qp)
        return {"star_invariant": ok, "violations": violations,
                "c": {str(r): [complex(c[r]).real, complex(c[r]).imag]
                      for r in diag.white}}
    payload = _run(go, out)
    _emit(payload, out)
    sys.exit(0 if payload["star_invariant"] else 1)


@main.command("kmatrix")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--t", required=True, type=float)
@click.option("--rep", "rep_weight", default="1")
@click.option("--q", required=True, type=float)
@click.option("--out", default=None)
def kmatrix_cmd(diagram_path, t, rep_weight, q, out):
    def go():
        diag = _read_diagram(diagram_path)
        qp = QParams(q)
        datum = diag.datum
        params = no_parameter(diag, qp)
        if diag.datum.rank == 1:
            params = CoidealParams({1: q ** -2}, {1: 1j * t})
        x0 = counit_module(diag, params, qp)
        target = build_irrep(datum, datum.weight(_numbers(rep_weight, "rep")),
                             qp)
        fund = build_irrep(datum, datum.fundamental_weight(1), qp)
        eta = kmatrix_solve(diag, params, qp, x0, target, fuse_from=fund)
        lam = None
        if eta.shape[0] == 2:
            lam = lambda_from_trace(eta, q)[0]
        sigma = tau_tau0_perm(diag)
        plain = x0.generator_matrices(target)
        twisted = x0.generator_matrices(twist_module(target, sigma))
        resid = max(
            float(np.linalg.norm(eta @ twisted[k] - plain[k] @ eta))
            / max(float(np.linalg.norm(plain[k])), 1e-30)
            for k in plain)
        return {"eta": mat_json(eta),
                "singular_values": sorted(
                    float(x) for x in np.linalg.svd(eta, compute_uv=False)),
                "lambda_from_trace": lam,
                "residuals": {"twisted_intertwining": resid}}
    _emit(_run(go, out), out)


@main.group()
def kz():
    """Cyclotomic KZ monodromy."""


def _parse_cmat(cfg, key):
    """The complex matrix cfg[key], given as rows of [re, im] pairs."""
    try:
        return np.array([[complex(re, im) for re, im in row]
                         for row in cfg[key]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{key}: a matrix needs rows of [re, im] number "
                         "pairs") from exc


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _config_int(cfg, key, default, least):
    """cfg[key] (or the default) as an integer of at least ``least``."""
    val = cfg.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or val < least:
        kind = "positive" if least == 1 else "nonnegative"
        raise InputError(f"{key} must be a {kind} integer")
    return val


@kz.command("psi")
@click.option("--config", required=True, type=click.Path(exists=True))
@click.option("--out", default=None)
def kz_psi_cmd(config, out):
    def go():
        cfg = _read_json(config)
        if not isinstance(cfg, dict):
            raise InputError("a KZ configuration is a JSON object")
        if "a" in cfg:
            mats = [_parse_cmat(cfg, key)
                    for key in ("a", "b_plus", "b_minus")]
        else:
            q = cfg.get("q")
            if not _is_number(q) or not q > 0:
                raise InputError("q must be a positive number")
            lam = cfg.get("lambda", 1.0)
            if not _is_number(lam) or not math.isfinite(lam):
                raise InputError("lambda must be a finite number")
            spins = [_config_int(cfg, key, 1, 0)
                     for key in ("spin2_1", "spin2_2")]
            mats = kz_coeffs(split_tensors(), lam, *spins, QParams(q).hbar)
        kw = ({"series_order": _config_int(cfg, "series_order", None, 1)}
              if "series_order" in cfg else {})
        prob = MonodromyProblem(*mats, **kw)
        res = kz_psi(prob)
        return {"psi": mat_json(res.psi), "spread": res.spread,
                "tail_bound": res.tail_bound,
                "eig_condition": res.eig_condition,
                "orders": list(res.orders)}
    _emit(_run(go, out), out)


@main.group()
def vogan():
    """Vogan-side twisted double."""


@vogan.command("e-matrix")
@click.option("--r", required=True, type=float)
@click.option("--q", required=True, type=float)
@click.option("--levels", default=20, type=int)
@click.option("--out", default=None)
def vogan_e_matrix(r, q, levels, out):
    def go():
        qp = QParams(q)
        datum = build_root_datum([("A", 1)])
        m = build_Mr(r, qp, levels)
        v = build_irrep(datum, datum.weight([1]), qp)
        blocks = plain_block_eigenvalues(m, v, qp)
        scalars, defect = e_matrix_component_scalars(m, v, qp)
        return {
            "eigenvalue_moduli_per_weight": {
                str(h): sorted(abs(x) for x in ev)
                for h, ev in blocks.items()},
            "component_scalars": {
                str(h): {"sub": [mu.real, mu.imag],
                         "quotient": None if lam is None
                         else [lam.real, lam.imag]}
                for h, (mu, lam) in scalars.items()},
            "chain_defect": defect,
            "expected": sorted([q ** (-r - 1.5), q ** (r + 0.5)]),
        }
    _emit(_run(go, out), out)


@main.group()
def verify():
    """Residual suites with pass/fail reports."""


@verify.command("rank-one")
@click.option("--q", required=True, type=float)
@click.option("--r", required=True, type=float)
@click.option("--levels", default=14, type=int)
@click.option("--out", default=None)
def verify_rank_one(q, r, levels, out):
    _exit_report(_run(lambda: run_rank_one(q, r, levels), out), out)


@verify.command("axioms")
@click.option("--source", required=True,
              type=click.Choice(["coideal", "kz", "vogan"]))
@click.option("--q", required=True, type=float)
@click.option("--t", default=0.3, type=float)
@click.option("--r", default=0.25, type=float)
@click.option("--out", default=None)
def verify_axioms(source, q, t, r, out):
    _exit_report(_run(lambda: run_axioms(source, q, t=t, r=r), out), out)


@verify.command("kz")
@click.option("--q", required=True, type=float)
@click.option("--out", default=None)
def verify_kz(q, out):
    _exit_report(_run(lambda: run_kz_suite(q), out), out)


@verify.command("appendixB")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--q", required=True, type=float)
@click.option("--out", default=None)
def verify_appendix_b(diagram_path, q, out):
    def go():
        diag = _read_diagram(diagram_path)
        if not diag.X:
            raise InputError("appendix-B checks need a nonempty blackened set")
        ctx = BraidContext(diag, QParams(q))
        sub, _, _ = restrict_datum(diag.datum, diag.X)
        residuals = {}
        for coords in ([1] * sub.rank, [2] * sub.rank):
            res = verify_appB(ctx, coords)
            for key, val in res.items():
                residuals[f"{key}[{coords}]"] = val
        return Report("appendixB", {"q": q, "X": list(diag.X)},
                      residuals, {k: 1e-8 for k in residuals})
    _exit_report(_run(go, out), out)


@verify.command("characters")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--t", required=True, type=float)
@click.option("--q", default=0.7, type=float)
@click.option("--out", default=None)
def verify_characters(diagram_path, t, q, out):
    def go():
        diag = _read_diagram(diagram_path)
        qp = QParams(q)
        params = no_parameter(diag, qp)
        chi = characters(diag, qp, t)
        residuals = character_relations_residual(diag, params, qp, chi)
        return Report("characters", {"q": q, "t": t},
                      residuals, {k: 1e-10 for k in residuals})
    _exit_report(_run(go, out), out)


if __name__ == "__main__":
    main()
