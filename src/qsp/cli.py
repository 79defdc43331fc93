"""Command-line interface.

Exit codes: 0 pass, 1 check failed, 2 invalid input, 3 resource limit.
All subcommands emit JSON on stdout; --out writes it to a file instead.
Errors follow the mapping in ``errors.py``.
"""

from __future__ import annotations

import json
import math
import sys
import time
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
    twisted_pairs,
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
from .rootsys import (build_root_datum, parse_type_string, restrict_datum,
                      weyl_dimension)
from .uqrep import (DIM_CAP, QParams, build_irrep, mat_json, module_to_json,
                    require_product_dim)
from .vogan10 import build_Mr, plain_block_eigenvalues, e_matrix_component_scalars


def _run(fn, out):
    """Run fn() under the error contract of ``errors.py`` and exit.

    fn returns a JSON payload (exit 0), a Report (exit 0 if it passes,
    else 1) or (payload, passed).  The JSON goes to stdout, or to the file
    ``out``.  An InputError, or an ``out`` that cannot be written, is one
    ``input error`` line on stderr and exit 2; a ResourceError, a double
    precision overflow or running out of memory is one ``resource error``
    line and exit 3; any other QspError is a failed JSON report and exit 1.
    Warnings raised on the way are shown after fn returns or fails a
    check; on exit 2 or 3 they are dropped, so that the error line stands
    alone."""
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
        except MemoryError as exc:
            _error_line(3, f"resource error: out of memory ({exc})")
        except QspError as exc:
            result = ({"pass": False, "error": {"type": type(exc).__name__,
                                                "message": str(exc)}}, False)
        if isinstance(result, Report):
            result = (result.to_json(), result.passed)
        elif not isinstance(result, tuple):
            result = (result, True)
        payload, passed = result
        text = json.dumps(payload, indent=2, sort_keys=True)
        if out:
            try:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                _error_line(2, f"input error: --out {out}: {exc}")
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if not out:
        click.echo(text)
    sys.exit(0 if passed else 1)


def _command(group, name):
    """Register a plain function of its click options as the subcommand
    ``name`` of ``group``: the command adds --out, last among the options,
    and runs the function under ``_run``."""
    def register(fn):
        cmd = group.command(name)(fn)
        cmd.callback = lambda out, **options: _run(lambda: fn(**options), out)
        cmd.params.append(click.Option(["--out"], default=None))
        return cmd
    return register


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
        raise InputError(f"--{option} needs a list of length {count}, got "
                         f"{len(vals)}")
    return vals


@click.group()
def main():
    """Quantum symmetric pair workbench."""


@main.group()
def diagram():
    """Satake diagram utilities."""


@_command(diagram, "check")
@click.option("--file", "path", required=True, type=click.Path(exists=True))
def diagram_check(path):
    return {"admissible": True, "diagram": _read_diagram(path).to_json()}


@_command(diagram, "list")
@click.option("--type", "typ", required=True)
@click.option("--rank", required=True, type=int)
def diagram_list(typ, rank):
    datum = build_root_datum([(typ, rank)])
    return [d.to_json() for d in enumerate_admissible(datum)]


@main.group()
def rep():
    """Representation builders."""


@_command(rep, "build")
@click.option("--algebra", required=True)
@click.option("--weight", required=True)
@click.option("--q", required=True, type=float)
def rep_build(algebra, weight, q):
    datum = build_root_datum(parse_type_string(algebra))
    coords = _numbers(weight, "weight", count=datum.rank)
    return module_to_json(build_irrep(datum, datum.weight(coords), QParams(q)))


@_command(main, "rmatrix")
@click.option("--algebra", required=True)
@click.option("--v", "vw", required=True)
@click.option("--w", "ww", required=True)
@click.option("--q", required=True, type=float)
def rmatrix_cmd(algebra, vw, ww, q):
    datum = build_root_datum(parse_type_string(algebra))
    qp = QParams(q)
    weights = [datum.weight(_numbers(text, name, count=datum.rank))
               for text, name in ((vw, "v"), (ww, "w"))]
    # rmat checks the product too, but only once both irreps are built
    require_product_dim(*(weyl_dimension(datum, w) for w in weights))
    mv, mw = (build_irrep(datum, w, qp) for w in weights)
    r = rmat(mv, mw)
    return {"convention": r.convention, "matrix": mat_json(r.matrix)}


@main.group()
def coideal():
    """Coideal subalgebra utilities."""


@_command(coideal, "validate")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--c", "c_str", default=None,
              help="comma separated values per white vertex; default: "
                   "no-parameter solution")
@click.option("--s", "s_str", default=None)
@click.option("--q", required=True, type=float)
def coideal_validate(diagram_path, c_str, s_str, q):
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
    ok, violations = validate_star(diag, CoidealParams(c, s), qp)
    return {"star_invariant": ok, "violations": violations,
            "c": {str(r): [complex(c[r]).real, complex(c[r]).imag]
                  for r in diag.white}}, ok


@_command(main, "kmatrix")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--t", required=True, type=float)
@click.option("--rep", "rep_weight", default="1")
@click.option("--q", required=True, type=float)
def kmatrix_cmd(diagram_path, t, rep_weight, q):
    diag = _read_diagram(diagram_path)
    qp = QParams(q)
    datum = diag.datum
    params = no_parameter(diag, qp)
    if diag.datum.rank == 1:
        params = CoidealParams({1: q ** -2}, {1: 1j * t})
    x0 = counit_module(diag, params, qp)
    target = build_irrep(datum, datum.weight(
        _numbers(rep_weight, "rep", count=datum.rank)), qp)
    fund = build_irrep(datum, datum.fundamental_weight(1), qp)
    eta = kmatrix_solve(diag, params, qp, x0, target, fuse_from=fund)
    lam = None
    if eta.shape[0] == 2:
        lam = lambda_from_trace(eta, q)[0]
    resid = max(float(np.linalg.norm(eta @ tw - plain @ eta))
                / max(float(np.linalg.norm(plain)), 1e-30)
                for tw, plain in twisted_pairs(x0, target))
    return {"eta": mat_json(eta),
            "singular_values": sorted(
                float(x) for x in np.linalg.svd(eta, compute_uv=False)),
            "lambda_from_trace": lam,
            "residuals": {"twisted_intertwining": resid}}


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


def _check_kz_dim(dim):
    """ResourceError for a KZ problem of dimension past ``DIM_CAP``."""
    if dim > DIM_CAP:
        raise ResourceError(f"KZ problem dimension {dim} exceeds cap "
                            f"{DIM_CAP}")


@_command(kz, "psi")
@click.option("--config", required=True, type=click.Path(exists=True))
def kz_psi_cmd(config):
    cfg = _read_json(config)
    if not isinstance(cfg, dict):
        raise InputError("a KZ configuration is a JSON object")
    if "a" in cfg:
        mats = [_parse_cmat(cfg, key) for key in ("a", "b_plus", "b_minus")]
        _check_kz_dim(len(mats[0]))
    else:
        q = cfg.get("q")
        if not _is_number(q) or not q > 0:
            raise InputError("q must be a positive number")
        lam = cfg.get("lambda", 1.0)
        if not _is_number(lam) or not math.isfinite(lam):
            raise InputError("lambda must be a finite number")
        spins = [_config_int(cfg, key, 1, 0) for key in ("spin2_1", "spin2_2")]
        _check_kz_dim((spins[0] + 1) * (spins[1] + 1))
        mats = kz_coeffs(split_tensors(), lam, *spins, QParams(q).hbar)
    kw = ({"series_order": _config_int(cfg, "series_order", None, 1)}
          if "series_order" in cfg else {})
    res = kz_psi(MonodromyProblem(*mats, **kw))
    return {"psi": mat_json(res.psi), "spread": res.spread,
            "tail_bound": res.tail_bound, "eig_condition": res.eig_condition,
            "orders": list(res.orders)}


@main.group()
def vogan():
    """Vogan-side twisted double."""


@_command(vogan, "e-matrix")
@click.option("--r", required=True, type=float)
@click.option("--q", required=True, type=float)
@click.option("--levels", default=20, type=int)
def vogan_e_matrix(r, q, levels):
    qp = QParams(q)
    datum = build_root_datum([("A", 1)])
    m = build_Mr(r, qp, levels)
    v = build_irrep(datum, datum.weight([1]), qp)
    blocks = plain_block_eigenvalues(m, v, qp)
    scalars, defect = e_matrix_component_scalars(m, v, qp)
    return {
        "eigenvalue_moduli_per_weight": {
            str(h): sorted(abs(x) for x in ev) for h, ev in blocks.items()},
        "component_scalars": {
            str(h): {"sub": [mu.real, mu.imag],
                     "quotient": None if lam is None
                     else [lam.real, lam.imag]}
            for h, (mu, lam) in scalars.items()},
        "chain_defect": defect,
        "expected": sorted([q ** (-r - 1.5), q ** (r + 0.5)]),
    }


@main.group()
def verify():
    """Residual suites with pass/fail reports."""


@_command(verify, "rank-one")
@click.option("--q", required=True, type=float)
@click.option("--r", required=True, type=float)
@click.option("--levels", default=14, type=int)
def verify_rank_one(q, r, levels):
    return run_rank_one(q, r, levels)


@_command(verify, "axioms")
@click.option("--source", required=True,
              type=click.Choice(["coideal", "kz", "vogan"]))
@click.option("--q", required=True, type=float)
@click.option("--t", default=0.3, type=float)
@click.option("--r", default=0.25, type=float)
def verify_axioms(source, q, t, r):
    return run_axioms(source, q, t=t, r=r)


@_command(verify, "kz")
@click.option("--q", required=True, type=float)
def verify_kz(q):
    return run_kz_suite(q)


@_command(verify, "appendixB")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--q", required=True, type=float)
def verify_appendix_b(diagram_path, q):
    start = time.time()
    diag = _read_diagram(diagram_path)
    if not diag.X:
        raise InputError("appendix-B checks need a nonempty blackened set")
    ctx = BraidContext(diag, QParams(q))
    sub, _, _ = restrict_datum(diag.datum, diag.X)
    residuals = {}
    for coords in ([1] * sub.rank, [2] * sub.rank):
        for key, val in verify_appB(ctx, coords).items():
            residuals[f"{key}[{coords}]"] = val
    return Report("appendixB", {"q": q, "X": list(diag.X)}, residuals,
                  {k: 1e-8 for k in residuals}, runtime=time.time() - start)


@_command(verify, "characters")
@click.option("--diagram", "diagram_path", required=True,
              type=click.Path(exists=True))
@click.option("--t", required=True, type=float)
@click.option("--q", default=0.7, type=float)
def verify_characters(diagram_path, t, q):
    start = time.time()
    diag = _read_diagram(diagram_path)
    qp = QParams(q)
    chi = characters(diag, qp, t)
    residuals = character_relations_residual(diag, no_parameter(diag, qp),
                                             qp, chi)
    return Report("characters", {"q": q, "t": t}, residuals,
                  {k: 1e-10 for k in residuals}, runtime=time.time() - start)


if __name__ == "__main__":
    main()
