"""Known walls: residuals that miss their tolerance at a recorded point.

Each row is one wall: the call and its point, the residual measured when
the row was added, the tolerance it misses, and the ROADMAP item that owns
it.  ``test_walls.py`` runs every row as a strict xfail.  A change that
mends a wall makes its row XPASS, which fails the suite until the row
leaves this table for a passing test.
"""

from dataclasses import dataclass

from qsp.harness import TOL_ODE, run_axioms, run_rank_one
from qsp.kzmono import split_tensors, verify_octagon_kz
from qsp.rmatrix import ribbon_residual
from qsp.rootsys import build_root_datum
from qsp.uqrep import QParams, build_irrep


def ribbon_on_v_v(typ, coords, q):
    """``ribbon_residual`` on V ox V, V the irrep of highest weight coords."""
    datum = build_root_datum(typ)
    v = build_irrep(datum, datum.weight(list(coords)), QParams(q))
    return ribbon_residual(v, v)


def vogan_axiom(key, q, levels):
    """Residual ``key`` of ``run_axioms("vogan", q, r=0.1, levels=levels)``."""
    return run_axioms("vogan", q, r=0.1, levels=levels).residuals[key]


def rank_one(key, q, r, levels):
    """Residual ``key`` of ``run_rank_one(q, r, levels)``."""
    return run_rank_one(q, r, levels).residuals[key]


def kz_octagon(key, q, lam, j2):
    """Residual ``key`` of ``verify_octagon_kz`` on chi_lam ox V ox V, V of
    twice-spin j2."""
    hbar = QParams(q).hbar
    return verify_octagon_kz(split_tensors(), lam, j2, j2, hbar)[key]


@dataclass(frozen=True)
class Wall:
    name: str
    call: object
    point: tuple
    measured: float
    tolerance: float
    item: str


WALLS = (
    Wall("ribbon-G2-seven-q0.5", ribbon_on_v_v, ("G2", (1, 0), 0.5),
         7.39e-9, 1e-10, "ROADMAP item 4"),
    Wall("ribbon-G2-seven-q0.4", ribbon_on_v_v, ("G2", (1, 0), 0.4),
         1.66e-6, 1e-10, "ROADMAP item 4"),
    Wall("ribbon-B3-vector-q0.5", ribbon_on_v_v, ("B3", (1, 0, 0), 0.5),
         5.30e-10, 1e-10, "ROADMAP item 4"),
    Wall("ribbon-B3-vector-q0.4", ribbon_on_v_v, ("B3", (1, 0, 0), 0.4),
         4.91e-7, 1e-10, "ROADMAP item 4"),
    Wall("ribbon-A2-22-q0.6", ribbon_on_v_v, ("A2", (2, 2), 0.6),
         1.58e-5, 1e-10, "ROADMAP item 13"),
    Wall("ribbon-A2-22-q0.7", ribbon_on_v_v, ("A2", (2, 2), 0.7),
         3.59e-8, 1e-10, "ROADMAP item 13"),
    Wall("vogan-EqRB2-q0.7-L30", vogan_axiom, ("EqRB2", 0.7, 30),
         0.593, 1e-9, "ROADMAP item 2"),
    Wall("vogan-EqRB2-q0.5-L20", vogan_axiom, ("EqRB2", 0.5, 20),
         1.46e3, 1e-9, "ROADMAP item 2"),
    Wall("vogan-cyl-tw-eq-q0.96-L160", vogan_axiom, ("cyl-tw-eq", 0.96, 160),
         7.22e-6, 1e-9, "ROADMAP item 2"),
    Wall("rank-one-trace-lambda-q0.999", rank_one,
         ("trace-lambda[1.0]", 0.999, 0.25, 60), 1.23e-9, 1e-9,
         "ROADMAP item 3"),
    Wall("rank-one-vogan-scalars-q0.05", rank_one,
         ("vogan-scalars", 0.05, 5.0, 60), 1.84e-7, 1e-10, "ROADMAP item 3"),
    Wall("rank-one-vogan-coideal-sv-q0.05", rank_one,
         ("vogan-coideal-sv", 0.05, 5.0, 60), 2.86e8, 1e-8,
         "ROADMAP item 3"),
    Wall("kz-ribbon-q0.5-lam1-4x4", kz_octagon, ("ribbon", 0.5, 1.0, 4),
         4.03e-3, TOL_ODE, "ROADMAP item 4"),
    Wall("kz-ribbon-q0.6-lam1-4x4", kz_octagon, ("ribbon", 0.6, 1.0, 4),
         3.10e-6, TOL_ODE, "ROADMAP item 4"),
    Wall("kz-ribbon-q0.5-lam2-3x3", kz_octagon, ("ribbon", 0.5, 2.0, 3),
         9.87e-7, TOL_ODE, "ROADMAP item 4"),
    Wall("kz-ribbon-q0.2-lam1-2x2", kz_octagon, ("ribbon", 0.2, 1.0, 2),
         2.39e-7, TOL_ODE, "ROADMAP item 4"),
    Wall("kz-ribbon-q0.3-lam0.5-3x3", kz_octagon, ("ribbon", 0.3, 0.5, 3),
         1.22e-4, TOL_ODE, "ROADMAP item 4"),
)
