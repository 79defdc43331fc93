"""Known walls: residuals that miss their tolerance at a recorded point.

Each row is one wall: the call and its point, the residual measured when
the row was added, the tolerance it misses, and the ROADMAP item that owns
it.  ``test_walls.py`` runs every row as a strict xfail.  A change that
mends a wall makes its row XPASS, which fails the suite until the row
leaves this table for a passing test.
"""

from dataclasses import dataclass

from qsp.rmatrix import ribbon_residual
from qsp.rootsys import build_root_datum
from qsp.uqrep import QParams, build_irrep


def ribbon_on_v_v(typ, coords, q):
    """``ribbon_residual`` on V ox V, V the irrep of highest weight coords."""
    datum = build_root_datum(typ)
    v = build_irrep(datum, datum.weight(list(coords)), QParams(q))
    return ribbon_residual(v, v)


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
)
