"""Modules and residuals that only the tests use."""

import numpy as np

from qsp.uqrep import WeightModule


def trivial_module(datum, qp):
    """The one-dimensional module of weight zero."""
    verts = datum.vertices
    z = np.zeros((1, 1), dtype=complex)
    return WeightModule(datum, qp, [datum.zero_weight()],
                        {r: z.copy() for r in verts},
                        {r: z.copy() for r in verts},
                        highest=datum.zero_weight(), label="trivial")


def star_residual(module):
    """max_r ||E_r^dagger - F_r K_r|| / max(||E_r||, 1e-30)."""
    worst = 0.0
    for r in module.datum.vertices:
        e = module.E[r]
        frkr = module.F[r] @ module.k_matrix(module.datum.simple_root(r))
        scale = max(np.linalg.norm(e), 1e-30)
        worst = max(worst, np.linalg.norm(e.conj().T - frkr) / scale)
    return worst
