"""Per-layer tracing for one benchmark pass, installed from outside ``src/``.

Three sources, all active only in a traced pass:

* spans: ``Tracer.call`` records name, start, end, parent and pass id around
  every public ``qsp`` call the benchmark makes;
* counters: wrappers put over selected internal ``qsp`` functions (every
  module-global reference to the function is replaced in this process) count
  calls, repeats of the same inputs within the pass, raised errors, time and
  sizes;
* ``cProfile``: self time per module and the call count of the KZ ODE
  right-hand side.

An untraced pass uses a ``Tracer(enabled=False)``, whose ``call`` is a plain
call.
"""

from __future__ import annotations

import cProfile
import functools
import hashlib
import os
import sys
import time

# layers reported as <module>.self_s
SELF_LAYERS = ("rootsys", "algebra", "lusztig", "uqrep", "rmatrix", "coideal",
               "kzmono", "vogan10", "harness", "fractions", "numpy", "scipy")

# public functions the workloads call, reported as <name>.span_s / .span_calls
SPAN_NAMES = (
    "uqrep.build_irrep", "rmatrix.rmat", "rmatrix.ybe_residual",
    "rmatrix.hexagon_residuals", "rmatrix.ribbon_residual",
    "harness.CoidealRankOneFamily", "harness.check_octagon_coideal",
    "harness.check_ribbon_coideal", "harness.check_cylinder_coideal",
    "coideal.kmatrix_solve", "coideal.star_membership",
    "coideal.coideal_law_residual", "lusztig.verify_appB",
    "kzmono.kz_coeffs", "kzmono.verify_eg", "kzmono.verify_octagon_kz",
    "kzmono.psi", "kzmono.flatness_residuals",
    "harness.run_rank_one", "harness.run_axioms",
)

# internal counters; every one of them must repeat exactly between passes
# with the same inputs, except the times
COUNTER_NAMES = (
    "uqrep.build_irrep.calls", "uqrep.build_irrep.repeats",
    "uqrep.decompose.calls",
    "rmatrix.rmat.calls", "rmatrix.rmat.repeats",
    "rmatrix.quasi_factor.calls",
    "rmatrix.op_on_legs.calls", "rmatrix.op_on_legs.dense_mb",
    "lusztig.braid_word_on_algebra.calls",
    "lusztig.braid_word_on_algebra.terms_max",
    "coideal.kmatrix_solve.calls",
    "kzmono.psi.calls", "kzmono.psi.repeats", "kzmono.psi.errors",
    "kzmono.ode_rhs.calls",
    "vogan10.e_matrix.calls",
)
TIMER_NAMES = (
    "rmatrix.op_on_legs.s", "coideal.kmatrix_solve.s", "kzmono.psi.s",
    "kzmono.sylvester_series.s", "vogan10.e_matrix.s",
)


class Tracer:
    """Span recorder for one pass; spans stay in memory until the pass ends."""

    def __init__(self, enabled, pass_id=0):
        self.enabled = enabled
        self.pass_id = pass_id
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def span(self, name):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        if not tr.enabled:
            return self
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append({"name": self.name, "start": time.perf_counter(),
                         "end": None, "parent": parent, "pass": tr.pass_id})
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        if tr.enabled:
            tr.spans[self.index]["end"] = time.perf_counter()
            tr._stack.pop()
        return False


def _module_key(m):
    return (m.datum.components, m.label, m.qp.q,
            tuple(w.coords for w in m.weights))


def _array_key(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class Counters:
    """Wrappers over internal qsp functions; ``install`` replaces every
    module-global reference in the given modules."""

    def __init__(self):
        self.values = {name: 0 for name in COUNTER_NAMES}
        self.values.update({name: 0.0 for name in TIMER_NAMES})
        self._seen = {"build_irrep": set(), "rmat": set(), "psi": set()}
        self._depth = {}

    def install(self, modules):
        import qsp.coideal
        import qsp.kzmono
        import qsp.lusztig
        import qsp.rmatrix
        import qsp.uqrep
        import qsp.vogan10
        v = self.values

        def build_irrep_before(datum, varpi, qp, label=""):
            key = (datum.components, varpi.coords, qp.q)
            self._note_repeat("build_irrep", key, "uqrep.build_irrep.repeats")

        def rmat_before(m, n):
            self._note_repeat("rmat", (_module_key(m), _module_key(n)),
                              "rmatrix.rmat.repeats")

        def op_on_legs_before(mat, dims, legs):
            n = 1
            for d in dims:
                n *= int(d)
            # the permutation matrix op_on_legs fills is n x n float64
            v["rmatrix.op_on_legs.dense_mb"] += n * n * 8 / 2 ** 20

        def psi_before(problem):
            key = _array_key(problem.a, problem.b_plus, problem.b_minus)
            self._note_repeat("psi", key, "kzmono.psi.repeats")

        def braid_word_after(result):
            key = "lusztig.braid_word_on_algebra.terms_max"
            v[key] = max(v[key], len(result.terms))

        # (module, function, counter prefix, hook before the call, hook on
        #  the result, timer name, error counter name)
        plan = [
            (qsp.uqrep, "build_irrep", "uqrep.build_irrep",
             build_irrep_before, None, None, None),
            (qsp.uqrep, "decompose", "uqrep.decompose",
             None, None, None, None),
            (qsp.rmatrix, "rmat", "rmatrix.rmat",
             rmat_before, None, None, None),
            (qsp.rmatrix, "_quasi_factor", "rmatrix.quasi_factor",
             None, None, None, None),
            (qsp.rmatrix, "op_on_legs", "rmatrix.op_on_legs",
             op_on_legs_before, None, "rmatrix.op_on_legs.s", None),
            (qsp.lusztig, "braid_word_on_algebra",
             "lusztig.braid_word_on_algebra",
             None, braid_word_after, None, None),
            (qsp.coideal, "kmatrix_solve", "coideal.kmatrix_solve",
             None, None, "coideal.kmatrix_solve.s", None),
            (qsp.kzmono, "psi", "kzmono.psi",
             psi_before, None, "kzmono.psi.s", "kzmono.psi.errors"),
            (qsp.kzmono, "_sylvester_series", None,
             None, None, "kzmono.sylvester_series.s", None),
            (qsp.vogan10, "e_matrix", "vogan10.e_matrix",
             None, None, "vogan10.e_matrix.s", None),
        ]
        for mod, attr, calls, before, after, timer, errors in plan:
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, calls and calls + ".calls", before,
                                 after, timer, errors)
            for target in modules:
                for name, val in list(vars(target).items()):
                    if val is orig:
                        setattr(target, name, wrapper)

    def _note_repeat(self, kind, key, counter):
        seen = self._seen[kind]
        if key in seen:
            self.values[counter] += 1
        else:
            seen.add(key)

    def _wrap(self, orig, calls, before, after, timer, errors):
        v = self.values
        depth = self._depth

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if calls:
                v[calls] += 1
            if before is not None:
                before(*args, **kwargs)
            outer = depth.get(orig, 0) == 0
            depth[orig] = depth.get(orig, 0) + 1
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception:
                if errors:
                    v[errors] += 1
                raise
            finally:
                depth[orig] -= 1
                if timer and outer:
                    v[timer] += time.perf_counter() - start
            if after is not None:
                after(result)
            return result

        return wrapper


def _layer_of(filename, funcname):
    """Map a cProfile entry to one of SELF_LAYERS (or None)."""
    if filename == "~":
        # built-in: attribute by the owning extension module's name
        for layer in ("numpy", "scipy"):
            if layer in funcname:
                return layer
        return None
    parts = filename.replace("\\", "/").split("/")
    base = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if len(parts) >= 2 and parts[-2] == "qsp" and base in SELF_LAYERS:
        return base
    if base == "fractions":
        return "fractions"
    for layer in ("numpy", "scipy"):
        if layer in parts:
            return layer
    return None


def ode_rhs_code(kzmono):
    """(file, line, name) of the right-hand side closure built by
    ``kzmono._rhs_ode``, as cProfile keys it."""
    for const in kzmono._rhs_ode.__code__.co_consts:
        if hasattr(const, "co_name") and const.co_name == "fn":
            return (const.co_filename, const.co_firstlineno, "fn")
    raise RuntimeError("kzmono._rhs_ode has no inner fn")


class Profile:
    """cProfile around the ops of a traced pass."""

    def __init__(self):
        self.prof = cProfile.Profile()

    def __enter__(self):
        self.prof.enable()
        return self

    def __exit__(self, *exc):
        self.prof.disable()
        return False

    def metrics(self, ode_key):
        import pstats
        stats = pstats.Stats(self.prof).stats
        out = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS}
        ode_calls = 0
        for (filename, line, func), (_, ncalls, tottime, _, _) in stats.items():
            layer = _layer_of(filename, func)
            if layer is not None:
                out[f"{layer}.self_s"] += tottime
            if (os.path.realpath(filename), line, func) == \
                    (os.path.realpath(ode_key[0]), ode_key[1], ode_key[2]):
                ode_calls += ncalls
        out["kzmono.ode_rhs.calls"] = ode_calls
        return out


def span_metrics(spans):
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.span_s"] = 0.0
        out[f"{name}.span_calls"] = 0
    for sp in spans:
        if sp["name"] in SPAN_NAMES:
            out[f"{sp['name']}.span_s"] += sp["end"] - sp["start"]
            out[f"{sp['name']}.span_calls"] += 1
    return out


def python_modules(prefixes):
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and any(name == p or name.startswith(p + ".")
                                       for p in prefixes)]
