"""One benchmark pass in a fresh interpreter.

Usage (started by run.py, one worker at a time):

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        [--size full|small] [--traced] [--gate] [--pass-id K]
    python3 perfbench/worker.py --root DIR --workload NAME --check-grids

Set-up ends at "ready": the interpreter has started, ``qsp`` is imported and
the inputs are built.  The timed region is the pass over the workload's
operations up to their verdicts.  Both are measured as CPU time of this
process (user + system, all threads; BLAS runs one thread), scaled to the
reference host speed by speed.py, and also reported raw and as wall time;
the ratio of the speed probes taken inside the pass to those taken on their
own around it is reported too.
This work is single-threaded and compute-bound, so on an idle machine at the
reference speed the three agree.  Peak resident memory is read right after
the timed region; the gate runs after that.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _import_qsp(root):
    import qsp
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(qsp.__file__).startswith(src + os.sep):
        raise SystemExit(f"qsp imported from {qsp.__file__}, not from {src}")


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_pass(args):
    _import_qsp(args.root)
    import speed
    import tracing
    import workloads as wl

    inputs = wl.build_inputs(args.workload, args.seed, args.size)
    params, ops = wl.draw(args.workload, args.seed, args.size)
    tracer = tracing.Tracer(enabled=args.traced, pass_id=args.pass_id)
    p = wl.Pass(tracer, inputs, params)
    ready = time.monotonic()
    setup_cpu_s = time.process_time()   # CPU time since the process started
    setup_probe = speed.speed_now()

    # traced passes run under the profiler and report raw CPU time
    if args.traced:
        counters = tracing.Counters()
        counters.install(tracing.python_modules(["qsp", "workloads"]))
        clock = tracing.Profile()
    else:
        clock = speed.SpeedClock()

    results = []
    start, start_cpu = time.perf_counter(), time.process_time()
    with clock:
        for op in ops:
            with tracer.span("op:" + op.name):
                ok, checks, error = wl.run_op(op, p)
            results.append((op, ok, checks, error))
    verdict_wall_s = time.perf_counter() - start
    verdict_cpu_s = time.process_time() - start_cpu
    peak = _peak_rss_mb()
    if not args.traced:
        verdict_cpu_s = clock.cpu_seconds()
        # in-pass probes over probes on their own, taken around the pass
        probe_ratio = clock.probe_median() / statistics.mean(
            [setup_probe, speed.speed_now()])

    out = {
        "ready": ready,
        "setup_s": setup_cpu_s * speed.REF_PROBE_S / setup_probe,
        "setup_cpu_s": setup_cpu_s,
        "verdict_s": (verdict_cpu_s if args.traced else clock.seconds()),
        "verdict_cpu_s": verdict_cpu_s,
        "verdict_wall_s": verdict_wall_s,
        "peak_rss_mb": peak,
        "headroom_digits": wl.headroom(results),
        "probe_ratio": None if args.traced else probe_ratio,
        "params": {k: list(v) for k, v in params.items()},
        "ops": [{"name": op.name, "ok": ok, "known_fault": op.known_fault,
                 "error": error,
                 "checks": [[c, float(r), float(t)] for c, r, t in checks]}
                for op, ok, checks, error in results],
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }
    if args.traced:
        import qsp.kzmono
        layer = dict(counters.values)
        layer.update(clock.metrics(tracing.ode_rhs_code(qsp.kzmono)))
        layer.update(tracing.span_metrics(tracer.spans))
        out["layers"] = layer
        out["spans"] = tracer.spans
    if args.gate:
        fails, extra = wl.gate(args.workload, p)
        out["gate_failures"] = fails
        out["gate_layers"] = extra
    return out


def _check_grids(args):
    """Run every parameter tuple a seed can draw, untimed."""
    _import_qsp(args.root)
    import tracing
    import workloads as wl

    inputs = wl.build_inputs(args.workload, 0, args.size)
    rows = []
    for group, prm, ops in wl.grid_points(args.workload, args.size):
        p = wl.Pass(tracing.Tracer(False), inputs, {group: prm})
        results = [(op, *wl.run_op(op, p)) for op in ops]
        bad = [op.name for op, ok, _, _ in results
               if not ok and not op.known_fault]
        faults_ok = all(not ok for op, ok, _, _ in results if op.known_fault)
        rows.append({"group": group, "params": list(prm), "failed": bad,
                     "known_faults_fail": faults_ok,
                     "headroom_digits": wl.headroom(results)})
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    return {"grid": rows}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--gate", action="store_true")
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--check-grids", action="store_true")
    args = ap.parse_args(argv)
    out = _check_grids(args) if args.check_grids else _run_pass(args)
    sys.stdout.write(json.dumps(out, allow_nan=True) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
