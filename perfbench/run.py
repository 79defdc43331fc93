"""Verification benchmark for qsp: time to verdict, set-up, memory and
precision headroom.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --check-grids [--workload NAME]

Each pass runs in a fresh worker process (perfbench/worker.py), one worker
at a time, with BLAS pinned to one thread.  With ``--trace 0`` passes repeat
until ``--seconds`` have elapsed, at least MIN_PASSES of them; the first pass
also runs the correctness gate.  The end-to-end metrics are medians over the
passes.  With ``--trace 1`` one untraced pass (with the gate) is followed by
two traced passes; their counts must agree exactly, and the spans and counts
are written to perfbench/out/.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rmatrix-highrank", "coideal-fusion", "kz-monodromy",
             "vogan-ladder")
MIN_PASSES = 3
RUN_LIMIT_S = 170.0          # a run must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# medians reported on stderr next to the normalised metrics
RAW_TIMES = ("setup_cpu_s", "setup_wall_s", "verdict_cpu_s", "verdict_wall_s")
# traced-pass values that must repeat exactly (the rest are times)
EXACT_SUFFIXES = (".calls", ".repeats", ".errors", ".terms_max", ".dense_mb",
                  ".span_calls")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} not found: run from the repository root")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


def _prepare(root):
    """Check the checkout and byte-compile the sources once."""
    pkg = os.path.join(root, "src", "qsp", "__init__.py")
    if not os.path.isfile(pkg):
        raise BenchError(f"{pkg} not found: the qsp sources are missing")
    for path in (os.path.join(root, "src"), HERE):
        if not compileall.compile_dir(path, quiet=2):
            raise BenchError(f"byte-compiling {path} failed")


def _worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(PINNED_ENV)
    return env


def _spawn(root, args, deadline):
    """Run one worker to its end; returns (start time, parsed result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root]
    cmd += args
    timeout = max(deadline - time.monotonic(), 1.0)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return start, json.loads(lines[-1])


def _pass_args(workload, seed, size, pass_id, traced, gate):
    args = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--pass-id", str(pass_id)]
    if traced:
        args.append("--traced")
    if gate:
        args.append("--gate")
    return args


def _tally(passes):
    """(attempted, failed, problems) over all passes."""
    attempted = failed = 0
    problems = []
    for res in passes:
        for op in res["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                if not op["known_fault"]:
                    detail = op["error"] or ", ".join(
                        f"{c}={r:.2e}>{t:.0e}" for c, r, t in op["checks"]
                        if not r <= t)
                    problems.append(f"{op['name']}: {detail}")
        problems += [f"gate: {msg}" for msg in res.get("gate_failures", [])]
    return attempted, failed, problems


def run_workload(root, workload, seed, seconds, trace, size="full"):
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    passes = []

    def one(pass_id, traced, gate):
        start, res = _spawn(root, _pass_args(workload, seed, size, pass_id,
                                             traced, gate), deadline)
        res["setup_wall_s"] = res["ready"] - start
        passes.append(res)
        return res

    if trace:
        base = one(0, False, True)
        traced = [one(1, True, False), one(2, True, False)]
    else:
        while True:
            one(len(passes), False, not passes)
            elapsed = time.monotonic() - t0
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed >= seconds:
                break
            if elapsed + per_pass > RUN_LIMIT_S - 10:
                break

    attempted, failed, problems = _tally(passes)
    if trace:
        first, second = (res["layers"] for res in traced)
        for key, val in first.items():
            if key.endswith(EXACT_SUFFIXES) and second[key] != val:
                problems.append(f"count {key} differs between traced passes: "
                                f"{val} vs {second[key]}")
        metrics = {}
        for key, val in first.items():
            exact = key.endswith(EXACT_SUFFIXES)
            metrics[key] = val if exact else statistics.median(
                [val, second[key]])
        for key, val in base.get("gate_layers", {}).items():
            metrics[key] = val
        metrics["perfbench.trace_overhead_s"] = statistics.median(
            [res["verdict_cpu_s"] for res in traced]) - base["verdict_cpu_s"]
        _write_trace(root, workload, seed, traced, metrics)
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in passes),
            "verdict_s": statistics.median(r["verdict_s"] for r in passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "headroom_digits": statistics.median(
                r["headroom_digits"] for r in passes),
        }
    raw = {key: statistics.median(r[key] for r in passes)
           for key in RAW_TIMES}
    raw["probe_ratio"] = statistics.median(
        r["probe_ratio"] for r in passes if r["probe_ratio"] is not None)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "raw": raw, "problems": problems,
            "passes": len(passes),
            "params": passes[0]["params"],
            "blas_threads": passes[0]["blas_threads"]}


def _write_trace(root, workload, seed, traced, metrics):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "passes": [{"layers": r["layers"], "spans": r["spans"]}
                              for r in traced]}, fh)


def _format(result, spec, trace):
    """The result line, with exactly the metric names of BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    got = set(result["metrics"])
    if names != got:
        raise BenchError(f"metric names differ from BENCHMARK.json: missing "
                         f"{sorted(names - got)}, extra {sorted(got - names)}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _report(workload, result, line):
    raw = ", ".join(f"{k}={v:.3f}" for k, v in result["raw"].items())
    sys.stderr.write(f"{workload}: {result['passes']} passes, params "
                     f"{result['params']}, BLAS threads "
                     f"{result['blas_threads']}, medians of raw times and "
                     f"of the in-pass over alone speed-probe ratio: "
                     f"{raw}\n")
    for msg in result["problems"]:
        sys.stderr.write(f"  FAILED {msg}\n")
    vals = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                     for k, v in line["metrics"].items()
                     if not k.endswith("span_calls"))
    print(f"{workload}: correct={line['correct']} attempted="
          f"{line['attempted']} failed={line['failed']} {vals}")


def self_check(root, spec):
    """Every workload at its smallest size, untraced and traced: it must
    complete, pass the gate, fail only its known faults and print exactly
    the metric names of BENCHMARK.json."""
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(root, workload, 1, 0, trace, size="small")
            line = _format(result, spec, trace)
            _report(workload, result, line)
            if not line["correct"]:
                bad.append(f"{workload} trace={trace}")
    if bad:
        raise BenchError("self-check failed: " + ", ".join(bad))
    print("self-check passed")


def check_grids(root, workloads):
    """Run every grid point a seed can draw; all must pass."""
    bad = []
    for workload in workloads:
        _, res = _spawn(root, ["--workload", workload, "--check-grids"],
                        time.monotonic() + 3600)
        for row in res["grid"]:
            ok = not row["failed"] and row["known_faults_fail"]
            print(f"{workload} {row['group']} {row['params']}: "
                  f"{'pass' if ok else 'FAIL ' + str(row['failed'])} "
                  f"headroom {row['headroom_digits']:.3f}")
            if not ok:
                bad.append((workload, row["params"]))
    if bad:
        raise BenchError(f"grid points that fail: {bad}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--check-grids", action="store_true")
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        spec = _load_spec(root)
        _prepare(root)
        if args.self_check:
            self_check(root, spec)
            return 0
        chosen = WORKLOADS if args.workload == "all" else (args.workload,)
        if args.check_grids:
            check_grids(root, chosen)
            return 0
        for workload in chosen:
            result = run_workload(root, workload, args.seed, args.seconds,
                                  args.trace)
            line = _format(result, spec, args.trace)
            _report(workload, result, line)
            print(json.dumps(line))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
