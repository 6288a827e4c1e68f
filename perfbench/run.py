"""opint benchmark: three workloads, each in its own fresh process.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a separate traced run instead.  BLAS and OpenMP
threads are pinned to one in every workload process.  Times are scaled
to the reference speed of calibrate.py; a line on standard error gives
the unscaled medians.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("suite", "dense", "cycle")
SETUP_PROBES = 6      # set-up-only processes per run, besides the measuring one
TIME_LIMIT = 170.0    # seconds for one workload, set-up probes included
GRACE = 20.0          # longer than one pass: no pass starts later than this before the limit
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def start_worker(workload, seed, seconds, trace, workdir, deadline, extra=()):
    """Run worker.py in a fresh interpreter and return its JSON result.

    The worker starts no pass after `deadline` and is killed GRACE seconds
    after it."""
    env = dict(os.environ, **PINNED_THREADS)
    env.pop("PYTHONPATH", None)  # opint comes from this checkout's src/ only
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--t0", repr(t0), "--deadline", repr(deadline), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline + GRACE - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded its time limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: worker printed no result")
    result = json.loads(lines[-1])
    if proc.stderr and "FAILED" in proc.stderr:
        sys.stderr.write("\n".join(line for line in proc.stderr.splitlines()
                                   if line.startswith("FAILED")) + "\n")
    return result


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the JSON-ready result: correct, attempted,
    failed and the metrics named in BENCHMARK.json."""
    if not (ROOT / "src" / "opint" / "__init__.py").is_file():
        raise BenchError(f"no opint sources under {ROOT / 'src'}")
    metrics_spec = spec()["per_layer" if trace else "end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT - GRACE
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    try:
        probes = []
        if not trace:
            for probe in range(SETUP_PROBES):
                probes.append(start_worker(workload, seed, seconds, 0, workdir / f"probe{probe}",
                                           deadline, ["--setup-only"]))
        extra = []
        if trace:
            out_dir.mkdir(exist_ok=True)
            extra = ["--spans", str(out_dir / f"spans-{workload}-seed{seed}.jsonl")]
        result = start_worker(workload, seed, seconds, trace, workdir / "run", deadline, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if trace:
        measured = result["layers"]
    else:
        setups = probes + [result]
        measured = {"setup_s": statistics.median(r["setup_s"] for r in setups),
                    "pass_s": result["pass_s"], "pass_cpu_s": result["pass_cpu_s"],
                    "peak_rss_mb": result["peak_rss_mb"]}
        # the unscaled times, for comparison with the scaled metrics
        print(json.dumps({"unscaled": {
            "setup_s": statistics.median(r["raw_setup_s"] for r in setups),
            "pass_s": result["raw_pass_s"], "pass_cpu_s": result["raw_pass_cpu_s"]}}),
            file=sys.stderr)
    missing = [m["name"] for m in metrics_spec if m["name"] not in measured]
    if missing:
        raise BenchError(f"{workload}: metrics not measured: {missing}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                        for m in metrics_spec}}


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, seconds, args.trace)))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = run_workload(workload, args.seed, seconds, args.trace)
            res = results[workload]
            print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for name, metric in res["metrics"].items():
                print(f"  {name:60s} {metric['value']:>14.6g} {metric['unit']}")
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
