"""One workload in one fresh process; started by run.py, never by hand.

Prints one JSON object as its last line of standard output.  With
--setup-only it stops after set-up and reports only the set-up time.
Otherwise it makes one untimed warm-up pass, then timed passes until
--seconds have gone by, and reports per-pass medians.  Times are scaled
to the reference speed of calibrate.py, sampled between operations; the
unscaled medians are reported too, under raw_*.  With --trace 1,
untraced and traced passes alternate; the traced ones give the per-layer
metrics, and the difference of the two medians is the tracing overhead.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # per kind of pass: untraced, and traced when tracing
SETUP_SAMPLES = 5  # reference-kernel samples that scale the set-up time


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    p.add_argument("--deadline", type=float, required=True,
                   help="time.monotonic() after which no pass may start")
    p.add_argument("--spans", type=Path, default=None, help="where to write the last traced pass")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def import_opint():
    """Import opint from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import opint  # noqa: F401
    from opint import cli, doi, linalg, quantization, rng, shift, suite, sylvester  # noqa: F401
    if Path(opint.__file__).resolve().parent != ROOT / "src" / "opint":
        raise ImportError(f"opint imported from {opint.__file__}, not from {ROOT / 'src'}")
    return {name.split(".")[-1]: module for name, module in sys.modules.items()
            if name == "opint" or name.startswith("opint.")}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures of operations not in KNOWN_FAULTS

    def record(self, op, error, known_faults):
        self.attempted += 1
        if error is None:
            return
        self.failed += 1
        if op.name not in known_faults:
            self.unexpected.append(f"{op.name}: {error}")


class ScaledClock:
    """Time spent inside the program's calls during one pass, unscaled and
    scaled to the reference speed of calibrate.py.

    The clock runs from start() to stop().  stop() takes a reference-kernel
    sample outside the timed span and scales the piece just timed by REF
    over the mean of the samples at its two ends.  split() does the same
    in the middle of a call, so that a long call is scaled piece by piece.
    """

    def __init__(self, kernel):
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = 0.0
        self._kernel = kernel
        _, self._ref_wall, self._ref_cpu = calibrate.KERNELS[kernel]
        self._last = calibrate.sample(kernel)
        self._w0 = self._c0 = 0.0

    def start(self):
        self._w0, self._c0 = time.perf_counter(), time.process_time()

    def stop(self):
        dw, dc = time.perf_counter() - self._w0, time.process_time() - self._c0
        now = calibrate.sample(self._kernel)
        self.wall += dw * self._ref_wall * 2.0 / (self._last[0] + now[0])
        self.cpu += dc * self._ref_cpu * 2.0 / (self._last[1] + now[1])
        self.raw_wall += dw
        self.raw_cpu += dc
        self._last = now

    def split(self):
        self.stop()
        self.start()


def _split_after_each(functions, clock):
    """Wrap each entry of the mutable list `functions` in place so that the
    clock splits after it returns; returns the originals for restoring."""
    originals = list(functions)
    for i, fn in enumerate(originals):
        def split_after(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            clock.split()
            return result
        functions[i] = split_after
    return originals


def run_pass(ops, kernel, tally, known_faults, split=True):
    """Run every operation once and return its ScaledClock: the time spent
    inside the program's calls, checks excluded, scaled by `kernel`.  With
    `split`, long calls are scaled piece by piece at their operation's
    split points."""
    clock = ScaledClock(kernel)
    for op in ops:
        error = None
        points = op.split_points() if split and op.split_points else None
        originals = _split_after_each(points, clock) if points is not None else None
        clock.start()
        try:
            result = op.call()
        except Exception:  # a failing call is a failed operation, not a crash
            error = traceback.format_exc(limit=3)
        clock.stop()
        if originals is not None:
            points[:] = originals
        if error is None:
            try:
                op.check(result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        tally.record(op, error, known_faults)
    return clock


def main():
    args = parse_args()
    try:
        modules = import_opint()
    except ImportError as exc:
        print(f"cannot import opint from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    raw_setup_s = time.monotonic() - args.t0
    # set-up is imports and input generation: interpreted work, whatever
    # the workload
    _, ref_wall, _ = calibrate.KERNELS["mixed"]
    speed = statistics.median(calibrate.sample("mixed")[0] for _ in range(SETUP_SAMPLES))
    setup_s = raw_setup_s * ref_wall / speed
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    tally = Tally()
    faults = workloads.KNOWN_FAULTS
    kernel = workloads.KERNEL[args.workload]
    run_pass(ops, kernel, tally, faults)  # warm-up: caches, lazy imports, first report files
    tracer = Tracer(modules) if args.trace else None
    walls, cpus, raw_walls, raw_cpus, traced_walls, layer_samples = [], [], [], [], [], []
    started = time.monotonic()
    while True:
        need = len(walls) < MIN_PASSES or (tracer and len(traced_walls) < MIN_PASSES)
        if not need and time.monotonic() - started >= args.seconds:
            break
        if time.monotonic() >= args.deadline:
            break
        traced = tracer is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.install()
            try:
                # unsplit, so that no sample runs inside a traced span
                wall = run_pass(ops, kernel, tally, faults, split=False).wall
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layer_samples.append(tracer.pass_metrics())
        else:
            clock = run_pass(ops, kernel, tally, faults)
            walls.append(clock.wall)
            cpus.append(clock.cpu)
            raw_walls.append(clock.raw_wall)
            raw_cpus.append(clock.raw_cpu)
    if not walls or (tracer and not traced_walls):
        print("no timed pass finished before the deadline", file=sys.stderr)
        return 1
    for line in tally.unexpected:
        print(f"FAILED {line}", file=sys.stderr)

    result = {"correct": not tally.unexpected, "attempted": tally.attempted,
              "failed": tally.failed, "setup_s": setup_s}
    if tracer:
        layers = {name: statistics.median(s[name] for s in layer_samples)
                  for name in layer_samples[0]}
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers
        if args.spans is not None:
            tracer.write_spans(args.spans)
    else:
        result.update({
            "pass_s": statistics.median(walls),
            "pass_cpu_s": statistics.median(cpus),
            "raw_setup_s": raw_setup_s,
            "raw_pass_s": statistics.median(raw_walls),
            "raw_pass_cpu_s": statistics.median(raw_cpus),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
