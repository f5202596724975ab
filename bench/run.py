"""liemarkov benchmark: order-4 census, single-table requests, numeric closure.

Run from the root of a source checkout:

    python3 bench/run.py --workload census-k4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20          # every workload

One client calls the library in-process, closed loop: the next operation
starts when the previous one returned.  The run repeats whole sweeps over
the workload's items until ``--seconds`` have passed, checks every result,
and prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, with operation times in calibration units (see
``Calibration``); with ``--trace 1`` the run times half of its seconds
untraced and half with timing wrappers installed, and reports per-layer
calls and self times.  Details, raw times, the environment and the traced
spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# The inputs are 4x4 matrices: extra BLAS threads would only add scheduler
# noise.  Set before numpy is imported, here and in every child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import bisect
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import tracing
from workloads import WORKLOADS, SetupError

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
CAL_EVERY_S = 0.1
CAL_ROUNDS = 450  # about 2 ms on a 2.1 GHz Xeon

END_TO_END_UNITS = {
    "op_p50_cal": "cal",
    "op_p90_cal": "cal",
    "ops_per_cal": "1/cal",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
CLOSURE_COUNTS = (
    "closure.status.pass",
    "closure.status.fail",
    "closure.status.inconclusive",
    "closure.discarded_trials",
    "closure.max_residual",
)
# Layers each workload must not reach inside its timed passes.
BYPASS = {
    "census-k4": ("closure.expm", "closure.logm"),
    "requests-k4": ("closure.expm", "closure.logm", "cayley.enumerate_semigroups"),
    "closure-k4": ("cayley.enumerate_semigroups",),
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in CLOSURE_COUNTS:
        units[name] = "1" if name == "closure.max_residual" else "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def import_library():
    """Import liemarkov from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import liemarkov

    if Path(liemarkov.__file__).resolve().parent != ROOT / "src" / "liemarkov":
        raise ImportError(f"liemarkov imported from {liemarkov.__file__}, not {ROOT / 'src'}")
    return liemarkov


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(top: str) -> str:
    """sha256 over the Python files under ``top``, with their paths."""
    h = hashlib.sha256()
    for path in sorted((ROOT / top).rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(load_at_start: tuple[float, float, float]) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "git_commit": git_commit(),
        "src_sha256": tree_digest("src"),
        "bench_sha256": tree_digest("bench"),
        "platform": platform.platform(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import liemarkov and build the inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--trials", str(args.trials),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed: {proc.stderr.decode(errors='replace').strip()}")
    return statistics.median(samples)


class Calibration:
    """Timings of a fixed calibration kernel, sampled all through a phase.

    The machine this runs on is shared, and how fast it runs interpreter-bound
    code drifts by up to 2x over tens of seconds.  The kernel slows down with
    it, so an operation's time divided by the kernel's time around it is
    steady where the raw time is not.  A timer signal runs the kernel every
    CAL_EVERY_S, in the middle of an operation too, so that a 2-second pass
    is calibrated throughout and not only at its ends; the kernel's own time
    is taken out of the operation's time.  The kernel never calls the library.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end)

    @staticmethod
    def kernel() -> int:
        """Fixed pure-Python work: rational arithmetic, tuples and a dict."""
        total = 0
        seen = {}
        for i in range(CAL_ROUNDS):
            f = Fraction(i, 7) * Fraction(3, i + 1)
            seen[i % 97] = (f, i)
            total += i * i % 13
        return total

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter()))

    @contextmanager
    def sampling(self, handler=None):
        """Sample on a timer signal while the block runs, and once at each end."""
        previous = signal.signal(signal.SIGALRM, handler or self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def split(self, ops: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Seconds and calibration units of each (start, end) operation.

        Kernel samples that ran inside an operation are taken out of its
        seconds.  Its unit is the mean kernel time from the last sample
        before it to the first sample after it.
        """
        starts = [s for s, _ in self.samples]
        seconds, units = [], []
        for start, end in ops:
            before = max(bisect.bisect_right(starts, start) - 1, 0)
            after = min(bisect.bisect_left(starts, end), len(starts) - 1)
            own = (end - start) - sum(e - s for s, e in self.samples[before + 1 : after])
            window = self.samples[before : after + 1]
            seconds.append(own)
            units.append(own * len(window) / sum(e - s for s, e in window))
        return seconds, units

    def median_ms(self) -> float:
        return statistics.median(e - s for s, e in self.samples) * 1e3


class Runner:
    """Runs and checks operations, counting failed gates by name."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.failures: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self._ops = 0

    def op(self, item, tracer=None, sweep=0):
        """Run one operation; returns (start, end, result or None if it raised)."""
        self.attempted += 1
        op_id = self._ops
        self._ops += 1
        result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.call(item)
            else:
                with tracer.operation(self.wl.op_name, op_id, sweep):
                    result = self.wl.call(item)
            end = time.perf_counter()
            failed = self.wl.check(item, result)
        except Exception:  # an operation that raises is a failed operation
            end = time.perf_counter()
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            failed = [f"{self.wl.name}.exception"]
        self.gate(failed)
        return start, end, result

    def gate(self, failed: list[str]) -> None:
        self.failures.update(failed)
        self.failed += bool(failed)

    def phase(self, budget: float, tracer=None):
        """Whole sweeps until ``budget`` seconds have passed.

        Returns the (start, end) of every operation, the number of sweeps
        and the first sweep's results.
        """
        ops = []
        first = []
        sweeps = 0
        begin = time.perf_counter()
        while sweeps == 0 or time.perf_counter() - begin < budget:
            for item in self.wl.items:
                start, end, result = self.op(item, tracer, sweeps)
                ops.append((start, end))
                if sweeps == 0:
                    first.append(result)
            sweeps += 1
        return ops, sweeps, first


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(args, runner: Runner, details: dict) -> dict[str, float]:
    setup_s = measure_setup(args)
    runner.op(runner.wl.items[0])  # warm-up, checked but not timed
    cal = Calibration()
    with cal.sampling():
        ops, _, _ = runner.phase(args.seconds)
    seconds, units = cal.split(ops)
    details["measured"] = {
        "op_p50_ms": statistics.median(seconds) * 1e3,
        "op_p90_ms": p90(seconds) * 1e3,
        "ops_per_s": len(seconds) / sum(seconds),
        "operations": len(seconds),
        "calibration_ms": cal.median_ms(),
        "calibration_samples": len(cal.samples),
    }
    return {
        "op_p50_cal": statistics.median(units),
        "op_p90_cal": p90(units),
        "ops_per_cal": len(units) / sum(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(args, runner: Runner, details: dict) -> dict[str, float]:
    wl = runner.wl
    runner.op(wl.items[0])  # warm-up, checked but not timed
    cal = Calibration()
    with cal.sampling():
        plain, _, _ = runner.phase(args.seconds / 2)
    tracer = tracing.Tracer()
    # Kernel samples become spans of their own, so that no layer's self
    # time includes them.
    with tracing.installed(tracer) as missing, cal.sampling(tracer.wrap("bench.calibration", cal.sample)):
        traced, sweeps, first = runner.phase(args.seconds / 2, tracer)
    calls, self_s = tracer.summary()
    metrics: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[0][name]
        metrics[f"{name}.self_s"] = sum(self_s[s][name] for s in range(sweeps)) / sweeps
    metrics.update(dict.fromkeys(CLOSURE_COUNTS, 0))
    metrics.update(wl.layer_counts(first))
    metrics["trace.overhead_ratio"] = statistics.median(cal.split(traced)[1]) / statistics.median(
        cal.split(plain)[1]
    )

    total = sum(calls.values(), Counter())
    bypass = {name: total[name] for name in BYPASS[wl.name]}
    for name, count in bypass.items():
        runner.attempted += 1
        runner.gate([f"trace.bypass.{name}"] if count else [])
    counts = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    repeat = check_calls_repeat(args, details["env"], counts)
    if repeat is not None:
        runner.attempted += 1
        runner.gate([] if repeat else ["trace.calls_repeat"])

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}-seed{args.seed}.json"
    with spans_file.open("w") as fh:
        json.dump(
            {"fields": tracing.SPAN_FIELDS, "op_sweep": tracer.op_sweep, "spans": tracer.spans},
            fh,
            separators=(",", ":"),
        )
    details.update(
        traced_sweeps=sweeps,
        timed_functions_missing=missing,
        bypass_calls=bypass,
        calls_repeat=repeat,
        spans_file=str(spans_file.relative_to(ROOT)),
    )
    return metrics


def check_calls_repeat(args, env: dict, counts: dict) -> bool | None:
    """Compare the calls with an earlier traced run of the same code and inputs.

    The first such run records its counts and returns None.
    """
    OUT.mkdir(exist_ok=True)
    code = env["src_sha256"][:12] + env["bench_sha256"][:12]
    ref = OUT / f"calls-{args.workload}-seed{args.seed}-trials{args.trials}-{code}.json"
    if ref.exists():
        return json.loads(ref.read_text()) == counts
    tmp = ref.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    tmp.replace(ref)
    return None


def result_file(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{trace}.json"


def run_workload(args) -> int:
    load_at_start = os.getloadavg()
    try:
        lm = import_library()
        wl = WORKLOADS[args.workload](lm, ROOT, args.seed, args.trials)
    except (ImportError, SetupError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials": args.trials,
        "operation": wl.op_name,
        "env": environment(load_at_start),
    }
    print(f"bench: workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}, trials {args.trials}; one operation = one {wl.op_name}")
    print("bench: env " + json.dumps(details["env"], sort_keys=True))
    runner = Runner(wl)
    try:
        if args.trace:
            metrics = per_layer(args, runner, details)
            units = per_layer_units()
        else:
            metrics = end_to_end(args, runner, details)
            units = END_TO_END_UNITS
    except SetupError as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    details["failed_checks"] = dict(sorted(runner.failures.items()))
    details["error_rate"] = runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details["result"] = result
    OUT.mkdir(exist_ok=True)
    result_file(args.workload, args.seed, args.trace).write_text(json.dumps(details, indent=2) + "\n")
    print(f"bench: failed checks {details['failed_checks'] or 'none'}; "
          f"error_rate {details['error_rate']:.4g} ({runner.failed}/{runner.attempted})")
    for name, value in details.get("measured", {}).items():
        print(f"bench: measured {name} {value:.6g}")
    for name, unit in units.items():
        print(f"bench: {name} {metrics[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


# Names under which `--workload all` reports each workload's measured times,
# from the "measured" section of its result file.
SUMMARY = {
    "census-k4": {"catalog_s": ("op_p50_ms", 1e-3, "s")},
    "requests-k4": {
        "request_p50_ms": ("op_p50_ms", 1, "ms"),
        "request_p90_ms": ("op_p90_ms", 1, "ms"),
        "requests_per_s": ("ops_per_s", 1, "1/s"),
    },
    "closure-k4": {
        "verify_p50_ms": ("op_p50_ms", 1, "ms"),
        "verify_p90_ms": ("op_p90_ms", 1, "ms"),
        "trials_per_s": ("ops_per_s", "trials", "1/s"),
    },
}


def run_all(args) -> int:
    """Run every workload in its own process and print the named metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--trials", str(args.trials),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        named = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        if not args.trace:
            measured = json.loads(result_file(name, args.seed, 0).read_text())["measured"]
            for label, (source, scale, unit) in SUMMARY[name].items():
                factor = args.trials if scale == "trials" else scale
                named[label] = (measured[source] * factor, unit)
            named["error_rate"] = (result["failed"] / result["attempted"], "1")
        for label, (value, unit) in named.items():
            combined["metrics"][f"{name}.{label}"] = {"value": value, "unit": unit}
    print("bench: summary")
    for label, m in combined["metrics"].items():
        print(f"  {label:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=20, help="closure trials per model")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.trials < 1 or args.seed < 0:
        parser.error("--seconds and --trials must be at least 1, --seed at least 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
