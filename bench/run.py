"""karpkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

`--workload all` runs the three workloads one after another.

Workloads (see workloads.py and BENCHMARK.json): `sweep` takes seeded
instances through route -> solve -> lift -> verify, `solve` runs the
brute-force oracles directly, `audit` runs the growth auditor of acceptance
criterion 6.  Each workload runs in its own process with one BLAS/OpenMP
thread.  With `--trace 0` the run prints the end-to-end metrics.  With
`--trace 1` it runs the workload untraced and then traced, and prints the
per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A record of the run (metrics, failures, digest, machine) is written to
`.bench_results/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("sweep", "solve", "audit")

# set-up is measured in this many fresh processes (the timed one included),
# and setup_s is their median
SETUP_SAMPLES = 3
# every run finishes within this many seconds, or fails
RUN_LIMIT_S = 170.0

# every end-to-end metric the run prints; the JSON line carries those that
# BENCHMARK.json lists
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "fail_rate": "share",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A workload process failed; the run prints no result."""


def _env():
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # glibc raises its mmap threshold each time it frees a mapped block, so
    # the peak RSS would depend on the order of large numpy allocations; a
    # fixed threshold makes it follow the live arrays
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def _worker(args, deadline, extra=()):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--spawned-at", repr(time.monotonic()), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another workload process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past the %.0f s limit" % RUN_LIMIT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("workload process exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def tail(latencies):
    """(percentile, value, samples beyond it) for the highest percentile with
    at least ten samples beyond it: the 11th-largest latency.  Runs with
    fewer than 11 ops report their median."""
    values = sorted(latencies)
    n = len(values)
    if n < 11:
        value = statistics.median(values)
        return 50.0, value, sum(1 for v in values if v > value)
    value = values[n - 11]
    return 100.0 * (n - 10) / n, value, sum(1 for v in values if v > value)


def end_to_end(run, setup_samples):
    latencies = run["latencies_s"]
    p, tail_s, beyond = tail(latencies)
    failed = sum(f["count"] for f in run["failures"].values())
    metrics = {
        "ops_per_s": run["ops"] / run["busy_s"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup_samples),
        "fail_rate": failed / run["ops"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    info = {
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "samples": len(latencies),
        "setup_samples_s": setup_samples,
    }
    return metrics, info


def machine(run):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": run["python"],
        "numpy": run["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def correct(run):
    """Every failed op is one the workload tolerates (a known defect)."""
    return set(run["failures"]) <= set(run["tolerated"])


def unexpected_failures(run):
    """Failed ops other than the known defects: the `failed` of the JSON line.
    The known defects fail on a fixed share of the instances, so their count
    grows with the ops a run completes; they are printed, listed, recorded
    and counted in fail_rate."""
    return sum(f["count"] for op_id, f in run["failures"].items()
               if op_id not in run["tolerated"])


def print_failures(run):
    failed = sum(f["count"] for f in run["failures"].values())
    print("failed ops: %d of %d, %d of them outside the known defects"
          % (failed, run["ops"], unexpected_failures(run)))
    for op_id in sorted(run["failures"]):
        entry = run["failures"][op_id]
        known = " [known defect]" if op_id in run["tolerated"] else ""
        details = "; ".join("%s x%d" % kv for kv in sorted(entry["details"].items()))
        print("  failed %-45s %4d  %s%s" % (op_id, entry["count"], details, known))


def run_workload(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]

    try:
        if args.trace == 0:
            samples = [_worker(args, deadline, ("--setup-only",))["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
            run = _worker(args, deadline)
            samples.append(run["setup_s"])
            metrics, info = end_to_end(run, samples)
            units = END_TO_END
            is_correct = correct(run)
        else:
            RESULTS.mkdir(exist_ok=True)
            trace_out = RESULTS / ("trace-%s-seed%d.json" % (args.workload, args.seed))
            base = _worker(args, deadline)
            run = _worker(args, deadline, ("--trace", "1", "--trace-out", str(trace_out)))
            # the runs share seed and op order, so compare the ops both completed
            n = min(base["ops"], run["ops"])
            units = run["layer_units"]
            metrics = dict(run["layers"])
            metrics["trace.overhead_share"] = (
                sum(run["latencies_s"][:n]) / sum(base["latencies_s"][:n]) - 1.0)
            info = {"untraced_ops": base["ops"], "traced_ops": run["ops"],
                    "trace_file": str(trace_out.relative_to(ROOT))}
            # tracing must not change any output
            is_correct = correct(run) and run["digest"] == base["digest"]
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    env = machine(run)
    print("karpkit benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("machine: " + ", ".join("%s=%s" % kv for kv in env.items()))
    print("ops=%d rounds=%d busy=%.3f s digest=%s (first %d ops)"
          % (run["ops"], run["rounds"], run["busy_s"], run["digest"], run["digest_ops"]))
    for name, value in metrics.items():
        print("%-36s %14.6g %s" % (name, value, units[name]))
    if args.trace == 0:
        print("latency_tail_ms is p%.2f, %d of %d samples beyond it"
              % (info["tail_percentile"], info["tail_samples_beyond"], info["samples"]))
    else:
        print("tracing overhead: traced minus untraced time of the first %d ops, "
              "as a share of untraced" % min(info["untraced_ops"], info["traced_ops"]))
        print("trace written to " + info["trace_file"])
    print_failures(run)

    failed = sum(f["count"] for f in run["failures"].values())
    unexpected = unexpected_failures(run)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": env, "correct": is_correct,
        "attempted": run["ops"], "failed": failed, "failed_unexpected": unexpected,
        "failures": run["failures"],
        "digest": run["digest"], "digest_ops": run["digest_ops"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({
        "correct": is_correct,
        "attempted": run["ops"],
        "failed": unexpected,
        "metrics": {name: record["metrics"][name] for name in reported},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOADS:
        status |= run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    return status


if __name__ == "__main__":
    sys.exit(main())
