"""One workload process of the karpkit benchmark (started by run.py).

Sets up the workload (import karpkit, build the seeded inputs, run the
untimed warm-up ops), then runs whole rounds of ops in a closed loop until
the ops have taken `--seconds` and the digest rounds are done.
Each op's outputs are checked after its timer stops.  Prints one JSON
object on stdout.

    python3 bench/worker.py --workload sweep --seed 1 --seconds 10 \
        --trace 0 --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_karpkit():
    """Import karpkit from this checkout's source tree, never from elsewhere."""
    if not (SRC / "karpkit" / "__init__.py").is_file():
        sys.exit("bench: no karpkit source tree at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import karpkit

    if Path(karpkit.__file__).resolve().parent != SRC / "karpkit":
        sys.exit("bench: imported karpkit from %s, not %s" % (karpkit.__file__, SRC))


def run(workload, seconds, tracer):
    latencies, records, failures = [], [], {}
    busy = 0.0
    rounds = 0
    op_no = 0
    while rounds < workload.digest_rounds or busy < seconds:
        for op_id, item in workload.rounds[rounds % len(workload.rounds)]:
            op_no += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run_op(item)
                else:
                    with tracer.op(op_no, op_id):
                        out = workload.run_op(item)
            except Exception as exc:  # a raising or refusing op is a failed op
                out = exc
            latency = time.perf_counter() - start
            latencies.append(latency)
            busy += latency
            if isinstance(out, Exception):
                detail = "raised " + type(out).__name__
                ok, record = False, [op_id, detail]
            else:
                ok, detail, record = workload.check(item, out)
            if rounds < workload.digest_rounds:
                records.append(record)
            if not ok:
                entry = failures.setdefault(op_id, {"count": 0, "details": {}})
                entry["count"] += 1
                entry["details"][detail] = entry["details"].get(detail, 0) + 1
            if tracer is not None and workload.elements and not isinstance(out, Exception):
                tracer.elements += workload.elements(out)
        rounds += 1
    return latencies, busy, rounds, records, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    _import_karpkit()
    sys.path.insert(0, str(ROOT / "bench"))
    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    for item in workload.warmup:
        try:
            workload.run_op(item)
        except Exception as exc:  # the timed ops count failures; report it
            print("bench: warm-up op raised %r" % exc, file=sys.stderr)
    # keep the collector's full passes off the input pool, which one
    # `karpkit` command would not hold
    gc.collect()
    gc.freeze()
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    latencies, busy, rounds, records, failures = run(workload, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()

    result.update(
        ops=len(latencies),
        busy_s=busy,
        rounds=rounds,
        latencies_s=latencies,
        failures=failures,
        tolerated=sorted(workload.tolerated),
        digest=workloads.digest(records),
        digest_ops=len(records),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(latencies))
        result["layer_units"] = tracing.LAYER_UNITS
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
