"""In-memory span recorder for the traced benchmark run.

The recorder wraps each karpkit layer's public functions at every name its
callers bind them under (``karpkit.growth.generate``,
``karpkit.oracles.verify_certificate``, ``ReductionSpec.apply``, ...), so
spans come from the benchmark's own files and the library is not edited.

Every span belongs to one benchmark op.  Calls made outside an op pass
through unrecorded.  Calls that happen once per enumerated candidate are not
stored one by one: they are summed into a call count and a total time under
their parent span.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import karpkit
from karpkit.reductions import REDUCTIONS, ReductionSpec

# span name -> public function it wraps; the wrapper is installed under every
# name in a karpkit module that is bound to that function
LAYER_FUNCTIONS = {
    "genlab.generate": karpkit.genlab.generate,
    "growth.audit": karpkit.growth.audit,
    "reductions.apply_chain": karpkit.reductions.apply_chain,
    "reductions.lift_chain": karpkit.reductions.lift_chain,
    "instances.validate": karpkit.instances.validate,
    "instances.measure": karpkit.instances.measure_input_size,
    "instances.verify": karpkit.instances.verify_certificate,
    "oracles.solve": karpkit.oracles.solve,
    "binprog.solve_ip": karpkit.binprog.solve_ip,
    "serialize.dumps_problem": karpkit.serialize.dumps_problem,
    "serialize.loads_problem": karpkit.serialize.loads_problem,
    "serialize.dumps_certificate": karpkit.serialize.dumps_certificate,
    "serialize.loads_certificate": karpkit.serialize.loads_certificate,
}

# called once per candidate inside the oracles, or once per scale point
# inside the auditor: counted and timed under the parent span, not stored.
# None of them calls another traced function.
AGGREGATED = frozenset(("instances.validate", "instances.measure", "instances.verify"))


def _solve_attrs(args, result):
    return {"kind": args[0].kind, "answer": result.answer, "explored": result.explored}


def _solve_ip_attrs(args, result):
    return {"vars": args[0].num_variables}


def _dumps_attrs(args, result):
    return {"bytes": len(result)}


def _loads_attrs(args, result):
    return {"bytes": len(args[0])}


ATTRS = {
    "oracles.solve": _solve_attrs,
    "binprog.solve_ip": _solve_ip_attrs,
    "serialize.dumps_problem": _dumps_attrs,
    "serialize.dumps_certificate": _dumps_attrs,
    "serialize.loads_problem": _loads_attrs,
    "serialize.loads_certificate": _loads_attrs,
}


def _set(owner, attribute, value):
    if isinstance(owner, ReductionSpec):  # frozen dataclass
        object.__setattr__(owner, attribute, value)
    else:
        setattr(owner, attribute, value)


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` undoes it."""

    def __init__(self):
        # [span_id, parent_id, op_id, name, start, end, self_s, attrs]
        self.spans = []
        # (parent_span_id, name) -> [calls, total_s]
        self.aggregates = {}
        self._stack = []  # open frames: [span_id, name, start, child_s]
        self._next_id = 0
        self._op_id = None
        self._patches = []  # (owner, attribute, original)
        self.elements = 0  # element size of the instances generated by ops

    # -- recording -------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame, error=None):
        """Record the span of `frame` and return it, to add attributes to."""
        end = time.perf_counter()
        span_id, name, start, child_s = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        span = [span_id, parent[0] if parent else None, self._op_id, name,
                start, end, duration - child_s,
                {} if error is None else {"error": type(error).__name__}]
        self.spans.append(span)
        return span

    def wrap(self, name, fn):
        if name in AGGREGATED:
            return self._wrap_aggregated(name, fn)
        attrs_fn = ATTRS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, exc)
                raise
            span = self._close(frame)
            if attrs_fn is not None:
                span[7] = attrs_fn(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_aggregated(self, name, fn):
        # these functions call no traced function, so they open no frame
        stack, aggregates, clock = self._stack, self.aggregates, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                parent = stack[-1]
                parent[3] += duration
                entry = aggregates.get((parent[0], name))
                if entry is None:
                    aggregates[(parent[0], name)] = [1, duration]
                else:
                    entry[0] += 1
                    entry[1] += duration

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id, label):
        """One benchmark op: the root span of its tree."""
        self._op_id = op_id
        frame = self._open("op")
        try:
            yield
        finally:
            self._close(frame)[7]["label"] = label
            self._op_id = None

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        _set(owner, attribute, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "karpkit" or n.startswith("karpkit.")]
        for name, fn in LAYER_FUNCTIONS.items():
            traced = self.wrap(name, fn)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attribute, traced)
        self._patch(ReductionSpec, "apply", self.wrap("reductions.apply", ReductionSpec.apply))
        # lifts are per-reduction dataclass fields, called as `step.lift(...)`
        for spec in REDUCTIONS.values():
            self._patch(spec, "lift", self.wrap("reductions.lift", spec.lift))
        return self

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            _set(owner, attribute, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def dump(self):
        return {
            "span_fields": ["span_id", "parent_id", "op_id", "name", "start",
                            "end", "self_s", "attrs"],
            "spans": self.spans,
            "aggregates": [
                {"parent_id": parent, "name": name, "calls": calls, "total_s": total}
                for (parent, name), (calls, total) in self.aggregates.items()
            ],
        }


SOLVE_KINDS = tuple(k for k in karpkit.KINDS if k != "job_sequencing")

# per-layer metric -> unit; times and counts are per timed op
LAYER_UNITS = {
    "genlab.generate_s": "s/op",
    "genlab.generate_calls": "calls/op",
    "genlab.elements_per_s": "1/s",
    "growth.audit_self_s": "s/op",
    "reductions.apply_s": "s/op",
    "reductions.apply_calls": "calls/op",
    "reductions.lift_s": "s/op",
    "reductions.lift_calls": "calls/op",
    "instances.validate_s": "s/op",
    "instances.measure_s": "s/op",
    "instances.verify_s": "s/op",
    "instances.verify_calls": "calls/op",
    "oracles.solve_self_s": "s/op",
    **{"oracles.solve_s." + k: "s/call" for k in SOLVE_KINDS},
    **{"oracles.explored." + k: "candidates/call" for k in SOLVE_KINDS},
    "oracles.explored_per_s": "1/s",
    "oracles.yes_share": "share",
    "oracles.refusals": "count",
    "binprog.solve_ip_s": "s/op",
    "binprog.solve_ip_calls": "calls/op",
    "binprog.solve_ip_vars_max": "count",
    "serialize.dumps_s": "s/op",
    "serialize.loads_s": "s/op",
    "serialize.bytes": "bytes/op",
    "trace.overhead_share": "share",
}


def layer_metrics(tracer, ops):
    """Per-layer numbers of a traced run, except the tracing overhead, which
    needs the untraced run too."""
    total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for _, _, _, name, start, end, own, _ in tracer.spans:
        total[name] += end - start
        self_s[name] += own
        calls[name] += 1
    for (_, name), (count, seconds) in tracer.aggregates.items():
        total[name] += seconds
        self_s[name] += seconds
        calls[name] += count

    solves = [s for s in tracer.spans if s[3] == "oracles.solve"]
    answered = [s for s in solves if "answer" in s[7]]
    kind_s, kind_explored, kind_calls = defaultdict(float), Counter(), Counter()
    for s in answered:
        kind = s[7]["kind"]
        kind_s[kind] += s[5] - s[4]
        kind_explored[kind] += s[7]["explored"]
        kind_calls[kind] += 1
    solve_ip = [s for s in tracer.spans if s[3] == "binprog.solve_ip"]
    serialized = [s for s in tracer.spans if s[3].startswith("serialize.")]
    answered_s = sum(s[5] - s[4] for s in answered)

    def per_op(value):
        return value / ops

    generate_s = total["genlab.generate"]
    out = {
        "genlab.generate_s": per_op(generate_s),
        "genlab.generate_calls": per_op(calls["genlab.generate"]),
        "genlab.elements_per_s": tracer.elements / generate_s if generate_s else 0.0,
        "growth.audit_self_s": per_op(self_s["growth.audit"]),
        "reductions.apply_s": per_op(total["reductions.apply"]),
        "reductions.apply_calls": per_op(calls["reductions.apply"]),
        "reductions.lift_s": per_op(total["reductions.lift"]),
        "reductions.lift_calls": per_op(calls["reductions.lift"]),
        "instances.validate_s": per_op(total["instances.validate"]),
        "instances.measure_s": per_op(total["instances.measure"]),
        "instances.verify_s": per_op(total["instances.verify"]),
        "instances.verify_calls": per_op(calls["instances.verify"]),
        "oracles.solve_self_s": per_op(self_s["oracles.solve"]),
    }
    for kind in SOLVE_KINDS:
        n = kind_calls[kind]
        out["oracles.solve_s." + kind] = kind_s[kind] / n if n else 0.0
        out["oracles.explored." + kind] = kind_explored[kind] / n if n else 0.0
    out.update({
        "oracles.explored_per_s": (sum(kind_explored.values()) / answered_s
                                   if answered_s else 0.0),
        "oracles.yes_share": (sum(1 for s in answered if s[7]["answer"]) / len(answered)
                              if answered else 0.0),
        "oracles.refusals": sum(1 for s in solves
                                if s[7].get("error") == "BudgetExceededError"),
        "binprog.solve_ip_s": per_op(total["binprog.solve_ip"]),
        "binprog.solve_ip_calls": per_op(calls["binprog.solve_ip"]),
        "binprog.solve_ip_vars_max": max((s[7].get("vars", 0) for s in solve_ip), default=0),
        "serialize.dumps_s": per_op(total["serialize.dumps_problem"]
                                    + total["serialize.dumps_certificate"]),
        "serialize.loads_s": per_op(total["serialize.loads_problem"]
                                    + total["serialize.loads_certificate"]),
        "serialize.bytes": per_op(sum(s[7].get("bytes", 0) for s in serialized)),
    })
    return out
