"""Instance and certificate serialization.

Native format is a JSON envelope {"kind": <tag>, "payload": {...}}.  The
payload is the carrier's own JSON object (`to_json`/`from_json` on each
carrier in `instances`), plus the kind's scalar parameter under the name its
`instances.KINDS` entry gives.  A certificate is {"kind": ..., "value": ...}
with its value as written, read back uncoerced with every JSON array as a
tuple; the shape checks in `KINDS` refuse values of the wrong types.  This
module holds no per-kind branches.
Importers: DIMACS CNF (for sat) and whitespace edge lists with an optional
third weight column (for graph kinds).
"""

from __future__ import annotations

import json

from .instances import (
    KINDS,
    Certificate,
    CnfFormula,
    DiGraph,
    Problem,
    UGraph,
    UnsupportedKindError,
    validate,
)


def problem_to_json(problem):
    kind = problem.kind
    spec = KINDS.get(kind)
    if spec is None:
        raise UnsupportedKindError("unknown kind %r" % kind)
    payload = None if spec.carrier is None else problem.payload.to_json()
    if spec.param is not None:
        payload[spec.param] = problem.param
    return {"kind": kind, "payload": payload}


def _require_object(d, what):
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object, got %s" % (what, type(d).__name__))


def problem_from_json(d):
    _require_object(d, "instance")
    kind = d.get("kind")
    payload = d.get("payload")
    spec = KINDS.get(kind)
    if spec is None:
        raise UnsupportedKindError("unknown kind %r" % kind)
    if spec.carrier is None:
        return validate(Problem(kind, None))
    param = None if spec.param is None else payload[spec.param]
    if spec.weighted:
        p = spec.carrier.from_json(payload, weighted=True)
    else:
        p = spec.carrier.from_json(payload)
    return validate(Problem(kind, p, param))


def dumps_problem(problem):
    return json.dumps(problem_to_json(problem), sort_keys=True, indent=2) + "\n"


def loads_problem(text):
    return problem_from_json(json.loads(text))


def certificate_to_json(cert):
    return {"kind": cert.kind, "value": cert.value}


def _tuples(value):
    """A JSON value with every array, at any depth, read as a tuple."""
    if isinstance(value, list):
        return tuple(map(_tuples, value))
    if isinstance(value, dict):
        return {key: _tuples(v) for key, v in value.items()}
    return value


def certificate_from_json(d):
    _require_object(d, "certificate")
    return Certificate(d["kind"], _tuples(d["value"]))


def dumps_certificate(cert):
    return json.dumps(certificate_to_json(cert), sort_keys=True, indent=2) + "\n"


def loads_certificate(text):
    return certificate_from_json(json.loads(text))


# ---------------------------------------------------------------------------
# importers
# ---------------------------------------------------------------------------


def parse_dimacs_cnf(text):
    """DIMACS CNF: 'p cnf <vars> <clauses>' header, 0-terminated clauses."""
    num_literals = None
    clauses = []
    current = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError("malformed DIMACS header: %r" % line)
            num_literals = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_literals is None:
        num_literals = max((abs(l) for c in clauses for l in c), default=0)
    return validate(Problem("sat", CnfFormula(num_literals, tuple(clauses))))


def parse_edge_list(text, kind, param=None):
    """Whitespace edge list, one edge per line, optional third weight column.

    First non-comment line may be a single vertex count; otherwise the count
    is the largest endpoint seen.  Only graph kinds are edge lists.
    """
    spec = KINDS.get(kind)
    if spec is None:
        raise UnsupportedKindError("unknown kind %r" % kind)
    if spec.carrier not in (UGraph, DiGraph):
        raise UnsupportedKindError("edge lists hold graph kinds only, not %s" % kind)
    edges = []
    weights = []
    num_vertices = None
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and num_vertices is None and not edges:
            num_vertices = int(parts[0])
            continue
        if len(parts) not in (2, 3):
            raise ValueError("malformed edge line: %r" % line)
        edges.append((int(parts[0]), int(parts[1])))
        if len(parts) == 3:
            weights.append(int(parts[2]))
    if num_vertices is None:
        num_vertices = max((v for e in edges for v in e), default=0)
    if spec.carrier is DiGraph:
        payload = DiGraph(num_vertices, tuple(edges))
    elif spec.weighted:
        if len(weights) != len(edges):
            raise ValueError("%s requires a weight on every edge" % kind)
        payload = UGraph.make(num_vertices, edges, weights)
    else:
        payload = UGraph.make(num_vertices, edges)
    return validate(Problem(kind, payload, param))
