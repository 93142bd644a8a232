"""Instance and certificate serialization.

Native format is a JSON envelope {"kind": <tag>, "payload": {...}}.  The
payload is the carrier's own JSON object (`to_json`/`from_json` on each
carrier in `instances`), plus the kind's scalar parameter under the name its
`instances.KINDS` entry gives.  A certificate is {"kind": ..., "value": ...}
with its value as written, read back uncoerced with every JSON array as a
tuple; the shape checks in `KINDS` refuse values of the wrong types.  This
module holds no per-kind branches.
Every JSON text karpkit writes (instance, certificate, `route` manifest,
growth report) comes from `dumps_json`: sorted keys, a two-space indent and a
final newline, the same bytes as the stdlib `json` module's dumps with
`sort_keys=True, indent=2`.  Any indent sends the stdlib to its pure-Python
encoder, so `dumps_json` writes the text itself.
Importers: DIMACS CNF (for sat) and whitespace edge lists with an optional
third weight column (for graph kinds).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

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


_INFINITY = float("inf")
_CONSTANTS = {None: "null", True: "true", False: "false"}
_INT = {int}


def _scalar(value):
    """None, a bool, an int or a float as the stdlib writes it, or None if
    `value` is none of these."""
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)  # an IntEnum as its number
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY or value == -_INFINITY:
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return None


def _key(key):
    if isinstance(key, str):
        return _string(key)
    text = _scalar(key)
    if text is None:
        raise TypeError("keys must be str, int, float, bool or None, not %s"
                        % type(key).__name__)
    return '"' + text + '"'


def _write(value, newline):
    """`value` as JSON text, each member of a container on a line of its own
    that starts with `newline` and two more spaces."""
    t = type(value)
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        if {*map(type, value)} == _INT:  # exact ints: a bool stays true/false
            members = map(int.__repr__, value)
        else:
            members = [_write(member, inner) for member in value]
        return "[" + inner + ("," + inner).join(members) + newline + "]"
    if t is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        members = [_key(k) + ": " + _write(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    if t is int:  # exact, so not a bool
        return int.__repr__(value)
    if isinstance(value, str):
        return _string(value)
    text = _scalar(value)
    if text is not None:
        return text
    if isinstance(value, (list, tuple)):
        return _write(list(value), newline)
    if isinstance(value, dict):
        return _write(dict(value), newline)
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def dumps_json(value):
    """The one JSON text convention: sorted keys, two-space indent, final newline.

    The bytes are the stdlib's with `sort_keys=True, indent=2`, plus the
    newline, and so are its errors: a value JSON has no form for, or dict
    keys that do not sort, raise TypeError.
    """
    return _write(value, "\n") + "\n"


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
    return dumps_json(problem_to_json(problem))


def loads_problem(text):
    return problem_from_json(json.loads(text))


def certificate_to_json(cert):
    return {"kind": cert.kind, "value": cert.value}


def _tuples(value):
    """A JSON value with every array, at any depth, read as a tuple."""
    if isinstance(value, list):
        return tuple([*map(_tuples, value)])
    if isinstance(value, dict):
        return {key: _tuples(v) for key, v in value.items()}
    return value


def certificate_from_json(d):
    _require_object(d, "certificate")
    return Certificate(d["kind"], _tuples(d["value"]))


def dumps_certificate(cert):
    return dumps_json(certificate_to_json(cert))


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
    """Whitespace edge list, one edge per line, optional third weight column,
    read as a graph's JSON edge rows (a digraph keeps the first two columns).

    First non-comment line may be a single vertex count; otherwise the count
    is the largest endpoint seen.  Only graph kinds are edge lists.
    """
    spec = KINDS.get(kind)
    if spec is None:
        raise UnsupportedKindError("unknown kind %r" % kind)
    if spec.carrier not in (UGraph, DiGraph):
        raise UnsupportedKindError("edge lists hold graph kinds only, not %s" % kind)
    rows = []
    num_vertices = None
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1 and num_vertices is None and not rows:
            num_vertices = int(parts[0])
            continue
        if len(parts) not in (2, 3):
            raise ValueError("malformed edge line: %r" % line)
        rows.append([*map(int, parts)])
    if num_vertices is None:
        num_vertices = max((v for row in rows for v in row[:2]), default=0)
    if spec.carrier is DiGraph:
        payload = DiGraph(num_vertices, tuple([(row[0], row[1]) for row in rows]))
    else:
        graph = {"graph": {"num_vertices": num_vertices, "edges": rows}}
        payload = UGraph.from_json(graph, weighted=spec.weighted)
    return validate(Problem(kind, payload, param))
