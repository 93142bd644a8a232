"""Instance and certificate serialization.

Native format is a JSON envelope {"kind": <tag>, "payload": {...}}.
Importers: DIMACS CNF (for sat) and whitespace edge lists with an optional
third weight column (for graph kinds).
"""

from __future__ import annotations

import json

from .instances import (
    Certificate,
    CnfFormula,
    DiGraph,
    IntegerList,
    PARAM_KINDS,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    UnsupportedKindError,
    validate,
)
from .binprog import BinaryProgram, ConstraintRow, VariableTag

_PARAM_NAME = {
    "clique": "k",
    "set_packing": "l",
    "node_cover": "l",
    "set_covering": "k",
    "feedback_node_set": "k",
    "feedback_arc_set": "k",
    "chromatic_number": "k",
    "clique_cover": "l",
    "max_cut": "W",
}


def _ugraph_to_json(g):
    if g.weights is not None:
        edges = [[i, j, w] for (i, j), w in zip(g.edges, g.weights)]
    else:
        edges = [[i, j] for i, j in g.edges]
    out = {"num_vertices": g.num_vertices, "edges": edges}
    if g.complement:
        out["complement"] = True
    return out


def _ugraph_from_json(d, weighted=False):
    edges, weights = [], []
    for row in d["edges"]:
        edges.append((row[0], row[1]))
        if len(row) > 2:
            weights.append(row[2])
    if weighted and len(weights) != len(edges):
        raise ValueError("weighted graph requires a weight column on every edge")
    return UGraph.make(
        d["num_vertices"],
        edges,
        weights if weighted else None,
        bool(d.get("complement", False)),
    )


def _program_to_json(prog):
    rows = []
    for r in prog.rows:
        row = {
            "terms": [[i, c] for i, c in r.terms],
            "relation": r.relation,
            "rhs": r.rhs,
        }
        if r.slack_bound is not None:
            row["slack_bound"] = r.slack_bound
        rows.append(row)
    return {"variables": [list(t.origin) for t in prog.variables], "rows": rows}


def _program_from_json(d):
    variables = tuple(VariableTag(tuple(o)) for o in d["variables"])
    rows = tuple(
        ConstraintRow(
            tuple((i, c) for i, c in r["terms"]),
            r["relation"],
            r["rhs"],
            r.get("slack_bound"),
        )
        for r in d["rows"]
    )
    return BinaryProgram(variables, rows)


def problem_to_json(problem):
    kind = problem.kind
    p = problem.payload
    if kind == "job_sequencing":
        payload = None
    elif kind in ("sat", "threesat"):
        payload = {"num_literals": p.num_literals, "clauses": [list(c) for c in p.clauses]}
    elif kind == "ip01":
        payload = _program_to_json(p)
    elif kind in ("clique", "node_cover", "chromatic_number", "clique_cover", "hcp"):
        payload = {"graph": _ugraph_to_json(p)}
    elif kind == "max_cut":
        payload = {"graph": _ugraph_to_json(p)}
    elif kind in ("dhcp", "feedback_node_set", "feedback_arc_set"):
        payload = {"graph": {"num_vertices": p.num_vertices, "arcs": [list(a) for a in p.arcs]}}
    elif kind in ("set_packing", "set_covering", "exact_cover", "hitting_set"):
        payload = {
            "family": {"universe_size": p.universe_size, "sets": [list(s) for s in p.sets]}
        }
    elif kind == "steiner_tree":
        payload = {
            "graph": _ugraph_to_json(p.graph),
            "terminals": list(p.terminals),
            "k": p.budget,
        }
    elif kind == "three_dim_matching":
        payload = {"t_size": p.t_size, "triples": [list(t) for t in p.triples]}
    elif kind == "knapsack":
        payload = {"values": list(p.values), "target": p.target}
    elif kind == "partition":
        payload = {"values": list(p.values)}
    else:
        raise UnsupportedKindError(kind)
    if kind in PARAM_KINDS:
        payload[_PARAM_NAME[kind]] = problem.param
    return {"kind": kind, "payload": payload}


def _require_object(d, what):
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object, got %s" % (what, type(d).__name__))


def problem_from_json(d):
    _require_object(d, "instance")
    kind = d.get("kind")
    payload = d.get("payload")
    param = None
    if kind in PARAM_KINDS:
        param = payload[_PARAM_NAME[kind]]
    if kind == "job_sequencing":
        return validate(Problem(kind, None))
    if kind in ("sat", "threesat"):
        p = CnfFormula.make(payload["num_literals"], payload["clauses"])
    elif kind == "ip01":
        p = _program_from_json(payload)
    elif kind in ("clique", "node_cover", "chromatic_number", "clique_cover", "hcp"):
        p = _ugraph_from_json(payload["graph"])
    elif kind == "max_cut":
        p = _ugraph_from_json(payload["graph"], weighted=True)
    elif kind in ("dhcp", "feedback_node_set", "feedback_arc_set"):
        p = DiGraph.make(payload["graph"]["num_vertices"], payload["graph"]["arcs"])
    elif kind in ("set_packing", "set_covering", "exact_cover", "hitting_set"):
        p = SetFamily.make(payload["family"]["universe_size"], payload["family"]["sets"])
    elif kind == "steiner_tree":
        p = SteinerInstance.make(
            _ugraph_from_json(payload["graph"], weighted=True),
            payload["terminals"],
            payload["k"],
        )
    elif kind == "three_dim_matching":
        p = TripleFamily.make(payload["t_size"], payload["triples"])
    elif kind == "knapsack":
        p = IntegerList.make(payload["values"], payload["target"])
    elif kind == "partition":
        p = IntegerList.make(payload["values"])
    else:
        raise UnsupportedKindError("unknown kind %r" % kind)
    return validate(Problem(kind, p, param))


def dumps_problem(problem):
    return json.dumps(problem_to_json(problem), sort_keys=True, indent=2) + "\n"


def loads_problem(text):
    return problem_from_json(json.loads(text))


def certificate_to_json(cert):
    value = cert.value
    if cert.kind == "tree":
        value = {"edges": [list(e) for e in value["edges"]], "root": value["root"]}
    elif cert.kind == "arc_set":
        value = [list(a) for a in value]
    elif cert.kind == "clique_partition":
        value = [list(b) for b in value]
    elif cert.kind == "assignment":
        value = [bool(x) for x in value]
    else:
        value = list(value)
    return {"kind": cert.kind, "value": value}


def certificate_from_json(d):
    _require_object(d, "certificate")
    kind = d["kind"]
    value = d["value"]
    if kind == "tree":
        value = {
            "edges": tuple(tuple(e) for e in value["edges"]),
            "root": value["root"],
        }
    elif kind == "arc_set":
        value = tuple(tuple(a) for a in value)
    elif kind == "clique_partition":
        value = tuple(tuple(b) for b in value)
    elif kind == "assignment":
        value = tuple(bool(x) for x in value)
    elif kind == "binary":
        value = tuple(int(x) for x in value)
    else:
        value = tuple(value)
    return Certificate(kind, value)


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
    is the largest endpoint seen.
    """
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
    weighted = kind in ("max_cut",)
    directed = kind in ("dhcp", "feedback_node_set", "feedback_arc_set")
    if directed:
        payload = DiGraph.make(num_vertices, edges)
    elif weighted:
        if len(weights) != len(edges):
            raise ValueError("%s requires a weight on every edge" % kind)
        payload = UGraph.make(num_vertices, edges, weights)
    else:
        payload = UGraph.make(num_vertices, edges)
    return validate(Problem(kind, payload, param))
