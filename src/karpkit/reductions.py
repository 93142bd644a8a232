"""The sixteen linearly-growing reductions between Karp problems.

Each reduction is a transform/lift pair: the transform maps a source
instance to a target instance with the same YES/NO answer, and the lift
maps any accepted target certificate back to a source certificate.  Every
reduction declares an affine growth claim on element-mode input sizes and,
where known, exact nonzero/RHS count formulas for its output.

A lift is called as `lift(source, target, cert)`, where `target` is the
instance the transform made from `source` (`lift_chain` hands each step the
pair from its one `apply_chain` call), so a lift reads the target and never
runs the transform again.  It builds its certificate with `_certificate`,
which takes the certificate kind from `instances.KINDS[source.kind]`.  A
reduction onto ip01 tags its variables `(tag, index, ...)`, and a lift that
only picks variables is `_tagged(tag)`.

Reductions onto 0-1 integer programming emit inequality rows with their
analytically-derived slack bounds so that `to_equality_form` can finish
the job in O(1) extra size per constant-bounded row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable, Optional

from .instances import (
    KINDS,
    Certificate,
    CnfFormula,
    DiGraph,
    IntegerList,
    InvalidCertificateError,
    Problem,
    SetFamily,
    SteinerInstance,
    UGraph,
    UnsupportedKindError,
)
from .binprog import EQ, GE, LE, BinaryProgram, ConstraintRow, VariableTag

KERNEL_KINDS = frozenset(
    ("ip01", "feedback_node_set", "hcp", "chromatic_number", "clique_cover",
     "job_sequencing")
)


@dataclass(frozen=True)
class ReductionSpec:
    name: str
    source_kind: str
    target_kind: str
    transform: Callable
    lift: Callable  # (source, target, cert) -> source certificate
    growth_claim: tuple  # (alpha, beta) on element-mode sizes
    count_checks: Optional[Callable] = None  # (source, target) -> [(label, want, got)]

    def apply(self, problem):
        if problem.kind != self.source_kind:
            raise TypeError(
                "%s expects kind %r, got %r" % (self.name, self.source_kind, problem.kind)
            )
        return self.transform(problem)


def _certificate(source, value):
    """A certificate for `source`, of the kind its `KINDS` entry declares."""
    return Certificate(KINDS[source.kind].certificate[0], value)


def _tagged(tag, picked=1):
    """Lift from ip01: the index in each origin whose variable has tag `tag`
    and is set to `picked`, in variable order."""
    def lift(source, target, cert):
        return _certificate(source, tuple(
            var.origin[1]
            for var, x in zip(target.payload.variables, cert.value)
            if var.origin[0] == tag and x == picked
        ))
    return lift


def lift_same(source, target, cert):
    """The target witness is the source witness under the source's certificate kind."""
    return _certificate(source, tuple(cert.value))


def _row(terms, relation, rhs, slack_bound=None):
    return ConstraintRow(tuple(terms), relation, rhs, slack_bound)


def _ip_problem(variables, rows):
    return Problem("ip01", BinaryProgram(tuple(variables), tuple(rows)).validate())


def _ip_nonzeros(program):
    return sum(len(r.terms) for r in program.rows)


# ---------------------------------------------------------------------------
# SAT -> 3-SAT
# ---------------------------------------------------------------------------


def reduce_sat_to_3sat(problem):
    """Split every clause of size k > 3 into a chain of k-2 clauses linked
    by k-3 fresh variables; shorter clauses are copied verbatim."""
    f = problem.payload
    next_var = f.num_literals
    clauses = []
    for clause in f.clauses:
        k = len(clause)
        if k <= 3:
            clauses.append(tuple(clause))
            continue
        fresh = [next_var + j for j in range(1, k - 2)]
        next_var += k - 3
        clauses.append((clause[0], clause[1], fresh[0]))
        for j in range(2, k - 2):
            clauses.append((-fresh[j - 2], clause[j], fresh[j - 1]))
        clauses.append((-fresh[-1], clause[k - 2], clause[k - 1]))
    return Problem("threesat", CnfFormula(next_var, tuple(clauses)))


def lift_sat_to_3sat(source, target, cert):
    m = source.payload.num_literals
    return _certificate(source, tuple(cert.value[:m]))


# ---------------------------------------------------------------------------
# Clique -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_clique_to_ip(problem):
    """Edge variables x_ij, vertex variables v_i; per-edge linking rows plus
    exactly-k vertices and exactly C(k,2) chosen edges."""
    g, k = problem.payload, problem.param
    variables = [VariableTag(("edge", i, j)) for i, j in g.edges]
    variables += [VariableTag(("vertex", i)) for i in range(1, g.num_vertices + 1)]
    x = {e: idx for idx, e in enumerate(g.edges)}
    v = {i: len(g.edges) + i - 1 for i in range(1, g.num_vertices + 1)}
    rows = []
    for (i, j) in g.edges:
        rows.append(_row([(x[(i, j)], 1), (v[i], -1), (v[j], -1)], GE, -1, 1))
        rows.append(_row([(x[(i, j)], 1), (v[i], -1)], LE, 0, 1))
        rows.append(_row([(x[(i, j)], 1), (v[j], -1)], LE, 0, 1))
    rows.append(_row([(v[i], 1) for i in range(1, g.num_vertices + 1)], EQ, k))
    rows.append(_row([(x[e], 1) for e in g.edges], EQ, comb(k, 2)))
    return _ip_problem(variables, rows)


def counts_clique_to_ip(source, target):
    g = source.payload
    prog = target.payload
    n, e = g.num_vertices, len(g.edges)
    return [
        ("nonzeros = N + 8e", n + 8 * e, _ip_nonzeros(prog)),
        ("rhs entries = 3e + 2", 3 * e + 2, len(prog.rows)),
    ]


# ---------------------------------------------------------------------------
# Set Packing -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_set_packing_to_ip(problem):
    fam, l = problem.payload, problem.param
    variables = [VariableTag(("set", i)) for i in range(1, fam.num_sets + 1)]
    member = {j: [] for j in range(1, fam.universe_size + 1)}
    for i, s in enumerate(fam.sets):
        for j in s:
            member[j].append(i)
    rows = [
        _row([(i, 1) for i in member[j]], LE, 1, 1)
        for j in range(1, fam.universe_size + 1)
    ]
    rows.append(_row([(i, 1) for i in range(fam.num_sets)], EQ, l))
    return _ip_problem(variables, rows)


def counts_family_to_ip(source, target):
    fam = source.payload
    prog = target.payload
    total = sum(len(s) for s in fam.sets)
    return [
        ("nonzeros = sum|S_i| + s", total + fam.num_sets, _ip_nonzeros(prog)),
    ]


# ---------------------------------------------------------------------------
# Node Cover -> Set Covering
# ---------------------------------------------------------------------------


def reduce_node_cover_to_set_covering(problem):
    """Universe = edges; set j holds the edges incident with vertex j; k = l."""
    g, l = problem.payload, problem.param
    edge_id = {e: idx + 1 for idx, e in enumerate(g.edges)}
    sets = []
    for j in range(1, g.num_vertices + 1):
        sets.append(tuple(edge_id[e] for e in g.edges if j in e))
    fam = SetFamily(len(g.edges), tuple(sets))
    return Problem("set_covering", fam, param=l)


def counts_node_cover(source, target):
    e = len(source.payload.edges)
    total = sum(len(s) for s in target.payload.sets)
    return [("total set entries = 2e", 2 * e, total)]


# ---------------------------------------------------------------------------
# Set Covering -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_set_covering_to_ip(problem):
    """Coverage rows are indexed over the union of the family (an element no
    set contains imposes no requirement), plus an exactly-k row."""
    fam, k = problem.payload, problem.param
    variables = [VariableTag(("set", i)) for i in range(1, fam.num_sets + 1)]
    member = {}
    for i, s in enumerate(fam.sets):
        for j in s:
            member.setdefault(j, []).append(i)
    rows = [
        _row([(i, 1) for i in member[j]], GE, 1, len(member[j]) - 1)
        for j in sorted(member)
    ]
    rows.append(_row([(i, 1) for i in range(fam.num_sets)], EQ, k))
    return _ip_problem(variables, rows)


# ---------------------------------------------------------------------------
# Feedback Arc Set -> Feedback Node Set
# ---------------------------------------------------------------------------


def _fas_expansion(g):
    """Expand each vertex into a forward path gadget with one attachment
    slot per incident arc (incoming slots first, in arc-list order).

    Returns (gadget slot table, arcs of the expanded graph G' with labels).
    Each G' arc is labelled either ("orig", arc_index) or
    ("internal", vertex, slot).
    """
    n = g.num_vertices
    in_arcs = {i: [] for i in range(1, n + 1)}
    out_arcs = {i: [] for i in range(1, n + 1)}
    for idx, (u, v) in enumerate(g.arcs):
        out_arcs[u].append(idx)
        in_arcs[v].append(idx)
    slot_id = {}
    next_id = 0
    for i in range(1, n + 1):
        for s in range(1, len(in_arcs[i]) + len(out_arcs[i]) + 1):
            next_id += 1
            slot_id[(i, s)] = next_id
    arcs = []
    for i in range(1, n + 1):
        for s in range(1, len(in_arcs[i]) + len(out_arcs[i])):
            arcs.append((("internal", i, s), slot_id[(i, s)], slot_id[(i, s + 1)]))
    for idx, (u, v) in enumerate(g.arcs):
        tail_slot = len(in_arcs[u]) + out_arcs[u].index(idx) + 1
        head_slot = in_arcs[v].index(idx) + 1
        arcs.append((("orig", idx), slot_id[(u, tail_slot)], slot_id[(v, head_slot)]))
    return in_arcs, out_arcs, arcs


def reduce_fas_to_fns(problem):
    """Sparsify via per-vertex path gadgets, then take the directed line
    graph; feedback node sets there play the role of feedback arc sets."""
    g, k = problem.payload, problem.param
    _, _, arcs = _fas_expansion(g)
    heads = {}
    for node, (_, tail, head) in enumerate(arcs, start=1):
        heads.setdefault(tail, []).append(node)
    line_arcs = []
    for node, (_, tail, head) in enumerate(arcs, start=1):
        for succ in heads.get(head, ()):
            line_arcs.append((node, succ))
    return Problem("feedback_node_set", DiGraph(len(arcs), tuple(line_arcs)), param=k)


def lift_fas_to_fns(source, target, cert):
    """Map chosen line-graph nodes back to arcs of the source graph;
    gadget-internal arcs map to the first incident arc of their vertex."""
    g = source.payload
    in_arcs, out_arcs, arcs = _fas_expansion(g)
    chosen = set()
    for node in cert.value:
        label = arcs[node - 1][0]
        if label[0] == "orig":
            chosen.add(g.arcs[label[1]])
        else:
            _, vertex, _ = label
            incident = in_arcs[vertex] + out_arcs[vertex]
            chosen.add(g.arcs[incident[0]])
    return _certificate(source, tuple(sorted(chosen)))


# ---------------------------------------------------------------------------
# Directed HCP -> Undirected HCP
# ---------------------------------------------------------------------------


def reduce_dhcp_to_hcp(problem):
    """Each vertex i becomes the 3-path 3i-2 -- 3i-1 -- 3i; arc (i,j)
    becomes the edge {3i, 3j-2}."""
    g = problem.payload
    edges = []
    for i in range(1, g.num_vertices + 1):
        edges.append((3 * i - 2, 3 * i - 1))
        edges.append((3 * i - 1, 3 * i))
    for (i, j) in g.arcs:
        a, b = 3 * i, 3 * j - 2
        edges.append((min(a, b), max(a, b)))
    return Problem("hcp", UGraph(3 * g.num_vertices, tuple(edges)))


def lift_dhcp_to_hcp(source, target, cert):
    """Contract each 1-2-3 gadget traversal back to its source vertex."""
    order = list(cert.value)
    n = len(order)
    for direction in (order, order[::-1]):
        starts = [t for t in range(n) if direction[t] % 3 == 1]
        for t in starts:
            rotated = direction[t:] + direction[:t]
            seq = []
            ok = True
            for pos in range(0, n, 3):
                a, b, c = rotated[pos : pos + 3]
                if b == a + 1 and c == a + 2:
                    seq.append((a + 2) // 3)
                else:
                    ok = False
                    break
            if ok:
                return _certificate(source, tuple(seq))
    raise InvalidCertificateError("cycle does not traverse gadgets in order")


def counts_dhcp_to_hcp(source, target):
    g = source.payload
    return [
        (
            "edges = e + 2N",
            len(g.arcs) + 2 * g.num_vertices,
            len(target.payload.edges),
        )
    ]


# ---------------------------------------------------------------------------
# 3-SAT -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_threesat_to_ip(problem):
    """One >= row per clause: signed literal coefficients against 1 minus the
    number of complemented literals.  Repeated occurrences of a variable in
    one clause sum their signs (cancellation drops the term)."""
    f = problem.payload
    variables = [VariableTag(("literal", j)) for j in range(1, f.num_literals + 1)]
    rows = []
    for clause in f.clauses:
        w = {}
        d = 0
        for lit in clause:
            w[abs(lit)] = w.get(abs(lit), 0) + (1 if lit > 0 else -1)
            if lit < 0:
                d += 1
        terms = [(j - 1, c) for j, c in sorted(w.items()) if c != 0]
        rhs = 1 - d
        gap = sum(max(c, 0) for _, c in terms) - rhs
        rows.append(_row(terms, GE, rhs, gap))
    return _ip_problem(variables, rows)


def lift_threesat_to_ip(source, target, cert):
    m = source.payload.num_literals
    return _certificate(source, tuple(bool(x) for x in cert.value[:m]))


def counts_threesat_to_ip(source, target):
    n = len(source.payload.clauses)
    prog = target.payload
    return [
        ("nonzeros = 3n", 3 * n, _ip_nonzeros(prog)),
        ("rhs entries = n", n, len(prog.rows)),
    ]


# ---------------------------------------------------------------------------
# Exact Cover -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_exact_cover_to_ip(problem):
    fam = problem.payload
    variables = [VariableTag(("set", i)) for i in range(1, fam.num_sets + 1)]
    member = {}
    for i, s in enumerate(fam.sets):
        for j in s:
            member.setdefault(j, []).append(i)
    rows = [_row([(i, 1) for i in member[j]], EQ, 1) for j in sorted(member)]
    return _ip_problem(variables, rows)


def counts_exact_cover(source, target):
    total = sum(len(s) for s in source.payload.sets)
    return [("nonzeros = sum|S_i|", total, _ip_nonzeros(target.payload))]


# ---------------------------------------------------------------------------
# Hitting Set -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_hitting_set_to_ip(problem):
    fam = problem.payload
    variables = [VariableTag(("element", j)) for j in range(1, fam.universe_size + 1)]
    rows = [_row([(j - 1, 1) for j in s], EQ, 1) for s in fam.sets]
    return _ip_problem(variables, rows)


def counts_hitting_set(source, target):
    fam = source.payload
    total = sum(len(s) for s in fam.sets)
    prog = target.payload
    return [
        ("nonzeros = sum|S_i|", total, _ip_nonzeros(prog)),
        ("rhs entries = s", fam.num_sets, len(prog.rows)),
    ]


# ---------------------------------------------------------------------------
# Steiner Tree -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_steiner_tree_to_ip(problem):
    """Oriented edge variables with root/membership indicators.

    The weight-budget row is dropped when the budget covers the total edge
    weight (it is then satisfied automatically).
    """
    st = problem.payload
    g = st.graph
    n = g.num_vertices
    terminals = set(st.terminals)
    variables = []
    x = {}
    for (i, j) in g.edges:
        x[(i, j)] = len(variables)
        variables.append(VariableTag(("arc", i, j)))
        x[(j, i)] = len(variables)
        variables.append(VariableTag(("arc", j, i)))
    y = {}
    z = {}
    for j in range(1, n + 1):
        y[j] = len(variables)
        variables.append(VariableTag(("member", j)))
    for j in range(1, n + 1):
        z[j] = len(variables)
        variables.append(VariableTag(("root", j)))

    neighbors = {j: [] for j in range(1, n + 1)}
    for (i, j) in g.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)

    rows = [_row([(z[j], 1) for j in range(1, n + 1)], EQ, 1)]
    for j in range(1, n + 1):
        if j in terminals:
            rows.append(_row([(y[j], 1), (z[j], 1)], EQ, 1))
        else:
            rows.append(_row([(y[j], 1), (z[j], 1)], LE, 1, 1))
    for j in range(1, n + 1):
        terms = [(y[j], 1)] + [(x[(i, j)], -1) for i in neighbors[j]]
        rows.append(_row(terms, EQ, 0))
    for (i, j) in g.edges:
        rows.append(_row([(x[(i, j)], 1), (y[i], -1), (z[i], -1)], LE, 0, 1))
    for (i, j) in g.edges:
        rows.append(_row([(x[(i, j)], 1), (z[j], 1)], LE, 1, 1))
    total_weight = sum(g.weights) if g.weights else 0
    if st.budget < total_weight:
        terms = []
        for idx, (i, j) in enumerate(g.edges):
            w = g.weights[idx]
            if w != 0:
                terms.append((x[(i, j)], w))
                terms.append((x[(j, i)], w))
        rows.append(_row(terms, LE, st.budget, min(st.budget, total_weight)))
    return _ip_problem(variables, rows)


def lift_steiner_tree_to_ip(source, target, cert):
    edges = set()
    root = None
    for tag, val in zip(target.payload.variables, cert.value):
        if not val:
            continue
        if tag.origin[0] == "arc":
            _, i, j = tag.origin
            edges.add((min(i, j), max(i, j)))
        elif tag.origin[0] == "root":
            root = tag.origin[1]
    return _certificate(source, {"edges": tuple(sorted(edges)), "root": root})


def counts_steiner_tree(source, target):
    g = source.payload.graph
    n, e = g.num_vertices, len(g.edges)
    want = 4 * n + 7 * e
    if source.payload.budget < sum(g.weights):
        want += 2 * sum(1 for w in g.weights if w != 0)
    return [("nonzeros = 4N + 7e (budget row extra)", want, _ip_nonzeros(target.payload))]


# ---------------------------------------------------------------------------
# 3-Dimensional Matching -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_three_dim_matching_to_ip(problem):
    """One equality row per (ground element, coordinate) pair."""
    tf = problem.payload
    variables = [VariableTag(("triple", i)) for i in range(1, len(tf.triples) + 1)]
    occur = {(j, k): [] for j in range(1, tf.t_size + 1) for k in (1, 2, 3)}
    for i, t in enumerate(tf.triples):
        for k in (1, 2, 3):
            occur[(t[k - 1], k)].append(i)
    rows = [
        _row([(i, 1) for i in occur[(j, k)]], EQ, 1)
        for j in range(1, tf.t_size + 1)
        for k in (1, 2, 3)
    ]
    return _ip_problem(variables, rows)


def counts_three_dim_matching(source, target):
    tf = source.payload
    prog = target.payload
    return [
        ("nonzeros = 3|U|", 3 * len(tf.triples), _ip_nonzeros(prog)),
        ("rhs entries = 3|T|", 3 * tf.t_size, len(prog.rows)),
    ]


# ---------------------------------------------------------------------------
# Knapsack -> 0-1 IP, Partition -> Knapsack
# ---------------------------------------------------------------------------


def reduce_knapsack_to_ip(problem):
    ks = problem.payload
    variables = [VariableTag(("item", i)) for i in range(1, len(ks.values) + 1)]
    terms = [(i, a) for i, a in enumerate(ks.values)]
    return _ip_problem(variables, [_row(terms, EQ, ks.target)])


def counts_knapsack(source, target):
    prog = target.payload
    return [
        ("nonzeros = r", len(source.payload.values), _ip_nonzeros(prog)),
        ("rhs entries = 1", 1, len(prog.rows)),
    ]


def reduce_partition_to_knapsack(problem):
    """Target b = half the total; an odd total gets the unreachable target
    total+1 so both sides stay NO."""
    values = problem.payload.values
    total = sum(values)
    b = total // 2 if total % 2 == 0 else total + 1
    return Problem("knapsack", IntegerList(values, b))


# ---------------------------------------------------------------------------
# Max Cut -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_max_cut_to_ip(problem):
    """Inverted convention: x_i = 0 selects vertex i, y_ij = 0 counts the
    edge; the budget row bounds the weight of uncut edges by TW - W."""
    g, w_target = problem.payload, problem.param
    variables = [VariableTag(("vertex", i)) for i in range(1, g.num_vertices + 1)]
    y = {}
    for (i, j) in g.edges:
        y[(i, j)] = len(variables)
        variables.append(VariableTag(("edge", i, j)))
    x = {i: i - 1 for i in range(1, g.num_vertices + 1)}
    rows = []
    for (i, j) in g.edges:
        rows.append(_row([(y[(i, j)], 1), (x[i], -1), (x[j], 1)], LE, 1, 2))
        rows.append(_row([(y[(i, j)], 1), (x[j], -1), (x[i], 1)], LE, 1, 2))
        rows.append(_row([(y[(i, j)], 1), (x[i], 1), (x[j], 1)], GE, 1, 2))
        rows.append(_row([(y[(i, j)], 1), (x[i], -1), (x[j], -1)], GE, -1, 2))
    tw = sum(g.weights)
    terms = [
        (y[e], w) for e, w in zip(g.edges, g.weights) if w != 0
    ]
    rows.append(_row(terms, LE, tw - w_target, max(tw - w_target, 0)))
    return _ip_problem(variables, rows)


def counts_max_cut(source, target):
    g = source.payload
    e = len(g.edges)
    prog = target.payload
    nonzero_weights = sum(1 for w in g.weights if w != 0)
    return [
        ("nonzeros = 13e", 12 * e + nonzero_weights, _ip_nonzeros(prog)),
        ("rhs entries = 4e + 1", 4 * e + 1, len(prog.rows)),
    ]


# ---------------------------------------------------------------------------
# Chromatic Number -> Clique Cover
# ---------------------------------------------------------------------------


def reduce_chromatic_to_clique_cover(problem, mode="dense"):
    """Complement the graph; colour classes become cliques.  Dense mode
    materialises every complement edge, compressed mode stores the original
    graph with a complement flag."""
    g, k = problem.payload, problem.param
    if mode == "dense":
        stored = set(g.edges)
        comp = tuple(
            (i, j)
            for i in range(1, g.num_vertices + 1)
            for j in range(i + 1, g.num_vertices + 1)
            if (i, j) not in stored
        )
        target_graph = UGraph(g.num_vertices, comp)
    elif mode == "compressed":
        target_graph = UGraph(g.num_vertices, g.edges, complement=True)
    else:
        raise ValueError("mode must be 'dense' or 'compressed'")
    return Problem("clique_cover", target_graph, param=k)


def lift_chromatic_to_clique_cover(source, target, cert):
    colors = [0] * source.payload.num_vertices
    for color, block in enumerate(cert.value, start=1):
        for vertex in block:
            colors[vertex - 1] = color
    return _certificate(source, tuple(colors))


# ---------------------------------------------------------------------------
# registry, chains, kernel routing
# ---------------------------------------------------------------------------


REDUCTIONS = {
    spec.name: spec
    for spec in (
        ReductionSpec("sat_to_3sat", "sat", "threesat", reduce_sat_to_3sat,
                      lift_sat_to_3sat, (3.0, 0.0)),
        ReductionSpec("clique_to_ip", "clique", "ip01", reduce_clique_to_ip,
                      _tagged("vertex"), (12.0, 3.0), counts_clique_to_ip),
        ReductionSpec("set_packing_to_ip", "set_packing", "ip01", reduce_set_packing_to_ip,
                      _tagged("set"), (3.0, 1.0), counts_family_to_ip),
        ReductionSpec("node_cover_to_set_covering", "node_cover", "set_covering",
                      reduce_node_cover_to_set_covering, lift_same, (2.0, 1.0),
                      counts_node_cover),
        ReductionSpec("set_covering_to_ip", "set_covering", "ip01", reduce_set_covering_to_ip,
                      _tagged("set"), (3.0, 1.0), counts_family_to_ip),
        ReductionSpec("fas_to_fns", "feedback_arc_set", "feedback_node_set",
                      reduce_fas_to_fns, lift_fas_to_fns, (12.0, 1.0)),
        ReductionSpec("dhcp_to_hcp", "dhcp", "hcp", reduce_dhcp_to_hcp, lift_dhcp_to_hcp,
                      (3.0, 0.0), counts_dhcp_to_hcp),
        ReductionSpec("threesat_to_ip", "threesat", "ip01", reduce_threesat_to_ip,
                      lift_threesat_to_ip, (4.0 / 3.0, 0.0), counts_threesat_to_ip),
        ReductionSpec("exact_cover_to_ip", "exact_cover", "ip01", reduce_exact_cover_to_ip,
                      _tagged("set"), (2.0, 0.0), counts_exact_cover),
        ReductionSpec("hitting_set_to_ip", "hitting_set", "ip01", reduce_hitting_set_to_ip,
                      _tagged("element"), (2.0, 0.0), counts_hitting_set),
        ReductionSpec("steiner_tree_to_ip", "steiner_tree", "ip01", reduce_steiner_tree_to_ip,
                      lift_steiner_tree_to_ip, (9.0, 8.0), counts_steiner_tree),
        ReductionSpec("three_dim_matching_to_ip", "three_dim_matching", "ip01",
                      reduce_three_dim_matching_to_ip, _tagged("triple"), (2.0, 0.0),
                      counts_three_dim_matching),
        ReductionSpec("knapsack_to_ip", "knapsack", "ip01", reduce_knapsack_to_ip,
                      _tagged("item"), (1.0, 0.0), counts_knapsack),
        ReductionSpec("partition_to_knapsack", "partition", "knapsack",
                      reduce_partition_to_knapsack, lift_same, (1.0, 1.0)),
        ReductionSpec("max_cut_to_ip", "max_cut", "ip01", reduce_max_cut_to_ip,
                      _tagged("vertex", picked=0), (9.0, 1.0), counts_max_cut),
        ReductionSpec("chromatic_to_clique_cover", "chromatic_number", "clique_cover",
                      partial(reduce_chromatic_to_clique_cover, mode="dense"),
                      lift_chromatic_to_clique_cover, (1.0, 1.0)),
        ReductionSpec("chromatic_to_clique_cover_compressed", "chromatic_number",
                      "clique_cover",
                      partial(reduce_chromatic_to_clique_cover, mode="compressed"),
                      lift_chromatic_to_clique_cover, (1.0, 1.0)),
    )
}

# the sixteen canonical reduction ids (compressed clique-cover is a variant)
CANONICAL_REDUCTIONS = tuple(
    name for name in REDUCTIONS if name != "chromatic_to_clique_cover_compressed"
)


@dataclass(frozen=True)
class ReductionChain:
    steps: tuple  # of ReductionSpec

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if a.target_kind != b.source_kind:
                raise TypeError(
                    "chain mismatch: %s emits %r but %s expects %r"
                    % (a.name, a.target_kind, b.name, b.source_kind)
                )

    @property
    def names(self):
        return tuple(s.name for s in self.steps)

    def growth_claim(self):
        """Composition of the per-step affine bounds."""
        alpha, beta = 1.0, 0.0
        for step in self.steps:
            a, b = step.growth_claim
            alpha, beta = a * alpha, a * beta + b
        return alpha, beta


def chain_from_names(names):
    return ReductionChain(tuple(REDUCTIONS[n] for n in names))


def compose(chain, problem):
    """Apply a chain's transforms left to right."""
    return apply_chain(chain, problem)[-1]


def apply_chain(chain, problem):
    """Apply a chain and keep every intermediate instance (for lifting)."""
    stages = [problem]
    for step in chain.steps:
        stages.append(step.apply(stages[-1]))
    return stages


def lift_chain(chain, problem, cert):
    """Replay a chain's lifts right to left, back to a source certificate;
    step i lifts from stages[i + 1] to stages[i]."""
    stages = apply_chain(chain, problem)
    for i in reversed(range(len(chain.steps))):
        cert = chain.steps[i].lift(stages[i], stages[i + 1], cert)
    return cert


_ROUTES = {
    "sat": ("sat_to_3sat", "threesat_to_ip"),
    "threesat": ("threesat_to_ip",),
    "clique": ("clique_to_ip",),
    "set_packing": ("set_packing_to_ip",),
    "node_cover": ("node_cover_to_set_covering", "set_covering_to_ip"),
    "set_covering": ("set_covering_to_ip",),
    "feedback_arc_set": ("fas_to_fns",),
    "dhcp": ("dhcp_to_hcp",),
    "exact_cover": ("exact_cover_to_ip",),
    "hitting_set": ("hitting_set_to_ip",),
    "steiner_tree": ("steiner_tree_to_ip",),
    "three_dim_matching": ("three_dim_matching_to_ip",),
    "knapsack": ("knapsack_to_ip",),
    "partition": ("partition_to_knapsack", "knapsack_to_ip"),
    "max_cut": ("max_cut_to_ip",),
}


def route_to_kernel(kind):
    """Chain taking any of the 21 problem kinds to a kernel kind."""
    if kind not in KINDS:
        raise UnsupportedKindError("unknown kind %r" % kind)
    if kind in KERNEL_KINDS:
        return ReductionChain(())
    return chain_from_names(_ROUTES[kind])
