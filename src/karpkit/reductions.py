"""The sixteen linearly-growing reductions between Karp problems.

Each reduction is a transform/lift pair: the transform maps a source
instance to a target instance with the same YES/NO answer, and the lift
maps any accepted target certificate back to a source certificate.  Every
reduction declares an affine growth claim on element-mode input sizes and,
where known, exact nonzero/RHS count formulas for its output.

Reductions onto 0-1 integer programming emit inequality rows with their
analytically-derived slack bounds so that `to_equality_form` can finish
the job in O(1) extra size per constant-bounded row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

from .instances import (
    Certificate,
    CnfFormula,
    DiGraph,
    IntegerList,
    Problem,
    SetFamily,
    SteinerInstance,
    UGraph,
    measure_input_size,
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
    lift: Callable
    growth_claim: tuple  # (alpha, beta) on element-mode sizes
    count_checks: Optional[Callable] = None  # (source, target) -> [(label, want, got)]

    def apply(self, problem):
        if problem.kind != self.source_kind:
            raise TypeError(
                "%s expects kind %r, got %r" % (self.name, self.source_kind, problem.kind)
            )
        return self.transform(problem)


def _require_kind(problem, kind, who):
    if problem.kind != kind:
        raise TypeError("%s expects kind %r, got %r" % (who, kind, problem.kind))


def _row(terms, relation, rhs, slack_bound=None):
    return ConstraintRow(tuple(terms), relation, rhs, slack_bound)


def _program(variables, rows):
    return BinaryProgram(tuple(variables), tuple(rows)).validate()


def _ip_problem(program):
    return Problem("ip01", program)


def _ip_nonzeros(program):
    return sum(len(r.terms) for r in program.rows)


# ---------------------------------------------------------------------------
# SAT -> 3-SAT
# ---------------------------------------------------------------------------


def reduce_sat_to_3sat(problem):
    """Split every clause of size k > 3 into a chain of k-2 clauses linked
    by k-3 fresh variables; shorter clauses are copied verbatim."""
    _require_kind(problem, "sat", "sat_to_3sat")
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


def lift_sat_to_3sat(source, cert):
    m = source.payload.num_literals
    return Certificate("assignment", tuple(cert.value[:m]))


# ---------------------------------------------------------------------------
# Clique -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_clique_to_ip(problem):
    """Edge variables x_ij, vertex variables v_i; per-edge linking rows plus
    exactly-k vertices and exactly C(k,2) chosen edges."""
    _require_kind(problem, "clique", "clique_to_ip")
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
    return _ip_problem(_program(variables, rows))


def lift_clique_to_ip(source, cert):
    target = reduce_clique_to_ip(source).payload
    chosen = [
        tag.origin[1]
        for tag, val in zip(target.variables, cert.value)
        if val and tag.origin[0] == "vertex"
    ]
    return Certificate("vertex_set", tuple(chosen))


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
    _require_kind(problem, "set_packing", "set_packing_to_ip")
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
    return _ip_problem(_program(variables, rows))


def _lift_selected_sets(cert_kind):
    def lift(source, cert):
        chosen = [i + 1 for i, val in enumerate(cert.value) if val]
        return Certificate(cert_kind, tuple(chosen))

    return lift


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
    _require_kind(problem, "node_cover", "node_cover_to_set_covering")
    g, l = problem.payload, problem.param
    edge_id = {e: idx + 1 for idx, e in enumerate(g.edges)}
    sets = []
    for j in range(1, g.num_vertices + 1):
        sets.append(tuple(edge_id[e] for e in g.edges if j in e))
    fam = SetFamily(len(g.edges), tuple(sets))
    return Problem("set_covering", fam, param=l)


def lift_node_cover_to_set_covering(source, cert):
    return Certificate("vertex_set", tuple(cert.value))


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
    _require_kind(problem, "set_covering", "set_covering_to_ip")
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
    return _ip_problem(_program(variables, rows))


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
    _require_kind(problem, "feedback_arc_set", "fas_to_fns")
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


def lift_fas_to_fns(source, cert):
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
    return Certificate("arc_set", tuple(sorted(chosen)))


# ---------------------------------------------------------------------------
# Directed HCP -> Undirected HCP
# ---------------------------------------------------------------------------


def reduce_dhcp_to_hcp(problem):
    """Each vertex i becomes the 3-path 3i-2 -- 3i-1 -- 3i; arc (i,j)
    becomes the edge {3i, 3j-2}."""
    _require_kind(problem, "dhcp", "dhcp_to_hcp")
    g = problem.payload
    edges = []
    for i in range(1, g.num_vertices + 1):
        edges.append((3 * i - 2, 3 * i - 1))
        edges.append((3 * i - 1, 3 * i))
    for (i, j) in g.arcs:
        a, b = 3 * i, 3 * j - 2
        edges.append((min(a, b), max(a, b)))
    return Problem("hcp", UGraph(3 * g.num_vertices, tuple(edges)))


def lift_dhcp_to_hcp(source, cert):
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
                return Certificate("cycle", tuple(seq))
    from .instances import InvalidCertificateError

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
    _require_kind(problem, "threesat", "threesat_to_ip")
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
    return _ip_problem(_program(variables, rows))


def lift_threesat_to_ip(source, cert):
    m = source.payload.num_literals
    return Certificate("assignment", tuple(bool(x) for x in cert.value[:m]))


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
    _require_kind(problem, "exact_cover", "exact_cover_to_ip")
    fam = problem.payload
    variables = [VariableTag(("set", i)) for i in range(1, fam.num_sets + 1)]
    member = {}
    for i, s in enumerate(fam.sets):
        for j in s:
            member.setdefault(j, []).append(i)
    rows = [_row([(i, 1) for i in member[j]], EQ, 1) for j in sorted(member)]
    return _ip_problem(_program(variables, rows))


def counts_exact_cover(source, target):
    total = sum(len(s) for s in source.payload.sets)
    return [("nonzeros = sum|S_i|", total, _ip_nonzeros(target.payload))]


# ---------------------------------------------------------------------------
# Hitting Set -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_hitting_set_to_ip(problem):
    _require_kind(problem, "hitting_set", "hitting_set_to_ip")
    fam = problem.payload
    variables = [VariableTag(("element", j)) for j in range(1, fam.universe_size + 1)]
    rows = [_row([(j - 1, 1) for j in s], EQ, 1) for s in fam.sets]
    return _ip_problem(_program(variables, rows))


def lift_hitting_set_to_ip(source, cert):
    chosen = [j + 1 for j, val in enumerate(cert.value) if val]
    return Certificate("element_set", tuple(chosen))


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
    _require_kind(problem, "steiner_tree", "steiner_tree_to_ip")
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
    return _ip_problem(_program(variables, rows))


def lift_steiner_tree_to_ip(source, cert):
    target = reduce_steiner_tree_to_ip(source).payload
    edges = set()
    root = None
    for tag, val in zip(target.variables, cert.value):
        if not val:
            continue
        if tag.origin[0] == "arc":
            _, i, j = tag.origin
            edges.add((min(i, j), max(i, j)))
        elif tag.origin[0] == "root":
            root = tag.origin[1]
    return Certificate("tree", {"edges": tuple(sorted(edges)), "root": root})


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
    _require_kind(problem, "three_dim_matching", "three_dim_matching_to_ip")
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
    return _ip_problem(_program(variables, rows))


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
    _require_kind(problem, "knapsack", "knapsack_to_ip")
    ks = problem.payload
    variables = [VariableTag(("item", i)) for i in range(1, len(ks.values) + 1)]
    terms = [(i, a) for i, a in enumerate(ks.values)]
    return _ip_problem(_program(variables, [_row(terms, EQ, ks.target)]))


def counts_knapsack(source, target):
    prog = target.payload
    return [
        ("nonzeros = r", len(source.payload.values), _ip_nonzeros(prog)),
        ("rhs entries = 1", 1, len(prog.rows)),
    ]


def reduce_partition_to_knapsack(problem):
    """Target b = half the total; an odd total gets the unreachable target
    total+1 so both sides stay NO."""
    _require_kind(problem, "partition", "partition_to_knapsack")
    values = problem.payload.values
    total = sum(values)
    b = total // 2 if total % 2 == 0 else total + 1
    return Problem("knapsack", IntegerList(values, b))


def lift_partition_to_knapsack(source, cert):
    return Certificate("item_indices", tuple(cert.value))


# ---------------------------------------------------------------------------
# Max Cut -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_max_cut_to_ip(problem):
    """Inverted convention: x_i = 0 selects vertex i, y_ij = 0 counts the
    edge; the budget row bounds the weight of uncut edges by TW - W."""
    _require_kind(problem, "max_cut", "max_cut_to_ip")
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
    return _ip_problem(_program(variables, rows))


def lift_max_cut_to_ip(source, cert):
    target = reduce_max_cut_to_ip(source).payload
    chosen = [
        tag.origin[1]
        for tag, val in zip(target.variables, cert.value)
        if tag.origin[0] == "vertex" and not val
    ]
    return Certificate("vertex_set", tuple(chosen))


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
    _require_kind(problem, "chromatic_number", "chromatic_to_clique_cover")
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


def lift_chromatic_to_clique_cover(source, cert):
    colors = [0] * source.payload.num_vertices
    for color, block in enumerate(cert.value, start=1):
        for vertex in block:
            colors[vertex - 1] = color
    return Certificate("coloring", tuple(colors))


# ---------------------------------------------------------------------------
# registry, chains, kernel routing
# ---------------------------------------------------------------------------


def _spec(name, src, dst, transform, lift, claim, counts=None):
    return ReductionSpec(name, src, dst, transform, lift, claim, counts)


REDUCTIONS = {
    spec.name: spec
    for spec in (
        _spec("sat_to_3sat", "sat", "threesat", reduce_sat_to_3sat,
              lift_sat_to_3sat, (3.0, 0.0)),
        _spec("clique_to_ip", "clique", "ip01", reduce_clique_to_ip,
              lift_clique_to_ip, (12.0, 3.0), counts_clique_to_ip),
        _spec("set_packing_to_ip", "set_packing", "ip01", reduce_set_packing_to_ip,
              _lift_selected_sets("set_indices"), (3.0, 1.0), counts_family_to_ip),
        _spec("node_cover_to_set_covering", "node_cover", "set_covering",
              reduce_node_cover_to_set_covering, lift_node_cover_to_set_covering,
              (2.0, 1.0), counts_node_cover),
        _spec("set_covering_to_ip", "set_covering", "ip01", reduce_set_covering_to_ip,
              _lift_selected_sets("set_indices"), (3.0, 1.0), counts_family_to_ip),
        _spec("fas_to_fns", "feedback_arc_set", "feedback_node_set",
              reduce_fas_to_fns, lift_fas_to_fns, (12.0, 1.0)),
        _spec("dhcp_to_hcp", "dhcp", "hcp", reduce_dhcp_to_hcp, lift_dhcp_to_hcp,
              (3.0, 0.0), counts_dhcp_to_hcp),
        _spec("threesat_to_ip", "threesat", "ip01", reduce_threesat_to_ip,
              lift_threesat_to_ip, (4.0 / 3.0, 0.0), counts_threesat_to_ip),
        _spec("exact_cover_to_ip", "exact_cover", "ip01", reduce_exact_cover_to_ip,
              _lift_selected_sets("set_indices"), (2.0, 0.0), counts_exact_cover),
        _spec("hitting_set_to_ip", "hitting_set", "ip01", reduce_hitting_set_to_ip,
              lift_hitting_set_to_ip, (2.0, 0.0), counts_hitting_set),
        _spec("steiner_tree_to_ip", "steiner_tree", "ip01", reduce_steiner_tree_to_ip,
              lift_steiner_tree_to_ip, (9.0, 8.0), counts_steiner_tree),
        _spec("three_dim_matching_to_ip", "three_dim_matching", "ip01",
              reduce_three_dim_matching_to_ip, _lift_selected_sets("triple_indices"),
              (2.0, 0.0), counts_three_dim_matching),
        _spec("knapsack_to_ip", "knapsack", "ip01", reduce_knapsack_to_ip,
              _lift_selected_sets("item_indices"), (1.0, 0.0), counts_knapsack),
        _spec("partition_to_knapsack", "partition", "knapsack",
              reduce_partition_to_knapsack, lift_partition_to_knapsack, (1.0, 1.0)),
        _spec("max_cut_to_ip", "max_cut", "ip01", reduce_max_cut_to_ip,
              lift_max_cut_to_ip, (9.0, 1.0), counts_max_cut),
        _spec("chromatic_to_clique_cover", "chromatic_number", "clique_cover",
              lambda p: reduce_chromatic_to_clique_cover(p, "dense"),
              lift_chromatic_to_clique_cover, (1.0, 1.0)),
        _spec("chromatic_to_clique_cover_compressed", "chromatic_number",
              "clique_cover",
              lambda p: reduce_chromatic_to_clique_cover(p, "compressed"),
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
    """Replay a chain's lifts right to left, back to a source certificate."""
    stages = apply_chain(chain, problem)
    for step, stage in zip(reversed(chain.steps), reversed(stages[:-1])):
        cert = step.lift(stage, cert)
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
    from .instances import KINDS, UnsupportedKindError

    if kind not in KINDS:
        raise UnsupportedKindError("unknown kind %r" % kind)
    if kind in KERNEL_KINDS:
        return ReductionChain(())
    return chain_from_names(_ROUTES[kind])
