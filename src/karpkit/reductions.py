"""The sixteen linearly-growing reductions between Karp problems.

Each reduction is a transform/lift pair: the transform maps a source
instance to a target instance with the same YES/NO answer, and the lift
maps any accepted target certificate back to a source certificate.  A
transform is called as `transform(payload, param)` and returns the image's
`(payload, param)`, its param None where the target kind has none.  Its
`ReductionSpec` is the one place that names the source and target kinds:
`ReductionSpec.apply` checks the source kind and makes the image under the
target kind, so no transform builds a `Problem`.  Every
reduction declares an exact affine growth claim (ints, or a Fraction) on
element-mode input sizes and, where known, exact nonzero/RHS counts of its
output, each built by `_count` so that its label renders the formula it checks.

A lift is called as `lift(source, target, cert)`, where `target` is the
instance the transform made from `source` (`lift_chain` hands each step the
pair from its one `apply_chain` call), so a lift reads the target and never
runs the transform again.  It builds its certificate with
`instances.certificate`, which takes the certificate kind from the source's
`KINDS` entry, so no lift names a certificate kind.  A reduction onto ip01
tags its variables `(tag, index, ...)`, and a lift that only picks
variables is `_tagged(tag)`.

Reductions onto 0-1 integer programming emit inequality rows with their
analytically-derived slack bounds so that `to_equality_form` can finish
the job in O(1) extra size per constant-bounded row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional

from .instances import (
    KINDS,
    CnfFormula,
    DiGraph,
    IntegerList,
    InvalidCertificateError,
    Problem,
    SetFamily,
    UGraph,
    UnsupportedKindError,
    _check_certificate,
    certificate,
)
from .binprog import EQ, GE, LE, BinaryProgram, ConstraintRow

KERNEL_KINDS = frozenset(
    ("ip01", "feedback_node_set", "hcp", "chromatic_number", "clique_cover",
     "job_sequencing")
)


@dataclass(frozen=True)
class ReductionSpec:
    name: str
    source_kind: str
    target_kind: str
    transform: Callable  # (payload, param) -> the image's (payload, param)
    lift: Callable  # (source, target, cert) -> source certificate
    growth_claim: tuple  # exact (alpha, beta), ints or Fractions, on element-mode sizes
    count_checks: Optional[Callable] = None  # (source, target) -> [(label, want, got)]

    def apply(self, problem):
        if problem.kind != self.source_kind:
            raise TypeError(
                "%s expects kind %r, got %r" % (self.name, self.source_kind, problem.kind)
            )
        return Problem(self.target_kind, *self.transform(problem.payload, problem.param))


def _tagged(tag, picked=1):
    """Lift from ip01: the index of each variable tagged `tag` and set to
    `picked`, in variable order."""
    def lift(source, target, cert):
        return certificate(source, tuple([
            var[1]
            for var, x in zip(target.payload.variables, cert.value)
            if var[0] == tag and x == picked
        ]))
    return lift


def lift_same(source, target, cert):
    """The target witness is the source witness under the source's certificate kind."""
    return certificate(source, tuple(cert.value))


def lift_assignment(source, target, cert):
    """The source's variables come first in the target, in order: keep their
    values, as booleans."""
    m = source.payload.num_literals
    return certificate(source, tuple([*map(bool, cert.value[:m])]))


def _holders(items):
    """key -> the 0-based indices of the items holding it, in item order."""
    holders = {}
    for i, keys in enumerate(items):
        for key in keys:
            holders.setdefault(key, []).append(i)
    return holders


def _program(variables, rows):
    """An ip01 image: the checked program, and no parameter."""
    return BinaryProgram(tuple(variables), tuple(rows)).validate(), None


def _ip_nonzeros(program):
    return sum(len(r.terms) for r in program.rows)


def _count(quantity, got, *terms):
    """One count check `(label, want, got)`, the label rendering the terms
    the want sums.  A term is `(coefficient, symbol, value)`: symbol "" is a
    constant (value 1), and coefficient 1 shows as the bare symbol."""
    label = " + ".join(s if c == 1 and s else "%d%s" % (c, s) for c, s, _ in terms)
    return "%s = %s" % (quantity, label), sum(c * v for c, _, v in terms), got


# ---------------------------------------------------------------------------
# SAT -> 3-SAT
# ---------------------------------------------------------------------------


def reduce_sat_to_3sat(f, _):
    """Split every clause of size k > 3 into a chain of k-2 clauses linked
    by k-3 fresh variables; shorter clauses are copied verbatim."""
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
    return CnfFormula(next_var, tuple(clauses)), None


# ---------------------------------------------------------------------------
# Clique -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_clique_to_ip(g, k):
    """Edge variables x_ij, vertex variables v_i; per-edge linking rows plus
    exactly-k vertices and exactly C(k,2) chosen edges."""
    n, e = g.num_vertices, len(g.edges)
    variables = [("edge", i, j) for i, j in g.edges]
    variables += [("vertex", i) for i in range(1, n + 1)]
    v = range(e - 1, e + n)  # v[i]: vertex i's variable; edge x's is its index
    rows = []
    for x, (i, j) in enumerate(g.edges):
        rows += (ConstraintRow(((x, 1), (v[i], -1), (v[j], -1)), GE, -1, 1),
                 ConstraintRow(((x, 1), (v[i], -1)), LE, 0, 1),
                 ConstraintRow(((x, 1), (v[j], -1)), LE, 0, 1))
    rows.append(ConstraintRow(tuple([(v[i], 1) for i in range(1, n + 1)]), EQ, k))
    rows.append(ConstraintRow(tuple([(x, 1) for x in range(e)]), EQ, comb(k, 2)))
    return _program(variables, rows)


def counts_clique_to_ip(source, target):
    g, prog = source.payload, target.payload
    n, e = g.num_vertices, len(g.edges)
    return [
        _count("nonzeros", _ip_nonzeros(prog), (1, "N", n), (8, "e", e)),
        _count("rhs entries", len(prog.rows), (3, "e", e), (2, "", 1)),
    ]


# ---------------------------------------------------------------------------
# Set Packing -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_set_packing_to_ip(fam, l):
    variables = [("set", i) for i in range(1, fam.num_sets + 1)]
    member = _holders(fam.sets)
    rows = [
        ConstraintRow(tuple([(i, 1) for i in member.get(j, ())]), LE, 1, 1)
        for j in range(1, fam.universe_size + 1)
    ]
    rows.append(ConstraintRow(tuple([(i, 1) for i in range(fam.num_sets)]), EQ, l))
    return _program(variables, rows)


def counts_family_to_ip(source, target):
    fam = source.payload
    total = sum(len(s) for s in fam.sets)
    return [_count("nonzeros", _ip_nonzeros(target.payload),
                   (1, "sum|S_i|", total), (1, "s", fam.num_sets))]


# ---------------------------------------------------------------------------
# Node Cover -> Set Covering
# ---------------------------------------------------------------------------


def reduce_node_cover_to_set_covering(g, l):
    """Universe = edges; set j holds the edges incident with vertex j; k = l."""
    incident = _holders(g.edges)
    sets = [tuple([e + 1 for e in incident.get(j, ())]) for j in range(1, g.num_vertices + 1)]
    return SetFamily(len(g.edges), tuple(sets)), l


def counts_node_cover(source, target):
    e = len(source.payload.edges)
    total = sum(len(s) for s in target.payload.sets)
    return [_count("total set entries", total, (2, "e", e))]


# ---------------------------------------------------------------------------
# Set Covering -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_set_covering_to_ip(fam, k):
    """Coverage rows are indexed over the union of the family (an element no
    set contains imposes no requirement), plus an exactly-k row."""
    variables = [("set", i) for i in range(1, fam.num_sets + 1)]
    member = _holders(fam.sets)
    rows = [
        ConstraintRow(tuple([(i, 1) for i in member[j]]), GE, 1, len(member[j]) - 1)
        for j in sorted(member)
    ]
    rows.append(ConstraintRow(tuple([(i, 1) for i in range(fam.num_sets)]), EQ, k))
    return _program(variables, rows)


# ---------------------------------------------------------------------------
# Feedback Arc Set -> Feedback Node Set
# ---------------------------------------------------------------------------


def _fas_gadget_arcs(g):
    """Arcs (tail slot, head slot) of the expanded graph G': vertex i becomes
    a forward path through one slot per incident arc, in-arc slots first,
    each in arc-list order, slots numbered from 1 vertex by vertex.  All path
    arcs come first, vertex by vertex, then one arc per source arc, in order."""
    n = g.num_vertices
    indeg, outdeg = [0] * (n + 1), [0] * (n + 1)
    for u, v in g.arcs:
        outdeg[u] += 1
        indeg[v] += 1
    arcs = []
    last_in, last_out = [0] * (n + 1), [0] * (n + 1)  # each vertex's last slot used
    slot = 0
    for i in range(1, n + 1):
        last_in[i], last_out[i] = slot, slot + indeg[i]
        slot += indeg[i] + outdeg[i]
        arcs += [(s, s + 1) for s in range(last_in[i] + 1, slot)]
    for u, v in g.arcs:
        last_out[u] += 1
        last_in[v] += 1
        arcs.append((last_out[u], last_in[v]))
    return arcs


def reduce_fas_to_fns(g, k):
    """Sparsify via per-vertex path gadgets, then take the directed line
    graph; feedback node sets there play the role of feedback arc sets."""
    arcs = _fas_gadget_arcs(g)
    heads = {}
    for node, (tail, head) in enumerate(arcs, start=1):
        heads.setdefault(tail, []).append(node)
    line_arcs = []
    for node, (tail, head) in enumerate(arcs, start=1):
        for succ in heads.get(head, ()):
            line_arcs.append((node, succ))
    return DiGraph(len(arcs), tuple(line_arcs)), k


def lift_fas_to_fns(source, target, cert):
    """Map chosen line-graph nodes back to arcs of the source graph: a node
    past the path arcs is its original arc, and a path arc of vertex i maps
    to i's first in-arc, or failing that its first out-arc."""
    g = source.payload
    deg = [0] * (g.num_vertices + 1)
    first = {}  # vertex -> the arc its path arcs lift to
    for u, v in g.arcs:
        deg[u] += 1
        deg[v] += 1
        first.setdefault(v, (u, v))
    for u, v in g.arcs:
        first.setdefault(u, (u, v))
    owner = [i for i, d in enumerate(deg) for _ in range(d - 1)]  # of each path arc
    p = len(owner)
    chosen = {first[owner[node - 1]] if node <= p else g.arcs[node - p - 1]
              for node in cert.value}
    return certificate(source, tuple(sorted(chosen)))


# ---------------------------------------------------------------------------
# Directed HCP -> Undirected HCP
# ---------------------------------------------------------------------------


def reduce_dhcp_to_hcp(g, _):
    """Each vertex i becomes the 3-path 3i-2 -- 3i-1 -- 3i; arc (i,j)
    becomes the edge {3i, 3j-2}.  A self-loop is on no cycle through two or
    more vertices and gets no edge, which would close gadget i's triangle."""
    edges = []
    for i in range(1, g.num_vertices + 1):
        edges.append((3 * i - 2, 3 * i - 1))
        edges.append((3 * i - 1, 3 * i))
    edges += [(min(3 * i, 3 * j - 2), max(3 * i, 3 * j - 2)) for i, j in g.arcs if i != j]
    return UGraph(3 * g.num_vertices, tuple(edges)), None


def lift_dhcp_to_hcp(source, target, cert):
    """Contract each 1-2-3 gadget traversal back to its source vertex.  If a
    rotation of a cycle through every vertex once traverses the gadgets in
    order, every vertex 3i-2 sits at one phase, so only the rotation from
    the first of them needs checking."""
    order = list(cert.value)
    for direction in (order, order[::-1]):
        t = next((t for t, x in enumerate(direction) if x % 3 == 1), None)
        if t is None:
            continue
        rotated = direction[t:] + direction[:t]
        seq = []
        for pos in range(0, len(order), 3):
            a, b, c = rotated[pos : pos + 3]
            if b != a + 1 or c != a + 2:
                break
            seq.append((a + 2) // 3)
        else:
            return certificate(source, tuple(seq))
    raise InvalidCertificateError("cycle does not traverse gadgets in order")


def counts_dhcp_to_hcp(source, target):
    g = source.payload
    e = sum(1 for i, j in g.arcs if i != j)  # the arcs that are not self-loops
    return [_count("edges", len(target.payload.edges), (1, "e", e), (2, "N", g.num_vertices))]


# ---------------------------------------------------------------------------
# 3-SAT -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_threesat_to_ip(f, _):
    """One >= row per clause: signed literal coefficients against 1 minus the
    number of complemented literals.  Repeated occurrences of a variable in
    one clause sum their signs (cancellation drops the term)."""
    variables = [("literal", j) for j in range(1, f.num_literals + 1)]
    rows = []
    for clause in f.clauses:
        w = {}
        d = 0
        for lit in clause:
            w[abs(lit)] = w.get(abs(lit), 0) + (1 if lit > 0 else -1)
            if lit < 0:
                d += 1
        terms = tuple([(j - 1, c) for j, c in sorted(w.items()) if c != 0])
        rhs = 1 - d
        gap = sum(max(c, 0) for _, c in terms) - rhs
        rows.append(ConstraintRow(terms, GE, rhs, gap))
    return _program(variables, rows)


def counts_threesat_to_ip(source, target):
    n, prog = len(source.payload.clauses), target.payload
    return [
        _count("nonzeros", _ip_nonzeros(prog), (3, "n", n)),
        _count("rhs entries", len(prog.rows), (1, "n", n)),
    ]


# ---------------------------------------------------------------------------
# Exact Cover -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_exact_cover_to_ip(fam, _):
    variables = [("set", i) for i in range(1, fam.num_sets + 1)]
    member = _holders(fam.sets)
    rows = [ConstraintRow(tuple([(i, 1) for i in member[j]]), EQ, 1) for j in sorted(member)]
    return _program(variables, rows)


def counts_exact_cover(source, target):
    total = sum(len(s) for s in source.payload.sets)
    return [_count("nonzeros", _ip_nonzeros(target.payload), (1, "sum|S_i|", total))]


# ---------------------------------------------------------------------------
# Hitting Set -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_hitting_set_to_ip(fam, _):
    variables = [("element", j) for j in range(1, fam.universe_size + 1)]
    rows = [ConstraintRow(tuple([(j - 1, 1) for j in s]), EQ, 1) for s in fam.sets]
    return _program(variables, rows)


def counts_hitting_set(source, target):
    fam, prog = source.payload, target.payload
    total = sum(len(s) for s in fam.sets)
    return [
        _count("nonzeros", _ip_nonzeros(prog), (1, "sum|S_i|", total)),
        _count("rhs entries", len(prog.rows), (1, "s", fam.num_sets)),
    ]


# ---------------------------------------------------------------------------
# Steiner Tree -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_steiner_tree_to_ip(st, _):
    """Oriented edge variables with root/membership indicators.

    The weight-budget row is dropped when the budget covers the total edge
    weight (it is then satisfied automatically).
    """
    g = st.graph
    n, e = g.num_vertices, len(g.edges)
    terminals = set(st.terminals)
    # edge a = (i, j), i < j, gives arc (i, j) variable 2a and arc (j, i) 2a + 1
    variables = []
    for i, j in g.edges:
        variables += (("arc", i, j), ("arc", j, i))
    variables += [("member", j) for j in range(1, n + 1)]
    variables += [("root", j) for j in range(1, n + 1)]
    y = range(2 * e - 1, 2 * e + n)  # y[j]: member j's variable
    z = range(2 * e + n - 1, 2 * e + 2 * n)  # z[j]: root j's variable

    into = {j: [] for j in range(1, n + 1)}  # vertex -> its in-arc variables
    for a, (i, j) in enumerate(g.edges):
        into[j].append(2 * a)
        into[i].append(2 * a + 1)

    rows = [ConstraintRow(tuple([(z[j], 1) for j in range(1, n + 1)]), EQ, 1)]
    for j in range(1, n + 1):
        if j in terminals:
            rows.append(ConstraintRow(((y[j], 1), (z[j], 1)), EQ, 1))
        else:
            rows.append(ConstraintRow(((y[j], 1), (z[j], 1)), LE, 1, 1))
    for j in range(1, n + 1):
        rows.append(ConstraintRow(((y[j], 1),) + tuple([(x, -1) for x in into[j]]), EQ, 0))
    for a, (i, j) in enumerate(g.edges):
        rows.append(ConstraintRow(((2 * a, 1), (y[i], -1), (z[i], -1)), LE, 0, 1))
    for a, (i, j) in enumerate(g.edges):
        rows.append(ConstraintRow(((2 * a, 1), (z[j], 1)), LE, 1, 1))
    total_weight = sum(g.weights) if g.weights else 0
    if st.budget < total_weight:
        terms = []
        for a, w in enumerate(g.weights):
            if w != 0:
                terms += ((2 * a, w), (2 * a + 1, w))
        rows.append(ConstraintRow(tuple(terms), LE, st.budget, min(st.budget, total_weight)))
    return _program(variables, rows)


def lift_steiner_tree_to_ip(source, target, cert):
    edges = set()
    root = None
    for var, val in zip(target.payload.variables, cert.value):
        if not val:
            continue
        if var[0] == "arc":
            _, i, j = var
            edges.add((min(i, j), max(i, j)))
        elif var[0] == "root":
            root = var[1]
    return certificate(source, {"edges": tuple(sorted(edges)), "root": root})


def counts_steiner_tree(source, target):
    g = source.payload.graph
    # b: the weighted edges, each with two terms in the budget row if written
    b = sum(1 for w in g.weights if w != 0) if source.payload.budget < sum(g.weights) else 0
    return [_count("nonzeros", _ip_nonzeros(target.payload),
                   (4, "N", g.num_vertices), (7, "e", len(g.edges)), (2, "b", b))]


# ---------------------------------------------------------------------------
# 3-Dimensional Matching -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_three_dim_matching_to_ip(tf, _):
    """One equality row per (ground element, coordinate) pair."""
    variables = [("triple", i) for i in range(1, len(tf.triples) + 1)]
    occur = _holders(zip(t, (1, 2, 3)) for t in tf.triples)
    rows = [
        ConstraintRow(tuple([(i, 1) for i in occur.get((j, k), ())]), EQ, 1)
        for j in range(1, tf.t_size + 1)
        for k in (1, 2, 3)
    ]
    return _program(variables, rows)


def counts_three_dim_matching(source, target):
    tf, prog = source.payload, target.payload
    return [
        _count("nonzeros", _ip_nonzeros(prog), (3, "|U|", len(tf.triples))),
        _count("rhs entries", len(prog.rows), (3, "|T|", tf.t_size)),
    ]


# ---------------------------------------------------------------------------
# Knapsack -> 0-1 IP, Partition -> Knapsack
# ---------------------------------------------------------------------------


def reduce_knapsack_to_ip(ks, _):
    variables = [("item", i) for i in range(1, len(ks.values) + 1)]
    terms = tuple([*enumerate(ks.values)])
    return _program(variables, [ConstraintRow(terms, EQ, ks.target)])


def counts_knapsack(source, target):
    prog = target.payload
    return [
        _count("nonzeros", _ip_nonzeros(prog), (1, "r", len(source.payload.values))),
        _count("rhs entries", len(prog.rows), (1, "", 1)),
    ]


def reduce_partition_to_knapsack(items, _):
    """Target b = half the total; an odd total gets the unreachable target
    total+1 so both sides stay NO."""
    total = sum(items.values)
    b = total // 2 if total % 2 == 0 else total + 1
    return IntegerList(items.values, b), None


# ---------------------------------------------------------------------------
# Max Cut -> 0-1 IP
# ---------------------------------------------------------------------------


def reduce_max_cut_to_ip(g, w_target):
    """Inverted convention: x_i = 0 selects vertex i, y_ij = 0 counts the
    edge; the budget row bounds the weight of uncut edges by TW - W."""
    n = g.num_vertices
    # vertex i's variable is i - 1, and the edges' variables follow in edge order
    variables = [("vertex", i) for i in range(1, n + 1)]
    variables += [("edge", i, j) for i, j in g.edges]
    rows = []
    for y, (i, j) in enumerate(g.edges, start=n):
        xi, xj = i - 1, j - 1
        rows += (ConstraintRow(((y, 1), (xi, -1), (xj, 1)), LE, 1, 2),
                 ConstraintRow(((y, 1), (xj, -1), (xi, 1)), LE, 1, 2),
                 ConstraintRow(((y, 1), (xi, 1), (xj, 1)), GE, 1, 2),
                 ConstraintRow(((y, 1), (xi, -1), (xj, -1)), GE, -1, 2))
    tw = sum(g.weights)
    terms = tuple([(y, w) for y, w in enumerate(g.weights, start=n) if w != 0])
    rows.append(ConstraintRow(terms, LE, tw - w_target, max(tw - w_target, 0)))
    return _program(variables, rows)


def counts_max_cut(source, target):
    g, prog = source.payload, target.payload
    e, w = len(g.edges), sum(1 for weight in g.weights if weight != 0)
    return [
        _count("nonzeros", _ip_nonzeros(prog), (12, "e", e), (1, "w", w)),
        _count("rhs entries", len(prog.rows), (4, "e", e), (1, "", 1)),
    ]


# ---------------------------------------------------------------------------
# Chromatic Number -> Clique Cover
# ---------------------------------------------------------------------------


def _reduce_chromatic_compressed(g, k):
    """Complement the graph by storing it with the complement flag set;
    colour classes become cliques."""
    return UGraph(g.num_vertices, g.edges, complement=True), k


def reduce_chromatic_to_clique_cover(g, k):
    """The compressed image with every complement edge materialised."""
    h, k = _reduce_chromatic_compressed(g, k)
    return UGraph(h.num_vertices, h.effective_edges()), k


def lift_chromatic_to_clique_cover(source, target, cert):
    colors = [0] * source.payload.num_vertices
    for color, block in enumerate(cert.value, start=1):
        for vertex in block:
            colors[vertex - 1] = color
    return certificate(source, tuple(colors))


# ---------------------------------------------------------------------------
# registry, chains, kernel routing
# ---------------------------------------------------------------------------


REDUCTIONS = {
    spec.name: spec
    for spec in (
        ReductionSpec("sat_to_3sat", "sat", "threesat", reduce_sat_to_3sat,
                      lift_assignment, (3, 0)),
        ReductionSpec("clique_to_ip", "clique", "ip01", reduce_clique_to_ip,
                      _tagged("vertex"), (12, 3), counts_clique_to_ip),
        ReductionSpec("set_packing_to_ip", "set_packing", "ip01", reduce_set_packing_to_ip,
                      _tagged("set"), (3, 1), counts_family_to_ip),
        ReductionSpec("node_cover_to_set_covering", "node_cover", "set_covering",
                      reduce_node_cover_to_set_covering, lift_same, (2, 1),
                      counts_node_cover),
        ReductionSpec("set_covering_to_ip", "set_covering", "ip01", reduce_set_covering_to_ip,
                      _tagged("set"), (3, 1), counts_family_to_ip),
        ReductionSpec("fas_to_fns", "feedback_arc_set", "feedback_node_set",
                      reduce_fas_to_fns, lift_fas_to_fns, (12, 1)),
        ReductionSpec("dhcp_to_hcp", "dhcp", "hcp", reduce_dhcp_to_hcp, lift_dhcp_to_hcp,
                      (3, 0), counts_dhcp_to_hcp),
        ReductionSpec("threesat_to_ip", "threesat", "ip01", reduce_threesat_to_ip,
                      lift_assignment, (Fraction(4, 3), 0), counts_threesat_to_ip),
        ReductionSpec("exact_cover_to_ip", "exact_cover", "ip01", reduce_exact_cover_to_ip,
                      _tagged("set"), (2, 0), counts_exact_cover),
        ReductionSpec("hitting_set_to_ip", "hitting_set", "ip01", reduce_hitting_set_to_ip,
                      _tagged("element"), (2, 0), counts_hitting_set),
        ReductionSpec("steiner_tree_to_ip", "steiner_tree", "ip01", reduce_steiner_tree_to_ip,
                      lift_steiner_tree_to_ip, (9, 8), counts_steiner_tree),
        ReductionSpec("three_dim_matching_to_ip", "three_dim_matching", "ip01",
                      reduce_three_dim_matching_to_ip, _tagged("triple"), (2, 0),
                      counts_three_dim_matching),
        ReductionSpec("knapsack_to_ip", "knapsack", "ip01", reduce_knapsack_to_ip,
                      _tagged("item"), (1, 0), counts_knapsack),
        ReductionSpec("partition_to_knapsack", "partition", "knapsack",
                      reduce_partition_to_knapsack, lift_same, (1, 1)),
        ReductionSpec("max_cut_to_ip", "max_cut", "ip01", reduce_max_cut_to_ip,
                      _tagged("vertex", picked=0), (9, 1), counts_max_cut),
        ReductionSpec("chromatic_to_clique_cover", "chromatic_number", "clique_cover",
                      reduce_chromatic_to_clique_cover, lift_chromatic_to_clique_cover,
                      (1, 1)),
        ReductionSpec("chromatic_to_clique_cover_compressed", "chromatic_number",
                      "clique_cover", _reduce_chromatic_compressed,
                      lift_chromatic_to_clique_cover, (1, 1)),
    )
}

# the sixteen canonical reduction ids (compressed clique-cover is a variant)
CANONICAL_REDUCTIONS = tuple([
    name for name in REDUCTIONS if name != "chromatic_to_clique_cover_compressed"
])


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
        return tuple([s.name for s in self.steps])

    def growth_claim(self):
        """Composition of the per-step affine bounds."""
        alpha, beta = 1, 0
        for step in self.steps:
            a, b = step.growth_claim
            alpha, beta = a * alpha, a * beta + b
        return alpha, beta


def chain_from_names(names):
    """The chain of the named reductions, refusing an unknown id."""
    for name in names:
        if name not in REDUCTIONS:
            raise ValueError("unknown reduction %r" % name)
    return ReductionChain(tuple([REDUCTIONS[n] for n in names]))


def apply_chain(chain, problem):
    """Apply a chain and keep every intermediate instance (for lifting)."""
    stages = [problem]
    for step in chain.steps:
        stages.append(step.apply(stages[-1]))
    return stages


def lift_chain(chain, problem, cert):
    """Replay a chain's lifts right to left, back to a source certificate,
    once the certificate's kind and shape fit the chain's image."""
    return _lift_stages(chain, apply_chain(chain, problem), cert)


def _lift_stages(chain, stages, cert):
    """`lift_chain` over the stages `apply_chain` gave: step i lifts from
    stages[i + 1] to stages[i]."""
    _check_certificate(stages[-1], cert)
    for i in reversed(range(len(chain.steps))):
        cert = chain.steps[i].lift(stages[i], stages[i + 1], cert)
    return cert


# kind -> its one canonical reduction; a kind's route follows these
_CANONICAL_FROM = {REDUCTIONS[name].source_kind: REDUCTIONS[name]
                   for name in CANONICAL_REDUCTIONS}


def route_to_kernel(kind):
    """Chain taking any of the 21 problem kinds to a kernel kind, along each
    kind's one canonical reduction."""
    if kind not in KINDS:
        raise UnsupportedKindError("unknown kind %r" % kind)
    steps = []
    while kind not in KERNEL_KINDS:
        steps.append(_CANONICAL_FROM[kind])
        kind = steps[-1].target_kind
    return ReductionChain(tuple(steps))
