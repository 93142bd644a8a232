"""Canonical in-memory representations of Karp's 21 decision problems.

Each problem instance is a `Problem` carrying a kind tag and a payload
(graph, set family, CNF formula, ...).  This module owns validity checks,
certificate verification, and the per-kind input-size measures used by the
growth auditor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter
from typing import Optional

KINDS = (
    "sat",
    "ip01",
    "clique",
    "set_packing",
    "node_cover",
    "set_covering",
    "feedback_node_set",
    "feedback_arc_set",
    "dhcp",
    "hcp",
    "threesat",
    "chromatic_number",
    "clique_cover",
    "exact_cover",
    "hitting_set",
    "steiner_tree",
    "three_dim_matching",
    "knapsack",
    "job_sequencing",
    "partition",
    "max_cut",
)

# Kinds whose payload carries an extra scalar parameter (k, l or W).
PARAM_KINDS = {
    "clique",
    "set_packing",
    "node_cover",
    "set_covering",
    "feedback_node_set",
    "feedback_arc_set",
    "chromatic_number",
    "clique_cover",
    "max_cut",
}


class UnsupportedKindError(ValueError):
    """Raised for kinds with no defined payload (job_sequencing) or unknown tags."""


class InvalidInstanceError(ValueError):
    """Raised when a payload violates its structural invariants."""


class InvalidCertificateError(ValueError):
    """Raised when a certificate is malformed for the instance it claims to witness."""


# ---------------------------------------------------------------------------
# payload carriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """CNF formula over literals 1..num_literals; clauses hold signed indices."""

    num_literals: int
    clauses: tuple

    @staticmethod
    def make(num_literals, clauses):
        return CnfFormula(num_literals, tuple(tuple(c) for c in clauses))


@dataclass(frozen=True)
class UGraph:
    """Undirected graph on vertices 1..num_vertices.

    If `complement` is True the stored edge list describes the complement of
    the actual graph (compressed clique-cover representation); use
    `effective_edges` for the semantic edge set.
    """

    num_vertices: int
    edges: tuple
    weights: Optional[tuple] = None
    complement: bool = False

    @staticmethod
    def make(num_vertices, edges, weights=None, complement=False):
        return UGraph(
            num_vertices,
            tuple((min(i, j), max(i, j)) for i, j in edges),
            None if weights is None else tuple(weights),
            complement,
        )

    def effective_edges(self):
        if not self.complement:
            return self.edges
        stored = set(self.edges)
        n = self.num_vertices
        return tuple(
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if (i, j) not in stored
        )

    def weight_of(self):
        return dict(zip(self.edges, self.weights))


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on vertices 1..num_vertices."""

    num_vertices: int
    arcs: tuple

    @staticmethod
    def make(num_vertices, arcs):
        return DiGraph(num_vertices, tuple(tuple(a) for a in arcs))


@dataclass(frozen=True)
class SetFamily:
    """Family of sets over elements 1..universe_size."""

    universe_size: int
    sets: tuple

    @staticmethod
    def make(universe_size, sets):
        return SetFamily(universe_size, tuple(tuple(s) for s in sets))

    @property
    def num_sets(self):
        return len(self.sets)

    def union(self):
        out = set()
        for s in self.sets:
            out.update(s)
        return out


@dataclass(frozen=True)
class TripleFamily:
    """Triples over a ground set 1..t_size (three coordinates)."""

    t_size: int
    triples: tuple

    @staticmethod
    def make(t_size, triples):
        return TripleFamily(t_size, tuple(tuple(t) for t in triples))


@dataclass(frozen=True)
class IntegerList:
    """Positive integers; knapsack instances additionally carry a target sum."""

    values: tuple
    target: Optional[int] = None

    @staticmethod
    def make(values, target=None):
        return IntegerList(tuple(values), target)


@dataclass(frozen=True)
class SteinerInstance:
    graph: UGraph
    terminals: tuple
    budget: int

    @staticmethod
    def make(graph, terminals, budget):
        return SteinerInstance(graph, tuple(sorted(terminals)), budget)


@dataclass(frozen=True)
class Problem:
    """A problem instance: kind tag, payload carrier, optional scalar parameter."""

    kind: str
    payload: object
    param: Optional[int] = None


@dataclass(frozen=True)
class Certificate:
    """A solution witness; `kind` names the witness shape, not the problem."""

    kind: str
    value: object


@dataclass(frozen=True)
class SizeReport:
    kind: str
    element: int
    bits: int


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def _check(cond, msg):
    if not cond:
        raise InvalidInstanceError(msg)


def _validate_ugraph(g, weighted):
    _check(g.num_vertices >= 0, "negative vertex count")
    seen = set()
    # messages are formatted only on failure: validation runs on every edge
    for i, j in g.edges:
        if i == j:
            raise InvalidInstanceError("self-loop (%d,%d)" % (i, j))
        _check(1 <= i <= g.num_vertices and 1 <= j <= g.num_vertices, "vertex out of range")
        if (i, j) in seen:
            raise InvalidInstanceError("duplicate edge (%d,%d)" % (i, j))
        seen.add((i, j))
    if weighted:
        _check(g.weights is not None, "weights required")
        _check(len(g.weights) == len(g.edges), "one weight per edge required")
        _check(all(w >= 0 for w in g.weights), "negative edge weight")
    else:
        _check(g.weights is None, "weights not allowed for this kind")


def _validate_digraph(g):
    seen = set()
    for i, j in g.arcs:
        _check(1 <= i <= g.num_vertices and 1 <= j <= g.num_vertices, "vertex out of range")
        if (i, j) in seen:
            raise InvalidInstanceError("duplicate arc (%d,%d)" % (i, j))
        seen.add((i, j))


def _validate_family(fam):
    for s in fam.sets:
        _check(len(set(s)) == len(s), "duplicate element within one set")
        for x in s:
            _check(1 <= x <= fam.universe_size, "element out of range")


def _validate_cnf(f, max_clause=None):
    _check(f.num_literals >= 0, "negative literal count")
    for c in f.clauses:
        _check(len(c) >= 1, "empty clause")
        if max_clause is not None and len(c) > max_clause:
            raise InvalidInstanceError("clause larger than %d" % max_clause)
        for lit in c:
            _check(lit != 0 and 1 <= abs(lit) <= f.num_literals, "literal out of range")


def validate(problem):
    """Raise InvalidInstanceError if the instance violates its invariants."""
    kind = problem.kind
    p = problem.payload
    if kind not in KINDS:
        raise UnsupportedKindError("unknown kind %r" % kind)
    if kind == "job_sequencing":
        _check(p is None, "job_sequencing carries no payload")
        return problem
    if kind in PARAM_KINDS:
        _check(problem.param is not None, "%s requires a scalar parameter" % kind)
        _check(problem.param >= 0, "negative parameter")
    if kind in ("sat", "threesat"):
        _validate_cnf(p, max_clause=3 if kind == "threesat" else None)
    elif kind == "ip01":
        p.validate()
    elif kind in ("clique", "node_cover", "chromatic_number"):
        _validate_ugraph(p, weighted=False)
        _check(p.complement is False, "complement flag reserved for clique_cover")
        _check(problem.param <= p.num_vertices, "parameter exceeds vertex count")
    elif kind == "clique_cover":
        _validate_ugraph(p, weighted=False)
        _check(problem.param <= p.num_vertices, "parameter exceeds vertex count")
    elif kind == "hcp":
        _validate_ugraph(p, weighted=False)
        _check(p.complement is False, "complement flag reserved for clique_cover")
    elif kind == "max_cut":
        _validate_ugraph(p, weighted=True)
    elif kind in ("set_packing", "set_covering", "exact_cover", "hitting_set"):
        _validate_family(p)
        if kind == "set_covering":
            # choosing "exactly k" supersets requires at least k sets to choose from
            _check(problem.param <= p.num_sets, "k exceeds number of sets")
    elif kind in ("feedback_node_set", "feedback_arc_set", "dhcp"):
        _validate_digraph(p)
    elif kind == "steiner_tree":
        _validate_ugraph(p.graph, weighted=True)
        _check(len(p.terminals) >= 1, "terminal set empty")
        _check(
            all(1 <= r <= p.graph.num_vertices for r in p.terminals),
            "terminal out of range",
        )
        _check(p.budget >= 0, "negative weight budget")
    elif kind == "three_dim_matching":
        seen = set()
        for t in p.triples:
            _check(len(t) == 3, "triple must have three coordinates")
            _check(all(1 <= x <= p.t_size for x in t), "coordinate out of range")
            _check(t not in seen, "duplicate triple")
            seen.add(t)
    elif kind in ("knapsack", "partition"):
        _check(all(v >= 1 for v in p.values), "integers must be >= 1")
        if kind == "knapsack":
            _check(p.target is not None and p.target >= 0, "knapsack requires a target")
        else:
            _check(p.target is None, "partition carries no target")
    return problem


# ---------------------------------------------------------------------------
# input-size measures
# ---------------------------------------------------------------------------


def nbits(v):
    """Binary encoding length of an integer: ceil(log2(|v|+1)) + 1."""
    return abs(v).bit_length() + 1


def _graph_bits(g, weighted=False):
    total = 0
    w = g.weights if weighted else None
    for idx, (i, j) in enumerate(g.edges):
        total += nbits(i) + nbits(j)
        if w is not None:
            total += nbits(w[idx])
    return total


def _digraph_bits(g):
    return sum(nbits(i) + nbits(j) for i, j in g.arcs)


def _family_bits(fam):
    return sum(nbits(x) for s in fam.sets for x in s)


def measure_input_size(problem, mode="element"):
    """Input size of an instance under the per-kind counting convention.

    Element mode counts data items (edges, set entries, literals, ...); bits
    mode weighs every number by its binary encoding length.
    """
    if mode not in ("element", "bits"):
        raise ValueError("mode must be 'element' or 'bits'")
    kind = problem.kind
    p = problem.payload
    if kind == "job_sequencing" or kind not in KINDS:
        raise UnsupportedKindError("no input-size measure for kind %r" % kind)

    if kind == "sat":
        if mode == "element":
            return sum(len(c) for c in p.clauses)
        return sum(nbits(lit) for c in p.clauses for lit in c)
    if kind == "threesat":
        if mode == "element":
            return 3 * len(p.clauses)
        return sum(nbits(lit) for c in p.clauses for lit in c)
    if kind == "ip01":
        return p.size(mode)
    if kind in ("clique", "node_cover", "feedback_arc_set", "feedback_node_set",
                "chromatic_number", "clique_cover"):
        if kind in ("feedback_arc_set", "feedback_node_set"):
            e = len(p.arcs)
            b = _digraph_bits(p)
        else:
            e = len(p.edges)  # stored edges; clique_cover compressed counts its stored form
            b = _graph_bits(p)
        if mode == "element":
            return e + 1
        return b + nbits(problem.param)
    if kind in ("set_packing", "set_covering"):
        if mode == "element":
            return 1 + sum(len(s) for s in p.sets)
        return _family_bits(p) + nbits(problem.param)
    if kind in ("dhcp",):
        return len(p.arcs) if mode == "element" else _digraph_bits(p)
    if kind == "hcp":
        return len(p.edges) if mode == "element" else _graph_bits(p)
    if kind in ("exact_cover", "hitting_set"):
        if mode == "element":
            return sum(len(s) for s in p.sets)
        return _family_bits(p)
    if kind == "steiner_tree":
        g = p.graph
        if mode == "element":
            return 2 * len(g.edges) + len(p.terminals) + 1
        return (
            _graph_bits(g, weighted=True)
            + sum(nbits(r) for r in p.terminals)
            + nbits(p.budget)
        )
    if kind == "three_dim_matching":
        if mode == "element":
            return 3 * len(p.triples) + 1
        return sum(nbits(x) for t in p.triples for x in t) + nbits(p.t_size)
    if kind == "knapsack":
        if mode == "element":
            return len(p.values) + 1
        return sum(nbits(v) for v in p.values) + nbits(p.target)
    if kind == "partition":
        if mode == "element":
            return len(p.values)
        return sum(nbits(v) for v in p.values)
    if kind == "max_cut":
        if mode == "element":
            return 2 * len(p.edges) + 1
        return _graph_bits(p, weighted=True) + nbits(problem.param)
    raise UnsupportedKindError(kind)


def size_report(problem):
    return SizeReport(
        problem.kind,
        measure_input_size(problem, "element"),
        measure_input_size(problem, "bits"),
    )


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------


def _cc(cond, msg):
    if not cond:
        raise InvalidCertificateError(msg)


def _acyclic_without(g):
    """Acyclicity of digraph g once some nodes or arcs are taken out, with
    g's successor lists and in-degrees built once: a predicate on
    (removed nodes, removed arcs), both sets, nodes within 1..n."""
    n = g.num_vertices
    succ = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for u, v in g.arcs:
        succ[u].append(v)
        indeg[v] += 1
    def acyclic(nodes, arcs):
        left = indeg[:]
        for u in nodes:
            for w in succ[u]:
                left[w] -= 1
        for u, v in arcs:
            left[v] -= succ[u].count(v)
        # Kahn's algorithm over the vertices and arcs left
        queue = [v for v in range(1, n + 1) if not left[v] and v not in nodes]
        seen = len(nodes)
        while queue:
            v = queue.pop()
            seen += 1
            for w in succ[v]:
                if w not in nodes and (v, w) not in arcs:
                    left[w] -= 1
                    if not left[w]:
                        queue.append(w)
        return seen == n
    return acyclic


# Shape checks: (problem, value) -> None; raise InvalidCertificateError when
# the value is malformed for the instance.


def _members(count, msg, duplicate_msg=None):
    """A set-like witness: members in 1..count(payload) and, if
    `duplicate_msg` is given, none repeated."""
    def shape(problem, v):
        members = set(v)
        n = count(problem.payload)
        _cc(all(1 <= x <= n for x in members), msg)
        if duplicate_msg is not None:
            _cc(len(members) == len(tuple(v)), duplicate_msg)
    return shape


def _indices(count, msg, duplicate_msg):
    """An index list: indices in 1..count(payload), none repeated."""
    def shape(problem, v):
        idx = list(v)
        n = count(problem.payload)
        _cc(all(1 <= i <= n for i in idx), msg)
        _cc(len(set(idx)) == len(idx), duplicate_msg)
    return shape


def _cycle(minimum):
    """A cycle: a permutation of all vertices, at least `minimum` of them."""
    def shape(problem, v):
        order = list(v)
        n = problem.payload.num_vertices
        _cc(len(order) == n, "cycle must visit every vertex exactly once")
        _cc(sorted(order) == list(range(1, n + 1)), "cycle is not a permutation")
        _cc(n >= minimum, "cycle too short for this convention")
    return shape


def _assignment_shape(problem, v):
    _cc(len(v) == problem.payload.num_literals, "assignment length mismatch")


def _arc_set_shape(problem, v):
    arcs = set(tuple(a) for a in v)
    _cc(arcs <= set(problem.payload.arcs), "certificate arc not in graph")


def _coloring_shape(problem, v):
    colors = list(v)
    _cc(len(colors) == problem.payload.num_vertices, "one colour per vertex required")
    set(colors)  # colours must be hashable: the YES test counts them in a set


def _clique_partition_shape(problem, v):
    flat = [x for b in v for x in b]
    n = problem.payload.num_vertices
    _cc(all(1 <= x <= n for x in flat), "vertex out of range")
    _cc(len(flat) == len(set(flat)), "cliques overlap")


def _tree_shape(problem, v):
    edges = [tuple(sorted(e)) for e in v["edges"]]
    root = v["root"]
    g = problem.payload.graph
    _cc(1 <= root <= g.num_vertices, "root out of range")
    stored = set(g.edges)
    _cc(all(e in stored for e in edges), "certificate edge not in graph")
    _cc(len(set(edges)) == len(edges), "duplicate tree edges")


# YES tests: problem -> predicate on values that passed the shape check.
# Each computes what it needs from the instance once, up front, so that an
# oracle can apply it to every candidate of one instance.


def _sat_yes(problem):
    clauses = problem.payload.clauses
    return lambda v: all(
        any((lit > 0) == bool(v[abs(lit) - 1]) for lit in c) for c in clauses
    )


def _adjacent(g):
    """Ordered pairs (a, b) and (b, a) for each edge (a, b), a < b, of g."""
    return {pair for a, b in g.effective_edges() if a < b for pair in ((a, b), (b, a))}


def _clique_yes(problem):
    k, adjacent = problem.param, _adjacent(problem.payload)
    return lambda v: len(v) == k and all(
        pair in adjacent for pair in combinations(v, 2)
    )


def _node_cover_yes(problem):
    l, edges = problem.param, problem.payload.edges
    def yes(v):
        vs = set(v)
        return len(vs) <= l and all(i in vs or j in vs for i, j in edges)
    return yes


def _set_packing_yes(problem):
    l, sets = problem.param, tuple(set(s) for s in problem.payload.sets)
    def yes(v):
        if len(v) != l:
            return False
        seen = set()
        for i in v:
            if not seen.isdisjoint(sets[i - 1]):
                return False
            seen |= sets[i - 1]
        return True
    return yes


def _set_covering_yes(problem):
    k, sets, target = problem.param, problem.payload.sets, problem.payload.union()
    def yes(v):
        # a repeated index counts once; the set is built only when it matters
        if len(v) > k and len(set(v)) > k:
            return False
        covered = set()
        for i in v:
            covered.update(sets[i - 1])
        return covered == target
    return yes


def _exact_cover_yes(problem):
    sets, target = problem.payload.sets, problem.payload.union()
    def yes(v):
        covered = []
        for i in v:
            covered.extend(sets[i - 1])
        return len(covered) == len(set(covered)) and set(covered) == target
    return yes


def _hitting_set_yes(problem):
    sets = tuple(set(s) for s in problem.payload.sets)
    def yes(v):
        w = set(v)
        return all(len(w & s) == 1 for s in sets)
    return yes


def _feedback_arc_set_yes(problem):
    k, acyclic = problem.param, _acyclic_without(problem.payload)
    def yes(v):
        arcs = set(tuple(a) for a in v)
        return len(arcs) <= k and acyclic((), arcs)
    return yes


def _feedback_node_set_yes(problem):
    k, acyclic = problem.param, _acyclic_without(problem.payload)
    def yes(v):
        nodes = set(v)
        return len(nodes) <= k and acyclic(nodes, ())
    return yes


def _tour(arcs_of):
    """YES test of a cycle: every step, the closing one too, is in
    arcs_of(payload)."""
    def build(problem):
        arcs = arcs_of(problem.payload)
        return lambda order: all(
            (order[i], order[(i + 1) % len(order)]) in arcs for i in range(len(order))
        )
    return build


def _coloring_yes(problem):
    k, edges = problem.param, problem.payload.edges
    return lambda colors: all(
        colors[i - 1] != colors[j - 1] for i, j in edges
    ) and len(set(colors)) <= k


def _clique_partition_yes(problem):
    l, g = problem.param, problem.payload
    vertices, adjacent = set(range(1, g.num_vertices + 1)), _adjacent(g)
    return lambda blocks: (
        all(pair in adjacent for b in blocks for pair in combinations(b, 2))
        and len(blocks) <= l
        and set(x for b in blocks for x in b) == vertices
    )


def _tree_yes(problem):
    p = problem.payload
    terminals, weight = set(p.terminals), p.graph.weight_of()
    def yes(v):
        edges = [tuple(sorted(e)) for e in v["edges"]]
        root = v["root"]
        adj = {root: set()}
        for i, j in edges:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
        # a tree: |E| = |V| - 1 and connected
        if len(edges) != len(adj) - 1 or not terminals <= adj.keys():
            return False
        if sum(weight[e] for e in edges) > p.budget:
            return False
        stack, seen = [root], {root}
        while stack:
            for y in adj[stack.pop()] - seen:
                seen.add(y)
                stack.append(y)
        return len(seen) == len(adj)
    return yes


def _matching_yes(problem):
    p = problem.payload
    def yes(v):
        chosen = [p.triples[i - 1] for i in v]
        return len(chosen) == p.t_size and all(
            len(set(t[c] for t in chosen)) == len(chosen) for c in range(3)
        )
    return yes


def _knapsack_yes(problem):
    values, target = problem.payload.values, problem.payload.target
    return lambda v: sum(values[i - 1] for i in v) == target


def _partition_yes(problem):
    values = problem.payload.values
    total = sum(values)
    return lambda v: 2 * sum(values[i - 1] for i in v) == total


def _max_cut_yes(problem):
    k, weighted = problem.param, problem.payload.weight_of().items()
    def yes(v):
        s = set(v)
        return sum(w for (i, j), w in weighted if (i in s) != (j in s)) >= k
    return yes


_vertex_count = attrgetter("num_vertices")
_vertices = _members(_vertex_count, "vertex out of range")
_clique = _members(_vertex_count, "vertex out of range", "duplicate vertices in clique")
_set_members = _members(attrgetter("num_sets"), "set index out of range")
_set_indices = _indices(
    attrgetter("num_sets"), "set index out of range", "duplicate set indices")
_elements = _members(attrgetter("universe_size"), "element out of range")
_triples = _indices(
    lambda p: len(p.triples), "triple index out of range", "duplicate triple indices")
_items = _indices(
    lambda p: len(p.values), "item index out of range", "duplicate item indices")

# problem kind -> (certificate kind, shape check, YES test): the one place
# that says what witnesses a kind and when a witness means YES
CERTIFICATES = {
    "sat": ("assignment", _assignment_shape, _sat_yes),
    "threesat": ("assignment", _assignment_shape, _sat_yes),
    # BinaryProgram.satisfied_by checks the assignment's shape itself
    "ip01": ("binary", lambda problem, v: None, attrgetter("payload.satisfied_by")),
    "clique": ("vertex_set", _clique, _clique_yes),
    "node_cover": ("vertex_set", _vertices, _node_cover_yes),
    "feedback_node_set": ("vertex_set", _vertices, _feedback_node_set_yes),
    "max_cut": ("vertex_set", _vertices, _max_cut_yes),
    "set_packing": ("set_indices", _set_indices, _set_packing_yes),
    "set_covering": ("set_indices", _set_members, _set_covering_yes),
    "exact_cover": ("set_indices", _set_indices, _exact_cover_yes),
    "hitting_set": ("element_set", _elements, _hitting_set_yes),
    "feedback_arc_set": ("arc_set", _arc_set_shape, _feedback_arc_set_yes),
    "dhcp": ("cycle", _cycle(2), _tour(lambda g: set(g.arcs))),
    "hcp": ("cycle", _cycle(3), _tour(_adjacent)),
    "chromatic_number": ("coloring", _coloring_shape, _coloring_yes),
    "clique_cover": ("clique_partition", _clique_partition_shape, _clique_partition_yes),
    "steiner_tree": ("tree", _tree_shape, _tree_yes),
    "three_dim_matching": ("triple_indices", _triples, _matching_yes),
    "knapsack": ("item_indices", _items, _knapsack_yes),
    "partition": ("item_indices", _items, _partition_yes),
}


def yes_test(problem):
    """The instance's YES test: a predicate that is True iff a certificate
    value that passed the shape check witnesses YES.  Build it once per
    instance and apply it to many values."""
    return CERTIFICATES[problem.kind][2](problem)


def verify_certificate(problem, cert):
    """True iff the certificate witnesses a YES answer for the instance.

    Raises TypeError on a kind mismatch and InvalidCertificateError on
    out-of-range indices or structurally malformed witnesses.
    """
    kind = problem.kind
    if kind not in CERTIFICATES:
        raise UnsupportedKindError("no certificate shape for kind %r" % kind)
    cert_kind, shape, yes = CERTIFICATES[kind]
    if cert.kind != cert_kind:
        raise TypeError(
            "certificate kind %r does not match problem kind %r" % (cert.kind, kind)
        )
    shape(problem, cert.value)
    return yes(problem)(cert.value)
