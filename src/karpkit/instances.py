"""Canonical in-memory representations of Karp's 21 decision problems.

Each problem instance is a `Problem` carrying a kind tag, a payload carrier
(graph, set family, CNF formula, ...) and, for some kinds, a scalar
parameter.  A kind is defined in one place: its entry in `KINDS`, at the
end of this module.  The entry names the payload carrier, the JSON name of
the parameter, the conditions the kind adds to its carrier's own, and its
certificate: the certificate kind, a shape check that refuses a value of
the wrong types or range, and the YES test.  `certificate` is the one place
that makes a kind's certificate.  Each carrier validates itself, measures
itself in both size modes and converts itself to and from JSON, so
`validate`, `measure_input_size` and `serialize` read the table and never
branch on a kind.

Adding a kind: give it a `KINDS` entry, reusing a carrier (then `genlab`
needs no edit) or writing one with `validate`, `size`, `to_json`, `from_json`
and a builder and scale rule in `genlab._CARRIERS`; its one `oracles.ORACLES`
entry; and, unless it is a kernel kind, its one canonical reduction in
`reductions.REDUCTIONS`, along which it reaches the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import attrgetter
from typing import Callable, Optional

from .binprog import BinaryProgram, is_int, nbits


class UnsupportedKindError(ValueError):
    """Raised for kinds with no defined payload (job_sequencing) or unknown tags."""


class InvalidInstanceError(ValueError):
    """Raised when a payload violates its structural invariants."""


class InvalidCertificateError(ValueError):
    """Raised when a certificate is malformed for the instance it claims to witness."""


def _check(cond, msg):
    if not cond:
        raise InvalidInstanceError(msg)


def _ints(values):
    """Every value an int, and none a bool or a float.  The set of their
    types is built in C: this runs on every vertex, element and index."""
    return {*map(type, values)} <= {int}


def _integers(values, msg):
    _check(_ints(values), msg)


def _count(n, what):
    """A count or size: an integer, and not negative."""
    _check(is_int(n), "%s must be an integer" % what)
    _check(n >= 0, "negative %s" % what)


# ---------------------------------------------------------------------------
# payload carriers: each one validates itself, measures itself (element mode
# counts data items, bits mode weighs every number by its encoding length)
# and converts itself to and from its JSON object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """CNF formula over literals 1..num_literals; clauses hold signed indices."""

    num_literals: int
    clauses: tuple

    def validate(self):
        n = self.num_literals
        _count(n, "literal count")
        _integers(chain.from_iterable(self.clauses), "literals must be integers")
        for c in self.clauses:
            _check(len(c) >= 1, "empty clause")
            for lit in c:
                _check(lit != 0 and 1 <= abs(lit) <= n, "literal out of range")

    def size(self, mode):
        if mode == "element":
            return sum(len(c) for c in self.clauses)
        # nbits per literal, inlined: this is a hot measure
        return sum([abs(lit).bit_length() + 1 for c in self.clauses for lit in c])

    def to_json(self):
        return {"num_literals": self.num_literals, "clauses": [list(c) for c in self.clauses]}

    @staticmethod
    def from_json(d):
        return CnfFormula(d["num_literals"], tuple([tuple(c) for c in d["clauses"]]))


@dataclass(frozen=True)
class UGraph:
    """Undirected graph on vertices 1..num_vertices, each edge stored as
    (i, j) with i < j.

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
            tuple([(min(i, j), max(i, j)) for i, j in edges]),
            None if weights is None else tuple(weights),
            complement,
        )

    def effective_edges(self):
        if not self.complement:
            return self.edges
        stored = set(self.edges)
        n = self.num_vertices
        return tuple([
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if (i, j) not in stored
        ])

    def weight_of(self):
        return dict(zip(self.edges, self.weights))

    def validate(self):
        n = self.num_vertices
        _count(n, "vertex count")
        _integers(chain.from_iterable(self.edges), "vertex numbers must be integers")
        # a truthy "false" or 1 would flip every edge
        _check(type(self.complement) is bool, "complement flag must be a boolean")
        seen = set()
        # messages are formatted only on failure: validation runs on every edge
        for i, j in self.edges:
            if not 1 <= i < j <= n:
                if i == j:
                    raise InvalidInstanceError("self-loop (%d,%d)" % (i, j))
                _check(1 <= i <= n and 1 <= j <= n, "vertex out of range")
                raise InvalidInstanceError("edge (%d,%d) not stored as (i,j) with i < j" % (i, j))
            if (i, j) in seen:
                raise InvalidInstanceError("duplicate edge (%d,%d)" % (i, j))
            seen.add((i, j))
        if self.weights is not None:
            _check(len(self.weights) == len(self.edges), "one weight per edge required")
            _check(all(map(is_int, self.weights)), "edge weights must be integers")
            _check(all(w >= 0 for w in self.weights), "negative edge weight")

    def size(self, mode):
        """An edge counts once, or twice with its weight."""
        if mode == "element":
            return len(self.edges) * (1 if self.weights is None else 2)
        # nbits per endpoint, inlined: this is a hot measure
        bits = sum([abs(i).bit_length() + abs(j).bit_length() + 2 for i, j in self.edges])
        if self.weights is None:
            return bits
        return bits + sum([abs(w).bit_length() + 1 for w in self.weights])

    def to_json(self):
        if self.weights is not None:
            edges = [[i, j, w] for (i, j), w in zip(self.edges, self.weights)]
        else:
            edges = [[i, j] for i, j in self.edges]
        out = {"num_vertices": self.num_vertices, "edges": edges}
        if self.complement:
            out["complement"] = True
        return {"graph": out}

    @staticmethod
    def from_json(d, weighted=False):
        """An unweighted graph ignores a third column; a weighted one needs it
        on every edge (and keeps weights (), not None, when it has none)."""
        d = d["graph"]
        edges, weights = [], []
        for row in d["edges"]:
            _check(len(row) >= 2, "edge row needs two vertices")
            edges.append((row[0], row[1]))
            if len(row) > 2:
                weights.append(row[2])
        if weighted and len(weights) != len(edges):
            raise ValueError("weighted graph requires a weight column on every edge")
        return UGraph.make(
            d["num_vertices"],
            edges,
            weights if weighted else None,
            d.get("complement", False),
        )


@dataclass(frozen=True)
class DiGraph:
    """Directed graph on vertices 1..num_vertices."""

    num_vertices: int
    arcs: tuple

    def validate(self):
        n = self.num_vertices
        _count(n, "vertex count")
        _integers(chain.from_iterable(self.arcs), "vertex numbers must be integers")
        seen = set()
        for i, j in self.arcs:
            _check(1 <= i <= n and 1 <= j <= n, "vertex out of range")
            if (i, j) in seen:
                raise InvalidInstanceError("duplicate arc (%d,%d)" % (i, j))
            seen.add((i, j))

    def size(self, mode):
        if mode == "element":
            return len(self.arcs)
        # nbits per endpoint, inlined: this is a hot measure
        return sum([abs(i).bit_length() + abs(j).bit_length() + 2 for i, j in self.arcs])

    def to_json(self):
        return {"graph": {"num_vertices": self.num_vertices,
                          "arcs": [list(a) for a in self.arcs]}}

    @staticmethod
    def from_json(d):
        d = d["graph"]
        return DiGraph(d["num_vertices"], tuple([tuple(a) for a in d["arcs"]]))


@dataclass(frozen=True)
class SetFamily:
    """Family of sets over elements 1..universe_size."""

    universe_size: int
    sets: tuple

    @property
    def num_sets(self):
        return len(self.sets)

    def union(self):
        out = set()
        for s in self.sets:
            out.update(s)
        return out

    def validate(self):
        _count(self.universe_size, "universe size")
        _integers(chain.from_iterable(self.sets), "elements must be integers")
        for s in self.sets:
            _check(len(set(s)) == len(s), "duplicate element within one set")
            for x in s:
                _check(1 <= x <= self.universe_size, "element out of range")

    def size(self, mode):
        if mode == "element":
            return sum(len(s) for s in self.sets)
        # nbits per element, inlined: this is a hot measure
        return sum([abs(x).bit_length() + 1 for s in self.sets for x in s])

    def to_json(self):
        return {"family": {"universe_size": self.universe_size,
                           "sets": [list(s) for s in self.sets]}}

    @staticmethod
    def from_json(d):
        d = d["family"]
        return SetFamily(d["universe_size"], tuple([tuple(s) for s in d["sets"]]))


@dataclass(frozen=True)
class TripleFamily:
    """Triples over a ground set 1..t_size (three coordinates)."""

    t_size: int
    triples: tuple

    def validate(self):
        _count(self.t_size, "t_size")
        _integers(chain.from_iterable(self.triples), "coordinates must be integers")
        seen = set()
        for t in self.triples:
            _check(len(t) == 3, "triple must have three coordinates")
            _check(all(1 <= x <= self.t_size for x in t), "coordinate out of range")
            _check(t not in seen, "duplicate triple")
            seen.add(t)

    def size(self, mode):
        """The triples and t_size."""
        if mode == "element":
            return 3 * len(self.triples) + 1
        # nbits per coordinate, inlined: this is a hot measure
        bits = sum([abs(x).bit_length() + 1 for t in self.triples for x in t])
        return bits + nbits(self.t_size)

    def to_json(self):
        return {"t_size": self.t_size, "triples": [list(t) for t in self.triples]}

    @staticmethod
    def from_json(d):
        return TripleFamily(d["t_size"], tuple([tuple(t) for t in d["triples"]]))


@dataclass(frozen=True)
class IntegerList:
    """Positive integers; knapsack instances additionally carry a target sum."""

    values: tuple
    target: Optional[int] = None

    def validate(self):
        _check(all(map(is_int, self.values)), "values must be integers")
        _check(all(v >= 1 for v in self.values), "integers must be >= 1")
        _check(self.target is None or is_int(self.target), "target must be an integer")

    def size(self, mode):
        """The values and the target, if there is one."""
        has_target = self.target is not None
        if mode == "element":
            return len(self.values) + has_target
        bits = sum(nbits(v) for v in self.values)
        return bits + nbits(self.target) if has_target else bits

    def to_json(self):
        if self.target is None:
            return {"values": list(self.values)}
        return {"values": list(self.values), "target": self.target}

    @staticmethod
    def from_json(d):
        return IntegerList(tuple(d["values"]), d.get("target"))


@dataclass(frozen=True)
class SteinerInstance:
    graph: UGraph
    terminals: tuple
    budget: int

    def validate(self):
        g = self.graph
        g.validate()
        _check(g.weights is not None, "weights required")
        _check(g.complement is False, "complement flag reserved for clique_cover")
        _check(len(self.terminals) >= 1, "terminal set empty")
        _integers(self.terminals, "terminals must be integers")
        _check(
            all(1 <= r <= g.num_vertices for r in self.terminals),
            "terminal out of range",
        )
        _check(len(set(self.terminals)) == len(self.terminals), "duplicate terminal")
        _count(self.budget, "weight budget")

    def size(self, mode):
        """The weighted graph, the terminals and the budget."""
        if mode == "element":
            return self.graph.size(mode) + len(self.terminals) + 1
        return (
            self.graph.size(mode)
            + sum(nbits(r) for r in self.terminals)
            + nbits(self.budget)
        )

    def to_json(self):
        return {**self.graph.to_json(), "terminals": list(self.terminals), "k": self.budget}

    @staticmethod
    def from_json(d):
        return SteinerInstance(
            UGraph.from_json(d, weighted=True), tuple(sorted(d["terminals"])), d["k"]
        )


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


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------

# A kind's own conditions, beyond its carrier's: problem -> None, raising
# InvalidInstanceError.


def _weighted(problem):
    _check(problem.payload.weights is not None, "weights required")


def _unweighted(problem):
    _check(problem.payload.weights is None, "weights not allowed for this kind")


def _uncomplemented(problem):
    _check(problem.payload.complement is False, "complement flag reserved for clique_cover")


def _param_within_vertices(problem):
    _check(problem.param <= problem.payload.num_vertices, "parameter exceeds vertex count")


def _param_within_sets(problem):
    # choosing "exactly k" supersets requires at least k sets to choose from
    _check(problem.param <= problem.payload.num_sets, "k exceeds number of sets")


def _three_literals(problem):
    _check(all(len(c) <= 3 for c in problem.payload.clauses), "clause larger than 3")


def _target(problem):
    target = problem.payload.target
    _check(target is not None, "knapsack requires a target")
    _count(target, "target")


def _no_target(problem):
    _check(problem.payload.target is None, "partition carries no target")


def validate(problem):
    """Raise InvalidInstanceError if the instance violates its invariants."""
    kind = problem.kind
    p = problem.payload
    spec = KINDS.get(kind)
    if spec is None:
        raise UnsupportedKindError("unknown kind %r" % kind)
    if spec.carrier is not None and not isinstance(p, spec.carrier):
        raise InvalidInstanceError("%s requires a %s payload, got %s" % (
            kind, spec.carrier.__name__, type(p).__name__))
    if spec.param is None:
        _check(problem.param is None, "%s takes no parameter" % kind)
    else:
        _check(problem.param is not None, "%s requires a scalar parameter" % kind)
        _check(is_int(problem.param), "%s parameter must be an integer" % kind)
        _check(problem.param >= 0, "negative parameter")
    if spec.carrier is None:
        _check(p is None, "%s carries no payload" % kind)
        return problem
    p.validate()
    for check in spec.checks:
        check(problem)
    return problem


# ---------------------------------------------------------------------------
# input-size measures
# ---------------------------------------------------------------------------


def _three_per_clause(formula, mode):
    return 3 * len(formula.clauses) if mode == "element" else formula.size(mode)


def measure_input_size(problem, mode="element"):
    """Input size of an instance: its carrier's size, plus the parameter (one
    element, or its encoding length in bits) if the kind has one.

    Element mode counts data items (edges, set entries, literals, ...); bits
    mode weighs every number by its binary encoding length.
    """
    if mode not in ("element", "bits"):
        raise ValueError("mode must be 'element' or 'bits'")
    spec = KINDS.get(problem.kind)
    if spec is None or spec.carrier is None:
        raise UnsupportedKindError("no input-size measure for kind %r" % problem.kind)
    size = (spec.size or spec.carrier.size)(problem.payload, mode)
    if spec.param is None:
        return size
    return size + (1 if mode == "element" else nbits(problem.param))


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


def _in_range(values, n, member, message):
    """Refuse, in sequence order, a value that is not a number ("<member>
    must be an integer") or a number outside 1..n (`message`), so that a
    mixed bad value raises the same error under every hash seed.  A number
    in range that is not an int (1.0, True) passes, and fails the type
    check after it."""
    if _ints(values):
        _cc(all(1 <= x <= n for x in values), message)
        return
    for x in values:
        _cc(isinstance(x, (int, float)), "%s must be an integer" % member)
        _cc(1 <= x <= n, message)


def _members(count, member, duplicate_msg=None):
    """A set-like witness: integer members in 1..count(payload) and, if
    `duplicate_msg` is given, none repeated; `member` names one in the
    messages."""
    def shape(problem, v):
        members = tuple(v)
        _in_range(members, count(problem.payload), member, "%s out of range" % member)
        _cc(_ints(members), "%s must be an integer" % member)
        if duplicate_msg is not None:
            _cc(len(set(members)) == len(members), duplicate_msg)
    return shape


def _cycle(minimum):
    """A cycle: a permutation of all vertices, at least `minimum` of them."""
    def shape(problem, v):
        order = list(v)
        n = problem.payload.num_vertices
        _cc(len(order) == n, "cycle must visit every vertex exactly once")
        _in_range(order, n, "vertex", "cycle is not a permutation")
        _cc(sorted(order) == list(range(1, n + 1)), "cycle is not a permutation")
        _cc(_ints(order), "vertex must be an integer")
        _cc(n >= minimum, "cycle too short for this convention")
    return shape


def _assignment_shape(problem, v):
    _cc(len(v) == problem.payload.num_literals, "assignment length mismatch")
    _cc(all(type(x) is bool for x in v), "assignment must be boolean")


def _binary_shape(problem, v):
    _cc(len(v) == problem.payload.num_variables, "assignment length mismatch")
    _cc(all(type(x) is int and x in (0, 1) for x in v), "assignment must be binary")


def _arc_set_shape(problem, v):
    arcs = [tuple(a) for a in v]
    _cc(set(arcs) <= set(problem.payload.arcs), "certificate arc not in graph")
    _cc(_ints(chain.from_iterable(arcs)), "vertex must be an integer")


def _coloring_shape(problem, v):
    colors = list(v)
    _cc(len(colors) == problem.payload.num_vertices, "one colour per vertex required")
    set(colors)  # colours must be hashable: the YES test counts them in a set


def _clique_partition_shape(problem, v):
    flat = [x for b in v for x in b]
    _in_range(flat, problem.payload.num_vertices, "vertex", "vertex out of range")
    _cc(_ints(flat), "vertex must be an integer")
    _cc(len(flat) == len(set(flat)), "cliques overlap")


def _tree_shape(problem, v):
    root, g = v["root"], problem.payload.graph
    _in_range((root,), g.num_vertices, "vertex", "root out of range")
    # an edge with a vertex out of range is not in the graph
    ends = [x for e in v["edges"] for x in e]
    _in_range(ends, g.num_vertices, "vertex", "certificate edge not in graph")
    edges = [tuple(sorted(e)) for e in v["edges"]]
    stored = set(g.edges)
    _cc(all(e in stored for e in edges), "certificate edge not in graph")
    _cc(_ints(chain([root], *edges)), "vertex must be an integer")
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
    l, sets = problem.param, tuple([set(s) for s in problem.payload.sets])
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
    sets = tuple([set(s) for s in problem.payload.sets])
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
_vertices = _members(_vertex_count, "vertex")
_clique = _members(_vertex_count, "vertex", "duplicate vertices in clique")
_set_members = _members(attrgetter("num_sets"), "set index")
_set_indices = _members(attrgetter("num_sets"), "set index", "duplicate set indices")
_elements = _members(attrgetter("universe_size"), "element")
_triples = _members(lambda p: len(p.triples), "triple index", "duplicate triple indices")
_items = _members(lambda p: len(p.values), "item index", "duplicate item indices")


@dataclass(frozen=True)
class KindSpec:
    """One kind: its payload carrier (None for a bare tag), the JSON name of
    its scalar parameter (None if it has none), the conditions it adds to
    its carrier's validation, and its certificate (certificate kind, shape
    check, YES test builder).  `size` replaces the carrier's measure where
    the kind counts otherwise."""

    carrier: Optional[type]
    param: Optional[str] = None
    checks: tuple = ()
    certificate: Optional[tuple] = None
    size: Optional[Callable] = None

    @property
    def weighted(self):
        """A graph kind whose edges carry weights."""
        return _weighted in self.checks


# a graph with neither edge weights nor the complement flag
_PLAIN = (_unweighted, _uncomplemented)

# the one table of the 21 kinds, in Karp's order; the certificate entry is
# the one place that says what witnesses a kind and when a witness means YES
KINDS = {
    "sat": KindSpec(CnfFormula, None, (), ("assignment", _assignment_shape, _sat_yes)),
    "ip01": KindSpec(BinaryProgram, None, (), (
        "binary", _binary_shape, attrgetter("payload.satisfied_by"))),
    "clique": KindSpec(UGraph, "k", _PLAIN + (_param_within_vertices,), (
        "vertex_set", _clique, _clique_yes)),
    "set_packing": KindSpec(SetFamily, "l", (), (
        "set_indices", _set_indices, _set_packing_yes)),
    "node_cover": KindSpec(UGraph, "l", _PLAIN + (_param_within_vertices,), (
        "vertex_set", _vertices, _node_cover_yes)),
    "set_covering": KindSpec(SetFamily, "k", (_param_within_sets,), (
        "set_indices", _set_members, _set_covering_yes)),
    "feedback_node_set": KindSpec(DiGraph, "k", (), (
        "vertex_set", _vertices, _feedback_node_set_yes)),
    "feedback_arc_set": KindSpec(DiGraph, "k", (), (
        "arc_set", _arc_set_shape, _feedback_arc_set_yes)),
    "dhcp": KindSpec(DiGraph, None, (), ("cycle", _cycle(2), _tour(lambda g: set(g.arcs)))),
    "hcp": KindSpec(UGraph, None, _PLAIN, ("cycle", _cycle(3), _tour(_adjacent))),
    "threesat": KindSpec(CnfFormula, None, (_three_literals,), (
        "assignment", _assignment_shape, _sat_yes), _three_per_clause),
    "chromatic_number": KindSpec(UGraph, "k", _PLAIN + (_param_within_vertices,), (
        "coloring", _coloring_shape, _coloring_yes)),
    # the one graph kind whose edges may be stored complemented
    "clique_cover": KindSpec(UGraph, "l", (_unweighted, _param_within_vertices), (
        "clique_partition", _clique_partition_shape, _clique_partition_yes)),
    "exact_cover": KindSpec(SetFamily, None, (), (
        "set_indices", _set_indices, _exact_cover_yes)),
    "hitting_set": KindSpec(SetFamily, None, (), ("element_set", _elements, _hitting_set_yes)),
    "steiner_tree": KindSpec(SteinerInstance, None, (), ("tree", _tree_shape, _tree_yes)),
    "three_dim_matching": KindSpec(TripleFamily, None, (), (
        "triple_indices", _triples, _matching_yes)),
    "knapsack": KindSpec(IntegerList, None, (_target,), (
        "item_indices", _items, _knapsack_yes)),
    "job_sequencing": KindSpec(None),
    "partition": KindSpec(IntegerList, None, (_no_target,), (
        "item_indices", _items, _partition_yes)),
    "max_cut": KindSpec(UGraph, "W", (_weighted, _uncomplemented), (
        "vertex_set", _vertices, _max_cut_yes)),
}


def certificate(problem, value):
    """A certificate for `problem`, of the kind its `KINDS` entry declares."""
    return Certificate(KINDS[problem.kind].certificate[0], value)


def yes_test(problem):
    """The instance's YES test: a predicate that is True iff a certificate
    value that passed the shape check witnesses YES.  Build it once per
    instance and apply it to many values."""
    return KINDS[problem.kind].certificate[2](problem)


def _check_certificate(problem, cert):
    """Refuse a certificate of the wrong kind or shape for the instance."""
    kind = problem.kind
    spec = KINDS.get(kind)
    if spec is None or spec.certificate is None:
        raise UnsupportedKindError("no certificate shape for kind %r" % kind)
    cert_kind, shape, _ = spec.certificate
    if cert.kind != cert_kind:
        raise TypeError(
            "certificate kind %r does not match problem kind %r" % (cert.kind, kind)
        )
    shape(problem, cert.value)


def verify_certificate(problem, cert):
    """True iff the certificate witnesses a YES answer for the instance.

    Raises TypeError on a kind mismatch and InvalidCertificateError on
    out-of-range indices or structurally malformed witnesses.
    """
    _check_certificate(problem, cert)
    return yes_test(problem)(cert.value)
