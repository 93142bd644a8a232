"""Exhaustive decision oracles: desk-scale ground truth with certificates.

An oracle never re-states what a witness is: it tests candidates with
`instances.yes_test`, the YES test that `verify_certificate` applies after
its shape check.  Most kinds are one entry in `CANDIDATES`: the size of the
candidate space and an iterator over it in a fixed lexicographic order.  One
loop refuses a space larger than the budget, then returns the first
candidate that passes the YES test; `explored` counts the candidates
tried: the witness's 1-based rank, or all of them on NO.

Seven kinds keep searches of their own.  sat/threesat and max_cut search
depth-first in the order their enumeration would take, skip only subtrees
that hold no YES candidate, and compute `explored` from the witness's rank
in that order (2^n on NO), so they answer exactly as the enumeration would:
sat assigns x1, x2, ... False before True and cuts a branch at a falsified
clause; max_cut walks the subsets of each size lexicographically and cuts
a branch whose cut-weight bound falls below the threshold.  Both refuse a
space larger than the budget before they search.  ip01 calls `solve_ip`
(bound-pruned, guarded by its 2^v space), dhcp/hcp walk vertex orders
depth-first with adjacency pruning, and clique_cover walks restricted
growth strings; the last two count visited nodes or leaves against the
budget.  Every search uses explicit stacks, not recursion.  Verdicts and
witnesses are deterministic, and every witness is checked once more by
`verify_certificate` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress, product
from math import comb
from operator import mul, neg
from typing import Optional

from .instances import (
    Certificate,
    UnsupportedKindError,
    certificate,
    validate,
    verify_certificate,
    yes_test,
)
from .binprog import solve_ip

DEFAULT_BUDGET = 1 << 24


class BudgetExceededError(RuntimeError):
    """The search space is larger than the candidate budget; refuse, never truncate."""


class OracleSelfCheckError(RuntimeError):
    """An oracle produced a witness that its own instance does not verify."""


@dataclass(frozen=True)
class OracleVerdict:
    answer: bool
    certificate: Optional[Certificate]
    explored: int

    def __bool__(self):
        return self.answer


def _guard(space, budget, kind):
    if space > budget:
        raise BudgetExceededError(
            "%s search space %d exceeds budget %d" % (kind, space, budget)
        )


def _exceeded(kind, budget):
    return BudgetExceededError("%s search exceeded budget %d" % (kind, budget))


def _yes(problem, value, explored):
    cert = certificate(problem, value)
    if not verify_certificate(problem, cert):
        raise OracleSelfCheckError(
            "%s oracle witness %r does not verify" % (problem.kind, value)
        )
    return OracleVerdict(True, cert, explored)


def _subsets(items, max_size):
    """How many subsets of `items` have at most `max_size` members, and
    those subsets by size, then lexicographically."""
    n = len(items)
    sizes = range(min(max_size, n) + 1)
    space = 1 << n if max_size >= n else sum(comb(n, i) for i in sizes)
    return space, chain.from_iterable(combinations(items, i) for i in sizes)


def _first(n):
    return range(1, n + 1)


def _choose(n, k):
    """How many k-subsets 1..n has, and those subsets lexicographically."""
    return comb(n, k), combinations(_first(n), k)


def _partitions(p, _):
    space, candidates = _subsets(_first(len(p.values)), len(p.values))
    # an odd total has no half; the space is still guarded first
    return space, () if sum(p.values) % 2 else candidates


def _trees(g):
    """Root-only trees (no edges) first, then each edge subset rooted at
    each of its endpoints."""
    for root in _first(g.num_vertices):
        yield {"edges": (), "root": root}
    for size in range(1, len(g.edges) + 1):
        for combo in combinations(g.edges, size):
            for root in sorted(set(v for edge in combo for v in edge)):
                yield {"edges": combo, "root": root}


# kind -> (payload, param) -> (size of the candidate space, candidate
# certificate values in the order they are tried)
CANDIDATES = {
    "clique": lambda g, k: _choose(g.num_vertices, k),
    "set_packing": lambda f, l: _choose(f.num_sets, l),
    "node_cover": lambda g, l: _subsets(_first(g.num_vertices), l),
    "set_covering": lambda f, k: _subsets(_first(f.num_sets), k),
    "feedback_node_set": lambda g, k: _subsets(_first(g.num_vertices), k),
    "feedback_arc_set": lambda g, k: _subsets(g.arcs, k),
    "chromatic_number": lambda g, k: (
        max(k, 1) ** g.num_vertices, product(_first(k), repeat=g.num_vertices)),
    "exact_cover": lambda f, _: _subsets(_first(f.num_sets), f.num_sets),
    "hitting_set": lambda f, _: _subsets(_first(f.universe_size), f.universe_size),
    "steiner_tree": lambda s, _: (
        (1 << len(s.graph.edges)) * max(s.graph.num_vertices, 1), _trees(s.graph)),
    "three_dim_matching": lambda f, _: _choose(len(f.triples), f.t_size),
    "knapsack": lambda p, _: _subsets(_first(len(p.values)), len(p.values)),
    "partition": _partitions,
}


def solve(problem, budget=DEFAULT_BUDGET):
    """Decide an instance by brute force, returning the lexicographically
    first witness on YES."""
    validate(problem)
    kind = problem.kind
    p = problem.payload
    if kind in CANDIDATES:
        space, candidates = CANDIDATES[kind](p, problem.param)
        if space:  # an empty space (l > s, t > |U|) is a NO under any budget
            _guard(space, budget, kind)
        is_yes = yes_test(problem)
        explored = 0
        for explored, value in enumerate(candidates, 1):
            if is_yes(value):
                return _yes(problem, value, explored)
        return OracleVerdict(False, None, explored)
    if kind == "ip01":
        _guard(1 << p.num_variables, budget, kind)
        solution = solve_ip(p, var_cap=p.num_variables)
        explored = 1 << p.num_variables
        if solution is None:
            return OracleVerdict(False, None, explored)
        return _yes(problem, solution, explored)
    if kind in ("sat", "threesat"):
        return _solve_sat(problem, budget)
    if kind == "max_cut":
        return _solve_max_cut(problem, budget)
    if kind in ("dhcp", "hcp"):
        return _solve_hamiltonian(problem, budget)
    if kind == "clique_cover":
        return _solve_clique_cover(problem, budget)
    raise UnsupportedKindError("no oracle for kind %r" % kind)


def _solve_sat(problem, budget):
    """Assign x1, x2, ... depth-first, False before True: the order of
    `product((False, True), repeat=n)`.  A clause is checked once, when its
    largest variable is set, and a branch ends when it falsifies one; every
    assignment it skips falsifies that clause.  The witness is the first
    satisfying assignment in that order, so its rank gives `explored`."""
    f = problem.payload
    n = f.num_literals
    _guard(1 << n, budget, problem.kind)
    # due[d]: the clauses whose largest variable is x_d, each as the set of
    # its literals' negations, which are all true iff the clause is false
    due = [[] for _ in range(n + 1)]
    for c in f.clauses:
        due[max(map(abs, c))].append(frozenset(map(neg, c)))
    path = []  # path[i]: the literal of x_{i+1} that the assignment makes true
    true = set()  # the literals in path
    d = 0
    while d < n:
        d += 1
        path.append(-d)
        true.add(-d)
        while any(map(true.issuperset, due[d])):
            # next sibling: drop the variables already at True, then flip one
            while path[-1] > 0:
                true.discard(path.pop())
                d -= 1
                if not d:
                    return OracleVerdict(False, None, 1 << n)
            true.discard(-d)
            true.add(d)
            path[-1] = d
    rank = sum(1 << (n - lit) for lit in path if lit > 0)
    return _yes(problem, tuple(lit > 0 for lit in path), rank + 1)


def _solve_max_cut(problem, budget):
    """For each size s = 0, 1, ..., n, the s-subsets of the vertices in
    lexicographic order, the order of `_subsets`: vertices 1..n are placed
    depth-first, picked before left out, and a branch that has picked s
    vertices is a leaf (the rest are left out).  A branch ends when its
    bound falls below the threshold: the cut weight among the placed
    vertices plus the weight of every edge with an unplaced end.
    `explored` is the witness's rank: the smaller subsets, then its
    lexicographic rank among its size."""
    g, k = problem.payload, problem.param
    n = g.num_vertices
    _guard(1 << n, budget, "max_cut")
    if k == 0:  # the empty set comes first, and its cut of 0 meets k
        return _yes(problem, (), 1)
    total = sum(g.weights)
    if total < k:
        return OracleVerdict(False, None, 1 << n)
    # ends[v], weights[v]: v's neighbours u < v and the weights of those edges
    ends, weights = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    degree = [0] * (n + 1)  # the weight of the edges at each vertex
    for (u, v), w in zip(g.edges, g.weights):
        ends[v].append(u)
        weights[v].append(w)
        degree[u] += w
        degree[v] += w
    # rest[v]: the weight of the edges with an end beyond v
    rest = [total]
    for v in _first(n):
        rest.append(rest[-1] - sum(weights[v]))
    picked = _first_cut(n, k, ends, weights, degree, rest)
    if picked is None:
        return OracleVerdict(False, None, 1 << n)
    return _yes(problem, picked, _subset_rank(n, picked) + 1)


def _first_cut(n, k, ends, weights, degree, rest):
    """The first nonempty subset of 1..n, by size and then
    lexicographically, whose cut weighs at least k, or None.  The search
    reads an entry of the arrays below only for vertices placed on its
    current branch, so they serve every size without being cleared."""
    side = [0] * (n + 1)  # side[v]: 1 if vertex v is picked
    to_picked = [0] * (n + 1)  # the weight from v to the picked vertices before it
    cut = [0] * (n + 1)  # cut[v]: the cut weight among vertices 1..v
    picked_cut = [0] * (n + 1)  # the weight of the edges leaving the picked ones of 1..v
    for s in _first(n):
        v, picked = 1, 0
        while v:
            t = to_picked[v] = sum(map(mul, weights[v], map(side.__getitem__, ends[v])))
            side[v] = 1
            picked += 1
            picked_cut[v] = picked_cut[v - 1] + degree[v] - 2 * t
            if picked == s:
                if picked_cut[v] >= k:
                    return tuple(compress(range(v + 1), side))
            else:
                cut[v] = cut[v - 1] + rest[v - 1] - rest[v] - t
                if cut[v] + rest[v] >= k:
                    v += 1
                    continue
            # leave v out; failing that, go back to the last vertex picked
            # before it and leave that one out instead (none left: v is 0)
            while v:
                side[v] = 0
                picked -= 1
                cut[v] = cut[v - 1] + to_picked[v]
                # s - picked vertices are still to pick, after v
                if n - v >= s - picked and cut[v] + rest[v] >= k:
                    picked_cut[v] = picked_cut[v - 1]
                    v += 1
                    break
                v -= 1
                while v and not side[v]:
                    v -= 1
    return None


def _subset_rank(n, subset):
    """The 0-based rank of an increasing tuple among the subsets of 1..n
    in the order of `_subsets`: all smaller subsets, then, for each member,
    the subsets of its size that agree before it and have a smaller member
    in its place."""
    s, previous = len(subset), 0
    rank = sum(comb(n, j) for j in range(s))
    for i, x in enumerate(subset):
        rank += comb(n - previous, s - i) - comb(n - x + 1, s - i)
        previous = x
    return rank


def _solve_hamiltonian(problem, budget):
    """Depth-first search over vertex orders anchored at vertex 1, trying
    successors in increasing order; adjacency pruning only skips orders
    that cannot extend to a cycle.  Every visited node counts against the
    budget."""
    p = problem.payload
    n = p.num_vertices
    directed = problem.kind == "dhcp"
    if n < (2 if directed else 3):
        return OracleVerdict(False, None, 0)
    if directed:
        succ = {v: sorted(w for u, w in p.arcs if u == v) for v in _first(n)}
        closing = {u for u, w in p.arcs if w == 1}
    else:
        succ = {v: set() for v in _first(n)}
        for i, j in p.effective_edges():
            succ[i].add(j)
            succ[j].add(i)
        succ = {v: sorted(ws) for v, ws in succ.items()}
        closing = set(succ[1])

    path, used = [1], {1}
    untried = [iter(succ[1])]  # untried[d]: successors of path[d] left to try
    explored = 1
    if explored > budget:
        raise _exceeded(problem.kind, budget)
    while untried:
        for w in untried[-1]:
            if w not in used:
                break
        else:
            untried.pop()
            used.discard(path.pop())
            continue
        path.append(w)
        used.add(w)
        explored += 1
        if explored > budget:
            raise _exceeded(problem.kind, budget)
        if len(path) < n:
            untried.append(iter(succ[w]))
        elif w in closing:
            return _yes(problem, tuple(path), explored)
        else:
            used.discard(path.pop())
    return OracleVerdict(False, None, explored)


def _solve_clique_cover(problem, budget):
    """Enumerate set partitions of the vertices with at most `l` blocks as
    restricted growth strings, lexicographically.  Every leaf counts
    against the budget."""
    p = problem.payload
    n, l = p.num_vertices, problem.param
    if n == 0:
        return _yes(problem, (), 1)
    if l == 0:
        return OracleVerdict(False, None, 0)
    is_yes = yes_test(problem)
    rgs = [0] * n  # rgs[v - 1]: block of vertex v
    top = [0] * n  # top[i]: max(rgs[:i + 1])
    explored = 0
    while True:
        explored += 1
        if explored > budget:
            raise _exceeded("clique_cover", budget)
        blocks = [[] for _ in range(top[-1] + 1)]
        for v, b in enumerate(rgs, start=1):
            blocks[b].append(v)
        blocks = tuple(map(tuple, blocks))
        if is_yes(blocks):
            return _yes(problem, blocks, explored)
        # next string: bump the last position that can grow, zero the rest
        i = n - 1
        while i > 0 and rgs[i] >= min(top[i - 1] + 1, l - 1):
            i -= 1
        if i == 0:
            return OracleVerdict(False, None, explored)
        rgs[i] += 1
        top[i] = max(top[i - 1], rgs[i])
        rgs[i + 1:] = [0] * (n - i - 1)
        top[i + 1:] = [top[i]] * (n - i - 1)
