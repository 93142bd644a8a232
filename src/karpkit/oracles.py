"""Exhaustive decision oracles: desk-scale ground truth with certificates.

An oracle never re-states what a witness is: it tests candidates with
`instances.yes_test`, the YES test that `verify_certificate` applies after
its shape check.  Most kinds are one entry in `CANDIDATES`: the size of the
candidate space and an iterator over it in a fixed lexicographic order.  One
loop refuses a space larger than the budget, then returns the first
candidate that passes the YES test.  Three kinds keep searches of their own:
ip01 calls `solve_ip` (bound-pruned, guarded by its 2^v space), dhcp/hcp
walk vertex orders depth-first with adjacency pruning, and clique_cover
walks restricted growth strings; the last two count visited nodes or leaves
against the budget and use explicit stacks, not recursion.  Verdicts and
witnesses are deterministic, and every witness is checked once more by
`verify_certificate` before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb
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
    "sat": lambda f, _: (
        1 << f.num_literals, product((False, True), repeat=f.num_literals)),
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
    "max_cut": lambda g, _: _subsets(_first(g.num_vertices), g.num_vertices),
}
CANDIDATES["threesat"] = CANDIDATES["sat"]


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
    if kind in ("dhcp", "hcp"):
        return _solve_hamiltonian(problem, budget)
    if kind == "clique_cover":
        return _solve_clique_cover(problem, budget)
    raise UnsupportedKindError("no oracle for kind %r" % kind)


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
