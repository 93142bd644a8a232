"""Exhaustive decision oracles: desk-scale ground truth with certificates.

Every oracle enumerates its full candidate space (within a leaf budget) in a
fixed lexicographic order, so verdicts and witnesses are deterministic.
Pruning only skips candidates that provably cannot verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Optional

from .instances import (
    Certificate,
    UnsupportedKindError,
    validate,
    verify_certificate,
)
from .binprog import VarCapExceededError, solve_ip

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


def _subsets_upto(items, max_size):
    for size in range(0, max_size + 1):
        yield from combinations(items, size)


def _yes(problem, kind, value, explored):
    cert = Certificate(kind, value)
    if not verify_certificate(problem, cert):
        raise OracleSelfCheckError(
            "%s oracle witness %r does not verify" % (problem.kind, value)
        )
    return OracleVerdict(True, cert, explored)


def solve(problem, budget=DEFAULT_BUDGET):
    """Decide an instance by brute force, returning the lexicographically
    first witness on YES."""
    validate(problem)
    kind = problem.kind
    p = problem.payload

    if kind in ("sat", "threesat"):
        m = p.num_literals
        _guard(1 << m, budget, kind)
        explored = 0
        for bits in product((False, True), repeat=m):
            explored += 1
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in p.clauses):
                return _yes(problem, "assignment", bits, explored)
        return OracleVerdict(False, None, explored)

    if kind == "ip01":
        _guard(1 << p.num_variables, budget, kind)
        try:
            solution = solve_ip(p, var_cap=p.num_variables)
        except VarCapExceededError as exc:  # pragma: no cover - guarded above
            raise BudgetExceededError(str(exc))
        explored = 1 << p.num_variables
        if solution is None:
            return OracleVerdict(False, None, explored)
        return _yes(problem, "binary", solution, explored)

    if kind == "clique":
        n, k = p.num_vertices, problem.param
        _guard(comb(n, k), budget, kind)
        edges = set(p.effective_edges())
        explored = 0
        for combo in combinations(range(1, n + 1), k):
            explored += 1
            if all((a, b) in edges for a, b in combinations(combo, 2)):
                return _yes(problem, "vertex_set", combo, explored)
        return OracleVerdict(False, None, explored)

    if kind == "node_cover":
        n, l = p.num_vertices, problem.param
        _guard(sum(comb(n, i) for i in range(l + 1)), budget, kind)
        explored = 0
        for combo in _subsets_upto(range(1, n + 1), l):
            explored += 1
            chosen = set(combo)
            if all(i in chosen or j in chosen for i, j in p.edges):
                return _yes(problem, "vertex_set", combo, explored)
        return OracleVerdict(False, None, explored)

    if kind == "set_packing":
        s, l = p.num_sets, problem.param
        if l > s:
            return OracleVerdict(False, None, 0)
        _guard(comb(s, l), budget, kind)
        explored = 0
        sets = [set(x) for x in p.sets]
        for combo in combinations(range(1, s + 1), l):
            explored += 1
            seen = set()
            ok = True
            for i in combo:
                if seen & sets[i - 1]:
                    ok = False
                    break
                seen |= sets[i - 1]
            if ok:
                return _yes(problem, "set_indices", combo, explored)
        return OracleVerdict(False, None, explored)

    if kind == "set_covering":
        s, k = p.num_sets, problem.param
        _guard(sum(comb(s, i) for i in range(k + 1)), budget, kind)
        target = p.union()
        explored = 0
        for combo in _subsets_upto(range(1, s + 1), k):
            explored += 1
            covered = set()
            for i in combo:
                covered.update(p.sets[i - 1])
            if covered == target:
                return _yes(problem, "set_indices", combo, explored)
        return OracleVerdict(False, None, explored)

    if kind == "feedback_node_set":
        n, k = p.num_vertices, problem.param
        _guard(sum(comb(n, i) for i in range(k + 1)), budget, kind)
        explored = 0
        for combo in _subsets_upto(range(1, n + 1), k):
            explored += 1
            cert = Certificate("vertex_set", combo)
            if verify_certificate(problem, cert):
                return OracleVerdict(True, cert, explored)
        return OracleVerdict(False, None, explored)

    if kind == "feedback_arc_set":
        e, k = len(p.arcs), problem.param
        _guard(sum(comb(e, i) for i in range(min(k, e) + 1)), budget, kind)
        explored = 0
        for combo in _subsets_upto(p.arcs, min(k, e)):
            explored += 1
            cert = Certificate("arc_set", combo)
            if verify_certificate(problem, cert):
                return OracleVerdict(True, cert, explored)
        return OracleVerdict(False, None, explored)

    if kind in ("dhcp", "hcp"):
        return _solve_hamiltonian(problem, budget)

    if kind == "chromatic_number":
        n, k = p.num_vertices, problem.param
        _guard(max(k, 1) ** n, budget, kind)
        explored = 0
        colors = range(1, k + 1)
        for assignment in product(colors, repeat=n):
            explored += 1
            if all(assignment[i - 1] != assignment[j - 1] for i, j in p.edges):
                return _yes(problem, "coloring", assignment, explored)
        return OracleVerdict(False, None, explored)

    if kind == "clique_cover":
        return _solve_clique_cover(problem, budget)

    if kind == "exact_cover":
        s = p.num_sets
        _guard(1 << s, budget, kind)
        explored = 0
        target = p.union()
        for combo in _subsets_upto(range(1, s + 1), s):
            explored += 1
            covered = []
            for i in combo:
                covered.extend(p.sets[i - 1])
            if len(covered) == len(set(covered)) and set(covered) == target:
                return _yes(problem, "set_indices", combo, explored)
        return OracleVerdict(False, None, explored)

    if kind == "hitting_set":
        u = p.universe_size
        _guard(1 << u, budget, kind)
        explored = 0
        sets = [set(s) for s in p.sets]
        for combo in _subsets_upto(range(1, u + 1), u):
            explored += 1
            w = set(combo)
            if all(len(w & s) == 1 for s in sets):
                return _yes(problem, "element_set", combo, explored)
        return OracleVerdict(False, None, explored)

    if kind == "steiner_tree":
        e = len(p.graph.edges)
        _guard((1 << e) * max(p.graph.num_vertices, 1), budget, kind)
        explored = 0
        # root-only candidates first (zero-edge trees), then edge subsets
        for root in range(1, p.graph.num_vertices + 1):
            explored += 1
            cert = Certificate("tree", {"edges": (), "root": root})
            if verify_certificate(problem, cert):
                return OracleVerdict(True, cert, explored)
        for size in range(1, e + 1):
            for combo in combinations(p.graph.edges, size):
                endpoints = sorted(set(v for edge in combo for v in edge))
                for root in endpoints:
                    explored += 1
                    cert = Certificate("tree", {"edges": combo, "root": root})
                    if verify_certificate(problem, cert):
                        return OracleVerdict(True, cert, explored)
        return OracleVerdict(False, None, explored)

    if kind == "three_dim_matching":
        u = len(p.triples)
        if p.t_size > u:
            return OracleVerdict(False, None, 0)
        _guard(comb(u, p.t_size), budget, kind)
        explored = 0
        for combo in combinations(range(1, u + 1), p.t_size):
            explored += 1
            cert = Certificate("triple_indices", combo)
            if verify_certificate(problem, cert):
                return OracleVerdict(True, cert, explored)
        return OracleVerdict(False, None, explored)

    if kind in ("knapsack", "partition"):
        r = len(p.values)
        _guard(1 << r, budget, kind)
        if kind == "knapsack":
            target = p.target
        else:
            total = sum(p.values)
            if total % 2 == 1:
                return OracleVerdict(False, None, 0)
            target = total // 2
        explored = 0
        for combo in _subsets_upto(range(1, r + 1), r):
            explored += 1
            if sum(p.values[i - 1] for i in combo) == target:
                return _yes(problem, "item_indices", combo, explored)
        return OracleVerdict(False, None, explored)

    if kind == "max_cut":
        n = p.num_vertices
        _guard(1 << n, budget, kind)
        wmap = p.weight_of()
        explored = 0
        for combo in _subsets_upto(range(1, n + 1), n):
            explored += 1
            s = set(combo)
            cut = sum(w for (i, j), w in wmap.items() if (i in s) != (j in s))
            if cut >= problem.param:
                return _yes(problem, "vertex_set", combo, explored)
        return OracleVerdict(False, None, explored)

    raise UnsupportedKindError("no oracle for kind %r" % kind)


def _solve_hamiltonian(problem, budget):
    """DFS over vertex orders anchored at vertex 1; adjacency pruning only
    skips orders that cannot extend to a cycle."""
    p = problem.payload
    n = p.num_vertices
    directed = problem.kind == "dhcp"
    minimum = 2 if directed else 3
    if n < minimum:
        return OracleVerdict(False, None, 0)
    if directed:
        succ = {v: sorted(w for u, w in p.arcs if u == v) for v in range(1, n + 1)}
        has_arc = set(p.arcs)
    else:
        succ = {v: set() for v in range(1, n + 1)}
        for i, j in p.effective_edges():
            succ[i].add(j)
            succ[j].add(i)
        succ = {v: sorted(ws) for v, ws in succ.items()}
        has_arc = None

    explored = 0
    path = [1]
    used = {1}

    def closes(last):
        if directed:
            return (last, 1) in has_arc
        return 1 in succ[last]

    def dfs():
        # every visited search node counts against the budget; pruning only
        # cuts subtrees, it never skips a candidate that could verify
        nonlocal explored
        explored += 1
        if explored > budget:
            raise BudgetExceededError(
                "%s search exceeded budget %d" % (problem.kind, budget)
            )
        if len(path) == n:
            return closes(path[-1])
        for w in succ[path[-1]]:
            if w in used:
                continue
            path.append(w)
            used.add(w)
            if dfs():
                return True
            used.discard(w)
            path.pop()
        return False

    if dfs():
        return _yes(problem, "cycle", tuple(path), explored)
    return OracleVerdict(False, None, explored)


def _solve_clique_cover(problem, budget):
    """Enumerate set partitions of the vertices (restricted growth strings)
    with at most `l` blocks, lexicographically."""
    p = problem.payload
    n, l = p.num_vertices, problem.param
    if n == 0:
        cert = Certificate("clique_partition", ())
        return OracleVerdict(True, cert, 1)
    if l == 0:
        return OracleVerdict(False, None, 0)
    edges = set(p.effective_edges())
    explored = 0

    def blocks_of(rgs):
        blocks = {}
        for v, b in enumerate(rgs, start=1):
            blocks.setdefault(b, []).append(v)
        return tuple(tuple(b) for _, b in sorted(blocks.items()))

    def is_clique(block):
        return all(
            (a, b) in edges for idx, a in enumerate(block) for b in block[idx + 1 :]
        )

    def rec(rgs, max_used):
        nonlocal explored
        v = len(rgs)
        if v == n:
            explored += 1
            if explored > budget:
                raise BudgetExceededError(
                    "clique_cover search exceeded budget %d" % budget
                )
            blocks = blocks_of(rgs)
            if all(is_clique(b) for b in blocks):
                return blocks
            return None
        for b in range(0, min(max_used + 1, l - 1) + 1):
            rgs.append(b)
            result = rec(rgs, max(max_used, b))
            if result is not None:
                return result
            rgs.pop()
        return None

    result = rec([0], 0)
    if result is not None:
        return _yes(problem, "clique_partition", result, explored)
    return OracleVerdict(False, None, explored)
