"""Exhaustive decision oracles: desk-scale ground truth with certificates.

An oracle never re-states what a witness is: it tests candidates with
`instances.yes_test`, the YES test that `verify_certificate` applies after
its shape check.  Every oracle answers as an enumeration of its candidates
in a fixed lexicographic order would: it returns the first candidate that
passes the YES test, and `explored` counts the candidates that enumeration
tries, the witness's 1-based rank, or all of them on NO.  A space larger
than the budget is refused before any search.

Two searches are shared.  `_first_subset` decides the twelve kinds whose
witness is a subset of items: clique, set_packing and three_dim_matching
(one size), node_cover, set_covering, feedback_node_set and
feedback_arc_set (up to a size), exact_cover, hitting_set, knapsack,
partition and max_cut (any size).  For each size, smallest first, it places
the items in order, picked before left out, the order of `combinations`; a
kind's `SUBSETS` entry gives the checks that cut a branch.  It also decides
steiner_tree, over edge subsets rooted at their least endpoint.
`_first_word` decides the kinds whose witness is a word, one letter per
position: sat/threesat (x1, x2, ... False before True), chromatic_number
(vertices 1..n, colours ascending) and clique_cover (vertices 1..n into
blocks, the restricted growth strings with at most `l` blocks).  Both cut
only where no candidate below passes the YES test and compute `explored`
from the witness's rank, so a witness deep in a large space is never
enumerated.

Three kinds keep searches of their own: ip01 calls `solve_ip`
(bound-pruned, guarded by its 2^v space); dhcp walks vertex orders
depth-first, looking ahead at the vertices left off the path, and hcp runs
the same search over both arc directions of each edge.  dhcp, hcp and
clique_cover are not guarded: they refuse once the nodes visited, or the
words ranked, pass the budget.  Every search uses explicit stacks, not
recursion.  A kind's oracle is its one `ORACLES` entry, a search returning
the witness value (None on NO) and `explored`; `solve` alone makes the
certificate and checks it once more with `verify_certificate`.  Verdicts
and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb
from operator import add
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


def _first(n):
    return range(1, n + 1)


# ---------------------------------------------------------------------------
# the subset kinds.  Items are numbered 0..n-1 here, and so are the bits of
# every mask: vertex, element or set v is bit v - 1.  A kind's checks are a
# first state and two functions, pick and leave, that map the state before
# item i is placed to the state after it, or to None where no subset below
# the branch passes the YES test.
# ---------------------------------------------------------------------------


def _keep(state, i):
    return state


def _bits(members):
    """The mask of distinct members numbered from 1."""
    return sum(1 << (x - 1) for x in members)


def _disjoint(masks):
    """Picked items whose masks do not meet; the state is their union."""
    def pick(used, i):
        return None if used & masks[i] else used | masks[i]
    return 0, pick, _keep


def _earlier(g):
    """earlier[i]: the mask of the neighbours of item i (vertex i + 1)
    that come before it."""
    earlier = [0] * g.num_vertices
    for u, v in g.edges:  # stored with u < v
        earlier[v - 1] |= 1 << (u - 1)
    return earlier


def _clique(g):
    """Each vertex picked is adjacent to every one picked before it; the
    state is the picked mask."""
    earlier = _earlier(g)
    def pick(picked, i):
        return picked | 1 << i if earlier[i] & picked == picked else None
    return 0, pick, _keep


def _node_cover(g):
    """A vertex left out needs its earlier neighbours picked; the state is
    the picked mask."""
    earlier = _earlier(g)
    def leave(picked, i):
        return picked if earlier[i] & picked == earlier[i] else None
    return 0, lambda picked, i: picked | 1 << i, leave


def _covers(f, disjoint):
    """Sets that cover their union, each element once if `disjoint`: a set
    is left out only if every element whose last set it is is covered
    already.  The state is the covered mask."""
    sets = [_bits(s) for s in f.sets]
    last = {x: i for i, s in enumerate(f.sets) for x in s}
    due = [0] * len(sets)  # due[i]: the elements whose last set is i
    for x, i in last.items():
        due[i] |= 1 << (x - 1)
    def pick(covered, i):
        return None if disjoint and covered & sets[i] else covered | sets[i]
    def leave(covered, i):
        return covered if due[i] & covered == due[i] else None
    return 0, pick, leave


def _hits(f):
    """Elements that hit no set twice; an element is left out only if every
    set whose largest element it is has been hit.  The state is the mask of
    the sets hit."""
    holders = [0] * f.universe_size  # holders[e]: the sets holding element e + 1
    due = [0] * f.universe_size  # due[e]: the sets whose largest element is e + 1
    for j, s in enumerate(f.sets):
        for x in s:
            holders[x - 1] |= 1 << j
        if s:
            due[max(s) - 1] |= 1 << j
    def pick(hit, e):
        return None if hit & holders[e] else hit | holders[e]
    def leave(hit, e):
        return hit if due[e] & hit == due[e] else None
    return 0, pick, leave


def _acyclic_nodes(g):
    """The vertices left out stay acyclic; the state is their mask."""
    succ = [0] * g.num_vertices
    for u, v in g.arcs:
        succ[u - 1] |= 1 << (v - 1)
    def leave(kept, i):
        kept |= 1 << i
        # walk forward from i through the kept vertices; reaching i is a cycle
        seen = frontier = succ[i] & kept
        while frontier:
            if frontier >> i & 1:
                return None
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= succ[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & kept & ~seen
            seen |= frontier
        return kept
    return 0, _keep, leave


def _acyclic_arcs(g):
    """The arcs left out stay acyclic.  The state is their reachability
    matrix in one integer: bit n*x + y is set when x reaches y along them,
    and every vertex reaches itself."""
    n = g.num_vertices
    column = sum(1 << n * x for x in range(n))  # bit 0 of every row
    row = (1 << n) - 1
    arcs = [(u - 1, v - 1) for u, v in g.arcs]
    def leave(reach, i):
        u, v = arcs[i]
        if reach >> n * v + u & 1:  # v reaches u: u -> v would close a cycle
            return None
        # whatever reaches u now reaches whatever v reaches
        return reach | (reach >> u & column) * (reach >> n * v & row)
    return sum(1 << (n + 1) * x for x in range(n)), _keep, leave


def _sum_to(values, target):
    """The picked sum stays at or below the target, and that sum plus every
    value not yet placed still reaches it; the state is the picked sum."""
    after = [0] * len(values)  # after[i]: the sum of the values beyond item i
    for i in range(len(values) - 1, 0, -1):
        after[i - 1] = after[i] + values[i]
    def pick(total, i):
        total += values[i]
        return total if total <= target else None
    def leave(total, i):
        return total if total + after[i] >= target else None
    return 0, pick, leave


def _half(p):
    total = sum(p.values)
    # an odd total has no half: no candidate, after the space is guarded
    return None if total % 2 else _sum_to(p.values, total // 2)


def _cut_reaches(g, k):
    """The cut weight among the placed vertices, plus the weight of every
    edge with an end not yet placed, stays at least k.  The state is the
    weight from each vertex to the picked ones, and that cut weight."""
    n = g.num_vertices
    row = [[0] * n for _ in range(n)]  # row[i][u]: the weight of the edge i - u
    earlier = [0] * n  # the weight of the edges from each vertex to earlier ones
    rest = [0] * n  # rest[i]: the weight of the edges with an end beyond i
    for (u, v), w in zip(g.edges, g.weights):
        row[u - 1][v - 1] = row[v - 1][u - 1] = w
        earlier[v - 1] += w
        rest[v - 2] += w  # v > 1: edges are stored as (u, v) with u < v
    for i in range(n - 2, -1, -1):
        rest[i] += rest[i + 1]
    def pick(state, i):
        to_picked, cut = state
        cut += earlier[i] - to_picked[i]
        if cut + rest[i] < k:
            return None
        return tuple([*map(add, to_picked, row[i])]), cut
    def leave(state, i):
        to_picked, cut = state
        cut += to_picked[i]
        return (to_picked, cut) if cut + rest[i] >= k else None
    return ((0,) * n, 0), pick, leave


# kind -> (payload, param) -> (the items' certificate members in order, the
# smallest and the largest subset size, and the checks; None if no subset
# is a candidate)
SUBSETS = {
    "clique": lambda g, k: (_first(g.num_vertices), k, k, _clique(g)),
    "set_packing": lambda f, l: (
        _first(f.num_sets), l, l, _disjoint([_bits(s) for s in f.sets])),
    "node_cover": lambda g, l: (_first(g.num_vertices), 0, l, _node_cover(g)),
    "set_covering": lambda f, k: (_first(f.num_sets), 0, k, _covers(f, False)),
    "feedback_node_set": lambda g, k: (_first(g.num_vertices), 0, k, _acyclic_nodes(g)),
    "feedback_arc_set": lambda g, k: (g.arcs, 0, k, _acyclic_arcs(g)),
    "exact_cover": lambda f, _: (_first(f.num_sets), 0, f.num_sets, _covers(f, True)),
    "hitting_set": lambda f, _: (_first(f.universe_size), 0, f.universe_size, _hits(f)),
    "three_dim_matching": lambda f, _: (
        _first(len(f.triples)), f.t_size, f.t_size,
        _disjoint([_bits((a, f.t_size + b, 2 * f.t_size + c)) for a, b, c in f.triples])),
    "knapsack": lambda p, _: (
        _first(len(p.values)), 0, len(p.values), _sum_to(p.values, p.target)),
    "partition": lambda p, _: (_first(len(p.values)), 0, len(p.values), _half(p)),
    "max_cut": lambda g, k: (_first(g.num_vertices), 0, g.num_vertices, _cut_reaches(g, k)),
}


def solve(problem, budget=DEFAULT_BUDGET):
    """Decide an instance by brute force, returning the lexicographically
    first witness on YES."""
    validate(problem)
    search = ORACLES.get(problem.kind)
    if search is None:
        raise UnsupportedKindError("no oracle for kind %r" % problem.kind)
    value, explored = search(problem, budget)
    if value is None:
        return OracleVerdict(False, None, explored)
    cert = certificate(problem, value)
    if not verify_certificate(problem, cert):
        raise OracleSelfCheckError("%s oracle witness %r does not verify" % (problem.kind, value))
    return OracleVerdict(True, cert, explored)


def _solve_ip(problem, budget):
    """`solve_ip`, guarded by the 2^v space, which is also `explored`."""
    space = 1 << problem.payload.num_variables
    _guard(space, budget, problem.kind)
    return solve_ip(problem.payload), space


def _solve_sat(problem, budget):
    """Assign x1, x2, ... False (0) before True (1), the order of
    `product((False, True), repeat=n)`.  A clause is checked when its
    largest variable is set, and a value that falsifies it is cut."""
    n = problem.payload.num_literals
    _guard(1 << n, budget, problem.kind)
    # due[i]: the clauses whose largest variable is x_{i+1}, as the masks of
    # their variables and of those negated: false iff exactly the latter hold
    due = [[] for _ in range(n)]
    for c in problem.payload.clauses:
        pos = neg = 0
        for lit in c:
            if lit > 0:
                pos |= 1 << lit - 1
            else:
                neg |= 1 << -lit - 1
        if not pos & neg:  # x or -x is never false
            due[(pos | neg).bit_length() - 1].append((pos | neg, neg))
    def place(true, i, c):  # true: the mask of the variables set True
        true |= c << i
        for members, negated in due[i]:
            if true & members == negated:
                return None
        return true
    word, explored = _first_word(
        n, 0, lambda _: 2, place, lambda _, i: 1 << n - 1 - i, budget, problem.kind)
    if word is None:
        return None, explored
    return tuple([*map(bool, word)]), explored


def _solve_subsets(problem, budget):
    """For each allowed size s, the s-subsets of the items in lexicographic
    order, the order of `combinations`; the first that passes the YES test
    is the witness, and its rank among the space's candidates gives
    `explored`."""
    members, lo, hi, checks = SUBSETS[problem.kind](problem.payload, problem.param)
    n = len(members)
    sizes = range(lo, min(hi, n) + 1)
    space = 1 << n if lo == 0 and hi >= n else sum(comb(n, s) for s in sizes)
    if not space:  # an empty space (l > s, t > |U|) is a NO under any budget
        return None, 0
    _guard(space, budget, problem.kind)
    if checks is None:
        return None, 0
    is_yes, member = yes_test(problem), members.__getitem__
    path = _first_subset(n, sizes, *checks, lambda path: is_yes(tuple([*map(member, path)])))
    if path is None:
        return None, space
    smaller = sum(comb(n, s) for s in range(lo, len(path)))
    return tuple([*map(member, path)]), smaller + _lex_rank(n, path) + 1


def _first_subset(n, sizes, start, pick, leave, accept):
    """The first subset of the items 0..n-1, by size and then
    lexicographically, that `accept` takes, as a list, or None.  For each
    size s, items are placed depth-first, picked before left out; once s
    are picked, the rest are left out, and a branch that has placed every
    item is a leaf.  `pick` and `leave` map the state before an item is
    placed to the state after it, or to None to cut the branch."""
    for s in sizes:
        path, before = [], []  # before[j]: the state in which path[j] was picked
        i, state, need = 0, start, s  # need: the items still to pick
        while i >= 0:
            if i == n:  # a leaf
                if accept(path):
                    return path
            elif need:
                new = pick(state, i)
                if new is not None:
                    path.append(i)
                    before.append(state)
                    i, state, need = i + 1, new, need - 1
                    continue
            # leave i out; failing that, go back to the last item picked and
            # leave that one out instead (none left: i is -1)
            while True:
                if n - i > need:  # the items after i can still fill s (not at a leaf)
                    new = leave(state, i)
                    if new is not None:
                        i, state = i + 1, new
                        break
                if not path:
                    i = -1
                    break
                i, state, need = path.pop(), before.pop(), need + 1
    return None


def _lex_rank(n, subset):
    """The 0-based rank of an increasing list of items 0..n-1 among the
    subsets of its size in lexicographic order: for each member, the
    subsets that agree before it and have a smaller member in its place."""
    s, rank, free = len(subset), 0, n  # free: the items after the previous member
    for j, x in enumerate(subset):
        rank += comb(free, s - j) - comb(n - x, s - j)
        free = n - x - 1
    return rank


def _first_word(n, start, letters, place, skips, budget, kind):
    """The first word of length n, lexicographically, whose every letter
    `place` takes, as a list, and its rank; or None and the number of
    words.  Position i has `letters(state)` letters 0, 1, ...; `place(state,
    i, c)` maps the state before it to the state after letter c, or to None
    to cut c, skipping `skips(state, i)` words.  Refuses once the words
    skipped, or the witness's rank, pass the budget."""
    word, states = [0] * n, [start] * (n + 1)  # states[i]: the state before position i
    i = skipped = c = 0  # c: the next letter to try at position i
    while i < n:
        state = states[i]
        top, first = letters(state), c
        while c < top:
            new = place(state, i, c)
            if new is not None:
                break
            c += 1
        if c > first:
            skipped += (c - first) * skips(state, i)
        if skipped > budget:
            raise _exceeded(kind, budget)
        if c < top:
            word[i] = c
            i += 1
            states[i] = new
            c = 0
        elif i:  # no letter left: the previous position's next letter
            i -= 1
            c = word[i] + 1
        else:
            return None, skipped
    if skipped >= budget:
        raise _exceeded(kind, budget)
    return word, skipped + 1


def _solve_hamiltonian(problem, budget):
    """Depth-first search over vertex orders anchored at vertex 1, trying
    successors in increasing order; hcp runs the same search with each
    edge as an arc in both directions.  After each step from v to w it
    looks ahead at the vertices off the path that lost an option, the
    successors of v and the predecessors of w, and cuts the branch when
    one of them can no longer join the cycle.  For dhcp such a vertex
    needs an arc in from w or another vertex off the path, and an arc out
    to vertex 1 or another vertex off the path; for hcp, two neighbours
    among w, vertex 1 and the vertices off the path.  Before the first
    step every vertex takes the same test, and one that fails it gives NO
    at once.  A cut branch holds no cycle, so the witness is the first
    cycle in that order.  Every visited node counts against the budget."""
    p = problem.payload
    n = p.num_vertices
    directed = problem.kind == "dhcp"
    if directed:
        arcs, shortest = p.arcs, 2
    else:
        arcs, shortest = p.edges + tuple([(j, i) for i, j in p.edges]), 3
    if n < shortest:
        return None, 0
    explored = 1
    if explored > budget:
        raise _exceeded(problem.kind, budget)
    succ = [[] for _ in range(n + 1)]  # succ[v]: v's successors, increasing
    pred = [[] for _ in range(n + 1)]
    for u, w in sorted(arcs):
        if u != w:  # a self-loop is on no cycle through two or more vertices
            succ[u].append(w)
            pred[w].append(u)
    closing = set(pred[1])
    # ins[x], outs[x]: the usable arcs into and out of x.  A step from v to
    # w costs v's successors an arc in, since v is no longer the path's
    # end, and w's predecessors an arc out.  For hcp `ins` counts usable
    # neighbours: vertex 1 and the path's end stay usable, so only a step
    # away from a vertex v > 1 costs v's neighbours one.
    ins, outs = list(map(len, pred)), list(map(len, succ))
    if directed:
        lose_in, lose_out, need = succ, pred, 1
    else:
        lose_in, lose_out, need = [[], []] + succ[2:], [()] * (n + 1), 2
    if any(ins[x] < need or not outs[x] for x in _first(n)):
        return None, explored

    path, used = [1], [False, True] + [False] * (n - 1)  # used[v]: v is on the path
    untried = [iter(succ[1])]  # untried[d]: successors of path[d] left to try
    while untried:
        for w in untried[-1]:
            if not used[w]:
                break
        else:
            untried.pop()
            w = path.pop()
            used[w] = False
            if path:
                for x in lose_in[path[-1]]:
                    ins[x] += 1
                for x in lose_out[w]:
                    outs[x] += 1
            continue
        v = path[-1]
        path.append(w)
        used[w] = True
        explored += 1
        if explored > budget:
            raise _exceeded(problem.kind, budget)
        for x in lose_in[v]:
            ins[x] -= 1
        for x in lose_out[w]:
            outs[x] -= 1
        if len(path) == n and w in closing:
            return tuple(path), explored
        if len(path) < n and all(
                used[x] or ins[x] >= need and outs[x] for x in chain(succ[v], pred[w])):
            untried.append(iter(succ[w]))
        else:  # a full path that does not close, or a cut branch: back up
            untried.append(iter(()))
    return None, explored


def _solve_chromatic(problem, budget):
    """Colour vertices 1..n in order, colours 1..k (letters 0..k-1)
    ascending, the order of `product(range(1, k + 1), repeat=n)`.  A colour
    that an earlier neighbour holds is cut."""
    g, k, n = problem.payload, problem.param, problem.payload.num_vertices
    _guard(max(k, 1) ** n, budget, problem.kind)
    earlier = _earlier(g)
    def place(classes, i, c):  # bits n*c..n*c+n-1: the vertices of colour c + 1
        return None if classes >> n * c & earlier[i] else classes | 1 << n * c + i
    word, explored = _first_word(
        n, 0, lambda _: k, place, lambda _, i: k ** (n - 1 - i), budget, problem.kind)
    if word is None:
        return None, explored
    return tuple([c + 1 for c in word]), explored


def _solve_clique_cover(problem, budget):
    """Place vertices 1..n in order into blocks, the restricted growth
    strings with at most `l` blocks in lexicographic order: an existing
    block, lowest first, then a new block while fewer than `l` are in use.
    A block holding a non-neighbour of the vertex is cut."""
    g, l, n = problem.payload, problem.param, problem.payload.num_vertices
    if l == 0 < n:  # no string: a NO under any budget
        return None, 0
    adj = [0] * n  # adj[i]: the mask of vertex i + 1's neighbours, bit v - 1 for v
    for u, v in g.effective_edges():
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    # strings[r][j]: the completions of r more positions with j blocks in
    # use and at most l in all
    strings = [[1] * (l + 1)]
    for _ in range(n - 1):
        last = strings[-1]
        strings.append([j * last[j] + (last[j + 1] if j < l else 0) for j in range(l + 1)])
    def place(blocks, i, b):  # blocks[b]: the mask of block b's vertices
        if b == len(blocks):
            return blocks + (1 << i,)
        if blocks[b] & ~adj[i]:
            return None
        return blocks[:b] + (blocks[b] | 1 << i,) + blocks[b + 1:]
    word, explored = _first_word(
        n, (), lambda blocks: min(len(blocks) + 1, l), place,
        lambda blocks, i: strings[n - 1 - i][len(blocks)], budget, problem.kind)
    if word is None:
        return None, explored
    value = [tuple([v for v, c in zip(_first(n), word) if c == b]) for b in range(len(set(word)))]
    return tuple(value), explored


def _solve_steiner(problem, budget):
    """Root-only trees first, roots 1..n; then the edge subsets by size and
    lexicographically, each rooted at each of its endpoints in turn.  Rooted
    at any of its endpoints, a subset passes the YES test or fails it alike,
    so `_first_subset` searches the edge subsets alone, cutting an edge that
    closes a cycle or puts the weight over the budget, and roots the witness
    at its least endpoint.  `explored` counts the endpoints of every subset
    before it."""
    p = problem.payload
    g, n = p.graph, p.graph.num_vertices
    edges, weights, e = g.edges, g.weights, len(g.edges)
    _guard((1 << e) * max(n, 1), budget, problem.kind)
    is_yes = yes_test(problem)
    for root in _first(n):
        value = {"edges": (), "root": root}
        if is_yes(value):
            return value, root
    # after[y][v]: the edges y, y + 1, ... with vertex v + 1 as an endpoint
    after = [[0] * n]
    for u, v in reversed(edges):
        after.append(after[-1][:])
        after[-1][u - 1] += 1
        after[-1][v - 1] += 1
    after.reverse()
    def tree(path):
        combo = tuple([edges[i] for i in path])
        return {"edges": combo, "root": min([u for u, _ in combo])}  # u < v
    def pick(state, i):  # the weight picked, and each vertex's component mask
        weight, component = state
        u, v = edges[i]
        weight += weights[i]
        if weight > p.budget or component[u - 1] >> v - 1 & 1:
            return None
        merged = component[u - 1] | component[v - 1]
        return weight, tuple([merged if c & merged else c for c in component])
    path = _first_subset(e, range(1, e + 1), (0, tuple([1 << v for v in range(n)])),
                         pick, _keep, lambda path: is_yes(tree(path)))
    if path is None:
        return None, n + sum([(1 << e) - (1 << e - d) for d in after[0]])
    def endpoints(r, t, degree, touched):
        """The endpoints, summed over the t-subsets of the last r edges, of
        each subset together with the vertices `touched`; degree[v]: the
        last r edges at vertex v + 1."""
        return n * comb(r, t) - sum([
            comb(r - d, t) for v, d in enumerate(degree) if not touched >> v & 1])
    s = len(path)
    explored = n + sum([endpoints(e, t, after[0], 0) for t in range(1, s)]) + 1
    # the s-subsets before the witness: for each member x, those that agree
    # with the witness before it and hold an edge y < x in its place
    touched = first = 0  # the endpoints of the members before x; the least y
    ends = [1 << u - 1 | 1 << v - 1 for u, v in edges]
    for j, x in enumerate(path):
        for y in range(first, x):
            explored += endpoints(e - y - 1, s - j - 1, after[y + 1], touched | ends[y])
        touched |= ends[x]
        first = x + 1
    return tree(path), explored


# kind -> its search: (problem, budget) -> (the witness value or None, explored)
ORACLES = {
    **dict.fromkeys(SUBSETS, _solve_subsets),
    **dict.fromkeys(("sat", "threesat"), _solve_sat),
    **dict.fromkeys(("dhcp", "hcp"), _solve_hamiltonian),
    "ip01": _solve_ip,
    "chromatic_number": _solve_chromatic,
    "clique_cover": _solve_clique_cover,
    "steiner_tree": _solve_steiner,
}
