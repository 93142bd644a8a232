import hashlib
import time
from itertools import chain, combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from karpkit.instances import (
    CnfFormula,
    DiGraph,
    IntegerList,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    UnsupportedKindError,
    verify_certificate,
    yes_test,
)
from karpkit import oracles
from karpkit.genlab import GeneratorSpec, generate
from karpkit.oracles import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    OracleSelfCheckError,
    solve,
)


def test_hcp_k4_yes():
    edges = tuple(combinations(range(1, 5), 2))
    v = solve(Problem("hcp", UGraph(4, edges)))
    assert v.answer
    assert len(v.certificate.value) == 4


def test_clique_p3_no():
    v = solve(Problem("clique", UGraph(3, ((1, 2), (2, 3))), param=3))
    assert not v.answer and v.certificate is None


def test_partition_all_ones_no():
    v = solve(Problem("partition", IntegerList((1, 1, 1))))
    assert not v.answer


def test_witnesses_verify():
    cases = [
        Problem("sat", CnfFormula(3, ((1, -2), (2, 3)))),
        Problem("node_cover", UGraph(3, ((1, 2), (2, 3))), param=1),
        Problem("set_covering", SetFamily(3, ((1, 2), (3,))), param=2),
        Problem("exact_cover", SetFamily(3, ((1, 2), (3,), (1, 3)))),
        Problem("hitting_set", SetFamily(3, ((1, 2), (2, 3)))),
        Problem("three_dim_matching", TripleFamily(2, ((1, 1, 1), (2, 2, 2)))),
        Problem("knapsack", IntegerList((2, 3, 5), 8)),
        Problem("max_cut", UGraph(3, ((1, 2), (2, 3)), (1, 2)), param=3),
        Problem("chromatic_number", UGraph(3, ((1, 2), (2, 3))), param=2),
        Problem("clique_cover", UGraph(3, ((1, 2),)), param=2),
        Problem("feedback_node_set", DiGraph(3, ((1, 2), (2, 1), (2, 3))), param=1),
        Problem("feedback_arc_set", DiGraph(2, ((1, 2), (2, 1))), param=1),
        Problem(
            "steiner_tree",
            SteinerInstance(UGraph(3, ((1, 2), (2, 3)), (1, 1)), (1, 3), 2),
        ),
        Problem("dhcp", DiGraph(3, ((1, 2), (2, 3), (3, 1)))),
    ]
    for p in cases:
        v = solve(p)
        assert v.answer, p.kind
        assert verify_certificate(p, v.certificate), p.kind


def test_verdict_is_truthy():
    assert solve(Problem("partition", IntegerList((2, 2))))
    assert not solve(Problem("partition", IntegerList((1, 2))))


def test_budget_refusal_on_large_space():
    p = Problem("sat", CnfFormula(30, ((1, 2, 3),)))
    with pytest.raises(BudgetExceededError):
        solve(p, budget=1 << 10)


def test_budget_counts_search_leaves_not_space():
    # a sparse Hamiltonian search is prunable far below n! leaves
    n = 12
    edges = tuple((i, i + 1) for i in range(1, n)) + ((1, n),)
    v = solve(Problem("hcp", UGraph(n, edges)), budget=1 << 12)
    assert v.answer


def test_lexicographically_first_witness():
    p = Problem("knapsack", IntegerList((2, 2, 2), 2))
    v = solve(p)
    assert v.certificate.value == (1,)


def test_witness_self_check_is_not_an_assert(monkeypatch):
    # must raise under `python -O` too, where assert statements are dropped
    monkeypatch.setattr(oracles, "verify_certificate", lambda problem, cert: False)
    with pytest.raises(OracleSelfCheckError):
        solve(Problem("partition", IntegerList((2, 2))))


def test_empty_space_is_no_under_any_budget():
    packing = Problem("set_packing", SetFamily(2, ((1,), (2,))), param=3)
    matching = Problem("three_dim_matching", TripleFamily(2, ((1, 1, 1),)))
    for problem in (packing, matching):
        v = solve(problem, budget=-1)
        assert (v.answer, v.explored) == (False, 0)


def test_odd_partition_is_guarded_before_its_shortcut():
    odd = Problem("partition", IntegerList((1, 1, 1)))
    v = solve(odd, budget=8)
    assert (v.answer, v.explored) == (False, 0)
    with pytest.raises(BudgetExceededError):
        solve(odd, budget=7)


def test_explored_counter_monotone():
    p = Problem("partition", IntegerList((1, 2, 3, 4)))
    v = solve(p)
    assert v.explored >= 1


# ---------------------------------------------------------------------------
# the depth-first searches against the enumerators they replaced
# ---------------------------------------------------------------------------


def _record(problem, budget):
    try:
        v = solve(problem, budget=budget)
        return (v.answer, v.certificate and v.certificate.value, v.explored)
    except BudgetExceededError as exc:
        return ("refused", str(exc))


def _enumerated(problem, budget, space, candidates):
    """The first candidate, in order, that passes the kind's YES test, and
    its 1-based rank; or NO and the size of the space."""
    if space > budget:
        return ("refused", "%s search space %d exceeds budget %d" % (
            problem.kind, space, budget))
    is_yes = yes_test(problem)
    explored = 0
    for explored, value in enumerate(candidates, 1):
        if is_yes(value):
            return (True, value, explored)
    return (False, None, explored)


def _assignments(problem, budget):
    n = problem.payload.num_literals
    return _enumerated(problem, budget, 1 << n, product((False, True), repeat=n))


def _upto(n):
    return range(1, n + 1)


# kind -> (payload, param) -> (the items, in order, and the subset sizes)
_SUBSETS = {
    "clique": lambda g, k: (_upto(g.num_vertices), [k]),
    "set_packing": lambda f, l: (_upto(f.num_sets), [l]),
    "three_dim_matching": lambda f, _: (_upto(len(f.triples)), [f.t_size]),
    "node_cover": lambda g, l: (_upto(g.num_vertices), range(l + 1)),
    "set_covering": lambda f, k: (_upto(f.num_sets), range(k + 1)),
    "feedback_node_set": lambda g, k: (_upto(g.num_vertices), range(k + 1)),
    "feedback_arc_set": lambda g, k: (g.arcs, range(k + 1)),
    "exact_cover": lambda f, _: (_upto(f.num_sets), range(f.num_sets + 1)),
    "hitting_set": lambda f, _: (_upto(f.universe_size), range(f.universe_size + 1)),
    "knapsack": lambda p, _: (_upto(len(p.values)), range(len(p.values) + 1)),
    "partition": lambda p, _: (_upto(len(p.values)), range(len(p.values) + 1)),
    "max_cut": lambda g, _: (_upto(g.num_vertices), range(g.num_vertices + 1)),
}


def _subsets_by_size(problem, budget):
    """The subsets of each size, in `combinations` order; an odd partition
    has no candidate once its space is guarded."""
    items, sizes = _SUBSETS[problem.kind](problem.payload, problem.param)
    space = sum(comb(len(items), s) for s in sizes)
    candidates = chain.from_iterable(combinations(items, s) for s in sizes)
    if problem.kind == "partition" and sum(problem.payload.values) % 2:
        candidates = ()
    return _enumerated(problem, budget, space, candidates)


@st.composite
def cnf_problems(draw):
    kind = draw(st.sampled_from(("sat", "threesat")))
    n = draw(st.integers(0, 12))
    if n == 0:
        return Problem(kind, CnfFormula(0, ()))
    literal = st.integers(1, n).flatmap(lambda x: st.sampled_from((x, -x)))
    width = draw(st.integers(1, 3 if kind == "threesat" else n))
    m = draw(st.integers(0, 40))  # a drawn count: hypothesis keeps lists short
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=width).map(tuple),
                            min_size=m, max_size=m))
    return Problem(kind, CnfFormula(n, tuple(clauses)))


@st.composite
def max_cut_problems(draw):
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(1, n + 1), 2))
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, chosen in zip(pairs, picked) if chosen]
    weights = draw(st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges)))
    total = sum(weights)
    # thresholds in the upper half are met, if at all, by larger subsets
    k = draw(st.integers(0, total + 1) | st.integers(total // 2, total + 1))
    return Problem("max_cut", UGraph.make(n, edges, weights), k)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(cnf_problems(), st.integers(0, 300))
def test_sat_search_matches_the_enumerator(problem, drawn):
    for budget in (DEFAULT_BUDGET, 40, 0, drawn):
        assert _record(problem, budget) == _assignments(problem, budget)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(max_cut_problems())
def test_max_cut_search_matches_the_enumerator(problem):
    for budget in (DEFAULT_BUDGET, 40):
        assert _record(problem, budget) == _subsets_by_size(problem, budget)


def _edges(draw, n):
    pairs = list(combinations(range(1, n + 1), 2))
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [pair for pair, chosen in zip(pairs, picked) if chosen]


def _subsets_of(draw, n, count):
    """`count` subsets of 1..n, each as an increasing tuple, possibly empty."""
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    return tuple(tuple(x for x in range(1, n + 1) if mask >> (x - 1) & 1) for mask in masks)


@st.composite
def subset_problems(draw, kind):
    if kind in ("clique", "node_cover"):
        n = draw(st.integers(0, 10))
        return Problem(kind, UGraph.make(n, _edges(draw, n)), draw(st.integers(0, n)))
    if kind in ("set_packing", "set_covering", "exact_cover", "hitting_set"):
        u, m = draw(st.integers(0, 8)), draw(st.integers(0, 9))
        family = SetFamily(u, _subsets_of(draw, u, m))
        if kind == "set_packing":  # l = m + 1 leaves no candidate
            return Problem(kind, family, draw(st.integers(0, m + 1)))
        if kind == "set_covering":
            return Problem(kind, family, draw(st.integers(0, m)))
        return Problem(kind, family)
    if kind in ("feedback_node_set", "feedback_arc_set"):
        n = draw(st.integers(0, 6))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        # arcs in drawn order, self-loops too; at most 12, so 2^12 candidates
        arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if n else []
        top = n if kind == "feedback_node_set" else len(arcs)
        return Problem(kind, DiGraph(n, tuple(arcs)), draw(st.integers(0, top + 1)))
    if kind == "three_dim_matching":
        t = draw(st.integers(0, 3))
        coordinate = st.integers(1, max(t, 1))
        triples = draw(st.lists(st.tuples(coordinate, coordinate, coordinate),
                                unique=True, max_size=10)) if t else []
        return Problem(kind, TripleFamily(t, tuple(triples)))
    values = tuple(draw(st.lists(st.integers(1, 30), max_size=10)))
    if kind == "knapsack":
        return Problem(kind, IntegerList(values, draw(st.integers(0, sum(values) + 1))))
    return Problem(kind, IntegerList(values))


@pytest.mark.parametrize("kind", sorted(set(_SUBSETS) - {"max_cut"}))
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data())
def test_subset_search_matches_the_enumerator(kind, data):
    problem = data.draw(subset_problems(kind))
    for budget in (DEFAULT_BUDGET, 40):
        assert _record(problem, budget) == _subsets_by_size(problem, budget)


def test_choose_rank_of_a_witness_last_in_its_size():
    # 4-5 is the last of the C(5, 2) = 10 pairs
    v = solve(Problem("clique", UGraph(5, ((4, 5),)), 2))
    assert (v.answer, v.certificate.value, v.explored) == (True, (4, 5), 10)
    # the first triple meets the other two: the last of C(3, 2) = 3 pairs
    triples = TripleFamily(2, ((1, 1, 1), (1, 2, 2), (2, 1, 1)))
    v = solve(Problem("three_dim_matching", triples))
    assert (v.answer, v.certificate.value, v.explored) == (True, (2, 3), 3)
    # the subset kinds count every smaller size: 1 empty set, then 5 singletons
    star = UGraph(5, ((1, 5), (2, 5), (3, 5), (4, 5)))
    v = solve(Problem("node_cover", star, 1))
    assert (v.answer, v.certificate.value, v.explored) == (True, (5,), 6)


def test_choose_search_ranks_a_witness_it_never_enumerates():
    # 21..40 is the one 20-clique and the last of C(40, 20) ~ 1.4e11 subsets
    n, k = 40, 20
    edges = tuple(combinations(range(k + 1, n + 1), 2))
    start = time.perf_counter()
    v = solve(Problem("clique", UGraph(n, edges), k), budget=comb(n, k))
    assert time.perf_counter() - start < 1.0
    assert (v.answer, v.certificate.value, v.explored) == (
        True, tuple(range(k + 1, n + 1)), comb(n, k))


def test_sat_search_ranks_a_witness_it_never_enumerates():
    # the witness is the last of 2^40 assignments: enumerating them would
    # take days, the search visits 80 nodes
    n = 40
    problem = Problem("sat", CnfFormula(n, tuple((i,) for i in range(1, n + 1))))
    start = time.perf_counter()
    v = solve(problem, budget=1 << n)
    assert time.perf_counter() - start < 1.0
    assert (v.answer, v.certificate.value, v.explored) == (True, (True,) * n, 1 << n)


def test_sat_search_never_cuts_at_a_clause_with_x_and_not_x():
    # x1 False falsifies (x1); x1 True must not be read as falsifying (x1, -x1)
    for kind in ("sat", "threesat"):
        problem = Problem(kind, CnfFormula(2, ((1, -1), (2, 1, -2), (1,))))
        assert _record(problem, DEFAULT_BUDGET) == (True, (True, False), 3)


def _colourings(problem, budget):
    """Colourings in `product` order, colours 1..k."""
    n, k = problem.payload.num_vertices, problem.param
    return _enumerated(problem, budget, max(k, 1) ** n, product(range(1, k + 1), repeat=n))


def _growth_strings(n, l):
    """The restricted growth strings of length n with at most l blocks,
    lexicographically: the empty string if n = 0, none if l = 0 < n."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(min(max(s, default=-1) + 2, l))]
    return strings


def _partitions(problem, budget):
    """Set partitions as restricted growth strings; every string, the
    empty one too, counts against the budget."""
    n, l = problem.payload.num_vertices, problem.param
    is_yes = yes_test(problem)
    explored = 0
    for explored, rgs in enumerate(_growth_strings(n, l), 1):
        if explored > budget:
            return ("refused", "clique_cover search exceeded budget %d" % budget)
        blocks = tuple(tuple(v for v in _upto(n) if rgs[v - 1] == b)
                       for b in range(max(rgs, default=-1) + 1))
        if is_yes(blocks):
            return (True, blocks, explored)
    return (False, None, explored)


@st.composite
def colouring_problems(draw, kind):
    n = draw(st.integers(0, 6 if kind == "chromatic_number" else 8))
    complement = kind == "clique_cover" and draw(st.booleans())
    graph = UGraph.make(n, _edges(draw, n), complement=complement)
    return Problem(kind, graph, draw(st.integers(0, n)))


@pytest.mark.parametrize("kind, reference", [
    ("chromatic_number", _colourings), ("clique_cover", _partitions)])
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_colouring_search_matches_the_enumerator(kind, reference, data):
    problem = data.draw(colouring_problems(kind))
    for budget in (DEFAULT_BUDGET, 40, 0, data.draw(st.integers(0, 300))):
        assert _record(problem, budget) == reference(problem, budget)


def test_chromatic_search_ranks_colourings_it_never_enumerates():
    # every vertex after the triangle 1-2-3 is joined to 1 and 2, so it
    # takes colour 3: the last colouring that starts 1, 2, at rank 2 * 3^38
    n, k = 40, 3
    edges = ((1, 2), (1, 3), (2, 3)) + tuple((u, v) for v in range(4, n + 1) for u in (1, 2))
    start = time.perf_counter()
    v = solve(Problem("chromatic_number", UGraph(n, edges), k), budget=k ** n)
    assert (v.answer, v.certificate.value, v.explored) == (True, (1, 2) + (3,) * 38, 2 * 3 ** 38)
    # a K4 in front: NO after all 3^40 colourings, none of them enumerated
    k4 = tuple(combinations(range(1, 5), 2))
    v = solve(Problem("chromatic_number", UGraph(n, k4), k), budget=k ** n)
    assert (v.answer, v.explored) == (False, k ** n)
    assert time.perf_counter() - start < 1.0


def test_clique_cover_search_ranks_a_witness_it_never_enumerates():
    # three cliques dealt round-robin: the witness is the string 0 1 2 0 1 2
    # ..., past ~3.4e13 others.  With l = 3, r more positions leave 3^r
    # completions once 2 or 3 blocks are in use, and (3^r + 1) / 2 with 1.
    n, l = 30, 3
    edges = tuple(pair for pair in combinations(_upto(n), 2) if (pair[1] - pair[0]) % 3 == 0)
    before = (3 ** 28 + 1) // 2 + 2 * 3 ** 27 + sum(i % 3 * 3 ** (n - 1 - i) for i in range(3, n))
    start = time.perf_counter()
    v = solve(Problem("clique_cover", UGraph(n, edges), l), budget=3 ** n)
    assert time.perf_counter() - start < 1.0
    blocks = tuple(tuple(range(b, n + 1, 3)) for b in (1, 2, 3))
    assert (v.answer, v.certificate.value, v.explored) == (True, blocks, before + 1)
    # a budget one short of the rank refuses, as the enumeration did
    with pytest.raises(BudgetExceededError, match="clique_cover search exceeded budget"):
        solve(Problem("clique_cover", UGraph(n, edges), l), budget=before)


def _unpruned(problem, budget):
    """The Hamiltonian search without its look-ahead: vertex orders from
    vertex 1, successors in increasing order, every visited node counted."""
    p = problem.payload
    n = p.num_vertices
    if problem.kind == "dhcp":
        arcs, shortest = p.arcs, 2
    else:
        arcs, shortest = p.edges + tuple((j, i) for i, j in p.edges), 3
    if n < shortest:
        return (False, None, 0)
    succ = {v: sorted(w for u, w in arcs if u == v) for v in _upto(n)}
    stack, explored = [(1,)], 0
    while stack:
        path = stack.pop()
        explored += 1
        if explored > budget:
            return ("refused", "%s search exceeded budget %d" % (problem.kind, budget))
        if len(path) == n:
            if (path[-1], 1) in arcs:
                return (True, path, explored)
            continue
        stack.extend(path + (w,) for w in reversed(succ[path[-1]]) if w not in path)
    return (False, None, explored)


@st.composite
def hamiltonian_problems(draw):
    n = draw(st.integers(0, 7))
    if draw(st.booleans()):
        return Problem("hcp", UGraph.make(n, _edges(draw, n)))
    pairs = [(i, j) for i in _upto(n) for j in _upto(n)]  # self-loops too
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Problem("dhcp", DiGraph(n, tuple(a for a, chosen in zip(pairs, picked) if chosen)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(hamiltonian_problems())
def test_hamiltonian_look_ahead_keeps_every_answer_in_fewer_nodes(problem):
    for budget in (DEFAULT_BUDGET, 40):
        old = _unpruned(problem, budget)
        if old[0] != "refused":
            new = _record(problem, budget)
            assert new[:2] == old[:2] and new[2] <= old[2]


@pytest.mark.parametrize("problem, record, unpruned", [
    # after 1 -> 4, vertex 3's one arc out leads onto the path
    (Problem("dhcp", DiGraph(4, ((1, 4), (2, 3), (3, 4), (4, 1), (4, 2)))),
     (False, None, 2), 4),
    # after 1 -> 2 -> 3, vertex 4's one arc in comes from inside the path
    (Problem("dhcp", DiGraph(4, ((1, 2), (1, 4), (2, 3), (3, 1), (4, 1)))),
     (False, None, 3), 4),
    # after 1 -> 2 -> 3, vertex 4 keeps one usable neighbour, 3
    (Problem("hcp", UGraph(4, ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))),
     (True, (1, 2, 4, 3), 5), 6),
    # vertex 3 has no arc out: NO at the root
    (Problem("dhcp", DiGraph(3, ((1, 2), (2, 1), (2, 3)))), (False, None, 1), 3),
], ids=["dhcp-out", "dhcp-in", "hcp-neighbours", "dhcp-root"])
def test_hamiltonian_look_ahead_cuts(problem, record, unpruned):
    assert _record(problem, DEFAULT_BUDGET) == record
    assert _unpruned(problem, DEFAULT_BUDGET)[2] == unpruned


def _trees(problem, budget):
    """The steiner_tree candidates the search replaced: root-only trees,
    then each edge subset, by size in `combinations` order, rooted at each
    of its endpoints in increasing order."""
    g = problem.payload.graph
    def trees():
        for root in _upto(g.num_vertices):
            yield {"edges": (), "root": root}
        for size in range(1, len(g.edges) + 1):
            for combo in combinations(g.edges, size):
                for root in sorted(set(chain.from_iterable(combo))):
                    yield {"edges": combo, "root": root}
    return _enumerated(problem, budget, (1 << len(g.edges)) * max(g.num_vertices, 1), trees())


def _steiner(n, edges, weights, terminals, budget):
    return Problem("steiner_tree", SteinerInstance(
        UGraph(n, tuple(edges), tuple(weights)), tuple(terminals), budget))


@st.composite
def steiner_problems(draw):
    n = draw(st.integers(1, 7))
    pairs = list(combinations(_upto(n), 2))
    # edges in drawn order, at most 10: 2^10 * 7 candidates; isolated vertices too
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    weights = draw(st.lists(st.integers(0, 4), min_size=len(edges), max_size=len(edges)))
    picked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    terminals = [v for v, chosen in zip(_upto(n), picked) if chosen] or [draw(st.integers(1, n))]
    total = sum(weights)
    # budgets in the upper half let larger trees through
    budget = draw(st.integers(0, total + 1) | st.integers(total // 2, total + 1))
    return _steiner(n, edges, weights, terminals, budget)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(steiner_problems())
@example(_steiner(3, (), (), (2,), 0))  # edgeless: a root-only witness
@example(_steiner(3, (), (), (1, 3), 5))  # edgeless, two terminals: NO
@example(_steiner(4, ((2, 3), (1, 2), (1, 3)), (0, 0, 0), (1, 3), 0))  # zero weights
@example(_steiner(5, ((1, 2), (2, 3), (3, 4)), (1, 2, 1), (1, 4), 3))  # over budget
def test_steiner_search_matches_the_enumerator(problem):
    for budget in (DEFAULT_BUDGET, 40):
        assert _record(problem, budget) == _trees(problem, budget)


def test_steiner_no_explores_the_closed_form():
    # a triangle 1-2-3 and the pendant edge 3-4; joining 1 and 4 takes two
    # edges, over the budget of 1.  Vertex degrees (2, 2, 3, 1) over e = 4
    # edges: n + sum over v of (2^e - 2^(e - d_v)) = 4 + 12 + 12 + 14 + 8
    problem = _steiner(4, ((1, 2), (1, 3), (2, 3), (3, 4)), (1, 1, 1, 1), (1, 4), 1)
    assert _record(problem, DEFAULT_BUDGET) == (False, None, 50)
    assert _trees(problem, DEFAULT_BUDGET) == (False, None, 50)


# sha256 over repr((answer, witness value, explored)) or ("refused", message)
# of solve(generate(GeneratorSpec(kind, s, {}))) for s = 0..99, one line
# each; (default budget, budget 40) per kind
GOLDEN = {
    "chromatic_number": (
        "35a9869257a2f44698f4302ae551c51b41e25281dbf2e46cc317516151ce0970",
        "56eb5c759c435cf5f80e22241fc6422f158fbe3dcf02d5c4d0969f020db06a92",
    ),
    "clique": (
        "39a6174c545e1c331f1462f0e164c923c5d2c4cf4647d3d55ee22828bcae831d",
        "39a6174c545e1c331f1462f0e164c923c5d2c4cf4647d3d55ee22828bcae831d",
    ),
    "clique_cover": (
        "32292b8a73d0a7b14c050217d5c92719f23b796155a071661fa05f5ef4db7ddd",
        "32292b8a73d0a7b14c050217d5c92719f23b796155a071661fa05f5ef4db7ddd",
    ),
    "dhcp": (
        "a45f16fa53d7d2b0f82c6ad54506f3242989a2c63b23ca32af17572ef958d09a",
        "a45f16fa53d7d2b0f82c6ad54506f3242989a2c63b23ca32af17572ef958d09a",
    ),
    "exact_cover": (
        "86f4b725992b45700cd69ce50962888a0397716d8e9098268d8e0dc56017849f",
        "86f4b725992b45700cd69ce50962888a0397716d8e9098268d8e0dc56017849f",
    ),
    "feedback_arc_set": (
        "5a98bb28bb2e51c57114a22b3e088fd8f186025b6e5d29c834de0bdb9fd64ac1",
        "b0488add588e0fb04da65d22e56089f4143442923164f830dd6e928dc448c309",
    ),
    "feedback_node_set": (
        "6abc2e211891741a7ea56f0c8bb33200be34898bc98ce85defe6997af338bdd9",
        "6abc2e211891741a7ea56f0c8bb33200be34898bc98ce85defe6997af338bdd9",
    ),
    "hcp": (
        "28619f0bf359104b0ac996a085e62c7dff330a87c8bdb55d932350eac7a10020",
        "28619f0bf359104b0ac996a085e62c7dff330a87c8bdb55d932350eac7a10020",
    ),
    "hitting_set": (
        "527040e75af987a88240f1972372afad48af4fcd247e88648daeb7d9d6d7ec0e",
        "527040e75af987a88240f1972372afad48af4fcd247e88648daeb7d9d6d7ec0e",
    ),
    "ip01": (
        "4029ce0b62faf837097c28ac11548f6e67b1dd72990c8e7e89940c8e30ff59d7",
        "cfbbbd8400cf73a81b34f69649311081db409092667740bbaff2eefcc5a1de28",
    ),
    "knapsack": (
        "064a83174236f513a7f5eee8f169e4904662c7f85bc78bbd98c130e0659e4fb3",
        "327b772f59024549c6c1bc7b04eb40f1e21913c8f46ed7b0dd295ccf8969f124",
    ),
    "max_cut": (
        "8537d841841f3c763ee118f77ceb5379520076ebadf219f2584d91b57d97ebec",
        "8537d841841f3c763ee118f77ceb5379520076ebadf219f2584d91b57d97ebec",
    ),
    "node_cover": (
        "1c60a760a368decbbaba67649826140b5a27ae471c2670e93d4ec0cf9112b6c0",
        "1c60a760a368decbbaba67649826140b5a27ae471c2670e93d4ec0cf9112b6c0",
    ),
    "partition": (
        "9bc194ebcdc44334641a311559c74b45be41b7a986de1222b2300b8964de9662",
        "c7eb31dfb2d153e58a4c27483ce0b546b5312bfc18c4ce01ba2ffcf349fa18dd",
    ),
    "sat": (
        "bfe98afa51f962bb5833ecfe105d2dc01efece469222099cef010fa10f0ce43e",
        "bfe98afa51f962bb5833ecfe105d2dc01efece469222099cef010fa10f0ce43e",
    ),
    "set_covering": (
        "b115f2da572fbe5aa20992079f42e839d0ada71c61a62af32db6b384eb81604b",
        "b115f2da572fbe5aa20992079f42e839d0ada71c61a62af32db6b384eb81604b",
    ),
    "set_packing": (
        "908ff2844e2b02609e26013b03b141b1c7b65ea2cb8da67764fe9ba07c907865",
        "908ff2844e2b02609e26013b03b141b1c7b65ea2cb8da67764fe9ba07c907865",
    ),
    "steiner_tree": (
        "32056fc0b6cf38b37ca2f7123fe8e8c9dc5a9074a593a95d76cb5554b4edaa66",
        "f7e28b726d1614e2905187f3e3130f331ae59205d43f1c3ea2358312182a8da8",
    ),
    "three_dim_matching": (
        "8a17ac35002a2c595c4f2b0030e7179d81c7671d12f38b7a0ab611f9723edd89",
        "8a17ac35002a2c595c4f2b0030e7179d81c7671d12f38b7a0ab611f9723edd89",
    ),
    "threesat": (
        "dd8270f21b3fce61d3b8c28d5c52f7d5e467ddb22ea407c0ecc8511e244dd203",
        "dd8270f21b3fce61d3b8c28d5c52f7d5e467ddb22ea407c0ecc8511e244dd203",
    ),
}


def _golden_digest(kind, budget):
    h = hashlib.sha256()
    for s in range(100):
        problem = generate(GeneratorSpec(kind, s, {}))
        try:
            v = solve(problem, budget=budget)
            record = (v.answer, v.certificate and v.certificate.value, v.explored)
        except BudgetExceededError as exc:
            record = ("refused", str(exc))
        h.update(repr(record).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_golden_verdicts_witnesses_and_explored(kind):
    assert (_golden_digest(kind, DEFAULT_BUDGET), _golden_digest(kind, 40)) == GOLDEN[kind]


# ---------------------------------------------------------------------------
# the Hamiltonian and clique-cover searches at their edges: too few vertices,
# no block allowed, and each budget refusal
# ---------------------------------------------------------------------------


_K6_ARCS = tuple((i, j) for i in range(1, 7) for j in range(1, 7) if i != j)
_PATH6_CHORD = tuple((i, i + 1) for i in range(1, 6)) + ((1, 3),)
_K4 = UGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


@pytest.mark.parametrize("problem, budget, record", [
    (Problem("hcp", UGraph(2, ((1, 2),))), DEFAULT_BUDGET, (False, None, 0)),
    (Problem("dhcp", DiGraph(1, ())), DEFAULT_BUDGET, (False, None, 0)),
    (Problem("dhcp", DiGraph(6, _K6_ARCS)), 0,
     ("refused", "dhcp search exceeded budget 0")),
    (Problem("hcp", UGraph(6, _PATH6_CHORD)), 8, (False, None, 1)),
    (Problem("clique_cover", UGraph(0, ()), 0), DEFAULT_BUDGET, (True, (), 1)),
    (Problem("clique_cover", UGraph(3, ((1, 2),)), 0), DEFAULT_BUDGET, (False, None, 0)),
    (Problem("clique_cover", UGraph(6, ()), 3), 5,
     ("refused", "clique_cover search exceeded budget 5")),
    (Problem("clique_cover", UGraph(0, ()), 0), 0,
     ("refused", "clique_cover search exceeded budget 0")),
    (Problem("hcp", _K4), 1, ("refused", "hcp search exceeded budget 1")),
    (Problem("hcp", _K4), 2, ("refused", "hcp search exceeded budget 2")),
    (Problem("hcp", _K4), 3, ("refused", "hcp search exceeded budget 3")),
    (Problem("hcp", _K4), 4, (True, (1, 2, 3, 4), 4)),
], ids=["hcp-2", "dhcp-1", "dhcp-K6-budget", "hcp-chord-budget", "clique_cover-empty",
        "clique_cover-l0", "clique_cover-budget", "clique_cover-empty-budget0",
        "hcp-K4-budget1", "hcp-K4-budget2", "hcp-K4-budget3", "hcp-K4-budget4"])
def test_hamiltonian_and_clique_cover_edges(problem, budget, record):
    assert _record(problem, budget) == record


def test_job_sequencing_has_no_oracle():
    with pytest.raises(UnsupportedKindError) as exc:
        solve(Problem("job_sequencing", None))
    assert str(exc.value) == "no oracle for kind 'job_sequencing'"
