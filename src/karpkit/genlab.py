"""Seeded random instance generators for property tests and growth audits.

Randomness is counter-based: each item family (spanning-tree anchors,
vertex pairs, arcs, edge weights, triples, items, clauses, clause sizes,
sets, IP rows) draws from one Philox stream keyed on (seed, family label),
and the one-off draws of an instance (its parameter, its terminals) from a
stream of their own.  A family's items are drawn in one batch, in an order
that only appends as the scale grows: pairs column by column (j = 2..n,
then i = 1..j-1), arcs in blocks by their larger endpoint, edge weights at
their pair's position in that order, one row of uniforms per clause, set
or IP row, and 3DM triples one after another.  A GeneratorSpec therefore
always reproduces the identical instance, and growing a scale parameter
extends the instance without re-rolling the items already present, so
element-mode size never shrinks as scale grows.

A kind's carrier picks its builder and its scale rule from `_CARRIERS`,
and a builder draws a parameter only for a kind whose `KINDS` entry names
one, so a kind that reuses a carrier needs no edit here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binprog import BinaryProgram, ConstraintRow, VariableTag
from .instances import (
    CnfFormula,
    DiGraph,
    KINDS,
    IntegerList,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    validate,
)

_MASK = (1 << 64) - 1


def _stream(seed, label):
    """Philox generator keyed exactly on (seed mod 2^64, hash of label)."""
    h = 0
    for ch in label:
        h = (h * 1000003 + ord(ch)) & _MASK
    return np.random.Generator(
        np.random.Philox(key=np.array([seed & _MASK, h], dtype=np.uint64))
    )


def _ints(u, low, high):
    """Map uniforms in [0, 1) to integers in [low, high] (inclusive; `high`
    may be an array)."""
    return low + np.floor(u * (high - low + 1)).astype(np.int64)


def _int(rng, low, high):
    # inclusive bounds
    return int(_ints(rng.random(), low, high))


def _pairs(n):
    """Vertex pairs (i, j), i < j, column by column: j = 2..n, then
    i = 1..j-1.  The first m(m-1)/2 pairs are the pairs among 1..m."""
    j = np.repeat(np.arange(2, n + 1), np.arange(1, n))
    # i counts up from 1 within each column
    i = np.arange(len(j)) - _pair_pos(1, j) + 1
    return i, j


def _pair_pos(i, j):
    """Position of pair (i, j), i < j, in `_pairs` order."""
    return (j - 1) * (j - 2) // 2 + i - 1


def _ranked(keys, sizes):
    """Row r: the first sizes[r] of 1..k in the order of row r's k uniform
    keys, i.e. that many distinct values in random order."""
    order = (np.argsort(keys, axis=1, kind="stable") + 1).tolist()
    return [row[:size] for row, size in zip(order, sizes)]


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    seed: int
    params: dict = field(default_factory=dict)

    def with_params(self, **overrides):
        return GeneratorSpec(self.kind, self.seed, {**self.params, **overrides})


def _connected_graph(seed, n, density):
    """Random connected graph: vertex v >= 2 attaches to an earlier anchor,
    then each pair is added independently with the given density."""
    i, j = _pairs(n)
    chosen = _stream(seed, "pair").random(len(i)) < density
    v = np.arange(2, n + 1)
    anchors = _ints(_stream(seed, "tree").random(len(v)), 1, v - 1)
    chosen[_pair_pos(anchors, v)] = True
    return tuple(sorted(zip(i[chosen].tolist(), j[chosen].tolist())))


def _edge_weights(seed, n, edges, max_weight):
    """Weights in 1..max_weight, edge (i, j) taking the uniform at its pair's
    position in `_pairs` order."""
    u = _stream(seed, "weight").random(n * (n - 1) // 2)
    pos = [_pair_pos(i, j) for i, j in edges]
    return tuple(_ints(u[pos], 1, max_weight).tolist())


def _digraph_with_cycles(seed, n, density):
    """Random digraph containing the rotation cycle 1->2->...->n->1 (every
    vertex keeps in/out degree >= 1) plus density-selected extra arcs, drawn
    in blocks by larger endpoint m: (i, m), (m, i) for i = 1..m-1."""
    i, m = _pairs(n)
    tails = np.column_stack((i, m)).ravel()
    heads = np.column_stack((m, i)).ravel()
    chosen = _stream(seed, "arc").random(len(tails)) < density
    arcs = set(zip(tails[chosen].tolist(), heads[chosen].tolist()))
    arcs.update((v, v % n + 1) for v in range(1, n + 1))
    return tuple(sorted(arcs))


def _clauses(seed, m, sizes):
    """Clause r: sizes[r] distinct variables of 1..m, each negated on a coin
    flip; one row of 2m uniforms per clause."""
    u = _stream(seed, "clause").random((len(sizes), 2 * m))
    negated = (u[:, m:] >= 0.5).tolist()
    return tuple([
        tuple([-v if neg else v for v, neg in zip(chosen, flips)])
        for chosen, flips in zip(_ranked(u[:, :m], sizes), negated)
    ])


def _random_family(seed, universe, num_sets, max_set):
    """Random set family; set i structurally contains element
    ((i-1) mod universe)+1 so families with at least `universe` sets cover
    the whole universe.  One row of universe+1 uniforms per set."""
    if num_sets > 0 and universe < 1:
        raise ValueError("sets need a universe of at least 1 element")
    u = _stream(seed, "set").random((num_sets, universe + 1))
    sizes = _ints(u[:, 0], 1, max(1, min(max_set, universe))).tolist()
    sets = []
    for i, members in enumerate(_ranked(u[:, 1:], sizes), 1):
        sets.append(tuple(sorted(set(members) | {(i - 1) % universe + 1})))
    return tuple(sets)


def _triples(seed, t, count):
    """The first min(count, t^3) distinct triples over 1..t, drawn one after
    another from the triple stream."""
    rng = _stream(seed, "triple")
    want = min(count, t ** 3)
    triples = set()
    while len(triples) < want:
        for triple in _ints(rng.random((2 * want, 3)), 1, t).tolist():
            triples.add(tuple(triple))
            if len(triples) == want:
                break
    return tuple(sorted(triples))


def _param(kind, p, top, low, high):
    """The given parameter, else one drawn from `top` in min(low, high)..high;
    None, with no draw, for a kind whose `KINDS` entry names no parameter."""
    if KINDS[kind].param is None:
        return None
    return p["param"] if "param" in p else _int(top, min(low, high), high)


def _cnf(kind, seed, p, top):
    n = p.get("clauses", 4)
    m = p.get("literals", max(3, n))
    if kind == "threesat":
        sizes = [min(3, m)] * n
    else:
        drawn = _ints(_stream(seed, "csize").random(n), 1, p.get("max_clause", 5))
        sizes = np.minimum(drawn, m).tolist()
    return Problem(kind, CnfFormula(m, _clauses(seed, m, sizes)))


def _ugraph(kind, seed, p, top):
    n = p.get("vertices", 5)
    edges = _connected_graph(seed, n, p.get("density", 0.5))
    if not KINDS[kind].weighted:
        return Problem(kind, UGraph(n, edges), _param(kind, p, top, 1, n))
    weights = _edge_weights(seed, n, edges, p.get("max_weight", 5))
    return Problem(kind, UGraph(n, edges, weights), _param(kind, p, top, 0, sum(weights)))


def _digraph(kind, seed, p, top):
    n = p.get("vertices", 5)
    g = DiGraph(n, _digraph_with_cycles(seed, n, p.get("density", 0.3)))
    return Problem(kind, g, _param(kind, p, top, 0, max(1, len(g.arcs) // 2)))


def _set_family(kind, seed, p, top):
    universe, num_sets = p.get("universe", 5), p.get("sets", 4)
    fam = SetFamily(universe, _random_family(seed, universe, num_sets, p.get("max_set", 3)))
    return Problem(kind, fam, _param(kind, p, top, 1, num_sets))


def _steiner(kind, seed, p, top):
    n, max_weight = p.get("vertices", 4), p.get("max_weight", 4)
    edges = _connected_graph(seed, n, p.get("density", 0.5))
    weights = _edge_weights(seed, n, edges, max_weight)
    # the terminal count is drawn from `top` even when given, so the budget
    # drawn after it is the same either way
    count = p.get("terminals", _int(top, 1, n))
    terminals = _stream(seed, "terminals").choice(np.arange(1, n + 1), min(count, n), False)
    total = sum(weights)
    if p.get("generous_budget"):
        budget = total + _int(top, 0, max_weight)
    else:
        budget = p.get("budget", _int(top, 0, total))
    return Problem(kind, SteinerInstance(
        UGraph(n, edges, weights), tuple(sorted(terminals.tolist())), budget))


def _triple_family(kind, seed, p, top):
    t = p.get("t_size", 3)
    return Problem(kind, TripleFamily(t, _triples(seed, t, p.get("triples", max(t, 4)))))


def _integer_list(kind, seed, p, top):
    u = _stream(seed, "item").random(p.get("items", 6))
    values = tuple(_ints(u, 1, p.get("max_value", 12)).tolist())
    target = p.get("target", _int(top, 0, sum(values))) if kind == "knapsack" else None
    return Problem(kind, IntegerList(values, target))


def _binary_program(kind, seed, p, top):
    v = p.get("variables", 6)
    max_terms = p.get("max_terms", min(4, v))
    if not 1 <= max_terms <= v:
        raise ValueError("max_terms must lie in 1..variables")
    # row r: a term count, v variable keys, max_terms coefficients
    # (0 read as 1) and the rhs, from one row of uniforms
    u = _stream(seed, "row").random((p.get("rows", 3), v + max_terms + 2))
    counts = _ints(u[:, 0], 1, max_terms).tolist()
    coefs = _ints(u[:, v + 1:-1], -2, 2).tolist()
    rhs = _ints(u[:, -1], 0, np.array(counts)).tolist()
    out_rows = [
        ConstraintRow(
            tuple([(x - 1, c or 1) for x, c in zip(sorted(chosen), row_coefs)]),
            "=", b, None,
        )
        for chosen, row_coefs, b in zip(_ranked(u[:, 1:v + 1], counts), coefs, rhs)
    ]
    variables = tuple([VariableTag(("x", i)) for i in range(1, v + 1)])
    return Problem(kind, BinaryProgram(variables, tuple(out_rows)))


# carrier -> the builder of its kinds' instances, and the scale rule of
# those kinds: the knob they expose to the growth auditor and the
# parameters that track the scale s (None: the kinds have no knob)
_CARRIERS = {
    CnfFormula: (_cnf, "clauses", lambda s: {"literals": max(3, s)}),
    UGraph: (_ugraph, "vertices", lambda s: {}),
    DiGraph: (_digraph, "vertices", lambda s: {}),
    SetFamily: (_set_family, "sets", lambda s: {"universe": max(3, s)}),
    SteinerInstance: (_steiner, "vertices", lambda s: {}),
    TripleFamily: (_triple_family, "t_size", lambda s: {"triples": 2 * s}),
    IntegerList: (_integer_list, "items", lambda s: {}),
    BinaryProgram: (_binary_program, None, None),
}


def generate(spec):
    """Build a valid instance from a generator spec; a pure function of the
    (kind, seed, params) triple."""
    carrier = getattr(KINDS.get(spec.kind), "carrier", None)
    if carrier is None:
        raise ValueError("no generator for kind %r" % spec.kind)
    build = _CARRIERS[carrier][0]
    return validate(build(spec.kind, spec.seed, spec.params, _stream(spec.seed, "top")))


# kind -> the single scale knob it exposes to the growth auditor
SCALE_PARAM = {
    kind: _CARRIERS[k.carrier][1] for kind, k in KINDS.items()
    if k.carrier is not None and _CARRIERS[k.carrier][1]
}


def scaled_spec(spec, scale):
    """Re-parameterise a spec at a scale point; auxiliary parameters that
    must track the scale are adjusted alongside."""
    knob = SCALE_PARAM[spec.kind]
    track = _CARRIERS[KINDS[spec.kind].carrier][2]
    return spec.with_params(**{knob: scale}, **track(scale))
