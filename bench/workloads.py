"""The benchmark's three workloads: seeded inputs, timed ops, output checks.

Inputs of `sweep` and `solve` come from this file's own input functions,
which draw from numpy's ``default_rng``, so that a change to karpkit's
generators cannot change what the oracles are asked to solve.  Only `audit`
goes through ``karpkit.generate``, because the generator layer is what it
exercises.

Each workload is a list of rounds, and a round is a fixed interleaved order
of ops.  The runner times whole rounds in a closed loop: one client, each op
starting when the previous one ends.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import karpkit as kk
from karpkit import (
    BinaryProgram,
    CnfFormula,
    ConstraintRow,
    DiGraph,
    GeneratorSpec,
    IntegerList,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    VariableTag,
)

# Not answer-preserving, see the README's "Known limitations".  Their sweep
# ops still run, and every failure they give is counted and listed.
KNOWN_UNSOUND = frozenset(("fas_to_fns", "steiner_tree_to_ip"))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _rng(seed, *stream):
    return np.random.default_rng([seed, *stream])


def _int(rng, low, high):
    """Uniform integer in [low, high], both inclusive."""
    return int(rng.integers(low, high + 1))


def _pick(rng, n, k):
    """k distinct values of 1..n, sorted."""
    return sorted(int(x) + 1 for x in rng.choice(n, size=k, replace=False))


def _tree(rng, n):
    return {(_int(rng, 1, v - 1), v) for v in range(2, n + 1)}


def _ugraph_edges(rng, n, density):
    """Connected: a random spanning tree, then each other pair with `density`."""
    edges = _tree(rng, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < density:
                edges.add((i, j))
    return tuple(sorted(edges))


def _ugraph_m(rng, n, m):
    """Connected graph with exactly m >= n-1 edges."""
    edges = _tree(rng, n)
    rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (i, j) not in edges]
    for idx in rng.choice(len(rest), size=m - len(edges), replace=False):
        edges.add(rest[int(idx)])
    return tuple(sorted(edges))


def _digraph_arcs(rng, n, density):
    """The rotation cycle 1->2->...->n->1, then each other arc with `density`."""
    arcs = {(v, v % n + 1) for v in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and (i, j) not in arcs and rng.random() < density:
                arcs.add((i, j))
    return tuple(sorted(arcs))


def _digraph_m(rng, n, m):
    """The rotation cycle plus random arcs, exactly m >= n arcs."""
    arcs = {(v, v % n + 1) for v in range(1, n + 1)}
    rest = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if i != j and (i, j) not in arcs]
    for idx in rng.choice(len(rest), size=m - n, replace=False):
        arcs.add(rest[int(idx)])
    return tuple(sorted(arcs))


def _weights(rng, count, top):
    return tuple(_int(rng, 1, top) for _ in range(count))


def _clause(rng, m, size):
    return tuple(v if rng.random() < 0.5 else -v for v in _pick(rng, m, size))


def _family(rng, universe, num_sets, min_set, max_set, cover):
    """Random sets; with `cover`, set i also holds element ((i-1) mod u)+1."""
    sets = []
    for i in range(1, num_sets + 1):
        members = set(_pick(rng, universe, _int(rng, min_set, min(max_set, universe))))
        if cover:
            members.add((i - 1) % universe + 1)
        sets.append(tuple(sorted(members)))
    return tuple(sets)


def _digraph_random(rng, n, density):
    """Each arc (i, j), i != j, independently with `density`."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if i != j and rng.random() < density)


def _exact_cover_sets(rng, universe, num_sets, planted):
    """Random sets of 1..4 elements; `planted` first adds a partition of the
    universe into blocks of 1..4 elements, so the instance is YES."""
    sets = set()
    if planted:
        order = [int(x) + 1 for x in rng.permutation(universe)]
        while order:
            size = _int(rng, 1, 4)
            sets.add(tuple(sorted(order[:size])))
            order = order[size:]
    while len(sets) < num_sets:
        sets.add(tuple(_pick(rng, universe, _int(rng, 1, 4))))
    return tuple(sorted(sets))


def _triples(rng, t, count, planted):
    """`count` distinct triples over 1..t; `planted` first adds a perfect
    matching, so the instance is YES."""
    triples = set()
    if planted:
        ys, zs = rng.permutation(t) + 1, rng.permutation(t) + 1
        triples.update((x, int(y), int(z)) for x, y, z in zip(range(1, t + 1), ys, zs))
    while len(triples) < count:
        triples.add(tuple(_int(rng, 1, t) for _ in range(3)))
    return tuple(sorted(triples))


def _program(rng, v, rows, max_terms):
    out = []
    for _ in range(rows):
        count = _int(rng, 2, max_terms)
        terms = tuple((i - 1, _int(rng, 1, 2) * (1 if rng.random() < 0.5 else -1))
                      for i in _pick(rng, v, count))
        out.append(ConstraintRow(terms, "=", _int(rng, 0, count // 2 + 1), None))
    return BinaryProgram(tuple(VariableTag(("x", i)) for i in range(1, v + 1)), tuple(out))


def _steiner(rng, n, edges, terminals, budget):
    """Weights 1..4; `budget` maps the total weight to the weight budget."""
    weights = _weights(rng, len(edges), 4)
    return SteinerInstance(UGraph(n, edges, weights), tuple(_pick(rng, n, terminals)),
                           budget(sum(weights)))


# The sweep's steiner sources dominate its cost: their images take solve_ip
# 2^14..2^20 assignments.  Their three cost-setting draws are stratified over
# the rounds, keeping each draw's distribution: every 8 rounds hold each
# extra-edge count (Binomial(3, 1/2), as the generator's 4-vertex graphs
# have) in its proportion, each terminal count 1..4 twice and each eighth of
# the uniform budget range once; every 32 rounds give each extra-edge slot
# each terminal count, and every 64 rounds each budget eighth.
# Runs then differ in their instances but hardly in their mix of costs.
_EXTRA_EDGES = (1, 2, 0, 2, 1, 3, 1, 2)
_EIGHTHS = (3, 6, 0, 5, 2, 7, 1, 4)  # a fixed order of the eighths of a range


def _sweep_steiner(rng, r):
    edges = _ugraph_m(rng, 4, 3 + _EXTRA_EDGES[r % 8])
    terminals = 1 + (r % 8 // 2 + r // 8) % 4
    eighth = _EIGHTHS[(r + r // 8) % 8]
    u = (eighth + rng.random()) / 8
    return _steiner(rng, 4, edges, terminals, lambda total: int(u * (total + 1)))


# `sweep` sources: the sizes of the acceptance sweep, i.e. karpkit's generator
# defaults with the acceptance suite's `_family_params` overrides.
def _sweep_source(kind, rng, r):
    if kind == "sat":
        m = 6
        clauses = tuple(_clause(rng, m, min(_int(rng, 1, 5), m)) for _ in range(5))
        return Problem(kind, CnfFormula(m, clauses))
    if kind == "threesat":
        return Problem(kind, CnfFormula(5, tuple(_clause(rng, 5, 3) for _ in range(5))))
    if kind in ("clique", "node_cover", "chromatic_number"):
        return Problem(kind, UGraph(5, _ugraph_edges(rng, 5, 0.5)), _int(rng, 1, 5))
    if kind == "max_cut":
        edges = _ugraph_edges(rng, 5, 0.5)
        weights = _weights(rng, len(edges), 5)
        return Problem(kind, UGraph(5, edges, weights), _int(rng, 0, sum(weights)))
    if kind == "dhcp":
        return Problem(kind, DiGraph(5, _digraph_arcs(rng, 5, 0.3)))
    if kind == "feedback_arc_set":
        arcs = _digraph_arcs(rng, 4, 0.3)
        return Problem(kind, DiGraph(4, arcs), _int(rng, 0, max(1, len(arcs) // 2)))
    if kind in ("set_packing", "set_covering", "exact_cover", "hitting_set"):
        fam = SetFamily(5, _family(rng, 5, 4, 1, 3, cover=True))
        param = _int(rng, 1, 4) if kind in ("set_packing", "set_covering") else None
        return Problem(kind, fam, param)
    if kind == "steiner_tree":
        return Problem(kind, _sweep_steiner(rng, r))
    if kind == "three_dim_matching":
        return Problem(kind, TripleFamily(3, _triples(rng, 3, 4, planted=False)))
    if kind == "knapsack":
        values = _weights(rng, 6, 12)
        return Problem(kind, IntegerList(values, _int(rng, 0, sum(values))))
    if kind == "partition":
        return Problem(kind, IntegerList(_weights(rng, 6, 12)))
    raise ValueError(kind)


def _stratified(rng, r, low, high):
    """Uniform integer in [low, high], like _int, but stratified over the
    rounds: in every 8 consecutive rounds r, each eighth of the range is
    drawn from once.  Runs then differ in their instances but hardly in
    their mix of sizes and answers."""
    u = (_EIGHTHS[r % 8] + rng.random()) / 8
    return low + int(u * (high - low + 1))


def _even(values):
    """Make the sum even, so that a partition instance needs a search."""
    return values if sum(values) % 2 == 0 else values[:-1] + (values[-1] + 1,)


# `solve` instances: one size per kind, chosen so that a NO instance makes
# the oracle explore on the order of 10^4 candidates (10^4-10^5 for the
# cheap-per-candidate kinds), and a parameter range that mixes YES and NO.
# The size and answer-setting draws are stratified over the rounds r.
def _solve_instance(kind, rng, r):
    if kind == "sat":
        m = 14
        return Problem(kind, CnfFormula(m, tuple(
            _clause(rng, m, _int(rng, 2, 4)) for _ in range(_stratified(rng, r, 40, 56)))))
    if kind == "threesat":
        m = 14
        return Problem(kind, CnfFormula(m, tuple(
            _clause(rng, m, 3) for _ in range(_stratified(rng, r, 60, 76)))))
    if kind == "ip01":
        return Problem(kind, _program(rng, 16, _stratified(rng, r, 2, 4), 5))
    if kind == "clique":  # C(18, 6) = 18564
        return Problem(kind, UGraph(18, _ugraph_edges(rng, 18, 0.55)), 6)
    if kind == "node_cover":  # sum_{i<=7} C(16, i) = 26333
        return Problem(kind, UGraph(16, _ugraph_m(rng, 16, _stratified(rng, r, 17, 23))), 7)
    if kind == "set_packing":  # C(18, 6) = 18564
        return Problem(kind, SetFamily(24, _family(rng, 24, 18, 2, 5, cover=False)), 6)
    if kind == "set_covering":  # sum_{i<=5} C(18, i) = 12616
        return Problem(kind, SetFamily(20, _family(rng, 20, 18, 2, 6, cover=True)), 5)
    if kind == "feedback_node_set":  # sum_{i<=5} C(16, i) = 6885
        return Problem(kind, DiGraph(16, _digraph_m(rng, 16, _stratified(rng, r, 44, 56))), 5)
    if kind == "feedback_arc_set":  # sum_{i<=5} C(18, i) = 12616
        return Problem(kind, DiGraph(7, _digraph_m(rng, 7, 18)), 5)
    if kind == "dhcp":
        return Problem(kind, DiGraph(18, _digraph_random(rng, 18, 0.2)))
    if kind == "hcp":
        return Problem(kind, UGraph(13, _ugraph_edges(rng, 13, 0.3)))
    if kind == "chromatic_number":  # 3^9 = 19683
        return Problem(kind, UGraph(9, _ugraph_edges(rng, 9, 0.3)), 3)
    if kind == "clique_cover":  # sum_{j<=4} S(9, j) = 11051
        return Problem(kind, UGraph(9, _ugraph_edges(rng, 9, 0.15)), 4)
    if kind == "exact_cover":  # 2^14
        planted = _stratified(rng, r, 0, 1) == 1
        return Problem(kind, SetFamily(12, _exact_cover_sets(rng, 12, 14, planted)))
    if kind == "hitting_set":  # 2^14
        return Problem(kind, SetFamily(14, _family(rng, 14, 9, 2, 6, cover=False)))
    if kind == "steiner_tree":  # about 7 + 2^11 * 5 candidates
        budget = _stratified(rng, r, 5, 9)
        return Problem(kind, _steiner(rng, 7, _ugraph_m(rng, 7, 11), 4, lambda _: budget))
    if kind == "three_dim_matching":  # C(18, 6) = 18564
        planted = _stratified(rng, r, 0, 1) == 1
        return Problem(kind, TripleFamily(6, _triples(rng, 6, 18, planted)))
    if kind == "knapsack":  # 2^14
        values = _weights(rng, 14, 2000)
        return Problem(kind, IntegerList(values, _stratified(rng, r, 0, sum(values))))
    if kind == "partition":  # 2^14
        return Problem(kind, IntegerList(_even(_weights(rng, 14, 1500))))
    if kind == "max_cut":  # 2^14
        edges = _ugraph_edges(rng, 14, 0.3)
        weights = _weights(rng, len(edges), 5)
        total = sum(weights)
        threshold = _stratified(rng, r, total * 7 // 10, total * 19 // 20)
        return Problem(kind, UGraph(14, edges, weights), threshold)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    rounds: list  # rounds of (op_id, item); a run cycles through them
    run_op: Callable  # item -> outcome; the timed part of an op
    check: Callable  # (item, outcome) -> (ok, detail, digest record)
    tolerated: frozenset  # op ids whose check failures are the known defects
    digest_rounds: int  # every run completes these rounds; the digest covers them
    warmup: list  # items run once, untimed and unchecked, before the timed loop
    elements: Optional[Callable] = None  # outcome -> element size it generated


def _chain_label(chain):
    return ">".join(chain.names)


def sweep_chains():
    """One chain per source kind of a canonical reduction: the kernel route,
    or the dense clique-cover reduction for chromatic_number (itself a kernel)."""
    chains = []
    for rid in kk.CANONICAL_REDUCTIONS:
        kind = kk.REDUCTIONS[rid].source_kind
        chain = (kk.chain_from_names((rid,)) if kind == "chromatic_number"
                 else kk.route_to_kernel(kind))
        if chain not in chains:
            chains.append(chain)
    return chains


def _run_sweep(item):
    chain, source = item
    stages = kk.apply_chain(chain, source)
    image = kk.loads_problem(kk.dumps_problem(stages[-1]))
    image_verdict = kk.solve(image)
    out = {"stage": stages[-1], "image": image, "image_verdict": image_verdict}
    if image_verdict.answer:
        cert = kk.loads_certificate(kk.dumps_certificate(image_verdict.certificate))
        out["cert_round_trip"] = cert == image_verdict.certificate
        try:
            lifted = kk.lift_chain(chain, source, cert)
            out["lifted"] = lifted
            out["lift_ok"] = kk.verify_certificate(source, lifted)
        except Exception as exc:  # a best-effort lift may reject the witness
            out["lift_error"] = type(exc).__name__
    out["source_verdict"] = kk.solve(source)
    return out


def _witness(verdict):
    return None if verdict.certificate is None else verdict.certificate.value


def _check_sweep(item, out):
    chain, _ = item
    src, img = out["source_verdict"], out["image_verdict"]
    lifted = out.get("lifted")
    record = [_chain_label(chain), src.answer, img.answer, _witness(img),
              out.get("lift_error") or (lifted.value if lifted else None)]
    if out["image"] != out["stage"]:
        return False, "image changed in a serialize round trip", record
    if src.answer != img.answer:
        return False, "verdict source=%s image=%s" % (src.answer, img.answer), record
    if img.answer and not out["cert_round_trip"]:
        return False, "certificate changed in a serialize round trip", record
    if img.answer and "lift_error" in out:
        return False, "lift raised " + out["lift_error"], record
    if img.answer and not out["lift_ok"]:
        return False, "lifted witness fails the source verifier", record
    return True, "", record


def sweep(seed, rounds=320):
    chains = sweep_chains()
    rngs = [_rng(seed, 1, i) for i in range(len(chains))]
    pool = []
    for r in range(rounds):
        pool.append([
            (_chain_label(chain),
             (chain, kk.validate(_sweep_source(chain.steps[0].source_kind, rng, r))))
            for chain, rng in zip(chains, rngs)
        ])
    tolerated = frozenset(_chain_label(c) for c in chains
                          if KNOWN_UNSOUND & set(c.names))
    return Workload(pool, _run_sweep, _check_sweep, tolerated, 16,
                    [item for _, item in pool[0]])


SOLVE_KINDS = tuple(k for k in kk.KINDS if k != "job_sequencing")


def _run_solve(item):
    # looks kk.solve up per call, so that a traced run calls the wrapper
    return kk.solve(item)


def _check_solve(problem, verdict):
    record = [problem.kind, verdict.answer, _witness(verdict)]
    if verdict.answer and not kk.verify_certificate(problem, verdict.certificate):
        return False, "witness fails the verifier", record
    return True, "", record


def solve(seed, rounds=64):
    rngs = [_rng(seed, 2, i) for i in range(len(SOLVE_KINDS))]
    # each kind starts its strata at another round, so that no round holds
    # every kind's smallest draw
    pool = [[(kind, kk.validate(_solve_instance(kind, rng, r + i)))
             for i, (kind, rng) in enumerate(zip(SOLVE_KINDS, rngs))]
            for r in range(rounds)]
    return Workload(pool, _run_solve, _check_solve, frozenset(), 2,
                    [item for _, item in pool[0]])


AUDIT_SCALES = (4, 8, 16, 32, 64)
# kinds whose element size carries a +1 offset start lower, to span 16x
WIDE_SCALES = (3, 8, 16, 32, 64)


def _family_params(kind):
    # the acceptance suite's sweep families
    return {
        "sat": {"clauses": 5, "literals": 6},
        "threesat": {"clauses": 5, "literals": 5},
        "steiner_tree": {"vertices": 4},
        "feedback_arc_set": {"vertices": 4},
    }.get(kind, {})


# At criterion 6's scales this audit alone takes 13-16 s (2-vCPU Xeon VM),
# nearly all in generating its instances; the other audits take 2-160 ms.
SLOW_AUDIT = "three_dim_matching_to_ip"


def audit_ops(family_seed, slow=True):
    """The audits of acceptance criterion 6 for one family seed:
    (op id, reduction id, family, scales, whether the audit should pass).
    With `slow` false, SLOW_AUDIT is left out."""
    ops = []
    for rid in kk.CANONICAL_REDUCTIONS:
        kind = kk.REDUCTIONS[rid].source_kind
        if rid == SLOW_AUDIT and not slow:
            continue
        if rid == "chromatic_to_clique_cover":
            # the dense-mode claim holds on dense graphs and fails on sparse ones
            for label, density, passes in (("sparse", 0.1, False), ("dense", 1.0, True)):
                family = GeneratorSpec(kind, family_seed, {"density": density})
                ops.append((rid + ":" + label, rid, family, AUDIT_SCALES, passes))
            continue
        params = ({"generous_budget": True} if kind == "steiner_tree"
                  else _family_params(kind))
        scales = (WIDE_SCALES if kind in ("knapsack", "partition", "three_dim_matching")
                  else AUDIT_SCALES)
        ops.append((rid, rid, GeneratorSpec(kind, family_seed, params), scales, True))
    return ops


def _run_audit(item):
    _, rid, family, scales, _ = item
    return kk.audit(rid, family, scales)


def _check_audit(item, report):
    passes = item[4]
    record = report.to_json()
    if report.passed != passes:
        return False, "audit %s, expected %s" % (
            "passed" if report.passed else "failed",
            "pass" if passes else "fail"), record
    return True, "", record


def audit_elements(report):
    """Element-mode size of every instance the audit generated."""
    return sum(i for i, _ in report.element_pairs)


def audit(seed, rounds=3, families=6):
    """A round audits `families` family seeds: the first with every canonical
    reduction, the others without SLOW_AUDIT.  So a round holds one slow
    audit among 97, and a run's 11th-slowest op is one of the fast audits,
    drawn from nearly two hundred of them."""
    family_seeds = [int(s) for s in
                    _rng(seed, 3).integers(0, 1 << 31, size=(rounds + 1) * families)]
    pool = [[(op[0], op) for f, s in enumerate(family_seeds[r * families:(r + 1) * families])
             for op in audit_ops(s, slow=f == 0)] for r in range(rounds)]
    # the warm-up audits use family seeds of their own
    warmup = audit_ops(family_seeds[rounds * families], slow=False)
    return Workload(pool, _run_audit, _check_audit, frozenset(), 2, warmup,
                    audit_elements)


WORKLOADS = {"sweep": sweep, "solve": solve, "audit": audit}


def digest(records):
    """Hash of the checked outputs (verdicts and witnesses, no explored counts)."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

