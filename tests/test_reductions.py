import dataclasses
import hashlib
import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import karpkit.reductions
from karpkit.binprog import EQ, GE
from karpkit.genlab import GeneratorSpec, generate
from karpkit.instances import (
    Certificate,
    CnfFormula,
    DiGraph,
    IntegerList,
    InvalidCertificateError,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    UnsupportedKindError,
    certificate,
    measure_input_size,
    verify_certificate,
)
from karpkit.oracles import solve
from karpkit.reductions import (
    CANONICAL_REDUCTIONS,
    KERNEL_KINDS,
    REDUCTIONS,
    ReductionChain,
    apply_chain,
    chain_from_names,
    lift_chain,
    reduce_chromatic_to_clique_cover,
    route_to_kernel,
)
from karpkit.serialize import dumps_problem, loads_problem

R = REDUCTIONS


def _nonzeros(prog):
    return sum(len(r.terms) for r in prog.rows)


def _agree(rid, problem):
    """Transform, check oracle agreement, and round-trip the lift."""
    spec = R[rid]
    target = spec.apply(problem)
    a = solve(problem)
    b = solve(target)
    assert a.answer == b.answer, rid
    if b.answer:
        lifted = spec.lift(problem, target, b.certificate)
        assert verify_certificate(problem, lifted), rid
    return target


def test_registry_shape():
    assert len(CANONICAL_REDUCTIONS) == 16
    assert "chromatic_to_clique_cover_compressed" in R
    for spec in R.values():
        assert spec.source_kind != spec.target_kind


def test_growth_claims_are_exact():
    for spec in R.values():
        assert all(isinstance(c, (int, Fraction)) for c in spec.growth_claim), spec.name
    assert R["threesat_to_ip"].growth_claim == (Fraction(4, 3), 0)


def test_kind_mismatch_is_type_error():
    with pytest.raises(TypeError):
        R["clique_to_ip"].apply(Problem("partition", IntegerList((1, 1))))


# ---------------------------------------------------------------------------
# SAT -> 3-SAT
# ---------------------------------------------------------------------------


def test_sat_to_3sat_four_literal_clause():
    p = Problem("sat", CnfFormula(4, ((1, 2, 3, 4),)))
    t = R["sat_to_3sat"].apply(p)
    # (a v b v c v d) -> {a, b, y}, {-y, c, d}
    assert t.payload.clauses == ((1, 2, 5), (-5, 3, 4))
    assert t.payload.num_literals == 5


def test_sat_to_3sat_identity_on_3cnf():
    p = Problem("sat", CnfFormula(3, ((1, -2), (3,), (1, 2, 3))))
    t = R["sat_to_3sat"].apply(p)
    assert t.payload.clauses == p.payload.clauses


def test_sat_to_3sat_clause_split_counts():
    for k in range(4, 9):
        p = Problem("sat", CnfFormula(k, (tuple(range(1, k + 1)),)))
        t = R["sat_to_3sat"].apply(p)
        assert len(t.payload.clauses) == k - 2
        assert t.payload.num_literals == k + (k - 3)


def test_sat_to_3sat_negative_clause_equisatisfiable():
    p = Problem("sat", CnfFormula(5, ((-1, -2, -3, -4, -5),)))
    t = _agree("sat_to_3sat", p)
    # under the all-TRUE source assignment no completion of the fresh
    # variables satisfies the target
    m, total = 5, t.payload.num_literals
    for extra in product((False, True), repeat=total - m):
        bits = (True,) * m + extra
        assert not verify_certificate(
            t, Certificate("assignment", bits)
        ) or not all(
            any((l > 0) == bits[abs(l) - 1] for l in c) for c in t.payload.clauses
        )


# ---------------------------------------------------------------------------
# Clique -> IP
# ---------------------------------------------------------------------------


def test_clique_k3_counts():
    p = Problem("clique", UGraph(3, ((1, 2), (1, 3), (2, 3))), param=3)
    t = _agree("clique_to_ip", p)
    assert _nonzeros(t.payload) == 3 + 8 * 3
    assert len(t.payload.rows) == 3 * 3 + 2


def test_clique_k1_lift_single_vertex():
    p = Problem("clique", UGraph(3, ((1, 2),)), param=1)
    t = R["clique_to_ip"].apply(p)
    v = solve(t)
    assert v.answer
    lifted = R["clique_to_ip"].lift(p, t, v.certificate)
    assert len(lifted.value) == 1


def test_clique_p3_no_both_sides():
    p = Problem("clique", UGraph(3, ((1, 2), (2, 3))), param=3)
    t = R["clique_to_ip"].apply(p)
    assert not solve(p).answer
    assert not solve(t).answer


# ---------------------------------------------------------------------------
# families -> IP
# ---------------------------------------------------------------------------


def test_set_packing_examples():
    p = Problem("set_packing", SetFamily(1, ((1,),)), param=1)
    _agree("set_packing_to_ip", p)

    fam = SetFamily(4, ((1, 2), (2, 3), (3, 4)))
    p = Problem("set_packing", fam, param=2)
    t = _agree("set_packing_to_ip", p)
    v = solve(t)
    lifted = R["set_packing_to_ip"].lift(p, t, v.certificate)
    assert lifted.value == (1, 3)
    assert _nonzeros(t.payload) == 6 + 3


def test_node_cover_to_set_covering_single_edge():
    p = Problem("node_cover", UGraph(2, ((1, 2),)), param=1)
    t = _agree("node_cover_to_set_covering", p)
    assert t.payload.sets == ((1,), (1,))
    assert t.param == 1


def test_node_cover_k3():
    p = Problem("node_cover", UGraph(3, ((1, 2), (1, 3), (2, 3))), param=2)
    t = _agree("node_cover_to_set_covering", p)
    assert t.payload.sets == ((1, 2), (1, 3), (2, 3))
    assert sum(len(s) for s in t.payload.sets) == 2 * 3


def test_set_covering_examples():
    p = Problem("set_covering", SetFamily(3, ((1, 2, 3),)), param=1)
    _agree("set_covering_to_ip", p)

    fam = SetFamily(3, ((1, 2), (2, 3), (3,)))
    p = Problem("set_covering", fam, param=2)
    t = _agree("set_covering_to_ip", p)
    assert _nonzeros(t.payload) == 5 + 3


def test_exact_cover_examples():
    p = Problem("exact_cover", SetFamily(2, ((1, 2),)))
    _agree("exact_cover_to_ip", p)

    fam = SetFamily(3, ((1, 2), (3,), (1, 3)))
    p = Problem("exact_cover", fam)
    t = _agree("exact_cover_to_ip", p)
    v = solve(t)
    lifted = R["exact_cover_to_ip"].lift(p, t, v.certificate)
    assert lifted.value == (1, 2)
    assert _nonzeros(t.payload) == 5


def test_hitting_set_examples():
    p = Problem("hitting_set", SetFamily(1, ((1,),)))
    _agree("hitting_set_to_ip", p)

    fam = SetFamily(3, ((1, 2), (2, 3)))
    p = Problem("hitting_set", fam)
    t = _agree("hitting_set_to_ip", p)
    assert len(t.payload.rows) == 2
    assert _nonzeros(t.payload) == 4


# ---------------------------------------------------------------------------
# Feedback Arc Set -> Feedback Node Set
# ---------------------------------------------------------------------------


def test_fas_dag_yes_both():
    p = Problem("feedback_arc_set", DiGraph(3, ((1, 2), (2, 3))), param=0)
    t = R["fas_to_fns"].apply(p)
    assert solve(p).answer and solve(t).answer


def test_fas_two_cycle():
    p = Problem("feedback_arc_set", DiGraph(2, ((1, 2), (2, 1))), param=1)
    t = _agree("fas_to_fns", p)
    v = solve(t)
    lifted = R["fas_to_fns"].lift(p, t, v.certificate)
    assert len(lifted.value) == 1 and lifted.value[0] in ((1, 2), (2, 1))


def test_fas_expansion_size_bounds():
    from karpkit.reductions import _fas_gadget_arcs

    g = DiGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1), (2, 4)))
    p = Problem("feedback_arc_set", g, param=2)
    t = R["fas_to_fns"].apply(p)
    e = len(g.arcs)
    slots = {s for arc in _fas_gadget_arcs(g) for s in arc}
    assert len(slots) <= 2 * e  # expanded graph vertices
    assert len(t.payload.arcs) <= 12 * e


def test_fas_lift_decodes_path_and_original_arc_nodes():
    # 2-cycle image: nodes 1, 2 are the path arcs of vertices 1, 2, and
    # nodes 3, 4 the original arcs (1,2), (2,1)
    p = Problem("feedback_arc_set", DiGraph(2, ((1, 2), (2, 1))), param=1)
    t = R["fas_to_fns"].apply(p)
    lift = R["fas_to_fns"].lift
    assert lift(p, t, certificate(t, (4,))).value == ((2, 1),)
    assert lift(p, t, certificate(t, (1, 2))).value == ((1, 2), (2, 1))
    # a vertex with no in-arc maps its path arcs to its first out-arc
    p = Problem("feedback_arc_set", DiGraph(3, ((1, 2), (1, 3))), param=0)
    t = R["fas_to_fns"].apply(p)
    assert lift(p, t, certificate(t, (1,))).value == ((1, 2),)



_TRIANGLE = Problem("feedback_arc_set", DiGraph(3, ((1, 2), (2, 3), (3, 1))), param=1)
_PATH3 = Problem("chromatic_number", UGraph(3, ((1, 2),)), param=2)
_EDGE = Problem("clique", UGraph(2, ((1, 2),)), param=2)


@pytest.mark.parametrize("names, problem, cert, error, message", [
    (("fas_to_fns",), _TRIANGLE, Certificate("vertex_set", (0,)),
     InvalidCertificateError, "vertex out of range"),
    (("fas_to_fns",), _TRIANGLE, Certificate("vertex_set", (-1,)),
     InvalidCertificateError, "vertex out of range"),
    (("fas_to_fns",), _TRIANGLE, Certificate("vertex_set", (7,)),
     InvalidCertificateError, "vertex out of range"),
    (("chromatic_to_clique_cover",), _PATH3, Certificate("clique_partition", ((0,), (1, 2, 3))),
     InvalidCertificateError, "vertex out of range"),
    (("clique_to_ip",), _EDGE, Certificate("vertex_set", (1, 2)),
     TypeError, "certificate kind 'vertex_set' does not match problem kind 'ip01'"),
    (("clique_to_ip",), _EDGE, Certificate("binary", (0, 1)),
     InvalidCertificateError, "assignment length mismatch"),
])
def test_lift_chain_refuses_a_malformed_certificate(names, problem, cert, error, message):
    # the image's own check runs before any lift decodes the certificate
    with pytest.raises(error) as exc:
        lift_chain(chain_from_names(names), problem, cert)
    assert str(exc.value) == message

def test_fas_figure_eight_answers_diverge():
    # Known gap in the construction: a gadget-internal node of the hub
    # vertex cuts every cycle through it at once, acting like node (not
    # arc) removal.  On the figure-8 graph the arc problem needs 2
    # removals but the image needs only 1.
    g = DiGraph(3, ((1, 2), (2, 1), (1, 3), (3, 1)))
    p = Problem("feedback_arc_set", g, param=1)
    t = R["fas_to_fns"].apply(p)
    assert not solve(p).answer
    assert solve(t).answer  # documents the unsoundness


# ---------------------------------------------------------------------------
# DHCP -> HCP
# ---------------------------------------------------------------------------


def test_dhcp_three_cycle():
    p = Problem("dhcp", DiGraph(3, ((1, 2), (2, 3), (3, 1))))
    t = _agree("dhcp_to_hcp", p)
    assert t.payload.num_vertices == 9
    assert len(t.payload.edges) == 3 + 2 * 3


def test_dhcp_two_cycle():
    p = Problem("dhcp", DiGraph(2, ((1, 2), (2, 1))))
    t = _agree("dhcp_to_hcp", p)
    assert t.payload.num_vertices == 6


@pytest.mark.parametrize("cycle, lifted", [
    ((5, 6, 7, 8, 9, 1, 2, 3, 4), (3, 1, 2)),  # rotated
    ((9, 8, 7, 6, 5, 4, 3, 2, 1), (1, 2, 3)),  # reversed
    ((6, 5, 4, 3, 2, 1, 9, 8, 7), (3, 1, 2)),  # reversed and rotated
    ((1, 3, 2, 4, 5, 6, 7, 8, 9), None),  # a gadget out of order
])
def test_dhcp_lift_rotations_and_reversals(cycle, lifted):
    p = Problem("dhcp", DiGraph(3, ((1, 2), (2, 3), (3, 1))))
    t = R["dhcp_to_hcp"].apply(p)
    cert = certificate(t, cycle)
    if lifted is None:
        with pytest.raises(InvalidCertificateError) as exc:
            R["dhcp_to_hcp"].lift(p, t, cert)
        assert str(exc.value) == "cycle does not traverse gadgets in order"
    else:
        assert R["dhcp_to_hcp"].lift(p, t, cert).value == lifted


def test_dhcp_no_cycle_stays_no():
    p = Problem("dhcp", DiGraph(3, ((1, 2), (2, 3))))
    t = R["dhcp_to_hcp"].apply(p)
    assert not solve(p).answer and not solve(t).answer


# ---------------------------------------------------------------------------
# 3-SAT -> IP
# ---------------------------------------------------------------------------


def test_threesat_row_shapes():
    p = Problem("threesat", CnfFormula(3, ((1, -2, 3), (1, 2, 3))))
    t = _agree("threesat_to_ip", p)
    rows = t.payload.rows
    assert rows[0].terms == ((0, 1), (1, -1), (2, 1))
    assert rows[0].relation == GE and rows[0].rhs == 0
    assert rows[1].rhs == 1
    assert _nonzeros(t.payload) == 6 and len(rows) == 2


def test_threesat_repeated_literal_cancels():
    p = Problem("threesat", CnfFormula(2, ((1, -1, 2),)))
    t = R["threesat_to_ip"].apply(p)
    # x1 and -x1 cancel; the row mentions only x2
    assert t.payload.rows[0].terms == ((1, 1),)


# ---------------------------------------------------------------------------
# Steiner Tree -> IP
# ---------------------------------------------------------------------------


def test_steiner_trivial_and_single_edge():
    g = UGraph(1, (), ())
    p = Problem("steiner_tree", SteinerInstance(g, (1,), 0))
    _agree("steiner_tree_to_ip", p)

    g = UGraph(2, ((1, 2),), (1,))
    p = Problem("steiner_tree", SteinerInstance(g, (1, 2), 1))
    _agree("steiner_tree_to_ip", p)


def test_steiner_counts_with_generous_budget():
    g = UGraph(3, ((1, 2), (2, 3)), (1, 2))
    p = Problem("steiner_tree", SteinerInstance(g, (1, 3), 10))
    t = R["steiner_tree_to_ip"].apply(p)
    assert _nonzeros(t.payload) == 4 * 3 + 7 * 2


def test_steiner_counts_with_budget_row():
    # a budget below the total weight adds the budget row's two terms per
    # weighted edge
    p = generate(GeneratorSpec("steiner_tree", 3, {"vertices": 5, "budget": 1}))
    assert p.payload.budget < sum(p.payload.graph.weights)
    spec = R["steiner_tree_to_ip"]
    assert spec.count_checks(p, spec.apply(p)) == [("nonzeros = 4N + 7e + 2b", 92, 92)]


def test_steiner_fake_two_cycle_counterexample():
    # Known gap: nothing ties selected arcs to the root component, so a
    # directed 2-cycle away from the root satisfies every row.  Source is
    # NO (connecting 1 and 3 costs 2 > 1) but the image is YES.
    g = UGraph(3, ((1, 2), (2, 3)), (1, 1))
    p = Problem("steiner_tree", SteinerInstance(g, (1, 3), 1))
    t = R["steiner_tree_to_ip"].apply(p)
    assert not solve(p).answer
    assert solve(t).answer  # documents the unsoundness


# ---------------------------------------------------------------------------
# 3DM, Knapsack, Partition, Max Cut
# ---------------------------------------------------------------------------


def test_three_dim_matching_examples():
    p = Problem("three_dim_matching", TripleFamily(1, ((1, 1, 1),)))
    _agree("three_dim_matching_to_ip", p)

    tf = TripleFamily(2, ((1, 1, 2), (2, 2, 1), (1, 2, 1)))
    p = Problem("three_dim_matching", tf)
    t = _agree("three_dim_matching_to_ip", p)
    assert _nonzeros(t.payload) == 3 * 3
    assert len(t.payload.rows) == 3 * 2


def test_knapsack_examples():
    p = Problem("knapsack", IntegerList((2, 3, 5), 7))
    t = _agree("knapsack_to_ip", p)
    v = solve(t)
    lifted = R["knapsack_to_ip"].lift(p, t, v.certificate)
    assert lifted.value == (1, 3)
    assert _nonzeros(t.payload) == 3 and len(t.payload.rows) == 1

    p = Problem("knapsack", IntegerList((4, 4), 0))
    _agree("knapsack_to_ip", p)


def test_partition_examples():
    p = Problem("partition", IntegerList((1, 2, 3)))
    t = _agree("partition_to_knapsack", p)
    assert t.payload.target == 3

    p = Problem("partition", IntegerList((7, 7)))
    t = _agree("partition_to_knapsack", p)
    assert t.payload.target == 7

    p = Problem("partition", IntegerList((1, 1, 1)))
    t = R["partition_to_knapsack"].apply(p)
    assert t.payload.target == 4  # odd total: unreachable target
    assert not solve(p).answer and not solve(t).answer


def test_max_cut_examples():
    p = Problem("max_cut", UGraph(2, ((1, 2),), (1,)), param=1)
    t = _agree("max_cut_to_ip", p)
    v = solve(t)
    lifted = R["max_cut_to_ip"].lift(p, t, v.certificate)
    s = set(lifted.value)
    assert (1 in s) != (2 in s)
    assert _nonzeros(t.payload) == 13 * 1
    assert len(t.payload.rows) == 4 * 1 + 1

    p = Problem("max_cut", UGraph(3, ((1, 2), (2, 3)), (2, 3)), param=0)
    _agree("max_cut_to_ip", p)


def test_max_cut_counts_name_the_weighted_edges():
    # a zero-weight edge has no term in the budget row
    p = Problem("max_cut", UGraph(3, ((1, 2), (2, 3)), (0, 3)), param=0)
    spec = R["max_cut_to_ip"]
    assert spec.count_checks(p, spec.apply(p)) == [
        ("nonzeros = 12e + w", 25, 25), ("rhs entries = 4e + 1", 9, 9)]


# ---------------------------------------------------------------------------
# Chromatic Number -> Clique Cover
# ---------------------------------------------------------------------------


def test_chromatic_k3_dense():
    p = Problem("chromatic_number", UGraph(3, ((1, 2), (1, 3), (2, 3))), param=3)
    t = _agree("chromatic_to_clique_cover", p)
    assert t.payload.edges == ()  # complement of K3 is empty
    v = solve(t)
    assert len(v.certificate.value) == 3  # three singleton cliques


def test_chromatic_complement_involution():
    g = UGraph(4, ((1, 2), (3, 4)))
    p = Problem("chromatic_number", g, param=2)
    once = reduce_chromatic_to_clique_cover(p).payload
    twice_p = Problem("chromatic_number", once, param=2)
    assert set(
        reduce_chromatic_to_clique_cover(twice_p).payload.edges
    ) == set(g.edges)


def test_chromatic_compressed_matches_dense_answers():
    g = UGraph(4, ((1, 2), (2, 3), (3, 4)))
    p = Problem("chromatic_number", g, param=2)
    dense = R["chromatic_to_clique_cover"].apply(p)
    compressed = R["chromatic_to_clique_cover_compressed"].apply(p)
    assert solve(dense).answer == solve(compressed).answer == solve(p).answer
    # compressed payload stays at the source's size
    assert measure_input_size(compressed, "element") == measure_input_size(p, "element")


def _chromatic_images():
    """The dense and compressed images of chromatic_number seeds 0..49, from
    the default family (5 vertices, density 0.5) and at 8 vertices, density
    0.2."""
    for seed in range(50):
        for params in ({}, {"vertices": 8, "density": 0.2}):
            p = generate(GeneratorSpec("chromatic_number", seed, params))
            yield (R["chromatic_to_clique_cover"].apply(p),
                   R["chromatic_to_clique_cover_compressed"].apply(p))


# sha256 over the dumps_problem bytes of every _chromatic_images() pair
CHROMATIC_IMAGES_GOLDEN = (
    "b49e8fadf9f0819eb447b71af09d90a8210f20eefc6c3c0a090522de0feaca80")


def test_chromatic_images_golden():
    # chromatic_number is a kernel kind, so no routed stage reaches these
    h = hashlib.sha256()
    for pair in _chromatic_images():
        for image in pair:
            h.update(dumps_problem(image).encode())
    assert h.hexdigest() == CHROMATIC_IMAGES_GOLDEN


def test_compressed_chromatic_image_round_trips():
    for dense, compressed in _chromatic_images():
        text = dumps_problem(compressed)
        assert json.loads(text)["payload"]["graph"]["complement"] is True
        assert loads_problem(text) == compressed
        assert set(compressed.payload.effective_edges()) == set(dense.payload.edges)


# ---------------------------------------------------------------------------
# chains and routing
# ---------------------------------------------------------------------------


def test_chain_partition_to_ip():
    chain = chain_from_names(("partition_to_knapsack", "knapsack_to_ip"))
    p = Problem("partition", IntegerList((1, 2, 3)))
    t = apply_chain(chain, p)[-1]
    assert t.kind == "ip01"
    row = t.payload.rows[0]
    assert row.terms == ((0, 1), (1, 2), (2, 3)) and row.rhs == 3


def test_empty_chain_is_identity():
    chain = ReductionChain(())
    p = Problem("partition", IntegerList((1, 1)))
    assert apply_chain(chain, p)[-1] is p
    assert chain.growth_claim() == (1.0, 0.0)


def test_chain_sat_to_ip_counts():
    chain = chain_from_names(("sat_to_3sat", "threesat_to_ip"))
    p = Problem("sat", CnfFormula(4, ((1, 2, 3, 4),)))
    t = apply_chain(chain, p)[-1]
    assert len(t.payload.rows) == 2
    assert sum(len(r.terms) for r in t.payload.rows) == 6


def test_chain_mismatch_rejected():
    with pytest.raises(TypeError):
        chain_from_names(("sat_to_3sat", "clique_to_ip"))


def test_chain_growth_claim_composes():
    chain = chain_from_names(("sat_to_3sat", "threesat_to_ip"))
    alpha, beta = chain.growth_claim()
    assert alpha == pytest.approx(3 * 4 / 3)
    assert beta == pytest.approx(0.0)


def test_chain_lift_replays_to_source():
    chain = chain_from_names(("sat_to_3sat", "threesat_to_ip"))
    p = Problem("sat", CnfFormula(4, ((1, 2, 3, 4), (-1, -2))))
    stages = apply_chain(chain, p)
    v = solve(stages[-1])
    assert v.answer
    lifted = lift_chain(chain, p, v.certificate)
    assert verify_certificate(p, lifted)


def test_kernel_set():
    assert KERNEL_KINDS == frozenset(
        ("ip01", "feedback_node_set", "hcp", "chromatic_number", "clique_cover",
         "job_sequencing")
    )


def test_route_examples():
    assert route_to_kernel("ip01").names == ()
    assert route_to_kernel("partition").names == (
        "partition_to_knapsack",
        "knapsack_to_ip",
    )
    assert route_to_kernel("feedback_arc_set").names == ("fas_to_fns",)


def test_route_all_kinds_end_in_kernel():
    # routes are read off the reduction tree: each non-kernel kind is the
    # source of exactly one canonical reduction
    from karpkit.instances import KINDS

    for kind in KINDS:
        sources = [n for n in CANONICAL_REDUCTIONS if R[n].source_kind == kind]
        assert kind in KERNEL_KINDS or len(sources) == 1, kind
        chain = route_to_kernel(kind)
        assert set(chain.names) <= set(CANONICAL_REDUCTIONS), kind
        end = chain.steps[-1].target_kind if chain.steps else kind
        assert end in KERNEL_KINDS, kind
    with pytest.raises(UnsupportedKindError) as exc:
        route_to_kernel("nope")
    assert str(exc.value) == "unknown kind 'nope'"


# ---------------------------------------------------------------------------
# lifts read the target
# ---------------------------------------------------------------------------

_TRIANGLE = UGraph(3, ((1, 2), (1, 3), (2, 3)))
_PATH3 = UGraph(3, ((1, 2), (2, 3)))

# a small YES instance per registered reduction, each one with a sound lift
LIFT_CASES = {
    "sat_to_3sat": Problem("sat", CnfFormula(4, ((1, 2, 3, 4), (-1, -2)))),
    "clique_to_ip": Problem("clique", _TRIANGLE, param=3),
    "set_packing_to_ip": Problem("set_packing", SetFamily(4, ((1, 2), (2, 3), (3, 4))), 2),
    "node_cover_to_set_covering": Problem("node_cover", _TRIANGLE, param=2),
    "set_covering_to_ip": Problem("set_covering", SetFamily(3, ((1, 2), (2, 3), (3,))), 2),
    "fas_to_fns": Problem("feedback_arc_set", DiGraph(2, ((1, 2), (2, 1))), param=1),
    "dhcp_to_hcp": Problem("dhcp", DiGraph(3, ((1, 2), (2, 3), (3, 1)))),
    "threesat_to_ip": Problem("threesat", CnfFormula(3, ((1, -2, 3), (1, 2, 3)))),
    "exact_cover_to_ip": Problem("exact_cover", SetFamily(3, ((1, 2), (3,), (1, 3)))),
    "hitting_set_to_ip": Problem("hitting_set", SetFamily(3, ((1, 2), (2, 3)))),
    "steiner_tree_to_ip": Problem(
        "steiner_tree", SteinerInstance(UGraph(2, ((1, 2),), (1,)), (1, 2), 1)),
    "three_dim_matching_to_ip": Problem(
        "three_dim_matching", TripleFamily(2, ((1, 1, 2), (2, 2, 1), (1, 2, 1)))),
    "knapsack_to_ip": Problem("knapsack", IntegerList((2, 3, 5), 7)),
    "partition_to_knapsack": Problem("partition", IntegerList((1, 2, 3))),
    "max_cut_to_ip": Problem("max_cut", UGraph(3, ((1, 2), (2, 3)), (2, 3)), param=5),
    "chromatic_to_clique_cover": Problem("chromatic_number", _PATH3, param=2),
    "chromatic_to_clique_cover_compressed": Problem("chromatic_number", _PATH3, param=2),
}


def test_no_lift_runs_a_transform(monkeypatch):
    def refuse(problem, *args, **kwargs):
        raise AssertionError("a lift ran a transform on %s" % problem.kind)

    # the registry keeps the original transforms, so apply still works
    for name in list(vars(karpkit.reductions)):
        if name.startswith("reduce_"):
            monkeypatch.setattr(karpkit.reductions, name, refuse)
    assert LIFT_CASES.keys() == R.keys()
    for rid, source in LIFT_CASES.items():
        target = R[rid].apply(source)
        verdict = solve(target)
        assert verdict.answer, rid
        lifted = R[rid].lift(source, target, verdict.certificate)
        assert verify_certificate(source, lifted), rid


def test_lift_chain_applies_each_step_once():
    calls = []

    def counted(spec):
        def transform(problem):
            calls.append(spec.name)
            return spec.transform(problem)
        return dataclasses.replace(spec, transform=transform)

    chain = ReductionChain(tuple(counted(s) for s in route_to_kernel("node_cover").steps))
    p = LIFT_CASES["node_cover_to_set_covering"]
    v = solve(apply_chain(chain, p)[-1])
    calls.clear()
    lifted = lift_chain(chain, p, v.certificate)
    assert calls == ["node_cover_to_set_covering", "set_covering_to_ip"]
    assert verify_certificate(p, lifted)


# ---------------------------------------------------------------------------
# slack bounds of the rows onto ip01
# ---------------------------------------------------------------------------


def _satisfying_lhs(prog):
    """Each row's LHS under every satisfying assignment: one row of the
    result per assignment, one column per constraint row."""
    v = prog.num_variables
    x = (np.arange(2 ** v)[:, None] >> np.arange(v)) & 1
    a = np.zeros((len(prog.rows), v), dtype=np.int64)
    for r, row in enumerate(prog.rows):
        for i, c in row.terms:
            a[r, i] += c
    lhs = x @ a.T
    ok = np.ones(len(x), dtype=bool)
    for r, row in enumerate(prog.rows):
        col = lhs[:, r]
        if row.relation == EQ:
            ok &= col == row.rhs
        elif row.relation == GE:
            ok &= col >= row.rhs
        else:
            ok &= col <= row.rhs
    return lhs[ok]


@pytest.mark.parametrize(
    "rid", [rid for rid, spec in R.items() if spec.target_kind == "ip01"])
def test_slack_bounds_cover_every_satisfying_assignment(rid):
    spec = R[rid]
    checked = 0
    for seed in range(30):
        prog = spec.apply(generate(GeneratorSpec(spec.source_kind, seed))).payload
        if prog.num_variables > 16:
            continue
        lhs = _satisfying_lhs(prog)
        for r, row in enumerate(prog.rows):
            if row.relation == EQ or not len(lhs):
                continue
            gap = lhs[:, r] - row.rhs if row.relation == GE else row.rhs - lhs[:, r]
            assert row.slack_bound is not None and gap.max() <= row.slack_bound, (
                rid, seed, r)
        checked += 1
    assert checked >= 10, rid
