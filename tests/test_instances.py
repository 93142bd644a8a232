import os
import subprocess
import sys

import pytest

import karpkit

from karpkit.binprog import BinaryProgram, ConstraintRow, VariableTag
from karpkit.instances import (
    Certificate,
    CnfFormula,
    DiGraph,
    IntegerList,
    InvalidCertificateError,
    InvalidInstanceError,
    KINDS,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    UnsupportedKindError,
    measure_input_size,
    size_report,
    validate,
    verify_certificate,
)
from karpkit.oracles import solve


def sat(num_literals, *clauses):
    return Problem("sat", CnfFormula(num_literals, tuple(tuple(c) for c in clauses)))


# ---------------------------------------------------------------------------
# input size measures
# ---------------------------------------------------------------------------


def test_sat_size_is_total_clause_length():
    p = sat(4, (1, -2, 3), (1, 2, 3, 4))
    assert measure_input_size(p, "element") == 7


def test_hcp_empty_graph_measures_zero():
    p = Problem("hcp", UGraph(3, ()))
    assert measure_input_size(p, "element") == 0


def test_steiner_size():
    g = UGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)), (1, 1, 1, 1))
    p = Problem("steiner_tree", SteinerInstance(g, (1, 3), 2))
    assert measure_input_size(p, "element") == 2 * 4 + 2 + 1


def test_threesat_size_is_3n():
    p = Problem(
        "threesat", CnfFormula(3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (2,)))
    )
    assert measure_input_size(p, "element") == 12


def test_graph_kinds_measure_e_plus_1():
    g = UGraph(4, ((1, 2), (2, 3)))
    assert measure_input_size(Problem("clique", g, param=2), "element") == 3
    assert measure_input_size(Problem("node_cover", g, param=2), "element") == 3


def test_family_kinds():
    fam = SetFamily(4, ((1, 2), (2, 3), (4,)))
    assert measure_input_size(Problem("set_packing", fam, param=2), "element") == 6
    assert measure_input_size(Problem("exact_cover", fam), "element") == 5
    assert measure_input_size(Problem("hitting_set", fam), "element") == 5


def test_three_dim_matching_size():
    tf = TripleFamily(2, ((1, 1, 1), (2, 2, 2)))
    assert measure_input_size(Problem("three_dim_matching", tf), "element") == 7


def test_numeric_kind_sizes():
    assert measure_input_size(Problem("knapsack", IntegerList((2, 3, 5), 7)), "element") == 4
    assert measure_input_size(Problem("partition", IntegerList((1, 2, 3))), "element") == 3
    g = UGraph(2, ((1, 2),), (3,))
    assert measure_input_size(Problem("max_cut", g, param=1), "element") == 3


def test_bits_mode_counts_sign_bit():
    # value 3 -> 2 magnitude bits + sign
    p = Problem("partition", IntegerList((3,)))
    assert measure_input_size(p, "bits") == 3


def test_size_report_carries_both_modes():
    p = sat(2, (1, -2))
    r = size_report(p)
    assert r.kind == "sat"
    assert r.element == 2
    assert r.bits > 0


def test_duplicate_clauses_counted_with_multiplicity():
    p = sat(2, (1, 2), (1, 2))
    assert measure_input_size(p, "element") == 4


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_rejects_bad_literal():
    with pytest.raises(InvalidInstanceError):
        validate(sat(2, (3,)))


def test_validate_rejects_long_threesat_clause():
    with pytest.raises(InvalidInstanceError):
        validate(Problem("threesat", CnfFormula(4, ((1, 2, 3, 4),))))


def test_validate_rejects_edge_out_of_range():
    with pytest.raises(InvalidInstanceError):
        validate(Problem("hcp", UGraph(2, ((1, 3),))))


def test_validate_rejects_nonpositive_partition_values():
    with pytest.raises(InvalidInstanceError):
        validate(Problem("partition", IntegerList((1, 0))))


def test_validate_rejects_covering_k_above_set_count():
    fam = SetFamily(2, ((1, 2),))
    with pytest.raises(InvalidInstanceError):
        validate(Problem("set_covering", fam, param=2))


def test_job_sequencing_is_a_bare_tag():
    validate(Problem("job_sequencing", None))


def test_job_sequencing_has_no_certificate_shape():
    with pytest.raises(UnsupportedKindError) as exc:
        verify_certificate(Problem("job_sequencing", None), Certificate("vertex_set", ()))
    assert str(exc.value) == "no certificate shape for kind 'job_sequencing'"


def test_measure_refuses_an_unknown_mode():
    p = Problem("clique", UGraph(2, ((1, 2),)), 2)
    with pytest.raises(ValueError) as exc:
        measure_input_size(p, "words")
    assert str(exc.value) == "mode must be 'element' or 'bits'"


# ---------------------------------------------------------------------------
# certificate checking
# ---------------------------------------------------------------------------


def test_triangle_is_its_own_clique():
    p = Problem("clique", UGraph(3, ((1, 2), (1, 3), (2, 3))), param=3)
    assert verify_certificate(p, Certificate("vertex_set", (1, 2, 3)))


def test_partition_half_sum_witness():
    p = Problem("partition", IntegerList((1, 2, 3)))
    assert verify_certificate(p, Certificate("item_indices", (3,)))
    assert not verify_certificate(p, Certificate("item_indices", (1,)))


def test_all_false_fails_positive_clause():
    p = Problem("threesat", CnfFormula(3, ((1, 2, 3),)))
    assert not verify_certificate(p, Certificate("assignment", (False, False, False)))


def test_cert_kind_mismatch_is_type_error():
    p = Problem("partition", IntegerList((1, 1)))
    with pytest.raises(TypeError):
        verify_certificate(p, Certificate("assignment", (True, True)))


def test_malformed_cert_raises():
    p = Problem("clique", UGraph(3, ((1, 2),)), param=2)
    with pytest.raises(InvalidCertificateError):
        verify_certificate(p, Certificate("vertex_set", (1, 1)))


def test_hcp_cycle_needs_three_vertices():
    p = Problem("hcp", UGraph(2, ((1, 2),)))
    with pytest.raises(InvalidCertificateError):
        verify_certificate(p, Certificate("cycle", (1, 2)))


def test_dhcp_two_cycle_is_fine():
    p = Problem("dhcp", DiGraph(2, ((1, 2), (2, 1))))
    assert verify_certificate(p, Certificate("cycle", (1, 2)))


def test_feedback_node_set_breaks_cycles():
    g = DiGraph(3, ((1, 2), (2, 3), (3, 1)))
    p = Problem("feedback_node_set", g, param=1)
    assert verify_certificate(p, Certificate("vertex_set", (2,)))
    p0 = Problem("feedback_node_set", g, param=0)
    assert not verify_certificate(p0, Certificate("vertex_set", ()))


def test_feedback_sets_and_self_loops():
    # a self-loop is a cycle that only its own vertex or arc breaks
    g = DiGraph(3, ((1, 2), (2, 2), (2, 3)))
    fns = Problem("feedback_node_set", g, param=1)
    assert verify_certificate(fns, Certificate("vertex_set", (2,)))
    assert not verify_certificate(fns, Certificate("vertex_set", (3,)))
    fas = Problem("feedback_arc_set", g, param=1)
    assert verify_certificate(fas, Certificate("arc_set", ((2, 2),)))
    assert not verify_certificate(fas, Certificate("arc_set", ((2, 3),)))


def test_steiner_root_only_tree():
    g = UGraph(2, ((1, 2),), (5,))
    p = Problem("steiner_tree", SteinerInstance(g, (1,), 0))
    assert verify_certificate(p, Certificate("tree", {"edges": (), "root": 1}))
    assert not verify_certificate(p, Certificate("tree", {"edges": (), "root": 2}))


def test_clique_cover_on_complement_flagged_graph():
    # stored edges are the *original* graph; complement flag flips adjacency
    g = UGraph(3, ((1, 2),), complement=True)
    p = Problem("clique_cover", g, param=2)
    # complement of {1-2} on 3 vertices has edges {1-3},{2-3}
    assert verify_certificate(p, Certificate("clique_partition", ((1, 3), (2,))))
    assert not verify_certificate(p, Certificate("clique_partition", ((1, 2), (3,))))


_PATH3 = UGraph(3, ((1, 2), (2, 3)))
_ARCS3 = DiGraph(3, ((1, 2), (2, 3), (3, 1)))
_SETS = SetFamily(3, ((1, 2), (2, 3)))
_STEINER = SteinerInstance(UGraph(3, ((1, 2), (2, 3)), (1, 1)), (1, 3), 2)
_TRIPLE = TripleFamily(1, ((1, 1, 1),))
_IP = BinaryProgram(
    (VariableTag(("x", 1)), VariableTag(("x", 2))),
    (ConstraintRow(((0, 1), (1, 1)), "=", 1),),
)

# (problem, certificate kind, malformed value, message): at least one per kind
MALFORMED = [
    (sat(2, (1,)), "assignment", (True,), "assignment length mismatch"),
    (Problem("threesat", CnfFormula(1, ((1,),))), "assignment", (),
     "assignment length mismatch"),
    (Problem("ip01", _IP), "binary", (1,), "assignment length mismatch"),
    (Problem("ip01", _IP), "binary", (1, 2), "assignment must be binary"),
    (Problem("clique", _PATH3, 2), "vertex_set", (1, 4), "vertex out of range"),
    (Problem("clique", _PATH3, 2), "vertex_set", (2, 2),
     "duplicate vertices in clique"),
    (Problem("node_cover", _PATH3, 1), "vertex_set", (0,), "vertex out of range"),
    (Problem("feedback_node_set", _ARCS3, 1), "vertex_set", (4,),
     "vertex out of range"),
    (Problem("max_cut", UGraph(2, ((1, 2),), (1,)), 1), "vertex_set", (3,),
     "vertex out of range"),
    (Problem("set_packing", _SETS, 1), "set_indices", (3,), "set index out of range"),
    (Problem("set_packing", _SETS, 2), "set_indices", (1, 1), "duplicate set indices"),
    (Problem("set_covering", _SETS, 1), "set_indices", (0,), "set index out of range"),
    (Problem("exact_cover", _SETS), "set_indices", (2, 2), "duplicate set indices"),
    (Problem("hitting_set", _SETS), "element_set", (4,), "element out of range"),
    (Problem("feedback_arc_set", _ARCS3, 1), "arc_set", ((1, 3),),
     "certificate arc not in graph"),
    (Problem("dhcp", _ARCS3), "cycle", (1, 2),
     "cycle must visit every vertex exactly once"),
    (Problem("dhcp", _ARCS3), "cycle", (1, 1, 2), "cycle is not a permutation"),
    (Problem("hcp", UGraph(2, ((1, 2),))), "cycle", (2, 1),
     "cycle too short for this convention"),
    (Problem("chromatic_number", _PATH3, 2), "coloring", (1, 2),
     "one colour per vertex required"),
    (Problem("clique_cover", _PATH3, 2), "clique_partition", ((1, 2), (4,)),
     "vertex out of range"),
    (Problem("clique_cover", _PATH3, 2), "clique_partition", ((1, 2), (2, 3)),
     "cliques overlap"),
    (Problem("steiner_tree", _STEINER), "tree", {"edges": (), "root": 0},
     "root out of range"),
    (Problem("steiner_tree", _STEINER), "tree", {"edges": ((1, 3),), "root": 1},
     "certificate edge not in graph"),
    (Problem("steiner_tree", _STEINER), "tree", {"edges": ((1, 2), (2, 1)), "root": 1},
     "duplicate tree edges"),
    (Problem("three_dim_matching", _TRIPLE), "triple_indices", (2,),
     "triple index out of range"),
    (Problem("three_dim_matching", _TRIPLE), "triple_indices", (1, 1),
     "duplicate triple indices"),
    (Problem("knapsack", IntegerList((1, 2), 3)), "item_indices", (0,),
     "item index out of range"),
    (Problem("partition", IntegerList((1, 1))), "item_indices", (1, 1),
     "duplicate item indices"),
    (Problem("ip01", _IP), "binary", (0.5, 1), "assignment must be binary"),
    (Problem("ip01", _IP), "binary", (True, False), "assignment must be binary"),
    (Problem("threesat", CnfFormula(1, ((1,),))), "assignment", (0,),
     "assignment must be boolean"),
    (Problem("threesat", CnfFormula(1, ((1,),))), "assignment", ("false",),
     "assignment must be boolean"),
    # a number equal to an index in range, but not an int
    (Problem("clique", _PATH3, 2), "vertex_set", (1.0, 2), "vertex must be an integer"),
    (Problem("node_cover", _PATH3, 1), "vertex_set", (2.0,), "vertex must be an integer"),
    (Problem("feedback_node_set", _ARCS3, 1), "vertex_set", (True,),
     "vertex must be an integer"),
    (Problem("set_packing", _SETS, 1), "set_indices", (1.0,),
     "set index must be an integer"),
    (Problem("hitting_set", _SETS), "element_set", (2.0,), "element must be an integer"),
    (Problem("three_dim_matching", _TRIPLE), "triple_indices", (1.0,),
     "triple index must be an integer"),
    (Problem("knapsack", IntegerList((1, 2), 3)), "item_indices", (1, 2.0),
     "item index must be an integer"),
    (Problem("hcp", UGraph(3, ((1, 2), (1, 3), (2, 3)))), "cycle", (1.0, 2, 3),
     "vertex must be an integer"),
    (Problem("dhcp", _ARCS3), "cycle", (1, 2, 3.0), "vertex must be an integer"),
    (Problem("clique_cover", _PATH3, 2), "clique_partition", ((1.0, 2), (3,)),
     "vertex must be an integer"),
    (Problem("steiner_tree", _STEINER), "tree",
     {"edges": ((1, 2), (2, 3)), "root": 1.0}, "vertex must be an integer"),
    (Problem("steiner_tree", _STEINER), "tree",
     {"edges": ((1.0, 2), (2, 3)), "root": 1}, "vertex must be an integer"),
    (Problem("feedback_arc_set", _ARCS3, 1), "arc_set", ((1.0, 2),),
     "vertex must be an integer"),
    # a member that is not a number, refused before anything compares it
    (Problem("clique", _PATH3, 2), "vertex_set", ("x", 2), "vertex must be an integer"),
    (Problem("clique", _PATH3, 2), "vertex_set", ((1,), 2), "vertex must be an integer"),
    (Problem("clique", _PATH3, 2), "vertex_set", (1, "x"), "vertex must be an integer"),
    (Problem("hcp", UGraph(3, ((1, 2), (1, 3), (2, 3)))), "cycle", ("x", 2, 3),
     "vertex must be an integer"),
    (Problem("clique_cover", _PATH3, 2), "clique_partition", (("x", 2), (3,)),
     "vertex must be an integer"),
    (Problem("steiner_tree", _STEINER), "tree", {"edges": (), "root": "x"},
     "vertex must be an integer"),
    (Problem("steiner_tree", _STEINER), "tree", {"edges": (("x", 2),), "root": 1},
     "vertex must be an integer"),
]


@pytest.mark.parametrize(
    "problem, cert_kind, value, message", MALFORMED,
    ids=["%s-%d" % (case[0].kind, i) for i, case in enumerate(MALFORMED)],
)
def test_malformed_certificate_fails_its_shape_check(
    problem, cert_kind, value, message
):
    with pytest.raises(InvalidCertificateError) as exc:
        verify_certificate(problem, Certificate(cert_kind, value))
    assert str(exc.value) == message


def test_malformed_cases_cover_every_certificate_kind():
    kinds = {case[0].kind for case in MALFORMED}
    assert kinds == {k for k in KINDS if k != "job_sequencing"}


@pytest.mark.parametrize("problem, cert_kind, value, expected", [
    # a repeated index counts once against k
    (Problem("set_covering", _SETS, 1), "set_indices", (1, 1), False),
    (Problem("set_covering", SetFamily(2, ((1, 2), (2,))), 1), "set_indices", (1, 1),
     True),
    # a proper colouring that uses more than k colours
    (Problem("chromatic_number", _PATH3, 1), "coloring", (1, 2, 1), False),
    (Problem("chromatic_number", _PATH3, 2), "coloring", (1, 2, 1), True),
    # a packing of fewer than l sets, and a cover by more than k sets
    (Problem("set_packing", _SETS, 2), "set_indices", (1,), False),
    (Problem("set_covering", SetFamily(3, ((1,), (2,), (3,))), 2), "set_indices",
     (1, 2, 3), False),
])
def test_yes_test_counts_distinct_members(problem, cert_kind, value, expected):
    assert verify_certificate(problem, Certificate(cert_kind, value)) is expected


@pytest.mark.parametrize("kind, payload", [
    ("sat", UGraph(2, ((1, 2),))),
    ("ip01", UGraph(2, ((1, 2),))),
    ("clique", DiGraph(2, ((1, 2),))),
    ("steiner_tree", UGraph(2, ((1, 2),), (1,))),
    ("partition", (1, 1)),
])
def test_validate_rejects_a_payload_of_another_carrier(kind, payload):
    with pytest.raises(InvalidInstanceError, match="%s requires a" % kind):
        validate(Problem(kind, payload, 1))


def test_edges_stored_larger_endpoint_first_are_invalid():
    # the oracles and the verifier read an edge as (i, j) with i < j: such a
    # triangle read as clique k=3 NO, and hcp's witness failed its self-check
    triangle = UGraph(3, ((2, 1), (3, 2), (3, 1)))
    for problem in (Problem("clique", triangle, 3), Problem("hcp", triangle)):
        with pytest.raises(InvalidInstanceError, match=r"edge \(2,1\) not stored"):
            solve(problem)
    assert solve(Problem("clique", UGraph.make(3, triangle.edges), 3))


def test_complement_flag_is_reserved_for_clique_cover():
    g = UGraph(2, ((1, 2),), (1,), complement=True)
    for problem in (Problem("max_cut", g, 1),
                    Problem("steiner_tree", SteinerInstance(g, (1,), 1))):
        with pytest.raises(InvalidInstanceError, match="complement flag reserved"):
            validate(problem)


_MIXED_MEMBERS = """
from karpkit.instances import Certificate, Problem, UGraph, verify_certificate
problem = Problem("node_cover", UGraph(3, ((1, 2), (2, 3))), 1)
try:
    verify_certificate(problem, Certificate("vertex_set", (5, "x")))
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_set_like_shape_check_does_not_depend_on_hash_seed():
    # members are range-checked in sequence order: 5 is out of range before
    # "x" fails to compare, whatever order a set would put them in
    src = os.path.dirname(os.path.dirname(karpkit.__file__))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _MIXED_MEMBERS],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert outputs == {"InvalidCertificateError vertex out of range\n"}
