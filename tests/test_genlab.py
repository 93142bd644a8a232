import hashlib

import numpy as np
import pytest

from karpkit.genlab import (
    SCALE_PARAM,
    GeneratorSpec,
    _pair_pos,
    _pairs,
    _stream,
    generate,
    scaled_spec,
)
from karpkit.instances import KINDS, measure_input_size, validate
from karpkit.oracles import solve
from karpkit.reductions import REDUCTIONS
from karpkit.serialize import dumps_problem

GENERATED_KINDS = tuple(k for k in KINDS if k != "job_sequencing")


def test_every_kind_has_a_generator():
    for kind in GENERATED_KINDS:
        p = generate(GeneratorSpec(kind, 1))
        assert p.kind == kind
        validate(p)


def test_full_density_gives_complete_graph():
    p = generate(GeneratorSpec("hcp", 123, {"vertices": 6, "density": 1.0}))
    assert len(p.payload.edges) == 15


def test_determinism():
    for kind in GENERATED_KINDS:
        spec = GeneratorSpec(kind, 7, {})
        assert generate(spec) == generate(spec), kind


def test_sat_seed7_repeatable():
    spec = GeneratorSpec("sat", 7, {"clauses": 4, "max_clause": 5})
    assert generate(spec) == generate(spec)


def test_different_seeds_differ_somewhere():
    instances = {generate(GeneratorSpec("sat", s, {"clauses": 6})) for s in range(8)}
    assert len(instances) > 1


def test_partition_answer_matches_reduced_knapsack():
    spec = GeneratorSpec("partition", 11, {"items": 8, "max_value": 50})
    p = generate(spec)
    t = REDUCTIONS["partition_to_knapsack"].apply(p)
    assert solve(p).answer == solve(t).answer


def test_scale_monotone_element_size():
    scales = (4, 8, 16, 32, 64)
    for kind in SCALE_PARAM:
        spec = GeneratorSpec(kind, 5, {"density": 0.4})
        if kind == "three_dim_matching":
            scales_k = (2, 3, 4, 6, 8)
        else:
            scales_k = scales
        sizes = [
            measure_input_size(generate(scaled_spec(spec, s)), "element")
            for s in scales_k
        ]
        assert sizes == sorted(sizes), (kind, sizes)
        assert sizes[0] < sizes[-1], kind


def test_scaling_extends_without_rerolling():
    small = generate(GeneratorSpec("sat", 3, {"clauses": 4, "literals": 6}))
    big = generate(GeneratorSpec("sat", 3, {"clauses": 6, "literals": 6}))
    assert big.payload.clauses[:4] == small.payload.clauses


def test_ip01_more_terms_than_variables_is_refused():
    with pytest.raises(ValueError):
        generate(GeneratorSpec("ip01", 1, {"variables": 2, "max_terms": 4}))


def test_generous_budget_steiner_is_always_yes():
    for seed in range(5):
        p = generate(GeneratorSpec("steiner_tree", seed, {"generous_budget": True}))
        assert p.payload.budget >= sum(p.payload.graph.weights)


def test_job_sequencing_has_no_generator():
    with pytest.raises(ValueError) as exc:
        generate(GeneratorSpec("job_sequencing", 1))
    assert str(exc.value) == "no generator for kind 'job_sequencing'"


def test_with_params_merges():
    spec = GeneratorSpec("sat", 1, {"clauses": 4})
    spec2 = spec.with_params(literals=9)
    assert spec2.params == {"clauses": 4, "literals": 9}
    assert spec.params == {"clauses": 4}


# distinct instances over seeds 0-199 at default parameters; before the
# stream key was exact, partition gave 12, dhcp 32 and feedback_arc_set 105
MIN_DISTINCT = {
    "sat": 200, "threesat": 200, "ip01": 200, "max_cut": 200,
    "steiner_tree": 200, "knapsack": 200, "partition": 200,
    "three_dim_matching": 199, "set_packing": 199, "set_covering": 199,
    "exact_cover": 199, "hitting_set": 199, "feedback_node_set": 198,
    "feedback_arc_set": 198, "dhcp": 193, "clique": 183, "node_cover": 183,
    "chromatic_number": 183, "clique_cover": 183, "hcp": 135,
}


@pytest.mark.parametrize("kind", GENERATED_KINDS)
def test_distinct_instances_over_seeds(kind):
    distinct = {generate(GeneratorSpec(kind, seed)) for seed in range(200)}
    assert len(distinct) >= MIN_DISTINCT[kind]


@pytest.mark.parametrize("kind", ["partition", "knapsack"])
def test_items_within_an_instance_differ(kind):
    for seed in range(200):
        values = generate(GeneratorSpec(kind, seed)).payload.values
        assert len(set(values)) > 1, (seed, values)


def test_stream_key_is_exact():
    # a key built through float64 would drop the low bits of both words
    for seed in (0, 2**53 + 1, 2**64 - 1, -1):
        key = _stream(seed, "item").bit_generator.state["state"]["key"]
        assert int(key[0]) == seed % 2**64


def test_adjacent_streams_differ():
    # labels "item" and "iten" hash to adjacent 64-bit keys
    assert not np.array_equal(
        _stream(0, "item").random(4), _stream(0, "iten").random(4)
    )
    assert not np.array_equal(
        _stream(2**53, "item").random(4), _stream(2**53 + 1, "item").random(4)
    )
    for kind in ("partition", "hcp", "dhcp", "three_dim_matching"):
        assert generate(GeneratorSpec(kind, 2**53)) != generate(
            GeneratorSpec(kind, 2**53 + 1)
        ), kind


def test_pair_order_is_column_by_column():
    for n in range(7):
        order = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
        i, j = _pairs(n)
        assert list(zip(i.tolist(), j.tolist())) == order
        assert [_pair_pos(a, b) for a, b in order] == list(range(len(order)))


def test_growing_vertices_keeps_edges_and_weights():
    for seed in range(20):
        small = generate(GeneratorSpec("max_cut", seed, {"vertices": 8}))
        big = generate(GeneratorSpec("max_cut", seed, {"vertices": 20}))
        g, h = small.payload, big.payload
        kept = [(e, w) for e, w in zip(h.edges, h.weights) if max(e) <= 8]
        assert kept == list(zip(g.edges, g.weights))


def test_growing_vertices_keeps_arcs_but_the_closing_one():
    for seed in range(20):
        small = generate(GeneratorSpec("dhcp", seed, {"vertices": 8}))
        big = generate(GeneratorSpec("dhcp", seed, {"vertices": 20}))
        closing = {(8, 1)}
        kept = {a for a in big.payload.arcs if max(a) <= 8}
        assert set(small.payload.arcs) - closing == kept - closing


def test_growing_counts_keeps_earlier_items():
    for seed in range(20):
        def gen(kind, **params):
            return generate(GeneratorSpec(kind, seed, params)).payload

        assert gen("partition", items=12).values[:6] == gen("partition").values
        small = gen("three_dim_matching", t_size=5, triples=6).triples
        big = gen("three_dim_matching", t_size=5, triples=30).triples
        assert set(small) <= set(big)
        small = gen("exact_cover", universe=6, sets=4).sets
        assert gen("exact_cover", universe=6, sets=9).sets[:4] == small
        small = gen("ip01", variables=6, rows=3).rows
        assert gen("ip01", variables=6, rows=7).rows[:3] == small


# the parameter sets of the generation golden; each kind reads only its own keys
GOLDEN_PARAMS = (
    {},
    {"param": 0, "budget": 3, "target": 5},
    {"terminals": 2},
    {"generous_budget": True, "literals": 2},
    {"max_terms": 9, "param": -1},
    {"density": 0.9, "max_weight": 2, "max_clause": 2, "universe": 4},
)
# sha256 over the dumps_problem bytes, or the exception's type and message,
# of generate(scaled_spec(...)) for every kind and one unknown kind, seeds
# 0-7, the GOLDEN_PARAMS sets and scales None (unscaled), 3 and 7
GENERATION_DIGEST = "5aa0b5f6c596baa0406d816d660deb281379d9aed8b4036fc18233404b25b3d7"


def test_generation_golden():
    h = hashlib.sha256()
    for kind in (*KINDS, "nope"):
        for seed in range(8):
            for params in GOLDEN_PARAMS:
                for scale in (None, 3, 7):
                    spec = GeneratorSpec(kind, seed, params)
                    try:
                        if scale is not None:
                            spec = scaled_spec(spec, scale)
                        record = dumps_problem(generate(spec))
                    except (KeyError, ValueError) as e:
                        record = "%s: %s" % (type(e).__name__, e)
                    h.update(record.encode() + b"\n")
    assert h.hexdigest() == GENERATION_DIGEST


def test_scale_param_table():
    assert SCALE_PARAM == {
        "sat": "clauses", "threesat": "clauses",
        "clique": "vertices", "node_cover": "vertices",
        "chromatic_number": "vertices", "clique_cover": "vertices",
        "hcp": "vertices", "max_cut": "vertices", "dhcp": "vertices",
        "feedback_arc_set": "vertices", "feedback_node_set": "vertices",
        "set_packing": "sets", "set_covering": "sets",
        "exact_cover": "sets", "hitting_set": "sets",
        "steiner_tree": "vertices", "three_dim_matching": "t_size",
        "knapsack": "items", "partition": "items",
    }
