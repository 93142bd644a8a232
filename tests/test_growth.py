import hashlib
import json

import pytest

from karpkit.genlab import GeneratorSpec, generate, scaled_spec
from karpkit.growth import audit
from karpkit.instances import KINDS, measure_input_size
from karpkit.reductions import (
    CANONICAL_REDUCTIONS,
    REDUCTIONS,
    apply_chain,
    route_to_kernel,
)
from karpkit.serialize import problem_to_json

SCALES = (4, 8, 16, 32, 64)


def test_sat_to_3sat_ratio_at_most_three():
    family = GeneratorSpec("sat", 2, {"max_clause": 8})
    report = audit("sat_to_3sat", family, SCALES)
    assert report.passed
    assert report.max_ratio <= 3.0 + 1e-9


def test_knapsack_ratio_exactly_one():
    report = audit("knapsack_to_ip", GeneratorSpec("knapsack", 3), SCALES)
    assert report.passed
    assert report.max_ratio == pytest.approx(1.0)
    assert report.fitted_slope == pytest.approx(1.0)


def test_dense_chromatic_passes_sparse_fails():
    sparse = GeneratorSpec("chromatic_number", 5, {"density": 0.1})
    dense = GeneratorSpec("chromatic_number", 5, {"density": 1.0})
    assert not audit("chromatic_to_clique_cover", sparse, SCALES).passed
    assert audit("chromatic_to_clique_cover", dense, SCALES).passed
    # the compressed variant stays linear regardless of density
    assert audit("chromatic_to_clique_cover_compressed", sparse, SCALES).passed


def test_sparse_chromatic_ratios_reported_superlinear():
    sparse = GeneratorSpec("chromatic_number", 5, {"density": 0.1})
    report = audit("chromatic_to_clique_cover", sparse, SCALES)
    assert report.max_ratio > 2.0
    alpha, beta = report.claim
    assert any(o > alpha * i + beta for i, o in report.element_pairs)


def test_report_pairs_sorted_and_finite():
    report = audit("dhcp_to_hcp", GeneratorSpec("dhcp", 9), SCALES)
    ins = [i for i, _ in report.element_pairs]
    assert ins == sorted(ins) and ins[0] > 0
    assert len(report.bits_pairs) == len(SCALES)


def test_formula_checks_recorded():
    report = audit("threesat_to_ip", GeneratorSpec("threesat", 4), SCALES)
    assert report.passed
    labels = {lbl for _, lbl, *_ in report.formula_checks}
    assert any("3n" in l for l in labels)
    assert all(ok for *_, ok in report.formula_checks)


def test_family_kind_mismatch():
    with pytest.raises(TypeError):
        audit("sat_to_3sat", GeneratorSpec("clique", 1), SCALES)


def test_audit_unknown_reduction():
    with pytest.raises(ValueError) as exc:
        audit("nope", GeneratorSpec("sat", 1), SCALES)
    assert str(exc.value) == "unknown reduction 'nope'"


def test_audit_requires_positive_sizes():
    with pytest.raises(ValueError) as exc:
        audit("sat_to_3sat", GeneratorSpec("sat", 1), (0,))
    assert str(exc.value) == "audit requires positive input sizes"


def test_json_and_table_round_trip():
    report = audit("partition_to_knapsack", GeneratorSpec("partition", 6), SCALES)
    d = json.loads(report.dumps())
    assert d["reduction"] == "partition_to_knapsack"
    assert d["passed"] is True
    text = report.table()
    assert "PASS" in text and "claim" in text


def test_audit_deterministic():
    family = GeneratorSpec("max_cut", 8)
    a = audit("max_cut_to_ip", family, SCALES)
    b = audit("max_cut_to_ip", family, SCALES)
    assert a == b and a.passed


# criterion 6's families: seed 23, instances kept inside the oracle budget,
# and a wider scale range where the element size carries a +1 offset
_CRITERION_6_PARAMS = {
    "sat": {"clauses": 5, "literals": 6},
    "threesat": {"clauses": 5, "literals": 5},
    "steiner_tree": {"generous_budget": True},
    "feedback_arc_set": {"vertices": 4},
}
_WIDE = ("knapsack", "partition", "three_dim_matching", "sat")


def _criterion_6_families(reduction_ids, seed):
    """(reduction id, family, scales) for each of criterion 6's families."""
    for rid in reduction_ids:
        kind = REDUCTIONS[rid].source_kind
        if kind == "chromatic_number":
            families = [{"density": 0.1}, {"density": 1.0}]
        else:
            families = [_CRITERION_6_PARAMS.get(kind, {})]
        scales = (3, 8, 16, 32, 64) if kind in _WIDE else SCALES
        for params in families:
            yield rid, GeneratorSpec(kind, seed, params), scales


def _criterion_6_audits():
    for rid, family, scales in _criterion_6_families(REDUCTIONS, 23):
        yield audit(rid, family, scales)


# sha256 over dumps() + table() of every _criterion_6_audits() report
CRITERION_6_GOLDEN = (
    "09d7a2593a25dd934eb1c12c2f0cbdeac91eb64471d54ea03b7b04ce7b05e231")


def test_criterion_6_reports_golden():
    h = hashlib.sha256()
    for report in _criterion_6_audits():
        h.update((report.dumps() + report.table()).encode())
    assert h.hexdigest() == CRITERION_6_GOLDEN


# sha256 over the compact JSON of every canonical reduction's image on
# criterion 6's families and scales at seeds 0-2 (255 images)
IMAGES_GOLDEN = (
    "78a9d11ddfcf9246166e71a765249aa891ad809fc367977da7f9a1e553516912")


def test_canonical_images_golden():
    h = hashlib.sha256()
    count = 0
    for seed in range(3):
        for rid, family, scales in _criterion_6_families(CANONICAL_REDUCTIONS, seed):
            for scale in scales:
                image = REDUCTIONS[rid].apply(generate(scaled_spec(family, scale)))
                h.update(json.dumps(problem_to_json(image), sort_keys=True,
                                    separators=(",", ":")).encode())
                count += 1
    assert count == 255
    assert h.hexdigest() == IMAGES_GOLDEN


# the routes of more than one step, and the exact claims their steps compose to
_ROUTE_CLAIMS = {"sat": (4, 0), "node_cover": (6, 4), "partition": (1, 1)}


def test_routed_chains_within_composed_claims():
    routes = {kind: route_to_kernel(kind) for kind in KINDS}
    assert {kind: chain.growth_claim() for kind, chain in routes.items()
            if len(chain.steps) > 1} == _ROUTE_CLAIMS
    for kind, (alpha, beta) in _ROUTE_CLAIMS.items():
        scales = (3, 8, 16, 32, 64) if kind in _WIDE else SCALES
        for seed in range(20):
            family = GeneratorSpec(kind, seed, _CRITERION_6_PARAMS.get(kind, {}))
            for scale in scales:
                p = generate(scaled_spec(family, scale))
                out = measure_input_size(apply_chain(routes[kind], p)[-1])
                assert out <= alpha * measure_input_size(p) + beta, (kind, seed, scale)
