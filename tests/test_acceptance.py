"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Criteria 1 and 2 exercise answer preservation and lift soundness for all
sixteen reductions at 100%; the fas_to_fns and steiner_tree_to_ip
constructions have known equivalence gaps (see tests/test_reductions.py for
minimal counterexamples), so those two criteria report their failures rather
than excluding them.
"""

from itertools import product

import numpy as np
import pytest

from karpkit.binprog import (
    EQ,
    GE,
    LE,
    BinaryProgram,
    ConstraintRow,
    VariableTag,
    num_slacks,
    to_equality_form,
)
from karpkit.genlab import GeneratorSpec, generate, scaled_spec
from karpkit.growth import audit
from karpkit.instances import (
    KINDS,
    CnfFormula,
    Problem,
    measure_input_size,
    verify_certificate,
)
from karpkit.oracles import BudgetExceededError, solve
from karpkit.reductions import (
    CANONICAL_REDUCTIONS,
    KERNEL_KINDS,
    REDUCTIONS,
    route_to_kernel,
)
from karpkit.serialize import dumps_problem

SEEDS_PER_REDUCTION = 200
AUDIT_SCALES = (4, 8, 16, 32, 64)


def _report(criterion, ok, detail=""):
    line = "criterion %s: %s" % (criterion, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)


def _family_params(kind):
    # keep every instance well inside the oracle budget
    return {
        "sat": {"clauses": 5, "literals": 6},
        "threesat": {"clauses": 5, "literals": 5},
        "steiner_tree": {"vertices": 4},
        "feedback_arc_set": {"vertices": 4},
    }.get(kind, {})


@pytest.fixture(scope="module")
def sweep():
    """Shared 200-seed sweep per reduction; criteria 1 and 2 read from it."""
    mismatches = {}
    lift_failures = {}
    for rid in CANONICAL_REDUCTIONS:
        spec = REDUCTIONS[rid]
        bad_answers = bad_lifts = 0
        for seed in range(SEEDS_PER_REDUCTION):
            src = generate(
                GeneratorSpec(spec.source_kind, seed, _family_params(spec.source_kind))
            )
            target = spec.apply(src)
            a = solve(src)
            b = solve(target)
            if a.answer != b.answer:
                bad_answers += 1
                continue
            if b.answer:
                try:
                    lifted = spec.lift(src, b.certificate)
                    if not verify_certificate(src, lifted):
                        bad_lifts += 1
                except Exception:
                    bad_lifts += 1
        if bad_answers:
            mismatches[rid] = bad_answers
        if bad_lifts:
            lift_failures[rid] = bad_lifts
    return mismatches, lift_failures


def test_criterion_1_answer_preservation(sweep):
    mismatches, _ = sweep
    _report(1, not mismatches, ", ".join(sorted(mismatches)) or "")
    assert not mismatches, (
        "oracle answers diverge after transform: %r" % mismatches
    )


def test_criterion_2_lift_soundness(sweep):
    _, lift_failures = sweep
    _report(2, not lift_failures, ", ".join(sorted(lift_failures)) or "")
    assert not lift_failures, (
        "lifted certificates fail the source verifier: %r" % lift_failures
    )


def test_criterion_3_exact_count_formulas():
    checked = {
        rid: spec for rid, spec in REDUCTIONS.items() if spec.count_checks is not None
    }
    failures = []
    for rid, spec in checked.items():
        params = (
            {"generous_budget": True} if spec.source_kind == "steiner_tree" else {}
        )
        for seed in range(40):
            src = generate(GeneratorSpec(spec.source_kind, seed, params))
            target = spec.apply(src)
            for label, want, got in spec.count_checks(src, target):
                if want != got:
                    failures.append((rid, seed, label, want, got))
    _report(3, not failures)
    assert not failures, failures


def test_criterion_4_sat_to_3sat_bound():
    ok = True
    report = audit(
        "sat_to_3sat", GeneratorSpec("sat", 17, {"max_clause": 8}), AUDIT_SCALES
    )
    ok &= report.passed and report.max_ratio <= 3.0 + 1e-9
    spec = REDUCTIONS["sat_to_3sat"]
    for k in range(4, 10):
        src = Problem("sat", CnfFormula(k, (tuple(range(1, k + 1)),)))
        target = spec.apply(src)
        ok &= len(target.payload.clauses) == k - 2
        ok &= target.payload.num_literals - k == k - 3
    _report(4, ok)
    assert ok


def _random_inequality_program(seed, num_vars, num_rows):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    for _ in range(num_rows):
        count = int(rng.integers(1, min(4, num_vars) + 1))
        idxs = sorted(rng.choice(num_vars, size=count, replace=False).tolist())
        coefs = [int(rng.integers(-3, 4)) or 1 for _ in idxs]
        relation = (LE, GE, EQ)[int(rng.integers(0, 3))]
        rhs = int(rng.integers(-2, count + 2))
        rows.append((tuple(zip(idxs, coefs)), relation, rhs))
    return rows


def test_criterion_5_slack_rewriter_round_trip():
    ok = True
    for seed in range(60):
        num_vars = 3 + seed % 10  # up to 12 original variables
        raw = _random_inequality_program(seed, num_vars, 2 + seed % 3)
        assignments = list(product((0, 1), repeat=num_vars))

        def lhs(terms, bits):
            return sum(c * bits[i] for i, c in terms)

        def row_sat(row, bits):
            terms, rel, rhs = row
            v = lhs(terms, bits)
            return v == rhs if rel == EQ else (v <= rhs if rel == LE else v >= rhs)

        feasible = [
            bits for bits in assignments if all(row_sat(r, bits) for r in raw)
        ]
        # analytic slack bound: worst gap over program-satisfying assignments
        rows = []
        gaps = []
        for terms, rel, rhs in raw:
            if rel == EQ:
                rows.append(ConstraintRow(terms, rel, rhs, None))
                gaps.append(None)
                continue
            if feasible:
                if rel == LE:
                    gap = max(rhs - lhs(terms, b) for b in feasible)
                else:
                    gap = max(lhs(terms, b) - rhs for b in feasible)
            else:
                gap = 0
            rows.append(ConstraintRow(terms, rel, rhs, gap))
            gaps.append(gap)
        prog = BinaryProgram(
            tuple(VariableTag(("x", i)) for i in range(1, num_vars + 1)), tuple(rows)
        )
        eq = to_equality_form(prog)
        # slack count per row is exactly ceil(log2(g+1))
        for row, eq_row, gap in zip(prog.rows, eq.rows, gaps):
            if gap is not None:
                ok &= len(eq_row.terms) - len(row.terms) == num_slacks(gap)
        # satisfiability projected to the original variables is unchanged
        extra = eq.num_variables - num_vars
        for bits in assignments:
            original = prog.satisfied_by(bits)
            lifted = any(
                eq.satisfied_by(bits + tail) for tail in product((0, 1), repeat=extra)
            )
            ok &= original == lifted
    _report(5, ok)
    assert ok


def test_criterion_6_growth_audits():
    ok = True
    details = []
    for rid in CANONICAL_REDUCTIONS:
        if rid == "chromatic_to_clique_cover":
            continue  # handled by the dichotomy below
        spec = REDUCTIONS[rid]
        params = dict(_family_params(spec.source_kind))
        if spec.source_kind == "steiner_tree":
            params = {"generous_budget": True}
        family = GeneratorSpec(spec.source_kind, 23, params)
        # kinds whose element size carries a +1 offset need a wider scale
        # range to span 16x.  So does sat: its element size counts literal
        # occurrences, and clause lengths (1..5) are capped at the literal
        # count, which binds at scale 4, so (4..64) spans 16x for only about
        # 60% of family seeds and (3..64) for all of seeds 0-199
        scales = (
            (3, 8, 16, 32, 64)
            if spec.source_kind
            in ("knapsack", "partition", "three_dim_matching", "sat")
            else AUDIT_SCALES
        )
        report = audit(rid, family, scales)
        ins = [i for i, _ in report.element_pairs]
        spans_16x = ins[-1] >= 16 * ins[0]
        if not (report.passed and spans_16x):
            ok = False
            details.append(rid)
    sparse = audit(
        "chromatic_to_clique_cover",
        GeneratorSpec("chromatic_number", 23, {"density": 0.1}),
        AUDIT_SCALES,
    )
    dense = audit(
        "chromatic_to_clique_cover",
        GeneratorSpec("chromatic_number", 23, {"density": 1.0}),
        AUDIT_SCALES,
    )
    if sparse.passed or not dense.passed:
        ok = False
        details.append("chromatic dichotomy")
    _report(6, ok, ", ".join(details))
    assert ok, details


def test_criterion_7_kernel_routing():
    ok = KERNEL_KINDS == frozenset(
        ("ip01", "feedback_node_set", "hcp", "chromatic_number", "clique_cover",
         "job_sequencing")
    )
    for kind in KINDS:
        chain = route_to_kernel(kind)
        end = chain.steps[-1].target_kind if chain.steps else kind
        ok &= end in KERNEL_KINDS
    _report(7, ok)
    assert ok


def test_criterion_8_determinism():
    def run_once():
        blobs = []
        for kind in KINDS:
            if kind == "job_sequencing":
                continue
            p = generate(scaled_spec(GeneratorSpec(kind, 42), 6)
                         if kind in ("three_dim_matching",)
                         else GeneratorSpec(kind, 42))
            blobs.append(dumps_problem(p))
        for rid in ("sat_to_3sat", "max_cut_to_ip", "dhcp_to_hcp"):
            family = GeneratorSpec(REDUCTIONS[rid].source_kind, 42)
            blobs.append(audit(rid, family, AUDIT_SCALES).dumps())
        return "".join(blobs).encode()

    ok = run_once() == run_once()
    _report(8, ok)
    assert ok
