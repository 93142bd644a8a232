import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

import karpkit
from karpkit.cli import main
from karpkit.genlab import GeneratorSpec, generate
from karpkit.instances import KINDS, CnfFormula, Problem, UGraph
from karpkit.oracles import solve
from karpkit.reductions import ReductionSpec, apply_chain, chain_from_names
from karpkit.serialize import (
    dumps_certificate,
    dumps_problem,
    loads_certificate,
    loads_problem,
    problem_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def k4_file(tmp_path):
    g = UGraph(4, tuple(combinations(range(1, 5), 2)))
    return _write(tmp_path, "k4.json", dumps_problem(Problem("hcp", g)))


def test_solve_k4_writes_cycle(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code, out, err = run(capsys, "solve", k4_file(tmp_path), "--cert", str(cert))
    assert code == 0
    assert out.strip() == "YES"
    assert len(loads_certificate(cert.read_text()).value) == 4


def test_solve_no_exits_one(tmp_path, capsys):
    g = UGraph(4, ((1, 2), (2, 3), (3, 4)))
    path = _write(tmp_path, "p4.json", dumps_problem(Problem("hcp", g)))
    code, out, _ = run(capsys, "solve", path)
    assert code == 1 and out.strip() == "NO"


def test_solve_budget_refusal_exits_three(tmp_path, capsys):
    spec = GeneratorSpec("sat", 1, {"clauses": 4, "literals": 30})
    path = _write(tmp_path, "big.json", dumps_problem(generate(spec)))
    code, _, err = run(capsys, "solve", path, "--budget", "1000")
    assert code == 3
    assert "budget" in err


def test_route_partition_manifest(tmp_path, capsys):
    spec = GeneratorSpec("partition", 11, {"items": 6})
    path = _write(tmp_path, "part.json", dumps_problem(generate(spec)))
    manifest = tmp_path / "chain.json"
    final = tmp_path / "final.json"
    code, _, _ = run(
        capsys, "route", path, "--to-kernel",
        "--manifest", str(manifest), "-o", str(final),
    )
    assert code == 0
    m = json.loads(manifest.read_text())
    assert [s["reduction"] for s in m["steps"]] == [
        "partition_to_knapsack", "knapsack_to_ip",
    ]
    assert loads_problem(final.read_text()).kind == "ip01"


# sha256 over the manifest `route` writes for generate(GeneratorSpec(kind, s)),
# every generated kind, s = 0..19
ROUTE_MANIFEST_GOLDEN = (
    "31119f6fb3872f4ea381ff3799f3bb8c6357044bc488c6a157c94b46cc8da107"
)


def test_route_manifest_golden(tmp_path, capsys):
    h = hashlib.sha256()
    for kind in KINDS:
        if kind == "job_sequencing":
            continue
        for s in range(20):
            path = _write(tmp_path, "p.json", dumps_problem(generate(GeneratorSpec(kind, s))))
            code, out, _ = run(capsys, "route", path, "--to-kernel")
            assert code == 0, (kind, s)
            h.update(out.encode())
    assert h.hexdigest() == ROUTE_MANIFEST_GOLDEN


def test_reduce_solve_lift_verify_round_trip(tmp_path, capsys):
    # (a v b v c v d) & (~a), end to end through the CLI
    source = _write(
        tmp_path, "f.json",
        dumps_problem(loads_problem(
            '{"kind": "sat", "payload": {"num_literals": 4, '
            '"clauses": [[1, 2, 3, 4], [-1]]}}'
        )),
    )
    manifest = tmp_path / "m.json"
    final = tmp_path / "t.json"
    assert run(
        capsys, "route", source, "--to-kernel",
        "--manifest", str(manifest), "-o", str(final),
    )[0] == 0
    cert = tmp_path / "c.json"
    assert run(capsys, "solve", str(final), "--cert", str(cert))[0] == 0
    lifted = tmp_path / "lifted.json"
    assert run(
        capsys, "lift", "--chain", str(manifest), "--cert", str(cert),
        "-o", str(lifted),
    )[0] == 0
    assert run(capsys, "verify", source, "--cert", str(lifted))[0] == 0


def test_reduce_via_writes_envelope(tmp_path, capsys):
    path = _write(
        tmp_path, "part.json",
        dumps_problem(generate(GeneratorSpec("partition", 3, {"items": 5}))),
    )
    code, out, _ = run(capsys, "reduce", path, "--via", "partition_to_knapsack")
    assert code == 0
    assert loads_problem(out).kind == "knapsack"


def test_unknown_reduction_exits_two(tmp_path, capsys):
    problem = generate(GeneratorSpec("partition", 3))
    path = _write(tmp_path, "p.json", dumps_problem(problem))
    step = {"reduction": "nope", "instance": problem_to_json(problem)}
    manifest = {"source": problem_to_json(problem), "steps": [step]}
    chain = _write(tmp_path, "m.json", json.dumps(manifest))
    cert = _write(tmp_path, "c.json", '{"kind": "subset", "value": [1]}')
    for argv in (["reduce", path, "--via", "nope"], ["lift", "--chain", chain, "--cert", cert]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "unknown reduction 'nope'" in err, argv


def test_verify_bad_certificate_exits_two(tmp_path, capsys):
    path = k4_file(tmp_path)
    cert = _write(tmp_path, "c.json", '{"kind": "cycle", "value": [1, 2, 3]}')
    assert run(capsys, "verify", path, "--cert", cert)[0] == 2


def test_audit_table_and_json(tmp_path, capsys):
    code, out, _ = run(
        capsys, "audit", "--reduction", "knapsack_to_ip",
        "--seed", "3", "--scales", "4", "8", "16", "32", "64",
    )
    assert code == 0 and "PASS" in out
    code, out, _ = run(
        capsys, "audit", "--reduction", "knapsack_to_ip",
        "--seed", "3", "--scales", "4", "8", "16", "32", "64", "--json",
    )
    assert code == 0 and json.loads(out)["passed"] is True


def test_audit_failing_family_exits_one(capsys):
    code, out, _ = run(
        capsys, "audit", "--reduction", "chromatic_to_clique_cover",
        "--seed", "5", "--scales", "4", "8", "16", "32", "64",
        "--params", '{"density": 0.1}',
    )
    assert code == 1 and "FAIL" in out


def test_audit_unknown_reduction_is_a_usage_error(capsys):
    code, _, err = run(capsys, "audit", "--reduction", "nope", "--seed", "1", "--scales", "4")
    assert code == 2 and "unknown reduction 'nope'" in err


def test_gen_emits_valid_envelope(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", '{"kind": "clique", "seed": 9, "params": {}}')
    code, out, _ = run(capsys, "gen", "--spec", spec)
    assert code == 0
    assert loads_problem(out).kind == "clique"


def test_gen_with_no_sets_exits_zero(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", '{"kind": "set_covering", "seed": 1, "params": {"sets": 0}}')
    code, out, _ = run(capsys, "gen", "--spec", spec)
    assert code == 0 and loads_problem(out).param == 0


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "clique", "seed": 9, "params": [1]},
        {"kind": "clique", "seed": 9, "params": None},
        {"kind": "clique", "seed": 9, "params": "ab"},
        {"kind": "set_covering", "seed": 9, "params": {"universe": 0}},
        {"kind": "exact_cover", "seed": 9, "params": {"universe": 0}},
    ],
    ids=["list", "null", "string", "set_covering-universe-0", "exact_cover-universe-0"],
)
def test_gen_bad_spec_exits_two(tmp_path, capsys, spec):
    # a traceback would exit 1, which reads as NO
    code, out, err = run(capsys, "gen", "--spec", _write(tmp_path, "s.json", json.dumps(spec)))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_audit_params_must_be_an_object(capsys):
    code, out, err = run(
        capsys, "audit", "--reduction", "sat_to_3sat", "--seed", "1", "--scales", "4",
        "--params", "[1]",
    )
    assert (code, out, err) == (2, "", "error: params must be a JSON object, got [1]\n")


def test_measure_modes(tmp_path, capsys):
    path = k4_file(tmp_path)
    code, out, _ = run(capsys, "measure", path)
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "measure", path, "--mode", "bits")
    assert code == 0 and int(out.strip()) > 6


def test_dimacs_import(tmp_path, capsys):
    path = _write(tmp_path, "f.cnf", "p cnf 2 2\n1 2 0\n-1 0\n")
    code, out, _ = run(capsys, "solve", path, "--format", "dimacs")
    assert code == 0 and out.strip() == "YES"


def test_edgelist_import(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", "3\n1 2\n2 3\n1 3\n")
    code, out, _ = run(
        capsys, "solve", path, "--format", "edgelist", "--kind", "hcp"
    )
    assert code == 0


def test_edgelist_refuses_a_parameter_the_kind_does_not_take(tmp_path, capsys):
    # dropping it silently would answer another question than the one asked
    path = _write(tmp_path, "g.txt", "3\n1 2\n2 3\n1 3\n")
    code, out, err = run(
        capsys, "solve", path, "--format", "edgelist", "--kind", "hcp", "--param", "9"
    )
    assert (code, out, err) == (2, "", "error: hcp takes no parameter\n")


def test_edgelist_four_column_line_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", "3\n1 2\n1 2 3 4\n")
    code, out, err = run(
        capsys, "solve", path, "--format", "edgelist", "--kind", "hcp"
    )
    assert (code, out, err) == (2, "", "error: malformed edge line: '1 2 3 4'\n")


def test_max_cut_edge_without_weight_is_a_usage_error(capsys, monkeypatch):
    text = ('{"kind": "max_cut", "payload": '
            '{"graph": {"num_vertices": 2, "edges": [[1, 2]]}, "W": 1}}')
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "solve", "-")
    assert (code, out) == (2, "")
    assert err == "error: weighted graph requires a weight column on every edge\n"


def test_max_cut_edgelist_row_without_weight_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", "1 2 3\n2 3\n")
    code, out, err = run(
        capsys, "solve", path, "--format", "edgelist", "--kind", "max_cut", "--param", "1"
    )
    assert (code, out) == (2, "")
    assert err == "error: weighted graph requires a weight column on every edge\n"


def test_edgelist_requires_kind(tmp_path, capsys):
    path = _write(tmp_path, "g.txt", "1 2\n")
    code, _, err = run(capsys, "solve", path, "--format", "edgelist")
    assert code == 2 and "kind" in err


def test_usage_error_exits_two(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("text", ["[1, 2]", "7"])
def test_non_object_json_is_usage_error(tmp_path, capsys, monkeypatch, text):
    # exit 1 would read as NO
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "solve", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1

    inst = k4_file(tmp_path)
    cert = _write(tmp_path, "cert.json", text)
    code, out, err = run(capsys, "verify", inst, "--cert", cert)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _ip01_text(rhs, coef):
    row = {"relation": "=", "rhs": rhs, "terms": [[0, coef], [1, coef]]}
    payload = {"rows": [row], "variables": [["x", 1], ["x", 2]]}
    return json.dumps({"kind": "ip01", "payload": payload})


@pytest.mark.parametrize(
    "rhs, coef", [(1, 0.5), (True, 1), ("1", 1)], ids=["float", "bool", "str"]
)
def test_non_integer_ip01_is_usage_error(capsys, monkeypatch, rhs, coef):
    # otherwise a 0.5-coefficient row is solved over the reals and answers YES
    monkeypatch.setattr("sys.stdin", io.StringIO(_ip01_text(rhs, coef)))
    code, out, err = run(capsys, "solve", "-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


_PARTITION = '{"kind": "partition", "payload": {"values": [%s, %s]}}'
_MAX_CUT = (
    '{"kind": "max_cut", "payload": '
    '{"graph": {"num_vertices": 2, "edges": [[1, 2, %s]]}, "W": %s}}'
)
_KNAPSACK = '{"kind": "knapsack", "payload": {"values": [1, 2], "target": %s}}'
_STEINER = (
    '{"kind": "steiner_tree", "payload": '
    '{"graph": {"num_vertices": 2, "edges": [[1, 2, 1]]}, "terminals": [1, 2], "k": %s}}'
)
_SET_PACKING = (
    '{"kind": "set_packing", "payload": '
    '{"family": {"universe_size": %s, "sets": [[1, %s], [3]]}, "l": 2}}'
)
_MATCHING = '{"kind": "three_dim_matching", "payload": {"t_size": %s, "triples": [[1, 1, %s]]}}'
_TERMINALS = (
    '{"kind": "steiner_tree", "payload": '
    '{"graph": {"num_vertices": 2, "edges": [[1, 2, 1]]}, "terminals": [1, %s], "k": 1}}'
)
_HCP = '{"kind": "hcp", "payload": {"graph": {"num_vertices": %s, "edges": [[1, %s]]}}}'
_DHCP = '{"kind": "dhcp", "payload": {"graph": {"num_vertices": 2, "arcs": [[1, %s]]}}}'
_SAT = '{"kind": "sat", "payload": {"num_literals": %s, "clauses": [[%s]]}}'


@pytest.mark.parametrize("text, argv, message", [
    (_PARTITION % (1.5, 1.5), ("solve",), "values must be integers"),
    (_PARTITION % (1.5, 1.5), ("measure", "--mode", "bits"), "values must be integers"),
    (_PARTITION % ("true", "true"), ("solve",), "values must be integers"),
    (_MAX_CUT % (1, 2.5), ("measure", "--mode", "bits"),
     "max_cut parameter must be an integer"),
    (_MAX_CUT % (1.5, 1), ("solve",), "edge weights must be integers"),
    (_MAX_CUT % (1.5, 1), ("route", "--to-kernel"), "edge weights must be integers"),
    (_KNAPSACK % 2.5, ("solve",), "target must be an integer"),
    (_STEINER % 1.5, ("solve",), "weight budget must be an integer"),
    (_SET_PACKING % (3, 2.0), ("solve",), "elements must be integers"),
    (_SET_PACKING % (3.5, 2), ("solve",), "universe size must be an integer"),
    (_MATCHING % (1, 1.0), ("solve",), "coordinates must be integers"),
    (_MATCHING % (1.5, 1), ("solve",), "t_size must be an integer"),
    (_TERMINALS % 2.0, ("solve",), "terminals must be integers"),
    (_HCP % (3, 2.5), ("solve",), "vertex numbers must be integers"),
    (_HCP % (3.0, 2), ("solve",), "vertex count must be an integer"),
    (_DHCP % 2.0, ("solve",), "vertex numbers must be integers"),
    (_SAT % (2.5, 1), ("solve",), "literal count must be an integer"),
    (_SAT % (1, 1.0), ("solve",), "literals must be integers"),
], ids=["partition-float", "partition-float-bits", "partition-bool", "max_cut-W-bits",
        "max_cut-weight", "max_cut-weight-route", "knapsack-target", "steiner-budget",
        "set_packing-element", "set_packing-universe", "3dm-coordinate", "3dm-t_size",
        "steiner-terminal", "hcp-vertex", "hcp-vertex-count", "dhcp-vertex", "sat-count",
        "sat-literal"])
def test_non_integer_numbers_are_usage_errors(capsys, monkeypatch, text, argv, message):
    # otherwise 1.5 + 1.5 reads as NO and bits mode crashes with a traceback
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv, "-")
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


_SAT1 = _SAT % (1, 1)
_EDGE = (
    '{"kind": "%s", "payload": '
    '{"graph": {"num_vertices": 2, "edges": [[1, 2]]}, "%s": %s}}'
)
_K3 = (
    '{"kind": "hcp", "payload": '
    '{"graph": {"num_vertices": 3, "edges": [[1, 2], [1, 3], [2, 3]]}}}'
)
FAS_2CYCLE = (
    '{"kind": "feedback_arc_set", "payload": '
    '{"graph": {"num_vertices": 2, "arcs": [[1, 2], [2, 1]]}, "k": 1}}'
)


def test_oracle_self_check_failure_exits_4(capsys, monkeypatch, tmp_path):
    # a witness that its own instance rejects is karpkit's defect: not a
    # verdict, and not the user's error
    monkeypatch.setitem(karpkit.oracles.ORACLES, "partition", lambda p, budget: ((1,), 1))
    inst = _write(tmp_path, "p.json", _PARTITION % (2, 3))
    code, out, err = run(capsys, "solve", inst)
    assert code == 4 and out == ""
    assert err.startswith("self-check failure: partition oracle witness")
    assert err.count("\n") == 1


@pytest.mark.parametrize("instance, cert_kind, value", [
    (_ip01_text(1, 1), "binary", [0.7, 1]),
    (_ip01_text(1, 1), "binary", ["0", "1"]),
    (_ip01_text(1, 1), "binary", [1.9, 0]),
    (_SAT1, "assignment", ["false"]),
    (_SAT1, "assignment", [0]),
    (_EDGE % ("clique", "k", 2), "vertex_set", [1.0, 2]),
    (_K3, "cycle", [1.0, 2, 3]),
    (_EDGE % ("node_cover", "l", 1), "vertex_set", [1.0]),
    (_EDGE % ("clique_cover", "l", 1), "clique_partition", [[1.0, 2]]),
    (_STEINER % 1, "tree", {"edges": [[1, 2]], "root": 1.0}),
    (_STEINER % 1, "tree", {"edges": [[1.0, 2]], "root": 1}),
    (FAS_2CYCLE, "arc_set", [[1.0, 2]]),
], ids=["binary-float", "binary-str", "binary-float-high", "assignment-str",
        "assignment-int", "clique-float", "hcp-float", "node_cover-float",
        "clique_cover-float", "steiner-root-float", "steiner-edge-float",
        "feedback_arc_set-float"])
def test_verify_refuses_certificate_values_of_another_type(
    tmp_path, capsys, instance, cert_kind, value
):
    # a value is not coerced as it loads: [0.7, 1] read as (0, 1) answered
    # YES, and ["false"] read as (True,); an index 1.0 was read as 1 and
    # answered YES, and a float arc raised "list indices must be integers"
    path = _write(tmp_path, "p.json", instance)
    cert = _write(tmp_path, "c.json", json.dumps({"kind": cert_kind, "value": value}))
    code, out, err = run(capsys, "verify", path, "--cert", cert)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_outputs_re_readable(tmp_path, capsys):
    path = _write(
        tmp_path, "sp.json",
        dumps_problem(generate(GeneratorSpec("set_packing", 8))),
    )
    out_file = tmp_path / "out.json"
    assert run(
        capsys, "reduce", path, "--via", "set_packing_to_ip", "-o", str(out_file)
    )[0] == 0
    assert run(capsys, "measure", str(out_file))[0] == 0


def test_solve_long_hamiltonian_cycle_does_not_recurse(tmp_path, capsys):
    n = 1200
    cycle = tuple((i, i + 1) for i in range(1, n)) + ((1, n),)
    path = _write(tmp_path, "c.json", dumps_problem(Problem("hcp", UGraph.make(n, cycle))))
    code, out, err = run(capsys, "solve", path)
    assert code == 0 and out.strip() == "YES"
    assert "explored %d candidates" % n in err


def test_solve_long_path_clique_cover_does_not_recurse(tmp_path, capsys):
    n = 1100
    edges = tuple((i, i + 1) for i in range(1, n))
    problem = Problem("clique_cover", UGraph.make(n, edges), param=1)
    code, out, _ = run(capsys, "solve", _write(tmp_path, "p.json", dumps_problem(problem)))
    assert code == 1 and out.strip() == "NO"


def _lift_manifest(tmp_path, source, names):
    stages = apply_chain(chain_from_names(names), source)
    manifest = {
        "source": problem_to_json(source),
        "steps": [
            {"reduction": name, "instance": problem_to_json(stage)}
            for name, stage in zip(names, stages[1:])
        ],
    }
    return _write(tmp_path, "chain.json", json.dumps(manifest))


@pytest.mark.parametrize("source, names, cert, message", [
    (FAS_2CYCLE, ("fas_to_fns",), '{"kind": "vertex_set", "value": [99]}',
     "vertex out of range"),
    ('{"kind": "chromatic_number", "payload": {"graph": {"num_vertices": 3, '
     '"edges": [[1, 2], [2, 3]]}, "k": 2}}', ("chromatic_to_clique_cover",),
     '{"kind": "clique_partition", "value": [[1, 3], [99]]}', "vertex out of range"),
], ids=["fas_to_fns", "chromatic_to_clique_cover"])
def test_lift_rejects_malformed_certificate(tmp_path, capsys, source, names, cert, message):
    chain = _lift_manifest(tmp_path, loads_problem(source), names)
    code, out, err = run(capsys, "lift", "--chain", chain,
                         "--cert", _write(tmp_path, "c.json", cert))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_lift_refuses_certificate_that_does_not_verify(tmp_path, capsys):
    chain = _lift_manifest(tmp_path, loads_problem(FAS_2CYCLE), ("fas_to_fns",))
    cert = _write(tmp_path, "c.json", '{"kind": "vertex_set", "value": []}')
    code, out, err = run(capsys, "lift", "--chain", chain, "--cert", cert)
    assert code == 1 and out == ""
    assert "does not verify for the chain's final instance" in err


def test_lift_whose_lifted_certificate_does_not_verify_exits_one(tmp_path, capsys):
    # the figure-8 image is YES with one hub node, whose lifted single arc
    # leaves a cycle of the source (README "Known limitations")
    source = loads_problem(
        '{"kind": "feedback_arc_set", "payload": {"graph": {"num_vertices": 3, '
        '"arcs": [[1, 2], [2, 1], [1, 3], [3, 1]]}, "k": 1}}')
    chain = _lift_manifest(tmp_path, source, ("fas_to_fns",))
    image = apply_chain(chain_from_names(("fas_to_fns",)), source)[-1]
    cert = _write(tmp_path, "c.json", dumps_certificate(solve(image).certificate))
    code, out, err = run(capsys, "lift", "--chain", chain, "--cert", cert)
    assert (code, out, err) == (1, "", "lifted certificate does not verify\n")


def test_lift_applies_each_step_once(tmp_path, capsys, monkeypatch):
    source = Problem("sat", CnfFormula(3, ((1, -2), (2, 3))))
    names = ("sat_to_3sat", "threesat_to_ip")
    chain = _lift_manifest(tmp_path, source, names)
    image = apply_chain(chain_from_names(names), source)[-1]
    cert = _write(tmp_path, "c.json", dumps_certificate(solve(image).certificate))
    calls = []
    apply = ReductionSpec.apply

    def counted(spec, problem):
        calls.append(spec.name)
        return apply(spec, problem)

    monkeypatch.setattr(ReductionSpec, "apply", counted)
    code, out, _ = run(capsys, "lift", "--chain", chain, "--cert", cert)
    assert code == 0
    assert loads_certificate(out).kind == "assignment"
    assert calls == list(names)


@pytest.mark.parametrize(
    "kind", ["sat", "ip01", "steiner_tree", "knapsack", "three_dim_matching", "set_packing"]
)
def test_edgelist_refuses_kinds_that_are_not_graphs(tmp_path, capsys, kind):
    # a traceback here would exit 1, which reads as NO
    path = _write(tmp_path, "e.txt", "3\n1 2\n2 3\n")
    code, out, err = run(
        capsys, "solve", path, "--format", "edgelist", "--kind", kind, "--param", "1"
    )
    assert code == 2 and out == ""
    assert err == "error: edge lists hold graph kinds only, not %s\n" % kind


_SHORT_ROW = '{"graph": {"num_vertices": 3, "edges": [%s, [2]]}'
_SHORT_ROWS = {
    "clique": '{"kind": "clique", "payload": %s, "k": 2}}' % (_SHORT_ROW % "[1, 2]"),
    "hcp": '{"kind": "hcp", "payload": %s}}' % (_SHORT_ROW % "[1, 2]"),
    "max_cut": '{"kind": "max_cut", "payload": %s, "W": 1}}' % (_SHORT_ROW % "[1, 2, 1]"),
    "steiner_tree": '{"kind": "steiner_tree", "payload": %s, "terminals": [1], "k": 1}}'
    % (_SHORT_ROW % "[1, 2, 1]"),
}


@pytest.mark.parametrize("command", ["solve", "measure", "verify"])
@pytest.mark.parametrize("kind", sorted(_SHORT_ROWS))
def test_short_edge_row_is_a_usage_error(tmp_path, capsys, kind, command):
    # its IndexError used to escape the CLI, and exit 1 reads as NO
    path = _write(tmp_path, "p.json", _SHORT_ROWS[kind])
    extra = ("--cert", _write(tmp_path, "c.json", '{"kind": "x", "value": []}'))
    code, out, err = run(capsys, command, path, *(extra if command == "verify" else ()))
    assert code == 2 and out == ""
    assert err == "error: edge row needs two vertices\n"


_NEGATIVE_SIZES = {
    "dhcp": ('{"kind": "dhcp", "payload": {"graph": {"num_vertices": -1, "arcs": []}}}',
             "negative vertex count"),
    "set_packing": ('{"kind": "set_packing", "payload": '
                    '{"family": {"universe_size": -5, "sets": []}, "l": 0}}',
                    "negative universe size"),
    "three_dim_matching": ('{"kind": "three_dim_matching", "payload": '
                           '{"t_size": -1, "triples": []}}', "negative t_size"),
    "steiner_tree": (_TERMINALS % "1, 2", "duplicate terminal"),  # terminals [1, 1, 2]
}


@pytest.mark.parametrize("command", ["solve", "measure", "verify"])
@pytest.mark.parametrize("kind", sorted(_NEGATIVE_SIZES))
def test_negative_size_or_repeated_terminal_is_a_usage_error(tmp_path, capsys, kind, command):
    # these gave a verdict (set_packing YES, dhcp NO), a size, or a math.comb
    # error, and measure counted a repeated terminal twice
    text, message = _NEGATIVE_SIZES[kind]
    path = _write(tmp_path, "p.json", text)
    extra = ("--cert", _write(tmp_path, "c.json", '{"kind": "x", "value": []}'))
    code, out, err = run(capsys, command, path, *(extra if command == "verify" else ()))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


_COMPLEMENTED = (
    '{"kind": "clique_cover", "payload": '
    '{"graph": {"num_vertices": 2, "edges": [[1, 2]], "complement": %s}, "l": 1}}'
)


@pytest.mark.parametrize("command", ["solve", "measure", "verify"])
@pytest.mark.parametrize("flag", ['"false"', '"true"', "1", "0", "null", "[]"])
def test_complement_flag_that_is_not_a_bool_is_a_usage_error(tmp_path, capsys, flag, command):
    # read with bool(), "false" meant true and solve answered NO (exit 1)
    path = _write(tmp_path, "p.json", _COMPLEMENTED % flag)
    extra = ("--cert", _write(tmp_path, "c.json", '{"kind": "x", "value": []}'))
    code, out, err = run(capsys, command, path, *(extra if command == "verify" else ()))
    assert code == 2 and out == ""
    assert err == "error: complement flag must be a boolean\n"


@pytest.mark.parametrize("flag, code, verdict", [("false", 0, "YES"), ("true", 1, "NO")])
def test_complement_flag_that_is_a_bool_is_read(tmp_path, capsys, flag, code, verdict):
    path = _write(tmp_path, "p.json", _COMPLEMENTED % flag)
    assert run(capsys, "solve", path)[:2] == (code, verdict + "\n")


def test_json_nested_too_deep_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100000))
    code, out, err = run(capsys, "solve", "-")
    assert code == 2 and out == ""
    assert err.startswith("error: maximum recursion depth") and err.count("\n") == 1


@pytest.mark.parametrize("instance, cert_kind, value", [
    (_EDGE % ("clique", "k", 2), "vertex_set", ["x", 2]),
    (_EDGE % ("clique", "k", 2), "vertex_set", [[1], 2]),
    (_K3, "cycle", ["x", 2, 3]),
    (_EDGE % ("clique_cover", "l", 1), "clique_partition", [["x", 2]]),
    (_STEINER % 1, "tree", {"edges": [[1, 2]], "root": "x"}),
], ids=["clique-str", "clique-list", "hcp-str", "clique_cover-str", "steiner-root-str"])
def test_verify_names_a_member_that_is_not_a_number(
    tmp_path, capsys, instance, cert_kind, value
):
    # these compared a string or a list with an int, and printed Python's
    # own TypeError text
    path = _write(tmp_path, "p.json", instance)
    cert = _write(tmp_path, "c.json", json.dumps({"kind": cert_kind, "value": value}))
    code, out, err = run(capsys, "verify", path, "--cert", cert)
    assert code == 2 and out == ""
    assert err == "error: vertex must be an integer\n"


@pytest.mark.parametrize("text, code, verdict", [
    (_PARTITION % (1, 1), 0, "YES\n"),
    (_PARTITION % (1, 2), 1, "NO\n"),
    (_SHORT_ROWS["hcp"], 2, ""),
], ids=["yes", "no", "malformed"])
def test_python_dash_m_karpkit_solves(text, code, verdict):
    src = os.path.dirname(os.path.dirname(karpkit.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "karpkit", "solve", "-"], input=text,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (code, verdict)
    if code == 2:
        assert done.stderr == "error: edge row needs two vertices\n"
