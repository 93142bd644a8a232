import io
import json
from itertools import combinations

import pytest

from karpkit.cli import main
from karpkit.genlab import GeneratorSpec, generate
from karpkit.instances import Problem, UGraph
from karpkit.reductions import apply_chain, chain_from_names
from karpkit.serialize import (
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
    path = _write(
        tmp_path, "p.json",
        dumps_problem(generate(GeneratorSpec("partition", 3))),
    )
    code, _, err = run(capsys, "reduce", path, "--via", "nope")
    assert code == 2 and "nope" in err


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


def test_gen_emits_valid_envelope(tmp_path, capsys):
    spec = _write(tmp_path, "s.json", '{"kind": "clique", "seed": 9, "params": {}}')
    code, out, _ = run(capsys, "gen", "--spec", spec)
    assert code == 0
    assert loads_problem(out).kind == "clique"


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
], ids=["partition-float", "partition-float-bits", "partition-bool", "max_cut-W-bits",
        "max_cut-weight", "max_cut-weight-route", "knapsack-target", "steiner-budget"])
def test_non_integer_numbers_are_usage_errors(capsys, monkeypatch, text, argv, message):
    # otherwise 1.5 + 1.5 reads as NO and bits mode crashes with a traceback
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, *argv, "-")
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


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


FAS_2CYCLE = (
    '{"kind": "feedback_arc_set", "payload": '
    '{"graph": {"num_vertices": 2, "arcs": [[1, 2], [2, 1]]}, "k": 1}}'
)


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
