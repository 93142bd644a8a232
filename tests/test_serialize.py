import hashlib
import json

import pytest

from karpkit.binprog import BinaryProgram, ConstraintRow, ContractError, VariableTag
from karpkit.genlab import GeneratorSpec, generate, scaled_spec
from karpkit.instances import (
    KINDS,
    Certificate,
    CnfFormula,
    DiGraph,
    IntegerList,
    InvalidInstanceError,
    Problem,
    SetFamily,
    SteinerInstance,
    TripleFamily,
    UGraph,
    UnsupportedKindError,
    measure_input_size,
    validate,
)
from karpkit.oracles import BudgetExceededError, solve
from karpkit.reductions import apply_chain, lift_chain, route_to_kernel
from karpkit.serialize import (
    dumps_certificate,
    dumps_problem,
    loads_certificate,
    loads_problem,
    parse_dimacs_cnf,
    parse_edge_list,
    problem_from_json,
    problem_to_json,
)


def test_round_trip_every_kind():
    for kind in KINDS:
        if kind == "job_sequencing":
            p = Problem(kind, None)
        else:
            p = generate(GeneratorSpec(kind, 13))
        assert loads_problem(dumps_problem(p)) == p, kind


def test_envelope_shape():
    p = generate(GeneratorSpec("clique", 1, {"vertices": 4, "param": 2}))
    d = json.loads(dumps_problem(p))
    assert set(d) == {"kind", "payload"}
    assert d["kind"] == "clique"
    assert d["payload"]["k"] == 2


def test_dumps_is_stable():
    p = generate(GeneratorSpec("max_cut", 2))
    assert dumps_problem(p) == dumps_problem(p)


def test_certificate_round_trip():
    certs = [
        Certificate("assignment", (True, False)),
        Certificate("vertex_set", (1, 3)),
        Certificate("arc_set", ((1, 2), (2, 1))),
        Certificate("clique_partition", ((1, 2), (3,))),
        Certificate("tree", {"edges": ((1, 2),), "root": 1}),
        Certificate("binary", (0, 1, 1)),
        Certificate("cycle", (1, 2, 3)),
    ]
    for c in certs:
        assert loads_certificate(dumps_certificate(c)) == c, c.kind


def test_solver_certificates_survive_round_trip():
    for kind in ("hcp", "steiner_tree", "clique_cover"):
        params = {"generous_budget": True} if kind == "steiner_tree" else {}
        p = generate(GeneratorSpec(kind, 4, params))
        v = solve(p)
        if v.answer:
            assert loads_certificate(dumps_certificate(v.certificate)) == v.certificate


def test_parse_dimacs():
    text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    p = parse_dimacs_cnf(text)
    assert p.kind == "sat"
    assert p.payload.num_literals == 3
    assert p.payload.clauses == ((1, -2), (2, 3))


def test_parse_dimacs_without_header_or_final_zero():
    # the literal count is the largest literal, and the last clause ends
    # with the input
    p = parse_dimacs_cnf("1 -2 0\n2 3\n")
    assert p.payload == CnfFormula(3, ((1, -2), (2, 3)))


def test_parse_dimacs_bad_header():
    with pytest.raises(ValueError):
        parse_dimacs_cnf("p graph 3 2\n1 2 0\n")


def test_parse_edge_list_plain():
    p = parse_edge_list("# a path\n4\n1 2\n2 3 # chord\n", "hcp")
    assert p.payload.num_vertices == 4
    assert p.payload.edges == ((1, 2), (2, 3))


def test_parse_edge_list_weighted_and_directed():
    p = parse_edge_list("1 2 5\n2 3 1\n", "max_cut", param=3)
    assert p.payload.weights == (5, 1)
    assert p.param == 3
    q = parse_edge_list("1 2\n2 1\n", "dhcp")
    assert q.payload.arcs == ((1, 2), (2, 1))


def test_parse_edge_list_requires_weights_for_max_cut():
    with pytest.raises(ValueError):
        parse_edge_list("1 2\n", "max_cut", param=0)


# ---------------------------------------------------------------------------
# golden surface: serialized bytes, sizes, round trips and routed stages
# ---------------------------------------------------------------------------


def _instances(kind, seed):
    """The instances of a seed from the default family and the scale-6
    family; ip01 has no scale knob and takes six rows instead, and
    job_sequencing is the bare tag."""
    if kind == "job_sequencing":
        return [Problem(kind, None)] * 2
    spec = GeneratorSpec(kind, seed)
    scaled = spec.with_params(rows=6) if kind == "ip01" else scaled_spec(spec, 6)
    return [generate(spec), generate(scaled)]


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as exc:  # the error a kind gives is part of its surface
        return repr((type(exc).__name__, str(exc)))


def _surface(problem):
    """One record: the dumps_problem bytes, (element, bits) sizes, the
    loads_problem round trip, and the bytes of every routed stage."""
    text = dumps_problem(problem)
    sizes = (_outcome(measure_input_size, problem, "element"),
             _outcome(measure_input_size, problem, "bits"))
    stages = apply_chain(route_to_kernel(problem.kind), problem)
    return repr((text, sizes, loads_problem(text) == problem,
                 [dumps_problem(stage) for stage in stages])).encode() + b"\n"


def _surface_digest(kind):
    h = hashlib.sha256()
    for s in range(50):
        for problem in _instances(kind, s):
            h.update(_surface(problem))
    return h.hexdigest()


# sha256 over _surface of generate(...) for seeds 0..49, default and scale 6
SURFACE_GOLDEN = {
    "sat":
        "9be0e08973c3b541fe91138dbc40ae8706ebc4e8d4412364247708490109d7c4",
    "ip01":
        "22e84fc1e92776eae7e2d8a939fa502784969ac87b699f4adf016e49149a6c27",
    "clique":
        "317a04c154103f6e794c2582fb8688a295f744224a57ef45a5030df7458320b5",
    "set_packing":
        "c62ea837830266ca29f3085ee5236df30d9c48cbdf27827aa8ca704e9080ce38",
    "node_cover":
        "532327e3c9ee18bd607edad9a42bab544b01add4df691cb04034e55495c82173",
    "set_covering":
        "e83556c5a74c86046532c487bb412575190962593b7f2464183f6b02911c64c6",
    "feedback_node_set":
        "bc11411cb15c2b950f6c3b7870ab8c04232140ce971c613ec94ccba387d45118",
    "feedback_arc_set":
        "ae6797e7024389ab1da32af574274cf7f811856331199f786b1ec2243d2fc092",
    "dhcp":
        "9e67e969e8e13212d02296b812347f02eae8fe273ec75613781602af449f9c13",
    "hcp":
        "9c9efc9629c2ff75449538dbd8e26f1dce78f96e2c94983832d882e19b9956ae",
    "threesat":
        "b981bf059fff211d14e4ef9ed4954d6fd0345583b0843c65da4c04aa15d0a692",
    "chromatic_number":
        "74b469fe1b2c5d260aa7fda953c7c30b50e8735531ce9774b1e61f4e148a46eb",
    "clique_cover":
        "169ade7be3c44fcae466c2d58b8604de34e1ea61ee53b20b2c6e6dd20f1e40e8",
    "exact_cover":
        "3c3334cd95849f487a7dda15f5ff00aceaa30dac17ad6a446395beb213c14613",
    "hitting_set":
        "b5d35fc26e63caa3d8e3aa07b644688b3bc8cde5e71d490a82f0529a1946bf90",
    "steiner_tree":
        "dc6011b61366d6e6e764ea6ec469ddfc3407003a9e7a971d4612c1c8fec7f72e",
    "three_dim_matching":
        "bce93fb1f6ab50a760955fe1bb96fbfd0540b9c033ab825529872516f837df39",
    "knapsack":
        "7ec5803c297e245dd9f8da171668efa662464cc312794fbad799265c730e08b8",
    "job_sequencing":
        "c89f02cc2a711deab8ebbc31b90c5fa007204688bd123c0995a4cb9975ffbe3b",
    "partition":
        "04c219248253349a3cff3cb9f4225b51787a59c3a45167fc8fafd7f1f7cfa6e1",
    "max_cut":
        "98ed5555b5367b78104d86eb84b2fdb5b742cd799c34d7dc48f0e0379404e880",
}


@pytest.mark.parametrize("kind", KINDS)
def test_golden_surface(kind):
    assert _surface_digest(kind) == SURFACE_GOLDEN[kind]


_IP_STR_RHS = BinaryProgram(
    (VariableTag(("x", 1)),), (ConstraintRow(((0, 1),), "=", "1"),))
_WEIGHTED = UGraph(2, ((1, 2),), (1,))
_UNWEIGHTED = UGraph(2, ((1, 2),))


def _ip_row(*row):
    """A one-variable program with the one row given."""
    return BinaryProgram((VariableTag(("x", 1)),), (ConstraintRow(*row),))


# (problem, error, message): at least one malformed instance per kind, and
# an unknown kind
MALFORMED_INSTANCES = [
    (Problem("sat", CnfFormula(-1, ())), InvalidInstanceError, "negative literal count"),
    (Problem("sat", CnfFormula(2, ((),))), InvalidInstanceError, "empty clause"),
    (Problem("sat", CnfFormula(2, ((3,),))), InvalidInstanceError, "literal out of range"),
    (Problem("ip01", _IP_STR_RHS), ContractError, "rhs must be an integer, got '1'"),
    (Problem("clique", _UNWEIGHTED), InvalidInstanceError,
     "clique requires a scalar parameter"),
    (Problem("clique", _UNWEIGHTED, -1), InvalidInstanceError, "negative parameter"),
    (Problem("clique", _UNWEIGHTED, 3), InvalidInstanceError,
     "parameter exceeds vertex count"),
    (Problem("clique", _WEIGHTED, 1), InvalidInstanceError,
     "weights not allowed for this kind"),
    (Problem("clique", UGraph(2, ((1, 2),), complement=True), 1), InvalidInstanceError,
     "complement flag reserved for clique_cover"),
    (Problem("set_packing", SetFamily(2, ((1, 3),)), 1), InvalidInstanceError,
     "element out of range"),
    (Problem("set_packing", SetFamily(2, ((1, 1),)), 1), InvalidInstanceError,
     "duplicate element within one set"),
    (Problem("node_cover", UGraph(2, ((2, 2),)), 1), InvalidInstanceError,
     "self-loop (2,2)"),
    (Problem("node_cover", UGraph(-1, ()), 0), InvalidInstanceError,
     "negative vertex count"),
    (Problem("set_covering", SetFamily(2, ((1, 2),)), 2), InvalidInstanceError,
     "k exceeds number of sets"),
    (Problem("feedback_node_set", DiGraph(2, ((1, 3),)), 1), InvalidInstanceError,
     "vertex out of range"),
    (Problem("feedback_arc_set", DiGraph(2, ((1, 2), (1, 2))), 1), InvalidInstanceError,
     "duplicate arc (1,2)"),
    (Problem("dhcp", DiGraph(2, ((0, 1),))), InvalidInstanceError, "vertex out of range"),
    (Problem("hcp", UGraph(3, ((1, 2), (1, 2)))), InvalidInstanceError,
     "duplicate edge (1,2)"),
    (Problem("hcp", UGraph(2, ((1, 3),))), InvalidInstanceError, "vertex out of range"),
    (Problem("hcp", UGraph(2, ((1, 2),), complement=True)), InvalidInstanceError,
     "complement flag reserved for clique_cover"),
    (Problem("threesat", CnfFormula(4, ((1, 2, 3, 4),))), InvalidInstanceError,
     "clause larger than 3"),
    (Problem("chromatic_number", _UNWEIGHTED, 3), InvalidInstanceError,
     "parameter exceeds vertex count"),
    (Problem("clique_cover", _UNWEIGHTED, 3), InvalidInstanceError,
     "parameter exceeds vertex count"),
    (Problem("clique_cover", _WEIGHTED, 1), InvalidInstanceError,
     "weights not allowed for this kind"),
    (Problem("exact_cover", SetFamily(1, ((2,),))), InvalidInstanceError,
     "element out of range"),
    (Problem("hitting_set", SetFamily(2, ((2, 2),))), InvalidInstanceError,
     "duplicate element within one set"),
    (Problem("steiner_tree", SteinerInstance(_UNWEIGHTED, (1,), 1)), InvalidInstanceError,
     "weights required"),
    (Problem("steiner_tree", SteinerInstance(UGraph(2, ((1, 2),), (-1,)), (1,), 1)),
     InvalidInstanceError, "negative edge weight"),
    (Problem("steiner_tree", SteinerInstance(_WEIGHTED, (), 1)), InvalidInstanceError,
     "terminal set empty"),
    (Problem("steiner_tree", SteinerInstance(_WEIGHTED, (3,), 1)), InvalidInstanceError,
     "terminal out of range"),
    (Problem("steiner_tree", SteinerInstance(_WEIGHTED, (1,), -1)), InvalidInstanceError,
     "negative weight budget"),
    (Problem("three_dim_matching", TripleFamily(2, ((1, 2),))), InvalidInstanceError,
     "triple must have three coordinates"),
    (Problem("three_dim_matching", TripleFamily(2, ((1, 2, 3),))), InvalidInstanceError,
     "coordinate out of range"),
    (Problem("three_dim_matching", TripleFamily(2, ((1, 2, 1), (1, 2, 1)))),
     InvalidInstanceError, "duplicate triple"),
    (Problem("knapsack", IntegerList((1, 2))), InvalidInstanceError,
     "knapsack requires a target"),
    (Problem("knapsack", IntegerList((1, 2), -1)), InvalidInstanceError,
     "negative target"),
    (Problem("knapsack", IntegerList((0, 2), 1)), InvalidInstanceError,
     "integers must be >= 1"),
    (Problem("job_sequencing", IntegerList((1,))), InvalidInstanceError,
     "job_sequencing carries no payload"),
    (Problem("partition", IntegerList((1, 1), 1)), InvalidInstanceError,
     "partition carries no target"),
    (Problem("max_cut", _UNWEIGHTED, 1), InvalidInstanceError, "weights required"),
    (Problem("max_cut", UGraph(2, ((1, 2),), (1, 1)), 1), InvalidInstanceError,
     "one weight per edge required"),
    (Problem("max_cut", UGraph(2, ((1, 2),), (-1,)), 1), InvalidInstanceError,
     "negative edge weight"),
    (Problem("frobnicate", None), UnsupportedKindError, "unknown kind 'frobnicate'"),
    (Problem("dhcp", DiGraph(-1, ())), InvalidInstanceError, "negative vertex count"),
    (Problem("set_packing", SetFamily(-1, ()), 0), InvalidInstanceError,
     "negative universe size"),
    (Problem("three_dim_matching", TripleFamily(-1, ())), InvalidInstanceError,
     "negative t_size"),
    (Problem("steiner_tree", SteinerInstance(_WEIGHTED, (1, 1), 1)), InvalidInstanceError,
     "duplicate terminal"),
    (Problem("clique_cover", UGraph(2, ((1, 2),), None, "false"), 1), InvalidInstanceError,
     "complement flag must be a boolean"),
    (Problem("hcp", _UNWEIGHTED, 7), InvalidInstanceError, "hcp takes no parameter"),
    (Problem("job_sequencing", None, 1), InvalidInstanceError,
     "job_sequencing takes no parameter"),
    (Problem("ip01", BinaryProgram((VariableTag(("x", 1)),), (
        ConstraintRow(((0, 1),), "!=", 1, None),))), ContractError, "bad relation '!='"),
    (Problem("ip01", BinaryProgram((VariableTag(("x", 1)),), (
        ConstraintRow(((1, 1),), "=", 1, None),))), ContractError,
     "term references undeclared variable"),
    (Problem("ip01", _ip_row(((0, 0),), "=", 1)), ContractError,
     "zero coefficients must not be stored"),
    (Problem("ip01", _ip_row(((0, True),), "=", 1)), ContractError,
     "term (0, True) is not an integer (index, coefficient) pair"),
    (Problem("ip01", _ip_row(((0.0, 1),), "=", 1)), ContractError,
     "term (0.0, 1) is not an integer (index, coefficient) pair"),
    (Problem("ip01", _ip_row(((0, 1),), "<=", 1, 0.5)), ContractError,
     "slack_bound must be an integer, got 0.5"),
    (Problem("ip01", BinaryProgram((VariableTag(("x", 1)), VariableTag(("x", 1))), ())),
     ContractError, "variable origin tags must be unique"),
]


@pytest.mark.parametrize(
    "problem, error, message", MALFORMED_INSTANCES,
    ids=["%s-%d" % (case[0].kind, i) for i, case in enumerate(MALFORMED_INSTANCES)],
)
def test_malformed_instance_messages(problem, error, message):
    with pytest.raises(error) as exc:
        validate(problem)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("read", [
    lambda: problem_to_json(Problem("nope", None)),
    lambda: problem_from_json({"kind": "nope", "payload": {}}),
    lambda: parse_edge_list("1 2\n", "nope"),
], ids=["problem_to_json", "problem_from_json", "parse_edge_list"])
def test_unknown_kind_is_refused(read):
    with pytest.raises(UnsupportedKindError) as exc:
        read()
    assert str(exc.value) == "unknown kind 'nope'"


def test_malformed_instances_cover_every_kind():
    assert {case[0].kind for case in MALFORMED_INSTANCES} >= set(KINDS)


@pytest.mark.parametrize("kind", ["job_sequencing", "frobnicate"])
def test_unmeasured_kinds(kind):
    with pytest.raises(UnsupportedKindError) as exc:
        measure_input_size(Problem(kind, None))
    assert str(exc.value) == "no input-size measure for kind %r" % kind


def test_json_target_is_read_for_knapsack_and_refused_for_partition():
    knapsack = '{"kind": "knapsack", "payload": {"values": [1, 2]}}'
    partition = '{"kind": "partition", "payload": {"values": [1, 1], "target": 1}}'
    for text, message in ((knapsack, "knapsack requires a target"),
                          (partition, "partition carries no target")):
        with pytest.raises(InvalidInstanceError, match=message):
            loads_problem(text)


# ---------------------------------------------------------------------------
# golden certificates: the bytes of every oracle witness and lifted witness
# ---------------------------------------------------------------------------


def _witness(problem):
    try:
        return solve(problem).certificate
    except BudgetExceededError:
        return None


def _certificates(kind, seed):
    """The oracle's certificate of generate(GeneratorSpec(kind, seed)), and
    the one lifted back through its kernel route from the image's oracle
    certificate after a dumps/loads round trip; NO and refusals give none."""
    problem = generate(GeneratorSpec(kind, seed))
    chain = route_to_kernel(kind)
    image = _witness(apply_chain(chain, problem)[-1])
    certs = [_witness(problem)]
    if image is not None:
        certs.append(lift_chain(chain, problem, loads_certificate(dumps_certificate(image))))
    return [c for c in certs if c is not None]


# sha256 over the dumps_certificate bytes of _certificates(kind, s), s = 0..49
CERTIFICATE_GOLDEN = {
    "sat":
        "dbebc3c269d0671870c21aa26d9b62eec10c10f7db068d8ffd6e8a80d9c70385",
    "ip01":
        "8d53f5509060ed8fb265fa40fde198e9eea4d0350818c43bfb7da5a4a1614258",
    "clique":
        "8988152702806ac9cc4f7404335e5e20c0f0a02401a867d915b58592d1b4700c",
    "set_packing":
        "706351b0915e246d58066f5f6ba3e25ec9111c3abfa61ff4247787777cf03819",
    "node_cover":
        "f5daaa7f3d75461f85b2426803b3e19330c01001e00b85c93343c4f8f8dd7d75",
    "set_covering":
        "d1c127cd528d79a203b3d89c3799d85e24bc171b6f3258ec880ef2f1839bbe3d",
    "feedback_node_set":
        "ca94f94dd25509b6d87758ef12ceb6e10667e53981dab2a7baea356e247a1753",
    "feedback_arc_set":
        "8d36aa2445d0e41d184b6571abc8b2b4d28fec5123113aa88b9730c0c37f432c",
    "dhcp":
        "1c84b8bb8169fb57253d0d1183279a73940f8d20c45c2eb748fbf23438f87db6",
    "hcp":
        "08a80c4ef77b366b96ffde5341799e3205c7b29cb7c0d28c2a859fb7cb86bdba",
    "threesat":
        "e243cc8b0263ba89afc81d9600952e659544c672b8aa6014970e913a7a608e14",
    "chromatic_number":
        "5d1c4e18c125c63b790ee3fd44e348db6ffb5b6136f07a26d9677235e5db08ec",
    "clique_cover":
        "dc0c391e52847fe575171ae110b35ee76ea36abb537668854beff66ff8333c01",
    "exact_cover":
        "402f254589039a4dffda3408dd7114d0c260765fd2aab1be043b32dee8694d60",
    "hitting_set":
        "d87a6dc370d7daa9b99ec365ed0d216172b10210ad7cfd112e307559301d4864",
    "steiner_tree":
        "4f4250c16227d0b043c9025efd1b8924793700030c5272de40ffcc43ac323039",
    "three_dim_matching":
        "254ba158dd9cd4146587d5819a94149d1f491070af3543572885febad391e35c",
    "knapsack":
        "1d2eb12fc294b24424ccbc1ccfd53e8cd4ef4c4be972e99d035d36d95577db87",
    "partition":
        "9b6027ce97e42e314082812ab4aa4e5edde0efbf6e01acc353862250a2ac3d08",
    "max_cut":
        "ee64965b10f918b8cb3dc568ba8805ac8f21c06cec05dbb63f7d8938fd66430e",
}


@pytest.mark.parametrize("kind", CERTIFICATE_GOLDEN)
def test_golden_certificate_bytes(kind):
    h = hashlib.sha256()
    for s in range(50):
        for cert in _certificates(kind, s):
            text = dumps_certificate(cert)
            assert loads_certificate(text) == cert
            h.update(text.encode())
    assert h.hexdigest() == CERTIFICATE_GOLDEN[kind]
