import ast
import random
from itertools import combinations, product

import pytest

import karpkit.binprog
from karpkit.binprog import (
    EQ,
    GE,
    LE,
    BinaryProgram,
    ConstraintRow,
    ContractError,
    VariableTag,
    num_slacks,
    solve_ip,
    to_equality_form,
)
from karpkit.instances import Problem, SteinerInstance, UGraph
from karpkit.reductions import REDUCTIONS


def _vars(n):
    return tuple(VariableTag(("x", i)) for i in range(1, n + 1))


def _prog(n, rows):
    return BinaryProgram(_vars(n), tuple(rows))


def test_num_slacks_formula():
    assert num_slacks(0) == 0
    assert num_slacks(1) == 1
    assert num_slacks(5) == 3
    assert num_slacks(7) == 3
    assert num_slacks(8) == 4


def test_le5_row_gets_three_powers_of_two_slacks():
    # sum x_i <= 5 over five variables, gap 5 -> slacks 1, 2, 4
    row = ConstraintRow(tuple((i, 1) for i in range(5)), LE, 5, 5)
    eq = to_equality_form(_prog(5, [row]))
    assert eq.is_equality_form()
    slack_terms = eq.rows[0].terms[5:]
    assert [c for _, c in slack_terms] == [1, 2, 4]
    assert all(eq.variables[i].origin[0] == "slack" for i, _ in slack_terms)


def test_single_slack_for_x1_le_1():
    row = ConstraintRow(((0, 1),), LE, 1, 1)
    eq = to_equality_form(_prog(1, [row]))
    assert eq.rows[0].relation == EQ
    assert eq.rows[0].terms == ((0, 1), (1, 1))
    assert eq.rows[0].rhs == 1


def test_surplus_row_brute_forced():
    # x1 + x2 >= 1  <->  x1 + x2 - s1 = 1, checked over all 8 assignments
    row = ConstraintRow(((0, 1), (1, 1)), GE, 1, 1)
    eq = to_equality_form(_prog(2, [row]))
    assert eq.rows[0].terms == ((0, 1), (1, 1), (2, -1))
    for x1, x2 in product((0, 1), repeat=2):
        original = x1 + x2 >= 1
        lifted = any(eq.satisfied_by((x1, x2, s)) for s in (0, 1))
        assert original == lifted


def test_zero_gap_row_converts_by_relation_change():
    row = ConstraintRow(((0, 1),), LE, 1, 0)
    eq = to_equality_form(_prog(1, [row]))
    assert eq.num_variables == 1
    assert eq.rows[0].relation == EQ


def test_equality_rows_pass_through():
    row = ConstraintRow(((0, 1),), EQ, 1, None)
    eq = to_equality_form(_prog(1, [row]))
    assert eq.rows == (row,)


def test_missing_slack_bound_is_contract_error():
    row = ConstraintRow(((0, 1),), LE, 1, None)
    with pytest.raises(ContractError):
        to_equality_form(_prog(1, [row]))


def test_negative_slack_bound_is_contract_error():
    row = ConstraintRow(((0, 1),), LE, 1, -1)
    with pytest.raises(ContractError) as exc:
        to_equality_form(_prog(1, [row]))
    assert str(exc.value) == "negative slack_bound on row 0"


def test_equality_form_preserves_satisfiability_projected():
    # exhaustive round-trip on every program shape in a small family
    rows = [
        ConstraintRow(((0, 1), (1, 1), (2, 1)), LE, 2, 2),
        ConstraintRow(((0, 1), (2, -1)), GE, 0, 1),
    ]
    prog = _prog(3, rows)
    eq = to_equality_form(prog)
    n, total = prog.num_variables, eq.num_variables
    for bits in product((0, 1), repeat=n):
        original = prog.satisfied_by(bits)
        extended = any(
            eq.satisfied_by(bits + extra)
            for extra in product((0, 1), repeat=total - n)
        )
        assert original == extended


def test_bits_growth_of_slack_coefficients():
    # slacks 1,2,4 cost 2+3+4 bits with the sign convention; the measure
    # grows by exactly the slack terms' cost
    row = ConstraintRow(tuple((i, 1) for i in range(5)), LE, 5, 5)
    prog = _prog(5, [row])
    eq = to_equality_form(prog)
    assert eq.size("bits") - prog.size("bits") == (1 + 1) + (2 + 1) + (3 + 1)


def test_size_modes():
    prog = _prog(3, [ConstraintRow(((0, 1), (2, 3)), EQ, 4, None)])
    assert prog.size("element") == 3  # two nonzeros + one rhs
    empty = BinaryProgram((), ())
    assert empty.size("element") == 0


def test_validate_rejects_zero_coefficient():
    with pytest.raises(ContractError):
        _prog(1, [ConstraintRow(((0, 0),), EQ, 0, None)]).validate()


@pytest.mark.parametrize(
    "row",
    [
        ConstraintRow(((0, 0.5),), EQ, 1, None),
        ConstraintRow(((0, True),), EQ, 1, None),
        ConstraintRow(((0.0, 1),), EQ, 1, None),
        ConstraintRow(((0, 1),), EQ, 1.0, None),
        ConstraintRow(((0, 1),), EQ, False, None),
        ConstraintRow(((0, 1),), EQ, "1", None),
        ConstraintRow(((0, 1),), LE, 1, 0.5),
        ConstraintRow(((0, 1),), LE, 1, True),
    ],
)
def test_validate_rejects_non_integer_numbers(row):
    with pytest.raises(ContractError):
        _prog(1, [row]).validate()


def test_validate_rejects_duplicate_origins():
    prog = BinaryProgram((VariableTag(("x", 1)), VariableTag(("x", 1))), ())
    with pytest.raises(ContractError):
        prog.validate()


def test_solve_ip_symmetric_pair():
    prog = _prog(2, [ConstraintRow(((0, 1), (1, 1)), EQ, 1, None)])
    # lexicographically first solution with x1 as most significant bit: (0,1)
    assert solve_ip(prog) == (0, 1)


def test_solve_ip_infeasible_rhs():
    prog = _prog(1, [ConstraintRow(((0, 1),), EQ, 2, None)])
    assert solve_ip(prog) is None


def _brute_force(prog):
    """Reference solver: the lexicographically first satisfying assignment."""
    for x in product((0, 1), repeat=prog.num_variables):
        if all(row.holds(x) for row in prog.rows):
            return x
    return None


def _random_program(rng):
    # terms draw from the first `used` variables only, so trailing variables
    # appear in no row; indices may repeat within a row
    v = rng.randint(0, 10)
    used = rng.randint(0, v)
    rows = []
    for _ in range(rng.randint(0, 5) if used else 0):
        terms = tuple(
            (rng.randrange(used), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 5))
        )
        rows.append(ConstraintRow(terms, rng.choice((EQ, LE, GE)), rng.randint(-4, 5)))
    return _prog(v, rows)


def test_solve_ip_matches_brute_force_on_random_programs():
    rng = random.Random(20190227)
    answers = set()
    for _ in range(400):
        prog = _random_program(rng)
        expected = _brute_force(prog)
        assert solve_ip(prog) == expected, prog
        answers.add(expected is None)
    assert answers == {True, False}


@pytest.mark.parametrize(
    "n, rows, expected",
    [
        (0, [], ()),
        (0, [ConstraintRow((), GE, 1, None)], None),
        (3, [], (0, 0, 0)),
        # a repeated index counts twice; opposite terms cancel
        (2, [ConstraintRow(((0, 1), (0, 1), (1, 1)), EQ, 2, None)], (1, 0)),
        (2, [ConstraintRow(((0, 2), (1, 1), (0, -2)), EQ, 1, None)], (0, 1)),
        (2, [ConstraintRow(((0, 1), (0, -1)), EQ, 1, None)], None),
        # x1 and x2 appear in no row
        (3, [ConstraintRow(((2, 1),), GE, 1, None)], (0, 0, 1)),
        (2, [ConstraintRow(((0, 1), (1, -1)), GE, 1, None)], (1, 0)),
        (2, [ConstraintRow(((0, -1), (1, -1)), LE, -2, None)], (1, 1)),
        (2, [ConstraintRow(((0, 1), (1, 1)), GE, 3, None)], None),
        (
            3,
            [
                ConstraintRow(((0, 1), (1, 1)), LE, 1, None),
                ConstraintRow(((1, 1), (2, 1)), GE, 2, None),
                ConstraintRow(((0, 1), (2, -1)), EQ, -1, None),
            ],
            (0, 1, 1),
        ),
    ],
)
def test_solve_ip_edge_cases_match_brute_force(n, rows, expected):
    prog = _prog(n, rows)
    assert _brute_force(prog) == expected
    assert solve_ip(prog) == expected


def test_solve_ip_depth_beyond_recursion_limit():
    # oracles.solve admits any v its budget covers; the search must not recurse
    n = 3000
    rows = [ConstraintRow(((i, 1), (i + 1, 1)), EQ, 1, None) for i in range(n - 1)]
    assert solve_ip(_prog(n, rows)) == (0, 1) * (n // 2)


def test_solve_ip_steiner_image_matches_brute_force():
    g = UGraph(4, tuple(combinations(range(1, 5), 2)), (1, 2, 3, 1, 2, 1))
    source = Problem("steiner_tree", SteinerInstance(g, (1, 4), 3))
    prog = REDUCTIONS["steiner_tree_to_ip"].apply(source).payload
    assert prog.num_variables == 20
    witness = solve_ip(prog)
    assert witness is not None
    assert witness == _brute_force(prog)


def test_dump_is_readable():
    prog = _prog(2, [ConstraintRow(((0, 2), (1, -1)), LE, 1, 1)])
    text = prog.dump()
    assert "<=" in text and "2*" in text


def test_binprog_imports_nothing_from_karpkit():
    # instances imports binprog; an import back, even one inside a function
    # body, would make the package's modules import each other
    with open(karpkit.binprog.__file__) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = ["." if node.level else node.module]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(m == "." or m.split(".")[0] == "karpkit" for m in modules):
            found.append(ast.unparse(node))
    assert found == []
