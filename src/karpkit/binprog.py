"""0-1 integer programs: sparse constraint rows, slack/surplus rewriting,
and an exact lexicographic feasibility search pruned by row activity bounds.

A row is a `ConstraintRow` NamedTuple (terms, relation, rhs, slack_bound):
reductions build one per row, so it is kept as cheap as a tuple, and it
equals the plain 4-tuple of its fields.  `BinaryProgram.validate` checks
every field of every row in one pass, and every reduction's image goes
through it.

Inequality rows carry a `slack_bound`: the maximum LHS-RHS gap over
satisfying binary assignments, supplied analytically by whichever reduction
built the row.  Converting a row to equality form appends
ceil(log2(gap+1)) fresh binary slack variables with power-of-two
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

EQ, LE, GE = "=", "<=", ">="


def is_int(x):
    """An integer, and not a bool (JSON true must not count as 1)."""
    return isinstance(x, int) and not isinstance(x, bool)


def nbits(v):
    """Binary encoding length of an integer: ceil(log2(|v|+1)) + 1."""
    return abs(v).bit_length() + 1


class ContractError(ValueError):
    """An operation precondition was violated (e.g. missing slack_bound)."""


@dataclass(frozen=True)
class VariableTag:
    """Semantic label recording which source object a variable encodes."""

    origin: tuple


class ConstraintRow(NamedTuple):
    """One sparse row: sum(c * x[i] for (i, c) in terms) `relation` rhs.

    A NamedTuple, so a row is immutable and hashable, and it equals the
    plain 4-tuple (terms, relation, rhs, slack_bound) of its fields.
    """

    terms: tuple  # ((var_index, coefficient), ...), var_index 0-based
    relation: str
    rhs: int
    slack_bound: Optional[int] = None

    def holds(self, assignment):
        lhs = sum(c * assignment[i] for i, c in self.terms)
        if self.relation == EQ:
            return lhs == self.rhs
        if self.relation == LE:
            return lhs <= self.rhs
        return lhs >= self.rhs


@dataclass(frozen=True)
class BinaryProgram:
    variables: tuple  # of VariableTag
    rows: tuple  # of ConstraintRow

    @property
    def num_variables(self):
        return len(self.variables)

    def validate(self):
        # `type(x) is int` settles the common case before `is_int` decides
        origins = [t.origin for t in self.variables]
        if len(set(origins)) != len(origins):
            raise ContractError("variable origin tags must be unique")
        num_variables = len(origins)
        for terms, relation, rhs, slack_bound in self.rows:
            if relation not in (EQ, LE, GE):
                raise ContractError("bad relation %r" % relation)
            if not (type(rhs) is int or is_int(rhs)):
                raise ContractError("rhs must be an integer, got %r" % (rhs,))
            if not (slack_bound is None or type(slack_bound) is int or is_int(slack_bound)):
                raise ContractError("slack_bound must be an integer, got %r" % (slack_bound,))
            for i, c in terms:
                if not ((type(i) is int or is_int(i)) and (type(c) is int or is_int(c))):
                    raise ContractError(
                        "term %r is not an integer (index, coefficient) pair" % ((i, c),)
                    )
                if not 0 <= i < num_variables:
                    raise ContractError("term references undeclared variable")
                if c == 0:
                    raise ContractError("zero coefficients must not be stored")
        return self

    def satisfied_by(self, assignment):
        """Every row holds; `instances` checks the assignment's shape first."""
        return all(row.holds(assignment) for row in self.rows)

    def size(self, mode):
        """Element mode: nonzero count + RHS entry count; bits mode: encoding
        lengths of all coefficients and RHS values."""
        if mode == "element":
            return sum(len(r.terms) for r in self.rows) + len(self.rows)
        # nbits(x), inlined: this is the hot measure
        return sum(abs(c).bit_length() + 1 for r in self.rows for _, c in r.terms) + sum(
            abs(r.rhs).bit_length() + 1 for r in self.rows
        )

    def to_json(self):
        rows = []
        for r in self.rows:
            row = {
                "terms": [[i, c] for i, c in r.terms],
                "relation": r.relation,
                "rhs": r.rhs,
            }
            if r.slack_bound is not None:
                row["slack_bound"] = r.slack_bound
            rows.append(row)
        return {"variables": [list(t.origin) for t in self.variables], "rows": rows}

    @staticmethod
    def from_json(d):
        variables = tuple([VariableTag(tuple(o)) for o in d["variables"]])
        rows = tuple([
            ConstraintRow(
                tuple([(i, c) for i, c in r["terms"]]),
                r["relation"],
                r["rhs"],
                r.get("slack_bound"),
            )
            for r in d["rows"]
        ])
        return BinaryProgram(variables, rows)


def num_slacks(gap):
    """Slack variables needed to absorb a maximum gap: ceil(log2(gap+1)), exactly."""
    return max(gap, 0).bit_length()


def to_equality_form(program):
    """Rewrite every inequality row as an equality with binary-weighted
    slack (for <=) or surplus (for >=) variables.

    Satisfying assignments are in bijection with the original program when
    projected onto the original variables.  Rows whose slack_bound is 0 are
    already tight and convert by relation change alone.
    """
    variables = list(program.variables)
    rows = []
    for row_idx, row in enumerate(program.rows):
        if row.relation == EQ:
            rows.append(row)
            continue
        g = row.slack_bound
        if g is None:
            raise ContractError("inequality row %d has no slack_bound" % row_idx)
        if g < 0:
            raise ContractError("negative slack_bound on row %d" % row_idx)
        n = num_slacks(g)
        sign = 1 if row.relation == LE else -1
        terms = list(row.terms)
        for j in range(1, n + 1):
            variables.append(VariableTag(("slack", row_idx, j)))
            terms.append((len(variables) - 1, sign * 2 ** (j - 1)))
        rows.append(ConstraintRow(tuple(terms), EQ, row.rhs, None))
    return BinaryProgram(tuple(variables), tuple(rows))


def solve_ip(program):
    """Exact feasibility search over binary assignments.

    Depth-first over x1..xv in index order, trying 0 before 1, so the first
    complete assignment reached is the lexicographically first satisfying
    one.  Each row tracks the lowest and highest activity its unset
    variables still allow; a branch is cut as soon as some row can no
    longer hold, which removes only subtrees without a solution.  A variable
    with no net coefficient in any row is set to 0 without branching.

    Returns that assignment as a tuple of 0/1, or None if the program is
    infeasible.  The worst case visits all 2^v leaves: `oracles.solve`
    budgets for that, refusing a program whose 2^v exceeds its budget, and
    reports 2^v as `explored` for ip01, which is not a count of the nodes
    this search visits.
    """
    v = program.num_variables
    # lo[r]/hi[r]: fixed part of row r plus the negative/positive
    # coefficients of its unset variables.  Activity stays in [lb, ub].
    m = len(program.rows)
    lo, hi = [0] * m, [0] * m
    lb, ub = [-math.inf] * m, [math.inf] * m
    # moves[i][b]: (row, change to lo, change to hi) when x_i is set to b
    moves = [([], []) for _ in range(v)]
    for r, row in enumerate(program.rows):
        coeffs = {}
        for i, c in row.terms:
            coeffs[i] = coeffs.get(i, 0) + c
        for i, c in coeffs.items():
            if c > 0:
                hi[r] += c
                moves[i][0].append((r, 0, -c))
                moves[i][1].append((r, c, 0))
            elif c < 0:
                lo[r] += c
                moves[i][0].append((r, -c, 0))
                moves[i][1].append((r, 0, c))
        if row.relation != GE:
            ub[r] = row.rhs
        if row.relation != LE:
            lb[r] = row.rhs
    if any(lo[r] > ub[r] or hi[r] < lb[r] for r in range(m)):
        return None

    order = [i for i in range(v) if moves[i][0]]
    x = [0] * v
    tried = [-1] * len(order)  # value currently set at each depth, -1 none
    k = 0
    while 0 <= k < len(order):
        i = order[k]
        b = tried[k]
        if b >= 0:
            for r, dlo, dhi in moves[i][b]:
                lo[r] -= dlo
                hi[r] -= dhi
        if b == 1:
            tried[k] = -1
            k -= 1
            continue
        b += 1
        tried[k] = x[i] = b
        feasible = True
        for r, dlo, dhi in moves[i][b]:
            lo[r] += dlo
            hi[r] += dhi
            if lo[r] > ub[r] or hi[r] < lb[r]:
                feasible = False
        if feasible:
            k += 1
    return tuple(x) if k == len(order) else None
