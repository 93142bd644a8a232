"""Empirical growth auditor.

Runs a reduction over a seeded family at increasing scale points, records
(input size, output size) pairs in both measuring modes, and checks the
reduction's claimed affine bound out <= alpha*in + beta pointwise along with
any exact count formulas.  The claim is exact (ints or Fractions), so the
bound takes no tolerance.  The maximum ratio and the fitted slope (least
squares through the origin) are each one division of exact integer sums;
the slope is a diagnostic only, and pass/fail is the pointwise bound plus
the formula checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .genlab import generate, scaled_spec
from .instances import measure_input_size
from .reductions import REDUCTIONS


def _within(claim, i, o):
    """Output size o is within the claim's affine bound at input size i."""
    alpha, beta = claim
    return o <= alpha * i + beta


@dataclass(frozen=True)
class GrowthReport:
    reduction: str
    claim: tuple  # exact (alpha, beta), element mode
    element_pairs: tuple  # ((in, out), ...) sorted by input size
    bits_pairs: tuple
    max_ratio: float
    fitted_slope: float
    formula_checks: tuple  # ((scale, label, want, got, ok), ...)
    passed: bool

    def to_json(self):
        return {
            "reduction": self.reduction,
            "claim": {"alpha": float(self.claim[0]), "beta": float(self.claim[1])},
            "element_pairs": [list(p) for p in self.element_pairs],
            "bits_pairs": [list(p) for p in self.bits_pairs],
            "max_ratio": self.max_ratio,
            "fitted_slope": self.fitted_slope,
            "formula_checks": [
                {"scale": s, "label": lbl, "want": want, "got": got, "ok": ok}
                for s, lbl, want, got, ok in self.formula_checks
            ],
            "passed": self.passed,
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def table(self):
        """Aligned text table of the element-mode pairs and the verdict."""
        alpha, beta = self.claim
        lines = [
            "reduction: %s" % self.reduction,
            "claim: out <= %g*in + %g (element mode)" % (alpha, beta),
            "%8s %8s %8s  %s" % ("in", "out", "ratio", "bound"),
        ]
        for i, o in self.element_pairs:
            ok = "ok" if _within(self.claim, i, o) else "VIOLATED"
            lines.append("%8d %8d %8.3f  %s" % (i, o, o / i, ok))
        for s, lbl, want, got, ok in self.formula_checks:
            lines.append(
                "scale %d: %s: want %d got %d %s"
                % (s, lbl, want, got, "ok" if ok else "MISMATCH")
            )
        lines.append(
            "max ratio %.3f, fitted slope %.3f -> %s"
            % (self.max_ratio, self.fitted_slope, "PASS" if self.passed else "FAIL")
        )
        return "\n".join(lines) + "\n"


def audit(reduction_id, family, scales):
    """Audit one reduction over a generator family at the given scale points.

    `family` is a GeneratorSpec whose kind matches the reduction's source
    kind; its scale knob is overridden per scale point.  Deterministic for a
    fixed (family, scales) input.
    """
    spec = REDUCTIONS[reduction_id]
    if family.kind != spec.source_kind:
        raise TypeError(
            "%s audits %r families, got %r"
            % (reduction_id, spec.source_kind, family.kind)
        )
    element_pairs, bits_pairs, checks = [], [], []
    for scale in scales:
        source = generate(scaled_spec(family, scale))
        target = spec.apply(source)
        element_pairs.append(
            (measure_input_size(source, "element"), measure_input_size(target, "element"))
        )
        bits_pairs.append(
            (measure_input_size(source, "bits"), measure_input_size(target, "bits"))
        )
        if spec.count_checks is not None:
            for label, want, got in spec.count_checks(source, target):
                checks.append((scale, label, want, got, want == got))

    element_pairs.sort()
    bits_pairs.sort()
    if min(i for i, _ in element_pairs) <= 0:
        raise ValueError("audit requires positive input sizes")
    claim = spec.growth_claim
    return GrowthReport(
        reduction=reduction_id,
        claim=claim,
        element_pairs=tuple(element_pairs),
        bits_pairs=tuple(bits_pairs),
        max_ratio=max(o / i for i, o in element_pairs),
        # least squares through the origin: slope = <in, out> / <in, in>
        fitted_slope=sum(i * o for i, o in element_pairs)
        / sum(i * i for i, _ in element_pairs),
        formula_checks=tuple(checks),
        passed=all(_within(claim, i, o) for i, o in element_pairs)
        and all(ok for *_, ok in checks),
    )
