"""Command-line frontend.

Subcommands operate on instance files (JSON envelopes by default, DIMACS CNF
and edge lists importable via --format).  `-` means stdin/stdout for data;
diagnostics go to stderr.  Exit codes: 0 success/YES, 1 NO verdict, 2 usage
error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .genlab import GeneratorSpec, generate
from .growth import audit
from .instances import measure_input_size, verify_certificate
from .oracles import DEFAULT_BUDGET, BudgetExceededError, solve
from .reductions import (
    REDUCTIONS,
    _lift_stages,
    apply_chain,
    chain_from_names,
    route_to_kernel,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_text(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_problem(args):
    text = _read_text(args.instance)
    if args.format == "json":
        return serialize.loads_problem(text)
    if args.format == "dimacs":
        return serialize.parse_dimacs_cnf(text)
    if args.format == "edgelist":
        if args.kind is None:
            raise UsageError("--format edgelist requires --kind")
        return serialize.parse_edge_list(text, args.kind, args.param)


class UsageError(Exception):
    pass


def _add_instance_args(sub):
    sub.add_argument("instance", help="instance file, or - for stdin")
    sub.add_argument(
        "--format", choices=("json", "dimacs", "edgelist"), default="json"
    )
    sub.add_argument("--kind", help="problem kind for --format edgelist")
    sub.add_argument("--param", type=int, help="bound parameter for --format edgelist")


def _manifest(stages, names):
    return {
        "source": serialize.problem_to_json(stages[0]),
        "steps": [
            {"reduction": name, "instance": serialize.problem_to_json(stage)}
            for name, stage in zip(names, stages[1:])
        ],
    }


def cmd_reduce(args):
    problem = _load_problem(args)
    if args.via not in REDUCTIONS:
        raise UsageError("unknown reduction %r" % args.via)
    target = REDUCTIONS[args.via].apply(problem)
    _write_text(args.output, serialize.dumps_problem(target))
    return EXIT_YES


def cmd_route(args):
    problem = _load_problem(args)
    chain = route_to_kernel(problem.kind)
    stages = apply_chain(chain, problem)
    manifest = _manifest(stages, chain.names)
    _write_text(args.manifest, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    if args.output is not None:
        _write_text(args.output, serialize.dumps_problem(stages[-1]))
    return EXIT_YES


def cmd_solve(args):
    problem = _load_problem(args)
    verdict = solve(problem, budget=args.budget)
    print("YES" if verdict.answer else "NO")
    print("explored %d candidates" % verdict.explored, file=sys.stderr)
    if verdict.answer and args.cert is not None:
        _write_text(args.cert, serialize.dumps_certificate(verdict.certificate))
    return EXIT_YES if verdict.answer else EXIT_NO


def cmd_verify(args):
    problem = _load_problem(args)
    cert = serialize.loads_certificate(_read_text(args.cert))
    # a malformed or wrong-kind certificate raises: a usage error, not NO
    ok = verify_certificate(problem, cert)
    print("YES" if ok else "NO")
    return EXIT_YES if ok else EXIT_NO


def cmd_lift(args):
    manifest = json.loads(_read_text(args.chain))
    source = serialize.problem_from_json(manifest["source"])
    names = [step["reduction"] for step in manifest["steps"]]
    chain = chain_from_names(names)
    cert = serialize.loads_certificate(_read_text(args.cert))
    stages = apply_chain(chain, source)
    # a malformed certificate raises (a usage error); one that is no witness is NO
    if not verify_certificate(stages[-1], cert):
        print("certificate does not verify for the chain's final instance",
              file=sys.stderr)
        return EXIT_NO
    lifted = _lift_stages(chain, stages, cert)
    if not verify_certificate(source, lifted):
        print("lifted certificate does not verify", file=sys.stderr)
        return EXIT_NO
    _write_text(args.output, serialize.dumps_certificate(lifted))
    return EXIT_YES


def cmd_audit(args):
    if args.reduction not in REDUCTIONS:
        raise UsageError("unknown reduction %r" % args.reduction)
    spec = REDUCTIONS[args.reduction]
    params = json.loads(args.params) if args.params else {}
    family = GeneratorSpec(spec.source_kind, args.seed, params)
    report = audit(args.reduction, family, args.scales)
    if args.json:
        _write_text(args.output, report.dumps())
    else:
        _write_text(args.output, report.table())
    return EXIT_YES if report.passed else EXIT_NO


def cmd_gen(args):
    d = json.loads(_read_text(args.spec))
    spec = GeneratorSpec(d["kind"], d["seed"], d.get("params", {}))
    problem = generate(spec)
    _write_text(args.output, serialize.dumps_problem(problem))
    return EXIT_YES


def cmd_measure(args):
    problem = _load_problem(args)
    print(measure_input_size(problem, args.mode))
    return EXIT_YES


def build_parser():
    parser = argparse.ArgumentParser(
        prog="karpkit",
        description="Reductions among Karp's 21 problems: transform, solve, "
        "lift certificates, and audit size growth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="apply a single reduction")
    _add_instance_args(p)
    p.add_argument("--via", required=True, help="reduction id")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("route", help="reduce to a kernel problem, emit manifest")
    _add_instance_args(p)
    p.add_argument("--to-kernel", action="store_true", required=True)
    p.add_argument("--manifest", default="-", help="chain manifest output")
    p.add_argument("-o", "--output", help="final instance output")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("solve", help="decide an instance by brute force")
    _add_instance_args(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--cert", help="write the witness certificate here on YES")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a certificate against an instance")
    _add_instance_args(p)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lift", help="lift a kernel certificate back to the source")
    p.add_argument("--chain", required=True, help="chain manifest from `route`")
    p.add_argument("--cert", required=True, help="certificate for the final instance")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("audit", help="audit a reduction's growth claim")
    p.add_argument("--reduction", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scales", type=int, nargs="+", required=True)
    p.add_argument("--params", help="generator params as a JSON object")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--spec", required=True, help="generator spec JSON file, or -")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("measure", help="report an instance's input size")
    _add_instance_args(p)
    p.add_argument("--mode", choices=("element", "bits"), default="element")
    p.set_defaults(func=cmd_measure)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print("budget refusal: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    # the library's refusals of malformed input, and JSON's, are ValueErrors;
    # a missing key or index, or JSON nested too deep to decode, is malformed
    # input too, and a traceback would exit 1, which reads as NO
    except (UsageError, LookupError, ValueError, TypeError, RecursionError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
