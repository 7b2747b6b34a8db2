"""Command-line workbench: build, compute, verify, export.

Subcommands:
  bar       homology table of B(A) or B^n(A) for an algebra JSON input
  cochains  reduced cochain algebra of a simplicial-set JSON; --bar
            pipes it into the bar machinery
  verify    run a named identity suite (see --suite), exit 1 on failure
  export    emit built-in operads (or re-emit an algebra) as JSON

Degree conventions in reports: algebras concentrated in non-positive
internal degrees (cochain side) are reported in cohomological degrees
(positive numbers); everything else is reported homologically.  Reports
are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bar import bar, iterated_bar
from .dg import DegreeWindow, homology
from .errors import OpbarError
from .jsonio import (
    algebra_from_json,
    algebra_to_json,
    bar_to_json,
    dump_json,
    load_json,
    operad_to_json,
    parse_field_flag,
)
from .linalg import CoeffField


def parallel_homology(module, window):
    """Per-degree homology dimensions of `module` over `window`."""
    # kept by name: perfbench/tracer.py spans cli.parallel_homology, and --trace 1 fails without it
    return homology(module, window)


def _render_table(degrees):
    lines = ["degree  dim", "------  ---"]
    for d in sorted(degrees):
        lines.append("%6d  %3d" % (d, degrees[d]))
    return "\n".join(lines)


def _report(args, degrees, extra=None):
    provenance = {
        "command": args.command,
        "field": args.field,
        "min_degree": args.min_degree,
        "max_degree": args.max_degree,
        "weight_bound": getattr(args, "weight_bound", None),
        "arity_bound": getattr(args, "arity_bound", None),
        "iterations": getattr(args, "iterations", None),
        "input": getattr(args, "input", None),
        "seed": getattr(args, "seed", None),
    }
    if extra:
        provenance.update(extra)
    report = {"degrees": {str(d): n for d, n in sorted(degrees.items())}, "provenance": provenance}
    print(_render_table(degrees))
    if args.output:
        dump_json(report, args.output)
        print("report written to %s" % args.output)
    return report


def _algebra_window(algebra, args):
    """Requested window in internal degrees plus the reporting side."""
    degs = algebra.module.degrees()
    cochain_side = degs and max(degs) <= 0
    if cochain_side:
        lo_c = args.min_degree if args.min_degree is not None else 1
        hi_c = args.max_degree
        if hi_c is None:
            raise OpbarError("--max-degree is required")
        return DegreeWindow(-hi_c, -lo_c), True
    lo = args.min_degree if args.min_degree is not None else 0
    hi = args.max_degree
    if hi is None:
        raise OpbarError("--max-degree is required")
    return DegreeWindow(lo, hi), False


def _bar_tables(algebra, args):
    window, cochain_side = _algebra_window(algebra, args)
    iterations = args.iterations or 1
    if iterations == 1:
        complexes = [bar(algebra, window, args.weight_bound)]
    else:
        wb = [args.weight_bound] * iterations if args.weight_bound else None
        complexes = iterated_bar(algebra, iterations, window, wb)
    top = complexes[-1]
    hom = parallel_homology(top.module, window)
    if cochain_side:
        table = {-d: n for d, n in hom.items()}
    else:
        table = dict(hom)
    return table, top, cochain_side


def cmd_bar(args):
    data = load_json(args.input)
    field = parse_field_flag(args.field) if args.field else None
    algebra, f = algebra_from_json(data, field)
    table, top, cochain_side = _bar_tables(algebra, args)
    extra = {
        "weight_bound_used": top.weight_bound,
        "exact_in_window": top.exact_in_window,
        "cohomological_degrees": cochain_side,
    }
    _report(args, table, extra)
    return 0


def cmd_cochains(args):
    from .simplicial import normalized_cochains, simplicial_set_from_json

    data = load_json(args.input)
    field = parse_field_flag(args.field) if args.field else CoeffField.prime(2)
    space = simplicial_set_from_json(data)
    cochains = normalized_cochains(space, field)
    algebra = cochains.algebra()
    if not args.bar:
        out = algebra_to_json(algebra)
        text = dump_json(out, args.output)
        if not args.output:
            print(text)
        else:
            print("cochain algebra written to %s" % args.output)
        return 0
    from .simplicial import bar_of_cochains

    iterations = args.iterations or 1
    if args.max_degree is None:
        raise OpbarError("--max-degree is required")
    window = DegreeWindow(args.min_degree if args.min_degree is not None else 1, args.max_degree)
    table, info = bar_of_cochains(space, field, iterations, window, args.weight_bound)
    table = {d: v for d, v in table.items() if d in window}
    extra = {
        "weight_bound_used": info["weight_bound"],
        "exact_in_window": info["exact_in_window"],
        "cohomological_degrees": True,
        "reduced_model": info["reduced_model"],
    }
    _report(args, table, extra)
    return 0


def cmd_verify(args):
    from .verify import run_suite

    results = run_suite(
        args.suite,
        arity=args.arity_bound,
        max_degree=args.max_degree,
        seed=args.seed,
    )
    failed = [r for r in results if not r[1]]
    for name, ok, details in results:
        print("%-44s %s  %s" % (name, "pass" if ok else "FAIL", details))
    if args.output:
        dump_json(
            {
                "suite": args.suite,
                "checks": [
                    {"name": n, "passed": ok, "details": str(details)} for n, ok, details in results
                ],
                "provenance": {
                    "arity_bound": args.arity_bound,
                    "max_degree": args.max_degree,
                    "seed": args.seed,
                },
            },
            args.output,
        )
    if failed:
        print("FAILED: %s" % failed[0][0], file=sys.stderr)
        return 1
    print("all %d checks passed" % len(results))
    return 0


def cmd_export(args):
    from .operads import associative_operad, commutative_operad, stasheff_operad

    field = parse_field_flag(args.field) if args.field else CoeffField.rationals()
    bound = args.arity_bound or 3
    if args.builtin:
        builders = {"K": stasheff_operad, "As": associative_operad, "Com": commutative_operad}
        if args.builtin not in builders:
            raise OpbarError("unknown builtin %r (K, As, Com)" % (args.builtin,))
        op = builders[args.builtin](field, bound)
        data = operad_to_json(op, bound)
    elif args.input:
        algebra, _ = algebra_from_json(load_json(args.input))
        if args.bar:
            if args.max_degree is None:
                raise OpbarError("--max-degree is required for --bar export")
            window, _side = _algebra_window(algebra, args)
            data = bar_to_json(bar(algebra, window, args.weight_bound))
        else:
            data = algebra_to_json(algebra)
    else:
        raise OpbarError("export needs --builtin or --input")
    text = dump_json(data, args.output)
    if not args.output:
        print(text)
    else:
        print("written to %s" % args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="opbar",
        description="Exact bar-construction engine over operads (Q and F_p coefficients).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", help="Q or F<p> (e.g. F2)")
        p.add_argument("--min-degree", type=int, default=None)
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--weight-bound", type=int, default=None)
        p.add_argument("--arity-bound", type=int, default=None)
        p.add_argument("--iterations", type=int, default=None)
        p.add_argument("--input")
        p.add_argument("--output")
        p.add_argument("--seed", type=int, default=None)

    p_bar = sub.add_parser("bar", help="homology of the (iterated) bar complex of an algebra")
    common(p_bar)
    p_co = sub.add_parser("cochains", help="reduced cochain algebra of a simplicial set")
    common(p_co)
    p_co.add_argument("--bar", action="store_true", help="pipe the cochains into the bar")
    p_ver = sub.add_parser("verify", help="run a structural identity suite")
    common(p_ver)
    p_ver.add_argument(
        "--suite",
        default="all",
        help="stasheff | bar-module | module-functor | extension | shuffle | "
        "commutative-identity | em | compose-oracle | loops | all",
    )
    p_exp = sub.add_parser("export", help="emit operads/algebras/bar complexes as JSON")
    common(p_exp)
    p_exp.add_argument("--builtin", help="K, As or Com")
    p_exp.add_argument("--bar", action="store_true", help="export the bar complex of the input algebra")
    return parser


def _check_bounds(args):
    """Weight bounds and iteration counts below 1 leave no bar word to compute."""
    for flag, value in (("--weight-bound", args.weight_bound), ("--iterations", args.iterations)):
        if value is not None and value < 1:
            raise OpbarError("%s must be at least 1, got %d" % (flag, value))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"bar": cmd_bar, "cochains": cmd_cochains, "verify": cmd_verify, "export": cmd_export}
    try:
        _check_bounds(args)
        return handlers[args.command](args)
    except OpbarError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
