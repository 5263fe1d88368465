"""Command-line front end.

Three subcommands:

  descent table  --type B4 --sigma 2 --format csv
  descent verify --suite positivity --type F4 --seed 11
  descent mult   --type A2 --left "x[1]" --right "x[1] - 2*y[2]" --basis y

Global flags: --no-cache skips the on-disk structure-constant cache,
--seed feeds the randomized suites, --allow-rank7 unlocks rank-7 types
(a memory estimate is printed before anything large is built). The cache
directory is taken from the DESCENT_CACHE_DIR environment variable.

Exit status: 0 on success, 1 when a verification suite fails, 2 on bad
input (unknown type, unavailable automorphism, unparseable expression).
"""

import argparse
import json
import sys

from . import algebra as alg
from . import cartan
from . import table as tbl
from . import verify as vfy
from .coxeter import build_system
from .errors import DescentError, RankCapExceeded, UnsupportedType
from .exprs import parse_expression

# resident size of the interpreter with numpy and the package loaded
_RANK7_BASE_BYTES = 32 * 10**6
_RANK7_BYTES_PER_ELEMENT_MISC = 64


def rank7_memory_estimate(type_label):
    """Peak-memory estimate, in bytes, for enumerating a group and
    computing its structure tensor in a fresh process.

    Per element: 9 bytes per generator (the int32 right-multiplication
    row, the int8 conjugation row and the two int16 simple-root columns
    of the element and its inverse), and 64 bytes for the index tables,
    the int64 element keys and their sort; the root permutations of one
    length level are not counted. On top come the interpreter with numpy
    and the int64 structure tensor over all triples of subsets. A cold
    ``descent table`` builds no group table, since its structure tensor
    streams the enumeration: in a fresh process it peaks at 155 MB on E7,
    84 MB on B7, 85 MB on D7 and 97 MB on A7 (estimates 417, 131, 90 and
    54 MB); the linear algebra of the row sets the A7 peak (Python
    3.11.7, 2 cores).
    """
    comps = cartan.parse_label(type_label)
    order = cartan.order_for_components(comps)
    rank = cartan.total_rank(comps)
    per_elt = rank * 9 + _RANK7_BYTES_PER_ELEMENT_MISC
    return _RANK7_BASE_BYTES + order * per_elt + 8 * (1 << rank) ** 3


def _maybe_print_rank7_estimate(type_label, allow_rank7):
    if not allow_rank7:
        return
    comps = cartan.parse_label(type_label)
    # the flag unlocks rank 7 only; larger ranks are refused unbuilt
    if cartan.total_rank(comps) != 7:
        return
    est = rank7_memory_estimate(type_label)
    print("estimated memory for %s: %.1f MB (order %d)"
          % (type_label, est / 1e6,
             cartan.order_for_components(comps)), file=sys.stderr)


def _build(type_label, args):
    _maybe_print_rank7_estimate(type_label, args.allow_rank7)
    return build_system(type=type_label, allow_rank7=args.allow_rank7,
                        cache=not args.no_cache)


def cmd_table(args):
    if args.sigma == "all":
        sigma_order = None
    else:
        try:
            sigma_order = int(args.sigma)
        except ValueError:
            raise UnsupportedType(
                "--sigma expects a positive integer or 'all', got %r"
                % args.sigma)
        if sigma_order < 1:
            raise UnsupportedType("--sigma expects a positive integer")
    if args.type == "all":
        labels = tbl.SUPPORTED_TYPES
    else:
        labels = [args.type]
    rows = []
    for label in labels:
        system = _build(label, args)
        if sigma_order is None:
            orders = tbl.available_sigma_orders(system)
        elif args.type == "all":
            # roster mode keeps only the types carrying that order
            orders = [k for k in tbl.available_sigma_orders(system)
                      if k == sigma_order]
        else:
            orders = [sigma_order]
        for k in orders:
            rows.append(tbl.build_row(label, k, system=system))
    print(tbl.render(rows, args.format))
    return 0


def cmd_verify(args):
    _maybe_print_rank7_estimate(args.type, args.allow_rank7)
    report = vfy.run_suite(args.suite, args.type, seed=args.seed,
                           allow_rank7=args.allow_rank7,
                           cache=not args.no_cache)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, default=str))
    else:
        print(report.render_text())
    return 0 if report.passed else 1


def cmd_mult(args):
    system = _build(args.type, args)
    left = parse_expression(system, args.left)
    right = parse_expression(system, args.right)
    product = alg.multiply(left, right).in_basis(args.basis)
    print(product)
    return 0


def _add_common(sub):
    sub.add_argument("--no-cache", action="store_true",
                     help="do not read or write the structure-constant "
                          "cache on disk")
    sub.add_argument("--allow-rank7", action="store_true",
                     help="permit rank-7 constructions (prints a memory "
                          "estimate first)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="descent",
        description="Exact computations in descent algebras of finite "
                    "Coxeter groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_table = subs.add_parser(
        "table",
        help="radical dimension table rows for one type or the full roster")
    p_table.add_argument("--type", required=True,
                         help="Cartan type label such as B4, I2(7), A2xA1, "
                              "or 'all' for the built-in roster")
    p_table.add_argument("--sigma", default="all",
                         help="diagram automorphism order (default: every "
                              "available order)")
    p_table.add_argument("--format", default="text",
                         choices=("text", "json", "csv"))
    _add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = subs.add_parser(
        "verify", help="run one named invariant suite against one system")
    p_verify.add_argument("--suite", required=True,
                          help="one of: %s" % ", ".join(vfy.SUITES))
    p_verify.add_argument("--type", required=True)
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the randomized suites")
    p_verify.add_argument("--format", default="text",
                          choices=("text", "json"))
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_mult = subs.add_parser(
        "mult", help="multiply two descent-algebra expressions")
    p_mult.add_argument("--type", required=True)
    p_mult.add_argument("--left", required=True,
                        help="expression such as 'x[1] + 2*y[2,3]'")
    p_mult.add_argument("--right", required=True)
    p_mult.add_argument("--basis", default="x", choices=("x", "y", "xp"),
                        help="basis for printing the product")
    _add_common(p_mult)
    p_mult.set_defaults(func=cmd_mult)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    try:
        return args.func(args)
    except RankCapExceeded as exc:
        # only the rank-7 gate is one the flag lifts
        rank = cartan.total_rank(cartan.parse_label(args.type))
        hint = ("; pass --allow-rank7 to proceed"
                if rank == 7 and not args.allow_rank7 else "")
        print("error: %s%s" % (exc, hint), file=sys.stderr)
        return 2
    except DescentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
