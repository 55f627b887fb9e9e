"""Command-line front end: normalize expressions, run verification sweeps,
enumerate integral bases, build p/D elements, and validate algebra tables.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error."""

import argparse
import functools
import sys

from .algebra import SpecError, read_algebra, spec_from_source, validate, PRESET_NAMES
from .coeffalg import MonoidError
from .engine import AlgebraError, key_degree
from .exprio import ParseError, divided_key_str, divided_sort_key, divided_str, \
    parse_expr, parse_mset, uelem_str
from . import identities as ident
from . import verify as ver


class UsageError(Exception):
    pass


def make_engine(args, default_monoid="poly"):
    """A fresh engine per command, so each request starts on cold memos."""
    return ver.load_engine(args.algebra, args.monoid or default_monoid,
                           args.order or "triangular")


# ---------------------------------------------------------------------------
# commands

def _print_elem(engine, x, divided):
    if divided:
        df = engine.to_divided(x)
        print(divided_str(engine, df, multiline=True))
        print("INTEGRAL: %s" % ("yes" if df.is_integral() else "no"))
    else:
        print(uelem_str(engine, x, multiline=True))


def cmd_normalize(args):
    engine = make_engine(args)
    _print_elem(engine, parse_expr(engine, args.expression), args.divided)
    return 0


_PARAM_FLAGS = ("alpha", "beta", "gamma", "delta", "a", "b", "chi", "phi",
                "i", "j", "r", "s", "m")


def cmd_verify(args):
    texts = {k: getattr(args, k) for k in _PARAM_FLAGS if getattr(args, k) is not None}
    if args.config:
        ignored = [k for k in ("algebra", "monoid", "order", "id") if getattr(args, k)]
        if ignored or texts:
            raise UsageError("--config runs the suite the file declares; it would ignore %s"
                             % ", ".join("--" + k for k in ignored + list(texts)))
        result = ver.run_suite(ver.SuiteConfig.from_path(args.config), emit=print)
        return 0 if result.ok else 1

    if not args.algebra:
        raise UsageError("verify wants --algebra or --config")
    ids = ver.SWEEP_IDS
    if args.id:
        if args.id not in ver.IDENTITIES:
            raise UsageError("unknown identity id %r (have %s)"
                             % (args.id, ", ".join(ver.IDENTITIES)))
        ids = [args.id]
    kinds = dict(axis for ident_id in ids for axis in ver.IDENTITIES[ident_id].axes)
    stray = [k for k in texts if k not in kinds]
    if stray:
        raise UsageError("%s: not a parameter of %s (it has %s)"
                         % (", ".join("--" + k for k in stray), args.id or "any identity",
                            ", ".join("--" + k for k in kinds) or "none"))
    engine = ver.get_engine(args.algebra, args.monoid or "trunc:4",
                            args.order or "triangular")
    fixed = {}
    for k, text in texts.items():
        try:
            fixed[k] = ver.parse_value(engine, kinds[k], text)
        except ValueError as e:
            raise UsageError("--%s: %s" % (k, e))
    reports = [r for ident_id in ids
               for r in ver.sweep_identity(engine, ident_id, ver.SweepBounds(), fixed)]
    if not reports:
        raise UsageError("no parameter combination matches the given flags")
    for r in reports:
        print(r.line())
    result = ver.SuiteResult(reports)
    print(result.summary())
    return 0 if result.ok else 1


def cmd_basis(args):
    engine = make_engine(args, default_monoid="trunc:2")
    if not engine.monoid.finite:
        raise UsageError("basis enumeration needs a truncated coefficient algebra "
                         "(use --monoid trunc:<n>)")
    d = args.degree
    print("ALGEBRA %s MONOID %s DEGREE %d" % (engine.spec.name, engine.monoid.name, d))
    for title, seg in (("B-", -1), ("B0", 0), ("B+", 1), ("B", None)):
        syms = [s for s in engine.order.syms if seg is None or engine.segment_of(s) == seg]
        keys = engine.enumerate_basis(d, syms)
        keys.sort(key=lambda k: (key_degree(k), divided_sort_key(engine, k)))
        print("%s (%d)" % (title, len(keys)))
        for k in keys:
            print(divided_key_str(engine, k))
    return 0


def cmd_pelem(args):
    engine = make_engine(args)
    chi = parse_mset(engine.monoid, args.chi)
    which = args.i if args.i is not None else args.alpha
    if which is None:
        raise UsageError("pelem wants --i <cartan index> or --alpha <root label>")
    _print_elem(engine, engine.p(which, chi), args.divided)
    return 0


def cmd_delem(args):
    engine = make_engine(args)
    d = engine.monoid.parse_elt(args.d)
    c = engine.monoid.parse_elt(args.c)
    x = ident.divided_D(engine, args.alpha, args.j, args.k, d, c)
    _print_elem(engine, x, args.divided)
    return 0


def cmd_validate_spec(args):
    spec = spec_from_source(read_algebra(args.algebra), check=False)
    bad = validate(spec)
    if bad:
        for line in bad:
            print("VIOLATION %s" % line)
        print("INVALID %s (%d violations)" % (spec.name, len(bad)))
        return 1
    print("VALID %s (rank %d, %d roots, %d odd)"
          % (spec.name, spec.rank, len(spec.roots), len(spec.odd_roots())))
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="superpbw",
        description="Exact PBW normalization and integral-basis verification "
                    "for map superalgebras.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, monoid_help="coefficient monoid preset", algebra_required=True):
        sp.add_argument("--algebra", required=algebra_required,
                        help="preset name (%s) or path to an algebra file"
                             % ", ".join(PRESET_NAMES))
        sp.add_argument("--monoid", help=monoid_help + " (poly, laurent, poly2, trunc:n)")
        sp.add_argument("--order", help="comma list of root labels and Cartan "
                                        "indices, or 'triangular'/'lex'")

    sp = sub.add_parser("normalize", help="expand an expression in the PBW basis")
    common(sp)
    sp.add_argument("--divided", action="store_true",
                    help="print the divided-power form and an integrality verdict")
    sp.add_argument("expression")
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("verify", help="run identity and property checks")
    common(sp, algebra_required=False)   # --config mode carries its own algebras
    sp.add_argument("--id", help="check id (%s); every LHS = RHS identity if omitted"
                                 % ", ".join(ver.IDENTITIES))
    sp.add_argument("--config", help="JSON suite configuration path")
    for flag in _PARAM_FLAGS:
        sp.add_argument("--%s" % flag)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("basis", help="enumerate the integral basis by degree")
    common(sp, "finite coefficient monoid")
    sp.add_argument("--degree", type=int, required=True)
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("pelem", help="build a Cartan p-element")
    common(sp)
    sp.add_argument("--i", type=int, help="Cartan index")
    sp.add_argument("--alpha", help="root label (uses the coroot map)")
    sp.add_argument("--chi", default="", help="multiset, e.g. 't:2,t^2:1'")
    sp.add_argument("--divided", action="store_true")
    sp.set_defaults(func=cmd_pelem)

    sp = sub.add_parser("delem", help="build a divided-power D sum")
    common(sp)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--d", required=True)
    sp.add_argument("--c", required=True)
    sp.add_argument("--divided", action="store_true")
    sp.set_defaults(func=cmd_delem)

    sp = sub.add_parser("validate-spec", help="validate an algebra table")
    sp.add_argument("--algebra", required=True)
    sp.set_defaults(func=cmd_validate_spec)
    return p


@functools.cache
def _parser():
    """The parser, built once per process: building it costs about as much
    as a small normalize request."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParseError, SpecError, MonoidError, AlgebraError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
