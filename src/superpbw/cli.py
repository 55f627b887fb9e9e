"""Command-line front end: normalize expressions, run verification sweeps,
enumerate integral bases, build p/D elements, and validate algebra tables.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error, 141 (as for SIGPIPE) when stdout is closed before the output is
written."""

import argparse
import functools
import os
import sys

from .algebra import read_algebra, spec_from_source, validate, PRESET_NAMES
from .digits import to_int
from .exprio import divided_parts, divided_str, parse_expr, parse_mset, uelem_str
from . import identities as ident
from . import verify as ver


class UsageError(Exception):
    pass


def _given(value, default):
    """A flag's value, or the default when the flag is absent.  An empty
    value is given, so it reaches its reader and is refused there."""
    return default if value is None else value


def _int(text):
    """An int flag's value, from ASCII digits; argparse's own refusal otherwise."""
    try:
        return to_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None


def make_engine(args, default_monoid="poly"):
    """A fresh engine per command, so its own memos start empty; the Cartan
    and block caches are process-wide and stay warm across commands."""
    return ver.load_engine(args.algebra, _given(args.monoid, default_monoid),
                           _given(args.order, "triangular"))


# ---------------------------------------------------------------------------
# commands

def _print_elem(engine, x, divided):
    """Print x with its exact coefficients in full: Python's int-to-str digit
    limit (3.10.7 on) is lifted for the output only, and parsing keeps it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if divided:
            df = engine.to_divided(x)
            print(divided_str(engine, df, multiline=True))
            print("INTEGRAL: %s" % ("yes" if df.is_integral() else "no"))
        else:
            print(uelem_str(engine, x, multiline=True))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def cmd_normalize(args):
    engine = make_engine(args)
    _print_elem(engine, parse_expr(engine, args.expression), args.divided)
    return 0


# verify's parameter flags: every parameter name a registered check declares
_PARAM_FLAGS = tuple(sorted({name for check in ver.IDENTITIES.values()
                             for name, _ in check.axes}))


def cmd_verify(args):
    texts = {k: getattr(args, k) for k in _PARAM_FLAGS if getattr(args, k) is not None}
    if args.config is not None:
        ignored = [k for k in ("algebra", "monoid", "order", "id")
                   if getattr(args, k) is not None]
        if ignored or texts:
            raise UsageError("--config runs the suite the file declares; it would ignore %s"
                             % ", ".join("--" + k for k in ignored + list(texts)))
        result = ver.run_suite(ver.SuiteConfig.from_path(args.config), emit=print)
        return 0 if result.ok else 1

    if args.algebra is None:
        raise UsageError("verify wants --algebra or --config")
    config = ver.SuiteConfig((args.algebra,), ver.SWEEP_IDS if args.id is None else (args.id,),
                             _given(args.monoid, "trunc:4"))
    kinds = dict(axis for ident_id in config.identities for axis in ver.IDENTITIES[ident_id].axes)
    stray = [k for k in texts if k not in kinds]
    if stray:
        raise UsageError("%s: not a parameter of %s (it has %s)"
                         % (", ".join("--" + k for k in stray), args.id or "any identity",
                            ", ".join("--" + k for k in kinds) or "none"))
    order = _given(args.order, "triangular")
    engine = ver.get_engine(args.algebra, config.monoid, order)
    fixed = {}
    for k, text in texts.items():
        try:
            fixed[k] = ver.parse_value(engine, kinds[k], text)
        except ValueError as e:
            raise UsageError("--%s: %s" % (k, e))
    return 0 if ver.run_suite(config, emit=print, order=order, fixed=fixed).ok else 1


def cmd_basis(args):
    engine = make_engine(args, default_monoid="trunc:2")
    if not engine.monoid.finite:
        raise UsageError("basis enumeration needs a truncated coefficient algebra "
                         "(use --monoid trunc:<n>)")
    d = args.degree
    if d < 0:
        raise UsageError("degree cap must be >= 0")
    print("ALGEBRA %s MONOID %s DEGREE %d" % (engine.spec.name, engine.monoid.name, d))
    table = {}
    for title, syms in zip(("B-", "B0", "B+", "B"), engine.order.parts + (None,)):
        keys = sorted((len(k), *divided_parts(engine, k, table))
                      for k in engine.enumerate_basis(d, syms))
        print("%s (%d)" % (title, len(keys)))
        for _, _, text in keys:
            print(text)
    return 0


def cmd_pelem(args):
    if args.i is not None and args.alpha is not None:
        raise UsageError("pelem takes one of --i and --alpha, not both")
    engine = make_engine(args)
    chi = parse_mset(engine.monoid, args.chi)
    which = args.i if args.i is not None else args.alpha
    if which is None:
        raise UsageError("pelem wants --i <cartan index> or --alpha <root label>")
    _print_elem(engine, engine.p(which, chi), args.divided)
    return 0


# D^alpha_{j,k} sums over the partitions of j into at most k parts: j = k = 40
# prints 37338 terms in about 5 s, and j = k = 50 takes six times as long
DELEM_BOUND = 40


def cmd_delem(args):
    if args.j > DELEM_BOUND or args.k > DELEM_BOUND:
        raise UsageError("delem takes j, k <= %d (got j = %d, k = %d)"
                         % (DELEM_BOUND, args.j, args.k))
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
    sp.add_argument("--degree", type=_int, required=True)
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("pelem", help="build a Cartan p-element")
    common(sp)
    sp.add_argument("--i", type=_int, help="Cartan index")
    sp.add_argument("--alpha", help="root label (uses the coroot map)")
    sp.add_argument("--chi", default="", help="multiset, e.g. 't:2,t^2:1'")
    sp.add_argument("--divided", action="store_true")
    sp.set_defaults(func=cmd_pelem)

    sp = sub.add_parser("delem", help="build a divided-power D sum")
    common(sp)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--j", type=_int, required=True)
    sp.add_argument("--k", type=_int, required=True)
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
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:     # the reader of stdout has gone (`| head`)
        # write the rest to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError) as e:   # every error of the package is a ValueError
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
