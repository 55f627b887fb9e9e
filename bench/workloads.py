"""The benchmark workloads.

Each workload has a fixed list of op inputs, runs one op at a time through
the package's public entry points (a closed loop: the next op starts when the
previous one returns), and checks every output outside the timed region.
The worker orders the list by the run's seed and the replicate's number.

A workload has:
  params()      the parameters stamped into result files;
  setup()       what a user pays before the first op (engines, presets);
  items()       the op inputs of one replicate, in a fixed order (a replicate,
                one fresh process running every item once, takes about three
                seconds on a 2-vCPU Xeon VM);
  op(item)      one op; its return value is the output to check;
  check(i, item, out)  cheap checks, run right after the op's timer stops;
  finish()      deferred checks, run after the stream; returns failed op indices;
  engines()     engines whose memo tables the traced run reads at the end;
  REF_EVERY     ops between two timings of the worker's reference loop,
                about 10 ms of op time;
  predicted_nonzero    per-layer metrics the trace must see move.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random

from superpbw import algebra, cli, coeffalg, combinatorics, engine, exprio, verify

HERE = os.path.dirname(os.path.abspath(__file__))


class SweepEven:
    """Identities 4.3, 4.4 and 4.5 on sl2 and sl3 over trunc:4, r, s <= 3 and
    |chi| <= 3: the hot path of the even-identity acceptance sweep, on the
    shared engines of get_engine.

    A replicate checks a fixed sample of SAMPLE instances of the whole sweep,
    drawn once with SAMPLE_SEED.  A sample drawn per seed made the work of a
    run depend on the seed: which algebras and which memo entries the sample
    happened to need."""

    name = "sweep_even"
    ALGEBRAS = ("sl2", "sl3")
    IDENTITIES = ("4.3", "4.4", "4.5")
    MONOID = "trunc:4"
    RMAX = SMAX = CHIMAX = 3
    SAMPLE = 3000
    SAMPLE_SEED = 1000003
    REF_EVERY = 20
    predicted_nonzero = (
        "combinatorics.enumerate_CS.calls", "combinatorics.enumerate_sub.calls",
        "combinatorics.enumerate_CP.calls", "combinatorics.Multiset.calls",
        "identities.lhs.calls", "identities.rhs.calls", "engine.p.calls",
        "engine.insert.calls", "engine.normalize.calls", "engine.mul.calls",
        "engine.UElem.calls", "engine.memo.insert_size", "engine.memo.p_size",
        "coeffalg.mul.calls", "verify.verify_identity.self_s", "algebra.preset.calls")

    def __init__(self):
        with open(os.path.join(HERE, "golden_sweep_even.json")) as fh:
            self.golden = json.load(fh)["counts"]

    def params(self):
        return {"algebras": self.ALGEBRAS, "identities": self.IDENTITIES,
                "monoid": self.MONOID, "rmax": self.RMAX, "smax": self.SMAX,
                "chimax": self.CHIMAX, "sample": self.SAMPLE,
                "sample_seed": self.SAMPLE_SEED}

    def setup(self):
        self._engines = {alg: verify.get_engine(alg, self.MONOID) for alg in self.ALGEBRAS}
        self._sign_caches = {}

    def engines(self):
        return list(self._engines.values())

    def _instances(self, alg, ident_id):
        """The parameter sets of the acceptance sweep for one identity."""
        eng = self._engines[alg]
        spec = eng.spec
        elems = eng.monoid.elements()
        evens = spec.even_roots()
        rs = range(self.RMAX + 1)
        if ident_id == "4.3":
            for alpha, a, b, r, s in itertools.product(evens, elems, elems, rs,
                                                       range(self.SMAX + 1)):
                yield {"alpha": alpha, "a": a, "b": b, "r": r, "s": s}
            return
        chis = [combinatorics.Multiset.of(*c) for k in range(self.CHIMAX + 1)
                for c in itertools.combinations_with_replacement(elems, k)]
        for alpha, i, b, r, chi in itertools.product(evens, range(1, spec.rank + 1),
                                                     elems, rs, chis):
            yield {"alpha": alpha, "i": i, "b": b, "r": r, "chi": chi}

    def items(self):
        items = []
        for alg in self.ALGEBRAS:
            for ident_id in self.IDENTITIES:
                inst = [(alg, ident_id, ps) for ps in self._instances(alg, ident_id)]
                want = sum(self.golden[alg][ident_id].values())
                if len(inst) != want:
                    raise RuntimeError("sweep_even: %s %s has %d instances, the recorded "
                                       "sweep has %d" % (alg, ident_id, len(inst), want))
                items += inst
        return random.Random(self.SAMPLE_SEED).sample(items, self.SAMPLE)

    def op(self, item):
        alg, ident_id, ps = item
        caches = self._sign_caches.setdefault((alg, ident_id), {})
        return verify.verify_identity(self._engines[alg], ident_id, ps, caches).verdict

    def check(self, i, item, verdict):
        alg, ident_id, _ = item
        return verdict != "fail" and self.golden[alg][ident_id].get(verdict, 0) > 0

    def finish(self):
        return set()


class Integrality:
    """Products of <= 6 integral-form generators drawn by
    verify.sample_products on sl3, sp4 and sl21.  Each product is tested for
    integrality under the triangular and the lexicographic order and factored
    through B- B0 B+ under the triangular order.

    The products come from a fixed pool: product j of an algebra is the one
    product of sample_products(engine, 6, 1, seed=POOL_SEED + j), and a
    replicate computes every pool product once.  Fresh draws per seed made
    the work of a replicate depend on which few expensive products a seed
    happened to draw."""

    name = "integrality"
    ALGEBRAS = ("sl3", "sp4", "sl21")
    MONOID = "trunc:4"
    GENS = 6
    # Divided powers up to 2 and |chi| <= 2 keep single products under about
    # 0.3 s.  With the acceptance bounds (3, 3) a few products take seconds
    # each, and which few a seed draws decides the run.
    BOUNDS = dict(rmax=3, smax=2, mmax=3, chimax=2)
    POOL = 600                  # products per algebra
    POOL_SEED = 1000003
    REF_EVERY = 6
    predicted_nonzero = (
        "combinatorics.enumerate_sub.calls", "combinatorics.Multiset.calls",
        "engine.p.calls", "engine.to_divided.calls", "engine.triangular_factor.calls",
        "engine.insert.calls", "engine.normalize.calls", "engine.mul.calls",
        "engine.UElem.calls", "engine.memo.insert_size", "engine.memo.p_size",
        "coeffalg.mul.calls", "verify.sample_products.self_s", "algebra.preset.calls")

    def params(self):
        return {"algebras": self.ALGEBRAS, "monoid": self.MONOID, "gens": self.GENS,
                "bounds": self.BOUNDS, "pool": self.POOL, "pool_seed": self.POOL_SEED,
                "orders": ("triangular", "lexicographic")}

    def setup(self):
        self._engines = {alg: (verify.get_engine(alg, self.MONOID, "triangular"),
                               verify.get_engine(alg, self.MONOID, "lexicographic"))
                         for alg in self.ALGEBRAS}
        self._bounds = verify.SweepBounds(**self.BOUNDS)

    def engines(self):
        return [e for pair in self._engines.values() for e in pair]

    def items(self):
        return [(alg, self.POOL_SEED + j) for alg in self.ALGEBRAS for j in range(self.POOL)]

    def op(self, item):
        alg, pool_seed = item
        tri, lex = self._engines[alg]
        (desc, x), = verify.sample_products(tri, self.GENS, 1, pool_seed, self._bounds)
        (lex_desc, y), = verify.sample_products(lex, self.GENS, 1, pool_seed, self._bounds)
        _, factors = tri.triangular_factor(x)
        return desc, lex_desc, tri.is_integral(x), lex.is_integral(y), factors

    def check(self, i, item, out):
        desc, lex_desc, tri_ok, lex_ok, factors = out
        return (desc == lex_desc and tri_ok is True and lex_ok is True
                and all(c.denominator == 1 for c, _, _, _ in factors))

    def finish(self):
        return set()


# normalize_cli request shapes: (r, s, divided, Cartan letter slot or None)
MAX_TOTAL = 10
DECK = [(r, s, divided, cartan)
        for r, s, divided, cartan in itertools.product(range(1, 10), range(1, 10),
                                                       (False, True), (None, 0, 1, 2))
        if r + s <= MAX_TOTAL]


class NormalizeCli:
    """In-process `superpbw normalize` requests on sl3 over poly, stdout
    captured.  A request multiplies a run of a positive root letter, a run of
    the opposite root letter and, in three of four shapes, one Cartan letter;
    half of the shapes use divided powers and --divided.  The deck holds one
    request per shape (exponents 1..9 with r + s <= 10, Cartan letter
    placement), its root and coefficients drawn once with DRAW_SEED.  A
    replicate is one pass through the deck, so every run sends the same
    requests.  Roots and coefficients drawn per seed made a run's work depend
    on the seed."""

    name = "normalize_cli"
    ALGEBRA = "sl3"
    MONOID = "poly"
    ROOTS = (("a1", "-a1"), ("a2", "-a2"), ("a1+a2", "-a1-a2"))
    COEFFS = ("1", "t")
    MAX_TOTAL = MAX_TOTAL
    DRAW_SEED = 1000003
    DECK = DECK
    REF_EVERY = 1
    predicted_nonzero = (
        "cli.main.self_s", "exprio.parse_expr.calls", "exprio.format.self_s",
        "engine.normalize.calls", "engine.insert.calls", "engine.mul.calls",
        "engine.UElem.calls", "engine.to_divided.calls", "engine.memo.insert_size",
        "coeffalg.mul.calls", "algebra.preset.calls")

    def __init__(self):
        self._sent = []

    def params(self):
        return {"algebra": self.ALGEBRA, "monoid": self.MONOID,
                "exponents": "1..9, r + s <= %d" % self.MAX_TOTAL,
                "cartan": ("none", "first", "middle", "last"), "divided": "half",
                "draw_seed": self.DRAW_SEED}

    def setup(self):
        # What the CLI does before its first request: load and validate the
        # preset, build a triangular engine.
        spec = algebra.preset(self.ALGEBRA)
        engine.Engine(spec, coeffalg.monoid_preset(self.MONOID), engine.Order.triangular(spec))

    def engines(self):
        return []

    def items(self):
        draw = random.Random(self.DRAW_SEED)
        deck = []
        for r, s, divided, cartan in self.DECK:
            pos, neg = draw.choice(self.ROOTS)
            pw = "^(%d)" if divided else "^%d"
            runs = ["x[%s]{%s}%s" % (pos, draw.choice(self.COEFFS), pw % r),
                    "x[%s]{%s}%s" % (neg, draw.choice(self.COEFFS), pw % s)]
            if cartan is not None:
                runs.insert(cartan, "h[%d]{%s}" % (draw.randint(1, 2),
                                                   draw.choice(self.COEFFS)))
            deck.append((" ".join(runs), divided))
        return deck

    def op(self, item):
        expr, divided = item
        argv = ["normalize", "--algebra", self.ALGEBRA, "--monoid", self.MONOID]
        argv += ["--divided", expr] if divided else [expr]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, i, item, out):
        code, text, err = out
        expr, divided = item
        self._sent.append((i, expr, divided, hashlib.sha256(text.encode()).digest()))
        return code == 0 and not err and (not divided or text.endswith("\nINTEGRAL: yes\n"))

    def finish(self):
        """Order-independence cross-check: normalize each word in a fresh
        lexicographic engine, adopt it into a fresh triangular engine, print
        it as the CLI does and compare with what the request printed."""
        spec = algebra.preset(self.ALGEBRA)
        monoid = coeffalg.monoid_preset(self.MONOID)
        failed = set()
        for i, expr, divided, digest in self._sent:
            lex = engine.Engine(spec, monoid, engine.Order.lexicographic(spec))
            tri = engine.Engine(spec, monoid, engine.Order.triangular(spec))
            x = tri.adopt(exprio.parse_expr(lex, expr))
            if divided:
                df = tri.to_divided(x)
                want = "%s\nINTEGRAL: %s\n" % (exprio.divided_str(tri, df, multiline=True),
                                               "yes" if df.is_integral() else "no")
            else:
                want = exprio.uelem_str(tri, x, multiline=True) + "\n"
            if hashlib.sha256(want.encode()).digest() != digest:
                failed.add(i)
        return failed


WORKLOADS = {w.name: w for w in (SweepEven, Integrality, NormalizeCli)}
