"""`verify.sample_products` builds each generator it draws once per engine and
reads it from a per-engine table on every later draw.  The sampler it
replaced, which built every drawn generator afresh, is kept here as the
reference: both give the same descriptions and the same products, term for
term and in the same order, on the five presets over trunc:2 to trunc:4 in
both orders.  Goldens pin the benchmark's integrality pool and 40
products drawn on sl21, the table's values are shown to be read-only and
the table to die with its engine, and each description parses back to its product."""

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw import verify as ver
from superpbw.algebra import PRESET_NAMES
from superpbw.combinatorics import Multiset
from superpbw.exprio import parse_expr
from superpbw.verify import SweepBounds, get_engine, load_engine
from support import assert_read_only

MONOIDS = ("trunc:2", "trunc:3", "trunc:4")
ORDERS = ("triangular", "lexicographic")


# -- the sampler as it was: every drawn generator built afresh -------------------

def ref_sample_generator(engine, rng, bounds, kinds):
    spec = engine.spec
    elems = engine.monoid.elements()
    kind = rng.choice(kinds)
    if kind == "even":
        alpha = rng.choice(spec.even_roots())
        s = rng.randint(1, bounds.smax)
        belt = rng.choice(elems)
        return ("(x[%s]{%s})^(%d)" % (alpha, engine.monoid.format_elt(belt), s),
                engine.divided_power(('x', alpha), belt, s))
    if kind == "odd":
        gamma = rng.choice(spec.odd_roots())
        celt = rng.choice(elems)
        return ("x[%s]{%s}" % (gamma, engine.monoid.format_elt(celt)),
                engine.gen_elem(('x', gamma), celt))
    i = rng.randint(1, spec.rank)
    size = rng.randint(0, bounds.chimax)
    chi = Multiset.of(*(rng.choice(elems) for _ in range(size)))
    return ("p[%d]{%s}" % (i, ver.fmt_value(engine, chi)), engine.p(i, chi))


def ref_sample_products(engine, gens, trials, seed, bounds):
    rng = random.Random(seed)
    kinds = ver._generator_kinds(engine, bounds)
    for _ in range(trials):
        k = rng.randint(1, gens)
        label, factors = zip(*[ref_sample_generator(engine, rng, bounds, kinds)
                               for _ in range(k)])
        yield " ".join(label), engine.mul_sum((factors,))


def listed(products):
    """(description, terms in order, with each coefficient's type) per product."""
    return [(desc, [(w, c, type(c)) for w, c in x.terms.items()]) for desc, x in products]


@settings(max_examples=300, deadline=None)
@given(algebra=st.sampled_from(PRESET_NAMES), monoid=st.sampled_from(MONOIDS),
       order=st.sampled_from(ORDERS), smax=st.integers(0, 3), chimax=st.integers(0, 3),
       gens=st.integers(1, 6), trials=st.integers(1, 5), seed=st.integers(0, 2 ** 32))
def test_the_table_draws_what_the_per_draw_sampler_drew(algebra, monoid, order, smax, chimax,
                                                        gens, trials, seed):
    # the new sampler runs on the shared engine, whose table fills across
    # examples; the reference on a fresh one, so the two share no memo
    bounds = SweepBounds(smax=smax, chimax=chimax)
    new = ver.sample_products(get_engine(algebra, monoid, order), gens, trials, seed, bounds)
    ref = ref_sample_products(load_engine(algebra, monoid, order), gens, trials, seed, bounds)
    assert listed(new) == listed(ref)


# -- a description is its product in the expression grammar ----------------------

@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("algebra", PRESET_NAMES)
def test_a_description_parses_to_its_product(algebra, order):
    """So a sampled FAIL detail can be pasted into `normalize --divided`."""
    eng = load_engine(algebra, "trunc:3", order)
    bounds = SweepBounds(smax=3, chimax=3)
    for seed in range(60):
        (desc, x), = ver.sample_products(eng, bounds.integrality_gens, 1, seed, bounds)
        assert parse_expr(eng, desc) == x, desc


# -- the benchmark's integrality pool ---------------------------------------------

# product j of an algebra is the one product of sample_products(engine, 6, 1,
# POOL_SEED + j) at these bounds, for j < 600 (bench/workloads.py, Integrality)
POOL_ALGEBRAS = ("sl3", "sp4", "sl21")
POOL_SEED, POOL = 1000003, 600
POOL_BOUNDS = SweepBounds(rmax=3, smax=2, mmax=3, chimax=2)


def test_every_third_pool_product_and_its_divided_image_are_unchanged():
    engines = {alg: [load_engine(alg, "trunc:4", order) for order in ORDERS]
               for alg in POOL_ALGEBRAS}
    items = [(alg, POOL_SEED + j) for alg in POOL_ALGEBRAS for j in range(POOL)]
    digest = hashlib.sha256()
    for alg, seed in items[::3]:
        for eng in engines[alg]:
            (desc, x), = ver.sample_products(eng, 6, 1, seed, POOL_BOUNDS)
            digest.update(repr((desc, list(x.terms.items()),
                                list(eng.to_divided(x).terms.items()))).encode())
    assert digest.hexdigest()[:16] == "f2082c9573c50bd7"


def test_the_sampled_products_on_sl21_are_unchanged():
    products = ver.sample_products(load_engine("sl21", "trunc:3"), 6, 40, 5, SweepBounds())
    digest = hashlib.sha256(repr([(desc, list(x.terms.items())) for desc, x in products]).encode())
    assert digest.hexdigest() == "e8a6e7b2f056be327bf6d2841a93f79009810b2a173a90157c2ad6ba3cea3a8f"


# -- the table's values are read-only, and it dies with its engine --------------

def test_a_changed_product_does_not_change_later_draws():
    """Neither a product nor a generator the table holds, a memo value of
    the engine, can be written into, and later draws are the same."""
    bounds = SweepBounds(smax=2, chimax=2)
    eng = load_engine("sl21", "trunc:3")
    want = listed(ref_sample_products(load_engine("sl21", "trunc:3"), 4, 30, 7, bounds))
    for _, x in ver.sample_products(eng, 4, 30, 7, bounds):
        assert_read_only(x)
    for _, x in ver._drawn[eng].values():
        assert_read_only(x)
    assert listed(ver.sample_products(eng, 4, 30, 7, bounds)) == want


def test_the_table_entry_dies_with_its_engine():
    eng = load_engine("sl2", "trunc:2")
    list(ver.sample_products(eng, 3, 10, 0, SweepBounds()))
    assert ver._drawn[eng]
    gc.collect()        # the engines earlier tests dropped go first
    ref, before = weakref.ref(eng), len(ver._drawn)
    del eng
    gc.collect()
    assert ref() is None
    assert len(ver._drawn) == before - 1
