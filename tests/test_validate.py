"""`validate` against a test-only oracle that sweeps every pair and triple of
symbols: the same violations in the same order on the presets, on hand-made
tables for each message, and on randomly mutated preset tables; and its cost
follows the nonzero brackets, not the cube of the symbol count."""

import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpbw.algebra import SuperAlgebraSpec, format_sym, load_spec, preset, validate, \
    PRESET_NAMES
from superpbw.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def dense_validate(spec):
    """Test-only oracle: the violations of `validate`, found by sweeping every
    pair and every triple of symbols (how `validate` worked before it walked
    only the nonzero brackets)."""
    bad = []
    syms = spec.all_syms()
    par = {s: spec.parity(s) for s in syms}

    # unknown symbols: in the result of each pair of symbols, then in every
    # bracket whose key is not such a pair
    outside = [(s1, s2) for s1 in syms for s2 in syms if spec.bracket(s1, s2)]
    outside += [key for key in spec.brackets if not set(key) <= set(syms)]
    for s1, s2 in outside:
        named = [s1, s2] + [sym for sym, _ in spec.bracket(s1, s2)]
        for sym in sorted(set(named) - set(syms), key=named.index):
            bad.append("bracket [%s, %s] mentions unknown symbol %s"
                       % (format_sym(s1), format_sym(s2), format_sym(sym)))

    for r in spec.roots:
        n = spec.root(r.neg) if spec.has_root(r.neg) else None
        if n is None:
            bad.append("root %s: negative %s missing" % (r.label, r.neg))
            continue
        if n.neg != r.label:
            bad.append("negation of %s is not an involution" % r.label)
        if n.parity != r.parity:
            bad.append("roots %s and %s differ in parity" % (r.label, n.label))
        if tuple(-e for e in r.ev) != n.ev:
            bad.append("evaluation vectors of %s and %s are not opposite" % (r.label, n.label))
        if r.positive == n.positive:
            bad.append("exactly one of %s, %s must be positive" % (r.label, n.label))

    # antisymmetry: [z, w] = -(-1)^{|z||w|} [w, z]
    for s1 in syms:
        for s2 in syms:
            sign = -1 if (par[s1] and par[s2]) else 1
            lhs = dict(spec.bracket(s1, s2))
            rhs = {k: -sign * v for k, v in spec.bracket(s2, s1)}
            if lhs != rhs:
                bad.append("antisymmetry fails for (%s, %s)" % (s1, s2))

    # grading
    for i in range(1, spec.rank + 1):
        for j in range(1, spec.rank + 1):
            if spec.bracket(('h', i), ('h', j)):
                bad.append("Cartan generators h%d, h%d do not commute" % (i, j))
        for r in spec.roots:
            want = {('x', r.label): r.ev[i - 1]} if r.ev[i - 1] else {}
            if dict(spec.bracket(('h', i), ('x', r.label))) != want:
                bad.append("[h%d, x_%s] disagrees with the stored evaluation" % (i, r.label))
    for r1 in spec.roots:
        for r2 in spec.roots:
            got = dict(spec.bracket(('x', r1.label), ('x', r2.label)))
            ssum = tuple(a + b for a, b in zip(r1.ev, r2.ev))
            if r2.label == r1.neg:
                if any(s[0] != 'h' for s in got):
                    bad.append("[x_%s, x_%s] leaves the Cartan" % (r1.label, r2.label))
                cor = spec.coroots.get(r1.label)
                have = tuple(got.get(('h', i), 0) for i in range(1, spec.rank + 1))
                if cor is None or tuple(cor) != have:
                    bad.append("coroot of %s disagrees with [x_%s, x_%s]"
                               % (r1.label, r1.label, r2.label))
            else:
                target = spec.find_root(ssum)
                if target is None:
                    if got:
                        bad.append("[x_%s, x_%s] should vanish (%r is not a root)"
                                   % (r1.label, r2.label, ssum))
                elif any(s != ('x', target) for s in got):
                    bad.append("[x_%s, x_%s] is not a multiple of x_%s"
                               % (r1.label, r2.label, target))

    for r in spec.roots:
        if r.parity == 0:
            cor = spec.coroots.get(r.label)
            if cor is not None and sum(e * c for e, c in zip(r.ev, cor)) != 2:
                bad.append("alpha(h_alpha) != 2 for even root %s" % r.label)

    # super Jacobi: [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]]
    for a in syms:
        for b in syms:
            sgn = -1 if (par[a] and par[b]) else 1
            for c in syms:
                left = {}
                for sym, k in spec.bracket(b, c):
                    for sym2, k2 in spec.bracket(a, sym):
                        left[sym2] = left.get(sym2, 0) + k * k2
                right = {}
                for sym, k in spec.bracket(a, b):
                    for sym2, k2 in spec.bracket(sym, c):
                        right[sym2] = right.get(sym2, 0) + k * k2
                for sym, k in spec.bracket(a, c):
                    for sym2, k2 in spec.bracket(b, sym):
                        right[sym2] = right.get(sym2, 0) + sgn * k * k2
                left = {k: v for k, v in left.items() if v}
                right = {k: v for k, v in right.items() if v}
                if left != right:
                    bad.append("super Jacobi fails on (%s, %s, %s)" % (a, b, c))
    return bad


def sl2_table(**edits):
    """The sl2 preset's table, with `edits` replacing some of the arguments
    it is built from."""
    spec = preset("sl2")
    table = dict(name="sl2", rank=1, roots=spec.roots, coroots=spec.coroots,
                 brackets=spec.brackets)
    table.update(edits)
    return SuperAlgebraSpec(**table)


def sl2_roots(**edits):
    """The roots a, -a of sl2, with `edits` (label -> field changes) applied."""
    return [dataclasses.replace(r, **edits.get(r.label, {})) for r in preset("sl2").roots]


def sl2_brackets(**edits):
    """sl2's brackets with some entries replaced (a key names its pair, as
    'a,-a' or 'h1,a')."""
    out = dict(preset("sl2").brackets)
    for pair, terms in edits.items():
        out[tuple(('h', 1) if s == "h1" else ('x', s) for s in pair.split(","))] = terms
    return out


def sl3_table(terms):
    """sl3's table with [x_a1, x_a2] = terms, and [x_a2, x_a1] = -terms."""
    spec = preset("sl3")
    brackets = dict(spec.brackets)
    brackets[('x', 'a1'), ('x', 'a2')] = terms
    brackets[('x', 'a2'), ('x', 'a1')] = tuple((s, -c) for s, c in terms)
    return SuperAlgebraSpec("sl3", 2, spec.roots, spec.coroots, brackets)


H1, XA = ('h', 1), ('x', 'a')

# one hand-made table for each message `validate` can give
HAND_MADE = {
    "negative -b missing": lambda: sl2_table(roots=sl2_roots(a={"neg": "-b"})),
    "negation of a is not an involution":
        lambda: sl2_table(roots=sl2_roots(**{"-a": {"neg": "-a"}})),
    "differ in parity": lambda: sl2_table(roots=sl2_roots(**{"-a": {"parity": 1}})),
    "are not opposite": lambda: sl2_table(roots=sl2_roots(**{"-a": {"ev": (-3,)}})),
    "exactly one of a, -a must be positive":
        lambda: sl2_table(roots=sl2_roots(**{"-a": {"positive": True}})),
    "antisymmetry fails": lambda: sl2_table(brackets=sl2_brackets(**{"a,-a": ((H1, 2),)})),
    "h1, h2 do not commute": lambda: SuperAlgebraSpec(
        "h", 2, (), {}, {(H1, ('h', 2)): ((H1, 1),), (('h', 2), H1): ((H1, -1),)}),
    "[h1, x_a] disagrees with the stored evaluation":
        lambda: sl2_table(brackets=sl2_brackets(**{"h1,a": ((XA, 3),), "a,h1": ((XA, -3),)})),
    "leaves the Cartan":
        lambda: sl2_table(brackets=sl2_brackets(**{"a,-a": ((H1, 1), (XA, 1)),
                                                   "-a,a": ((H1, -1), (XA, -1))})),
    "coroot of a disagrees": lambda: sl2_table(coroots={"a": (2,), "-a": (-1,)}),
    "should vanish": lambda: sl2_table(brackets=sl2_brackets(**{"a,a": ((H1, 1),)})),
    "is not a multiple of x_a1+a2": lambda: sl3_table(((H1, 1),)),
    "alpha(h_alpha) != 2": lambda: sl2_table(coroots={"a": (2,), "-a": (-1,)}),
    "super Jacobi fails": lambda: sl3_table(((('x', 'a1+a2'), 2),)),
    "bracket [x[a], x[-a]] mentions unknown symbol h7": lambda: sl2_table(
        brackets=sl2_brackets(**{"a,-a": ((H1, 1), (('h', 7), 5)),
                                 "-a,a": ((H1, -1), (('h', 7), -5))})),
}


def test_presets_and_table_file_agree_with_the_oracle():
    specs = [preset(name) for name in PRESET_NAMES]
    specs.append(load_spec(open(os.path.join(DATA, "sl2.alg")).read()))
    for spec in specs:
        assert validate(spec) == dense_validate(spec) == []


@pytest.mark.parametrize("message", sorted(HAND_MADE))
def test_each_message_agrees_with_the_oracle(message):
    spec = HAND_MADE[message]()
    bad = validate(spec)
    assert bad == dense_validate(spec)
    assert any(message in v for v in bad), bad


def test_violations_come_in_symbol_order():
    # sl3 with h2 not commuting with h1, and [h1, x_a2], [h2, x_a1] off their
    # evaluations: the grading violations come by h_i, each one's h_j first
    spec = preset("sl3")
    brackets = dict(spec.brackets)
    brackets[('h', 2), H1] = ((H1, 1),)
    for h, x in ((H1, ('x', 'a2')), (('h', 2), ('x', 'a1'))):
        brackets[h, x] = ((x, 5),)
    table = SuperAlgebraSpec("sl3", 2, spec.roots, spec.coroots, brackets)
    bad = validate(table)
    assert bad == dense_validate(table)
    assert [v for v in bad if v.startswith(("Cartan", "[h"))] == [
        "[h1, x_a2] disagrees with the stored evaluation",
        "Cartan generators h2, h1 do not commute",
        "[h2, x_a1] disagrees with the stored evaluation"]


# symbols a mutation may name: those of the presets, and two no table has
STRANGERS = [('h', 3), ('x', 'zz')]


@st.composite
def mutated_tables(draw):
    """A preset's table with up to four edits: a coefficient moved by one, a
    bracket dropped, added or retargeted (maybe onto a symbol the table lacks),
    a root's positivity or parity flipped, a coroot bumped."""
    spec = preset(draw(st.sampled_from(PRESET_NAMES)))
    syms = list(spec.all_syms())
    any_sym = st.sampled_from(syms + STRANGERS)
    roots, coroots, brackets = list(spec.roots), dict(spec.coroots), dict(spec.brackets)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["coeff", "drop", "add", "retarget", "positive",
                                     "parity", "coroot"]))
        keys = sorted(brackets)
        if kind in ("coeff", "drop", "retarget") and keys:
            key = draw(st.sampled_from(keys))
            terms = list(brackets[key])
            k = draw(st.integers(0, len(terms) - 1))
            if kind == "drop":
                del brackets[key]
                continue
            sym, c = terms[k]
            terms[k] = (draw(any_sym), c) if kind == "retarget" \
                else (sym, c + draw(st.sampled_from([-1, 1])))
            brackets[key] = tuple(terms)
        elif kind == "add":
            key = (draw(st.sampled_from(syms)), draw(any_sym))
            brackets[key] = brackets.get(key, ()) + ((draw(any_sym), draw(st.integers(-2, 2))),)
        elif kind in ("positive", "parity"):
            k = draw(st.integers(0, len(roots) - 1))
            r = roots[k]
            roots[k] = dataclasses.replace(r, positive=not r.positive) if kind == "positive" \
                else dataclasses.replace(r, parity=1 - r.parity)
        elif kind == "coroot":
            label = draw(st.sampled_from(sorted(coroots)))
            i = draw(st.integers(0, spec.rank - 1))
            cor = list(coroots[label])
            cor[i] += draw(st.sampled_from([-1, 1]))
            coroots[label] = tuple(cor)
    return SuperAlgebraSpec(spec.name, spec.rank, roots, coroots, brackets)


@settings(max_examples=600, deadline=None)
@given(mutated_tables())
def test_mutated_tables_agree_with_the_oracle(spec):
    assert validate(spec) == dense_validate(spec)


def test_cartan_only_table_makes_no_bracket_lookups(monkeypatch):
    calls = []
    lookup = SuperAlgebraSpec.bracket
    monkeypatch.setattr(SuperAlgebraSpec, "bracket",
                        lambda self, s1, s2: calls.append(1) or lookup(self, s1, s2))
    spec = load_spec("cartan 60\nroots\ncoroots\nbrackets\n", check=False)
    assert validate(spec) == []
    assert len(calls) < 100     # the dense sweep made 658 800


def test_validate_spec_on_a_rank_2000_cartan(tmp_path, capsys):
    path = tmp_path / "big.alg"
    path.write_text("cartan 2000\nroots\ncoroots\nbrackets\n")
    assert main(["validate-spec", "--algebra", str(path)]) == 0
    assert capsys.readouterr().out == "VALID big (rank 2000, 0 roots, 0 odd)\n"


def test_symbols_outside_the_table_are_reported():
    # a table built by hand skips load_spec's check: [x_a, x_-a] names h7, as in
    # test_engine's straightening test, and one bracket is keyed on a root the
    # table lacks
    brackets = dict(HAND_MADE["bracket [x[a], x[-a]] mentions unknown symbol h7"]().brackets)
    brackets[XA, ('x', 'zz')] = ((('h', 3), 1), (('x', 'zz'), 2))
    spec = sl2_table(brackets=brackets)
    assert validate(spec) == dense_validate(spec) == [
        "bracket [x[a], x[-a]] mentions unknown symbol h7",
        "bracket [x[-a], x[a]] mentions unknown symbol h7",
        "bracket [x[a], x[zz]] mentions unknown symbol x[zz]",
        "bracket [x[a], x[zz]] mentions unknown symbol h3"]
