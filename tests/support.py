"""What several test modules share, each defined once here: the element
constants, the two ways to compare elements, the check that an element is
read-only, canonical words, Cartan block words and an in-process CLI run.  Engines come from `verify.load_engine`
(fresh) and `verify.get_engine` (shared).

The package is imported inside the functions that need it, never at module
level, so that a module run where the package is not importable may still
import this one."""

import contextlib
import io
from fractions import Fraction

ONE, T, T2, T3 = (0,), (1,), (2,), (3,)


def _pairs(x):
    """The (key, coefficient) pairs of an element, a mapping of terms or a
    sequence of pairs, in their order."""
    terms = getattr(x, "terms", x)
    return list(terms.items() if hasattr(terms, "items") else terms)


def _assert_exact(pairs):
    for _, c in pairs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def assert_same(got, want):
    """got has want's terms in want's order, each coefficient of the type
    want's has, and each an int or a Fraction that is not integral.  Either
    side is an element, a mapping of terms or a sequence of (key, coeff) pairs."""
    got, want = _pairs(got), _pairs(want)
    assert got == want
    assert [type(c) for _, c in got] == [type(c) for _, c in want]
    _assert_exact(got)


def assert_same_terms(got, want):
    """As `assert_same` in any term order, for sums whose order is not
    pinned; two elements must also be of one class."""
    if hasattr(got, "terms") and hasattr(want, "terms"):
        assert type(got) is type(want)
    got, want = dict(_pairs(got)), dict(_pairs(want))
    assert got == want
    assert {k: type(c) for k, c in got.items()} == {k: type(c) for k, c in want.items()}
    _assert_exact(got.items())


def assert_read_only(x):
    """Every way to write into an element raises: setting or deleting a term,
    clearing the terms, and rebinding or deleting `terms`; x is unchanged."""
    import pytest
    before = list(x.terms.items())
    key = next(iter(x.terms), ())
    with pytest.raises(TypeError):
        x.terms[key] = 7
    with pytest.raises(TypeError):
        del x.terms[key]
    with pytest.raises(AttributeError):
        x.terms.clear()
    with pytest.raises(AttributeError):
        x.terms = {(): 1}
    with pytest.raises(AttributeError):
        del x.terms
    assert list(x.terms.items()) == before


def canonical_word(engine, letters):
    """The letters sorted into a canonical word, repeated odd letters dropped."""
    word = sorted(letters, key=engine._key)
    return tuple(L for n, L in enumerate(word)
                 if not (n and L == word[n - 1] and engine._parity[L[0]]))


def h_block(engine, i, chi):
    """The word of the monomial prod_a (h_i (x) a)^chi(a), one block."""
    return tuple(sorted(((('h', i), a) for a, e in chi.items() for _ in range(e)),
                        key=engine._key))


def run_cli(*argv):
    """`cli.main(argv)` in this process: (exit code, stdout, stderr)."""
    from superpbw.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()
