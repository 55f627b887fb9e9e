import pytest

from superpbw.coeffalg import MonoidBasis, MonoidError, monoid_preset


def test_poly_mul():
    mon = monoid_preset("poly")
    assert mon.mul((2,), (3,)) == (5,)
    assert mon.one == (0,)
    assert mon.power((2,), 3) == (6,)
    with pytest.raises(MonoidError):
        mon.check((-1,))


def test_trunc_absorbing():
    mon = monoid_preset("trunc:4")
    assert mon.mul((2,), (3,)) is None
    assert mon.mul((1,), (2,)) == (3,)
    assert mon.power((3,), 2) is None
    assert mon.power(None, 0) == mon.one
    assert mon.power(None, 2) is None
    assert mon.elements() == [(0,), (1,), (2,), (3,)]


def test_laurent_inverse():
    mon = monoid_preset("laurent")
    assert mon.mul((-1,), (1,)) == mon.one
    assert mon.parse_elt("t^-2") == (-2,)
    assert mon.parse_elt("t^3*t^-2") == (1,)      # the exponents of a product add up
    with pytest.raises(MonoidError):
        mon.elements()


def test_poly2_elements():
    mon = monoid_preset("poly2")
    assert mon.parse_elt("u^2*v") == (2, 1)
    assert mon.format_elt((2, 1)) == "u^2*v"
    assert mon.format_elt((0, 0)) == "1"
    assert mon.mul((1, 0), (0, 2)) == (1, 2)


def test_closure_presets():
    # every product of basis elements is a basis element or the absorbing zero
    for name in ("poly", "laurent", "poly2"):
        mon = monoid_preset(name)
        probe = [(0,) * len(mon.varnames), (1,) + (0,) * (len(mon.varnames) - 1)]
        for a in probe:
            for b in probe:
                assert mon.mul(a, b) is not None
    mon = monoid_preset("trunc:3")
    for a in mon.elements():
        for b in mon.elements():
            c = mon.mul(a, b)
            assert c is None or c in mon.elements()


def test_format_parse_round_trip():
    for name in ("poly", "laurent", "poly2", "trunc:5"):
        mon = monoid_preset(name)
        probe = mon.elements() if mon.finite else \
            [mon.one, (1,) * len(mon.varnames), (3,) + (0,) * (len(mon.varnames) - 1)]
        for a in probe:
            assert mon.parse_elt(mon.format_elt(a)) == a


@pytest.mark.parametrize("name, bound", [("trunc:x", "'x'"), ("trunc:", "''"),
                                         ("trunc:2.5", "'2.5'"), ("trunc:0", "'0'"),
                                         ("trunc:-3", "'-3'")])
def test_malformed_truncation_bound(name, bound):
    with pytest.raises(MonoidError, match="truncation bound %s is not an integer >= 1" % bound):
        monoid_preset(name)


def test_monoids_compare_by_their_fields_not_their_names():
    mine = MonoidBasis("m", ("t",), trunc=4)
    assert mine == monoid_preset("trunc:4") and hash(mine) == hash(monoid_preset("trunc:4"))
    assert MonoidBasis("m", ("t",), trunc=2) != mine
    assert monoid_preset("poly") != monoid_preset("laurent")
    assert monoid_preset("poly") != monoid_preset("poly2")
    assert len({monoid_preset("poly2"), MonoidBasis("uv", ("u", "v"))}) == 1


@pytest.mark.parametrize("name, text, factor", [
    ("poly", "t*t^-1", "t^-1"),           # cancels to 1, but t^-1 is no element of C[t]
    ("poly", "t^-1*t^2", "t^-1"),
    ("trunc:2", "t^3*t^-2", "t^-2"),      # would read as t, though t^3 is past the bound
    ("poly2", "u*v^-1*v", "v^-1"),
])
def test_a_negative_exponent_is_refused_unless_laurent(name, text, factor):
    with pytest.raises(MonoidError) as exc:
        monoid_preset(name).parse_elt(text)
    assert str(exc.value) == "negative exponent in %s" % factor
