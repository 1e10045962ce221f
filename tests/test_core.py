import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfder.algebras import make_algebra
from halfder.basis import BasisIndex, Family, as_int, as_scalar, bidx
from halfder.core import ParseError, parse_element, render
from halfder.element import Element, combine, element_combine, pack, unpack
from halfder.solver import solve_delta_derivations


class _NaiveRational:
    """Independent p/q arithmetic oracle: cross-multiplication on raw ints."""

    def __init__(self, p, q=1):
        self.p, self.q = p, q

    def add(self, o):
        return _NaiveRational(self.p * o.q + o.p * self.q, self.q * o.q)

    def mul(self, o):
        return _NaiveRational(self.p * o.p, self.q * o.q)

    def eq(self, frac):
        return self.p * frac.denominator == frac.numerator * self.q


def test_scalar_matches_cross_multiplication_oracle():
    rng = random.Random(0)
    for _ in range(1000):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        na = _NaiveRational(a.numerator, a.denominator)
        nb = _NaiveRational(b.numerator, b.denominator)
        assert na.add(nb).eq(a + b)
        assert na.mul(nb).eq(a * b)


def test_scalar_lowest_terms_invariant():
    s = as_scalar("6/4")
    assert (s.numerator, s.denominator) == (3, 2)
    assert as_scalar("-2/8") == Fraction(-1, 4)
    assert as_scalar(" 6/4 ") == Fraction(3, 2)
    assert as_scalar(5) == Fraction(5)
    # the element grammar's coefficient; Fraction(str) also takes each of these
    for text in ("1/0", "0.5", "1_0", "+1", "١", "1/-2"):
        with pytest.raises(ValueError):
            as_scalar(text)
    with pytest.raises(TypeError):
        as_scalar(1.5)
    assert as_int(" 6 ") == 6 and as_int("-02") == -2 and as_int(7) == 7
    # int() also takes "1_0", "+1" and "١"
    for value in ("0.5", "1_0", "+1", "١", "1/-2", " 6/4 ", "1/2", 1.0, True, Fraction(2)):
        with pytest.raises(ValueError):
            as_int(value)


def test_scalar_rejects_bool():
    # bool is an int subclass; read as an int, wab(a=True, b=False) would
    # build W(1, 0) and a solve at delta=True would solve at delta 1
    for flag in (True, False):
        with pytest.raises(TypeError):
            as_scalar(flag)
    with pytest.raises(TypeError):
        make_algebra("wab", a=True, b=False)
    with pytest.raises(TypeError):
        solve_delta_derivations(make_algebra("sl2"), True)


def test_basis_index_invariants():
    assert bidx(Family.GPLUS, 1).parity == 1
    assert bidx(Family.GMINUS, -3).parity == 1
    assert bidx(Family.L, 4).parity == 0
    with pytest.raises(ValueError):
        BasisIndex(Family.C, 2)
    assert bidx(Family.E, 2) == bidx(Family.E, 2)
    assert bidx(Family.E, 2) < bidx(Family.L, -8)  # family order wins
    assert bidx(Family.L, -2) < bidx(Family.L, 0)
    # an index hashes and orders as (int(family), degree2), so dict and set
    # iteration orders, and every sort, follow that tuple
    idxs = [bidx(f, d) for f in Family for d in range(-8, 9) if f is not Family.C or d == 0]
    for idx in idxs:
        assert hash(idx) == hash((int(idx.family), idx.degree2))
    shuffled = idxs[:]
    random.Random(0).shuffle(shuffled)
    assert [(int(i.family), i.degree2) for i in sorted(shuffled)] == sorted((int(i.family), i.degree2) for i in idxs)
    for idx in idxs:
        for back in (copy.copy(idx), copy.deepcopy(idx), pickle.loads(pickle.dumps(idx))):
            assert back == idx and hash(back) == hash(idx)
            assert (back.family, back.degree2, back.parity) == (idx.family, idx.degree2, idx.parity)
    with pytest.raises(TypeError):
        hash(Element.zero())
    # 2.0 == 2, so a non-int degree2 would be interned and then handed out
    # for the int key too; bidx rejects it before its cache lookup
    for bad in (2.0, 9001.0, True, Fraction(4)):
        with pytest.raises(TypeError):
            bidx(Family.E, bad)
    with pytest.raises(ValueError, match="window must be an int, got 2.5"):
        make_algebra("witt").window_indices(2.5)
    assert type(bidx(Family.E, 9001).degree2) is int
    # bidx is BasisIndex, the one interning constructor: a plain-int family
    # (1 == Family.L) must not intern an L index that valid_index refuses
    for args in ((Family.E, 2.0), (Family.E, True), (1, 4)):
        with pytest.raises(TypeError):
            BasisIndex(*args)
    with pytest.raises(TypeError):
        bidx(1, 4)
    assert BasisIndex(Family.E, 2) is bidx(Family.E, 2)
    assert bidx(Family.L, 4).family is Family.L
    vir = make_algebra("virasoro")
    assert vir.bracket_basis((bidx(Family.L, 2), bidx(Family.L, 4))) == Element.single(bidx(Family.L, 6), -1)


def e(i):
    return bidx(Family.E, 2 * i)


def test_element_combine_frozen_example():
    # (1/2)*(3 e_1) + (1/2)*(e_1) = 2 e_1
    out = element_combine(
        [(Fraction(1, 2), Element.single(e(1), 3)), (Fraction(1, 2), Element.basis(e(1)))]
    )
    assert out == Element.single(e(1), 2)


def test_element_cancellation():
    a = Element.single(e(0), Fraction(2, 3))
    b = Element.single(e(0), Fraction(-2, 3))
    assert (a + b).is_zero()
    assert element_combine([(1, a), (1, b)]).is_zero()
    assert (a - a).is_zero()


def test_render_canonical_order():
    el = Element({bidx(Family.I, 0): Fraction(-1, 2), bidx(Family.L, 2): Fraction(1)})
    assert render(el) == "L_1 - 1/2*I_0"
    assert render(Element.zero()) == "0"
    assert render(Element.single(e(5), -1)) == "-e_5"
    assert render(Element.basis(e(0)) + Element.single(e(3), 2)) == "e_0 + 2*e_3"


def test_parse_examples():
    assert parse_element("e_0 + 2*e_3") == Element.basis(e(0)) + Element.single(e(3), 2)
    assert parse_element("1/2 * G+_1/2") == Element.single(bidx(Family.GPLUS, 1), Fraction(1, 2))
    assert parse_element("G_-3/2") == Element.basis(bidx(Family.GPLUS, -3))
    assert parse_element("L_-2 - I_0") == Element.basis(bidx(Family.L, -4)) - Element.basis(
        bidx(Family.I, 0)
    )
    assert parse_element("c") == Element.basis(bidx(Family.C, 0))
    assert parse_element("0").is_zero()
    assert parse_element("e_1 + e_1") == Element.single(e(1), 2)
    assert parse_element("e_1 - e_1").is_zero()


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_element("e_x")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_element("2e_1")  # missing '*'
    with pytest.raises(ParseError):
        parse_element("e_1 +")
    with pytest.raises(ParseError):
        parse_element("")
    with pytest.raises(ParseError):
        parse_element("e_1 e_2")
    with pytest.raises(ParseError):
        parse_element("L_1/2")  # half-integer outside the G families
    with pytest.raises(ParseError):
        parse_element("e_1/3")
    # digits are ASCII: str.isdigit takes these, and int() then raised a
    # bare ValueError on '²' or read '٣' as 3
    for text, position in (("²*e_1", 0), ("e_²", 2), ("e_1/²", 4), ("٣*e_1", 0)):
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert err.value.position == position
    for text, message, position in (
        ("e1", "expected '_' after family token", 1),
        ("1/0*e_1", "denominator must be positive", 2),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_element(text)
        assert err.value.position == position


scalars = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**3))
families = st.sampled_from([Family.E, Family.L, Family.I, Family.J])
indices = st.builds(lambda f, d: bidx(f, 2 * d), families, st.integers(-30, 30)) | st.builds(
    lambda f, d: bidx(f, d), st.sampled_from([Family.GPLUS, Family.GMINUS]), st.integers(-30, 30)
)
elements = st.dictionaries(indices, scalars, max_size=6).map(Element)


@settings(max_examples=200, deadline=None)
@given(elements)
def test_parse_render_round_trip(el):
    assert parse_element(render(el)) == el


def fraction_sum(pairs):
    """sum(c * el) over plain {index: Fraction} dicts, zeros dropped: the
    Fraction reference of core.combine."""
    acc: dict = {}
    for c, el in pairs:
        for k, v in el.terms.items():
            acc[k] = acc.get(k, Fraction(0)) + Fraction(c) * v
    return {k: v for k, v in acc.items() if v}


@settings(max_examples=100, deadline=None)
@given(scalars, scalars, elements, elements)
def test_combine_is_bilinear(a, b, x, y):
    left = element_combine([(a, x), (b, y)])
    right = x.scale(a) + y.scale(b)
    assert left == right
    assert left.terms == fraction_sum([(a, x), (b, y)])
    both = element_combine([(a + b, x)])
    assert both == x.scale(a) + x.scale(b)
    assert both.terms == fraction_sum([(a, x), (b, x)])


@settings(max_examples=100, deadline=None)
@given(elements, st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 12), elements), max_size=4))
def test_packed_entries_round_trip_and_combine(el, parts):
    # (den, o_1, n_1, ...) keeps the term order, and equal values pack
    # equally: den is the least common denominator, so gcd(den, n_i) = 1
    entry = pack(el)
    assert unpack(entry) == el and list(unpack(entry).terms) == list(el.terms)
    assert entry[1::2] == tuple(el.terms)
    if el:
        assert gcd(*entry[::2]) == 1
        assert all(Fraction(n, entry[0]) == el.terms[o] for o, n in zip(entry[1::2], entry[2::2]))
    else:
        assert entry == ()
    got = combine([(n, d, pack(e)) for n, d, e in parts])
    assert got.terms == fraction_sum([(Fraction(n, d), e) for n, d, e in parts])


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_element_addition_laws(x, y, z):
    assert (x + y) - y == x
    assert (x + y) + z == x + (y + z)
    assert x + (-x) == Element.zero()
