"""The ``Fraction`` subclass behind ``rational.py`` agrees with ``Fraction``.

Every fast-path operation must give exactly ``Fraction``'s value, reduced,
with equal ``hash`` and ``str``, raise where ``Fraction`` raises, and stay a
``Rational`` so the engine never silently drops back to the slow path.
Operand types without a fast path must behave exactly as with ``Fraction``.
"""

import math
import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcake.rational import Rational, _build, as_pair, from_pair, pair_sum, rational

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]

# Small denominators make shared factors common, so every gcd reduction is
# exercised; huge ones go past machine words.
integers = st.one_of(
    st.integers(-12, 12),
    st.integers(-(10**30), 10**30),
)
denominators = st.one_of(st.integers(1, 12), st.integers(1, 10**30))
fractions = st.builds(Fraction, integers, denominators)

# (left kind, right kind): every pairing with at least one Rational.
KINDS = [
    (Rational, Rational),
    (Rational, Fraction),
    (Fraction, Rational),
    (Rational, int),
    (int, Rational),
]


def _make(kind, value: Fraction):
    if kind is int:
        return value.numerator
    return kind(value.numerator, value.denominator)


def _plain(value):
    """The same value as a stdlib ``Fraction`` (ints stay ints)."""
    return value if type(value) is int else Fraction(value.numerator, value.denominator)


def _assert_same(got, want):
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0
    assert hash(got) == hash(want)
    assert str(got) == str(want)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KINDS), fractions, fractions, st.sampled_from(ARITHMETIC))
@example((Rational, Rational), Fraction(1, 6), Fraction(1, 6), operator.add)
@example((Rational, Rational), Fraction(1, 6), Fraction(-1, 6), operator.add)
@example((Rational, Rational), Fraction(4, 9), Fraction(3, 8), operator.mul)
@example((Rational, Rational), Fraction(4, 9), Fraction(2, 3), operator.truediv)
@example((int, Rational), Fraction(-3), Fraction(-2, 5), operator.truediv)
def test_arithmetic_matches_fraction(kinds, x, y, op):
    a, b = _make(kinds[0], x), _make(kinds[1], y)
    if op is operator.truediv and y == 0:
        with pytest.raises(ZeroDivisionError):
            op(_plain(a), _plain(b))
        with pytest.raises(ZeroDivisionError):
            op(a, b)
        return
    got = op(a, b)
    assert type(got) is Rational
    _assert_same(got, op(_plain(a), _plain(b)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KINDS), fractions, fractions, st.sampled_from(COMPARISONS))
@example((Rational, Rational), Fraction(1, 3), Fraction(1, 2), operator.lt)
@example((Rational, Fraction), Fraction(2, 3), Fraction(3, 5), operator.gt)
@example((Rational, int), Fraction(5, 2), Fraction(2), operator.le)
def test_comparisons_match_fraction(kinds, x, y, op):
    a, b = _make(kinds[0], x), _make(kinds[1], y)
    assert op(a, b) is op(_plain(a), _plain(b))
    assert op(a, a) is op(_plain(a), _plain(a))


@settings(max_examples=200, deadline=None)
@given(fractions)
def test_unary_hash_and_str_match_fraction(x):
    a = _make(Rational, x)
    negated = -a
    assert type(negated) is Rational
    _assert_same(negated, -x)
    assert bool(a) is bool(x)
    assert hash(a) == hash(x)
    assert str(a) == str(x)
    assert {a: 1}[x] == 1
    if x.denominator == 1:
        assert hash(a) == hash(x.numerator) and a == x.numerator


@settings(max_examples=200, deadline=None)
@given(
    fractions,
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.decimals(allow_nan=False, places=3),
    ),
)
@example(Fraction(1, 3), 0.0)
@example(Fraction(0), float("nan"))
@example(Fraction(1, 3), Decimal("0.5"))
def test_other_operand_types_behave_as_with_fraction(x, other):
    """Floats, bools and Decimals take Fraction's own methods, on either side."""
    a = _make(Rational, x)

    def outcome(op, left, right):
        try:
            result = op(left, right)
        except (ZeroDivisionError, OverflowError, ValueError, TypeError) as exc:
            return type(exc)
        if isinstance(result, float) and math.isnan(result):
            return "nan"
        if isinstance(result, Fraction):
            return Fraction, result  # a fallback result is a Fraction either way
        return type(result), result

    for op in ARITHMETIC + COMPARISONS:
        assert outcome(op, a, other) == outcome(op, x, other)
        assert outcome(op, other, a) == outcome(op, other, x)


@settings(max_examples=100, deadline=None)
@given(fractions, st.integers(-3, 3))
def test_operations_without_fast_path_match_fraction(x, k):
    a = _make(Rational, x)
    assert abs(a) == abs(x)
    assert +a == x
    if x:
        assert a**k == x**k
    if k:
        assert a // k == x // k and a % k == x % k
    assert round(a) == round(x) and math.floor(a) == math.floor(x) and int(a) == int(x)


def test_rational_returns_existing_rational_unchanged():
    value = rational(3, 4)
    assert type(value) is Rational
    assert rational(value) is value
    assert type(rational(Fraction(3, 4))) is Rational
    assert rational(Fraction(3, 4)) == value


@settings(max_examples=400, deadline=None)
@given(integers, st.one_of(integers, st.just(0)))
@example(0, 5)
@example(0, -5)
@example(3, -6)
@example(-3, -6)
@example(7, 0)
@example(0, 0)
@example(10**30, -(3 * 10**29))
def test_rational_of_two_ints_matches_fraction(p, q):
    if q == 0:
        with pytest.raises(ZeroDivisionError):
            Fraction(p, q)
        with pytest.raises(ZeroDivisionError):
            rational(p, q)
        return
    got = rational(p, q)
    assert type(got) is Rational
    _assert_same(got, Fraction(p, q))


@pytest.mark.parametrize(
    "p, q",
    [
        ("3/4", 2),
        (3, "4"),
        (Fraction(3, 4), 2),
        (6, Fraction(-4, 3)),
        (True, 2),
        (3, True),
        (Fraction(1, 3), Fraction(0)),
        (False, False),
    ],
)
def test_rational_of_other_arguments_behaves_as_the_type(p, q):
    def outcome(build):
        try:
            value = build(p, q)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)
        return type(value), value.numerator, value.denominator

    assert outcome(rational) == outcome(Rational)


@given(fractions, st.sampled_from([Rational, Fraction, int]), integers)
def test_pairs_round_trip_every_accepted_type(value, kind, scale):
    """``as_pair`` reads the lowest-terms pair of an int, ``Fraction`` or
    ``Rational``; ``from_pair`` reduces any int pair once, to the same value."""
    if kind is int:
        value = Fraction(value.numerator)
    pair = as_pair(_make(kind, value))
    assert pair == (value.numerator, value.denominator)
    assert all(type(x) is int for x in pair)
    if scale:
        got = from_pair(value.numerator * scale, value.denominator * scale)
        assert type(got) is Rational
        _assert_same(got, value)


def test_fraction_internals_that_rational_writes():
    """``rational._build`` makes values without ``Fraction``'s constructor,
    by writing its private slots; a CPython whose ``fractions`` module
    changes them fails here with one message."""
    message = (
        "rational._build writes Fraction's _numerator and _denominator slots, "
        "and this Python's fractions.Fraction no longer keeps its value there"
    )
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__), message
    assert Rational.__slots__ == (), message
    for numerator, denominator in ((6, 7), (-3, 1), (0, 1), (10**30 + 1, 3)):
        built, plain = _build(numerator, denominator), Fraction(numerator, denominator)
        assert (built.numerator, built.denominator) == (numerator, denominator), message
        assert built == plain and hash(built) == hash(plain) and str(built) == str(plain), message


def test_negation_stays_rational():
    # The fuzzed unary test above reaches __neg__ only through its random draws.
    negated = -rational(-3, 4)
    assert type(negated) is Rational and negated == Fraction(3, 4)


def test_pairs_of_other_rational_types():
    """A ``bool`` or another ``numbers.Rational``, here a ``Fraction``
    subclass, takes the generic path and gives the same plain-int pair."""

    class Ratio(Fraction):
        pass

    assert as_pair(True) == (1, 1) and as_pair(False) == (0, 1)
    pair = as_pair(Ratio(6, -4))
    assert pair == (-3, 2) and all(type(x) is int for x in pair)


@given(integers, denominators, integers, denominators)
@example(1, 6, 1, 6)    # equal denominators: no gcd
@example(1, 6, 1, 4)    # a common factor
@example(1, 3, -1, 5)   # coprime
def test_pair_sum_adds_unreduced_pairs(n1, d1, n2, d2):
    n, d = pair_sum(n1, d1, n2, d2)
    assert d > 0 and Fraction(n, d) == Fraction(n1, d1) + Fraction(n2, d2)
