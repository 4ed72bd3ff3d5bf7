"""Exact rational arithmetic.

``Rational`` is a subclass of the standard library's ``fractions.Fraction``
with exact-type fast paths: when the other operand is exactly a
``Rational``, a ``Fraction`` or an ``int``, ``+ - * /``, their reflected
forms, unary ``-``, ``== < <= > >=`` and ``bool`` work on the numerator and
denominator directly, reduce with the same gcd steps as ``Fraction`` and
build the result without a second normalization.  Every other operand type,
and every operation not listed, falls back to ``Fraction`` itself.  The
values are ``Fraction``'s own, so callers may pass Fraction values anywhere.

``as_pair``, ``pair_sum``, ``reduced_pair`` and ``from_pair`` let a kernel
run on integer ``(numerator, denominator)`` pairs: it reads its operands'
pairs, adds and multiplies plain ints without reducing, and reduces once at
the end, to a pair or to a value, so a sum of k terms is reduced once
instead of k times (Knuth, TAOCP vol. 2, 4.5.1).  A kernel whose pairs stay
in lowest terms by construction builds its values with
``from_reduced_pair``, with no gcd at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_object_new = object.__new__


class Rational(Fraction):
    """``Fraction`` with fast paths for exact ``Rational``/``Fraction``/``int`` operands.

    Results of the fast paths are ``Rational``; since ``Rational`` is a
    subclass, Python tries its reflected methods first, so a mixed
    ``Fraction op Rational`` takes the fast path too.
    """

    __slots__ = ()

    def __add__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _add(a._numerator, a._denominator, b, 1)
        return Fraction.__add__(a, b)

    def __radd__(b, a):
        t = type(a)
        if t is Rational or t is Fraction:
            return _add(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _add(a, 1, b._numerator, b._denominator)
        return Fraction.__radd__(b, a)

    def __sub__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            return _add(a._numerator, a._denominator, -b, 1)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        t = type(a)
        if t is Rational or t is Fraction:
            return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            return _add(a, 1, -b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _mul(a._numerator, a._denominator, b, 1)
        return Fraction.__mul__(a, b)

    def __rmul__(b, a):
        t = type(a)
        if t is Rational or t is Fraction:
            return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return _mul(a, 1, b._numerator, b._denominator)
        return Fraction.__rmul__(b, a)

    def __truediv__(a, b):
        # A zero divisor goes to Fraction, which raises its own error.
        t = type(b)
        if (t is Rational or t is Fraction) and b._numerator:
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int and b:
            return _div(a._numerator, a._denominator, b, 1)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        t = type(a)
        if b._numerator:
            if t is Rational or t is Fraction:
                return _div(a._numerator, a._denominator, b._numerator, b._denominator)
            if t is int:
                return _div(a, 1, b._numerator, b._denominator)
        return Fraction.__rtruediv__(b, a)

    def __neg__(a):
        return _build(-a._numerator, a._denominator)

    def __bool__(a):
        return a._numerator != 0

    def __eq__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    # Defining __eq__ unsets the inherited hash; equal values must keep
    # hashing alike across Rational, Fraction and int.
    __hash__ = Fraction.__hash__

    def __lt__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if t is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if t is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if t is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        t = type(b)
        if t is Rational or t is Fraction:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if t is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)


def _build(numerator, denominator):
    """A ``Rational`` from a reduced pair with a positive denominator."""
    result = _object_new(Rational)
    result._numerator = numerator
    result._denominator = denominator
    return result


# The public name of ``_build``: for a kernel whose own arithmetic keeps its
# pairs in lowest terms, so that no gcd is needed.  Unchecked.
from_reduced_pair = _build


# The reductions below are Fraction's own (Knuth, TAOCP vol. 2, 4.5.1),
# applied to reduced inputs, so every result is reduced.

def _add(na, da, nb, db):
    g = gcd(da, db)
    if g == 1:
        return _build(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _build(t, s * db)
    return _build(t // g2, s * (db // g2))


def _mul(na, da, nb, db):
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _build(na * nb, db * da)


def _div(na, da, nb, db):
    """``na/da`` divided by ``nb/db``; ``nb`` must be nonzero."""
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    return _build(n, d)


def as_pair(value):
    """``(numerator, denominator)`` of an int, ``Fraction``, ``Rational`` or
    any other ``numbers.Rational`` in lowest terms, the denominator positive."""
    t = type(value)
    if t is Rational or t is Fraction:
        return value._numerator, value._denominator
    if t is int:
        return value, 1
    return value.numerator, value.denominator


def from_pair(numerator, denominator):
    """``numerator / denominator`` of two ints: one gcd, the sign on top."""
    if not denominator:
        raise ZeroDivisionError(f"Fraction({numerator}, 0)")
    g = gcd(numerator, denominator)
    if denominator < 0:
        g = -g
    return _build(numerator // g, denominator // g)


def reduced_pair(numerator, denominator):
    """``(numerator, denominator)`` in lowest terms, by one gcd; the
    denominator must be positive."""
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def pair_sum(n1, d1, n2, d2):
    """``n1/d1 + n2/d2`` as an unreduced pair over the lcm of the positive
    denominators: a gcd only where they differ."""
    if d1 == d2:
        return n1 + n2, d1
    g = gcd(d1, d2)
    if g == 1:
        return n1 * d2 + n2 * d1, d1 * d2
    d2 //= g
    return n1 * d2 + n2 * (d1 // g), d1 * d2


def rational(numerator, denominator=None):
    """Exact rational from ints, strings like ``"p/q"``, or other rationals.

    ``rational(p, q)`` with two ints reduces the pair once, with one gcd, and
    builds the result directly; ``q == 0`` raises ``ZeroDivisionError``.  Any
    other pair of arguments goes through the rational type itself.
    """
    if denominator is None:
        if type(numerator) is Rational:
            return numerator  # immutable, so no copy is needed
        return Rational(numerator)
    if type(numerator) is int and type(denominator) is int:
        return from_pair(numerator, denominator)
    return Rational(numerator, denominator)


ZERO = rational(0)
ONE = rational(1)
