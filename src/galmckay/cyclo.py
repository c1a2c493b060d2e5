"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored as its order n, the least n with the element in
Q(zeta_n), and its terms: pairs (e, c), e ascending, for the sum of
c * zeta_n^e.  The exponents run over a canonical basis, the tensor product
of the power bases of the prime-power subfields (Breuer, "Integral bases for
subfields of cyclotomic fields", AAECC 8, 1997).  For a prime power q = p^a
dividing n, the q-part of zeta_n^e is zeta_q^x with x = e * (n/q)^-1 mod q,
and e is a basis exponent when x < phi(q) for every q.  A forbidden q-part
is rewritten with

    zeta_q^{(p-1)p^(a-1)} = -(1 + zeta_q^{p^(a-1)} + ... + zeta_q^{(p-2)p^(a-1)}),

and n drops to n/p while p divides every exponent, so two values are equal
iff their orders and terms coincide.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import GalMcKayError
from .ntheory import factorint


class CycloError(GalMcKayError):
    pass


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> tuple:
    """((p, q, n/q, (n/q)^-1 mod q, phi(q)), ...) over the prime powers
    q = p^a of n, p ascending."""
    out = []
    for p, a in factorint(n).items():
        q = p ** a
        out.append((p, q, n // q, pow(n // q, -1, q), q - q // p))
    return tuple(out)


class Cyclotomic:
    """Immutable exact element of some Q(zeta_n), kept in canonical form."""

    __slots__ = ("order", "_terms", "_hash")

    def __init__(self, order: int, terms: tuple):
        # (order, terms) must be canonical already; from_terms builds them
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return self.order == 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise CycloError("not a rational value: %r" % (self,))
        return Fraction(self._terms[0][1]) if self._terms else Fraction(0)

    def integer_value(self) -> int:
        v = self.rational_value()
        if v.denominator != 1:
            raise CycloError("not an integer: %r" % (self,))
        return v.numerator

    # -- construction helpers --------------------------------------------

    @staticmethod
    def from_rational(v) -> "Cyclotomic":
        v = Fraction(v)
        return Cyclotomic(1, ((0, v),) if v else ())

    @staticmethod
    def from_terms(n: int, terms) -> "Cyclotomic":
        """Canonical form of sum c * zeta_n^e over the pairs (e, c) in terms.

        Exponents are taken mod n; coefficients may be int or Fraction.
        """
        if n < 1:
            raise CycloError("order must be positive")
        acc: dict = {}
        for e, c in terms:
            if c:
                e %= n
                acc[e] = acc.get(e, 0) + c
        return _normalize(n, acc)

    # -- arithmetic -------------------------------------------------------

    def _over(self, n: int) -> list:
        """Terms over zeta_n, for a multiple n of the order."""
        s = n // self.order
        return [(e * s, c) for e, c in self._terms]

    def _scale(self, v) -> "Cyclotomic":
        """self * v for a nonzero rational v; the basis is unchanged."""
        return Cyclotomic(self.order, tuple((e, c * v) for e, c in self._terms))

    def __add__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        n = lcm(self.order, other.order)
        return Cyclotomic.from_terms(n, self._over(n) + other._over(n))

    __radd__ = __add__

    def __neg__(self):
        return self._scale(-1)

    def __sub__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_cyclo(other) + (-self)

    def __mul__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        if self.is_rational():
            return other._scale(self._terms[0][1])
        if other.is_rational():
            return self._scale(other._terms[0][1])
        n = lcm(self.order, other.order)
        b = other._over(n)
        return Cyclotomic.from_terms(
            n, [(x + y, c * d) for x, c in self._over(n) for y, d in b])

    __rmul__ = __mul__

    # -- Galois action ----------------------------------------------------

    def galois(self, b: int) -> "Cyclotomic":
        """Image under sigma_b: zeta_n -> zeta_n^b; needs gcd(b, n) = 1."""
        n = self.order
        if gcd(b, n) != 1:
            raise CycloError("galois exponent %d not coprime to order %d"
                             % (b % n, n))
        if n == 1:
            return self
        return Cyclotomic.from_terms(n, [(b * e, c) for e, c in self._terms])

    # -- comparisons / export ---------------------------------------------

    def __eq__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self._terms == other._terms

    def __bool__(self):
        return bool(self._terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.order > 1:
                h = hash((self.order, self._terms))
            else:
                # equal to int and Fraction values, so hash like them
                h = hash(self.rational_value())
            object.__setattr__(self, "_hash", h)
        return h

    def terms(self) -> tuple:
        """((exponent e, coefficient), ...) with zeta_n^e, e ascending."""
        return self._terms

    def __repr__(self):
        if self.is_zero():
            return "Cyc(0)"
        n = self.order
        parts = []
        for e, c in self._terms:
            if e == 0:
                parts.append(str(c))
            else:
                parts.append("%s*z%d^%d" % (c, n, e))
        return "Cyc(" + " + ".join(parts) + ")"

    def serialize(self) -> dict:
        return {"order": self.order,
                "terms": [[e, c.numerator, c.denominator]
                          for e, c in self._terms]}


def _normalize(n: int, acc: dict) -> Cyclotomic:
    """Canonical form of the sum of c * zeta_n^e over acc {e: c}, 0 <= e < n."""
    acc = {e: c for e, c in acc.items() if c}
    # rewrite forbidden q-parts one prime power q at a time: moving the
    # q-part of zeta_n^e by d moves e by d * n/q and leaves the other parts
    for p, q, m, u, phi in _prime_powers(n):
        if all(e * u % q < phi for e in acc):
            continue
        step = q // p
        out: dict = {}
        for e, c in acc.items():
            x = e * u % q
            if x < phi:
                out[e] = out.get(e, 0) + c
                continue
            # zeta_q^x = -sum_t zeta_q^t over t = x - phi, x - phi + step, ...
            for t in range(x - phi, phi, step):
                f = (e + (t - x) * m) % n
                out[f] = out.get(f, 0) - c
        acc = {e: c for e, c in out.items() if c}
    if not acc:
        return ZERO
    # the order drops to n/p exactly when p divides every exponent
    for p, *_ in _prime_powers(n):
        while n % p == 0 and all(e % p == 0 for e in acc):
            n //= p
            acc = {e // p: c for e, c in acc.items()}
    return Cyclotomic(n, tuple(sorted(acc.items())))


def _as_cyclo(v):
    if isinstance(v, Cyclotomic):
        return v
    if isinstance(v, (int, Fraction)):
        return Cyclotomic.from_rational(v)
    return NotImplemented


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)


# -- module-level API ------------------------------------------------------

def rational(v) -> Cyclotomic:
    return Cyclotomic.from_rational(v)


__all__ = ["Cyclotomic", "CycloError", "ZERO", "ONE", "rational"]
