"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored in a canonical basis built as the tensor product of
power bases of the prime-power subfields: for n = prod p^a, a basis
monomial is a product of zeta_{p^a}^c with 0 <= c < phi(p^a).  Forbidden
exponents are rewritten with the relation

    zeta^{(p-1)p^(a-1)} = -(1 + zeta^{p^(a-1)} + ... + zeta^{(p-2)p^(a-1)}),

and the order is always reduced to the minimal n' | n containing the
element, so two values are equal iff their representations coincide.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import GalMcKayError
from .ntheory import factorint


class CycloError(GalMcKayError):
    pass


class CycloDivisionError(CycloError):
    """Division by the zero cyclotomic."""


@lru_cache(maxsize=None)
def _factor_prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """Return ((p, a), ...) with p ascending and n = prod p^a."""
    return tuple(factorint(n).items())


def _phi_pp(p: int, a: int) -> int:
    return p ** a - p ** (a - 1)


class Cyclotomic:
    """Immutable exact element of some Q(zeta_n), kept in canonical form."""

    __slots__ = ("pps", "coeffs", "_hash", "_terms")

    def __init__(self, pps, coeffs, _normalized=False):
        # pps: tuple of (p, a); coeffs: dict key-tuple -> int or Fraction
        if not _normalized:
            pps, coeffs = _normalize(pps, coeffs)
        object.__setattr__(self, "pps", pps)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def order(self) -> int:
        n = 1
        for p, a in self.pps:
            n *= p ** a
        return n

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return not self.pps

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise CycloError("not a rational value: %r" % (self,))
        return Fraction(self.coeffs.get((), 0))

    def integer_value(self) -> int:
        v = self.rational_value()
        if v.denominator != 1:
            raise CycloError("not an integer: %r" % (self,))
        return v.numerator

    def is_real(self) -> bool:
        return self.conj() == self

    # -- construction helpers --------------------------------------------

    @staticmethod
    def from_rational(v) -> "Cyclotomic":
        v = Fraction(v)
        if v == 0:
            return Cyclotomic((), {}, _normalized=True)
        return Cyclotomic((), {(): v}, _normalized=True)

    @staticmethod
    def root(n: int, e: int = 1) -> "Cyclotomic":
        """Canonical form of zeta_n^e."""
        return Cyclotomic.from_terms(n, ((e, 1),))

    @staticmethod
    def from_terms(n: int, terms) -> "Cyclotomic":
        """Canonical form of sum c * zeta_n^e over the pairs (e, c) in terms.

        Exponents are taken mod n; coefficients may be int or Fraction.
        """
        if n < 1:
            raise CycloError("order must be positive")
        pps = _factor_prime_powers(n)
        crt = _crt_units(n)
        coeffs: dict = {}
        for e, c in terms:
            if c:
                key = tuple(e * u % q for q, u in crt)
                coeffs[key] = coeffs.get(key, 0) + c
        return Cyclotomic(pps, coeffs)

    # -- arithmetic -------------------------------------------------------

    def _embed(self, pps: tuple[tuple[int, int], ...]) -> dict:
        """Coefficients re-keyed for the (finer) prime-power list `pps`."""
        if pps == self.pps:
            return dict(self.coeffs)
        mine = dict(self.pps)
        out = {}
        for key, c in self.coeffs.items():
            nk = []
            for (p, a) in pps:
                if p in mine:
                    old_a = mine[p]
                    c_old = key[[q for q, _ in self.pps].index(p)]
                    nk.append(c_old * p ** (a - old_a))
                else:
                    nk.append(0)
            out[tuple(nk)] = c
        return out

    def _common(self, other: "Cyclotomic"):
        ps = {}
        for p, a in self.pps:
            ps[p] = max(ps.get(p, 0), a)
        for p, a in other.pps:
            ps[p] = max(ps.get(p, 0), a)
        pps = tuple(sorted(ps.items()))
        return pps, self._embed(pps), other._embed(pps)

    def __add__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        pps, a, b = self._common(other)
        for key, c in b.items():
            c2 = a.get(key, 0) + c
            if c2:
                a[key] = c2
            else:
                a.pop(key, None)
        return Cyclotomic(pps, a)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.pps, {k: -c for k, c in self.coeffs.items()},
                          _normalized=True)

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
            v = self.coeffs[()]
            return Cyclotomic(other.pps,
                              {k: c * v for k, c in other.coeffs.items()},
                              _normalized=True)
        if other.is_rational():
            return other * self
        pps, a, b = self._common(other)
        qs = [p ** e for p, e in pps]
        acc: dict = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple((x + y) % q for x, y, q in zip(ka, kb, qs))
                c = acc.get(key)
                acc[key] = ca * cb if c is None else c + ca * cb
        return Cyclotomic(pps, acc)

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        if self.is_zero():
            raise CycloDivisionError("division by zero cyclotomic")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.rational_value())
        n = self.order
        prod = ONE
        for b in range(2, n):
            if gcd(b, n) == 1:
                prod = prod * self.galois(b)
        norm = (self * prod).rational_value()
        return prod * Cyclotomic.from_rational(Fraction(1) / norm)

    def __truediv__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_cyclo(other) * self.inv()

    # -- Galois action ----------------------------------------------------

    def galois(self, b: int) -> "Cyclotomic":
        """Image under sigma_b: zeta_n -> zeta_n^b; needs gcd(b, n) = 1."""
        n = self.order
        b %= n if n > 1 else 1
        if n > 1 and gcd(b, n) != 1:
            raise CycloError("galois exponent %d not coprime to order %d" % (b, n))
        if self.is_rational():
            return self
        out = {}
        for key, c in self.coeffs.items():
            nk = tuple((b * x) % (p ** a) for x, (p, a) in zip(key, self.pps))
            out[nk] = out.get(nk, 0) + c
        return Cyclotomic(self.pps, out)

    def conj(self) -> "Cyclotomic":
        n = self.order
        return self.galois(n - 1 if n > 1 else 0)

    # -- comparisons / export ---------------------------------------------

    def __eq__(self, other):
        other = _as_cyclo(other)
        if other is NotImplemented:
            return NotImplemented
        return self.pps == other.pps and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        h = self._hash
        if h is None:
            if self.pps:
                h = hash((self.pps, tuple(sorted(self.coeffs.items()))))
            else:
                # equal to int and Fraction values, so hash like them
                h = hash(self.rational_value())
            object.__setattr__(self, "_hash", h)
        return h

    def terms(self) -> tuple:
        """((exponent e, coefficient), ...) with zeta_n^e, e ascending."""
        out = self._terms
        if out is None:
            n = self.order
            cofactors = [n // p ** a for p, a in self.pps]
            out = tuple(sorted(
                (sum(x * m for x, m in zip(key, cofactors)) % n, c)
                for key, c in self.coeffs.items()))
            object.__setattr__(self, "_terms", out)
        return out

    def approx(self) -> complex:
        n = self.order
        return sum(float(c) * cmath.exp(2j * cmath.pi * e / n)
                   for e, c in self.terms()) if self.coeffs else 0j

    def __repr__(self):
        if self.is_zero():
            return "Cyc(0)"
        n = self.order
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(str(c))
            else:
                parts.append("%s*z%d^%d" % (c, n, e))
        return "Cyc(" + " + ".join(parts) + ")"

    def serialize(self) -> dict:
        return {"order": self.order,
                "terms": [[e, c.numerator, c.denominator] for e, c in self.terms()]}

    @staticmethod
    def deserialize(doc: dict) -> "Cyclotomic":
        return Cyclotomic.from_terms(
            doc["order"],
            [(e, Fraction(num, den)) for e, num, den in doc["terms"]])


@lru_cache(maxsize=None)
def _crt_units(n: int) -> tuple:
    """((q, u), ...) over the prime powers q of n, with u = (n/q)^-1 mod q.

    zeta_n^e is the product of zeta_q^(e*u mod q), so e*u mod q is the
    key entry of zeta_n^e for q.
    """
    return tuple((p ** a, pow(n // p ** a, -1, p ** a))
                 for p, a in _factor_prime_powers(n))


def _normalize(pps, coeffs):
    """Basis-reduce all keys, drop zeros, shrink to the minimal order."""
    pps = tuple(pps)
    # 1. rewrite forbidden exponents into the power basis, one prime power
    # at a time: rewriting entry i leaves every other entry as it is
    reduced = {k: c for k, c in coeffs.items() if c}
    for i, (p, a) in enumerate(pps):
        phi = _phi_pp(p, a)
        if all(k[i] < phi for k in reduced):
            continue
        step = p ** (a - 1)
        out: dict = {}
        for key, c in reduced.items():
            x = key[i]
            if x < phi:
                out[key] = out.get(key, 0) + c
                continue
            # zeta^{v + (p-1)step} = -sum_t zeta^{v + t*step}, v = x - phi
            head, tail = key[:i], key[i + 1:]
            for t in range(x - phi, phi, step):
                nk = head + (t,) + tail
                out[nk] = out.get(nk, 0) - c
        reduced = {k: c for k, c in out.items() if c}

    # 2. shrink each prime-power part as far as possible
    pps = list(pps)
    changed = True
    while changed and reduced:
        changed = False
        for i in range(len(pps)):
            p, a = pps[i]
            if a >= 2:
                if all(k[i] % p == 0 for k in reduced):
                    pps[i] = (p, a - 1)
                    nxt = {}
                    for k, c in reduced.items():
                        nk = list(k)
                        nk[i] = k[i] // p
                        nxt[tuple(nk)] = c
                    reduced = nxt
                    changed = True
            else:
                if all(k[i] == 0 for k in reduced):
                    del pps[i]
                    reduced = {k[:i] + k[i + 1:]: c for k, c in reduced.items()}
                    changed = True
            if changed:
                break
    if not reduced:
        return (), {}
    # drop exhausted prime entries when coeffs became empty handled above
    return tuple(pps), reduced


def _as_cyclo(v):
    if isinstance(v, Cyclotomic):
        return v
    if isinstance(v, (int, Fraction)):
        return Cyclotomic.from_rational(v)
    return NotImplemented


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)


# -- module-level API ------------------------------------------------------

def make_root(n: int, e: int = 1) -> Cyclotomic:
    return Cyclotomic.root(n, e)


def rational(v) -> Cyclotomic:
    return Cyclotomic.from_rational(v)


__all__ = [
    "Cyclotomic", "CycloError", "CycloDivisionError", "ZERO", "ONE",
    "make_root", "rational",
]
