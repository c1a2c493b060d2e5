"""Elementary number theory: primality, factoring, primitive roots and
square roots mod a prime.

isprime is the Miller-Rabin test to the 13 prime bases up to 41, which
has no strong pseudoprime below MR_BOUND (Sorenson and Webster, Strong
pseudoprimes to twelve prime bases, Math. Comp. 2017); it refuses larger
input rather than guess.  factorint is trial division, then Pollard's rho.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from . import GalMcKayError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES
MR_BOUND = 3317044064679887385961981
_TRIAL_LIMIT = 1000


class NTheoryError(GalMcKayError):
    pass


def isprime(n: int) -> bool:
    """Whether n is prime, for n below MR_BOUND."""
    if n >= MR_BOUND:
        raise NTheoryError("primality of %d is beyond the Miller-Rabin "
                           "bound %d" % (n, MR_BOUND))
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Floyd's cycle finding)."""
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g


def factorint(n: int) -> dict:
    """{p: a} with n = prod p^a, keys ascending; n must be positive.
    Raises, as isprime does, on a cofactor above MR_BOUND."""
    if n < 1:
        raise NTheoryError("cannot factor %d" % n)
    out = {}
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _rho(m)
            stack += [g, m // g]
    return dict(sorted(out.items()))


def primitive_root(p: int) -> int:
    """The smallest primitive root mod the prime p."""
    if not isprime(p):
        raise NTheoryError("%d is not prime" % p)
    if p == 2:
        return 1
    cofactors = [(p - 1) // q for q in factorint(p - 1)]
    g = 1
    while any(pow(g, e, p) == 1 for e in cofactors):
        g += 1
    return g


def sqrt_mod(a: int, p: int):
    """The smallest r with r^2 = a mod the prime p, or None (Tonelli-Shanks)."""
    a %= p
    if a < 2 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return min(r, p - r)
