"""Reference implementations and closed forms that tests check against."""

import math
from fractions import Fraction
from typing import NamedTuple

from pellrsa.arith import _lucas_test, _strong_test, is_probable_prime


class HyperbolaPoint(NamedTuple):
    """A point (x, y) of the group-law oracles; the library passes bare pairs."""

    x: int
    y: int


def on_curve(x, y, d, n):
    """Whether (x, y) lies on x^2 - d y^2 = 1 mod n."""
    return (x * x - d * y * y) % n == 1 % n


def crt(residues, moduli):
    """x mod prod(moduli) with x = residues[i] mod moduli[i], by the textbook
    sum of r_i M_i (M_i^-1 mod m_i) with M_i = prod(moduli) / m_i; the
    library's crt_combine takes coordinate tuples under Garner's coefficients.
    """
    m = math.prod(moduli)
    return sum(r * (m // m_i) * pow(m // m_i, -1, m_i) for r, m_i in zip(residues, moduli)) % m


def miller_rabin(n, rng, rounds=40):
    """Miller-Rabin to `rounds` bases drawn from rng.

    A composite passes with probability below 4^-rounds.  This was the
    library's test above 2^64 before Baillie-PSW.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def trial_division_prime(n):
    """Baillie-PSW after an early-exit loop over the primes below 1000; the
    library trial-divides by gcds with products up to 2^13 in its place."""
    if n < 2:
        return False
    for p in PRIMES_BELOW_1000:
        if n % p == 0:
            return n == p
    return _strong_test(n, 2) and _lucas_test(n)


def impossible_op_probability(primes):
    """Closed-form chance that a parameter product denominator is not a unit:
    1 - (1 - 1/p1) * ... * (1 - 1/pr).  Negligible for large prime factors.
    Entries that are no int primes, or repeat, raise ValueError.
    """
    primes = list(primes)
    if not all(type(p) is int and is_probable_prime(p) for p in primes) or len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct int primes")
    unit_share = Fraction(1)
    for p in primes:
        unit_share *= Fraction(p - 1, p)
    return float(1 - unit_share)
