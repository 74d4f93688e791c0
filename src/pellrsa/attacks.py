"""Factoring N from the parameter-group totient analog, and the
impossible-operation probability.

Knowing psi(N) = prod p^(e-1) * (p + 1) is as good as knowing the
factorization: strip the 2-part of psi, raise a random parameter to the odd
part, and square repeatedly; the chain collapses to an order-1 or order-2
element at different times modulo different primes, and a gcd probe (or an
impossible group operation along the way) exposes a factor.  Each trial
succeeds with constant probability, so a handful of trials factor N.
"""

import math
from fractions import Fraction

from .arith import is_probable_prime, jacobi
from .errors import ImpossibleOperation, RandomnessExhausted, TrialBudgetExhausted
from .pell import INFINITY, PellParams, param_mul, param_pow


def find_factor(n, psi_n, d, rng):
    """One splitting trial given a multiple psi_n of the group exponents.

    d is the ambient curve coefficient for the parameter product.  Returns
    a nontrivial divisor of n, or 0 for a failed trial (caller retries).

    The squaring chain probes gcd(b, n) -- the order-2 parameter is 0 --
    and gcd(b + 1, n); an impossible operation inside the chain already
    carries a factor and is harvested directly.  Raises ValueError for
    psi_n < 1: a zero psi_n never loses its 2-part.
    """
    if psi_n < 1:
        raise ValueError("psi_n must be >= 1")
    h, t = 0, psi_n
    while t % 2 == 0:
        h += 1
        t //= 2
    a = rng.randrange(1, n)
    g = math.gcd(a, n)
    if g != 1:
        return g
    pp = PellParams(n, d % n)
    try:
        b = param_pow(a, t, pp)
        for _ in range(h):
            if b is INFINITY:
                break
            for g in (math.gcd(b, n), math.gcd(b + 1, n)):
                if 1 < g < n:
                    return g
            b = param_mul(b, b, pp)
    except ImpossibleOperation as err:
        if 1 < err.factor < n:
            return err.factor
    return 0


def _draw_non_residue(n, rng):
    """Unit with Jacobi symbol -1 mod n (exists for odd non-square n)."""
    for _ in range(10_000):
        d = rng.randrange(2, n)
        if jacobi(d, n) == -1:
            return d
    raise RandomnessExhausted(f"no Jacobi non-residue found mod {n}")


def _iroot(n, k):
    """Integer k-th root (floor) by Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n):
    """Largest k with n = root**k, as (root, k); (n, 1) if none."""
    for k in range(n.bit_length(), 1, -1):
        root = _iroot(n, k)
        if root**k == n:
            return root, k
    return n, 1


def full_factorization(n, psi_n, rng, max_trials=200):
    """Complete prime-power factorization of n given psi(n).

    psi of any divisor divides psi(n), so the same psi_n drives the
    recursion on every cofactor.  Prime powers are peeled off by exact-root
    extraction; composite cofactors are split by find_factor with a fresh
    non-residue coefficient per trial.  Raises TrialBudgetExhausted once
    max_trials splitting trials were spent.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    found = {}
    work = []

    def push(value, multiplicity):
        while value % 2 == 0:
            found[2] = found.get(2, 0) + multiplicity
            value //= 2
        if value > 1:
            work.append((value, multiplicity))

    push(n, 1)
    trials = 0
    while work:
        m, mult = work.pop()
        if is_probable_prime(m):
            found[m] = found.get(m, 0) + mult
            continue
        root, k = _perfect_power(m)
        if k > 1:
            push(root, mult * k)
            continue
        divisor = 0
        while not divisor:
            trials += 1
            if trials > max_trials:
                raise TrialBudgetExhausted(f"no factor of {m} within {max_trials} trials")
            divisor = find_factor(m, psi_n, _draw_non_residue(m, rng), rng)
        push(divisor, mult)
        push(m // divisor, mult)
    return sorted(found.items())


def impossible_op_probability(primes):
    """Closed-form chance that a parameter product denominator is not a unit:
    1 - (1 - 1/p1) * ... * (1 - 1/pr).  Negligible for large prime factors.
    """
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    unit_share = Fraction(1)
    for p in primes:
        unit_share *= Fraction(p - 1, p)
    return float(1 - unit_share)

