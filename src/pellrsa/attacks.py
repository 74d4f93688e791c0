"""Factoring N from the parameter-group totient analog, and the
impossible-operation probability.

Knowing psi(N) = prod p^(e-1) * (p + 1) is as good as knowing the
factorization (Williams' p + 1 method): a random point raised to the odd
part of psi, then squared, reaches order 2 and the identity at different
steps modulo different primes, so a gcd probe (or a failed decompression)
exposes a factor.  Each trial succeeds with constant probability.
"""

import math
from fractions import Fraction

from .arith import MAX_MODULUS_BITS, is_probable_prime, jacobi, primes_up_to
from .errors import ImpossibleOperation, RandomnessExhausted, TrialBudgetExhausted
from .pell import PellParams, param_to_point, point_pow


def find_factor(n, psi_n, d, rng):
    """One splitting trial given a multiple psi_n of the group exponents.

    d is the Pell coefficient of the curve.  Returns a nontrivial divisor
    of n, or 0 for a failed trial (caller retries).

    With psi_n = 2^h t, t odd, point_pow raises the point decompressed from
    a random parameter to t; x <- 2x^2 - 1 then squares it h times, probing
    gcd(x - 1, n) (identity) and gcd(x + 1, n) (order 2) modulo some prime
    before each step, until x = 1.  Only the ladder inverts, twice, and a
    failed inversion's factor is returned.  Raises ValueError for psi_n < 1.
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
        x = point_pow(param_to_point(a, pp), t, pp).x
    except ImpossibleOperation as err:
        return err.factor if 1 < err.factor < n else 0
    for _ in range(h):
        if x == 1:
            break
        for g in (math.gcd(x - 1, n), math.gcd(x + 1, n)):
            if 1 < g < n:
                return g
        x = (2 * x * x - 1) % n
    return 0


def _draw_non_residue(n, rng):
    """Unit with Jacobi symbol -1 mod n (exists for odd non-square n)."""
    for _ in range(10_000):
        d = rng.randrange(2, n)
        if jacobi(d, n) == -1:
            return d
    raise RandomnessExhausted(f"no Jacobi non-residue found mod {n:#x}")


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
    """A prime k with n = root**k, as (root, k); (n, 1) if none."""
    for k in primes_up_to(n.bit_length()):
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
    max_trials splitting trials were spent, and ValueError for an n above
    MAX_MODULUS_BITS before any primality test runs.
    """
    if n < 1 or n.bit_length() > MAX_MODULUS_BITS:
        raise ValueError(f"n must lie in [1, 2^{MAX_MODULUS_BITS})")
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
                raise TrialBudgetExhausted(f"no factor of {m:#x} within {max_trials} trials")
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

