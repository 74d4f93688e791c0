"""Factoring N from the parameter-group totient analog.

Knowing psi(N) = prod p^(e-1) * (p + 1) is as good as knowing the
factorization (Williams' p + 1 method): a random point raised to the odd
part of psi, then squared, reaches order 2 and the identity at different
steps modulo different primes, so a gcd probe exposes a factor.  Only x
takes part: the point is (x, 1) on the curve with D = x^2 - 1, raised by the
x-only decryption ladder.  Each trial succeeds with constant probability.
Two primes need no trial: p + q = psi(pq) - pq - 1, as phi gives for RSA,
so a cofactor of multiplicity 1 splits in closed form once psi over the psi
of the primes found so far is its own; a two-prime n under exact psi costs
no trial.
A cofactor m is tested for primality first when m < 2^64 or m + 1 | psi,
as for every prime factor; otherwise it is composite unless psi is bogus,
and is tested after its first failed trial or before the budget runs out.
"""

import math
from collections import Counter

from .arith import MAX_MODULUS_BITS, is_probable_prime, jacobi, primes_up_to
from .errors import RandomnessExhausted, TrialBudgetExhausted
from .pell import PellParams, point_pow


def find_factor(n, psi_n, x):
    """One splitting trial from the point (x, 1), given a multiple psi_n of
    the group exponents of any width (full_factorization bounds it to
    2|n| bits): a nontrivial divisor of n, or 0 (retry another x).

    With psi_n = 2^h t, t odd, point_pow raises x to t; x <- 2x^2 - 1 then
    squares it h times, probing gcd(x - 1, n) (identity) and gcd(x + 1, n)
    (order 2) modulo some prime before each step, until x = 1.  Nothing
    divides.  Raises ValueError for psi_n < 1 or x^2 - 1 no unit mod n.
    """
    if psi_n < 1:
        raise ValueError("psi_n must be >= 1")
    h = (psi_n & -psi_n).bit_length() - 1
    t = psi_n >> h
    x = point_pow(x, t, PellParams(n, (x * x - 1) % n))
    for _ in range(h):
        if x == 1:
            break
        for g in (math.gcd(x - 1, n), math.gcd(x + 1, n)):
            if 1 < g < n:
                return g
        x = (2 * x * x - 1) % n
    return 0


def _split_from_psi(m, psi_m):
    """The smaller prime p of m = p q from psi_m = psi(m) = (p + 1)(q + 1):
    p + q = psi_m - m - 1, so p and q are the roots of z^2 - (p + q) z + m.
    Any other psi_m gives 0 or, by chance, still a proper divisor of m.
    """
    s = psi_m - m - 1
    disc = s * s - 4 * m
    if disc < 0:
        return 0
    root = math.isqrt(disc)
    p = (s - root) // 2
    return p if root * root == disc and 1 < p < m and m % p == 0 else 0


def _draw_non_residue(n, rng):
    """An x with Jacobi(x^2 - 1, n) = -1, so x^2 - 1 is a unit and a
    non-residue mod some prime of n, whose p + 1 then divides psi."""
    for _ in range(10_000):
        x = rng.randrange(2, n)
        if jacobi(x * x - 1, n) == -1:
            return x
    raise RandomnessExhausted(f"no x with Jacobi(x^2 - 1, n) = -1 found mod {n:#x}")


def _iroot(n, k):
    """Integer k-th root (floor) of n >= 2 by Newton iteration."""
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
    """Complete prime-power factorization of n given psi(n), or a multiple
    psi_n of it below 2^(2|n|): psi(n) < 2^r n <= n^2 is, a key's e d - 1
    mostly is not.  psi of any divisor divides psi_n, so it drives the
    recursion on every cofactor.  Prime powers are peeled off by exact-root
    extraction, tried only on a cofactor m with gcd(m, psi_n) > 1, as p^2 | m
    puts p into psi_n; under a bogus psi_n coprime to p, a power of p raises
    TrialBudgetExhausted, or RandomnessExhausted on reaching an even power,
    which has no start x.  A composite cofactor m of multiplicity 1 is first
    split in closed form (_split_from_psi) from S = psi_n / prod q^(e-1) (q + 1)
    over the primes q^e found so far.  That fires when S is psi(m) and m = p q,
    as under psi(n) once m is all that is left of n; otherwise find_factor
    splits m, from a fresh start x per trial.  A half h with h + 1 | psi_n pops
    first, so a likely prime is found before its cofactor's S is formed: the
    last two primes of a square-free n cost no trial, and max_trials=0
    factors a two-prime n under exact psi.  A cofactor m is tested for
    primality first when m < 2^64 or m + 1 | psi_n allows a prime; otherwise
    after its first failed trial, or before the budget error, so each prime
    returned passes is_probable_prime.  Raises TrialBudgetExhausted once
    max_trials splitting trials were spent, and ValueError before any
    primality test for an n, psi_n or max_trials that is no int, an n above
    MAX_MODULUS_BITS, a psi_n below 1 or wider than 2|n| bits (which bounds
    each trial's ladder) or max_trials < 0.
    """
    if ({type(n), type(psi_n), type(max_trials)} != {int} or not 1 <= n < 1 << MAX_MODULUS_BITS
            or not 1 <= psi_n < 4 ** n.bit_length() or max_trials < 0):
        raise ValueError(f"n must lie in [1, 2^{MAX_MODULUS_BITS}), psi_n in [1, 2^(2|n|)) and max_trials in [0, inf)")
    found = Counter()
    # mod 3, x^2 - 1 is a unit only for x = 0: 15 has no start x
    for q in (2, 3):
        while n % q == 0:
            found[q] += 1
            n //= q
    work = [(n, 1)] if n > 1 else []
    trials = 0
    while work:
        m, mult = work.pop()
        untested = m >= 1 << 64 and psi_n % (m + 1)
        if not untested and is_probable_prime(m):
            found[m] += mult
            continue
        root, k = _perfect_power(m) if math.gcd(m, psi_n) > 1 else (m, 1)
        if k > 1:
            work.append((root, mult * k))
            continue
        divisor, start = 0, trials
        if mult == 1:
            known = math.prod(q ** (e - 1) * (q + 1) for q, e in found.items())
            if psi_n % known == 0:
                divisor = _split_from_psi(m, psi_n // known)
        while not divisor:
            if untested and (trials > start or trials >= max_trials):
                untested = False
                if is_probable_prime(m):
                    found[m] += mult
                    break
            if trials >= max_trials:
                raise TrialBudgetExhausted(f"no factor of {m:#x} within {max_trials} trials")
            trials += 1
            divisor = find_factor(m, psi_n, _draw_non_residue(m, rng))
        else:
            work += sorted([(divisor, mult), (m // divisor, mult)], key=lambda h: psi_n % (h[0] + 1) == 0)
    return sorted(found.items())
