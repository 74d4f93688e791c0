"""Reference implementations that more than one test module checks against."""

import math


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
