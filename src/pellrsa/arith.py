"""Big-integer modular arithmetic, primality testing and CRT utilities.

Above 2^64 is_probable_prime is the Baillie-PSW test (Baillie and Wagstaff,
"Lucas pseudoprimes", Math. Comp. 35, 1980): a strong test to base 2 and an
extra strong Lucas test (Grantham, "Frobenius pseudoprimes", Math. Comp. 70,
2001) on lucas_v, the ladder pell.point_pow also runs.  No composite is known
to pass both.  "Prime and Prejudice" (Albrecht et al., CCS 2018) builds
composites that pass Miller-Rabin to fixed bases and recommends Baillie-PSW
for input an adversary may choose, such as a key file.
"""

import math
from dataclasses import dataclass, field

from .errors import ImpossibleOperation, RandomnessExhausted


def primes_up_to(limit):
    """The primes p <= limit, ascending, by the sieve of Eratosthenes."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p, f in enumerate(flags) if f]


SMALL_PRIMES = primes_up_to(1000)

# First-12-prime Miller-Rabin bases are a proven deterministic set below 2^64.
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest modulus FactoredModulus builds, as sum(e * bitlen(p)); NIST's
# 15360-bit modulus for 256-bit security fits.
MAX_MODULUS_BITS = 16384


def mod_inv(a, n):
    """Inverse of a modulo n, in [0, n).

    Raises ImpossibleOperation carrying gcd(a, n) when it exceeds 1 --
    against a composite modulus that gcd is often a harvested factor.  The
    happy path rides the C-level extended gcd inside pow.

        >>> mod_inv(16, 35)
        11
    """
    if n < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise ImpossibleOperation(math.gcd(a % n, n)) from None


def jacobi(a, n):
    """Jacobi symbol (a/n) for odd n >= 3; 0 iff gcd(a, n) > 1."""
    if n < 3 or n % 2 == 0:
        raise ValueError("jacobi symbol needs an odd modulus >= 3")
    a %= n
    result = 1
    while a:
        # strip every factor of 2 in one shift; (2/n) = -1 iff n = 3, 5 mod 8
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def crt_coefficients(moduli):
    """Garner's coefficients for crt_combine: for each modulus after the
    first, the inverse mod it of the product of those before it.

    Raises ImpossibleOperation carrying the gcd of a modulus and the product of those
    before it when they share a factor, ValueError for none or one that is no int >= 2.

        >>> crt_coefficients([5, 7, 9])
        (3, 8)
    """
    if not moduli or any(type(m_i) is not int or m_i < 2 for m_i in moduli):
        raise ValueError("need at least one modulus, each an int >= 2")
    out, m = [], moduli[0]
    for m_i in moduli[1:]:
        out.append(mod_inv(m % m_i, m_i))
        m *= m_i
    return tuple(out)


def crt_combine(residues, moduli, coefficients):
    """Unique x mod prod(moduli) with x = residues[i] mod moduli[i], per coordinate.

    Each residue is a tuple of int coordinates, such as a curve point, all of
    one width, and a tuple of that width comes back.  coefficients must be
    crt_coefficients(moduli), which refuses moduli that share a factor; any
    other, a length mismatch anywhere, a modulus that is no int >= 2, or a
    residue that is no int tuple of the first one's width raise ValueError.

        >>> crt_combine([(2, 1), (3, 0)], [5, 7], crt_coefficients([5, 7]))
        (17, 21)
    """
    if len(residues) != len(moduli) or not moduli:
        raise ValueError("need equally many residues and moduli, at least one")
    if any(type(m_i) is not int or m_i < 2 or not isinstance(row, tuple) or len(row) != len(residues[0])
           or any(type(c) is not int for c in row) for row, m_i in zip(residues, moduli)):
        raise ValueError("residues must be int tuples of one length, moduli ints >= 2")
    xs, m = [r % moduli[0] for r in residues[0]], moduli[0]
    for row, m_i, inv in zip(residues[1:], moduli[1:], coefficients, strict=True):
        if m * inv % m_i != 1:
            raise ValueError("coefficients must be crt_coefficients(moduli)")
        xs = [x + m * ((r_i - x) * inv % m_i) for x, r_i in zip(xs, row)]
        m *= m_i
    return tuple(x % m for x in xs)


def lucas_v(v, k, m):
    """(V_k, V_{k+1}) mod m of the Lucas sequence V_0 = 2, V_1 = v with Q = 1,
    for k >= 0 and m >= 2; any other k or m raises ValueError.

    A Montgomery ladder over V_{2j} = V_j^2 - 2 and V_{2j+1} = V_j V_{j+1} - v,
    one full product for the leading bit of k and two for each later one
    (pell.ladder_cost), and no division.  With v = 2x it is pell.point_pow's
    x-only power, since V_k = 2 T_k(x); with v = P it is _lucas_test's.  It
    serves exponents used once: primality, factoring and a decryption row's
    first use.  A pell.LucasChain takes about 1.63 products per bit for an
    exponent used again, but building it costs more than one ladder saves.
    A power's y needs U_{k-1} too, which this ladder yields only through an
    inversion, so pell.chebyshev takes those powers.
    """
    if k < 0 or m < 2:
        raise ValueError("lucas_v needs k >= 0 and m >= 2")
    v %= m
    a, b = 2, v
    for bit in bin(k)[2:]:
        if bit == "1":
            a, b = (a * b - v) % m, (b * b - 2) % m
        else:
            a, b = (a * a - 2) % m, (a * b - v) % m
    return a, b


def _strong_test(n, a):
    """True when odd n > 2 passes the Miller-Rabin (strong) test to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _lucas_test(n):
    """True when odd n passes the extra strong Lucas test (Q = 1).

    P is the least P >= 3 with Jacobi(P^2 - 4, n) = -1; a square n has none,
    so it is refused first.  With n + 1 = d 2^s, n passes when V_d = +-2 and
    U_d = 0, or V_{d 2^r} = 0 for some 0 <= r < s - 1.  D = P^2 - 4 is a unit,
    so U_d = (2 V_{d+1} - P V_d)/D vanishes exactly when 2 V_{d+1} = P V_d.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    p = 3
    while (j := jacobi(p * p - 4, n)) == 1:
        p += 1
    if j == 0:
        return False
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    v, w = lucas_v(p, (n + 1) >> s, n)
    if v in (2, n - 2) and (2 * w - p * v) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def is_probable_prime(n):
    """Primality: exact below 2^64, Baillie-PSW above; nothing is random.

    Trial division by SMALL_PRIMES first.  Below 2^64 the twelve
    _DETERMINISTIC_BASES are a proof, not a conjecture, and cost little at
    that size.  Above, one strong test to base 2, then _lucas_test.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1 << 64:
        return all(_strong_test(n, a) for a in _DETERMINISTIC_BASES)
    return _strong_test(n, 2) and _lucas_test(n)


def gen_prime(bits, rng):
    """Random probable prime of exactly `bits` bits (top bit set).

    Raises RandomnessExhausted after a bounded number of attempts.
    """
    if bits < 8:
        raise ValueError("bits must be >= 8")
    for _ in range(64 * bits):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate
    raise RandomnessExhausted(f"no {bits}-bit prime found")


@dataclass(frozen=True)
class FactoredModulus:
    """A modulus known by its prime-power factorization.

    `factors` is a sorted tuple of (prime, exponent) pairs; `value` is the
    product of the prime powers.  Primes must be distinct probable primes and
    exponents >= 1, each an int (not a bool, float or str, which int() would
    coerce), and sum(e * bitlen(p)) at most MAX_MODULUS_BITS; the size is
    checked from bit lengths first, so a hostile exponent is refused before
    any power or primality test runs.  The value is immutable: assigning
    either field raises, so a validated key's factorization cannot change.
    """

    factors: tuple
    value: int = field(init=False, compare=False)

    def __post_init__(self):
        pairs = [(p, e) for p, e in self.factors]
        if any(type(v) is not int for pair in pairs for v in pair):
            raise ValueError("primes and exponents must be ints")
        pairs = tuple(sorted(pairs))
        if not pairs:
            raise ValueError("at least one prime factor required")
        primes = [p for p, _ in pairs]
        if len(set(primes)) != len(primes):
            raise ValueError("prime factors must be distinct")
        if any(e < 1 for _, e in pairs):
            raise ValueError("exponents must be >= 1")
        if sum(e * p.bit_length() for p, e in pairs) > MAX_MODULUS_BITS:
            raise ValueError(f"modulus exceeds {MAX_MODULUS_BITS} bits")
        value = 1
        for p, e in pairs:
            if not is_probable_prime(p):
                raise ValueError(f"{p:#x} is not prime")
            value *= p**e
        object.__setattr__(self, "factors", pairs)
        object.__setattr__(self, "value", value)

    def __repr__(self):
        body = " * ".join(f"{p:#x}^{e}" for p, e in self.factors)
        return f"FactoredModulus({body})"
