"""Big-integer modular arithmetic, primality testing and CRT utilities.

is_probable_prime trial-divides by the primes below 2^13 in two gcds, then
runs Baillie-PSW (Baillie and Wagstaff, Math. Comp. 35, 1980): a strong test
to base 2 and an extra strong Lucas test (Grantham, Math. Comp. 70, 2001) on
lucas_v, the ladder pell.point_pow also runs.  No composite is known to pass
both.  Albrecht et al. ("Prime and Prejudice", CCS 2018) build composites that
pass Miller-Rabin to fixed bases and recommend Baillie-PSW for key files.

An int argument of a public function of the package must pass _ints: an int,
no bool, and an int subclass counts as its value; else ValueError or a PellRsaError.
An object or sequence argument must pass _expect: its exact type is one the
function names (a key, a ciphertext, a list or tuple, ...), else ValueError.
"""

import math
from dataclasses import dataclass, field

from .errors import ImpossibleOperation, RandomnessExhausted


def _ints(*values):
    return all(isinstance(v, int) and type(v) is not bool for v in values)


def _expect(obj, *classes):
    if type(obj) not in classes:
        raise ValueError(f"expected a {' or '.join(c.__name__ for c in classes)}, got a {type(obj).__name__}")
    return obj


def _primes_up_to(limit):
    """The primes p <= limit, ascending, by the sieve of Eratosthenes."""
    flags = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p, f in enumerate(flags) if f]


SMALL_PRIMES = frozenset(_primes_up_to(1 << 13))
_BELOW_1000 = math.prod(p for p in SMALL_PRIMES if p < 1000)
_FROM_1000 = math.prod(p for p in SMALL_PRIMES if p > 1000)

# Largest modulus FactoredModulus builds, as sum(e * bitlen(p)); NIST's
# 15360-bit modulus for 256-bit security fits.
MAX_MODULUS_BITS = 16384


def mod_inv(a, n):
    """Inverse of a modulo n, in [0, n).

    Raises ImpossibleOperation carrying gcd(a, n) when it exceeds 1 --
    against a composite modulus that gcd is often a harvested factor -- and
    ValueError for n < 2 or a non-int.  The happy path is pow's extended gcd.

        >>> mod_inv(16, 35)
        11
    """
    if not _ints(a, n) or n < 2:
        raise ValueError("need ints: a and a modulus >= 2")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise ImpossibleOperation(math.gcd(a % n, n)) from None


def jacobi(a, n):
    """Jacobi symbol (a/n) for ints a and odd n >= 3, else ValueError; 0 iff gcd(a, n) > 1."""
    if not _ints(a, n) or n < 3 or n % 2 == 0:
        raise ValueError("jacobi symbol needs ints: a and an odd modulus >= 3")
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

    Raises ImpossibleOperation carrying the gcd of a modulus and the product of
    those before it when they share a factor, ValueError unless moduli is a
    non-empty list or tuple of ints >= 2.

        >>> crt_coefficients([5, 7, 9])
        (3, 8)
    """
    if not _expect(moduli, list, tuple) or not _ints(*moduli) or min(moduli) < 2:
        raise ValueError("need at least one modulus, each an int >= 2")
    out, m = [], moduli[0]
    for m_i in moduli[1:]:
        out.append(mod_inv(m % m_i, m_i))
        m *= m_i
    return tuple(out)


def crt_combine(residues, moduli, coefficients):
    """Unique x mod prod(moduli) with x = residues[i] mod moduli[i], per coordinate.

    Each residue is a tuple of int coordinates, such as a curve point, all of one
    width, and a tuple of that width comes back.  coefficients must be
    crt_coefficients(moduli), which refuses moduli that share a factor; any other,
    an argument no list or tuple, a length mismatch anywhere, a modulus no int >= 2,
    or a residue no int tuple of the first one's width raise ValueError.

        >>> crt_combine([(2, 1), (3, 0)], [5, 7], crt_coefficients([5, 7]))
        (17, 21)
    """
    if len(_expect(residues, list, tuple)) != len(_expect(moduli, list, tuple)) or not moduli:
        raise ValueError("need equally many residues and moduli, at least one")
    if any(not isinstance(row, tuple) or len(row) != len(residues[0]) or not _ints(m_i, *row) or m_i < 2
           for row, m_i in zip(residues, moduli)):
        raise ValueError("residues must be int tuples of one length, moduli ints >= 2")
    xs, m = [r % moduli[0] for r in residues[0]], moduli[0]
    for row, m_i, inv in zip(residues[1:], moduli[1:], _expect(coefficients, list, tuple), strict=True):
        if not _ints(inv) or m * inv % m_i != 1:
            raise ValueError("coefficients must be crt_coefficients(moduli)")
        xs = [x + m * ((r_i - x) * inv % m_i) for x, r_i in zip(xs, row)]
        m *= m_i
    return tuple(x % m for x in xs)


def lucas_v(v, k, m):
    """(V_k, V_{k+1}) mod m of the Lucas sequence V_0 = 2, V_1 = v with Q = 1,
    for ints v, k >= 0 and m >= 2; any other v, k or m raises ValueError.

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
    if not _ints(v, k, m) or k < 0 or m < 2:
        raise ValueError("lucas_v needs ints: k >= 0 and m >= 2")
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
    """Baillie-PSW at every size, nothing random, for an int n (else
    ValueError, by the module's int rule).  Trial division to 2^13 is two
    gcds: by the primes below 1000, which refuse 84% of random odd n, then the rest.
    One gcd would charge the large product to every n; in two, a prime pays
    no more than a loop over the primes below 1000.  n < 2 or with a factor
    there is prime iff in SMALL_PRIMES; the rest take a strong test to base 2
    and _lucas_test, exact below 2^64: Feitsma and Galway listed the base-2
    strong pseudoprimes there, and none is an extra strong Lucas pseudoprime
    (Jacobsen, "Pseudoprime Statistics, Tables, and Data", 2016)."""
    if not _ints(n):
        raise ValueError("is_probable_prime needs an int")
    if n < 2 or math.gcd(n, _BELOW_1000) > 1 or math.gcd(n, _FROM_1000) > 1:
        return n in SMALL_PRIMES
    return _strong_test(n, 2) and _lucas_test(n)


def gen_prime(bits, rng):
    """Random probable prime of exactly `bits` bits (top bit set) for an int
    bits >= 8, else ValueError; RandomnessExhausted after 64 * bits tries.
    Only the 12.5% of tries with no factor below 2^13 reach a strong test."""
    if not _ints(bits) or bits < 8:
        raise ValueError("bits must be an int >= 8")
    for _ in range(64 * bits):
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate
    raise RandomnessExhausted(f"no {bits}-bit prime found")


@dataclass(frozen=True)
class FactoredModulus:
    """A modulus known by its prime-power factorization.

    `factors`, built from any iterable of (prime, exponent) pairs (else
    ValueError), is a sorted tuple of them; `value` is the product of the
    prime powers.  Primes must be distinct probable primes and exponents >= 1,
    each an int by the module's rule, never coerced by int(), and
    sum(e * bitlen(p)) at most MAX_MODULUS_BITS; the size is checked from bit
    lengths first, so a hostile exponent is refused before any power or
    primality test runs.  The value is immutable: assigning either field
    raises, so a validated key's factorization cannot change.
    """

    factors: tuple
    value: int = field(init=False, compare=False)

    def __post_init__(self):
        try:
            pairs = [(p, e) for p, e in self.factors]
        except TypeError:
            raise ValueError("factors must be (prime, exponent) pairs") from None
        if not all(_ints(p, e) for p, e in pairs):
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
