"""Two-prime CRT-RSA baselines, kept inside the benchmark.

The paper's claim is a ratio against two-prime CRT-RSA, so the baseline
must not move when the library changes: prime generation and both
exponentiation routines live here, not in ``pellrsa``.

One timed call decrypts two ciphertexts, i.e. 2*log2(N) plaintext bits,
the same amount one Pell decryption recovers.  Two versions exist:

* ``decrypt_pair_ladder`` exponentiates with an explicit right-to-left
  square-and-multiply loop of the same shape as ``pellrsa.arith.mod_pow``,
  so each modular multiplication carries the interpreter overhead the
  Pell ladders carry ("interpreter-fair");
* ``decrypt_pair_pow`` uses builtin ``pow`` ("native").
"""

import math
from dataclasses import dataclass

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _is_probable_prime(n, rng, rounds=32):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
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


def _gen_prime(bits, rng):
    while True:
        # top two bits set, so the product of two such primes has 2*bits bits
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def ladder_pow(a, k, n):
    """a**k mod n, right-to-left square-and-multiply (same shape as arith.mod_pow)."""
    r = 1
    a %= n
    while k:
        if k & 1:
            r = r * a % n
        a = a * a % n
        k >>= 1
    return r


@dataclass(frozen=True)
class RsaKey:
    p: int
    q: int
    e: int
    dp: int
    dq: int
    q_inv: int

    @property
    def n(self):
        return self.p * self.q


def make_rsa_key(bits, rng, e=65537):
    """Two-prime RSA key whose modulus has exactly ``bits`` bits."""
    if bits < 32:
        raise ValueError("RSA baseline needs at least 32 modulus bits")
    half_p, half_q = (bits + 1) // 2, bits // 2
    while True:
        p, q = _gen_prime(half_p, rng), _gen_prime(half_q, rng)
        if p == q or math.gcd(e, (p - 1) * (q - 1)) != 1:
            continue
        if (p * q).bit_length() != bits:
            continue
        d = pow(e, -1, (p - 1) * (q - 1))
        return RsaKey(p, q, e, d % (p - 1), d % (q - 1), pow(q, -1, p))


def encrypt(key, m):
    return pow(m, key.e, key.n)


def _crt(key, m_p, m_q):
    h = (m_p - m_q) * key.q_inv % key.p
    return m_q + key.q * h


def decrypt_pair_ladder(key, pair):
    p, q = key.p, key.q
    return tuple(
        _crt(key, ladder_pow(c % p, key.dp, p), ladder_pow(c % q, key.dq, q)) for c in pair
    )


def decrypt_pair_pow(key, pair):
    p, q = key.p, key.q
    return tuple(_crt(key, pow(c % p, key.dp, p), pow(c % q, key.dq, q)) for c in pair)
