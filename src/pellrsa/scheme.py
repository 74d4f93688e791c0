"""Key generation, encryption and decryption.

A key is built over N = p1^e1 * ... * pr^er.  A message is a pair
(mx, my) of units mod N; its own curve coefficient D = (mx^2 - 1)/my^2
puts (mx, my) on the hyperbola x^2 - D y^2 = 1.  Encryption compresses the
point to the parameter m = (mx + 1)/my and raises it to the public
exponent; the ciphertext is the pair (C, D).

Decryption exploits the factorization: modulo each prime power the group
order is p^(e-1) * (p + 1) or p^(e-1) * (p - 1) depending on whether D is a
non-residue or a residue mod p, so the private exponent shrinks to roughly
a 1/r-th of its size per factor, and the results recombine by CRT.  That
exponent reduction is where the speedup over two-prime moduli comes from.
A compressed ciphertext decompresses to its point once mod N and then
decrypts as a point ciphertext.  Each per-prime power is a Lucas ladder on
the curve (pell.point_pow): two multiplications per exponent bit and one
inversion.  The paper counts one multiplication per exponent bit on both
sides and predicts a speedup of r^2/2 over two-prime CRT-RSA; counting the
ladder's 2 per bit against square-and-multiply RSA's 1.5 predicts 3/4 of
r^2/2.  Point encryption keeps the division-free square-and-multiply
(pell.point_pow_nodiv), which never divides mod the composite N.

Two private-exponent modes exist because the sender can only test the
Jacobi symbol of mx^2 - 1, not the residuosity mod the secret primes:

* strict: d inverts e modulo lcm of p^(e-1) * (p + 1) only.  Messages whose
  D is a residue mod some prime raise DecryptionFailure on decryption.
* robust (default): d inverts e modulo lcm of p^(e-1) * (p^2 - 1), which
  covers both orders, so every encryptable message decrypts.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .arith import FactoredModulus, crt_combine, gen_prime, jacobi, mod_inv
from .errors import (
    BadExponentChoice,
    DecryptionFailure,
    ImpossibleOperation,
    MessageNotEncryptable,
    NotInvertible,
    RandomnessExhausted,
)
from .pell import (
    INFINITY,
    PellParams,
    param_to_point,
    point_pow,
    point_pow_nodiv,
    redei_pow,
)

DEFAULT_PUBLIC_EXPONENT = 65537
RANDOM_MESSAGE_DRAWS = 1000


class Mode(str, Enum):
    STRICT = "strict"
    ROBUST = "robust"


@dataclass(frozen=True)
class PublicKey:
    n: int
    e: int

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0 or self.e < 1:
            raise ValueError("public key needs an odd n >= 3 and e >= 1")


@dataclass(frozen=True)
class PrivateKey:
    factors: FactoredModulus
    d: int
    mode: Mode

    def __post_init__(self):
        if len(self.factors.factors) < 2:
            raise ValueError("need at least two primes")
        if any(p % 2 == 0 or k % 2 == 0 for p, k in self.factors.factors):
            raise ValueError("primes and their exponents must be odd")
        if math.gcd(self.d, exponent_modulus(self.factors, self.mode)) != 1:
            raise ValueError("d is not coprime to the exponent modulus")

    @property
    def n(self):
        return self.factors.value


@dataclass(frozen=True)
class MessagePair:
    """Plaintext (mx, my); both coordinates must be units mod N."""

    mx: int
    my: int


@dataclass(frozen=True)
class Ciphertext:
    """Compressed ciphertext: parameter c plus the curve coefficient."""

    c: int
    d_coef: int


@dataclass(frozen=True)
class PointCiphertext:
    """Uncompressed ciphertext: a curve point plus the curve coefficient.

    Twice the size of the compressed form, but produced without any
    division, so no group operation can leak a factor of the modulus.
    """

    cx: int
    cy: int
    d_coef: int


def exponent_modulus(factors, mode):
    """lcm of the per-prime group orders the private exponent must invert e under."""
    out = 1
    for p, e in factors.factors:
        if mode == Mode.STRICT:
            order = p ** (e - 1) * (p + 1)
        else:
            order = p ** (e - 1) * (p * p - 1)
        out = math.lcm(out, order)
    return out


def keypair_from_primes(primes, exponents, e=None, mode=Mode.ROBUST):
    """Build a key pair from already-chosen primes.

    Primes must be distinct odd primes, exponents odd and >= 1.  With
    e=None the public exponent is the smallest odd integer >= 65537 coprime
    to the exponent modulus; an explicit e that is even, < 3, or shares a
    factor with the exponent modulus raises BadExponentChoice.
    """
    primes = list(primes)
    exponents = list(exponents)
    if len(exponents) != len(primes):
        raise ValueError("one exponent per prime required")
    factors = FactoredModulus(zip(primes, exponents))
    lam = exponent_modulus(factors, mode)
    if e is None:
        e = DEFAULT_PUBLIC_EXPONENT
        while math.gcd(e, lam) != 1:
            e += 2
    elif e < 3 or e % 2 == 0 or math.gcd(e, lam) != 1:
        raise BadExponentChoice(f"e={e} unusable (gcd with exponent modulus != 1 or e < 3 odd)")
    d = mod_inv(e, lam)
    return PublicKey(factors.value, e), PrivateKey(factors, d, mode)


def keygen(r, exponents, prime_bits, rng, e=None, mode=Mode.ROBUST):
    """Generate a key over r fresh primes of prime_bits bits each.

    The modulus size is roughly prime_bits * sum(exponents).  Colliding
    primes are regenerated so the factor list stays distinct.
    """
    primes = []
    while len(primes) < r:
        p = gen_prime(prime_bits, rng)
        if p not in primes:
            primes.append(p)
    return keypair_from_primes(primes, exponents, e=e, mode=mode)


def validate_message(pk, msg, mode=Mode.ROBUST):
    """Check encryptability and derive the curve coefficient D.

    Both coordinates must lie in [0, N): a larger one would decrypt to its
    residue, not to the message sent.  strict demands Jacobi(mx^2 - 1, N)
    = -1; robust only demands gcd(mx^2 - 1, N) = 1.  Returns
    D = (mx^2 - 1)/my^2 mod N.
    """
    n = pk.n
    mx, my = msg.mx, msg.my
    if not (0 <= mx < n and 0 <= my < n):
        raise MessageNotEncryptable("mx and my must lie in [0, N)")
    if math.gcd(mx, n) != 1:
        raise MessageNotEncryptable("mx is not a unit mod N")
    t = (mx * mx - 1) % n
    if t == 0:
        raise MessageNotEncryptable("mx^2 - 1 vanishes mod N")
    j = jacobi(t, n)
    if mode == Mode.STRICT:
        if j != -1:
            raise MessageNotEncryptable("Jacobi(mx^2 - 1, N) != -1")
    elif j == 0:
        raise MessageNotEncryptable("mx^2 - 1 shares a factor with N")
    try:
        return t * mod_inv(my * my % n, n) % n
    except NotInvertible as err:
        raise ImpossibleOperation(err.gcd) from None


def encrypt(pk, msg, mode=Mode.ROBUST):
    """Compressed encryption: C = (m raised to e) with m = (mx + 1)/my."""
    n = pk.n
    d_coef = validate_message(pk, msg, mode)
    m = (msg.mx % n + 1) * mod_inv(msg.my % n, n) % n
    c = redei_pow(m, pk.e, PellParams(n, d_coef))
    if c is INFINITY:
        # message point order divides e; only conceivable for toy primes
        raise MessageNotEncryptable("message parameter collapses to the identity")
    return Ciphertext(c, d_coef)


def encrypt_point(pk, msg, mode=Mode.ROBUST):
    """Uncompressed encryption: the message point raised to e, no division."""
    d_coef = validate_message(pk, msg, mode)
    pp = PellParams(pk.n, d_coef)
    pt = pp.point(msg.mx, msg.my)
    cx, cy = point_pow_nodiv(pt, pk.e, pp)
    return PointCiphertext(cx, cy, d_coef)


def reduced_private_exponents(sk, d_coef):
    """CRT decryption plan: (prime power, reduced private exponent) pairs.

    Per prime, a Legendre symbol picks the group order p^(e-1) * (p + 1)
    (non-residue D) or p^(e-1) * (p - 1) (residue D) and d is reduced mod
    that order.  These short exponents are the whole point of multi-prime
    decryption.  A strict key's d inverts e only under the first order, so
    a residue D raises DecryptionFailure naming the prime's index.
    """
    plan = []
    for i, (p, e) in enumerate(sk.factors.factors):
        if jacobi(d_coef % p, p) == -1:
            order = p ** (e - 1) * (p + 1)
        elif sk.mode == Mode.STRICT:
            raise DecryptionFailure(f"strict key: D is not a non-residue mod prime {i}")
        else:
            order = p ** (e - 1) * (p - 1)
        plan.append((p**e, sk.d % order))
    return plan


def _curve_mod_n(sk, d_coef):
    if math.gcd(d_coef, sk.n) != 1:
        raise DecryptionFailure("curve coefficient shares a factor with N")
    return PellParams(sk.n, d_coef % sk.n)


def decrypt(sk, ct):
    """Recover (mx, my) from a compressed ciphertext via its point mod N."""
    try:
        x, y = param_to_point(ct.c, _curve_mod_n(sk, ct.d_coef))
    except ImpossibleOperation as err:
        raise DecryptionFailure(f"ciphertext parameter does not decompress: {err}") from err
    return decrypt_point(sk, PointCiphertext(x, y, ct.d_coef))


def decrypt_point(sk, ct):
    """Recover (mx, my) from an uncompressed ciphertext.

    Per prime power the Lucas ladder raises the point to the reduced private
    exponent; the coordinates recombine by CRT and must be units mod N.
    """
    n = sk.n
    pp_n = _curve_mod_n(sk, ct.d_coef)
    if not pp_n.on_curve(ct.cx % n, ct.cy % n):
        raise DecryptionFailure("ciphertext point is not on the curve")
    xs, ys, moduli = [], [], []
    for m_i, d_i in reduced_private_exponents(sk, ct.d_coef):
        pp = PellParams(m_i, ct.d_coef % m_i)
        pt = point_pow(pp.point(ct.cx, ct.cy), d_i, pp)
        xs.append(pt.x)
        ys.append(pt.y)
        moduli.append(m_i)
    mx, my = crt_combine(xs, moduli), crt_combine(ys, moduli)
    if not pp_n.on_curve(mx, my):
        raise DecryptionFailure("recovered point is not on the curve")
    if math.gcd(mx * my, n) != 1:
        raise DecryptionFailure("recovered point is not a message: a coordinate is not a unit")
    return MessagePair(mx, my)


def random_message(pk, rng, mode=Mode.ROBUST):
    """Uniformly drawn encryptable message pair, at most RANDOM_MESSAGE_DRAWS tries."""
    n = pk.n
    if n == 3:
        raise RandomnessExhausted("no residue in [2, n - 2] to draw mod 3")
    for _ in range(RANDOM_MESSAGE_DRAWS):
        msg = MessagePair(rng.randrange(2, n - 1), rng.randrange(2, n - 1))
        try:
            validate_message(pk, msg, mode)
            return msg
        except (MessageNotEncryptable, ImpossibleOperation):
            continue
    # e.g. mod any multiple of 3 no message is encryptable
    raise RandomnessExhausted(f"no encryptable message in {RANDOM_MESSAGE_DRAWS} draws")

