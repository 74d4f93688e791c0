"""Key generation, encryption and decryption.

A key is built over N = p1^e1 * ... * pr^er.  A message is a pair
(mx, my) of units mod N; its own curve coefficient D = (mx^2 - 1)/my^2
puts (mx, my) on the hyperbola x^2 - D y^2 = 1.  Encryption raises the
point to the public exponent and compresses the power to its parameter C,
which is m = (mx + 1)/my raised to e; the ciphertext is the pair (C, D).

Decryption exploits the factorization: modulo each prime p the group
order is p + 1 or p - 1 depending on whether D is a non-residue or a
residue mod p, so the private exponent shrinks to the size of one prime
per factor, and the results recombine by CRT.  That exponent reduction is
where the speedup over two-prime moduli comes from.  A compressed
ciphertext decompresses to its point once mod N and then decrypts as a
point ciphertext.  Each per-prime power is a Lucas ladder on the curve mod
p (pell.point_pow): two multiplications per exponent bit and one
inversion.  A prime power p^k (k > 1) runs the same ladder mod p and then
lifts the root to p^k by ceil(log2 k) Newton steps (Takagi's p^k q
decryption), each one power to the short public exponent e, so no ladder
runs wider than a prime.

The paper counts one multiplication per exponent bit on both sides and
predicts a speedup of r^2/2 over two-prime CRT-RSA; counting the ladder's
2 per bit against square-and-multiply RSA's 1.5 predicts 3/4 of r^2/2.
With s = e1 + ... + er primes counted with multiplicity, each of the r
ladders runs at |N|/s bits instead of |N|/r; a ladder's cost grows as the
cube of its width, so the same count scales r^2/2 by (s/r)^3 to s^3/(2r)
(16 for p^3 q), plus the lifts' short powers.  Encryption keeps the
division-free square-and-multiply (pell.point_pow_nodiv), which never
divides mod the composite N.

Two private-exponent modes exist because the sender can only test the
Jacobi symbol of mx^2 - 1, not the residuosity mod the secret primes:

* strict: d inverts e modulo lcm of p^(e-1) * (p + 1) only.  Messages whose
  D is a residue mod some prime p raise DecryptionFailure on decryption;
  if gcd(e, p - 1) > 1, compressed encryption may raise ImpossibleOperation.
* robust (default): d inverts e modulo lcm of p^(e-1) * (p^2 - 1), which
  covers both orders, so every encryptable message decrypts.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

from .arith import MAX_MODULUS_BITS, FactoredModulus, crt_combine, gen_prime, jacobi, mod_inv
from .errors import (
    BadExponentChoice,
    DecryptionFailure,
    ImpossibleOperation,
    MessageNotEncryptable,
    RandomnessExhausted,
)
from .pell import (
    INFINITY,
    HyperbolaPoint,
    PellParams,
    param_to_point,
    point_pow,
    point_pow_nodiv,
    point_to_param,
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
    """Factored modulus, private exponent d and mode.

    Derived once, when the key is built, for the Hensel lift of prime
    powers: e = d^-1 mod the exponent modulus, and e^-1 mod p^k for each
    prime p with k > 1 (lift_inverses).  p divides the exponent modulus
    there, so e is a unit mod p.  The key file stores neither.
    """

    factors: FactoredModulus
    d: int
    mode: Mode
    e: int = field(init=False, repr=False, compare=False)
    lift_inverses: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.factors.factors) < 2:
            raise ValueError("need at least two primes")
        if any(p % 2 == 0 or k % 2 == 0 for p, k in self.factors.factors):
            raise ValueError("primes and their exponents must be odd")
        try:
            e = mod_inv(self.d, exponent_modulus(self.factors, self.mode))
        except ImpossibleOperation:
            raise ValueError("d is not coprime to the exponent modulus") from None
        inverses = {p: mod_inv(e, p**k) for p, k in self.factors.factors if k > 1}
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "lift_inverses", inverses)

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

    The modulus size is roughly prime_bits * sum(exponents); one above
    MAX_MODULUS_BITS raises ValueError before any prime is drawn.  Colliding
    primes are regenerated so the factor list stays distinct.
    """
    if prime_bits * sum(exponents) > MAX_MODULUS_BITS:
        raise ValueError(f"modulus exceeds {MAX_MODULUS_BITS} bits")
    primes = []
    while len(primes) < r:
        p = gen_prime(prime_bits, rng)
        if p not in primes:
            primes.append(p)
    return keypair_from_primes(primes, exponents, e=e, mode=mode)


def validate_message(pk, msg, mode=Mode.ROBUST):
    """Check encryptability and derive the curve coefficient D.

    Both coordinates must lie in [0, N): a larger one would decrypt to its
    residue, not to the message sent.  Both modes demand
    gcd(mx^2 - 1, N) = 1; strict also demands Jacobi(mx^2 - 1, N) = -1, so
    only strict computes a Jacobi symbol.  Returns D = (mx^2 - 1)/my^2 mod N.
    """
    n = pk.n
    mx, my = msg.mx, msg.my
    if not (0 <= mx < n and 0 <= my < n):
        raise MessageNotEncryptable("mx and my must lie in [0, N)")
    if math.gcd(mx, n) != 1:
        raise MessageNotEncryptable("mx is not a unit mod N")
    t = (mx * mx - 1) % n
    if math.gcd(t, n) != 1:
        raise MessageNotEncryptable("mx^2 - 1 is not a unit mod N")
    if mode == Mode.STRICT and jacobi(t, n) != -1:
        raise MessageNotEncryptable("Jacobi(mx^2 - 1, N) != -1")
    return t * mod_inv(my * my % n, n) % n


def encrypt(pk, msg, mode=Mode.ROBUST):
    """Compressed encryption: C = (m raised to e) with m = (mx + 1)/my, as the
    parameter of the point ciphertext.  Raises ImpossibleOperation when that
    point's y is no unit, which a robust key's e rules out."""
    ct = encrypt_point(pk, msg, mode)
    c = point_to_param(HyperbolaPoint(ct.cx, ct.cy), PellParams(pk.n, ct.d_coef))
    if c is INFINITY:
        # message point order divides e; only conceivable for toy primes
        raise MessageNotEncryptable("message parameter collapses to the identity")
    return Ciphertext(c, ct.d_coef)


def encrypt_point(pk, msg, mode=Mode.ROBUST):
    """Uncompressed encryption: the message point raised to e, no division."""
    d_coef = validate_message(pk, msg, mode)
    pp = PellParams(pk.n, d_coef)
    pt = pp.point(msg.mx, msg.my)
    cx, cy = point_pow_nodiv(pt, pk.e, pp)
    return PointCiphertext(cx, cy, d_coef)


def reduced_private_exponents(sk, d_coef):
    """CRT decryption plan: (prime p, its exponent k, reduced private exponent).

    Per prime, a Legendre symbol picks the group order mod p, p + 1
    (non-residue D) or p - 1 (residue D), and d is reduced mod that order.
    The ladder runs mod p for every factor, a prime power included, so each
    exponent is below p + 1; decrypt_point lifts a root mod p to p^k.
    These short exponents are the whole point of multi-prime decryption.  A
    strict key's d inverts e only under the first order, so a residue D
    raises DecryptionFailure naming the prime's index.
    """
    plan = []
    for i, (p, k) in enumerate(sk.factors.factors):
        if jacobi(d_coef % p, p) == -1:
            order = p + 1
        elif sk.mode == Mode.STRICT:
            raise DecryptionFailure(f"strict key: D is not a non-residue mod prime {i}")
        else:
            order = p - 1
        plan.append((p, k, sk.d % order))
    return plan


def _curve_mod_n(sk, d_coef):
    try:
        return PellParams(sk.n, d_coef % sk.n)
    except ValueError as err:
        raise DecryptionFailure(f"curve coefficient mod N: {err}") from None


def decrypt(sk, ct):
    """Recover (mx, my) from a compressed ciphertext via its point mod N."""
    pp_n = _curve_mod_n(sk, ct.d_coef)
    try:
        # a decompressed parameter lies on the curve by construction
        c = param_to_point(ct.c, pp_n)
    except ImpossibleOperation as err:
        raise DecryptionFailure(f"ciphertext parameter does not decompress: {err}") from err
    return _decrypt_on_curve(sk, c, pp_n)


def decrypt_point(sk, ct):
    """Recover (mx, my) from an uncompressed ciphertext.

    The point must lie on the curve mod N.  One with y = 0 mod a prime p is
    (+-1, 0) mod p, a fixed point of the odd reduced exponent, so no
    message; it is refused before p's ladder.  Otherwise per prime the Lucas
    ladder raises the point mod p to the reduced private exponent, a prime
    power lifts that root to p^k, and the coordinates recombine by CRT and
    must be units mod N.
    """
    pp_n = _curve_mod_n(sk, ct.d_coef)
    c = HyperbolaPoint(ct.cx % sk.n, ct.cy % sk.n)
    if not pp_n.on_curve(*c):
        raise DecryptionFailure("ciphertext point is not on the curve")
    return _decrypt_on_curve(sk, c, pp_n)


def _decrypt_on_curve(sk, c, pp_n):
    roots, moduli = [], []
    for i, (p, k, d_i) in enumerate(reduced_private_exponents(sk, pp_n.d)):
        if c.y % p == 0:
            raise DecryptionFailure(f"ladder: the ciphertext has y = 0 mod prime {i}")
        pp = PellParams(p, pp_n.d % p)
        root = point_pow(HyperbolaPoint(c.x % p, c.y % p), d_i, pp)
        if k > 1:
            root = _hensel_lift(root, c, pp, p**k, pp_n.d, sk.e, sk.lift_inverses[p])
        roots.append(root)
        moduli.append(p**k)
    mx, my = crt_combine(roots, moduli)
    if not pp_n.on_curve(mx, my):
        raise DecryptionFailure("recovered point is not on the curve")
    if math.gcd(mx * my, sk.n) != 1:
        raise DecryptionFailure("recovered point is not a message: a coordinate is not a unit")
    return MessagePair(mx, my)


def _hensel_lift(m, c, pp, top, d_coef, e, e_inv):
    """Lift the e-th root m of c mod pp.modulus to the e-th root mod top.

    Each Newton step goes from a modulus u to q = min(u^2, top).  m's
    coordinates have norm 1 + U mod q with u | U, so scaling both by
    1 - U/2 puts m' on the curve mod q, still equal to m mod u.  Then
    E = c * conj(m'^e) is (1, y_E) with u | y_E; such points form the
    kernel of reduction mod u, where (1, u b)(1, u b') = (1, u (b + b')),
    so the root mod q is m' * (1, y_E / e).  No step divides; e_inv is
    e^-1 mod top.
    """
    while pp.modulus < top:
        q = min(pp.modulus**2, top)
        pp = PellParams(q, d_coef % q)
        x, y = m
        s = 1 - (x * x - pp.d * y * y - 1) * ((q + 1) // 2)
        x, y = s * x % q, s * y % q
        ex, ey = point_pow_nodiv(HyperbolaPoint(x, y), e, pp)
        t = (c.y * ex - c.x * ey) * e_inv % q
        m = HyperbolaPoint((x + pp.d * y * t) % q, (y + x * t) % q)
    return m


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

