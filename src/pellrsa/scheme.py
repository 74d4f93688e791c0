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
ciphertext decompresses mod each prime power p^k, never mod N.  Per prime,
an x-only Lucas ladder mod p (pell.point_pow) yields the root's x; its
power to e must give back the ciphertext's x and also yields the root's y,
so a fault in one prime's branch, exponent or ladder raises instead of
leaking p through a wrong plaintext (the Bellcore attack).  Every factor
then lifts its root from p to p^k by ceil(log3 k) cubic Newton steps
(Takagi's p^k q decryption), none for k = 1, each one power to e that must
stay on the curve, so no ladder runs wider than a prime.

The paper counts one multiplication per exponent bit on both sides and
predicts a speedup of r^2/2 over two-prime CRT-RSA; counting the ladder's
2 per bit against square-and-multiply RSA's 1.5 predicts 3/4 of r^2/2, and
the check's product_ladder_cost(e), 35 per prime at e = 65537 or 2.6% of a
683-bit ladder, lowers that from 3.4 to 3.3 for r = 3.  With s primes
counted with multiplicity (s = e1 + ... + er), the ladders run at |N|/s
bits instead of |N|/r, and a ladder's cost grows as the cube of its width,
so r^2/2 scales by (s/r)^3 to s^3/(2r) (16 for p^3 q), plus the lifts.

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
PRIME_REDRAWS = 1000


class Mode(str, Enum):
    STRICT = "strict"
    ROBUST = "robust"


@dataclass(frozen=True)
class PublicKey:
    n: int
    e: int

    def __post_init__(self):
        # the exponent modulus is even, so an even e has no private d
        if self.n < 3 or self.n % 2 == 0 or self.e < 1 or self.e % 2 == 0:
            raise ValueError("public key needs an odd n >= 3 and an odd e >= 1")
        if max(self.n, self.e).bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"n and e may have at most {MAX_MODULUS_BITS} bits")


@dataclass(frozen=True)
class PrivateKey:
    """Factored modulus, private exponent d and mode.

    Its one derived field, e = d^-1 mod the exponent modulus, serves the
    root checks and the Hensel lift; the key file does not store it.
    """

    factors: FactoredModulus
    d: int
    mode: Mode
    e: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.factors.factors) < 2:
            raise ValueError("need at least two primes")
        if any(p % 2 == 0 or k % 2 == 0 for p, k in self.factors.factors):
            raise ValueError("primes and their exponents must be odd")
        try:
            e = mod_inv(self.d, exponent_modulus(self.factors, self.mode))
        except ImpossibleOperation:
            raise ValueError("d is not coprime to the exponent modulus") from None
        object.__setattr__(self, "e", e)

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

    The modulus size is roughly prime_bits * sum(exponents).  r < 2, other
    than r exponents, an exponent that is even or below 1, and a size above
    MAX_MODULUS_BITS raise ValueError before any prime is drawn.  Colliding
    primes are redrawn; r + PRIME_REDRAWS draws without r distinct primes
    (fewer may have prime_bits bits) raise RandomnessExhausted.
    """
    if r < 2 or len(exponents) != r or any(k < 1 or k % 2 == 0 for k in exponents):
        raise ValueError("need r >= 2 primes and one odd exponent >= 1 for each")
    if prime_bits * sum(exponents) > MAX_MODULUS_BITS:
        raise ValueError(f"modulus exceeds {MAX_MODULUS_BITS} bits")
    primes = []
    for _ in range(r + PRIME_REDRAWS):
        if (p := gen_prime(prime_bits, rng)) not in primes:
            primes.append(p)
        if len(primes) >= r:
            return keypair_from_primes(primes, exponents, e=e, mode=mode)
    raise RandomnessExhausted(f"fewer than {r} distinct {prime_bits}-bit primes drawn")


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
    """CRT decryption plan: (prime p, its exponent k, d and e mod the order).

    Per prime, a Legendre symbol picks the group order mod p, p + 1
    (non-residue D) or p - 1 (residue D).  The ladder runs mod p for every
    factor, a prime power included, so each exponent is below p + 1, even a
    large public one; decrypt_point lifts a root mod p to p^k.  A strict
    key's d inverts e only under the first order, so a residue D raises
    DecryptionFailure naming the prime's index.
    """
    plan = []
    for i, (p, k) in enumerate(sk.factors.factors):
        if jacobi(d_coef % p, p) == -1:
            order = p + 1
        elif sk.mode == Mode.STRICT:
            raise DecryptionFailure(f"strict key: D is not a non-residue mod prime {i}")
        else:
            order = p - 1
        plan.append((p, k, sk.d % order, sk.e % order))
    return plan


def _curve_mod_n(sk, d_coef):
    try:
        return PellParams(sk.n, d_coef % sk.n)
    except ValueError as err:
        raise DecryptionFailure(f"curve coefficient mod N: {err}") from None


def decrypt(sk, ct):
    """Recover (mx, my) from c decompressed onto the curve mod each p^k (not
    mod N); c^2 - D no unit mod p^k raises DecryptionFailure naming p."""
    pp_n = _curve_mod_n(sk, ct.d_coef)
    points = []
    for i, (p, k) in enumerate(sk.factors.factors):
        try:
            points.append(param_to_point(ct.c, PellParams(p**k, pp_n.d % p**k)))
        except ImpossibleOperation:
            raise DecryptionFailure(f"decompression: c^2 - D is no unit mod prime {i}") from None
    return _decrypt_on_curve(sk, points, pp_n)


def decrypt_point(sk, ct):
    """Recover (mx, my) from an uncompressed ciphertext.

    The point must lie on the curve mod N.  Per prime its root mod p is
    taken and checked (_root_mod_prime), a prime power lifts that root to
    p^k, and the coordinates recombine by CRT and must be units mod N.
    """
    pp_n = _curve_mod_n(sk, ct.d_coef)
    c = HyperbolaPoint(ct.cx % sk.n, ct.cy % sk.n)
    if not pp_n.on_curve(*c):
        raise DecryptionFailure("ciphertext point is not on the curve")
    points = [HyperbolaPoint(c.x % p**k, c.y % p**k) for p, k in sk.factors.factors]
    return _decrypt_on_curve(sk, points, pp_n)


def _decrypt_on_curve(sk, points, pp_n):
    roots = []
    for i, (c, (p, k, d_i, e_i)) in enumerate(zip(points, reduced_private_exponents(sk, pp_n.d))):
        pp = PellParams(p, pp_n.d % p)
        root = _root_mod_prime(c, pp, d_i, e_i, i)
        roots.append(_hensel_lift(root, c, pp, p**k, pp_n.d, sk.e, sk.d, i))
    mx, my = crt_combine(roots, [p**k for p, k in sk.factors.factors])
    if not pp_n.on_curve(mx, my):
        raise DecryptionFailure("recovered point is not on the curve")
    if math.gcd(mx * my, sk.n) != 1:
        raise DecryptionFailure("recovered point is not a message: a coordinate is not a unit")
    return MessagePair(mx, my)


def _root_mod_prime(c, pp, d_i, e_i, i):
    """Root c^(d_i) mod the prime p = pp.modulus, checked by its power to e_i.

    c with y = 0 mod p is (+-1, 0), a fixed point of the odd d_i, so no
    message; it is refused before the ladder, which yields x.  The root
    (x, y) raised to e is (T_e(x), y U_{e-1}(x)), and (x, 1) gives (T_e(x),
    U_{e-1}(x)); so T_e(x) = c.x, and y = c.y / U_{e-1}(x) with U a unit as
    c.y is.  A root x = +-1 fails the check: T_e(+-1) = +-1, not c.x.
    """
    p = pp.modulus
    if c.y % p == 0:
        raise DecryptionFailure(f"ladder: the ciphertext has y = 0 mod prime {i}")
    x = point_pow(c.x, d_i, pp)
    t, u = point_pow_nodiv(HyperbolaPoint(x, 1), e_i, pp)
    if t == c.x % p:
        return HyperbolaPoint(x, c.y * mod_inv(u, p) % p)
    raise DecryptionFailure(f"verify: the root's e-th power is not the ciphertext mod prime {i}")


def _hensel_lift(m, c, pp, top, d_coef, e, d, i):
    """Lift the e-th root m of c mod pp.modulus = p to the e-th root mod top.

    Each Newton step goes from a modulus u to q = min(u^3, top), so p^k
    takes ceil(log3 k) steps, and p none.  m's norm is 1 + U mod q with
    u | U, so U^3 = 0 mod q and scaling m by s = 1 - U/2 + 3U^2/8, the
    series of (1 + U)^(-1/2), puts m' on the curve mod q, still m mod u; a
    power m'^e off the curve is a fault and raises, naming prime i.  Then
    E = c * conj(m'^e) has u | y_E: it lies in the kernel of reduction mod
    u, where x = 1 + D y^2/2 mod u^3 and a product's y-coordinate
    y + y' + D y y' (y + y')/2 loses its cubic term, so y-coordinates add
    and the root mod q is m' * (1 + D t^2/2, t) with t = y_E / e = y_E d:
    p^(k-1) divides the exponent modulus, so d = e^-1 mod p^(k-1), and
    p | y_E.  No step divides.
    """
    while pp.modulus < top:
        q = min(pp.modulus**3, top)
        pp, half = PellParams(q, d_coef % q), (q + 1) // 2
        x, y = m
        h = (x * x - pp.d * y * y - 1) * half % q  # U/2
        s = (1 - h + 3 * h * h * half) % q
        x, y = s * x % q, s * y % q
        ex, ey = point_pow_nodiv(HyperbolaPoint(x, y), e, pp)
        if not pp.on_curve(ex, ey):
            raise DecryptionFailure(f"verify: the lifted root's e-th power is off the curve mod prime {i}")
        t = (c.y * ex - c.x * ey) * d % q
        w = (1 + pp.d * t * t * half) % q
        m = HyperbolaPoint((x * w + pp.d * y * t) % q, (y * w + x * t) % q)
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

