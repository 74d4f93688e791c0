"""Key generation, encryption and decryption.

A key is built over N = p1^e1 * ... * pr^er.  A message is a pair
(mx, my) of units mod N; its own curve coefficient D = (mx^2 - 1)/my^2
puts (mx, my) on the hyperbola x^2 - D y^2 = 1.  Encryption raises the
point to the public exponent by pell.chebyshev on mx alone, scaling my by
the U it returns, and compresses the power to its parameter C, which is
m = (mx + 1)/my raised to e; the ciphertext is the pair (C, D).

Decryption exploits the factorization: modulo each prime p the group order
is p + 1 or p - 1 depending on whether D is a non-residue or a residue mod
p, so the private exponent shrinks to the size of one prime per factor, and
the results recombine by CRT.  That reduction is the speedup over two-prime
moduli.  A key's decryption plan (PrivateKey.plan), built with the key like
Garner's CRT coefficients, holds per prime p^k one PlanRow per group order:
p, p^k, the order and d reduced mod it; reduced_private_exponents picks each
prime's row for a D.  One loop over the rows serves both ciphertext kinds,
told apart by class, and never works mod N: per prime the ciphertext becomes
a point on the curve mod p^k, by decompression or reduction, and _root takes
its verified root.  An x-only power mod p (pell.point_pow) yields the root's
x: a row's first use runs the binary Lucas ladder, its second builds the row
a PRAC Lucas chain (pell.lucas_chain), and every later use runs that chain.
The root's power to e mod the prime's order (pell.chebyshev) must give back
the ciphertext's x, and its U yields the root's y, so a fault in one prime's
branch, exponent, ladder or chain raises instead of leaking p through a
wrong plaintext (the Bellcore attack).  The root then lifts to p^k by
ceil(log3 k) cubic Newton steps (Takagi's p^k q decryption), each one power
to e that must stay on the curve, so no ladder runs wider than a prime.  A
DecryptionFailure names its stage and, before CRT, the prime's index;
tests/test_faults.py pins each message.

The paper counts one multiplication per exponent bit on both sides and
predicts a speedup of r^2/2 over two-prime CRT-RSA.  A chain spends about
1.63 products per exponent bit against square-and-multiply RSA's 1.5,
which predicts 1.5/1.63 = 0.92 of r^2/2, and the check's power to e, two
products per bit and per one bit of e past the leading one and one for y
(35 per prime at e = 65537, 3.1% of a 683-bit chain), lowers that from 4.1
to 4.0 for r = 3 (the ladder's 2 per bit predicted 3.3).  With s primes
counted with multiplicity (s = e1 + ... + er), the ladders run at |N|/s
bits, not |N|/r, and the paper's model, where a ladder's cost grows as the
cube of its width, scales r^2/2 by (s/r)^3 to s^3/(2r) (16 for p^3 q).  At
2048 bits the benchmark measures about 2.9 for r = 3 and 6.0 for p^3 q,
with its lifts: a product's cost grows only as about width^1.23 between
512 and 1024 bits, not width^2, so narrower ladders save less.

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

from .arith import MAX_MODULUS_BITS, FactoredModulus, _expect, _ints, crt_coefficients, crt_combine, gen_prime, jacobi, mod_inv
from .errors import (
    BadExponentChoice,
    DecryptionFailure,
    ImpossibleOperation,
    MessageNotEncryptable,
    RandomnessExhausted,
)
from .pell import (
    INFINITY,
    LucasChain,
    PellParams,
    chebyshev,
    lucas_chain,
    param_to_point,
    point_pow,
    point_to_param,
)

DEFAULT_PUBLIC_EXPONENT = 65537
RANDOM_MESSAGE_DRAWS = 1000
PRIME_REDRAWS = 1000


class Mode(Enum):
    STRICT = "strict"
    ROBUST = "robust"


@dataclass(frozen=True)
class PublicKey:
    """n and e, both odd, e >= 3; keypair_from_primes also refuses e = 1 mod
    the exponent modulus, which like e = 1 encrypts every message to itself."""

    n: int
    e: int

    def __post_init__(self):
        # the exponent modulus is even, so an even e has no private d
        if not _ints(self.n, self.e) or self.n < 3 or self.n % 2 == 0 or self.e < 3 or self.e % 2 == 0:
            raise ValueError("public key needs ints: an odd n >= 3 and an odd e >= 3")
        if max(self.n, self.e).bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"n and e may have at most {MAX_MODULUS_BITS} bits")


@dataclass(frozen=True)
class PrivateKey:
    """Factored modulus, private exponent d and mode.

    d must lie in [1, exponent modulus): a larger d decrypts alike but
    makes every Hensel lift step multiply by it.  d = 1 is refused, as its
    e = 1 makes encryption the identity; any other d gives an e >= 3 with
    e != 1 mod the exponent modulus.  Its derived fields are built with the
    key: e = d^-1 mod the exponent modulus, for the root checks and the
    lift; plan, per prime in the key's order {order: PlanRow} for each group
    order the key covers (_group_orders); and garner, the crt_coefficients
    of the p^k, which every CRT reuses.  ==, hash and the key file ignore
    all three, and repr shows only the mode, so a formatted key leaks none.
    """

    factors: FactoredModulus = field(repr=False)
    d: int = field(repr=False)
    mode: Mode
    e: int = field(init=False, repr=False, compare=False)
    plan: tuple = field(init=False, repr=False, compare=False)
    garner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(_expect(self.factors, FactoredModulus).factors) < 2:
            raise ValueError("need at least two primes")
        if any(p % 2 == 0 or k % 2 == 0 for p, k in self.factors.factors):
            raise ValueError("primes and their exponents must be odd")
        if not _ints(self.d):
            raise ValueError("d must be an int")
        lam = exponent_modulus(self.factors, self.mode)
        if not 1 <= self.d < lam:
            raise ValueError("d must lie in [1, exponent modulus)")
        if self.d == 1:
            raise ValueError("d = 1 makes e = 1 mod the exponent modulus: encryption would be the identity")
        try:
            e = mod_inv(self.d, lam)
        except ImpossibleOperation:
            raise ValueError("d is not coprime to the exponent modulus") from None
        object.__setattr__(self, "e", e)
        moduli = [p**k for p, k in self.factors.factors]
        object.__setattr__(self, "plan", tuple(
            {order: PlanRow(p, q, order, self.d % order) for order in _group_orders(p, self.mode)}
            for (p, _), q in zip(self.factors.factors, moduli)))
        object.__setattr__(self, "garner", crt_coefficients(moduli))

    @property
    def n(self):
        return self.factors.value


@dataclass(eq=False, repr=False)
class PlanRow:
    """One group order of a prime p^k: p, q = p^k, the order, d_i = d mod it, a chain slot.

    The first use of a row runs the binary ladder; the second builds a
    Lucas chain for d_i (pell.lucas_chain), which every later use runs.  A
    single decryption, as one `pellrsa decrypt` call makes, so never pays
    for a chain it cannot reuse.  Concurrent decryptions may build a row's
    chain twice or one use late; every chain built for d_i gives the same x.
    Its repr is object's, as p, q, the order and d_i are secret.
    """

    p: int
    q: int
    order: int
    d_i: int
    uses: int = 0
    chain: LucasChain | None = None

    def use(self):
        """Count one use; the chain for it, None while the ladder serves."""
        self.uses += 1
        if self.uses == 2:
            self.chain = lucas_chain(self.d_i)
        return self.chain


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


def _group_orders(p, mode):
    """Group orders mod the prime p that a key's d covers: p + 1 (non-residue
    D) under strict, p + 1 and p - 1 (residue D) under robust."""
    return (p + 1,) if mode is Mode.STRICT else (p + 1, p - 1)


def exponent_modulus(factors, mode):
    """lcm of the per-prime group orders the private exponent must invert e under."""
    _expect(mode, Mode)
    return math.lcm(*(p ** (k - 1) * math.prod(_group_orders(p, mode))
                      for p, k in _expect(factors, FactoredModulus).factors))


def keypair_from_primes(primes, exponents, e=None, mode=Mode.ROBUST):
    """Build a key pair from already-chosen primes.

    Primes must be distinct odd primes, exponents odd and >= 1.  With
    e=None the public exponent is the smallest odd integer >= 65537 coprime
    to the exponent modulus and not 1 mod it; an explicit e that is no odd
    int >= 3 of at most MAX_MODULUS_BITS bits coprime to the exponent
    modulus, or that is 1 mod it and so encrypts every message to itself,
    raises BadExponentChoice; a mode that is no Mode member ValueError first.
    """
    _expect(mode, Mode)
    factors = FactoredModulus(zip(_expect(primes, list, tuple), _expect(exponents, list, tuple), strict=True))
    lam = exponent_modulus(factors, mode)
    _refuse_unusable_e(e, lam)
    if e is None:
        e = DEFAULT_PUBLIC_EXPONENT
        while math.gcd(e, lam) != 1 or e % lam == 1:
            e += 2
    d = mod_inv(e, lam)
    return PublicKey(factors.value, e), PrivateKey(factors, d, mode)


def _refuse_unusable_e(e, lam=None):
    """BadExponentChoice for an explicit e no key takes; without lam, only type, parity, width and e < 3 count."""
    if e is not None and (not _ints(e) or e < 3 or e % 2 == 0 or e.bit_length() > MAX_MODULUS_BITS
                          or lam is not None and (math.gcd(e, lam) != 1 or e % lam == 1)):
        raise BadExponentChoice("e unusable (gcd with exponent modulus != 1, e = 1 mod it, e < 3 odd, or too wide)")


def keygen(r, exponents, prime_bits, rng, e=None, mode=Mode.ROBUST):
    """Generate a key over r fresh primes of prime_bits bits each.

    The modulus size is roughly prime_bits * sum(exponents).  An r,
    prime_bits or exponent that is no int (arith's rule), r < 2, other
    than r exponents, an exponent that is even or below 1, a size above
    MAX_MODULUS_BITS or a non-Mode mode raise ValueError, and an e no key
    takes BadExponentChoice (its type, parity, width and e < 3), before any
    prime is drawn.  A robust key's e must also be coprime to every p^2 - 1
    (keypair_from_primes), so e = 3, which divides p^2 - 1 for every prime
    p > 3, is never accepted.  Colliding primes are redrawn; r + PRIME_REDRAWS
    draws without r distinct primes (fewer may have prime_bits bits) raise
    RandomnessExhausted.
    """
    if (not _ints(r, prime_bits, *_expect(exponents, list, tuple)) or r < 2 or len(exponents) != r
            or any(k < 1 or k % 2 == 0 for k in exponents)):
        raise ValueError("need ints: r >= 2 primes, prime_bits and one odd exponent >= 1 for each")
    if prime_bits * sum(exponents) > MAX_MODULUS_BITS:
        raise ValueError(f"modulus exceeds {MAX_MODULUS_BITS} bits")
    _expect(mode, Mode)
    _refuse_unusable_e(e)
    primes = []
    for _ in range(r + PRIME_REDRAWS):
        if (p := gen_prime(prime_bits, rng)) not in primes:
            primes.append(p)
        if len(primes) >= r:
            return keypair_from_primes(primes, exponents, e=e, mode=mode)
    raise RandomnessExhausted(f"fewer than {r} distinct {prime_bits}-bit primes drawn")


def validate_message(pk, msg, mode=Mode.ROBUST):
    """Check encryptability and derive the curve coefficient D.

    msg must be a MessagePair whose coordinates are units in [0, N): a larger
    one would decrypt to its residue, not to the message sent.  Both modes
    demand gcd(mx^2 - 1, N) = 1; strict also demands Jacobi(mx^2 - 1, N) = -1,
    so only strict computes a Jacobi symbol.  Returns D = (mx^2 - 1)/my^2 mod
    N; a pk that is no PublicKey or a non-Mode mode raises ValueError first.
    """
    if reason := _unencryptable(msg, _expect(pk, PublicKey).n, _expect(mode, Mode)):
        raise MessageNotEncryptable(reason)
    return (msg.mx * msg.mx - 1) * mod_inv(msg.my * msg.my % pk.n, pk.n) % pk.n


def _unencryptable(msg, n, mode):
    """Why validate_message refuses msg mod n under mode, or None; no inversion."""
    mx, my = (msg.mx, msg.my) if type(msg) is MessagePair else (None, None)
    if not _ints(mx, my) or not (0 <= mx < n and 0 <= my < n):
        return "mx and my must be ints in [0, N)"
    if math.gcd(mx * my, n) != 1:
        return "mx or my is not a unit mod N"
    t = (mx * mx - 1) % n
    if math.gcd(t, n) != 1:
        return "mx^2 - 1 is not a unit mod N"
    if mode is Mode.STRICT and jacobi(t, n) != -1:
        return "Jacobi(mx^2 - 1, N) != -1"
    return None


def encrypt(pk, msg, mode=Mode.ROBUST):
    """Compressed encryption: C = (m raised to e) with m = (mx + 1)/my, as the
    parameter of the point ciphertext.  Raises ImpossibleOperation when that
    point's y is no unit, which a robust key's e rules out."""
    ct = encrypt_point(pk, msg, mode)
    c = point_to_param(ct.cx, ct.cy, pk.n)
    if c is INFINITY:
        # message point order divides e; only conceivable for toy primes
        raise MessageNotEncryptable("message parameter collapses to the identity")
    return Ciphertext(c, ct.d_coef)


def encrypt_point(pk, msg, mode=Mode.ROBUST):
    """Uncompressed encryption: the message point raised to e, no division."""
    d_coef = validate_message(pk, msg, mode)
    cx, u = chebyshev(msg.mx, pk.e, pk.n)
    return PointCiphertext(cx, msg.my * u % pk.n, d_coef)


def reduced_private_exponents(sk, d_coef):
    """The plan's own PlanRow per prime for D, in the key's order.

    Per prime, the group order mod p is p - Jacobi(D, p): p + 1 for a
    non-residue D, p - 1 for a residue.  The ladder runs mod p for every
    factor, a prime power included, so each reduced exponent is below p + 1;
    the root mod p lifts to p^k afterwards.  An order the key's d does not
    cover (no row in sk.plan) raises DecryptionFailure naming the prime's
    index: a residue D under a strict key, or D = 0 mod p; a non-int D, first.
    """
    if not _ints(d_coef):
        raise DecryptionFailure("plan: D must be an int")
    rows = []
    for i, ((p, _), by_order) in enumerate(zip(_expect(sk, PrivateKey).factors.factors, sk.plan)):
        row = by_order.get(p - jacobi(d_coef % p, p))
        if row is None:
            raise DecryptionFailure(f"plan: the {sk.mode.value} key covers no group order of D mod prime {i}")
        rows.append(row)
    return rows


def decrypt(sk, ct):
    """Recover (mx, my) from c, decompressed onto the curve mod each p^k,
    never mod N; c^2 - D no unit mod p^k raises naming the prime."""
    return _decrypt(sk, ct, Ciphertext)


def decrypt_point(sk, ct):
    """Recover (mx, my) from a point ciphertext, reduced mod each p^k; a
    point off the curve mod p^k raises naming the prime."""
    return _decrypt(sk, ct, PointCiphertext)


def _decrypt(sk, ct, kind):
    """One loop over the plan of the PrivateKey sk for a ciphertext of the class
    kind, refusing any other key or object and any field outside [0, N), which
    the ciphertext of no message has: per prime it becomes a point mod p^k,
    which must lie on the curve, _root takes its verified root mod p^k through
    the prime's row, and CRT under the key's Garner coefficients, which must
    invert its moduli, must give a message on the curve mod N."""
    for obj, cls in ((sk, PrivateKey), (ct, kind)):
        if type(obj) is not cls:
            raise DecryptionFailure(f"plan: expected a {cls.__name__}, got a {type(obj).__name__}")
    if not all(_ints(v) and 0 <= v < sk.n for v in vars(ct).values()):
        raise DecryptionFailure("plan: ciphertext fields must be ints in [0, N)")
    d_coef, roots = ct.d_coef, []
    rows = reduced_private_exponents(sk, d_coef)
    for i, row in enumerate(rows):
        q, dq = row.q, d_coef % row.q
        try:
            cx, cy = param_to_point(ct.c, q, dq) if kind is Ciphertext else (ct.cx % q, ct.cy % q)
        except ImpossibleOperation:
            raise DecryptionFailure(f"decompression: c^2 - D is no unit mod prime {i}") from None
        if (cx * cx - dq * cy * cy) % q != 1:
            raise DecryptionFailure(f"curve: the ciphertext point is off the curve mod prime {i}")
        roots.append(_root(cx, cy, dq, row, sk, i))
    try:
        mx, my = crt_combine(roots, [row.q for row in rows], sk.garner)
    except ValueError:
        raise DecryptionFailure("crt: the key's Garner coefficients do not invert its moduli") from None
    if (mx * mx - d_coef * my * my) % sk.n != 1:
        raise DecryptionFailure("crt: the recovered point is not on the curve")
    if math.gcd(mx * my, sk.n) != 1:
        raise DecryptionFailure("crt: the recovered point is not a message: a coordinate is not a unit")
    return MessagePair(mx, my)


def _root(cx, cy, dq, row, sk, i):
    """The e-th root (x, y) of c = (cx, cy) on x^2 - dq y^2 = 1 mod row.q = p^k,
    for sk's e and d, checked mod p by its power to e, then lifted to p^k.

    c with cy = 0 mod p is (+-1, 0), a fixed point of the odd d_i, so no
    message; it is refused before the row counts a use (PlanRow.use) and
    before the power mod p, which yields x: the ladder, or the row's chain,
    whose exponent must be d_i.  The root (x, y) raised to e is
    (T_e(x), y U_{e-1}(x)), so T_e(x) = cx, and y = cy / U_{e-1}(x) with U
    a unit as cy is.  T_k of a point is periodic in k mod its order, so the
    check raises to e mod the order, below p + 2 for any e.  A root x = +-1
    fails the check: T_e(+-1) = +-1, not cx.

    Each Newton step then lifts the root m = (x, y) mod u to q = min(u^3, p^k),
    so p^k takes ceil(log3 k) steps, and p none.  m's norm is 1 + U mod q with
    u | U, so U^3 = 0 mod q and scaling m by s = 1 - U/2 + 3U^2/8, the
    series of (1 + U)^(-1/2), puts m' on the curve mod q, still m mod u; a
    power m'^e off the curve is a fault and raises, naming prime i; it
    raises to e mod p^(k-1) * order, the group order mod p^k.  Then
    E = c * conj(m'^e) has u | y_E: it lies in the kernel of reduction mod
    u, where x = 1 + D y^2/2 mod u^3 and a product's y-coordinate
    y + y' + D y y' (y + y')/2 loses its cubic term, so y-coordinates add
    and the root mod q is m' * (1 + D t^2/2, t) with t = y_E / e = y_E d:
    p^(k-1) divides the exponent modulus, so d = e^-1 mod p^(k-1), and
    p | y_E.  No step divides.
    """
    p, d_i, order = row.p, row.d_i, row.order
    if cy % p == 0:
        raise DecryptionFailure(f"ladder: the ciphertext has y = 0 mod prime {i}")
    if (chain := row.use()) is not None and chain.k != d_i:
        raise DecryptionFailure(f"verify: the row's chain raises to another exponent than d_i mod prime {i}")
    x = point_pow(cx, d_i, PellParams(p, dq % p), chain=chain)
    t, u = chebyshev(x, sk.e % order, p)
    if t != cx % p:
        raise DecryptionFailure(f"verify: the root's e-th power is not the ciphertext mod prime {i}")
    y, q = cy * mod_inv(u, p) % p, p
    e = sk.e % (row.q // p * order)
    while q < row.q:
        q = min(q**3, row.q)
        half = (q + 1) // 2
        h = (x * x - dq * y * y - 1) * half % q  # U/2
        s = (1 - h + 3 * h * h * half) % q
        x, y = s * x % q, s * y % q
        ex, v = chebyshev(x, e, q)
        ey = y * v % q
        if (ex * ex - dq * ey * ey) % q != 1:
            raise DecryptionFailure(f"verify: the lifted root's e-th power is off the curve mod prime {i}")
        t = (cy * ex - cx * ey) * sk.d % q
        w = (1 + dq * t * t * half) % q
        x, y = (x * w + dq * y * t) % q, (y * w + x * t) % q
    return x, y


def random_message(pk, rng, mode=Mode.ROBUST):
    """Uniformly drawn encryptable message pair, at most RANDOM_MESSAGE_DRAWS tries,
    computing no D; a pk that is no PublicKey or a non-Mode mode raises ValueError first."""
    _expect(mode, Mode)
    if _expect(pk, PublicKey).n == 3:
        raise RandomnessExhausted("no residue in [2, n - 2] to draw mod 3")
    for _ in range(RANDOM_MESSAGE_DRAWS):
        msg = MessagePair(rng.randrange(2, pk.n - 1), rng.randrange(2, pk.n - 1))
        if _unencryptable(msg, pk.n, mode) is None:
            return msg
    # e.g. mod any multiple of 3 no message is encryptable
    raise RandomnessExhausted(f"no encryptable message in {RANDOM_MESSAGE_DRAWS} draws")

