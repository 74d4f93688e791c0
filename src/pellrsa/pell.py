"""Group law on the Pell hyperbola x^2 - D*y^2 = 1 and its line parametrization.

Two views of the same cyclic structure are implemented:

* points, bare (x, y) int pairs on the curve, under the division-free
  Brahmagupta product (x, y)*(w, z) = (xw + D yz, yw + xz);
* compressed parameters m = (1 + x)/y (slope of the line through (-1, 0)),
  living in Z_n plus one extra identity element at infinity, multiplied by
  m1 * m2 = (D + m1 m2)/(m1 + m2).

Over a composite modulus the parameter product is only partial: a denominator
sharing a factor with the modulus aborts the operation and leaks that factor
(ImpossibleOperation).  Point powers never divide and read only x:
point_pow takes decryption's and factoring's long powers, and chebyshev, on
a bare residue and modulus, encryption's and decryption's short ones to e
with U for the caller's y.  point_pow runs the x-only Lucas ladder
arith.lucas_v for an exponent it sees once, as factoring and primality do,
and a LucasChain (Montgomery's PRAC, built by lucas_chain) for an exponent
a decryption plan reuses.  point_to_param(x, y, n) compresses encryption's
power, as it never reads D, and param_to_point(m, n, d) decompresses a
ciphertext mod each prime power to its pair (x, y).
param_mul, param_pow and the Redei-pair power redei_pow (redei_eval's pair
(a, b), one division at the end) have no library caller: they serve the
benchmark's traces and the one table in tests/test_pell.py that checks
every route to a point's k-th power, and both maps, against one product
oracle.
"""

from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import NamedTuple

from .arith import _expect, _ints, lucas_v, mod_inv
from .errors import ImpossibleOperation


@dataclass(frozen=True)
class _AtInfinity:
    """Identity of the parameter product; image of the point (1, 0)."""

    def __repr__(self):
        return "INFINITY"


INFINITY = _AtInfinity()


@dataclass(frozen=True)
class PellParams:
    """Ambient setting: modulus n and the Pell coefficient D of x^2 - D y^2 = 1.

    D must be a unit mod n; a message brings its own D, which may be a
    residue mod some prime factors and a non-residue mod others.
    """

    modulus: int
    d: int

    def __post_init__(self):
        if not _ints(self.modulus, self.d) or self.modulus < 2:
            raise ValueError("need ints: a modulus >= 2 and a coefficient")
        if not 1 <= self.d < self.modulus:
            raise ValueError("coefficient must lie in [1, modulus)")
        if gcd(self.d, self.modulus) != 1:
            raise ValueError("coefficient must be a unit mod the modulus")


def point_pow(x, k, pp, chain=None):
    """x-coordinate of the k-th power of an on-curve point with x-coordinate x.

    x_k = T_k(x), the Chebyshev polynomial, whatever the curve's D, so only
    pp.modulus is read.  V_k = 2 x_k is a Lucas sequence with V_1 = 2x and
    Q = 1.  Without a chain, arith.lucas_v's ladder takes it in two products
    per exponent bit (ladder_cost); a LucasChain built for k (lucas_chain)
    in about 1.63; one for another k, k < 0, a non-int x or k, or a pp or chain
    of another class raise ValueError.  Neither divides.  Mod 2n every V_k is
    2 x_k plus a multiple of 2n, so a shift halves it exactly, for even n too.
    """
    if not _ints(x, k) or k < 0:
        raise ValueError("need ints: x and an exponent >= 0")
    if chain is None:
        return lucas_v(2 * x, k, 2 * _expect(pp, PellParams).modulus)[0] >> 1
    if not _ints(_expect(chain, LucasChain).k) or chain.k != k:
        raise ValueError("the chain was built for another exponent")
    return chain.run(2 * x, 2 * _expect(pp, PellParams).modulus) >> 1


class LucasChain(NamedTuple):
    """A differential addition chain for V_k, as register operations.

    Register 0 holds V_0 = 2 and register 1 holds V_1 = v; op j, a triple
    (a, b, c) of earlier registers, fills register j + 2 with
    V_a V_b - V_c, which is V_(a+b) when c holds V_(a-b) and V_(a-b) when c
    holds V_(a+b) (indices up to sign, as V_-n = V_n).  A doubling is
    (a, a, 0): V_a^2 - 2.  The last register holds V_k.
    """

    k: int
    ops: tuple

    def run(self, v, m):
        """V_k mod m of the Lucas sequence V_0 = 2, V_1 = v with Q = 1, one
        product per op; a v or m that is no int, or m < 2, raises ValueError."""
        if not _ints(v, m) or m < 2:
            raise ValueError("v and m must be ints, m >= 2")
        regs = [2, v % m]
        for a, b, c in self.ops:
            regs.append((regs[a] * regs[b] - regs[c]) % m)
        return regs[-1]

    def proved_index(self):
        """The n whose V_n the last register holds, proved op by op.

        Raises ValueError for an op whose third register holds neither the
        difference nor the sum of the indices of the other two.
        """
        idx = [0, 1]
        for a, b, c in self.ops:
            s, t = idx[a] + idx[b], abs(idx[a] - idx[b])
            if idx[c] == t:
                idx.append(s)
            elif idx[c] == s:
                idx.append(t)
            else:
                raise ValueError(f"op {len(idx) - 2} is no Lucas step: V_{idx[c]} beside V_{idx[a]} and V_{idx[b]}")
        return idx[-1]


# candidate splits lucas_chain tries around the golden one before giving up
CHAIN_SPLITS = 16


def lucas_chain(k):
    """Montgomery's PRAC chain for V_k, or None where none beats the ladder.

    P. L. Montgomery, "Evaluating recurrences of form X_(m+n) =
    f(X_m, X_n, X_(m-n)) via Lucas chains", 1992.  PRAC starts from a split
    k = (k - r) + r with r near k/phi, r = (isqrt(5 k^2) - k) // 2; the
    chain reaches V_k only when gcd(r, k) = 1, so r, r + 1, r - 1, ... are
    tried in turn, CHAIN_SPLITS of them, up to the first coprime one.  Its
    chain is returned only when its proved_index() is k and it is shorter
    than ladder_cost(k), which refuses a k no int >= 1 first.  A chain
    takes about 1.63 products per exponent bit, one in ten a squaring.
    """
    cost, golden = ladder_cost(k), (isqrt(5 * k * k) - k) // 2
    for s in range(CHAIN_SPLITS):
        r = golden + (s + 1) // 2 * (1 if s % 2 else -1)
        if k < 2 * r < 2 * k and gcd(r, k) == 1:
            chain = LucasChain(k, _prac(k, r))
            return chain if chain.proved_index() == k and len(chain.ops) < cost else None
    return None


def _prac(k, r):
    """The ops of Montgomery's PRAC table for k split at r, k/2 < r < k.

    Registers a, b and c hold V_i, V_j and V_(i-j) while k = d i + e j.
    Each pass applies the first of the table's nine rules whose condition
    holds, which shrinks d + e, so the loop ends, at d = e = gcd(r, k);
    V_(i+j) is then the last op.  Swaps rename registers and cost nothing.
    """
    ops = []

    def add(x, y, z):
        ops.append((x, y, z))
        return len(ops) + 1

    d, e = k - r, 2 * r - k
    b = c = 1
    a = add(1, 1, 0)
    while d != e:
        if d < e:
            d, e, a, b = e, d, b, a
        if 4 * d <= 5 * e and (d + e) % 3 == 0:
            d, e = (2 * d - e) // 3, (2 * e - d) // 3
            t = add(a, b, c)
            a, b = add(t, a, b), add(b, t, a)
        elif 4 * d <= 5 * e and (d - e) % 6 == 0:
            d = (d - e) // 2
            a, b = add(a, a, 0), add(a, b, c)
        elif d <= 4 * e:
            d -= e
            b, c = add(b, a, c), b
        elif (d - e) % 2 == 0:
            d = (d - e) // 2
            a, b = add(a, a, 0), add(b, a, c)
        elif d % 2 == 0:
            d //= 2
            a, c = add(a, a, 0), add(c, a, b)
        elif d % 3 == 0:
            d = d // 3 - e
            t, u = add(a, a, 0), add(a, b, c)
            a, b, c = add(t, a, a), add(t, u, c), b
        elif (d + e) % 3 == 0:
            d = (d - 2 * e) // 3
            b = add(add(a, b, c), a, b)
            a = add(add(a, a, 0), a, a)
        elif (d - e) % 3 == 0:
            d = (d - e) // 3
            b, c = add(a, b, c), add(c, a, b)
            a = add(add(a, a, 0), a, a)
        else:
            e //= 2
            b, c = add(b, b, 0), add(c, b, a)
    add(a, b, c)
    return tuple(ops)


def chebyshev(x, k, n):
    """(T_k(x), U_{k-1}(x)) mod n for ints x, k >= 1, n >= 2, never dividing.

    The k-th power of an on-curve point (x, y) is (T_k(x), y U_{k-1}(x))
    whatever the curve's D, so the caller scales y by U.  A squaring
    (2T^2 - 1, 2TU) costs two multiplications, a multiply step U' = T + xU,
    T' = xU' - U two.  Encryption powers mod N with it, and decryption to e:
    each prime's root check and each Hensel lift step.

        >>> chebyshev(2, 3, 1000)
        (26, 15)
    """
    if not _ints(x, k, n) or k < 1 or n < 2:
        raise ValueError("need ints: exponent >= 1 and modulus >= 2")
    x %= n
    t, u = x, 1
    for bit in bin(k)[3:]:
        t, u = (2 * t * t - 1) % n, 2 * t * u % n
        if bit == "1":
            v = (t + x * u) % n
            t, u = (x * v - u) % n, v
    return t, u


def ladder_cost(k):
    """Modular multiplications of point_pow's ladder for an int k >= 1, else ValueError.

    One for V_2 = V_1^2 - 2, then two per exponent bit after the leading one,
    and no inversion; a root's y adds chebyshev's power to e (two per bit of
    e and two per one bit, both after the leading one), one product that
    scales y by U, and an inversion.  A LucasChain costs len(chain.ops).
    """
    if not _ints(k) or k < 1:
        raise ValueError("exponent must be an int >= 1")
    return 2 * (k.bit_length() - 1) + 1


def param_mul(a, b, pp):
    """Parameter product (D + ab)/(a + b); INFINITY is the identity.

    a + b = 0 mod n yields INFINITY (b is the inverse of a).  A denominator
    that is a zero divisor raises ImpossibleOperation carrying the factor of
    the modulus it reveals.
    """
    if isinstance(a, _AtInfinity):
        return b
    if isinstance(b, _AtInfinity):
        return a
    n = pp.modulus
    s = (a + b) % n
    if s == 0:
        return INFINITY
    return (pp.d + a * b) * mod_inv(s, n) % n


def param_pow(m, k, pp):
    """k-fold parameter product by square-and-multiply; k = 0 gives INFINITY.

    Every step divides, so over a composite modulus this can raise
    ImpossibleOperation mid-chain even when the final power exists; the
    Redei evaluation (redei_pow) avoids that.
    """
    if k < 0:
        raise ValueError("exponent must be >= 0")
    if k == 0 or isinstance(m, _AtInfinity):
        return INFINITY if k == 0 else m
    r = m % pp.modulus
    base = r
    for bit in bin(k)[3:]:
        r = param_mul(r, r, pp)
        if bit == "1":
            r = param_mul(r, base, pp)
    return r


def point_to_param(x, y, n):
    """Compress the point (x, y) mod n to its parameter (1 + x)/y, whatever the curve's D.

    (1, 0) maps to INFINITY and (-1, 0) to 0.  A y that is no unit (or x^2 = 1
    with x != +-1, possible only against a composite modulus) raises
    ImpossibleOperation with the revealed factor; non-ints or n < 2 ValueError.
    """
    if not _ints(x, y, n) or n < 2:
        raise ValueError("need ints: x, y and a modulus >= 2")
    x, y = x % n, y % n
    if y == 0:
        if x == 1:
            return INFINITY
        if x == n - 1:
            return 0
        # x^2 = 1 with x != +-1: gcd(x + 1, n) is a proper factor.
        raise ImpossibleOperation(gcd(x + 1, n))
    return (1 + x) * mod_inv(y, n) % n


def param_to_point(m, n, d):
    """Decompress a parameter m mod n onto x^2 - d y^2 = 1 as the pair
    (x, y) = ((m^2 + d)/(m^2 - d), 2m/(m^2 - d)).

    INFINITY maps to (1, 0).  m^2 - d no unit mod n raises ImpossibleOperation;
    an m neither int nor INFINITY, a non-int n or d, or n < 2 ValueError.
    """
    if not _ints(n, d) or not (isinstance(m, _AtInfinity) or _ints(m)) or n < 2:
        raise ValueError("need an int or INFINITY m, and ints: n >= 2 and d")
    if isinstance(m, _AtInfinity):
        return 1, 0
    m %= n
    inv = mod_inv(m * m - d, n)
    return (m * m + d) * inv % n, 2 * m * inv % n


def redei_eval(d, z, k, modulus):
    """Redei polynomial pair (A_k, B_k) for z, reduced mod the modulus, as a tuple.

    Defined by (z + sqrt(D))^k = A_k + B_k sqrt(D), i.e. the entries of the
    k-th power of the matrix [[z, D], [1, z]].  Computed by binary powering
    of the (A, B) pair, so O(log k) ring operations and no division at all;
    the rational value A_k/B_k equals the k-fold parameter product of z.
    """
    if not _ints(d, z, k, modulus) or k < 1 or modulus < 2:
        raise ValueError("need ints: d, z, an exponent >= 1 and a modulus >= 2")
    n = modulus
    z %= n
    d %= n
    a, b = z, 1 % n
    for bit in bin(k)[3:]:
        a, b = (a * a + d * b * b) % n, 2 * a * b % n
        if bit == "1":
            a, b = (a * z + d * b) % n, (a + b * z) % n
    return a, b


def redei_pow(m, k, pp):
    """k-fold parameter product evaluated through the Redei pair.

    Single division at the end: B_k = 0 means the power is INFINITY, a
    zero-divisor B_k raises ImpossibleOperation with the revealed factor.
    Agrees with param_pow wherever the latter is defined.
    """
    if k < 0:
        raise ValueError("exponent must be >= 0")
    if k == 0 or isinstance(m, _AtInfinity):
        return INFINITY if k == 0 else m
    a, b = redei_eval(pp.d, m, k, pp.modulus)
    if b == 0:
        return INFINITY
    return a * mod_inv(b, pp.modulus) % pp.modulus


def psi(fm):
    """Totient analog prod p^(e-1) * (p + 1) over the factored modulus.

    Annihilates the parameter group: m ** psi = INFINITY for every unit m
    when the coefficient is a non-residue mod each prime.
    """
    return prod(p ** (e - 1) * (p + 1) for p, e in fm.factors)

