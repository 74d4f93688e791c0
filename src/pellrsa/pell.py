"""Group law on the Pell hyperbola x^2 - D*y^2 = 1 and its line parametrization.

Two views of the same cyclic structure are implemented:

* points (x, y) on the curve under the division-free Brahmagupta product
  (x, y)*(w, z) = (xw + D yz, yw + xz);
* compressed parameters m = (1 + x)/y (slope of the line through (-1, 0)),
  living in Z_n plus one extra identity element at infinity, multiplied by
  m1 * m2 = (D + m1 m2)/(m1 + m2).

Over a composite modulus the parameter product is only partial: a denominator
sharing a factor with the modulus aborts the operation and leaks that factor
(ImpossibleOperation).  Point powers never divide and read only x: the
x-only Lucas ladder (point_pow on arith.lucas_v) takes decryption's and
factoring's long powers, and the Chebyshev chain (point_pow_nodiv)
encryption's and decryption's short ones to e.  lucas_v also runs the
Lucas half of arith.is_probable_prime, so one ladder serves decryption,
factoring and primality.  param_mul, param_pow and the Redei-pair power
redei_pow (one division at the end) have no library caller: they serve the
tests of the paper's definitions and the benchmark's traces.
"""

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .arith import lucas_v, mod_inv
from .errors import ImpossibleOperation


class _AtInfinity:
    """Identity of the parameter product; image of the point (1, 0)."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return isinstance(other, _AtInfinity)

    def __hash__(self):
        return hash("pell-parameter-at-infinity")


INFINITY = _AtInfinity()


class HyperbolaPoint(NamedTuple):
    x: int
    y: int


class RedeiPair(NamedTuple):
    """Coefficients (a, b) of (z + sqrt(D))^k = a + b*sqrt(D) mod the modulus."""

    a: int
    b: int


@dataclass(frozen=True)
class PellParams:
    """Ambient setting: modulus n and the Pell coefficient D of x^2 - D y^2 = 1.

    D must be a unit mod n; a message brings its own D, which may be a
    residue mod some prime factors and a non-residue mod others.
    """

    modulus: int
    d: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if not 1 <= self.d < self.modulus:
            raise ValueError("coefficient must lie in [1, modulus)")
        if gcd(self.d, self.modulus) != 1:
            raise ValueError("coefficient must be a unit mod the modulus")

    def on_curve(self, x, y):
        return (x * x - self.d * y * y) % self.modulus == 1 % self.modulus

    def point(self, x, y):
        """Validated curve point; raises ValueError off the curve."""
        x, y = x % self.modulus, y % self.modulus
        if not self.on_curve(x, y):
            raise ValueError(f"({x}, {y}) is not on the curve")
        return HyperbolaPoint(x, y)

    def identity(self):
        return HyperbolaPoint(1 % self.modulus, 0)


def point_pow(x, k, pp):
    """x-coordinate of the k-th power of an on-curve point with x-coordinate x.

    x_k = T_k(x), the Chebyshev polynomial, whatever the curve's D, so only
    pp.modulus is read.  V_k = 2 x_k is a Lucas sequence with V_1 = 2x and
    Q = 1, and arith.lucas_v's ladder takes it in two multiplications per
    exponent bit (ladder_cost), never dividing.  Mod 2n every V_k is 2 x_k
    plus a multiple of 2n, so a shift halves it exactly, for even n too.
    """
    if k < 0:
        raise ValueError("exponent must be >= 0")
    return lucas_v(2 * x, k, 2 * pp.modulus)[0] >> 1


def point_pow_nodiv(p, k, pp):
    """k-th power (T_k(x), y U_{k-1}(x)) of an on-curve point; no division.

    A Chebyshev chain reads only x and pp.modulus: a squaring (2T^2 - 1,
    2TU) costs two multiplications, a multiply step U' = T + xU,
    T' = xU' - U two (product_ladder_cost).  Encryption powers mod the
    composite N with it, and decryption to e: each prime's root check on
    (x, 1), giving (T_e(x), U_{e-1}(x)), and the Hensel lift.
    """
    if k < 0:
        raise ValueError("exponent must be >= 0")
    n = pp.modulus
    if k == 0:
        return pp.identity()
    x = p.x % n
    t, u = x, 1
    for bit in bin(k)[3:]:
        t, u = (2 * t * t - 1) % n, 2 * t * u % n
        if bit == "1":
            v = (t + x * u) % n
            t, u = (x * v - u) % n, v
    return HyperbolaPoint(t, p.y * u % n)


def ladder_cost(k):
    """Modular multiplications of point_pow's ladder for an exponent k >= 1.

    One for V_2 = V_1^2 - 2, then two per exponent bit after the leading one,
    and no inversion; decryption's y costs product_ladder_cost(e) and one.
    """
    return 2 * (k.bit_length() - 1) + 1


def product_ladder_cost(k):
    """Modular multiplications of point_pow_nodiv for an exponent k >= 1.

    Two per squaring, two per multiply step; one more scales y by U at the end.
    """
    return 2 * (k.bit_length() - 1) + 2 * (k.bit_count() - 1) + 1


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


def point_to_param(p, pp):
    """Compress a point to its parameter (1 + x)/y.

    (1, 0) maps to INFINITY and (-1, 0) to 0.  A non-invertible y (or an
    x with x^2 = 1, x != +-1, possible only against a composite modulus)
    raises ImpossibleOperation with the revealed factor.
    """
    n = pp.modulus
    x, y = p.x % n, p.y % n
    if y == 0:
        if x == 1 % n:
            return INFINITY
        if x == n - 1:
            return 0
        # x^2 = 1 with x != +-1: gcd(x + 1, n) is a proper factor.
        raise ImpossibleOperation(gcd(x + 1, n))
    return (1 + x) * mod_inv(y, n) % n


def param_to_point(m, pp):
    """Decompress a parameter to ((m^2 + D)/(m^2 - D), 2m/(m^2 - D)).

    INFINITY maps to (1, 0).  Raises ImpossibleOperation when m^2 - D is
    not invertible.
    """
    n, d = pp.modulus, pp.d
    if isinstance(m, _AtInfinity):
        return pp.identity()
    m %= n
    den = (m * m - d) % n
    inv = mod_inv(den, n)
    return HyperbolaPoint((m * m + d) * inv % n, 2 * m * inv % n)


def redei_eval(d, z, k, modulus):
    """Redei polynomial pair (A_k, B_k) for z, reduced mod the modulus.

    Defined by (z + sqrt(D))^k = A_k + B_k sqrt(D), i.e. the entries of the
    k-th power of the matrix [[z, D], [1, z]].  Computed by binary powering
    of the (A, B) pair, so O(log k) ring operations and no division at all;
    the rational value A_k/B_k equals the k-fold parameter product of z.
    """
    if k < 1:
        raise ValueError("exponent must be >= 1")
    n = modulus
    z %= n
    d %= n
    a, b = z, 1 % n
    for bit in bin(k)[3:]:
        a, b = (a * a + d * b * b) % n, 2 * a * b % n
        if bit == "1":
            a, b = (a * z + d * b) % n, (a + b * z) % n
    return RedeiPair(a, b)


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
    out = 1
    for p, e in fm.factors:
        out *= p ** (e - 1) * (p + 1)
    return out

