"""The pell group's tests, and the one table of every route to a point's k-th power.

ROUTES holds each route to pt^k and the families of curves in CURVES it
runs on: point_pow's ladder on every curve that raises points; point_pow
with lucas_chain(k), chebyshev with y scaled by U, and param_pow and
redei_pow through point_to_param and param_to_point on p^1 (p <= 13) and
the seeded primes 13..1009, the chain and chebyshev also mod 10, and
chebyshev on the sampled p^3; LucasChain.run on bare moduli of any
parity.  IDENTITIES holds the group laws of both products, the bijection
and homomorphism of point_to_param and param_to_point, and the power laws:
the group order p - (D/p) annihilates and exponents add.

One oracle judges every row.  Below 2^16 it reads pt^k off the cycle of
repeated Brahmagupta products that pt lies on; at crypto sizes, where no
cycle can be walked, it is agreement with chebyshev's route, chain_pow,
which the small curves and the power laws judge; on a bare modulus it is
arith.lucas_v.  A public pell function that no row runs fails the
completeness test unless EXEMPT names it.  Outside the table stay the
frozen examples and special values, the factor leaks, BAD_KERNEL_CALLS,
the Tallied count pins, the chain-construction and Redei-definition tests
and the exhaustive decryption root step.
"""

import copy
import functools
import inspect
import itertools
import math
import pickle
import random
import types
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import arith, pell, scheme
from pellrsa.arith import FactoredModulus, gen_prime, is_probable_prime, jacobi, lucas_v, mod_inv
from pellrsa.errors import ImpossibleOperation
from pellrsa.pell import (
    INFINITY,
    LucasChain,
    PellParams,
    chebyshev,
    ladder_cost,
    lucas_chain,
    param_mul,
    param_pow,
    param_to_point,
    point_pow,
    point_to_param,
    psi,
    redei_eval,
    redei_pow,
)
from oracles import HyperbolaPoint, on_curve

PP35 = PellParams(35, 18)  # D=18 is a non-residue mod 5, a residue mod 7
PP5 = PellParams(5, 2)


# ---- independent oracles ----

def point_mul(p, q, pp):
    """Brahmagupta product (xw + D yz, yw + xz); division-free."""
    n, d = pp.modulus, pp.d
    x, y = p
    w, z = q
    return HyperbolaPoint((x * w + d * y * z) % n, (y * w + x * z) % n)


@functools.lru_cache(maxsize=4)
def _square_table(n):
    table = {}
    for x in range(n):
        table.setdefault(x * x % n, []).append(x)
    return table


def enumerate_hyperbola(p, r, d):
    """All solutions of x^2 - D y^2 = 1 mod p^r by exhaustive scan; p^r <= 10^6."""
    if r < 1 or not is_probable_prime(p):
        raise ValueError("need a prime p and r >= 1")
    n = p**r
    if n > 10**6:
        raise ValueError(f"{p}^{r} exceeds 10^6")
    table = _square_table(n)
    points = []
    d %= n
    for y in range(n):
        rhs = (1 + d * y * y) % n
        for x in table.get(rhs, ()):
            points.append(HyperbolaPoint(x, y))
    return points


def product_ladder_cost(k):
    """Modular multiplications of a point's k-th power, for k >= 1.

    chebyshev takes two per squaring and two per multiply step; one more
    scales y by U at the end.
    """
    return 2 * (k.bit_length() - 1) + 2 * (k.bit_count() - 1) + 1


def chain_pow(pt, k, pp):
    """pt^k by chebyshev, y scaled by U_{k-1}; the identity for k = 0."""
    if k == 0:
        return HyperbolaPoint(1, 0)
    t, u = chebyshev(pt.x, k, pp.modulus)
    return HyperbolaPoint(t, pt.y * u % pp.modulus)


def naive_matrix_power(z, d, k, n):
    """2x2 matrix power by repeated schoolbook multiplication."""
    mat = [[1, 0], [0, 1]]
    base = [[z % n, d % n], [1, z % n]]
    for _ in range(k):
        mat = [
            [
                sum(mat[i][t] * base[t][j] for t in range(2)) % n
                for j in range(2)
            ]
            for i in range(2)
        ]
    return mat


def qnr_mod(p, rng):
    squares = {x * x % p for x in range(1, p)}
    while True:
        d = rng.randrange(2, p)
        if d not in squares:
            return d


class Tallied(int):
    """Residue that counts every product it takes part in, doublings excepted.

    Sums, differences, products, reductions and shifts of a Tallied stay
    Tallied, so the count follows the residues through a whole ladder.  A
    product with the literal 2 is an addition in disguise and a shift is no
    product, so neither is counted; a product with the inverse or with D is.
    """

    products = 0

    def __mul__(self, other):
        if not (type(other) is int and other == 2):
            Tallied.products += 1
        return Tallied(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return Tallied(int(self) + int(other))

    def __sub__(self, other):
        return Tallied(int(self) - int(other))

    def __rsub__(self, other):
        return Tallied(int(other) - int(self))

    def __rshift__(self, other):
        return Tallied(int(self) >> int(other))

    def __mod__(self, other):
        return Tallied(int(self) % int(other))


def count_products(fn, *args):
    Tallied.products = 0
    result = fn(*args)
    return Tallied.products, result


# ---- point product ----

def test_point_identity_and_inverse():
    pt = HyperbolaPoint(2, 2)
    assert point_mul(pt, HyperbolaPoint(1, 0), PP5) == pt
    assert point_mul(pt, HyperbolaPoint(2, 3), PP5) == HyperbolaPoint(1, 0)  # (2,-2) = (2,3)


def test_point_mul_frozen_example():
    # (2,2)x(2,2) mod 5, D=2: (2*2 + 2*2*2, 2*2 + 2*2) = (12, 8) = (2, 3)
    assert point_mul(HyperbolaPoint(2, 2), HyperbolaPoint(2, 2), PP5) == HyperbolaPoint(2, 3)


def test_point_validation():
    assert on_curve(2, 2, 2, 5)  # 4 - 2 * 4 = -4 = 1 mod 5
    assert not on_curve(1, 1, 2, 5)


# ---- parameter product ----

def test_param_identity_and_inverse():
    assert param_mul(INFINITY, 12, PP35) == 12
    assert param_mul(12, INFINITY, PP35) == 12
    assert param_mul(12, 35 - 12, PP35) is INFINITY
    # 0 is its own inverse (the order-2 element)
    assert param_mul(0, 0, PP35) is INFINITY


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))], ids=["deepcopy", "pickle"])
def test_infinity_copies_compare_equal(clone):
    twin = clone(INFINITY)
    assert twin == INFINITY and hash(twin) == hash(INFINITY)
    assert repr(twin) == "INFINITY" and twin != 0
    assert param_mul(twin, 12, PP35) == 12


def test_param_mul_frozen_example():
    # (18 + 1)/(1 + 1) = 19 * inverse(2) = 19 * 18 = 342 = 27 mod 35
    assert pow(2 * 18 % 35, 1, 35) == 36 % 35  # inverse(2) is 18
    assert param_mul(1, 1, PP35) == 27


def test_param_mul_leaks_factor():
    # denominators 27 + 1 = 28 share the factor 7 with 35
    with pytest.raises(ImpossibleOperation) as info:
        param_mul(27, 1, PP35)
    assert info.value.factor == 7
    assert 35 % info.value.factor == 0


# ---- parametrization maps ----

def test_compress_special_points():
    assert point_to_param(1, 0, 35) is INFINITY
    assert point_to_param(34, 0, 35) == 0


def test_compress_frozen_example():
    # (1 + 3) * inverse(4) = 4 * 9 = 36 = 1 mod 35
    assert on_curve(3, 4, 18, 35)
    assert point_to_param(3, 4, 35) == 1


def test_compress_leaks_factor_for_exotic_square_roots():
    # 6^2 = 1 mod 35 although 6 != +-1: (6, 0) is on the curve, unmappable
    assert on_curve(6, 0, 18, 35)
    with pytest.raises(ImpossibleOperation) as info:
        point_to_param(6, 0, 35)
    assert info.value.factor in (5, 7)


def test_decompress_special_values():
    assert param_to_point(INFINITY, 35, 18) == (1, 0)
    assert param_to_point(0, 35, 18) == (34, 0)


# ---- powers ----

def test_param_pow_trivial():
    assert param_pow(9, 1, PP35) == 9
    for power in (param_pow, redei_pow):
        assert power(9, 0, PP35) is INFINITY
        assert power(INFINITY, 17, PP35) is INFINITY
        with pytest.raises(ValueError, match="^exponent must be >= 0$"):
            power(9, -1, PP35)


def test_param_pow_frozen_example():
    # the one-step chain 1, 1*1, (1*1)*1, ... dies at step 3 mod 35 (the
    # parameter product is partial over composites), so the oracle walks the
    # division-free curve side and compresses at the end
    pt = param_to_point(1, 35, 18)
    assert point_to_param(*oracle(pt, 5, PP35), 35) == 34
    assert param_pow(1, 5, PP35) == 34
    assert redei_pow(1, 5, PP35) == 34


def test_param_pow_annihilated_by_psi():
    rng = random.Random(47)
    fm = FactoredModulus([(5, 1), (7, 1)])
    # D = 17 is a non-residue mod both 5 and 7
    pp = PellParams(35, 17)
    order = psi(fm)
    for _ in range(20):
        m = rng.randrange(1, 35)
        if math.gcd(m, 35) != 1:
            continue
        assert redei_pow(m, order, pp) is INFINITY


def test_point_pow_trivial_and_frozen():
    assert point_pow(2, 0, PP5) == 1
    # order of the mod-5 curve with a non-residue D is 6, so P^7 = P
    pt = HyperbolaPoint(2, 2)
    assert oracle(pt, 7, PP5) == pt
    assert point_pow(pt.x, 7, PP5) == pt.x
    assert chebyshev(pt.x, 7, 5) == (2, 1)  # (T_7(2), U_6(2)) = (5042, 2911)
    with pytest.raises(ValueError):
        chebyshev(pt.x, 0, 5)
    with pytest.raises(ValueError, match="^need ints: x and an exponent >= 0$"):
        point_pow(pt.x, -1, PP5)


# a zero modulus used to leak ZeroDivisionError from each; a modulus of 1
# gave chebyshev (0, 0), point_to_param INFINITY and crt_coefficients a
# trivial CRT, and lucas_v at k = -1 gave (V_1, V_2)
BAD_KERNEL_CALLS = {
    "chebyshev-0": lambda: chebyshev(2, 3, 0),
    "chebyshev-1": lambda: chebyshev(2, 3, 1),
    "point_to_param-0": lambda: point_to_param(2, 3, 0),
    "point_to_param-1": lambda: point_to_param(1, 0, 1),
    "param_to_point-0": lambda: param_to_point(2, 0, 3),
    "param_to_point-1": lambda: param_to_point(2, 1, 3),
    "redei_eval-0": lambda: redei_eval(18, 9, 3, 0),
    "lucas_v-0": lambda: lucas_v(3, 5, 0),
    "lucas_v-negative-k": lambda: lucas_v(3, -1, 101),
    "crt_coefficients-0": lambda: arith.crt_coefficients([5, 0]),
    "crt_coefficients-1": lambda: arith.crt_coefficients([1, 5]),
    "crt_combine-0": lambda: arith.crt_combine([(1,), (2,)], [5, 0], (1,)),
    "LucasChain.run-0": lambda: lucas_chain(1000003).run(3, 0),
    "LucasChain.run-1": lambda: lucas_chain(1000003).run(3, 1),
    "LucasChain.run-negative": lambda: lucas_chain(1000003).run(3, -7),
    # ladder_cost(0) returned -1 and ladder_cost(-5) returned 5
    "ladder_cost-0": lambda: ladder_cost(0),
    "ladder_cost-negative": lambda: ladder_cost(-5),
}


@pytest.mark.parametrize("case", BAD_KERNEL_CALLS)
def test_bare_modulus_kernels_refuse_a_modulus_below_2_and_lucas_v_a_negative_k(case):
    with pytest.raises(ValueError):
        BAD_KERNEL_CALLS[case]()


# ---- Redei pairs ----

def test_redei_first_values():
    assert redei_eval(18, 9, 1, 35) == (9, 1)
    with pytest.raises(ValueError, match="^need ints: d, z, an exponent >= 1 and a modulus >= 2$"):
        redei_eval(18, 9, 0, 35)
    # one hand matrix multiplication: (z^2 + D, 2z)
    z, d, n = 9, 18, 35
    assert redei_eval(d, z, 2, n) == ((z * z + d) % n, 2 * z % n)


def test_redei_matches_naive_matrix_power():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randrange(3, 10_000)
        z, d = rng.randrange(0, n), rng.randrange(1, n)
        k = rng.randrange(1, 30)
        mat = naive_matrix_power(z, d, k, n)
        a, b = redei_eval(d, z, k, n)
        assert (a, b) == (mat[0][0], mat[1][0])
        assert mat[0][1] == d * b % n and mat[1][1] == a


def test_redei_linear_recurrence():
    # characteristic polynomial t^2 - 2z t + (z^2 - D)
    rng = random.Random(67)
    for n in (97, 391):
        z, d = rng.randrange(2, n), rng.randrange(1, n)
        pairs = [redei_eval(d, z, k, n) for k in range(1, 52)]
        for i in range(2, 51):
            a2, a1, a0 = pairs[i], pairs[i - 1], pairs[i - 2]
            for j in (0, 1):
                assert a2[j] == (2 * z * a1[j] - (z * z - d) * a0[j]) % n


def test_ladder_multiplication_counts_are_exact(monkeypatch):
    rng = random.Random(79)
    pp = PellParams(10007, qnr_mod(10007, rng))
    assert pp.d != 2  # a product with D must not look like a doubling
    pt = HyperbolaPoint(*param_to_point(123, pp.modulus, pp.d))
    tallied = HyperbolaPoint(Tallied(pt.x), Tallied(pt.y))
    param_muls, inversions = [], []

    def counting_param_mul(a, b, pp):
        param_muls.append((a, b))
        return param_mul(a, b, pp)

    def counting_mod_inv(a, n):
        inversions.append(n)
        return mod_inv(a, n)

    monkeypatch.setattr(pell, "param_mul", counting_param_mul)
    monkeypatch.setattr(pell, "mod_inv", counting_mod_inv)
    for k in (2, 3, 10, 100, 999, 4096, 10**9 + 7):
        squarings, multiplies = k.bit_length() - 1, k.bit_count() - 1
        assert ladder_cost(k) == 2 * squarings + 1
        # the x-only Lucas ladder and nothing else: no inversion
        expected = oracle(pt, k, pp)
        inversions.clear()
        assert count_products(point_pow, tallied.x, k, pp) == (ladder_cost(k), expected.x)
        # the Chebyshev chain: all but the final y * U, and no inversion
        count, (t, u) = count_products(chebyshev, tallied.x, k, pp.modulus)
        assert (count, t, pt.y * u % pp.modulus) == (product_ladder_cost(k) - 1, expected.x, expected.y)
        assert inversions == []
        # Redei pair: four multiplications per squaring, three per multiply
        count, _ = count_products(redei_eval, Tallied(pp.d), Tallied(123), k, pp.modulus)
        assert count == 4 * squarings + 3 * multiplies
        param_muls.clear()
        param_pow(123, k, pp)
        assert len(param_muls) == squarings + multiplies


# ---- the decryption root step ----

def point_pow_cases(p, e):
    """(params, points, order) for a non-residue D and the residue D = 4 mod p^e."""
    d_nr = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
    for d in (d_nr, 4):
        pts = enumerate_hyperbola(p, e, d)
        yield PellParams(p**e, d % p**e), pts, len(pts)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_decryption_root_step_exhaustive_against_product_oracle(p):
    # the ladder's x with y read off the power to e, lifted to p^k, is the
    # whole point c^d, for every point with y != 0 mod p, so y is still
    # checked on every such point: at k = 1 for every e invertible mod the
    # order, at k = 2 and 3 for six.  One row serves every point of a
    # (D, e), so its first use runs the ladder, its second builds the chain
    # and later ones run it
    rng = random.Random(p)
    chained = 0
    for k in (1, 2, 3) if p <= 7 else (1,):
        for pp, pts, group_order in point_pow_cases(p, k):
            order = group_order // p ** (k - 1)
            es = [e for e in range(1, group_order) if math.gcd(e, group_order) == 1]
            for e in es if k == 1 else rng.sample(es, min(6, len(es))):
                d = pow(e, -1, group_order)
                row = scheme.PlanRow(p, p**k, order, d % order)
                key = types.SimpleNamespace(e=e, d=d)
                for c in pts:
                    if c.y % p:
                        assert scheme._root(*c, pp.d, row, key, 0) == chain_pow(c, d, pp)
                assert row.uses == sum(1 for c in pts if c.y % p)
                chained += row.chain is not None
    assert chained


def test_point_pow_frozen_even_modulus():
    # (2, 1) on x^2 - 3 y^2 = 1 mod 10: squared, x = 2 * 4 - 1 = 7; the
    # table's curve even-frozen-10-D3 raises it to every k < 200
    assert on_curve(2, 1, 3, 10)
    assert point_pow(2, 2, PellParams(10, 3)) == 7


# ---- Lucas chains against the ladder ----

def ladder_ops(k):
    """arith.lucas_v's ladder for k >= 2 as LucasChain ops, ladder_cost(k) of
    them: a holds V_j and b V_(j+1), whose difference V_1 is register 1."""
    ops = []

    def add(x, y, z):
        ops.append((x, y, z))
        return len(ops) + 1

    a, b = 1, add(1, 1, 0)
    for bit in bin(k)[3:]:
        if bit == "1":
            b, a = add(b, b, 0), add(a, b, 1)
        else:
            b, a = add(a, b, 1), add(a, a, 0)
    return tuple(ops)


def test_ladder_ops_compile_the_ladder(alarm):
    for k in (2, 3, 10, 1000, 2**64 + 13):
        chain = LucasChain(k, ladder_ops(k))
        assert chain.proved_index() == k and len(chain.ops) == ladder_cost(k)
        assert chain.run(7, 1009) == lucas_v(7, k, 1009)[0]


@pytest.mark.parametrize("bits", [512, 683])
def test_chain_products_are_pinned(alarm, bits):
    # seeded reduced exponents d mod (p +- 1): Tallied counts one product per
    # op, about 1.63 per exponent bit against the ladder's 2
    rng = random.Random(bits)
    p = gen_prime(bits, rng)
    pp = PellParams(p, rng.randrange(1, p))
    for order in (p - 1, p + 1):
        k = rng.randrange(order)
        chain = lucas_chain(k)
        x = rng.randrange(p)
        count, out = count_products(point_pow, Tallied(x), k, pp, chain)
        assert (count, out) == (len(chain.ops), point_pow(x, k, pp))
        assert len(chain.ops) <= 1.70 * k.bit_length()


def test_proved_index_refuses_an_op_that_is_no_lucas_step(alarm):
    # V_1 V_2 - V_2: register 3 holds neither V_(2-1) nor V_(2+1)
    with pytest.raises(ValueError, match="^op 1 is no Lucas step"):
        LucasChain(3, ((1, 1, 0), (1, 2, 2))).proved_index()
    assert LucasChain(3, ((1, 1, 0), (1, 2, 1))).proved_index() == 3
    # a difference: V_3 V_2 - V_5 is V_1
    assert LucasChain(1, ((1, 1, 0), (1, 2, 1), (2, 3, 1), (3, 2, 4))).proved_index() == 1


def test_lucas_chain_returns_a_chain_only_for_k_and_shorter_than_the_ladder(monkeypatch, alarm):
    assert [k for k in range(1, 2000) if lucas_chain(k) is None] == [1, 2, 6]
    k = 10**30 + 7
    prac = pell._prac
    # a chain one op short ends at another index
    monkeypatch.setattr(pell, "_prac", lambda k, r: prac(k, r)[:-1])
    assert lucas_chain(k) is None
    # the ladder's own ops prove k but are no shorter than the ladder
    monkeypatch.setattr(pell, "_prac", lambda k, r: ladder_ops(k))
    assert lucas_chain(k) is None
    monkeypatch.setattr(pell, "_prac", lambda k, r: ladder_ops(k)[:1] + ((1, 2, 2),))
    with pytest.raises(ValueError, match="no Lucas step"):
        lucas_chain(k)


def test_point_pow_refuses_a_chain_built_for_another_exponent():
    chain = lucas_chain(1001)
    assert point_pow(3, 1001, PP5, chain) == point_pow(3, 1001, PP5)
    with pytest.raises(ValueError, match="another exponent"):
        point_pow(3, 1003, PP5, chain)
    # a chain whose k is a float returned 17, as 2.0 == 2
    with pytest.raises(ValueError, match="another exponent"):
        point_pow(3, 2, PellParams(101, 2), chain=LucasChain(2.0, ((1, 1, 0),)))


# ---- the power-route table ----

class Curve(NamedTuple):
    pp: PellParams  # a bare modulus in the any-modulus family, whose points are V_1
    order: int = 0  # p^(e-1) (p - (D/p)) mod p^e
    powers: tuple = ()  # ((point, ks), ...): the routes raise each point to each k
    points: tuple = ()  # the identities' points
    triples: tuple = ()  # and triples


_CYCLES = {}  # (pp, point) -> (the cycle of repeated products it lies on, its index there)


def oracle(pt, k, pp):
    """pt^k read off pt's cycle of repeated Brahmagupta products below 2^16;
    above, chain_pow, which the small curves and the identities judge; on a
    bare modulus, V_k of V_1 = pt by arith.lucas_v, whose ladder the
    point_pow row judges."""
    if type(pp) is int:
        return (lucas_v(pt, k, pp)[0],)
    if pp.modulus >> 16:
        return chain_pow(pt, k, pp)
    if (pp, pt) not in _CYCLES:
        assert on_curve(*pt, pp.d, pp.modulus), (pp, pt)
        cycle = [HyperbolaPoint(1, 0), pt]
        while cycle[-1] != cycle[0]:
            cycle.append(point_mul(cycle[-1], pt, pp))
        cycle.pop()
        for j, q in enumerate(cycle):
            _CYCLES.setdefault((pp, q), (cycle, j))
    cycle, j = _CYCLES[pp, pt]
    return cycle[j * k % len(cycle)]


def decompress(m, pp):
    """The point of parameter m, INFINITY too, by the paper's formulas and Python's pow."""
    if m == INFINITY:
        return HyperbolaPoint(1, 0)
    n, inv = pp.modulus, pow(m * m - pp.d, -1, pp.modulus)
    return HyperbolaPoint((m * m + pp.d) * inv % n, 2 * m * inv % n)


def small_curves(p):
    """p^1..p^3, D a non-residue and D = 4, every point to every k <= 2 * order where the order is
    <= 200, else to k near 0, order and 2 * order and six more per point from random.Random(p)."""
    rng = random.Random(p)
    for e in (1, 2, 3):
        for pp, pts, order in point_pow_cases(p, e):
            ks = [range(2 * order + 1)] * len(pts)
            if order > 200:  # the full range costs minutes at 7^3..13^3
                ends = {0, 1, 2, 3, order - 1, order, order + 1, 2 * order - 1, 2 * order}
                ks = [sorted(ends | {rng.randrange(2 * order + 1) for _ in range(6)}) for _ in pts]
            yield f"{p}^{e}-D{pp.d}", Curve(pp, order, list(zip(pts, ks)), pts)


def seeded(seed, primes, draw, ds=lambda rng, p: (qnr_mod(p, rng),)):
    """Per prime in turn, each D that random.Random(seed) draws, then the fields draw(rng, pp, every point) draws."""
    rng, curves = random.Random(seed), {}
    for p, d in ((p, d) for p in primes for d in ds(rng, p)):
        pp = PellParams(p, d)
        curves[f"{p}-D{d}"] = Curve(pp, **draw(rng, pp, enumerate_hyperbola(p, 1, d)))
    return curves


def even_curve(n, units=None):
    """Every k < 200 on the points with D y a unit mod n, D the first of units, by default all of
    them in random.Random(n)'s order, that has one: mod 8 only D = 3 and 7 mod 8 have one."""
    if units is None:
        random.Random(n).shuffle(units := [d for d in range(1, n) if math.gcd(d, n) == 1])
    for d in units:
        pts = [HyperbolaPoint(x, y) for y in range(n) if math.gcd(d * y, n) == 1 for x in _square_table(n).get((1 + d * y * y) % n, ())]
        if pts:
            return Curve(PellParams(n, d), powers=[(pt, range(200)) for pt in pts])


@functools.lru_cache(maxsize=None)
def crypto_prime(bits):
    return gen_prime(bits, random.Random(bits))


def crypto_curve(bits, power, seed, in_kernel, nr=False):
    """Mod p^power, D a non-residue mod p if nr: a random point, in the kernel of reduction mod p or
    not, to 1, 17, bits or 2 bits random bits; three random points; the points of parameters
    INFINITY, 0, 1, -1 and a random one."""
    p, rng = crypto_prime(bits), random.Random(seed)
    n = p**power
    pp = PellParams(n, rng.randrange(1, p) + p * rng.randrange(n // p))
    while nr and jacobi(pp.d, p) != -1:
        pp = PellParams(n, rng.randrange(1, p) + p * rng.randrange(n // p))
    ms = [rng.randrange(n) for _ in "pabc"]
    pt, a, b, c = (decompress(m, pp) for m in ms)
    if in_kernel:  # over a point equal to it mod p: (1, 0) mod p, so D y is no unit mod n
        q = decompress(ms[0] + p * rng.randrange(n // p), pp)
        pt = point_mul(pt, (q.x, -q.y), pp)
        assert math.gcd(pt.y, n) != 1
    k = rng.getrandbits(rng.choice([1, 17, bits, 2 * bits]))
    points = [decompress(m, pp) for m in (INFINITY, 0, 1, n - 1, rng.randrange(n))]
    return Curve(pp, p ** (power - 1) * (p - jacobi(pp.d, p)), [(pt, (k,))], points, [(a, b, c)])


@functools.lru_cache(maxsize=8192)
def chain_for(k):
    """lucas_chain(k), built once; None at k = 0, where point_pow takes none."""
    return lucas_chain(k) if k else None


def chain_run(v, k, m):
    """(V_k mod m,) by lucas_chain(k)'s chain, which must prove k and beat the ladder."""
    chain = chain_for(k)
    assert chain.k == k == chain.proved_index() and len(chain.ops) < ladder_cost(k)
    return (chain.run(v, m),)


SMALL = dict(pair for p in (3, 5, 7, 11, 13) for pair in small_curves(p))
EVEN_MODULI = list(range(4, 64, 2)) + [98, 128, 250, 338, 390]
CURVES = {  # {name: Curve}, or (a strategy of Curves, the examples each row draws)
    "p^1": {name: c for name, c in SMALL.items() if "^1-" in name},
    "p^2,p^3-all-k": {name: c for name, c in SMALL.items() if "^1-" not in name and c.order <= 200},
    "p^3-sampled-k": {name: c for name, c in SMALL.items() if c.order > 200},
    "seed31": seeded(31, (13, 31, 101), lambda rng, pp, pts: {"triples": [tuple(rng.choice(pts) for _ in "abc") for _ in range(60)]}),
    "seed37": seeded(37, (13, 101, 499), lambda rng, pp, pts: {"triples": [
        tuple(decompress(rng.choice([INFINITY, *range(pp.modulus)]), pp) for _ in "abc") for _ in range(80)]}),
    "seed41": seeded(41, (13, 31, 101), lambda rng, pp, pts: {"points": pts}),
    "seed43": seeded(43, (5, 7, 13, 31, 101), lambda rng, pp, pts: {"points": pts},
                     lambda rng, p: (qnr_mod(p, rng), rng.choice(sorted({x * x % p for x in range(1, p)})))),
    "seed53": seeded(53, (13, 101), lambda rng, pp, pts: {"powers": [(rng.choice(pts), (rng.randrange(0, 40),)) for _ in range(40)]
                                                           + [(HyperbolaPoint(x, 0), (0, 2, 3)) for x in (1, pp.modulus - 1)]}),
    "seed59": seeded(59, (101,), lambda rng, pp, pts: {"powers": [
        (rng.choice([pt for pt in pts if pt.y]), (rng.randrange(0, 200),)) for _ in range(50)]}),
    "seed71": seeded(71, (31, 499, 1009), lambda rng, pp, pts: {"powers": [
        (decompress(rng.randrange(1, pp.modulus), pp), (rng.randrange(1, 1001),)) for _ in range(40)]}),
    "seed73": seeded(73, (499,), lambda rng, pp, pts: {"powers": [(decompress(rng.randrange(1, 499), pp), range(1, 201)) for _ in range(25)]}),
    "even": {f"{c.pp.modulus}-D{c.pp.d}": c for c in map(even_curve, EVEN_MODULI)},
    "even-frozen": {"10-D3": even_curve(10, [3])},
    "crypto": (st.builds(crypto_curve, st.sampled_from([256, 512, 1024]), st.sampled_from([1, 2, 3]), st.integers(0, 2**64), st.booleans()), 30),
    "crypto-p1": (st.builds(crypto_curve, st.sampled_from([512, 768, 1024]), st.just(1), st.integers(0, 2**64), st.just(False)), 25),
    "crypto-p1-nr": (st.builds(crypto_curve, st.sampled_from([512, 768, 1024]), st.just(1), st.integers(0, 2**64), st.just(False), st.just(True)), 25),
    "any-modulus": (st.builds(  # odd and even k, m and V_1 alike
        lambda k, m, v: Curve(m, powers=[(v, (k,))]), st.one_of(st.integers(1, 300), st.integers(1, 2**700 - 1)).filter(chain_for),
        st.one_of(st.integers(3, 300), st.integers(3, 2**700)), st.integers(0, 2**701)), 200),
}


def group_laws(curve):
    """Both products: closure, identity, inverse, commutativity, associativity."""
    pp, one = curve.pp, HyperbolaPoint(1, 0)
    for a, b, c in curve.triples:
        ab = point_mul(a, b, pp)
        assert on_curve(*ab, pp.d, pp.modulus) and ab == point_mul(b, a, pp) and point_mul(a, one, pp) == a
        assert point_mul(ab, c, pp) == point_mul(a, point_mul(b, c, pp), pp) and point_mul(a, (a.x, -a.y), pp) == one
        m, n, o = (point_to_param(*pt, pp.modulus) for pt in (a, b, c))
        assert param_mul(m, n, pp) == param_mul(n, m, pp) and param_mul(param_mul(m, n, pp), o, pp) == param_mul(m, param_mul(n, o, pp), pp)


def maps(curve):
    """point_to_param and param_to_point invert each other, and the first carries products to products,
    on the curve's points and those it raises."""
    pp, params = curve.pp, {pt: point_to_param(*pt, curve.pp.modulus) for pt in (*curve.points, *(pt for pt, _ in curve.powers))}
    for pt, m in params.items():
        assert on_curve(*pt, pp.d, pp.modulus) and param_to_point(m, pp.modulus, pp.d) == decompress(m, pp) == pt
    for a, b in itertools.product(params, repeat=2):
        assert point_to_param(*point_mul(a, b, pp), pp.modulus) == param_mul(params[a], params[b], pp)


def power_laws(curve):
    """The group order annihilates, and exponents add: pt^j pt^(k - j) = pt^k, j = k // 3."""
    pp = curve.pp
    for pt, ks in curve.powers:
        assert oracle(pt, curve.order, pp) == (1, 0)
        assert all(point_mul(oracle(pt, k // 3, pp), oracle(pt, k - k // 3, pp), pp) == oracle(pt, k, pp) for k in ks)


PRIMES = ("p^1", "seed53", "seed59", "seed71", "seed73")
ROUTES = {  # name: (the coordinates of pt^k it computes, for (pt, k, pp); the families it runs on)
    "point_pow": (lambda pt, k, pp: (point_pow(pt[0], k, pp),), PRIMES + ("p^2,p^3-all-k", "p^3-sampled-k", "even", "even-frozen", "crypto")),
    "point_pow-chain": (lambda pt, k, pp: (point_pow(pt[0], k, pp, chain_for(k)),), PRIMES + ("even-frozen",)),
    "chebyshev": (chain_pow, PRIMES + ("p^3-sampled-k", "even-frozen")),
    "param_pow": (lambda pt, k, pp: param_to_point(param_pow(point_to_param(*pt, pp.modulus), k, pp), pp.modulus, pp.d), PRIMES),
    "redei_pow": (lambda pt, k, pp: param_to_point(redei_pow(point_to_param(*pt, pp.modulus), k, pp), pp.modulus, pp.d), PRIMES),
    "LucasChain.run": (chain_run, ("any-modulus",)),
}
IDENTITIES = {  # name: (a check of a Curve; the families it runs on)
    "group-laws": (group_laws, ("seed31", "seed37", "crypto-p1")),
    "maps": (maps, PRIMES + ("seed41", "seed43", "crypto-p1", "crypto-p1-nr")),
    "power-laws": (power_laws, ("p^1", "crypto-p1")),
}
EXEMPT = {"redei_eval": "redei_pow's pair: the Redei-definition tests", "psi": "test_psi_frozen_examples"}


def check(row, curve):
    if row in IDENTITIES:
        return IDENTITIES[row][0](curve)
    for pt, ks in curve.powers:
        for k in ks:
            got = ROUTES[row][0](pt, k, curve.pp)
            assert got == oracle(pt, k, curve.pp)[: len(got)], (row, curve.pp, pt, k)


@pytest.mark.parametrize("row, family, name", [
    pytest.param(row, family, name, id=f"{row}-{family}{'' if name is None else f'-{name}'}")
    for table in (ROUTES, IDENTITIES) for row, (_, families) in table.items() for family in families
    for name in (CURVES[family] if isinstance(CURVES[family], dict) else [None])
])
def test_each_row_agrees_with_the_oracle_on_each_of_its_curves(alarm, row, family, name):
    if name is not None:
        return check(row, CURVES[family][name])
    curves, examples = CURVES[family]
    settings(max_examples=examples)(given(curve=curves)(lambda curve: check(row, curve)))()


def names_read(fn):
    """The names fn reads, with those of the code nested in it and of the functions here that it calls."""
    codes = [fn.__code__]
    for code in codes:
        called = map(inspect.unwrap, filter(callable, map(globals().get, code.co_names)))
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        codes += [f.__code__ for f in called if inspect.isfunction(f) and f.__module__ == __name__ and f.__code__ not in codes]
    return {name for code in codes for name in code.co_names}


def test_every_public_pell_function_is_in_a_row_or_exempt():
    public = {name for name, f in vars(pell).items() if inspect.isfunction(f) and f.__module__ == pell.__name__}
    public |= {f"LucasChain.{name}" for name, f in vars(LucasChain).items() if inspect.isfunction(f) and not name.startswith("_")}
    rows = [*ROUTES.values(), *IDENTITIES.values()]
    read = set().union(*(names_read(run) for run, _ in rows))
    assert {name for name in public if not name.startswith("_") and name.rpartition(".")[2] not in read} == set(EXEMPT)
    assert {family for _, families in rows for family in families} == set(CURVES)
    # the small curves hold points whose D y is no unit, which compress to no parameter
    assert all(any(math.gcd(c.pp.d * pt.y, c.pp.modulus) != 1 for c in CURVES[f].values() for pt in c.points)
               for f in ("p^2,p^3-all-k", "p^3-sampled-k"))


# ---- orders, psi, enumeration ----

@pytest.mark.parametrize(
    "factors,expected",
    [([(5, 1), (7, 1)], 48), ([(5, 3)], 150), ([(5, 3), (7, 2)], 8400)],
)
def test_psi_frozen_examples(factors, expected):
    assert psi(FactoredModulus(factors)) == expected


@pytest.mark.parametrize("p,r,d,count", [(5, 1, 2, 6), (5, 2, 2, 30), (7, 1, 3, 8)])
def test_enumeration_frozen_counts(p, r, d, count):
    pts = enumerate_hyperbola(p, r, d)
    assert len(pts) == count
    n = p**r
    assert all((x * x - d * y * y) % n == 1 for x, y in pts)


def test_orders_match_residuosity_small_sweep():
    for p in (5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for d in range(1, p):
            expected = p - 1 if d in squares else p + 1
            assert len(enumerate_hyperbola(p, 1, d)) == expected


def test_prime_power_order_via_crt_consistency():
    # group order mod p^r times compressed behaviour: spot-check 5^2 and 7^2
    assert len(enumerate_hyperbola(5, 2, 2)) == 5 * 6
    assert len(enumerate_hyperbola(7, 2, 3)) == 7 * 8
    assert len(enumerate_hyperbola(3, 3, 2)) == 9 * 4


def test_params_validation():
    with pytest.raises(ValueError):
        PellParams(35, 0)
    with pytest.raises(ValueError):
        PellParams(35, 5)  # shares a factor
    with pytest.raises(ValueError):
        PellParams(1, 1)
