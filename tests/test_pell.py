import copy
import functools
import math
import pickle
import random
import types

import pytest
from hypothesis import HealthCheck, given, settings
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


def naive_point_pow(p, k, pp):
    """k-fold product by literal repeated Brahmagupta multiplication."""
    acc = HyperbolaPoint(1, 0)
    for _ in range(k):
        acc = point_mul(acc, p, pp)
    return acc


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


def naive_param_pow(m, k, pp):
    """Iterated parameter product; total over prime moduli."""
    acc = INFINITY
    for _ in range(k):
        acc = param_mul(acc, m, pp)
    return acc


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


def test_point_mul_closure_and_commutativity():
    rng = random.Random(31)
    for p in (13, 31, 101):
        d = qnr_mod(p, rng)
        pp = PellParams(p, d)
        pts = enumerate_hyperbola(p, 1, d)
        for _ in range(60):
            a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            ab = point_mul(a, b, pp)
            assert on_curve(ab.x, ab.y, pp.d, pp.modulus)
            assert ab == point_mul(b, a, pp)
            assert point_mul(ab, c, pp) == point_mul(a, point_mul(b, c, pp), pp)


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


def test_param_mul_group_laws_over_prime():
    rng = random.Random(37)
    for p in (13, 101, 499):
        pp = PellParams(p, qnr_mod(p, rng))
        elems = [INFINITY] + list(range(p))
        for _ in range(80):
            a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            assert param_mul(a, b, pp) == param_mul(b, a, pp)
            assert param_mul(param_mul(a, b, pp), c, pp) == param_mul(
                a, param_mul(b, c, pp), pp
            )


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


def test_decompress_lands_on_curve_and_roundtrips():
    rng = random.Random(41)
    for p in (13, 31, 101):
        pp = PellParams(p, qnr_mod(p, rng))
        for pt in enumerate_hyperbola(p, 1, pp.d):
            m = point_to_param(*pt, pp.modulus)
            back = param_to_point(m, pp.modulus, pp.d)
            assert on_curve(*back, pp.d, pp.modulus)
            assert back == pt


def test_morphism_exhaustive_over_primes():
    rng = random.Random(43)
    for p in (5, 7, 13, 31, 101):
        for d in (qnr_mod(p, rng), rng.choice(sorted({x * x % p for x in range(1, p)}))):
            if math.gcd(d, p) != 1:
                continue
            pp = PellParams(p, d)
            pts = enumerate_hyperbola(p, 1, d)
            for a in pts:
                for b in pts:
                    lhs = point_to_param(*point_mul(a, b, pp), p)
                    rhs = param_mul(point_to_param(*a, p), point_to_param(*b, p), pp)
                    assert lhs == rhs


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
    oracle = point_to_param(*naive_point_pow(pt, 5, PP35), 35)
    assert oracle == 34
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
    assert naive_point_pow(pt, 7, PP5) == pt
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


def check_point_pow(pt, k, pp, expected):
    """point_pow(pt.x, k) is the x-coordinate of the expected power, for
    every point, D*y a unit or not."""
    assert point_pow(pt.x, k, pp) == expected.x, (pp, pt, k)


def test_point_pow_matches_naive():
    rng = random.Random(53)
    for p in (13, 101):
        pp = PellParams(p, qnr_mod(p, rng))
        pts = enumerate_hyperbola(p, 1, pp.d)
        for _ in range(40):
            pt, k = rng.choice(pts), rng.randrange(0, 40)
            check_point_pow(pt, k, pp, naive_point_pow(pt, k, pp))
    # (+-1, 0) mod 101 are their own odd powers, and (-1, 0) squares to (1, 0)
    for x in (1, pp.modulus - 1):
        check_point_pow(HyperbolaPoint(x, 0), 3, pp, HyperbolaPoint(x, 0))
        check_point_pow(HyperbolaPoint(x, 0), 2, pp, HyperbolaPoint(1, 0))
        check_point_pow(HyperbolaPoint(x, 0), 0, pp, HyperbolaPoint(1, 0))


def test_pow_morphism():
    rng = random.Random(59)
    pp = PellParams(101, qnr_mod(101, rng))
    pts = [pt for pt in enumerate_hyperbola(101, 1, pp.d) if pt.y != 0]
    for _ in range(50):
        pt, k = rng.choice(pts), rng.randrange(0, 200)
        rhs_x, _ = param_to_point(param_pow(point_to_param(*pt, pp.modulus), k, pp), pp.modulus, pp.d)
        assert point_pow(pt.x, k, pp) == rhs_x


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


def test_redei_quotient_equals_param_pow():
    rng = random.Random(71)
    for p in (31, 499, 1009):
        pp = PellParams(p, qnr_mod(p, rng))
        for _ in range(40):
            z, k = rng.randrange(1, p), rng.randrange(1, 1001)
            via_redei = redei_pow(z, k, pp)
            via_product = param_pow(z, k, pp)
            assert via_redei == via_product


def test_three_pow_routes_agree_up_to_200():
    rng = random.Random(73)
    pp = PellParams(499, qnr_mod(499, rng))
    for _ in range(25):
        z = rng.randrange(1, 499)
        for k in range(1, 201):
            expected = naive_param_pow(z, k, pp)
            assert param_pow(z, k, pp) == expected
            assert redei_pow(z, k, pp) == expected


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
        expected = naive_point_pow(pt, k % (pp.modulus + 1), pp)
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


# ---- the Lucas ladder against the product ladder ----

def point_pow_cases(p, e):
    """(params, points, order) for a non-residue D and the residue D = 4 mod p^e."""
    d_nr = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
    for d in (d_nr, 4):
        pts = enumerate_hyperbola(p, e, d)
        yield PellParams(p**e, d % p**e), pts, len(pts)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_point_pow_exhaustive_against_product_oracle(p):
    rng = random.Random(p)
    non_unit = 0
    for e in (1, 2, 3):
        for pp, pts, order in point_pow_cases(p, e):
            for pt in pts:
                non_unit += math.gcd(pp.d * pt.y, pp.modulus) != 1
                if order <= 200:
                    # every k in [0, 2 * order] against repeated products
                    acc = HyperbolaPoint(1, 0)
                    for k in range(2 * order + 1):
                        check_point_pow(pt, k, pp, acc)
                        acc = point_mul(acc, pt, pp)
                else:
                    # the full k range costs minutes at 7^3..13^3: k around
                    # 0, order and 2 * order plus seeded draws, every point
                    ks = {0, 1, 2, 3, order - 1, order, order + 1, 2 * order - 1, 2 * order}
                    ks.update(rng.randrange(2 * order + 1) for _ in range(6))
                    for k in ks:
                        check_point_pow(pt, k, pp, chain_pow(pt, k, pp))
    assert non_unit > 0


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


EVEN_MODULI = list(range(4, 64, 2)) + [98, 128, 250, 338, 390]


@pytest.mark.parametrize("n", EVEN_MODULI)
def test_point_pow_is_total_on_even_moduli(n):
    # the ladder runs mod 2n and halves by a shift; halving mod n by
    # (n + 1)/2, which inverts 2 only for odd n, returns wrong points here
    # some D leave no point with D y a unit (mod 8 that needs D = 3 or 7 mod
    # 8), so the first D in a seeded order that has one is taken
    table = _square_table(n)
    units = [d for d in range(1, n) if math.gcd(d, n) == 1]
    random.Random(n).shuffle(units)
    for d in units:
        pts = [
            HyperbolaPoint(x, y)
            for y in range(n)
            if math.gcd(d * y, n) == 1
            for x in table.get((1 + d * y * y) % n, ())
        ]
        if pts:
            break
    assert pts
    pp = PellParams(n, d)
    for pt in pts:
        for k in range(200):
            check_point_pow(pt, k, pp, chain_pow(pt, k, pp))


def test_point_pow_frozen_even_modulus():
    # (2, 1) on x^2 - 3 y^2 = 1 mod 10: squared, x = 2 * 4 - 1 = 7
    pp = PellParams(10, 3)
    pt = HyperbolaPoint(2, 1)
    assert on_curve(*pt, pp.d, pp.modulus)
    assert point_pow(2, 2, pp) == 7
    for k in range(200):
        check_point_pow(pt, k, pp, chain_pow(pt, k, pp))


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


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    k=st.one_of(st.integers(1, 300), st.integers(1, 2**700 - 1)),
    m=st.one_of(st.integers(3, 300), st.integers(3, 2**700)),
    v=st.integers(0, 2**701),
)
def test_lucas_chain_computes_v_k_as_the_ladder_does(alarm, k, m, v):
    # odd and even k and m alike
    chain = lucas_chain(k)
    if chain is None:
        return
    assert chain.k == k == chain.proved_index()
    assert len(chain.ops) < ladder_cost(k)
    assert chain.run(v, m) == lucas_v(v, k, m)[0]


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


@functools.lru_cache(maxsize=None)
def crypto_prime(bits):
    return gen_prime(bits, random.Random(bits))


@settings(max_examples=30)
@given(
    bits=st.sampled_from([256, 512, 1024]),
    power=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**64),
    in_kernel=st.booleans(),
)
def test_point_pow_bit_identical_to_product_ladder_at_crypto_sizes(bits, power, seed, in_kernel):
    p = crypto_prime(bits)
    n = p**power
    rng = random.Random(seed)
    pp = PellParams(n, rng.randrange(1, p) + p * rng.randrange(n // p))
    pt = HyperbolaPoint(*param_to_point(rng.randrange(n), pp.modulus, pp.d))
    if in_kernel:
        # P^(p^2 - 1) reduces to (1, 0) mod p, so D*y is not a unit mod n
        pt = chain_pow(pt, p * p - 1, pp)
        assert math.gcd(pt.y, n) != 1
    k = rng.getrandbits(rng.choice([1, 17, bits, 2 * bits]))
    check_point_pow(pt, k, pp, chain_pow(pt, k, pp))


@settings(max_examples=25)
@given(bits=st.sampled_from([512, 768, 1024]), seed=st.integers(0, 2**64))
def test_point_group_laws_at_crypto_sizes(bits, seed):
    # identity, inverse (x, -y), commutativity and associativity of the
    # product on random points of a random curve; powers add exponents and
    # the group order p - (D/p) annihilates
    p = crypto_prime(bits)
    rng = random.Random(seed)
    pp = PellParams(p, rng.randrange(1, p))
    a, b, c = (HyperbolaPoint(*param_to_point(rng.randrange(p), pp.modulus, pp.d)) for _ in range(3))
    assert all(on_curve(*pt, pp.d, pp.modulus) for pt in (a, b, c))
    assert point_mul(a, HyperbolaPoint(1, 0), pp) == a
    assert point_mul(a, HyperbolaPoint(a.x, -a.y % p), pp) == HyperbolaPoint(1, 0)
    assert point_mul(a, b, pp) == point_mul(b, a, pp)
    assert point_mul(point_mul(a, b, pp), c, pp) == point_mul(a, point_mul(b, c, pp), pp)
    j, k = rng.randrange(p), rng.randrange(p)
    assert point_mul(chain_pow(a, j, pp), chain_pow(a, k, pp), pp) == chain_pow(a, j + k, pp)
    assert chain_pow(a, p - jacobi(pp.d, p), pp) == HyperbolaPoint(1, 0)


@settings(max_examples=25)
@given(bits=st.sampled_from([512, 768, 1024]), seed=st.integers(0, 2**64))
def test_param_point_bijection_at_crypto_sizes(bits, seed):
    # with D a non-residue m^2 - D is never 0 mod p: every parameter,
    # INFINITY included, decompresses to a curve point and compresses back
    p = crypto_prime(bits)
    rng = random.Random(seed)
    d = rng.randrange(1, p)
    while jacobi(d, p) != -1:
        d = rng.randrange(1, p)
    pp = PellParams(p, d)
    for m in (INFINITY, 0, 1, p - 1, rng.randrange(p)):
        pt = param_to_point(m, pp.modulus, pp.d)
        assert on_curve(*pt, pp.d, pp.modulus)
        assert point_to_param(*pt, pp.modulus) == m


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
