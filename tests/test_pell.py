import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import pell, scheme
from pellrsa.arith import FactoredModulus, gen_prime, is_probable_prime, jacobi, mod_inv
from pellrsa.errors import ImpossibleOperation
from pellrsa.pell import (
    INFINITY,
    HyperbolaPoint,
    PellParams,
    ladder_cost,
    param_mul,
    param_pow,
    param_to_point,
    point_pow,
    point_pow_nodiv,
    point_to_param,
    product_ladder_cost,
    psi,
    redei_eval,
    redei_pow,
)

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
    acc = pp.identity()
    for _ in range(k):
        acc = point_mul(acc, p, pp)
    return acc


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
    pt = PP5.point(2, 2)
    assert point_mul(pt, PP5.identity(), PP5) == pt
    assert point_mul(pt, HyperbolaPoint(2, 3), PP5) == PP5.identity()  # (2,-2) = (2,3)


def test_point_mul_frozen_example():
    # (2,2)x(2,2) mod 5, D=2: (2*2 + 2*2*2, 2*2 + 2*2) = (12, 8) = (2, 3)
    assert point_mul(PP5.point(2, 2), PP5.point(2, 2), PP5) == HyperbolaPoint(2, 3)


def test_point_mul_closure_and_commutativity():
    rng = random.Random(31)
    for p in (13, 31, 101):
        d = qnr_mod(p, rng)
        pp = PellParams(p, d)
        pts = enumerate_hyperbola(p, 1, d)
        for _ in range(60):
            a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
            ab = point_mul(a, b, pp)
            assert pp.on_curve(ab.x, ab.y)
            assert ab == point_mul(b, a, pp)
            assert point_mul(ab, c, pp) == point_mul(a, point_mul(b, c, pp), pp)


def test_point_validation():
    with pytest.raises(ValueError):
        PP5.point(1, 1)


# ---- parameter product ----

def test_param_identity_and_inverse():
    assert param_mul(INFINITY, 12, PP35) == 12
    assert param_mul(12, INFINITY, PP35) == 12
    assert param_mul(12, 35 - 12, PP35) is INFINITY
    # 0 is its own inverse (the order-2 element)
    assert param_mul(0, 0, PP35) is INFINITY


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
    assert point_to_param(HyperbolaPoint(1, 0), PP35) is INFINITY
    assert point_to_param(HyperbolaPoint(34, 0), PP35) == 0


def test_compress_frozen_example():
    # (1 + 3) * inverse(4) = 4 * 9 = 36 = 1 mod 35
    assert point_to_param(PP35.point(3, 4), PP35) == 1


def test_compress_leaks_factor_for_exotic_square_roots():
    # 6^2 = 1 mod 35 although 6 != +-1: (6, 0) is on the curve, unmappable
    assert PP35.on_curve(6, 0)
    with pytest.raises(ImpossibleOperation) as info:
        point_to_param(HyperbolaPoint(6, 0), PP35)
    assert info.value.factor in (5, 7)


def test_decompress_special_values():
    assert param_to_point(INFINITY, PP35) == HyperbolaPoint(1, 0)
    assert param_to_point(0, PP35) == HyperbolaPoint(34, 0)


def test_decompress_lands_on_curve_and_roundtrips():
    rng = random.Random(41)
    for p in (13, 31, 101):
        pp = PellParams(p, qnr_mod(p, rng))
        for pt in enumerate_hyperbola(p, 1, pp.d):
            m = point_to_param(pt, pp)
            back = param_to_point(m, pp)
            assert pp.on_curve(back.x, back.y)
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
                    lhs = point_to_param(point_mul(a, b, pp), pp)
                    rhs = param_mul(point_to_param(a, pp), point_to_param(b, pp), pp)
                    assert lhs == rhs


# ---- powers ----

def test_param_pow_trivial():
    assert param_pow(9, 1, PP35) == 9
    assert param_pow(9, 0, PP35) is INFINITY
    assert param_pow(INFINITY, 17, PP35) is INFINITY


def test_param_pow_frozen_example():
    # the one-step chain 1, 1*1, (1*1)*1, ... dies at step 3 mod 35 (the
    # parameter product is partial over composites), so the oracle walks the
    # division-free curve side and compresses at the end
    pt = param_to_point(1, PP35)
    oracle = point_to_param(naive_point_pow(pt, 5, PP35), PP35)
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
    pt = PP5.point(2, 2)
    assert naive_point_pow(pt, 7, PP5) == pt
    assert point_pow(pt.x, 7, PP5) == pt.x


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
        check_point_pow(HyperbolaPoint(x, 0), 2, pp, pp.identity())
        check_point_pow(HyperbolaPoint(x, 0), 0, pp, pp.identity())


def test_pow_morphism():
    rng = random.Random(59)
    pp = PellParams(101, qnr_mod(101, rng))
    pts = [pt for pt in enumerate_hyperbola(101, 1, pp.d) if pt.y != 0]
    for _ in range(50):
        pt, k = rng.choice(pts), rng.randrange(0, 200)
        rhs = param_to_point(param_pow(point_to_param(pt, pp), k, pp), pp)
        assert point_pow(pt.x, k, pp) == rhs.x


# ---- Redei pairs ----

def test_redei_first_values():
    assert redei_eval(18, 9, 1, 35) == (9, 1)
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
            assert a2.a == (2 * z * a1.a - (z * z - d) * a0.a) % n
            assert a2.b == (2 * z * a1.b - (z * z - d) * a0.b) % n


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
    pt = param_to_point(123, pp)
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
        assert product_ladder_cost(k) == 2 * squarings + 2 * multiplies + 1
        # the x-only Lucas ladder and nothing else: no inversion
        expected = point_pow_nodiv(pt, k, pp)
        inversions.clear()
        assert count_products(point_pow, tallied.x, k, pp) == (ladder_cost(k), expected.x)
        assert inversions == []
        # the Chebyshev chain, y * U included
        count, result = count_products(point_pow_nodiv, tallied, k, pp)
        assert (count, result) == (product_ladder_cost(k), expected)
        assert result == naive_point_pow(pt, k % (pp.modulus + 1), pp)
        # Redei pair: four multiplications per squaring, three per multiply
        count, _ = count_products(redei_eval, Tallied(pp.d), Tallied(123), k, pp.modulus)
        assert count == 4 * squarings + 3 * multiplies
        param_muls.clear()
        param_pow(123, k, pp)
        assert len(param_muls) == squarings + multiplies


@pytest.mark.parametrize("exponents", [[3, 1], [1, 1, 3], [5, 1], [9, 1]])
def test_decryption_ladders_run_mod_each_prime_and_lifts_count_log_k(monkeypatch, exponents):
    # one ladder per prime, mod the bare prime with an exponent below p + 1,
    # and its check, a power mod p to e reduced mod the same order; then
    # ceil(log3 k) cubic lift powers to e: p^3 for k = 3, p^3 and p^5 for
    # k = 5, p^3 and p^9 for k = 9
    rng = random.Random(83)
    pub, priv = scheme.keygen(len(exponents), exponents, 32, rng)
    msg = scheme.random_message(pub, rng)
    ct = scheme.encrypt_point(pub, msg)
    calls = {"point_pow": [], "point_pow_nodiv": []}
    for name, log in calls.items():
        def spy(p, k, pp, fn=getattr(scheme, name), log=log):
            log.append((k, pp.modulus))
            return fn(p, k, pp)

        monkeypatch.setattr(scheme, name, spy)
    assert scheme.decrypt_point(priv, ct) == msg
    primes = [p for p, _ in priv.factors.factors]
    assert [m for _, m in calls["point_pow"]] == primes
    assert all(k < m + 1 for k, m in calls["point_pow"])
    schedule = {1: [], 3: [3], 5: [3, 5], 9: [3, 9]}
    lifts = [(pub.e, p**j) for p, k in priv.factors.factors for j in schedule[k]]
    checks = [(pub.e % (p - jacobi(ct.d_coef, p)), p) for p in primes]
    assert [c for c in calls["point_pow_nodiv"] if c not in lifts] == checks
    assert [c for c in calls["point_pow_nodiv"] if c in lifts] == lifts
    # one step per power of 3: the least j with 3^j >= k
    assert len(lifts) == sum(min(j for j in range(k) if 3**j >= k) for _, k in priv.factors.factors)


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
                    acc = pp.identity()
                    for k in range(2 * order + 1):
                        check_point_pow(pt, k, pp, acc)
                        acc = point_mul(acc, pt, pp)
                else:
                    # the full k range costs minutes at 7^3..13^3: k around
                    # 0, order and 2 * order plus seeded draws, every point
                    ks = {0, 1, 2, 3, order - 1, order, order + 1, 2 * order - 1, 2 * order}
                    ks.update(rng.randrange(2 * order + 1) for _ in range(6))
                    for k in ks:
                        check_point_pow(pt, k, pp, point_pow_nodiv(pt, k, pp))
    assert non_unit > 0


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_decryption_root_step_exhaustive_against_product_oracle(p):
    # the ladder's x with y read off the power to e is the whole point
    # c^(d_i), for every point with y != 0 mod p and every e invertible mod
    # the order, so y is still checked on every such point
    for pp, pts, order in point_pow_cases(p, 1):
        for e_i in (e for e in range(1, order) if math.gcd(e, order) == 1):
            d_i = pow(e_i, -1, order)
            for c in pts:
                if c.y:
                    assert scheme._root_mod_prime(c, pp, d_i, e_i, 0) == point_pow_nodiv(c, d_i, pp)


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
            check_point_pow(pt, k, pp, point_pow_nodiv(pt, k, pp))


def test_point_pow_frozen_even_modulus():
    # (2, 1) on x^2 - 3 y^2 = 1 mod 10: squared, x = 2 * 4 - 1 = 7
    pp = PellParams(10, 3)
    pt = pp.point(2, 1)
    assert point_pow(2, 2, pp) == 7
    for k in range(200):
        check_point_pow(pt, k, pp, point_pow_nodiv(pt, k, pp))


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
    pt = param_to_point(rng.randrange(n), pp)
    if in_kernel:
        # P^(p^2 - 1) reduces to (1, 0) mod p, so D*y is not a unit mod n
        pt = point_pow_nodiv(pt, p * p - 1, pp)
        assert math.gcd(pt.y, n) != 1
    k = rng.getrandbits(rng.choice([1, 17, bits, 2 * bits]))
    check_point_pow(pt, k, pp, point_pow_nodiv(pt, k, pp))


@settings(max_examples=25)
@given(bits=st.sampled_from([512, 768, 1024]), seed=st.integers(0, 2**64))
def test_point_group_laws_at_crypto_sizes(bits, seed):
    # identity, inverse (x, -y), commutativity and associativity of the
    # product on random points of a random curve; powers add exponents and
    # the group order p - (D/p) annihilates
    p = crypto_prime(bits)
    rng = random.Random(seed)
    pp = PellParams(p, rng.randrange(1, p))
    a, b, c = (param_to_point(rng.randrange(p), pp) for _ in range(3))
    assert all(pp.on_curve(*pt) for pt in (a, b, c))
    assert point_mul(a, pp.identity(), pp) == a
    assert point_mul(a, HyperbolaPoint(a.x, -a.y % p), pp) == pp.identity()
    assert point_mul(a, b, pp) == point_mul(b, a, pp)
    assert point_mul(point_mul(a, b, pp), c, pp) == point_mul(a, point_mul(b, c, pp), pp)
    j, k = rng.randrange(p), rng.randrange(p)
    assert point_mul(point_pow_nodiv(a, j, pp), point_pow_nodiv(a, k, pp), pp) == point_pow_nodiv(a, j + k, pp)
    assert point_pow_nodiv(a, p - jacobi(pp.d, p), pp) == pp.identity()


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
        pt = param_to_point(m, pp)
        assert pp.on_curve(*pt)
        assert point_to_param(pt, pp) == m


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
