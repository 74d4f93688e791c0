import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import arith
from pellrsa.arith import (
    FactoredModulus,
    _lucas_test,
    _strong_test,
    crt_coefficients,
    crt_combine,
    gen_prime,
    is_probable_prime,
    jacobi,
    mod_inv,
)
from pellrsa.errors import ImpossibleOperation, RandomnessExhausted
from oracles import crt, miller_rabin, trial_division_prime


# ---- independent oracles ----

def egcd_oracle(a, b):
    if a == 0:
        return b, 0, 1
    g, x, y = egcd_oracle(b % a, a)
    return g, y - (b // a) * x, x


def legendre_by_enumeration(a, p):
    """Quadratic-residue set built by brute force; no Euler criterion."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def composite_flags(limit):
    """flags[n] is 1 for each composite n < limit, by the sieve."""
    flags = bytearray(limit)
    for p in range(2, math.isqrt(limit) + 1):
        if not flags[p]:
            flags[p * p :: p] = b"\x01" * len(flags[p * p :: p])
    return flags


def crt_by_search(residues, moduli):
    total = math.prod(moduli)
    for x in range(total):
        if all(x % m == r % m for r, m in zip(residues, moduli)):
            return x
    raise AssertionError("no CRT solution found")


# ---- mod_inv ----

def test_mod_inv_identity():
    assert mod_inv(1, 35) == 1


def test_mod_inv_frozen_example():
    # extended-Euclid oracle gives 11: 16*11 = 176 = 5*35 + 1
    g, x, _ = egcd_oracle(16, 35)
    assert g == 1 and x % 35 == 11
    assert mod_inv(16, 35) == 11
    with pytest.raises(ValueError, match="^modulus must be >= 2$"):
        mod_inv(3, 1)


def test_mod_inv_shared_factor_carries_gcd():
    with pytest.raises(ImpossibleOperation) as info:
        mod_inv(5, 35)
    assert info.value.factor == 5
    assert str(info.value) == "impossible group operation (factor=0x5)"
    # a factor of over 4300 decimal digits, which str() refuses, goes into
    # the message in hex instead of raising a bare ValueError
    n = (1 << 14400) + 1
    with pytest.raises(ImpossibleOperation) as info:
        mod_inv(0, n)
    assert str(info.value) == f"impossible group operation (factor={n:#x})"


def test_mod_inv_random_agrees_with_oracle():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 10_000)
        a = rng.randrange(0, n)
        g = math.gcd(a, n)
        if g == 1:
            b = mod_inv(a, n)
            assert 0 <= b < n and a * b % n == 1
        else:
            with pytest.raises(ImpossibleOperation) as info:
                mod_inv(a, n)
            assert info.value.factor == g


# ---- jacobi ----

@pytest.mark.parametrize("a,n,expected", [(1, 35, 1), (8, 35, -1), (5, 35, 0)])
def test_jacobi_frozen_examples(a, n, expected):
    assert jacobi(a, n) == expected


def test_jacobi_requires_odd_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)


def test_jacobi_matches_legendre_on_primes():
    primes = [p for p in range(3, 1000) if is_probable_prime(p)]
    rng = random.Random(11)
    for _ in range(400):
        p = rng.choice(primes)
        a = rng.randrange(0, 3 * p)
        assert jacobi(a, p) == legendre_by_enumeration(a, p)


def test_jacobi_multiplicative_in_top_argument():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(1, 500) * 2 + 1
        if n < 3:
            continue
        a, b = rng.randrange(0, n), rng.randrange(0, n)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@functools.lru_cache(maxsize=None)
def prime_in_class(bits, residue):
    """The first probable prime = residue mod 8 above a seeded `bits`-bit start."""
    p = random.Random(bits).getrandbits(bits) | 1 << bits - 1
    p += 8 + residue - p % 8
    while not is_probable_prime(p):
        p += 8
    return p


def euler_criterion(a, p):
    """Legendre symbol (a/p) as a^((p - 1)/2) mod p, in {-1, 0, 1}."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# (2/p) = 1 for p = 1, 7 mod 8 and -1 for p = 3, 5 mod 8; p = 3 mod 4 for 3, 7
RESIDUES_MOD_8 = [1, 3, 5, 7]


@settings(max_examples=120)
@given(
    bits=st.sampled_from([512, 683, 1024]),
    residue=st.sampled_from(RESIDUES_MOD_8),
    parity=st.integers(0, 1),
    data=st.data(),
)
def test_jacobi_matches_euler_criterion_at_crypto_sizes(bits, residue, parity, data):
    # a = 2^j u with u odd and a < p, so the first strip removes all j twos
    p = prime_in_class(bits, residue)
    j = 2 * data.draw(st.integers(0, (bits - 2 - parity) // 2)) + parity
    u = 2 * data.draw(st.integers(0, 2 ** (bits - 2 - j) - 1)) + 1
    a = u << j
    assert a < p
    assert jacobi(a, p) == euler_criterion(a, p)


@settings(max_examples=60)
@given(
    n=st.integers(2**1023, 2**1024 - 1).map(lambda n: n | 1),
    a=st.integers(0, 2**1024),
    b=st.integers(0, 2**1024),
    twos=st.tuples(st.integers(0, 1100), st.integers(0, 1100)),
    residues=st.tuples(st.sampled_from(RESIDUES_MOD_8), st.sampled_from(RESIDUES_MOD_8)),
)
def test_jacobi_multiplicative_at_crypto_sizes(n, a, b, twos, residues):
    a, b = a << twos[0], b << twos[1]
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
    # a 1024-bit product of two known primes: the product of Euler's criteria
    p, q = (prime_in_class(512, r) for r in residues)
    if p != q:
        assert jacobi(a, p * q) == euler_criterion(a, p) * euler_criterion(a, q)


# ---- crt_combine ----

def test_crt_frozen_example():
    assert crt_by_search([2, 3], [5, 7]) == 17
    assert crt([2, 3], [5, 7]) == 17
    # coordinate-wise: 1 mod 5 and 0 mod 7 is 21
    assert crt_combine([(2, 1), (3, 0)], [5, 7], (3,)) == (17, 21)


def test_crt_trivial_cases():
    assert crt_combine([(0,), (0,)], [11, 13], crt_coefficients([11, 13])) == (0,)
    assert crt_combine([(1, 2)], [997], ()) == (1, 2)


def test_crt_rejects_common_factor():
    with pytest.raises(ImpossibleOperation) as info:
        crt_coefficients([6, 15])
    assert info.value.factor == 3
    with pytest.raises(ImpossibleOperation) as info:
        crt_coefficients([7, 5, 21])
    assert info.value.factor == 7


def test_crt_refuses_too_few_coefficients():
    # zip stopped at the one coefficient and returned 16, not 366
    assert crt_combine([(1,), (2,), (3,)], [5, 7, 11], crt_coefficients([5, 7, 11])) == (366,)
    with pytest.raises(ValueError):
        crt_combine([(1,), (2,), (3,)], [5, 7, 11], (3,))
    # so are fewer residues than moduli
    with pytest.raises(ValueError, match="^need equally many residues and moduli"):
        crt_combine([(1,)], [5, 7], (3,))
    # and a coefficient that is not Garner's: (1,) used to give (6,), 6 mod 7
    with pytest.raises(ValueError, match="^coefficients must be crt_coefficients"):
        crt_combine([(1,), (2,)], [5, 7], (1,))


def test_crt_refuses_residue_tuples_of_unequal_lengths():
    # zip dropped the second coordinate and returned (31,)
    with pytest.raises(ValueError):
        crt_combine([(1, 2), (3,)], [5, 7], (3,))


MIXED_CRT_INPUTS = {
    "scalars": ([1, 2], [5, 7]),
    "scalar-then-tuple": ([1, (2, 3)], [5, 7]),
    "tuple-then-scalar": ([(1, 2), 3], [5, 7]),
}


@pytest.mark.parametrize("case", MIXED_CRT_INPUTS)
def test_crt_refuses_scalar_residues(case):
    # residues are tuples only; mixed scalars and tuples once leaked a TypeError
    with pytest.raises(ValueError, match="residues must be"):
        crt_combine(*MIXED_CRT_INPUTS[case], (3,))


def test_crt_coefficients_refuse_no_moduli():
    # moduli[0] used to leak an IndexError
    with pytest.raises(ValueError, match="at least one modulus"):
        crt_coefficients([])
    with pytest.raises(ValueError, match="at least one$"):
        crt_combine([], [], ())


def test_crt_reproduces_residues():
    rng = random.Random(19)
    for _ in range(100):
        moduli = rng.sample([5, 7, 9, 11, 13, 16, 17, 19, 23], rng.randrange(2, 5))
        if any(math.gcd(a, b) > 1 for i, a in enumerate(moduli) for b in moduli[i + 1:]):
            continue
        residues = [rng.randrange(0, m) for m in moduli]
        others = [rng.randrange(-m, 2 * m) for m in moduli]
        x, y = crt_combine(list(zip(residues, others)), moduli, crt_coefficients(moduli))
        assert 0 <= x < math.prod(moduli)
        assert all(x % m == r for r, m in zip(residues, moduli))
        assert (x, y) == (crt(residues, moduli), crt(others, moduli))


# ---- gen_prime ----

def test_gen_prime_range_and_trial_division():
    rng = random.Random(23)
    for bits in (8, 16, 48):
        p = gen_prime(bits, rng)
        assert p.bit_length() == bits
        for q in range(2, 10_000):
            if q * q > p:
                break
            assert p % q != 0, f"{p} divisible by {q}"


def test_gen_prime_distinct_across_seeds():
    a = gen_prime(40, random.Random(1))
    b = gen_prime(40, random.Random(2))
    assert a != b


def test_gen_prime_frozen_example():
    assert gen_prime(64, random.Random(1)) == 17324573639174612641


def test_gen_prime_rejects_tiny_request():
    with pytest.raises(ValueError):
        gen_prime(4, random.Random(0))


def test_gen_prime_gives_up_after_a_bounded_number_of_candidates():
    # every candidate from an all-zero source is 2^7 + 1 = 129 = 3 * 43
    zeros = random.Random(0)
    zeros.getrandbits = lambda bits: 0
    with pytest.raises(RandomnessExhausted, match="^no 8-bit prime found$"):
        gen_prime(8, zeros)


def test_is_probable_prime_against_sieve():
    # past 2^13, so every n the two gcds settle alone and the first n that
    # reach the strong test are checked
    composite = composite_flags(1 << 15)
    for n in range(1 << 15):
        assert is_probable_prime(n) == (n >= 2 and not composite[n]), n


def oracle_gen_prime(bits, rng):
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if trial_division_prime(candidate):
            return candidate


@pytest.mark.parametrize(
    "bits, seeds", [(bits, range(50)) for bits in range(8, 17)] + [(64, range(5)), (256, range(3)), (512, range(2))]
)
def test_gen_prime_draws_and_accepts_as_trial_division_by_a_loop_did(bits, seeds):
    # below 2^13 a candidate can itself be one of the trial divisors
    for seed in seeds:
        assert gen_prime(bits, random.Random(seed)) == oracle_gen_prime(bits, random.Random(seed)), (bits, seed)


def test_is_probable_prime_large():
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime(2**128 - 1)


@pytest.mark.parametrize("low, high", [(20, 65), (65, 257)])
def test_is_probable_prime_agrees_with_miller_rabin_on_a_seeded_walk(low, high):
    # from each seeded odd start of low to high - 1 bits, walk to the
    # oracle's next prime: every composite on the way and the prime agree
    rng = random.Random(29)
    for _ in range(150):
        n = rng.getrandbits(rng.randrange(low, high)) | 1 << (low - 1) | 1
        while not miller_rabin(n, rng):
            assert not is_probable_prime(n), n
            n += 2
        assert is_probable_prime(n), n


# OEIS A217719: the extra strong Lucas pseudoprimes below 10^5
EXTRA_STRONG_LUCAS_PSEUDOPRIMES = [
    989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919, 75077,
]


def test_lucas_half_accepts_primes_and_exactly_a217719():
    composite = composite_flags(10**5)
    passing = [n for n in range(7, 10**5, 2) if composite[n] and math.isqrt(n) ** 2 != n and _lucas_test(n)]
    assert passing == EXTRA_STRONG_LUCAS_PSEUDOPRIMES
    assert all(_lucas_test(n) for n in range(7, 10**5, 2) if not composite[n])


def test_base_2_half_pseudoprimes_fail_the_lucas_half():
    # strong pseudoprimes to base 2; the last, below 2^64, also to every
    # prime base up to 31, and of the first twelve prime bases only 37
    # refuses it
    for n in (2047, 3277, 4033, 4681, 8321, 3825123056546413051):
        assert _strong_test(n, 2) and not _lucas_test(n), n
        assert not is_probable_prime(n)


def test_no_odd_composite_below_2e5_passes_both_halves():
    composite = composite_flags(2 * 10**5)
    liars = [n for n in range(9, 2 * 10**5, 2) if composite[n] and _strong_test(n, 2) and _lucas_test(n)]
    assert liars == []


@pytest.mark.parametrize("half", ["_strong_test", "_lucas_test"])
def test_each_half_refuses_a_composite_above_2_64_alone(monkeypatch, half):
    # with either half made to pass everything, the other still refuses
    n = gen_prime(40, random.Random(41)) * gen_prime(40, random.Random(43))
    assert n > 1 << 64
    monkeypatch.setattr(arith, half, lambda *args: True)
    assert not is_probable_prime(n)


def test_strong_pseudoprime_to_the_first_twelve_prime_bases_is_refused():
    # 82 bits, a strong pseudoprime to every prime base up to 37: the first
    # twelve prime bases, which are exact below 2^64, all pass it
    n = 3317044064679887385961981
    assert n > 1 << 64 and n == 1287836182261 * 2575672364521
    assert all(_strong_test(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not is_probable_prime(n)


def test_chernick_carmichael_number_above_2_64_is_refused():
    # (6k+1)(12k+1)(18k+1) with all three prime is a Carmichael number:
    # a^(n-1) = 1 for every a coprime to n
    rng = random.Random(31)
    k = 1 << 70
    while not all(miller_rabin(f * k + 1, rng) for f in (6, 12, 18)):
        k += 1
    n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
    assert pow(2, n - 1, n) == 1 and pow(3, n - 1, n) == 1
    assert not is_probable_prime(n)


def test_square_of_a_prime_is_refused_and_the_search_for_p_ends(alarm):
    # no P has Jacobi(P^2 - 4, p^2) = -1, so the square must be caught first
    p = gen_prime(100, random.Random(37))
    assert not _lucas_test(p * p)
    assert not is_probable_prime(p * p)


# ---- FactoredModulus ----

def test_factored_modulus_value_and_ordering():
    fm = FactoredModulus([(7, 1), (5, 3)])
    assert fm.value == 5**3 * 7
    assert fm.factors == ((5, 3), (7, 1))
    assert repr(fm) == "FactoredModulus(0x5^3 * 0x7^1)"


@pytest.mark.parametrize("name", ["factors", "value"])
def test_factored_modulus_is_immutable(name):
    # assigning factors used to rewrite a validated key's factorization
    fm = FactoredModulus([(5, 1), (7, 1)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fm, name, ((11, 1), (13, 1)))
    assert (fm.factors, fm.value) == (((5, 1), (7, 1)), 35)
    assert fm == FactoredModulus([(7, 1), (5, 1)]) and hash(fm) == hash(FactoredModulus([(7, 1), (5, 1)]))


def test_factored_modulus_rejects_bad_input():
    with pytest.raises(ValueError):
        FactoredModulus([(6, 1), (5, 1)])  # 6 not prime
    with pytest.raises(ValueError):
        FactoredModulus([(5, 1), (5, 2)])  # repeated prime
    with pytest.raises(ValueError):
        FactoredModulus([(5, 0)])  # exponent < 1
    with pytest.raises(ValueError, match="^at least one prime factor required$"):
        FactoredModulus(())
    # 2^16000 has 4817 decimal digits, more than str() converts: hex it is
    with pytest.raises(ValueError, match=f"^{1 << 16000:#x} is not prime$"):
        FactoredModulus([(1 << 16000, 1)])
