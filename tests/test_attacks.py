import math
import random

import pytest

from pellrsa.arith import FactoredModulus, gen_prime, is_probable_prime
from pellrsa.attacks import (
    _draw_non_residue,
    find_factor,
    full_factorization,
    impossible_op_probability,
)
from pellrsa.errors import TrialBudgetExhausted
from pellrsa.pell import psi


class FixedRng:
    """Hands out a scripted sequence of randrange results."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, *args):
        return self.values.pop(0)


class ExplodingRng:
    def randrange(self, *args):
        raise AssertionError("randomness should not be consulted")


def monte_carlo_impossible_rate(fm, trials, rng):
    """Empirical counterpart of impossible_op_probability.

    Draws pairs of residues and counts denominators a + b that are not
    units (a + b = 0, the legitimate identity result, counts too: the
    closed form tallies every non-unit).  Identity-element draws carry no
    denominator and are left out so the expectation matches the closed
    form exactly.
    """
    n = fm.value
    hits = 0
    for _ in range(trials):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if math.gcd(a + b, n) != 1:
            hits += 1
    return hits / trials


# ---- find_factor ----

def test_find_factor_splits_35():
    rng = random.Random(1)
    hits = []
    for _ in range(20):
        f = find_factor(35, 48, 17, rng)
        if f:
            hits.append(f)
    assert hits and set(hits) <= {5, 7}


def test_find_factor_gcd_shortcut():
    assert find_factor(35, 48, 17, FixedRng([10])) == 5


def test_find_factor_odd_psi_degenerates():
    # odd "psi" strips to h = 0, so the probe loop never runs; the modulus is
    # large enough that the exponentiation itself leaks nothing
    assert find_factor(1009 * 1013, 49, 2, FixedRng([2])) == 0


def test_find_factor_harvests_impossible_operations():
    # at a toy modulus the power chain itself trips a zero divisor and the
    # leaked factor is returned even though the probe loop is degenerate
    assert find_factor(35, 49, 17, FixedRng([2])) in (5, 7)


def test_find_factor_returns_proper_divisors():
    rng = random.Random(2)
    n, psi_n = 5 * 7 * 11, 6 * 8 * 12
    for _ in range(100):
        f = find_factor(n, psi_n, 2 if math.gcd(2, n) == 1 else 3, rng)
        if f:
            assert 1 < f < n and n % f == 0


def test_find_factor_success_rate_on_32_bit_primes():
    rng = random.Random(3)
    p, q = gen_prime(32, rng), gen_prime(32, rng)
    n, psi_n = p * q, (p + 1) * (q + 1)
    # each trial as full_factorization runs it, with a fresh non-residue
    found = [find_factor(n, psi_n, _draw_non_residue(n, rng), rng) for _ in range(200)]
    factors = [f for f in found if f]
    assert len(factors) >= 0.25 * 200
    assert all(n % f == 0 and 1 < f < n for f in factors)


# ---- full factorization ----

def test_full_factorization_frozen_examples():
    rng = random.Random(4)
    assert full_factorization(35, 48, rng) == [(5, 1), (7, 1)]
    assert full_factorization(875, 1200, rng) == [(5, 3), (7, 1)]


def test_prime_input_short_circuits():
    assert full_factorization(7, 8, ExplodingRng()) == [(7, 1)]


def test_full_factorization_budget():
    # an odd bogus psi gives the splitting loop nothing to work with
    with pytest.raises(TrialBudgetExhausted):
        full_factorization(1009 * 1013, 1, random.Random(0), max_trials=3)


def test_full_factorization_rejects_psi_below_one():
    # a zero psi has no odd part for the splitting trial to reach
    with pytest.raises(ValueError):
        full_factorization(15, 0, random.Random(0))


def test_full_factorization_random_moduli_remultiply():
    rng = random.Random(5)
    for _ in range(10):
        primes = []
        while len(primes) < rng.choice((2, 3)):
            p = gen_prime(rng.choice((16, 20)), rng)
            if p not in primes:
                primes.append(p)
        exps = [rng.choice((1, 1, 1, 3)) for _ in primes]
        fm = FactoredModulus(zip(primes, exps))
        result = full_factorization(fm.value, psi(fm), rng, max_trials=400)
        assert result == list(fm.factors)
        assert math.prod(p**e for p, e in result) == fm.value
        assert all(is_probable_prime(p) for p, _ in result)


def test_psi_of_recovered_factorization_matches():
    rng = random.Random(6)
    p, q = gen_prime(24, rng), gen_prime(24, rng)
    psi_n = (p + 1) * (q + 1)
    recovered = full_factorization(p * q, psi_n, rng)
    assert psi(FactoredModulus(recovered)) == psi_n


# ---- impossible-operation probability ----

def test_probability_frozen_examples():
    assert impossible_op_probability([5, 7]) == pytest.approx(11 / 35)
    assert impossible_op_probability([101]) == pytest.approx(1 / 101)


def test_probability_negligible_for_large_primes():
    rng = random.Random(7)
    p, q = gen_prime(512, rng), gen_prime(512, rng)
    assert impossible_op_probability([p, q]) < 2**-500


def test_probability_rejects_repeated_primes():
    with pytest.raises(ValueError):
        impossible_op_probability([5, 5])


def test_monte_carlo_rate_close_to_closed_form():
    rng = random.Random(8)
    fm = FactoredModulus([(5, 1), (7, 1)])
    trials = 20_000
    rate = monte_carlo_impossible_rate(fm, trials, rng)
    expected = impossible_op_probability([5, 7])
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) <= 3 * sigma


def test_monte_carlo_prime_modulus():
    rng = random.Random(9)
    fm = FactoredModulus([(101, 1)])
    rate = monte_carlo_impossible_rate(fm, 5000, rng)
    assert abs(rate - 1 / 101) <= 3 * math.sqrt((1 / 101) * (100 / 101) / 5000)


def test_monte_carlo_large_primes_never_hit():
    rng = random.Random(10)
    p, q = gen_prime(64, rng), gen_prime(64, rng)
    fm = FactoredModulus([(p, 1), (q, 1)])
    assert monte_carlo_impossible_rate(fm, 10_000, rng) == 0.0
