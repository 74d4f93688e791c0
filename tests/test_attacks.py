import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import attacks, pell
from pellrsa.arith import MAX_MODULUS_BITS, FactoredModulus, gen_prime, is_probable_prime, mod_inv
from pellrsa.attacks import (
    _draw_non_residue,
    _iroot,
    _perfect_power,
    _split_from_psi,
    find_factor,
    full_factorization,
)
from pellrsa.errors import RandomnessExhausted, TrialBudgetExhausted
from pellrsa.pell import point_pow, psi
from pellrsa.scheme import exponent_modulus, keygen, keypair_from_primes
from oracles import NoDraws, impossible_op_probability


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
    hits = {find_factor(35, 48, _draw_non_residue(35, rng)) for _ in range(20)}
    assert hits - {0} and hits <= {0, 5, 7}


def test_find_factor_odd_psi_degenerates():
    # odd "psi" strips to h = 0, so the probe loop never runs
    assert find_factor(1009 * 1013, 49, 2) == 0


@pytest.mark.parametrize("x", [2, 3])
def test_find_factor_probes_order_two_and_identity(x):
    # x^2 - 1 = 3 and 8 are residues mod 1009, so psi_n = lcm(1010, 1014) = 2t
    # leaves that prime's point at large order; mod 1013 the point raised to t
    # has x = 1 for x = 2, which only gcd(x - 1, n) sees, and x = -1 for
    # x = 3, which only gcd(x + 1, n) sees
    assert find_factor(1009 * 1013, math.lcm(1010, 1014), x) == 1013


def test_find_factor_runs_one_ladder_and_no_inversion(monkeypatch):
    # a trial is one x-only decryption ladder to the odd part of psi, with no
    # inversion and no parameter product
    rng = random.Random(11)
    fm = FactoredModulus((gen_prime(176, rng), 1) for _ in range(3))
    n, psi_n = fm.value, psi(fm)
    assert n.bit_length() >= 512
    powers, inversions, products = [], [], []

    def spy_point_pow(x, k, pp):
        powers.append(k)
        return point_pow(x, k, pp)

    def spy_mod_inv(a, m):
        inversions.append(m)
        return mod_inv(a, m)

    monkeypatch.setattr(attacks, "point_pow", spy_point_pow)
    for module in (pell, attacks):
        monkeypatch.setattr(module, "mod_inv", spy_mod_inv, raising=False)
        for name in ("param_pow", "param_mul", "redei_pow"):
            monkeypatch.setattr(module, name, lambda *a, name=name: products.append(name), raising=False)
    f = find_factor(n, psi_n, _draw_non_residue(n, rng))
    assert 1 < f < n and n % f == 0
    assert powers == [psi_n // (psi_n & -psi_n)]
    assert inversions == []
    assert products == []


def test_find_factor_returns_proper_divisors():
    rng = random.Random(2)
    n, psi_n = 5 * 7 * 11, 6 * 8 * 12
    for _ in range(100):
        f = find_factor(n, psi_n, _draw_non_residue(n, rng))
        if f:
            assert 1 < f < n and n % f == 0


def test_find_factor_success_rate_on_32_bit_primes():
    rng = random.Random(3)
    p, q = gen_prime(32, rng), gen_prime(32, rng)
    n, psi_n = p * q, (p + 1) * (q + 1)
    # each trial as full_factorization runs it, from a fresh start x
    found = [find_factor(n, psi_n, _draw_non_residue(n, rng)) for _ in range(200)]
    factors = [f for f in found if f]
    assert len(factors) >= 0.25 * 200
    assert all(n % f == 0 and 1 < f < n for f in factors)


# ---- perfect powers ----

@pytest.mark.parametrize("n", [3**5, 45**6, 15**18, 3**1009])
def test_perfect_power_returns_a_prime_exponent(n):
    # 3^1009 needs a prime exponent above the trial-division primes
    root, k = _perfect_power(n)
    assert is_probable_prime(k) and root**k == n


def test_perfect_power_scan_tries_prime_exponents_only(monkeypatch):
    rng = random.Random(14)
    n = gen_prime(512, rng) * gen_prime(512, rng)
    assert n.bit_length() == 1024
    roots = []

    def spy_iroot(m, k):
        roots.append(k)
        return _iroot(m, k)

    monkeypatch.setattr(attacks, "_iroot", spy_iroot)
    assert _perfect_power(n) == (n, 1)
    assert len(roots) <= 172  # pi(1024)
    assert all(is_probable_prime(k) for k in roots)


def test_full_factorization_peels_nested_powers():
    # 15^18 comes back as (15^9)^2; each root is examined again
    fm = FactoredModulus([(3, 18), (5, 18), (7, 1)])
    assert full_factorization(fm.value, psi(fm), random.Random(12)) == list(fm.factors)


# ---- full factorization ----

@pytest.mark.parametrize("factors", [[(3, 1), (5, 1)], [(3, 3), (5, 1)], [(3, 1), (5, 3)], [(3, 1), (5, 1), (7, 1)]])
def test_full_factorization_of_multiples_of_15(factors):
    # mod 3, x^2 - 1 is a unit only for x = 0, and then Jacobi(x^2 - 1, 15)
    # = -1 needs x = 0 mod 5 too: 15 has no start x, so 3 is divided out
    fm = FactoredModulus(factors)
    assert full_factorization(fm.value, psi(fm), random.Random(15)) == list(fm.factors)


def test_full_factorization_frozen_examples():
    rng = random.Random(4)
    assert full_factorization(35, 48, rng) == [(5, 1), (7, 1)]
    assert full_factorization(875, 1200, rng) == [(5, 3), (7, 1)]


def test_prime_input_short_circuits():
    assert full_factorization(7, 8, NoDraws()) == [(7, 1)]


def test_full_factorization_budget():
    # an odd bogus psi gives the splitting loop nothing to work with; for
    # 1009^3 it lacks the 1009 of psi(1009^3), so the exact-root scan, which
    # used to return (1009, 3), is skipped
    for n in (1009 * 1013, 1009**3):
        with pytest.raises(TrialBudgetExhausted):
            full_factorization(n, 1, random.Random(0), max_trials=3)


def test_an_even_prime_power_exhausts_the_draws_for_a_start_x():
    # Jacobi(x^2 - 1, 5^2) is a square, never -1, so no start x exists
    with pytest.raises(RandomnessExhausted, match="^no x with Jacobi"):
        full_factorization(25, 2, random.Random(0))


def test_square_free_moduli_are_never_root_scanned(monkeypatch):
    # the benchmark's factoring shapes: r = 2 and r = 3 at 1024 bits; the
    # scan took about 15% of their factoring time and could only fail
    scans = []
    monkeypatch.setattr(attacks, "_perfect_power", lambda m: scans.append(m) or _perfect_power(m))
    rng = random.Random(1024)
    for r in (2, 3) * 3:
        pub, priv = keygen(r, [1] * r, 1024 // r, rng)
        assert full_factorization(pub.n, psi(priv.factors), rng) == list(priv.factors.factors)
    assert scans == []


FACTORING_SHAPES = {
    "r2": [1, 1],
    "r3": [1, 1, 1],
    "r4": [1, 1, 1, 1],
    "pp31": [3, 1],
    "pp13": [1, 3],
    "pp331": [3, 3, 1],
}


def factoring_key(shape):
    """A seeded key of the shape on distinct 80-bit primes, and its primes."""
    exponents = FACTORING_SHAPES[shape]
    rng = random.Random(f"shape/{shape}")
    primes = []
    while len(primes) < len(exponents):
        p = gen_prime(80, rng)
        if p not in primes:
            primes.append(p)
    return primes, *keypair_from_primes(primes, exponents)


@pytest.mark.parametrize("shape", FACTORING_SHAPES)
def test_primality_is_tested_on_wide_cofactors_only_when_they_are_prime(shape, monkeypatch):
    # p + 1 divides psi(n), its multiples and the exponent modulus for every
    # prime p | n, so a wide cofactor m whose m + 1 does not divide psi_n is
    # split without a primality test; one is tested only after a trial on it
    # failed, which is rare under psi(n) and common under the exponent modulus
    exponents = FACTORING_SHAPES[shape]
    primes, pub, priv = factoring_key(shape)
    events = []
    monkeypatch.setattr(attacks, "is_probable_prime", lambda m: events.append((m, None)) or is_probable_prime(m))

    def spy_find_factor(m, psi_n, x):
        f = find_factor(m, psi_n, x)
        events.append((m, f))
        return f

    monkeypatch.setattr(attacks, "find_factor", spy_find_factor)
    for psi_n in (psi(priv.factors), 3 * psi(priv.factors), exponent_modulus(priv.factors, priv.mode)):
        for seed in range(4):
            events.clear()
            assert full_factorization(pub.n, psi_n, random.Random(seed)) == list(priv.factors.factors)
            tested = [m for m, f in events if f is None]
            failed = {m for m, f in events if f == 0}
            for i, (m, f) in enumerate(events):
                if f is None and m >= 1 << 64 and m not in primes:
                    assert (m, 0) in events[:i], f"composite {m:#x} tested before any trial on it failed"
            if exponents == [1] * len(exponents):
                # each prime once, and each cofactor once after its failed trial
                assert sorted(tested) == sorted(primes + list(failed))


# find_factor calls under 3 psi(n) and the exponent modulus for rng seeds
# 0..3, as recorded before the closed-form split was added: "012>2" is a trial
# on p0 p1 p2 that split off p2, "01>" a trial on p0 p1 that failed.  Off exact
# psi the closed form never fires, and the pop order moves no start x.
SPLITTING_TRIALS = {
    ("r2", "3psi"): [["01>1"], ["01>1"], ["01>0"], ["01>0"]],
    ("r2", "lambda"): [["01>", "01>0"], ["01>1"], ["01>1"], ["01>1"]],
    ("r3", "3psi"): [["012>2", "01>0"], ["012>0", "12>2"], ["012>2", "01>0"], ["012>2", "01>1"]],
    ("r3", "lambda"): [["012>01", "01>", "01>0"], ["012>0", "12>2"], ["012>0", "12>1"], ["012>12", "12>1"]],
    ("r4", "3psi"): [
        ["0123>0", "123>23", "23>2"],
        ["0123>3", "012>1", "02>0"],
        ["0123>12", "03>3", "12>2"],
        ["0123>3", "012>0", "12>1"],
    ],
    ("r4", "lambda"): [
        ["0123>013", "013>0", "13>1"],
        ["0123>3", "012>0", "12>1"],
        ["0123>012", "012>0", "12>2"],
        ["0123>013", "013>0", "13>1"],
    ],
    ("pp31", "3psi"): [["0001>000"], ["0001>000"], ["0001>1"], ["0001>1"]],
    ("pp31", "lambda"): [["0001>1"], ["0001>1"], ["0001>000"], ["0001>000"]],
    ("pp13", "3psi"): [["0111>0"], ["0111>111"], ["0111>0"], ["0111>111"]],
    ("pp13", "lambda"): [["0111>0"], ["0111>0"], ["0111>", "0111>0"], ["0111>", "0111>0"]],
    ("pp331", "3psi"): [
        ["0001112>2", "01>0"],
        ["0001112>000", "1112>111"],
        ["0001112>000", "1112>2"],
        ["0001112>000", "1112>111"],
    ],
    ("pp331", "lambda"): [
        ["0001112>111", "0002>", "0002>2"],
        ["0001112>1112", "1112>2"],
        ["0001112>2", "01>", "01>", "01>", "01>0"],
        ["0001112>000", "1112>2"],
    ],
}


@pytest.mark.parametrize("shape", FACTORING_SHAPES)
def test_splitting_trials_are_pinned(shape, monkeypatch):
    # exact psi draws the same start x as 3 psi(n), which has the same odd part
    # up to 3; on a square-free n it spends no trial on the last two primes,
    # so r = 2, 3 and 4 take 0, 1 and 2 trials, and a prime power's
    # multiplicity keeps the closed form off its cofactors
    primes, pub, priv = factoring_key(shape)

    def indices(m):
        out = ""
        for i, p in enumerate(primes):
            while m % p == 0:
                out, m = out + str(i), m // p
        return out

    calls = []

    def spy_find_factor(m, psi_n, x):
        f = find_factor(m, psi_n, x)
        calls.append(f"{indices(m)}>{indices(f) if f else ''}")
        return f

    monkeypatch.setattr(attacks, "find_factor", spy_find_factor)
    lam = exponent_modulus(priv.factors, priv.mode)
    multiples = {"psi": psi(priv.factors), "3psi": 3 * psi(priv.factors), "lambda": lam}
    seen = {}
    for kind, psi_n in multiples.items():
        for seed in range(4):
            calls.clear()
            assert full_factorization(pub.n, psi_n, random.Random(seed)) == list(priv.factors.factors)
            seen.setdefault(kind, []).append(list(calls))
    assert seen["3psi"] == SPLITTING_TRIALS[shape, "3psi"]
    assert seen["lambda"] == SPLITTING_TRIALS[shape, "lambda"]
    square_free = FACTORING_SHAPES[shape] == [1] * len(primes)
    assert seen["psi"] == [trials[:-1] if square_free else trials for trials in seen["3psi"]]
    if square_free:
        assert [len(trials) for trials in seen["psi"]] == [len(primes) - 2] * 4


@pytest.mark.parametrize("small", [[], [(2, 1), (3, 1)], [(2, 3), (3, 2)]])
def test_two_primes_under_exact_psi_need_no_trial(small):
    # the closed form divides psi of the 2s and 3s found first out of psi_n;
    # 3 psi(n) has no closed form and runs out of trials, as it always did
    _, _, priv = factoring_key("r2")
    fm = FactoredModulus(small + list(priv.factors.factors))
    assert full_factorization(fm.value, psi(fm), NoDraws(), max_trials=0) == list(fm.factors)
    with pytest.raises(TrialBudgetExhausted):
        full_factorization(fm.value, 3 * psi(fm), random.Random(0), max_trials=0)


@settings(max_examples=60)
@given(
    bits=st.tuples(st.integers(16, 64), st.integers(16, 64)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-(2**40), 2**40).filter(bool),
    c=st.integers(2, 2**16),
    data=st.data(),
)
def test_split_from_psi_returns_a_proper_divisor_or_zero(bits, seed, k, c, data):
    # p + q = psi(pq) - pq - 1, so exact psi yields p; any other value yields
    # 0 or a proper divisor, never 1, m or a non-divisor: 2m + 2 = psi of the
    # trivial split 1 * m, and phi(m) gives the negative root -q
    rng = random.Random(seed)
    p = gen_prime(bits[0], rng)
    q = gen_prime(bits[1], rng)
    while q == p:
        q = gen_prime(bits[1], rng)
    p, q = sorted((p, q))
    assert _split_from_psi(p * q, (p + 1) * (q + 1)) == p
    assert _split_from_psi(p * p, (p + 1) ** 2) == p  # discriminant 0
    for m, exact in ((p * q, (p + 1) * (q + 1)), (p * p, (p + 1) ** 2)):
        below = data.draw(st.integers(0, 4 ** m.bit_length() - 1))
        for other in (exact + k, c * exact, 2 * m + 2, (p - 1) * (q - 1), below):
            f = _split_from_psi(m, other)
            assert f == 0 or (1 < f < m and m % f == 0), (m, other, f)
    assert _split_from_psi(p * q, 2 * p * q + 2) == 0
    assert _split_from_psi(p * q, (p - 1) * (q - 1)) == 0


@pytest.mark.parametrize("max_trials", [0, 1, 200])
@pytest.mark.parametrize("bogus", ["one", "p+2"])
def test_a_wide_prime_under_a_bogus_psi_is_still_returned(bogus, max_trials):
    # p + 1 does not divide psi_n, so the primality test of p waits for a
    # failed trial, or for the budget: with max_trials=0 it draws no start x
    p = gen_prime(80, random.Random(31))
    psi_n = {"one": 1, "p+2": p + 2}[bogus]
    rng = NoDraws() if max_trials == 0 else random.Random(0)
    assert full_factorization(p, psi_n, rng, max_trials=max_trials) == [(p, 1)]


def test_full_factorization_budget_message_survives_the_int_str_limit():
    # 2330 bits is about 700 decimal digits, past the limit set below
    n = (2**2203 - 1) * (2**127 - 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(TrialBudgetExhausted, match=f"{n:#x}"):
            full_factorization(n, 1, random.Random(0), max_trials=1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_full_factorization_refuses_oversized_moduli():
    n = 3**10400
    assert n.bit_length() > MAX_MODULUS_BITS
    with pytest.raises(ValueError, match="must lie in"):
        full_factorization(n, 4, NoDraws())


# an odd 200,000-bit psi used to cost seconds per splitting trial
OVERSIZED_PSI = {
    "psi-wider-than-n-squared": (7, 1 << 6),
    "psi-far-too-wide": ((2**521 - 1) * (2**607 - 1), (1 << 200_000) | 1),
}


@pytest.mark.parametrize("case", OVERSIZED_PSI)
def test_full_factorization_refuses_an_oversized_psi_before_any_work(case):
    n, psi_n = OVERSIZED_PSI[case]
    with pytest.raises(ValueError, match="must lie in"):
        full_factorization(n, psi_n, NoDraws())


@pytest.mark.parametrize("max_trials", [-1, 1.5, True, "3", None])
def test_full_factorization_refuses_a_max_trials_that_is_no_int_at_least_0_before_any_work(max_trials, monkeypatch):
    # -1 used to run as 0, and 1.5 as a budget of 2
    tested = []
    monkeypatch.setattr(attacks, "is_probable_prime", lambda m: tested.append(m) or is_probable_prime(m))
    with pytest.raises(ValueError, match="must lie in"):
        full_factorization(35, 48, NoDraws(), max_trials=max_trials)
    assert tested == []


def test_full_factorization_accepts_psi_up_to_twice_the_bits_of_n():
    # 7 has 3 bits, so psi_n may have 6; the prime n short-circuits
    assert full_factorization(7, (1 << 6) - 1, NoDraws()) == [(7, 1)]


def test_full_factorization_takes_multiples_of_psi_below_n_squared_only():
    # the splitting trials need only a multiple of the group exponents, so
    # the exponent modulus and 3 psi(n) factor n; a robust key's e d - 1 is a
    # multiple too, but wider than 2|n| bits, so it is refused before any work
    rng = random.Random(23)
    pub, priv = keypair_from_primes([gen_prime(64, rng) for _ in range(2)], [1, 1])
    n, lam = pub.n, exponent_modulus(priv.factors, priv.mode)
    for multiple in (lam, 3 * psi(priv.factors)):
        assert multiple.bit_length() <= 2 * n.bit_length()
        assert full_factorization(n, multiple, random.Random(1)) == list(priv.factors.factors)
    wide = pub.e * priv.d - 1
    assert wide % lam == 0 and wide.bit_length() > 2 * n.bit_length()
    with pytest.raises(ValueError, match="must lie in"):
        full_factorization(n, wide, NoDraws())


def test_full_factorization_rejects_psi_below_one():
    # a zero psi has no odd part for the splitting trial to reach
    with pytest.raises(ValueError):
        full_factorization(15, 0, random.Random(0))
    with pytest.raises(ValueError, match="^psi_n must be >= 1$"):
        find_factor(35, 0, 2)


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


@settings(max_examples=40)
@given(
    shape=st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.integers(16, 40)), min_size=1, max_size=4),
    seed=st.integers(0, 2**64),
)
def test_full_factorization_property(shape, seed):
    # every shape with r = 1..4 and exponents 1..3 factors exactly, and each
    # splitting trial returns 0 or a proper divisor of its cofactor
    rng = random.Random(seed)
    primes = []
    for _, bits in shape:
        p = gen_prime(bits, rng)
        while p in primes:
            p = gen_prime(bits, rng)
        primes.append(p)
    fm = FactoredModulus(zip(primes, (e for e, _ in shape)))
    trials = []

    def spy_find_factor(m, psi_n, x):
        f = find_factor(m, psi_n, x)
        trials.append((m, f))
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attacks, "find_factor", spy_find_factor)
        assert full_factorization(fm.value, psi(fm), rng) == list(fm.factors)
    assert all(f == 0 or (1 < f < m and m % f == 0) for m, f in trials)


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


NOT_DISTINCT_PRIMES = {
    "repeated": [5, 5],
    "zero": [0],
    "one": [1],
    "square": [4],
    "composite-beside-a-prime": [5, 9],
    "negative": [-5],
    "float": [5.0],
    "bool": [True],
    "str": [5, "7"],
}


@pytest.mark.parametrize("case", NOT_DISTINCT_PRIMES)
def test_probability_rejects_repeated_primes(case):
    # entries that are no int primes used to divide by zero, or to return a
    # probability for a non-prime: 1.0 for [1], 0.25 for [4]
    with pytest.raises(ValueError):
        impossible_op_probability(NOT_DISTINCT_PRIMES[case])


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
