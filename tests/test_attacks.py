import ast
import builtins
import inspect
import math
import random
import sys
from unittest.mock import ANY

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import arith, attacks, pell
from pellrsa.arith import MAX_MODULUS_BITS, FactoredModulus, gen_prime, is_probable_prime
from pellrsa.attacks import (
    _draw_non_residue,
    _iroot,
    _perfect_power,
    _split_from_psi,
    find_factor,
    full_factorization,
)
from pellrsa.errors import RandomnessExhausted, TrialBudgetExhausted
from pellrsa.pell import PellParams, psi
from pellrsa.scheme import Mode, exponent_modulus, keygen, keypair_from_primes
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


# ---- the factoring work: every kernel call, in order ----

# the kernel calls of full_factorization and find_factor, as attacks names them
LOGGED = ("is_probable_prime", "_perfect_power", "_split_from_psi", "_draw_non_residue", "find_factor", "PellParams",
          "point_pow")


def record_calls(mp):
    """Through the MonkeyPatch mp, log each call of LOGGED in attacks and each
    inversion or parameter product in attacks, pell and arith from here on,
    in order, a call before its callees, as [name, *arguments, result]."""
    log = []
    for module in (attacks, pell, arith):
        for name in (LOGGED if module is attacks else ()) + ("mod_inv", "param_mul", "param_pow", "redei_pow"):
            if hasattr(module, name):
                def spy(*args, name=name, original=getattr(module, name)):
                    log.append(entry := [name, *args])
                    entry.append(original(*args))
                    return entry[-1]
                mp.setattr(module, name, spy)
    return log


def trial_calls(m, x, f, psi_n):
    """R1's log of one trial on m from the start x that found f: the draw,
    find_factor, and in it one curve and one ladder to the odd part of psi_n."""
    curve = PellParams(m, (x * x - 1) % m)
    return [["_draw_non_residue", m, ANY, x], ["find_factor", m, psi_n, x, f], ["PellParams", m, curve.d, curve],
            ["point_pow", x, psi_n // (psi_n & -psi_n), curve, ANY]]


def trials_of(log):
    """(m, x, result) of each find_factor call in the log."""
    return [(entry[1], entry[3], entry[4]) for entry in log if entry[0] == "find_factor"]


def words(log, primes, psi_n):
    """The log in the table's words, each cofactor as its primes' indices
    ("0001" is p0^3 p1) and each result after ">", nothing for none: P2 and
    C01 are primality tests that pass and fail, R000>0 an exact-root scan
    that found p0^3, S01>0 a closed-form split, T012>2 the four calls of
    trial_calls, and ? starts any other call's name and arguments."""
    def ix(m):
        out = ""
        for i, p in enumerate(primes):
            while m and m % p == 0:
                out, m = out + str(i), m // p
        return out

    out, i = [], 0
    while i < len(log):
        (name, m, *rest), trial = log[i], log[i:i + 4]
        if name == "_draw_non_residue" and len(trial) == 4 and trial == trial_calls(m, rest[-1], trial[1][-1], psi_n):
            out.append(f"T{ix(m)}>{ix(trial[1][-1])}")
            i += 3
        elif name == "is_probable_prime":
            out.append(("P" if rest[-1] else "C") + ix(m))
        elif name == "_perfect_power":
            out.append(f"R{ix(m)}>{ix(rest[-1][0]) if rest[-1][1] > 1 else ''}")
        elif name == "_split_from_psi":
            out.append(f"S{ix(m)}>{ix(rest[-1])}")
        else:
            out.append(f"?{name}{tuple(log[i][1:])}")
        i += 1
    return " ".join(out)


def assert_primes_are_tested_once(log, primes, psi_n, max_trials):
    """R2: each of the primes takes one is_probable_prime, and a cofactor m >= 2^64
    whose m + 1 does not divide psi_n is tested only after a failed trial on m or with no trial left."""
    tested = [entry[1] for entry in log if entry[0] == "is_probable_prime"]
    assert [tested.count(p) for p in primes] == [1] * len(primes)
    for i, (name, m, *_) in enumerate(log):
        if name == "is_probable_prime" and m >= 1 << 64 and psi_n % (m + 1):
            trials = trials_of(log[:i])
            assert (m, ANY, 0) in trials or len(trials) >= max_trials, f"{m:#x} tested first"


FACTORING_SHAPES = {"r2": [1, 1], "r3": [1, 1, 1], "r4": [1, 1, 1, 1],
                    "pp31": [3, 1], "pp13": [1, 3], "pp331": [3, 3, 1]}


def factoring_work(modulus, multiple, seed, log):
    """Clear the log, then factor a row's modulus under its multiple of psi:
    (primes above 3 in index order, factors, psi_n, max_trials) and the words
    of its calls, " !" added for a TrialBudgetExhausted.  A shape is on
    distinct 80-bit primes, from random.Random(seed); "r2*k" is the r2 shape
    times k = 1, 6 = 2 * 3 or 648 = 2^3 * 3^2, and "7" the prime 7, both under
    NoDraws with max_trials=0; "nested" is 3^18 5^18 7, from random.Random(12);
    1024r2 and 1024r3 are keys drawn in turn from random.Random(1024), whose draws go on."""
    rng, max_trials = random.Random(1024 if modulus.startswith("1024") else seed), 200
    if modulus.startswith("1024"):
        for r in range(2, int(modulus[-1]) + 1):
            fm = keygen(r, [1] * r, 1024 // r, rng)[1].factors
        primes = [p for p, _ in fm.factors]
    elif modulus == "nested":
        primes, fm, rng = [5, 7], FactoredModulus([(3, 18), (5, 18), (7, 1)]), random.Random(12)
    elif modulus == "7":
        primes, fm, rng, max_trials = [7], FactoredModulus([(7, 1)]), NoDraws(), 0
    else:
        shape, _, times = modulus.partition("*")
        draw, primes = random.Random(f"shape/{shape}"), []
        while len(primes) < len(FACTORING_SHAPES[shape]):
            if (p := gen_prime(80, draw)) not in primes:
                primes.append(p)
        small = {"6": [(2, 1), (3, 1)], "648": [(2, 3), (3, 2)]}.get(times, [])
        fm = FactoredModulus(small + list(zip(primes, FACTORING_SHAPES[shape])))
        if times:
            rng, max_trials = NoDraws(), 0
    psi_n = {"psi": psi(fm), "3psi": 3 * psi(fm), "lambda": exponent_modulus(fm, Mode.ROBUST)}[multiple]
    run = primes, fm, psi_n, max_trials
    log.clear()  # the key's own primality tests and inversions
    try:
        assert full_factorization(fm.value, psi_n, rng, max_trials) == list(fm.factors)
        return run, words(log, primes, psi_n)
    except TrialBudgetExhausted:
        return run, words(log, primes, psi_n) + " !"


# {(moduli, psi multiples): the words of each seed, for each modulus as factoring_work builds it under each multiple}
FACTORING_WORK = {
    ("r2", "psi"): ["S01>0 P1 P0", "S01>0 P1 P0", "S01>0 P1 P0", "S01>0 P1 P0"],
    ("r2", "3psi"): ["S01> T01>1 P0 P1", "S01> T01>1 P0 P1", "S01> T01>0 P1 P0", "S01> T01>0 P1 P0"],
    ("r2", "lambda"): ["S01> T01> C01 T01>0 P1 P0", "S01> T01>1 P0 P1", "S01> T01>1 P0 P1", "S01> T01>1 P0 P1"],
    ("r3", "psi"): ["S012> T012>2 P2 S01>1 P0 P1", "S012> T012>0 P0 S12>2 P1 P2", "S012> T012>2 P2 S01>1 P0 P1",
                    "S012> T012>2 P2 S01>1 P0 P1"],
    ("r3", "3psi"): ["S012> T012>2 P2 S01> T01>0 P1 P0", "S012> T012>0 P0 S12> T12>2 P1 P2",
                     "S012> T012>2 P2 S01> T01>0 P1 P0", "S012> T012>2 P2 S01> T01>1 P0 P1"],
    ("r3", "lambda"): ["S012> T012>01 P2 S01> T01> C01 T01>0 P1 P0", "S012> T012>0 P0 S12> T12>2 P1 P2",
                       "S012> T012>0 P0 S12> T12>1 P2 P1", "S012> T012>12 P0 S12> T12>1 P2 P1"],
    ("r4", "psi"): ["S0123> T0123>0 P0 S123> T123>23 P1 S23>2 P3 P2", "S0123> T0123>3 P3 S012> T012>1 P1 S02>0 P2 P0",
                    "S0123> T0123>12 S03> T03>3 P0 P3 S12>2 P1 P2", "S0123> T0123>3 P3 S012> T012>0 P0 S12>2 P1 P2"],
    ("r4", "3psi"): ["S0123> T0123>0 P0 S123> T123>23 P1 S23> T23>2 P3 P2",
                     "S0123> T0123>3 P3 S012> T012>1 P1 S02> T02>0 P2 P0",
                     "S0123> T0123>12 S03> T03>3 P0 P3 S12> T12>2 P1 P2",
                     "S0123> T0123>3 P3 S012> T012>0 P0 S12> T12>1 P2 P1"],
    ("r4", "lambda"): ["S0123> T0123>013 P2 S013> T013>0 P0 S13> T13>1 P3 P1",
                       "S0123> T0123>3 P3 S012> T012>0 P0 S12> T12>1 P2 P1",
                       "S0123> T0123>012 P3 S012> T012>0 P0 S12> T12>2 P1 P2",
                       "S0123> T0123>013 P2 S013> T013>0 P0 S13> T13>1 P3 P1"],
    ("pp31", "psi 3psi"): ["R0001> S0001> T0001>000 P1 R000>0 P0", "R0001> S0001> T0001>000 P1 R000>0 P0",
                           "R0001> S0001> T0001>1 P1 R000>0 P0", "R0001> S0001> T0001>1 P1 R000>0 P0"],
    ("pp31", "lambda"): ["R0001> S0001> T0001>1 P1 R000>0 P0", "R0001> S0001> T0001>1 P1 R000>0 P0",
                         "R0001> S0001> T0001>000 P1 R000>0 P0", "R0001> S0001> T0001>000 P1 R000>0 P0"],
    ("pp13", "psi 3psi"): ["R0111> S0111> T0111>0 P0 R111>1 P1", "R0111> S0111> T0111>111 P0 R111>1 P1",
                           "R0111> S0111> T0111>0 P0 R111>1 P1", "R0111> S0111> T0111>111 P0 R111>1 P1"],
    ("pp13", "lambda"): ["R0111> S0111> T0111>0 P0 R111>1 P1", "R0111> S0111> T0111>0 P0 R111>1 P1",
                         "R0111> S0111> T0111> C0111 T0111>0 P0 R111>1 P1",
                         "R0111> S0111> T0111> C0111 T0111>0 P0 R111>1 P1"],
    ("pp331", "psi 3psi"): ["R0001112> S0001112> T0001112>2 P2 R000111>01 R01> T01>0 P1 P0",
                            "R0001112> S0001112> T0001112>000 R1112> S1112> T1112>111 P2 R111>1 P1 R000>0 P0",
                            "R0001112> S0001112> T0001112>000 R1112> S1112> T1112>2 P2 R111>1 P1 R000>0 P0",
                            "R0001112> S0001112> T0001112>000 R1112> S1112> T1112>111 P2 R111>1 P1 R000>0 P0"],
    ("pp331", "lambda"): ["R0001112> S0001112> T0001112>111 R0002> S0002> T0002> C0002 T0002>2 P2 R000>0 P0 R111>1 P1",
                          "R0001112> S0001112> T0001112>1112 R000>0 P0 R1112> S1112> T1112>2 P2 R111>1 P1",
                          "R0001112> S0001112> T0001112>2 P2 R000111>01 R01> T01> C01 T01> T01> T01>0 P1 P0",
                          "R0001112> S0001112> T0001112>000 R1112> S1112> T1112>2 P2 R111>1 P1 R000>0 P0"],
    ("r2*1 r2*6 r2*648 1024r2", "psi"): ["S01>0 P1 P0"],
    ("r2*1 r2*6 r2*648", "3psi"): ["S01> C01 !"],
    ("7", "psi"): ["P0"],
    ("nested", "psi"): ["C0000000000000000001 R0000000000000000001> S0000000000000000001> "
                        "T0000000000000000001>000000000000000000 P1 C000000000000000000 R000000000000000000>000000000 "
                        "C000000000 R000000000>000 C000 R000>0 P0"],
    ("1024r3", "psi"): ["S012> T012>0 P0 S12>1 P2 P1"],
}


@pytest.mark.parametrize("modulus, multiple, seed, said", [
    pytest.param(modulus, multiple, seed, said, id=f"{modulus}/{multiple}/{seed}")
    for (moduli, multiples), said_by_seed in FACTORING_WORK.items() for modulus in moduli.split()
    for multiple in multiples.split() for seed, said in enumerate(said_by_seed)
])
def test_full_factorization_makes_exactly_its_calls(modulus, multiple, seed, said, monkeypatch):
    log = record_calls(monkeypatch)
    (primes, fm, psi_n, max_trials), heard = factoring_work(modulus, multiple, seed, log)
    trials, square_free = trials_of(log), all(e == 1 for _, e in fm.factors)
    assert heard == said
    assert "?" not in said  # R1: every call is a P, C, R or S word or in one of trial_calls
    assert_primes_are_tested_once(log, [] if said.endswith("!") else primes, psi_n, max_trials)  # R2
    assert not square_free or "_perfect_power" not in [entry[0] for entry in log]  # R3: no exact-root scan
    if multiple == "psi":
        # R4: r primes above 3 take r - 2 trials; R5: 3 psi draws the same x's, and one more on a square-free n
        assert not square_free or len(trials) == max(len(primes) - 2, 0)
        factoring_work(modulus, "3psi", seed, log)
        assert trials == (trials_of(log)[:-1] if square_free else trials_of(log))


def test_every_name_the_factoring_calls_is_logged():
    # a new kernel call in either function must join LOGGED; builtins, the
    # argument check, the tally and the budget error do no kernel work
    nodes = [node for f in (full_factorization, find_factor) for node in ast.walk(ast.parse(inspect.getsource(f)))]
    called = {node.func.id for node in nodes if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert sorted(called - set(dir(builtins)) - {"_ints", "Counter", "TrialBudgetExhausted"}) == sorted(LOGGED)


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
    log = record_calls(monkeypatch)
    with pytest.raises(ValueError, match="must lie in"):
        full_factorization(35, 48, NoDraws(), max_trials=max_trials)
    assert log == []


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
    with pytest.raises(ValueError, match="^need ints: n, x and psi_n >= 1$"):
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
    # every shape with r = 1..4 and exponents 1..3 factors exactly under R1 and R2, each trial to 0 or a proper divisor
    rng = random.Random(seed)
    primes = []
    for _, bits in shape:
        p = gen_prime(bits, rng)
        while p in primes:
            p = gen_prime(bits, rng)
        primes.append(p)
    fm = FactoredModulus(zip(primes, (e for e, _ in shape)))
    with pytest.MonkeyPatch.context() as mp:
        log = record_calls(mp)
        assert full_factorization(fm.value, psi(fm), rng) == list(fm.factors)
    assert "?" not in words(log, primes, psi(fm))
    assert_primes_are_tested_once(log, primes, psi(fm), 200)
    assert all(f == 0 or (1 < f < m and m % f == 0) for m, _, f in trials_of(log))


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
