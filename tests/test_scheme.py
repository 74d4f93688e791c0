import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa.errors import (
    BadExponentChoice,
    DecryptionFailure,
    ImpossibleOperation,
    MessageNotEncryptable,
    RandomnessExhausted,
)
from pellrsa.arith import crt_combine, jacobi
from pellrsa.pell import (
    INFINITY,
    PellParams,
    param_pow,
    param_to_point,
    point_pow_nodiv,
    point_to_param,
    redei_pow,
)
from pellrsa.scheme import (
    Ciphertext,
    MessagePair,
    Mode,
    PointCiphertext,
    PublicKey,
    decrypt,
    decrypt_point,
    encrypt,
    encrypt_point,
    exponent_modulus,
    keygen,
    keypair_from_primes,
    random_message,
    reduced_private_exponents,
    validate_message,
)


def small_keypair(rng, r=2, bits=32, mode=Mode.ROBUST, exponents=None):
    return keygen(r, exponents or [1] * r, bits, rng, mode=mode)


# (r, prime bits, prime-power exponents) covered by the oracle comparisons
ORACLE_SHAPES = [(2, 40, None), (3, 40, None), (4, 32, None), (2, 32, [3, 1]), (3, 24, [1, 1, 3])]


# ---- reference decryptions, oracles for the CRT path ----

def full_width_decrypt(sk, ct):
    """One Redei evaluation mod N with the unreduced private exponent."""
    pp = PellParams(sk.n, ct.d_coef % sk.n)
    m_val = redei_pow(ct.c, sk.d, pp)
    assert m_val is not INFINITY
    pt = param_to_point(m_val, pp)
    return MessagePair(pt.x, pt.y)


def full_width_decrypt_point(sk, ct):
    """The division-free product ladder mod N with the unreduced private exponent."""
    pp = PellParams(sk.n, ct.d_coef % sk.n)
    pt = point_pow_nodiv(pp.point(ct.cx, ct.cy), sk.d, pp)
    return MessagePair(pt.x, pt.y)


def crt_decrypt_with(param_power, sk, ct):
    """CRT decryption with each per-prime parameter power taken by param_power."""
    residues, moduli = [], []
    for m_i, d_i in reduced_private_exponents(sk, ct.d_coef):
        residues.append(param_power(ct.c % m_i, d_i, PellParams(m_i, ct.d_coef % m_i)))
        moduli.append(m_i)
    pt = param_to_point(crt_combine(residues, moduli), PellParams(sk.n, ct.d_coef % sk.n))
    return MessagePair(pt.x, pt.y)


# ---- key generation ----

def test_keypair_strict_frozen_example():
    # lcm(5+1, 7+1) = 24 and 5*5 = 25 = 1 mod 24
    pub, priv = keypair_from_primes([5, 7], [1, 1], e=5, mode=Mode.STRICT)
    assert (pub.n, pub.e) == (35, 5)
    assert exponent_modulus(priv.factors, Mode.STRICT) == 24
    assert priv.d == 5


def test_keypair_robust_frozen_example():
    # lcm(5^2 - 1, 7^2 - 1) = lcm(24, 48) = 48 and 5*29 = 145 = 1 mod 48
    pub, priv = keypair_from_primes([5, 7], [1, 1], e=5, mode=Mode.ROBUST)
    assert exponent_modulus(priv.factors, Mode.ROBUST) == 48
    assert priv.d == 29
    assert pub.e * priv.d % 48 == 1


def test_even_public_exponent_rejected():
    with pytest.raises(BadExponentChoice):
        keypair_from_primes([5, 7], [1, 1], e=4)
    with pytest.raises(BadExponentChoice):
        keypair_from_primes([5, 7], [1, 1], e=3, mode=Mode.STRICT)  # 3 | 24
    with pytest.raises(BadExponentChoice):
        keypair_from_primes([5, 7], [1, 1], e=1)


def test_default_public_exponent_is_coprime_and_at_least_65537():
    pub, priv = keypair_from_primes([101, 103, 107], [1, 1, 1])
    assert pub.e >= 65537 and pub.e % 2 == 1
    assert math.gcd(pub.e, exponent_modulus(priv.factors, priv.mode)) == 1
    assert pub.e * priv.d % exponent_modulus(priv.factors, priv.mode) == 1


def test_keygen_distinct_primes_and_size():
    rng = random.Random(3)
    pub, priv = keygen(3, [1, 1, 1], 24, rng)
    primes = [p for p, _ in priv.factors.factors]
    assert len(set(primes)) == 3
    assert all(p.bit_length() == 24 for p in primes)
    assert pub.n == math.prod(primes)


def test_keygen_validates_input():
    rng = random.Random(4)
    with pytest.raises(ValueError):
        keygen(1, [1], 32, rng)
    with pytest.raises(ValueError):
        keygen(2, [2, 1], 32, rng)  # even prime-power exponent
    with pytest.raises(ValueError):
        keypair_from_primes([5, 7], [1], e=5)


# ---- message validation ----

def test_validate_message_frozen_example():
    pub, _ = keypair_from_primes([5, 7], [1, 1], e=5)
    # (3^2 - 1) * inverse(4^2) = 8 * 11 = 88 = 18 mod 35, and (3, 4) lies on
    # x^2 - 18 y^2 = 1: 9 - 18*16 = -279 = 1 mod 35
    assert validate_message(pub, MessagePair(3, 4), Mode.STRICT) == 18
    assert (3 * 3 - 18 * 4 * 4) % 35 == 1


def test_validate_message_rejections():
    pub, _ = keypair_from_primes([5, 7], [1, 1], e=5)
    with pytest.raises(MessageNotEncryptable):
        validate_message(pub, MessagePair(1, 4))  # mx^2 - 1 = 0
    with pytest.raises(MessageNotEncryptable):
        validate_message(pub, MessagePair(6, 4))  # 6^2 - 1 = 35 = 0 mod 35
    with pytest.raises(MessageNotEncryptable):
        validate_message(pub, MessagePair(5, 4))  # mx not a unit
    with pytest.raises(ImpossibleOperation) as info:
        validate_message(pub, MessagePair(3, 7))  # my not a unit
    assert info.value.factor == 7
    # coordinates outside [0, N) would decrypt to their residues
    for mx, my in [(35, 4), (35 + 3, 4), (3, -1)]:
        with pytest.raises(MessageNotEncryptable):
            validate_message(pub, MessagePair(mx, my))


def test_validate_message_strict_vs_robust():
    pub, _ = keypair_from_primes([5, 7], [1, 1], e=5)
    # mx = 2: mx^2 - 1 = 3, Jacobi(3, 35) = (3/5)(3/7) = (-1)(-1) = +1
    msg = MessagePair(2, 3)
    with pytest.raises(MessageNotEncryptable):
        validate_message(pub, msg, Mode.STRICT)
    assert validate_message(pub, msg, Mode.ROBUST) == 3 * pow(9, -1, 35) % 35


# ---- encryption / decryption ----

def test_encrypt_frozen_example():
    pub, priv = keypair_from_primes([5, 7], [1, 1], e=5)
    ct = encrypt(pub, MessagePair(3, 4))
    assert ct == Ciphertext(34, 18)
    assert decrypt(priv, ct) == MessagePair(3, 4)


def test_encrypt_sign_symmetry():
    pub, _ = keypair_from_primes([5, 7], [1, 1], e=5)
    ct = encrypt(pub, MessagePair(3, 4))
    flipped = encrypt(pub, MessagePair(3, 35 - 4))
    assert flipped.d_coef == ct.d_coef
    assert flipped.c == (35 - ct.c) % 35


def test_roundtrip_robust_various_shapes():
    rng = random.Random(5)
    for r, bits, exps in [(2, 32, None), (3, 24, None), (4, 16, None), (2, 20, [3, 1])]:
        pub, priv = small_keypair(rng, r=r, bits=bits, exponents=exps)
        for _ in range(25):
            msg = random_message(pub, rng)
            ct = encrypt(pub, msg)
            assert decrypt(priv, ct) == msg


@settings(max_examples=50, deadline=None)
@given(
    exponents=st.lists(st.sampled_from([1, 3]), min_size=2, max_size=4),
    bits=st.integers(32, 64),
    mode=st.sampled_from(list(Mode)),
    point=st.booleans(),
    seed=st.integers(0, 2**64),
)
def test_round_trip_property(exponents, bits, mode, point, seed):
    # a robust key returns every message; a strict key returns it unless D
    # is a residue mod some prime, and then it raises naming that prime
    rng = random.Random(seed)
    pub, priv = small_keypair(rng, r=len(exponents), bits=bits, mode=mode, exponents=exponents)
    msg = random_message(pub, rng, mode)
    enc, dec = (encrypt_point, decrypt_point) if point else (encrypt, decrypt)
    ct = enc(pub, msg, mode)
    residue_primes = [
        i for i, (p, _) in enumerate(priv.factors.factors) if jacobi(ct.d_coef, p) == 1
    ]
    if mode == Mode.STRICT and residue_primes:
        with pytest.raises(DecryptionFailure, match=f"prime {residue_primes[0]}$"):
            dec(priv, ct)
    else:
        assert dec(priv, ct) == msg


def test_crt_fast_path_bit_identical_to_direct():
    rng = random.Random(6)
    for r, bits, exps in ORACLE_SHAPES:
        pub, priv = small_keypair(rng, r=r, bits=bits, exponents=exps)
        for _ in range(10):
            msg = random_message(pub, rng)
            ct = encrypt(pub, msg)
            assert decrypt(priv, ct) == full_width_decrypt(priv, ct)
            pct = encrypt_point(pub, msg)
            assert decrypt_point(priv, pct) == full_width_decrypt_point(priv, pct)


def test_decrypt_methods_agree():
    rng = random.Random(7)
    for r, bits, exps in ORACLE_SHAPES:
        pub, priv = small_keypair(rng, r=r, bits=bits, exponents=exps)
        for _ in range(10):
            msg = random_message(pub, rng)
            ct = encrypt(pub, msg)
            results = {
                msg,
                decrypt(priv, ct),
                crt_decrypt_with(redei_pow, priv, ct),
                crt_decrypt_with(param_pow, priv, ct),
            }
            assert len(results) == 1


def test_ciphertext_parameter_is_a_unit():
    rng = random.Random(8)
    pub, priv = small_keypair(rng, r=3, bits=32)
    for _ in range(20):
        ct = encrypt(pub, random_message(pub, rng))
        assert math.gcd(ct.c, pub.n) == 1
        assert math.gcd(ct.d_coef, pub.n) == 1


def test_point_mode_roundtrip_and_consistency():
    rng = random.Random(9)
    pub, priv = small_keypair(rng, r=2, bits=32)
    for _ in range(25):
        msg = random_message(pub, rng)
        pct = encrypt_point(pub, msg)
        pp = PellParams(pub.n, pct.d_coef)
        assert pp.on_curve(pct.cx, pct.cy)
        assert decrypt_point(priv, pct) == msg
        assert decrypt_point(priv, pct) == decrypt(priv, encrypt(pub, msg))


def test_point_mode_matches_compressed_through_the_morphism():
    rng = random.Random(10)
    pub, priv = small_keypair(rng, r=2, bits=32)
    for _ in range(10):
        msg = random_message(pub, rng)
        ct = encrypt(pub, msg)
        pct = encrypt_point(pub, msg)
        pp = PellParams(pub.n, ct.d_coef)
        if math.gcd(pct.cy, pub.n) == 1:
            assert point_to_param(pp.point(pct.cx, pct.cy), pp) == ct.c


def test_point_encryption_never_hits_impossible_operation():
    # tiny primes make parameter-side failures common; the point side never
    # divides, so every validated message must encrypt
    pub, priv = keypair_from_primes([5, 7], [1, 1], e=5)
    count = 0
    for mx in range(2, 35):
        for my in range(2, 35):
            try:
                d_coef = validate_message(pub, MessagePair(mx, my))
            except (MessageNotEncryptable, ImpossibleOperation):
                continue
            pct = encrypt_point(pub, MessagePair(mx, my))
            count += 1
            assert decrypt_point(priv, pct) == MessagePair(mx, my)
    assert count > 100


def test_identity_exponent_point_encryption():
    # hand-built key with e = 1: the ciphertext is the message point itself
    pub = PublicKey(35, 1)
    pct = encrypt_point(pub, MessagePair(3, 4))
    assert (pct.cx, pct.cy) == (3, 4)


def test_reduced_exponents_divide_and_invert():
    rng = random.Random(11)
    pub, priv = small_keypair(rng, r=3, bits=32)
    msg = random_message(pub, rng)
    ct = encrypt(pub, msg)
    for (m_i, d_i), (p, e) in zip(
        reduced_private_exponents(priv, ct.d_coef), priv.factors.factors
    ):
        assert m_i == p**e
        assert d_i < p ** (e - 1) * (p + 1)
        # robust d inverts e under both candidate orders
        for order in (p ** (e - 1) * (p + 1), p ** (e - 1) * (p - 1)):
            assert pub.e * (priv.d % order) % order == 1 % order


def test_decrypt_rejects_malformed_ciphertexts():
    rng = random.Random(12)
    pub, priv = small_keypair(rng, r=2, bits=32)
    msg = random_message(pub, rng)
    ct = encrypt(pub, msg)
    p = priv.factors.factors[0][0]
    with pytest.raises(DecryptionFailure):
        decrypt(priv, Ciphertext(ct.c, p))  # coefficient shares a factor
    with pytest.raises(DecryptionFailure):
        decrypt_point(priv, PointCiphertext(1, 1, ct.d_coef))  # off the curve


@pytest.mark.parametrize("sign", [1, -1])
def test_decrypt_point_rejects_points_that_are_no_message(sign):
    # (+-1, 0) lie on every curve and are their own powers; my = 0 is no unit
    rng = random.Random(15)
    pub, priv = small_keypair(rng, r=3, bits=32)
    d_coef = encrypt(pub, random_message(pub, rng)).d_coef
    with pytest.raises(DecryptionFailure):
        decrypt_point(priv, PointCiphertext(sign % pub.n, 0, d_coef))


def test_decrypt_rejects_parameter_vanishing_mod_one_prime():
    # c = 0 mod p decompresses to (-1, 0) mod p, which decrypts to itself
    rng = random.Random(16)
    pub, priv = small_keypair(rng, r=3, bits=32)
    ct = encrypt(pub, random_message(pub, rng))
    p = priv.factors.factors[1][0]
    c = crt_combine([0, ct.c], [p, pub.n // p])
    with pytest.raises(DecryptionFailure):
        decrypt(priv, Ciphertext(c, ct.d_coef))


# ---- the strict-mode gap ----

def find_strict_gap_message(pub, priv_strict, priv_robust, rng, attempts=4000):
    """Seeded search for a message passing the strict Jacobi test whose
    decryption under the strict exponent goes wrong."""
    for _ in range(attempts):
        try:
            msg = random_message(pub, rng, Mode.STRICT)
            ct = encrypt(pub, msg, Mode.STRICT)
        except (MessageNotEncryptable, ImpossibleOperation):
            continue
        try:
            strict_result = decrypt(priv_strict, ct)
        except DecryptionFailure:
            strict_result = None
        if strict_result != msg:
            assert decrypt(priv_robust, ct) == msg
            return msg, ct, strict_result
    raise AssertionError("no gap message found")


def test_strict_mode_gap_exists_and_robust_closes_it():
    # p - 1 = 10 does not divide lcm(8, 12) = 24, so residue-D messages break
    pub, priv_strict = keypair_from_primes([7, 11], [1, 1], mode=Mode.STRICT)
    _, priv_robust = keypair_from_primes([7, 11], [1, 1], mode=Mode.ROBUST)
    assert pub.e == 65537
    rng = random.Random(13)
    msg, ct, got = find_strict_gap_message(pub, priv_strict, priv_robust, rng)
    # the Jacobi symbol is -1 yet D is a residue mod exactly one prime
    from pellrsa.arith import jacobi

    assert jacobi(ct.d_coef, pub.n) == -1
    residuosities = [jacobi(ct.d_coef % p, p) for p, _ in priv_strict.factors.factors]
    assert sorted(residuosities) == [-1, 1]


def strict_outcomes(pub, priv, msgs):
    """Decrypt each message both ways under a strict key: it comes back or
    raises DecryptionFailure naming a prime mod which D is a residue."""
    outcomes = {"ok": 0, "raised": 0}
    for msg in msgs:
        try:
            cts = [encrypt(pub, msg, Mode.STRICT), encrypt_point(pub, msg, Mode.STRICT)]
        except (MessageNotEncryptable, ImpossibleOperation):
            continue
        residue_primes = [
            i for i, (p, _) in enumerate(priv.factors.factors) if jacobi(cts[0].d_coef, p) == 1
        ]
        for ct, dec in zip(cts, (decrypt, decrypt_point)):
            try:
                got = dec(priv, ct)
            except DecryptionFailure as err:
                assert residue_primes and f"prime {residue_primes[0]}" in str(err)
                outcomes["raised"] += 1
            else:
                assert got == msg
                outcomes["ok"] += 1
    return outcomes


def test_strict_key_decrypts_correctly_or_raises():
    # at r = 2, Jacobi(D, N) = -1 leaves D a residue mod exactly one prime;
    # 16 values of mx pass that test, 60 of my are units: 960 messages
    pub, priv = keypair_from_primes([7, 11], [1, 1], mode=Mode.STRICT)
    every = (MessagePair(mx, my) for mx in range(pub.n) for my in range(pub.n))
    assert strict_outcomes(pub, priv, every) == {"ok": 0, "raised": 2 * 960}
    # at r = 3 D is a non-residue mod all three primes for some messages
    rng = random.Random(18)
    pub, priv = small_keypair(rng, r=3, bits=24, mode=Mode.STRICT)
    msgs = (random_message(pub, rng, Mode.STRICT) for _ in range(60))
    outcomes = strict_outcomes(pub, priv, msgs)
    assert outcomes["ok"] > 0 and outcomes["raised"] > 0


@pytest.mark.parametrize("n", [15, 3])
def test_random_message_gives_up_when_nothing_is_encryptable(n):
    # every unit mx mod 3 has mx^2 - 1 = 0 mod 3; mod 3 itself nothing is drawable
    with pytest.raises(RandomnessExhausted):
        random_message(PublicKey(n, 3), random.Random(17))


def test_random_message_respects_mode():
    pub, _ = keypair_from_primes([7, 11], [1, 1])
    rng = random.Random(14)
    from pellrsa.arith import jacobi

    for _ in range(20):
        msg = random_message(pub, rng, Mode.STRICT)
        assert jacobi((msg.mx**2 - 1) % pub.n, pub.n) == -1
