import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import arith, pell, scheme
from pellrsa.errors import (
    BadExponentChoice,
    DecryptionFailure,
    ImpossibleOperation,
    MessageNotEncryptable,
    RandomnessExhausted,
)
from pellrsa.arith import MAX_MODULUS_BITS, crt_coefficients, crt_combine, gen_prime, jacobi, mod_inv
from pellrsa.keyfmt import dump_ciphertext, dump_private_key, dump_public_key, load_private_key
from pellrsa.pell import (
    INFINITY,
    PellParams,
    chebyshev,
    param_pow,
    param_to_point,
    redei_pow,
)
from pellrsa.scheme import (
    Ciphertext,
    MessagePair,
    Mode,
    PointCiphertext,
    PrivateKey,
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
from oracles import HyperbolaPoint, crt, miller_rabin, on_curve


def small_keypair(rng, r=2, bits=32, mode=Mode.ROBUST, exponents=None):
    return keygen(r, exponents or [1] * r, bits, rng, mode=mode)


# (r, prime bits, prime-power exponents) covered by the oracle comparisons
ORACLE_SHAPES = [
    (2, 40, None),
    (3, 40, None),
    (4, 32, None),
    (2, 32, [3, 1]),
    (3, 24, [1, 1, 3]),
    (2, 32, [3, 3]),
    (2, 32, [5, 1]),
]


# ---- reference decryptions, oracles for the CRT path ----

def full_width_decrypt(sk, ct):
    """One Redei evaluation mod N with the unreduced private exponent."""
    pp = PellParams(sk.n, ct.d_coef % sk.n)
    m_val = redei_pow(ct.c, sk.d, pp)
    assert m_val is not INFINITY
    return MessagePair(*param_to_point(m_val, pp.modulus, pp.d))


def full_width_decrypt_point(sk, ct):
    """The division-free Chebyshev chain mod N with the unreduced private exponent."""
    t, u = chebyshev(ct.cx, sk.d, sk.n)
    return MessagePair(t, ct.cy * u % sk.n)


def crt_decrypt_with(param_power, sk, ct):
    """CRT decryption with each parameter power taken by param_power mod a
    whole prime power p^k, to d reduced mod that group's order."""
    residues, moduli = [], []
    for p, k in sk.factors.factors:
        m_i, order = p**k, p ** (k - 1) * (p - jacobi(ct.d_coef, p))
        residues.append(param_power(ct.c % m_i, sk.d % order, PellParams(m_i, ct.d_coef % m_i)))
        moduli.append(m_i)
    return MessagePair(*param_to_point(crt(residues, moduli), sk.n, ct.d_coef % sk.n))


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


@pytest.mark.parametrize("primes, e, mode", [([5, 7], 49, Mode.ROBUST), ([5, 7], 25, Mode.STRICT), ([5, 7], 97, Mode.ROBUST)])
def test_a_public_exponent_of_1_mod_the_exponent_modulus_is_refused(primes, e, mode):
    # e = 1 mod lcm(24, 48) = 48 (robust) or lcm(6, 8) = 24 (strict) gave
    # d = 1, and encryption returned the message point itself
    with pytest.raises(BadExponentChoice, match="e = 1 mod it"):
        keypair_from_primes(primes, [1, 1], e=e, mode=mode)


class NoDraws:
    """An rng that fails the test if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} consulted")


@pytest.mark.parametrize(
    "e", [2**16000, 2**20000 + 1, 65538, 7.0], ids=["even-16001-bits", "odd-20001-bits", "even", "float"]
)
def test_a_public_exponent_wider_than_a_modulus_is_refused(e):
    # the first leaked a ValueError from formatting e in decimal, the second
    # passed the check and leaked PublicKey's ValueError; keygen used to
    # refuse each only after drawing every prime
    with pytest.raises(BadExponentChoice, match="^e unusable"):
        keypair_from_primes([5, 7], [1, 1], e=e)
    with pytest.raises(BadExponentChoice, match="^e unusable"):
        keygen(2, [1, 1], 1024, NoDraws(), e=e)


def test_the_default_public_exponent_skips_1_mod_the_exponent_modulus():
    # strict 7 * 31: lcm(8, 32) = 32 divides 65536, so 65537 = 1 mod 32 gave
    # d = 1, and encryption returned the message point itself
    pub, priv = keypair_from_primes([7, 31], [1, 1], mode=Mode.STRICT)
    assert (pub.e, priv.d) == (65539, 11)
    msg = random_message(pub, random.Random(0), Mode.STRICT)
    ct = encrypt_point(pub, msg, Mode.STRICT)
    assert (ct.cx, ct.cy) != (msg.mx, msg.my)


def test_a_private_exponent_of_1_is_refused():
    with pytest.raises(ValueError, match="^d = 1 makes e = 1"):
        PrivateKey(PRIV35.factors, 1, Mode.ROBUST)


def test_default_public_exponent_is_coprime_and_at_least_65537():
    pub, priv = keypair_from_primes([101, 103, 107], [1, 1, 1])
    assert pub.e >= 65537 and pub.e % 2 == 1
    assert math.gcd(pub.e, exponent_modulus(priv.factors, priv.mode)) == 1
    assert pub.e * priv.d % exponent_modulus(priv.factors, priv.mode) == 1


def test_keygen_refuses_oversized_moduli_before_drawing():
    with pytest.raises(ValueError, match=f"exceeds {MAX_MODULUS_BITS} bits"):
        keygen(2, [1, 1], 20000, NoDraws())
    with pytest.raises(ValueError, match=f"exceeds {MAX_MODULUS_BITS} bits"):
        keygen(2, [3, 1], MAX_MODULUS_BITS // 4 + 1, NoDraws())
    # so is a bad shape: r < 2, other than r exponents, an even exponent or
    # one below 1 used to draw every prime first, for seconds at 1024 bits
    for r, exponents in [(1, [1]), (2, [1]), (2, [1, 1, 1]), (2, [2, 1]), (2, [0, 1]), (2, [-1, 1])]:
        with pytest.raises(ValueError, match="one odd exponent >= 1 for each"):
            keygen(r, exponents, 1024, NoDraws())


@pytest.mark.parametrize(
    "r, exponents, prime_bits",
    [(2, [1, 1], 64.0), (2, [1.0, 1], 64), (2.0, [1, 1], 64), (True, [1, 1], 64), (2, [True, 1], 64), (2, [1, 1], True)],
)
def test_keygen_refuses_arguments_that_are_no_ints_before_drawing(r, exponents, prime_bits):
    # a float prime_bits leaked a TypeError from getrandbits, and a float
    # exponent drew every prime before FactoredModulus refused it
    with pytest.raises(ValueError, match="^need ints"):
        keygen(r, exponents, prime_bits, NoDraws())


def test_keygen_frozen_modulus():
    pub, priv = keygen(2, [1, 1], 256, random.Random(2024))
    assert pub.n == int(
        "bd3842c3f6cfb92e13d4a893d4c72c621bd8fe886587e1ba1fd95216973b403e"
        "c588cea07061d518fb72d3060484c6498a408257bffce2c37fd1b7eb938ca4ed", 16
    )
    # both primes also pass 40 random Miller-Rabin rounds
    assert all(miller_rabin(p, random.Random(p)) for p, _ in priv.factors.factors)


def test_keygen_distinct_primes_and_size():
    rng = random.Random(3)
    pub, priv = keygen(3, [1, 1, 1], 24, rng)
    primes = [p for p, _ in priv.factors.factors]
    assert len(set(primes)) == 3
    assert all(p.bit_length() == 24 for p in primes)
    assert pub.n == math.prod(primes)


def test_keygen_gives_up_when_fewer_than_r_primes_have_that_size(alarm):
    # only 23 primes have 8 bits; redrawing collisions used to loop forever
    with pytest.raises(RandomnessExhausted, match="fewer than 24 distinct 8-bit primes"):
        keygen(24, [1] * 24, 8, random.Random(5))


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
    with pytest.raises(MessageNotEncryptable):
        validate_message(pub, MessagePair(3, 7))  # my not a unit
    # coordinates outside [0, N) would decrypt to their residues
    for mx, my in [(35, 4), (35 + 3, 4), (3, -1)]:
        with pytest.raises(MessageNotEncryptable):
            validate_message(pub, MessagePair(mx, my))


@pytest.mark.parametrize("j", [0, 1, 5])
@pytest.mark.parametrize("enc", [validate_message, encrypt, encrypt_point])
def test_a_non_unit_my_is_not_encryptable(enc, j):
    # my = 0 or my = p * j is refused like a non-unit mx; it used to raise
    # ImpossibleOperation from inverting my^2, whose factor for my = 0 was N
    rng = random.Random(26)
    pub, priv = small_keypair(rng, r=3, bits=32)
    mx = random_message(pub, rng).mx
    for p, _ in priv.factors.factors:
        with pytest.raises(MessageNotEncryptable, match="^mx or my is not a unit mod N$"):
            enc(pub, MessagePair(mx, p * j))


def test_validate_message_computes_a_jacobi_symbol_in_strict_mode_only(monkeypatch):
    # robust needs only gcd(mx^2 - 1, N) = 1; (3, 4) passes both modes
    pub, _ = keypair_from_primes([5, 7], [1, 1], e=5)
    calls = []

    def spy(a, n):
        calls.append((a, n))
        return jacobi(a, n)

    monkeypatch.setattr(scheme, "jacobi", spy)
    assert validate_message(pub, MessagePair(3, 4), Mode.ROBUST) == 18
    assert calls == []
    assert validate_message(pub, MessagePair(3, 4), Mode.STRICT) == 18
    assert calls == [(8, 35)]


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


def test_encrypt_refuses_a_message_whose_power_is_the_identity():
    # T_3(3) = 99 = 1 mod 7 and U_2(3) = 35 = 0 mod 7: (3, 1)^3 = (1, 0)
    with pytest.raises(MessageNotEncryptable, match="^message parameter collapses to the identity$"):
        encrypt(PublicKey(7, 3), MessagePair(3, 1))


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


@settings(max_examples=50)
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


@settings(max_examples=40)
@given(
    exponents=st.sampled_from([[3, 1], [1, 1, 3], [5, 1], [3, 3], [1, 5, 3], [9, 1]]),
    bits=st.integers(24, 48),
    mode=st.sampled_from(list(Mode)),
    point=st.booleans(),
    seed=st.integers(0, 2**64),
)
def test_lifted_decryption_matches_full_width_oracle(exponents, bits, mode, point, seed):
    # both are the unique e-th root mod each p^k.  A strict key decrypts when
    # D is a non-residue mod every prime, which its Jacobi test cannot select
    # at r = 2, so such messages are drawn under the robust test.
    rng = random.Random(seed)
    pub, priv = small_keypair(rng, r=len(exponents), bits=bits, mode=mode, exponents=exponents)
    msg = random_message(pub, rng)
    while mode == Mode.STRICT and any(
        jacobi(msg.mx * msg.mx - 1, p) == 1 for p, _ in priv.factors.factors
    ):
        msg = random_message(pub, rng)
    if point:
        ct = encrypt_point(pub, msg)
        assert decrypt_point(priv, ct) == full_width_decrypt_point(priv, ct) == msg
    else:
        ct = encrypt(pub, msg)
        assert decrypt(priv, ct) == full_width_decrypt(priv, ct) == msg


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


# SHA-256 of test_known_answers_are_pinned's transcript: a key, ciphertext
# or plaintext that changes by one bit changes it
KNOWN_ANSWER_DIGEST = "6644f0144ef4c125ebedc99ef243a4bba92a939febdef56d968b158214164e3f"


def test_known_answers_are_pinned():
    # 512-bit r = 3 and (3,1) keys: the dumped keys, both ciphertexts of six
    # messages each, and three decryption passes of each kind, which run
    # each row's first use, its chain build and its chain
    digest = hashlib.sha256()
    for r, exponents in ((3, [1, 1, 1]), (2, [3, 1])):
        rng = random.Random(2021)
        pub, priv = keygen(r, exponents, 512 // sum(exponents), rng)
        digest.update((dump_public_key(pub) + dump_private_key(priv)).encode())
        msgs = [random_message(pub, rng) for _ in range(6)]
        cts = [(encrypt(pub, msg), encrypt_point(pub, msg)) for msg in msgs]
        for ct, pct in cts:
            digest.update((dump_ciphertext(ct) + dump_ciphertext(pct)).encode())
        for _ in range(3):
            for ct, pct in cts:
                for msg in (decrypt(priv, ct), decrypt_point(priv, pct)):
                    digest.update(f"{msg.mx:x},{msg.my:x}\n".encode())
    assert digest.hexdigest() == KNOWN_ANSWER_DIGEST


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
        assert on_curve(pct.cx, pct.cy, pct.d_coef, pub.n)
        assert decrypt_point(priv, pct) == msg
        assert decrypt_point(priv, pct) == decrypt(priv, encrypt(pub, msg))


def redei_ciphertext(pub, msg, d_coef):
    """The paper's compressed ciphertext: the Redei function of (mx + 1)/my."""
    m = (msg.mx + 1) * pow(msg.my, -1, pub.n) % pub.n
    return redei_pow(m, pub.e, PellParams(pub.n, d_coef))


def validated_messages(pub, mode=Mode.ROBUST):
    """Every message (mx, my) mod N that validate_message accepts, with its D."""
    for mx in range(pub.n):
        for my in range(pub.n):
            msg = MessagePair(mx, my)
            try:
                yield msg, validate_message(pub, msg, mode)
            except MessageNotEncryptable:
                continue


def test_point_mode_matches_compressed_through_the_morphism():
    # encrypt compresses the point ciphertext; on robust keys that is exactly
    # the Redei evaluation of the message parameter, for every message
    count = 0
    for primes in ([5, 7], [7, 11], [11, 13], [5, 7, 11]):
        msgs = list(validated_messages(PublicKey(math.prod(primes), 3)))
        for e in (None, 3, 5, 7, 11, 13):
            try:
                pub, _ = keypair_from_primes(primes, [1] * len(primes), e=e)
            except BadExponentChoice:
                continue
            for msg, d_coef in msgs:
                assert encrypt(pub, msg) == Ciphertext(redei_ciphertext(pub, msg, d_coef), d_coef)
                count += 1
    assert count == 98_880


def test_strict_encrypt_refuses_only_undecryptable_messages():
    # e = 5 divides 11 - 1, so a strict key meets powers (+-1, 0) mod 11;
    # encrypt refuses both, the Redei evaluation only (1, 0), and the Redei
    # ciphertexts of the others do not decrypt
    pub, priv = keypair_from_primes([7, 11], [1, 1], e=5, mode=Mode.STRICT)
    refused = 0
    for msg, d_coef in validated_messages(pub, Mode.STRICT):
        try:
            c = redei_ciphertext(pub, msg, d_coef)
        except ImpossibleOperation:
            with pytest.raises(ImpossibleOperation):
                encrypt(pub, msg, Mode.STRICT)
            continue
        try:
            ct = encrypt(pub, msg, Mode.STRICT)
        except ImpossibleOperation:
            refused += 1
            with pytest.raises(DecryptionFailure):
                decrypt(priv, Ciphertext(c, d_coef))
        else:
            assert ct == Ciphertext(c, d_coef)
    assert refused == 240


def test_point_encryption_never_hits_impossible_operation():
    # tiny primes make parameter-side failures common; the point side never
    # divides, so every validated message must encrypt
    pub, priv = keypair_from_primes([5, 7], [1, 1], e=5)
    count = 0
    for mx in range(2, 35):
        for my in range(2, 35):
            try:
                d_coef = validate_message(pub, MessagePair(mx, my))
            except MessageNotEncryptable:
                continue
            pct = encrypt_point(pub, MessagePair(mx, my))
            count += 1
            assert decrypt_point(priv, pct) == MessagePair(mx, my)
    assert count > 100


def test_identity_exponent_point_encryption():
    # a hand-built key with e = 1 used to encrypt (3, 4) to the point (3, 4)
    with pytest.raises(ValueError, match="odd e >= 3"):
        PublicKey(35, 1)


@pytest.mark.parametrize("exponents", [None, [1, 3, 1]])
def test_reduced_exponents_divide_and_invert(exponents):
    rng = random.Random(11)
    pub, priv = small_keypair(rng, r=3, bits=32, exponents=exponents)
    msg = random_message(pub, rng)
    ct = encrypt(pub, msg)
    rows = reduced_private_exponents(priv, ct.d_coef)
    assert [(row.p, row.q) for row in rows] == [(p, p**k) for p, k in priv.factors.factors]
    for row, (p, k) in zip(rows, priv.factors.factors):
        order = row.order
        # the ladder runs mod p, a prime power included: d mod p + 1 or p - 1
        assert order == p - jacobi(ct.d_coef, p)
        assert row.d_i == priv.d % order < p + 1
        assert pub.e * row.d_i % order == 1
        # robust d inverts e under both candidate orders of the prime power
        for order in (p ** (k - 1) * (p + 1), p ** (k - 1) * (p - 1)):
            assert pub.e * (priv.d % order) % order == 1 % order


def test_a_public_exponent_above_p_plus_1_checks_roots_of_both_orders(monkeypatch):
    # 16-bit primes with e = 65537 and a D that is a residue mod one prime
    # only; the root check mod p raises to e mod the order, so its chain
    # stays below p + 2 for an e of any width
    rng = random.Random(32)
    pub, priv = small_keypair(rng, r=2, bits=16)
    (p, _), (q, _) = priv.factors.factors
    assert priv.e == pub.e == 65537 > max(p, q) + 1
    while True:
        msg = random_message(pub, rng)
        d_coef = validate_message(pub, msg)
        if jacobi(d_coef, p) != jacobi(d_coef, q):
            break
    orders = [row.order for row in reduced_private_exponents(priv, d_coef)]
    assert orders == [p - jacobi(d_coef, p), q - jacobi(d_coef, q)]
    assert sorted(order - prime for order, prime in zip(orders, (p, q))) == [-1, 1]
    cts = encrypt(pub, msg), encrypt_point(pub, msg)
    checks, chain = [], scheme.chebyshev
    monkeypatch.setattr(scheme, "chebyshev", lambda x, k, n: checks.append((k, n)) or chain(x, k, n))
    assert decrypt(priv, cts[0]) == decrypt_point(priv, cts[1]) == msg
    assert checks == 2 * [(pub.e % order, prime) for order, prime in zip(orders, (p, q))]


def test_the_hensel_lift_raises_to_e_mod_the_group_order_mod_p_k(monkeypatch):
    # a key file with a small d derives an e about as wide as the exponent
    # modulus; each lift step used to raise to that full e at p^k width
    rng = random.Random(33)
    _, base = small_keypair(rng, r=2, bits=32, exponents=[3, 1])
    lam = exponent_modulus(base.factors, Mode.ROBUST)
    d = next(d for d in range(1 << 20 | 1, lam, 2) if math.gcd(d, lam) == 1)
    priv = PrivateKey(base.factors, d, Mode.ROBUST)
    pub = PublicKey(priv.n, priv.e)
    ((p, k),) = [(p, k) for p, k in priv.factors.factors if k == 3]
    assert priv.e > p**2 * (p + 1)
    lifts, chain = [], scheme.chebyshev

    def spy(x, e, n):
        if n == p**k:
            lifts.append(e)
        return chain(x, e, n)

    monkeypatch.setattr(scheme, "chebyshev", spy)
    orders = set()
    for _ in range(6):
        msg = random_message(pub, rng)
        (order,) = [row.order for row in reduced_private_exponents(priv, validate_message(pub, msg)) if row.p == p]
        orders.add(order)
        for dec, ct in ((decrypt, encrypt(pub, msg)), (decrypt_point, encrypt_point(pub, msg))):
            lifts.clear()
            assert dec(priv, ct) == msg
            assert lifts and max(lifts) < p ** (k - 1) * order
    assert orders == {p - 1, p + 1}


def test_private_key_derives_e():
    rng = random.Random(19)
    pub, priv = small_keypair(rng, r=3, bits=32, exponents=[3, 1, 5])
    assert priv.e == pub.e
    # the key file does not store it; loading derives it again
    loaded = load_private_key(dump_private_key(priv))
    assert loaded.e == priv.e
    # a public e above the exponent modulus 48 comes back reduced: 53 = 5 mod 48
    _, small = keypair_from_primes([5, 7], [1, 1], e=53)
    assert (small.d, small.e) == (29, 5)


def test_private_key_refuses_d_outside_one_to_the_exponent_modulus():
    # d = 29 inverts e = 5 modulo 48; so do -19, 77 and 29 + 48 * 2^400000,
    # which decrypt alike but the last makes every lift step 400000 bits wide
    _, priv = keypair_from_primes([5, 7], [1, 1], e=5)
    assert PrivateKey(priv.factors, 29, Mode.ROBUST) == priv
    for d in (0, -19, 48, 29 + 48, 29 + 48 * 2**400000):
        with pytest.raises(ValueError, match=r"^d must lie in \[1, exponent modulus\)$"):
            PrivateKey(priv.factors, d, Mode.ROBUST)


def test_keypair_from_primes_refuses_primes_that_are_not_ints():
    # int() made a key over 77 from these
    with pytest.raises(ValueError):
        keypair_from_primes([7.9, 11.2], [1, 1], e=7)


@pytest.mark.parametrize("primes,exponents", [([5, 7], [1]), ([5], [1, 1]), ([5, 7], [1, 1, 1])])
def test_keypair_from_primes_refuses_a_length_mismatch_before_any_primality_test(monkeypatch, primes, exponents):
    tested = []
    monkeypatch.setattr(arith, "is_probable_prime", lambda n: tested.append(n) or True)
    with pytest.raises(ValueError):
        keypair_from_primes(primes, exponents, e=5)
    assert tested == []


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


# (3, 4) under the robust 5 * 7 key with e = 5: D = 18, c = 34, d = 29
PUB35, PRIV35 = keypair_from_primes([5, 7], [1, 1], e=5)
PCT35 = encrypt_point(PUB35, MessagePair(3, 4))
NOT_INTS = {
    "pub-e-float": (lambda: PublicKey(35, 5.0), ValueError),
    "pub-e-bool": (lambda: PublicKey(35, True), ValueError),
    "pub-n-float": (lambda: PublicKey(35.0, 5), ValueError),
    "priv-d-float": (lambda: PrivateKey(PRIV35.factors, 29.0, Mode.ROBUST), ValueError),
    "priv-d-bool": (lambda: PrivateKey(PRIV35.factors, True, Mode.ROBUST), ValueError),
    "keypair-e-float": (lambda: keypair_from_primes([5, 7], [1, 1], e=7.0), BadExponentChoice),
    "keypair-e-bool": (lambda: keypair_from_primes([5, 7], [1, 1], e=True), BadExponentChoice),
    "msg-mx-float": (lambda: encrypt_point(PUB35, MessagePair(3.0, 4)), MessageNotEncryptable),
    "msg-my-float": (lambda: encrypt(PUB35, MessagePair(3, 4.0)), MessageNotEncryptable),
    "msg-my-bool": (lambda: validate_message(PUB35, MessagePair(3, True)), MessageNotEncryptable),
    "ct-c-float": (lambda: decrypt(PRIV35, Ciphertext(34.0, 18)), DecryptionFailure),
    "ct-d-float": (lambda: decrypt(PRIV35, Ciphertext(34, 18.0)), DecryptionFailure),
    "pct-cx-float": (lambda: decrypt_point(PRIV35, PointCiphertext(float(PCT35.cx), PCT35.cy, 18)), DecryptionFailure),
    "pct-cy-float": (lambda: decrypt_point(PRIV35, PointCiphertext(PCT35.cx, float(PCT35.cy), 18)), DecryptionFailure),
    "pct-d-float": (lambda: decrypt_point(PRIV35, PointCiphertext(PCT35.cx, PCT35.cy, 18.0)), DecryptionFailure),
    "pct-d-bool": (lambda: decrypt_point(PRIV35, PointCiphertext(PCT35.cx, PCT35.cy, True)), DecryptionFailure),
    # objects of another class: a bare AttributeError, or a TypeError from vars()
    "msg-tuple-encrypt": (lambda: encrypt(PUB35, (3, 4)), MessageNotEncryptable),
    "msg-tuple-encrypt-point": (lambda: encrypt_point(PUB35, (3, 4)), MessageNotEncryptable),
    "msg-tuple-validate": (lambda: validate_message(PUB35, (3, 4)), MessageNotEncryptable),
    "ct-point-to-decrypt": (lambda: decrypt(PRIV35, PCT35), DecryptionFailure),
    "ct-compressed-to-decrypt-point": (lambda: decrypt_point(PRIV35, Ciphertext(34, 18)), DecryptionFailure),
    "ct-tuple": (lambda: decrypt(PRIV35, (1, 2)), DecryptionFailure),
    "priv-factors-pairs": (lambda: PrivateKey(((5, 1), (7, 1)), 5, Mode.ROBUST), ValueError),
    "priv-factors-none": (lambda: PrivateKey(None, 5, Mode.ROBUST), ValueError),
}


CT35 = encrypt(PUB35, MessagePair(3, 4))


@pytest.mark.parametrize(
    "dec, ct",
    [
        (decrypt, Ciphertext(CT35.c + 35, CT35.d_coef)),
        (decrypt, Ciphertext(CT35.c, CT35.d_coef + 35)),
        (decrypt, Ciphertext(-CT35.c, CT35.d_coef)),
        (decrypt_point, PointCiphertext(PCT35.cx + 35, PCT35.cy, PCT35.d_coef)),
        (decrypt_point, PointCiphertext(PCT35.cx, PCT35.cy - 35, PCT35.d_coef)),
    ],
    ids=["c-plus-n", "d-plus-n", "minus-c", "cx-plus-n", "cy-minus-n"],
)
def test_ciphertext_fields_outside_0_to_n_are_refused(dec, ct):
    # each used to decrypt, to (3, 4) or, for -c, to (3, 35 - 4)
    with pytest.raises(DecryptionFailure, match=r"^plan: ciphertext fields must be ints in \[0, N\)$"):
        dec(PRIV35, ct)


@pytest.mark.parametrize("mode", [None, "bogus", "robust", "strict", 42])
def test_a_mode_that_is_no_mode_member_is_refused(mode, monkeypatch):
    # these used to build a key that acted as robust, on which
    # dump_private_key raised a bare AttributeError; the encryptions and
    # random_message took any of them as robust, and "strict" as strict
    def refused():
        return pytest.raises(ValueError, match="^mode must be a Mode member$")

    with refused():
        PrivateKey(PRIV35.factors, 29, mode)
    with refused():
        exponent_modulus(PRIV35.factors, mode)
    with refused():
        keygen(2, [1, 1], 16, NoDraws(), mode=mode)
    for entry in (validate_message, encrypt, encrypt_point):
        with refused():
            entry(PUB35, MessagePair(3, 4), mode)
    with refused():
        random_message(PUB35, random.Random(1), mode)
    with refused():  # this used to raise RandomnessExhausted, as n = 3 has no residue to draw
        random_message(PublicKey(3, 3), NoDraws(), mode)
    tested = []
    monkeypatch.setattr(arith, "is_probable_prime", lambda n: tested.append(n) or True)
    with refused():
        keypair_from_primes([5, 7], [1, 1], e=5, mode=mode)
    assert tested == []


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: decrypt(PUB35, CT35), DecryptionFailure, "^plan: expected a PrivateKey, got a PublicKey$"),
        (lambda: decrypt_point(PUB35, PCT35), DecryptionFailure, "^plan: expected a PrivateKey, got a PublicKey$"),
        (lambda: decrypt((35, 29), CT35), DecryptionFailure, "^plan: expected a PrivateKey, got a tuple$"),
        (lambda: validate_message((35, 5), MessagePair(3, 4)), ValueError, "^expected a PublicKey, got a tuple$"),
        (lambda: encrypt(PRIV35, MessagePair(3, 4)), ValueError, "^expected a PublicKey, got a PrivateKey$"),
        (lambda: encrypt_point(PRIV35, MessagePair(3, 4)), ValueError, "^expected a PublicKey, got a PrivateKey$"),
        (lambda: random_message((35, 5), NoDraws()), ValueError, "^expected a PublicKey, got a tuple$"),
    ],
    ids=["decrypt-pub", "decrypt-point-pub", "decrypt-tuple", "validate-tuple", "encrypt-priv",
         "encrypt-point-priv", "random-message-tuple"],
)
def test_a_key_of_the_wrong_type_is_refused(call, error, message):
    # each used to leak an AttributeError from reading the key
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("case", NOT_INTS)
def test_fields_that_are_not_ints_are_refused(case):
    # these used to build, or to raise a bare TypeError or AttributeError
    # from deep inside; a bool is refused too, as FactoredModulus refuses it
    call, error = NOT_INTS[case]
    with pytest.raises(error):
        call()


def splice(pub, priv, i, value, other):
    """The integer equal to value mod the i-th prime power and other mod the rest."""
    p, k = priv.factors.factors[i]
    return crt([value, other], [p**k, pub.n // p**k])


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
@pytest.mark.parametrize("point", [False, True])
def test_a_coefficient_vanishing_mod_one_prime_fails_the_plan_naming_it(exponents, point):
    # D = 0 mod p_i alone used to fail as "no unit mod N", naming no prime
    rng = random.Random(28)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    enc, dec = (encrypt_point, decrypt_point) if point else (encrypt, decrypt)
    ct = enc(pub, random_message(pub, rng))
    for i, (p, _) in enumerate(priv.factors.factors):
        bad = dataclasses.replace(ct, d_coef=splice(pub, priv, i, p, ct.d_coef))
        with pytest.raises(DecryptionFailure, match=f"^plan: .* prime {i}$"):
            dec(priv, bad)


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_a_point_off_the_curve_mod_one_prime_fails_naming_it(exponents):
    # the point was checked on the curve mod N, which named no prime
    rng = random.Random(29)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    ct = encrypt_point(pub, random_message(pub, rng))
    for i, (p, k) in enumerate(priv.factors.factors):
        cx = splice(pub, priv, i, ct.cx + 1, ct.cx)
        assert not on_curve(cx, ct.cy, ct.d_coef, p**k)
        with pytest.raises(DecryptionFailure, match=f"^curve: .* prime {i}$"):
            decrypt_point(priv, PointCiphertext(cx, ct.cy, ct.d_coef))


def test_the_plan_refuses_a_coefficient_vanishing_mod_a_prime():
    # Jacobi(D, p) = 0 gives the order p, which no key covers; a robust key
    # used to plan it as p - 1
    rng = random.Random(30)
    pub, priv = small_keypair(rng, r=3, bits=32)
    d_coef = encrypt(pub, random_message(pub, rng)).d_coef
    assert len(reduced_private_exponents(priv, d_coef)) == 3
    for i in range(3):
        with pytest.raises(DecryptionFailure, match=f"^plan: the robust key .* prime {i}$"):
            reduced_private_exponents(priv, splice(pub, priv, i, 0, d_coef))


@pytest.mark.parametrize("exponents,inversions", [([1, 1, 1], [6, 3]), ([3, 1], [4, 2])])
def test_work_per_decryption_is_pinned(monkeypatch, exponents, inversions):
    # inversions per compressed and per point request: one decompression and
    # one root y per prime; the r - 1 Garner coefficients are the plan's,
    # built once per key; no curve mod N is built
    rng = random.Random(31)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    assert len(priv.garner) == len(exponents) - 1
    msg = random_message(pub, rng)
    requests = [(decrypt, encrypt(pub, msg)), (decrypt_point, encrypt_point(pub, msg))]
    inverted, curves = [], []

    def spy(a, n):
        inverted.append(n)
        return mod_inv(a, n)

    for module in (pell, scheme, arith):
        monkeypatch.setattr(module, "mod_inv", spy)
    built = PellParams.__post_init__
    monkeypatch.setattr(PellParams, "__post_init__", lambda pp: curves.append(pp.modulus) or built(pp))
    counts = []
    for dec, ct in requests:
        inverted.clear()
        assert dec(priv, ct) == msg
        counts.append(len(inverted))
    assert counts == inversions
    assert curves and pub.n not in curves


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_curves_built_per_request_are_pinned(monkeypatch, exponents):
    # encryption builds no curve: compression reads the bare modulus.  A
    # decryption builds one per prime, whichever use of the row: the curve
    # mod p that point_pow reads; the ciphertext's curve mod p^k is bare ints
    rng = random.Random(32)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    msg = random_message(pub, rng)
    built = []
    monkeypatch.setattr(scheme, "PellParams", lambda n, d: built.append(n) or PellParams(n, d))
    requests = [(decrypt, encrypt(pub, msg)), (decrypt_point, encrypt_point(pub, msg))]
    assert built == []
    expected = sorted(p for p, _ in priv.factors.factors)
    for dec, ct in requests * 3:
        built.clear()
        assert dec(priv, ct) == msg
        assert sorted(built) == expected


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
@pytest.mark.parametrize("sign", [1, -1])
def test_decrypt_point_rejects_points_that_are_no_message(sign, exponents):
    # (+-1, 0) lie on every curve and are their own powers; my = 0 is no unit,
    # so the first prime's ladder refuses them
    rng = random.Random(15)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    d_coef = encrypt(pub, random_message(pub, rng)).d_coef
    with pytest.raises(DecryptionFailure, match="^ladder: the ciphertext has y = 0 mod prime 0$"):
        decrypt_point(priv, PointCiphertext(sign % pub.n, 0, d_coef))


@pytest.mark.parametrize("exponents,zeroed", [([1, 1, 1], 1), ([3, 1], 3), ([3, 1], 1)])
def test_decrypt_rejects_parameter_vanishing_mod_one_prime(exponents, zeroed):
    # c = 0 mod p^k decompresses to (-1, 0) mod p^k, which decrypts to itself
    rng = random.Random(16)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    ct = encrypt(pub, random_message(pub, rng))
    i = [k for _, k in priv.factors.factors].index(zeroed)
    p, k = priv.factors.factors[i]
    c = crt([0, ct.c], [p**k, pub.n // p**k])
    with pytest.raises(DecryptionFailure, match=f"^ladder: .* prime {i}$"):
        decrypt(priv, Ciphertext(c, ct.d_coef))


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_decrypt_point_names_the_one_prime_where_y_vanishes(exponents):
    # c^(p - (D/p)) is (1, 0) mod p, and mod p^3 y is 0 mod p only; combined
    # with a valid ciphertext mod the rest, the point is on the curve mod N
    # and no message, and the ladder of that prime alone refuses it
    rng = random.Random(21)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    ct = encrypt_point(pub, random_message(pub, rng))
    for i, (p, k) in enumerate(priv.factors.factors):
        q = p**k
        t, u = chebyshev(ct.cx, p - jacobi(ct.d_coef, p), q)
        z = HyperbolaPoint(t, ct.cy * u % q)
        assert z.y % p == 0 and (z.y != 0) == (k > 1)
        moduli = [q, pub.n // q]
        cx, cy = crt_combine([z, (ct.cx, ct.cy)], moduli, crt_coefficients(moduli))
        assert on_curve(cx, cy, ct.d_coef, pub.n)
        with pytest.raises(DecryptionFailure, match=f"^ladder: .* y = 0 mod prime {i}$"):
            decrypt_point(priv, PointCiphertext(cx, cy, ct.d_coef))


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_a_root_that_is_no_unit_mod_one_prime_fails_the_crt_stage(exponents):
    # (0, y) with D = -1/y^2 mod p^k lies on the curve there, and its root to
    # an odd e has x = 0 too, so the root check and the lift pass; only the
    # CRT stage sees that the recovered mx = 0 mod p is no unit
    rng = random.Random(35)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    ct = encrypt_point(pub, random_message(pub, rng))
    for i, (p, k) in enumerate(priv.factors.factors):
        d_i = -mod_inv(ct.cy * ct.cy, p**k) % p**k
        bad = PointCiphertext(splice(pub, priv, i, 0, ct.cx), ct.cy, splice(pub, priv, i, d_i, ct.d_coef))
        with pytest.raises(DecryptionFailure, match="^crt: the recovered point is not a message"):
            decrypt_point(priv, bad)


CRT_FAULTS = {
    "shifted-result": "^crt: the recovered point is not on the curve$",
    # a coefficient off by one used to fail only the curve check after CRT
    "corrupted-garner": "^crt: the key's Garner coefficients do not invert its moduli$",
}


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
@pytest.mark.parametrize("point", [False, True])
@pytest.mark.parametrize("fault", CRT_FAULTS)
def test_a_fault_in_the_crt_combination_fails_the_crt_stage(monkeypatch, exponents, point, fault):
    rng = random.Random(36)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    enc, dec = (encrypt_point, decrypt_point) if point else (encrypt, decrypt)
    ct = enc(pub, random_message(pub, rng))
    combine = scheme.crt_combine

    def shifted(*args):
        mx, my = combine(*args)
        return mx + 1, my

    if fault == "shifted-result":
        monkeypatch.setattr(scheme, "crt_combine", shifted)
    else:
        object.__setattr__(priv, "garner", tuple(c + 1 for c in priv.garner))
    with pytest.raises(DecryptionFailure, match=CRT_FAULTS[fault]):
        dec(priv, ct)


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_decryption_inverts_at_prime_power_width(monkeypatch, exponents):
    # decompression, the ladders' y recovery and CRT all invert mod a p^k
    # or below, never mod N
    rng = random.Random(22)
    pub, priv = small_keypair(rng, r=len(exponents), bits=32, exponents=exponents)
    msgs = [random_message(pub, rng) for _ in range(5)]
    cts = [(decrypt, encrypt(pub, m)) for m in msgs]
    cts += [(decrypt_point, encrypt_point(pub, m)) for m in msgs]
    moduli = []

    def spy(a, n):
        moduli.append(n)
        return mod_inv(a, n)

    for module in (pell, scheme, arith):
        monkeypatch.setattr(module, "mod_inv", spy)
    for (dec, ct), msg in zip(cts, msgs + msgs):
        assert dec(priv, ct) == msg
    assert moduli and max(moduli) <= max(p**k for p, k in priv.factors.factors)


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_decrypt_names_the_prime_where_the_parameter_does_not_decompress(exponents):
    # for p = 3 mod 4 and D a residue mod p, s = D^((p + 1)/4) has s^2 = D
    # mod p; c = s mod p^k and a valid ciphertext mod the rest makes
    # c^2 - D no unit mod that prime power alone
    rng = random.Random(23)
    primes = set()
    while len(primes) < len(exponents):
        p = gen_prime(32, rng)
        if p % 4 == 3:
            primes.add(p)
    pub, priv = keypair_from_primes(sorted(primes), exponents)
    tested = set()
    for _ in range(40):
        ct = encrypt(pub, random_message(pub, rng))
        for i, (p, k) in enumerate(priv.factors.factors):
            if jacobi(ct.d_coef, p) != 1:
                continue
            s = pow(ct.d_coef, (p + 1) // 4, p)
            assert (s * s - ct.d_coef) % p == 0
            c = crt([s, ct.c], [p**k, pub.n // p**k])
            with pytest.raises(DecryptionFailure, match=f"prime {i}$"):
                decrypt(priv, Ciphertext(c, ct.d_coef))
            tested.add(i)
    assert tested == set(range(len(exponents)))


def inject_fault(monkeypatch, fault, p):
    """Make decryption's root mod the prime p wrong, as a hardware fault would."""
    if fault == "branch":
        # the Legendre symbol of D mod p picks the other group order
        monkeypatch.setattr(scheme, "jacobi", lambda a, n: -jacobi(a, n) if n == p else jacobi(a, n))
    elif fault == "d_bit":
        plan = scheme.reduced_private_exponents

        def flipped(sk, d_coef):
            # copies: the plan's own rows keep their d_i, uses and chain
            rows = plan(sk, d_coef)
            return [dataclasses.replace(row, d_i=row.d_i ^ (1 << 40)) if row.p == p else row for row in rows]

        monkeypatch.setattr(scheme, "reduced_private_exponents", flipped)
    elif fault == "lift_x":
        # x + p in every lift power mod a higher power of p
        chain = scheme.chebyshev

        def faulty(x, k, n):
            t, u = chain(x, k, n)
            return ((t + p) % n, u) if n > p and n % p == 0 else (t, u)

        monkeypatch.setattr(scheme, "chebyshev", faulty)
    else:
        ladder = scheme.point_pow
        corrupt = {"ladder_x": lambda x: x + 1, "x_is_1": lambda x: 1, "x_is_minus_1": lambda x: -1}[fault]

        def faulty(x, k, pp, chain=None):
            out = ladder(x, k, pp, chain=chain)
            return corrupt(out) % p if pp.modulus == p else out

        monkeypatch.setattr(scheme, "point_pow", faulty)


# every root fault on both key shapes; the lift runs only on a prime power,
# so its fault only on the (3,1) key
FAULT_SHAPES = [[1, 1, 1], [3, 1]]
FAULT_CASES = [(f, j) for j in (0, 1) for f in ["branch", "d_bit", "ladder_x", "x_is_1", "x_is_minus_1"]]
FAULT_CASES.append(("lift_x", 1))


@pytest.mark.parametrize(
    "fault,exponents",
    [(f, FAULT_SHAPES[j]) for f, j in FAULT_CASES],
    ids=[f"exponents{j}-{f}" for f, j in FAULT_CASES],
)
@pytest.mark.parametrize("point", [False, True])
def test_a_fault_in_one_prime_raises_naming_the_verify_stage(monkeypatch, fault, exponents, point):
    # a wrong root mod p still lies on the curve mod p, so it used to come
    # back as a wrong plaintext m' with gcd(m' - m, N) a multiple of the
    # other primes: the Bellcore attack on CRT decryption; a wrong lift
    # power mod p^3 did so too, gcd(m' - m, N) then a multiple of p
    rng = random.Random(25)
    pub, priv = small_keypair(rng, r=len(exponents), bits=64, exponents=exponents)
    enc, dec = (encrypt_point, decrypt_point) if point else (encrypt, decrypt)
    msgs = [random_message(pub, rng) for _ in range(4)]
    cts = [enc(pub, msg) for msg in msgs]
    # twice, so every row these ciphertexts use has built its chain
    assert [dec(priv, ct) for ct in cts + cts] == msgs + msgs
    assert all(row.chain for rows in priv.plan for row in rows.values() if row.uses)
    for i, (p, k) in enumerate(priv.factors.factors):
        if fault == "lift_x" and k == 1:
            continue
        before = [(row.uses, row.chain) for row in priv.plan[i].values()]
        with monkeypatch.context() as mp:
            inject_fault(mp, fault, p)
            for ct in cts:
                # a fresh copy of the key runs first-use ladders, priv its chains
                for key in (dataclasses.replace(priv), priv):
                    with pytest.raises(DecryptionFailure, match=f"^verify: .* prime {i}$"):
                        dec(key, ct)
        if fault == "d_bit":
            # the faulty copies counted the uses and built any chain
            assert [(row.uses, row.chain) for row in priv.plan[i].values()] == before


def corrupted(chain):
    """The chain with one op's first operand moved to the register before it."""
    j = len(chain.ops) // 2
    a, b, c = chain.ops[j]
    return chain._replace(ops=chain.ops[:j] + ((a - 1, b, c),) + chain.ops[j + 1 :])


@pytest.mark.parametrize("exponents", FAULT_SHAPES)
@pytest.mark.parametrize("point", [False, True])
def test_a_corrupted_chain_op_raises_naming_the_verify_stage(monkeypatch, exponents, point):
    # a chain no longer proved: it still claims d_i, so point_pow runs it and
    # only the root check can tell its x is no root
    rng = random.Random(26)
    pub, priv = small_keypair(rng, r=len(exponents), bits=64, exponents=exponents)
    enc, dec = (encrypt_point, decrypt_point) if point else (encrypt, decrypt)
    msgs = [random_message(pub, rng) for _ in range(4)]
    cts = [enc(pub, msg) for msg in msgs]
    assert [dec(priv, ct) for ct in cts + cts] == msgs + msgs
    for i, rows in enumerate(priv.plan):
        with monkeypatch.context() as mp:
            for row in rows.values():
                if row.chain:
                    bad = corrupted(row.chain)
                    with pytest.raises(ValueError):
                        bad.proved_index()
                    mp.setattr(row, "chain", bad)
            for ct in cts:
                with pytest.raises(DecryptionFailure, match=f"^verify: .* prime {i}$"):
                    dec(priv, ct)
        assert [dec(priv, ct) for ct in cts] == msgs


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="the lift checks only that its power to e lies on the curve, which a kernel element keeps",
)
@pytest.mark.parametrize("point", [False, True])
def test_a_lift_power_off_by_a_kernel_element_raises_naming_the_verify_stage(monkeypatch, point):
    # raising the lift's power mod p^3 to e + order multiplies it by m'^order,
    # which is 1 mod p and on the curve: every check passes, and the result
    # is a wrong plaintext
    rng = random.Random(37)
    pub, priv = small_keypair(rng, r=2, bits=40, exponents=[3, 1])
    ((p, k),) = [(p, k) for p, k in priv.factors.factors if k == 3]
    enc, dec = (encrypt_point, decrypt_point) if point else (encrypt, decrypt)
    ct = enc(pub, random_message(pub, rng))
    order = p - jacobi(ct.d_coef % p, p)
    chain = scheme.chebyshev
    monkeypatch.setattr(scheme, "chebyshev", lambda x, e, n: chain(x, e + order if n == p**k else e, n))
    with pytest.raises(DecryptionFailure, match="^verify: "):
        dec(priv, ct)

@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_a_row_builds_its_chain_on_its_second_use_only(monkeypatch, exponents):
    # one decryption, as `pellrsa decrypt` makes, builds no chain; a second
    # of the same ciphertext builds one per row it uses, and later ones none
    rng = random.Random(27)
    pub, priv = small_keypair(rng, r=len(exponents), bits=64, exponents=exponents)
    msg = random_message(pub, rng)
    ct, pct = encrypt(pub, msg), encrypt_point(pub, msg)
    built, build = [], scheme.lucas_chain
    monkeypatch.setattr(scheme, "lucas_chain", lambda k: built.append(k) or build(k))
    assert decrypt(priv, ct) == msg
    assert built == []
    rows = reduced_private_exponents(priv, ct.d_coef)
    assert decrypt_point(priv, pct) == msg
    assert built == [row.d_i for row in rows]
    for _ in range(3):
        assert decrypt(priv, ct) == decrypt_point(priv, pct) == msg
    assert len(built) == len(rows)
    assert [(row.uses, row.chain.k) for row in rows] == [(8, row.d_i) for row in rows]


@pytest.mark.parametrize("exponents", [[1, 1, 1], [3, 1]])
def test_a_decryption_adds_one_use_to_each_plan_row_it_reads(exponents):
    rng = random.Random(28)
    pub, priv = small_keypair(rng, r=len(exponents), bits=64, exponents=exponents)
    every_row = [row for by_order in priv.plan for row in by_order.values()]
    for dec, enc in [(decrypt, encrypt), (decrypt_point, encrypt_point), (decrypt, encrypt)]:
        msg = random_message(pub, rng)
        ct = enc(pub, msg)
        rows = reduced_private_exponents(priv, ct.d_coef)
        # the plan's own rows, one per prime, for the order D picks
        assert all(row is priv.plan[i][row.order] for i, row in enumerate(rows))
        uses = [row.uses for row in every_row]
        assert dec(priv, ct) == msg
        read = [any(row is r for r in rows) for row in every_row]
        assert [row.uses - n for row, n in zip(every_row, uses)] == [int(r) for r in read]


def test_a_built_plan_leaves_the_key_file_eq_and_hash_unchanged():
    # keygen and load_private_key both return a key whose plan and Garner
    # coefficients are built before any decryption
    rng = random.Random(34)
    pub, priv = small_keypair(rng, r=3, bits=64)
    text = dump_private_key(priv)
    copy = load_private_key(text)
    garner = crt_coefficients([p**k for p, k in priv.factors.factors])
    for key in (priv, copy):
        assert {"plan", "garner"} <= vars(key).keys() and key.garner == garner
        assert [sorted(rows) for rows in key.plan] == [[p - 1, p + 1] for p, _ in key.factors.factors]
        assert all(row.uses == 0 and row.chain is None for rows in key.plan for row in rows.values())
    msgs = [random_message(pub, rng) for _ in range(3)]
    for msg in msgs + msgs:
        assert decrypt(priv, encrypt(pub, msg)) == msg
    assert any(row.chain for rows in priv.plan for row in rows.values())
    assert dump_private_key(priv) == text
    assert priv == copy and hash(priv) == hash(copy)
    assert repr(priv) == repr(copy)
    # repr printed d in decimal and each prime in hex, and a row p, q, order and d_i
    secrets = [f"{p:#x}" for p, _ in priv.factors.factors] + [str(priv.d), f"{priv.d:#x}"]
    assert not [secret for secret in secrets if secret in repr(priv)]
    assert not [row for rows in priv.plan for row in rows.values() if str(row.d_i) in repr(row)]


def hostile_integers(n, primes):
    """0, +-1, N and its neighbours, multiples of one prime, negatives,
    values above N and integers of any size."""
    return st.one_of(
        st.sampled_from([0, 1, -1, n, -n, n - 1, n + 1, 2 * n]),
        st.builds(lambda p, m: p * m, st.sampled_from(primes), st.integers(-2 * n, 2 * n)),
        st.integers(-3 * n, 3 * n),
        st.integers(),
    )


def preimage_or_failure(dec, enc, pub, priv, ct, expected):
    """dec(priv, ct) raises DecryptionFailure or returns a message that enc
    maps back to the ciphertext reduced mod N."""
    try:
        msg = dec(priv, ct)
    except DecryptionFailure:
        return
    assert enc(pub, msg) == expected


@settings(max_examples=150)
@given(
    exponents=st.sampled_from([[1, 1], [1, 1, 1], [3, 1]]),
    bits=st.integers(16, 32),
    seed=st.integers(0, 2**64),
    data=st.data(),
)
def test_decryption_of_arbitrary_integers_round_trips_or_fails(exponents, bits, seed, data):
    # no other outcome, and never another exception; a point ciphertext gets
    # the coefficient that puts it on the curve when its cy is a unit
    pub, priv = small_keypair(random.Random(seed), r=len(exponents), bits=bits, exponents=exponents)
    n = pub.n
    ints = hostile_integers(n, [p for p, _ in priv.factors.factors])
    for _ in range(10):
        c, d = data.draw(ints), data.draw(ints)
        preimage_or_failure(decrypt, encrypt, pub, priv, Ciphertext(c, d), Ciphertext(c % n, d % n))
        cx, cy, d = data.draw(ints), data.draw(ints), data.draw(ints)
        if math.gcd(cy, n) == 1 and data.draw(st.booleans()):
            d += (cx * cx - 1) * pow(cy, -2, n) - d % n
        ct, expected = PointCiphertext(cx, cy, d), PointCiphertext(cx % n, cy % n, d % n)
        preimage_or_failure(decrypt_point, encrypt_point, pub, priv, ct, expected)


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


@pytest.mark.parametrize("mode", list(Mode))
def test_random_message_accepts_what_validate_message_accepts_without_an_inversion(monkeypatch, mode):
    # small primes, so that most draws are refused
    pub, _ = keypair_from_primes([7, 11, 13], [1, 1, 1], mode=mode)
    expected, rng = [], random.Random(21)
    while len(expected) < 20:
        msg = MessagePair(rng.randrange(2, pub.n - 1), rng.randrange(2, pub.n - 1))
        try:
            validate_message(pub, msg, mode)
            expected.append(msg)
        except MessageNotEncryptable:
            pass
    monkeypatch.setattr(scheme, "mod_inv", lambda *args: pytest.fail("random_message computed an inverse"))
    rng = random.Random(21)
    assert [random_message(pub, rng, mode) for _ in range(20)] == expected
