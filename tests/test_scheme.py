import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import arith, scheme
from pellrsa.errors import (
    BadExponentChoice,
    DecryptionFailure,
    ImpossibleOperation,
    MessageNotEncryptable,
    RandomnessExhausted,
)
from pellrsa.arith import MAX_MODULUS_BITS, crt_coefficients, jacobi
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
from oracles import NoDraws, crt, miller_rabin, on_curve


def small_keypair(rng, r=2, bits=32, mode=Mode.ROBUST, exponents=None):
    return keygen(r, exponents or [1] * r, bits, rng, mode=mode)


# (r, prime bits, prime-power exponents) covered by the oracle comparisons
ORACLE_SHAPES = [
    (2, 40, None),
    (3, 40, None),
    (4, 32, None),
    (4, 16, None),  # e = 65537 > p + 1
    (2, 20, [3, 1]),
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


@pytest.mark.parametrize(
    "e", [2**16000, 2**20000 + 1, 65538], ids=["even-16001-bits", "odd-20001-bits", "even"]
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


@pytest.mark.parametrize("r, bits, exponents", ORACLE_SHAPES)
def test_every_decryption_path_returns_the_message(r, bits, exponents):
    # both kinds through the plan, the full-width oracles mod N, and the CRT
    # oracles taking Redei and parameter powers mod each whole p^k
    rng = random.Random(5)
    pub, priv = small_keypair(rng, r=r, bits=bits, exponents=exponents)
    for _ in range(10):
        msg = random_message(pub, rng)
        ct, pct = encrypt(pub, msg), encrypt_point(pub, msg)
        assert on_curve(pct.cx, pct.cy, pct.d_coef, pub.n)
        assert decrypt(priv, ct) == decrypt_point(priv, pct) == msg
        assert full_width_decrypt(priv, ct) == full_width_decrypt_point(priv, pct) == msg
        assert crt_decrypt_with(redei_pow, priv, ct) == crt_decrypt_with(param_pow, priv, ct) == msg


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


def test_ciphertext_parameter_is_a_unit():
    rng = random.Random(8)
    pub, priv = small_keypair(rng, r=3, bits=32)
    for _ in range(20):
        ct = encrypt(pub, random_message(pub, rng))
        assert math.gcd(ct.c, pub.n) == 1
        assert math.gcd(ct.d_coef, pub.n) == 1


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


@pytest.mark.parametrize("primes,exponents", [([5, 7], [1]), ([5], [1, 1]), ([5, 7], [1, 1, 1])])
def test_keypair_from_primes_refuses_a_length_mismatch_before_any_primality_test(monkeypatch, primes, exponents):
    tested = []
    monkeypatch.setattr(arith, "is_probable_prime", lambda n: tested.append(n) or True)
    with pytest.raises(ValueError):
        keypair_from_primes(primes, exponents, e=5)
    assert tested == []


# the robust 5 * 7 key with e = 5 and d = 29
PUB35, PRIV35 = keypair_from_primes([5, 7], [1, 1], e=5)


@pytest.mark.parametrize("mode", ["bogus", "robust", "strict"])
def test_a_mode_that_is_no_mode_member_is_refused(mode, monkeypatch):
    # these used to build a key that acted as robust, on which
    # dump_private_key raised a bare AttributeError; the encryptions and
    # random_message took any of them as robust, and "strict" as strict
    def refused():
        return pytest.raises(ValueError, match=f"^expected a Mode, got a {type(mode).__name__}$")

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
