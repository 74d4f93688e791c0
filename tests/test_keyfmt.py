import random

import pytest

from pellrsa.errors import KeyFormatError
from pellrsa.keyfmt import (
    dump_ciphertext,
    dump_private_key,
    dump_public_key,
    load_ciphertext,
    load_private_key,
    load_public_key,
    parse_number,
)
from pellrsa.scheme import (
    Ciphertext,
    Mode,
    PointCiphertext,
    encrypt,
    encrypt_point,
    keypair_from_primes,
    keygen,
    random_message,
)


@pytest.fixture(scope="module")
def keypair():
    return keygen(2, [1, 1], 32, random.Random(99))


def test_public_key_exact_format():
    pub, _ = keypair_from_primes([5, 7], [1, 1], e=5)
    assert dump_public_key(pub) == "pellrsa-pub v1\nn=23\ne=5\n"  # 35 = 0x23


def test_private_key_exact_format():
    _, priv = keypair_from_primes([5, 7], [1, 1], e=5, mode=Mode.STRICT)
    text = dump_private_key(priv)
    assert text == "pellrsa-priv v1\nmode=strict\nd=5\nfactor=5^1\nfactor=7^1\n"


def test_ciphertext_exact_formats():
    assert dump_ciphertext(Ciphertext(34, 18)) == "pellrsa-ct v1\nkind=param\nd_coef=12\nc=22\n"
    assert (
        dump_ciphertext(PointCiphertext(3, 4, 18))
        == "pellrsa-ct v1\nkind=point\nd_coef=12\ncx=3\ncy=4\n"
    )
    with pytest.raises(ValueError, match="^expected a Ciphertext or PointCiphertext, got a object$"):
        dump_ciphertext(object())


def test_key_roundtrips(keypair):
    pub, priv = keypair
    assert load_public_key(dump_public_key(pub)) == pub
    assert load_private_key(dump_private_key(priv)) == priv


def test_ciphertext_roundtrips(keypair):
    pub, _ = keypair
    rng = random.Random(7)
    msg = random_message(pub, rng)
    for ct in (encrypt(pub, msg), encrypt_point(pub, msg)):
        assert load_ciphertext(dump_ciphertext(ct)) == ct


@pytest.mark.parametrize(
    "text",
    [
        "",
        "garbage\nn=1\ne=3\n",
        "pellrsa-pub v1\ne=3\nn=23\n",  # wrong field order
        "pellrsa-pub v1\nn=23\ne=zz\n",  # bad hex
        "pellrsa-pub v1\nn=23\ne=5\nx=1\n",  # trailing field
    ],
)
def test_public_key_parse_errors(text):
    with pytest.raises(KeyFormatError):
        load_public_key(text)


def test_private_key_parse_errors():
    with pytest.raises(KeyFormatError):
        load_private_key("pellrsa-priv v1\nmode=weird\nd=5\nfactor=5^1\nfactor=7^1\n")
    with pytest.raises(KeyFormatError):
        load_private_key("pellrsa-priv v1\nmode=strict\nd=5\nfactor=5\n")
    # 6 is not prime: the factored modulus refuses to build
    with pytest.raises(KeyFormatError):
        load_private_key("pellrsa-priv v1\nmode=strict\nd=5\nfactor=6^1\nfactor=7^1\n")
    # an exponent of more than 4300 decimal digits, which int() refuses
    with pytest.raises(KeyFormatError):
        load_private_key(f"pellrsa-priv v1\nmode=strict\nd=5\nfactor=5^{'1' * 4301}\nfactor=7^1\n")


def test_ciphertext_parse_errors():
    with pytest.raises(KeyFormatError):
        load_ciphertext("pellrsa-ct v1\nkind=other\nd_coef=12\nc=22\n")
    with pytest.raises(KeyFormatError):
        load_ciphertext("pellrsa-ct v1\nkind=point\nd_coef=12\ncx=3\n")


@pytest.mark.parametrize(
    "load, text",
    [
        (load_public_key, "pellrsa-pub v1\nn=0\ne=3\n"),
        (load_public_key, "pellrsa-pub v1\nn=1\ne=3\n"),
        (load_public_key, "pellrsa-pub v1\nn=24\ne=5\n"),  # even n = 36
        (load_public_key, "pellrsa-pub v1\nn=23\ne=0\n"),
        (load_private_key, "pellrsa-priv v1\nmode=robust\nd=0\nfactor=5^1\nfactor=7^1\n"),
        (load_private_key, "pellrsa-priv v1\nmode=robust\nd=6\nfactor=5^1\nfactor=7^1\n"),
        (load_private_key, "pellrsa-priv v1\nmode=robust\nd=1d\nfactor=5^2\nfactor=7^1\n"),
        (load_private_key, "pellrsa-priv v1\nmode=robust\nd=5\nfactor=7^1\n"),
        (load_private_key, "pellrsa-priv v1\nmode=robust\nd=5\nfactor=2^1\nfactor=7^1\n"),
        (
            load_private_key,
            "pellrsa-priv v1\nmode=robust\nd=3\nfactor=3^1000000000000\nfactor=5^1\n",
        ),
        pytest.param(
            load_public_key, f"pellrsa-pub v1\nn={(1 << 16384) + 1:x}\ne=3\n", id="n-16385-bits"
        ),
        pytest.param(
            load_public_key, f"pellrsa-pub v1\nn=23\ne={(1 << 16384) + 1:x}\n", id="e-16385-bits"
        ),
        pytest.param(load_public_key, "pellrsa-pub v1\nn=23\ne=2\n", id="e-2"),
        pytest.param(load_public_key, "pellrsa-pub v1\nn=23\ne=4\n", id="e-4"),
        pytest.param(load_public_key, "pellrsa-pub v1\nn=23\ne=1\n", id="e-1"),
        pytest.param(load_private_key, "pellrsa-priv v1\nmode=robust\nd=1\nfactor=5^1\nfactor=7^1\n", id="d-1"),
        pytest.param(
            load_private_key, "pellrsa-priv v1\nmode=robust\nd=4d\nfactor=5^1\nfactor=7^1\n", id="d-plus-lambda"
        ),
        pytest.param(
            load_private_key,
            f"pellrsa-priv v1\nmode=robust\nd={29 + 48 * 2**400000:x}\nfactor=5^1\nfactor=7^1\n",
            id="d-plus-lambda-times-2^400000",
        ),
    ],
)
def test_loaders_reject_keys_breaking_invariants(load, text):
    # well-formed text whose key breaks an invariant: d = 0 or 6 share a
    # factor with lcm(24, 48) = 48, an even exponent, one prime, prime 2, a
    # modulus far above the size limit (refused before 3^(10^12) is computed),
    # a public n or e above MAX_MODULUS_BITS, which would make encryption slow,
    # an even public e, which no d inverts modulo the even exponent modulus,
    # e = 1 and d = 1, under which encryption is the identity,
    # and d = 29 plus a multiple of 48, which inverts e = 5 but is not reduced
    with pytest.raises(KeyFormatError):
        load(text)


@pytest.mark.parametrize("base", [8, 2])
def test_parse_number_refuses_a_base_other_than_16_or_10(base):
    # base 8 used to read "7" as decimal 7, while it refused "10"
    with pytest.raises(ValueError, match="^base must be 16 or 10$"):
        parse_number("7", "f", base)
    assert (parse_number("7", "f", 16), parse_number("10", "f", 10)) == (7, 10)
