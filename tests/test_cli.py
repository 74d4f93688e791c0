import random

import pytest

from pellrsa import cli
from pellrsa.keyfmt import dump_public_key, load_private_key, load_public_key
from pellrsa.pell import psi
from pellrsa.scheme import PublicKey, random_message


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    prefix = tmp_path_factory.mktemp("keys") / "k"
    argv = ["keygen", "--bits", "512", "--primes", "2", "--exponents", "1,1"]
    assert cli.dispatch(argv + ["--seed", "1", "--out", str(prefix)]) == 0
    pub = load_public_key(prefix.with_suffix(".pub").read_text())
    priv = load_private_key(prefix.with_suffix(".key").read_text())
    assert pub.n == priv.n and pub.n.bit_length() >= 511
    return prefix, pub, priv


def encrypt_to(tmp_path, prefix, msg, kind):
    out = tmp_path / f"{kind}.ct"
    argv = ["encrypt", "--pub", f"{prefix}.pub", "--mx", f"{msg.mx:x}", "--my", f"{msg.my:x}"]
    assert cli.dispatch(argv + (["--point"] if kind == "point" else []) + ["--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("kind", ["param", "point"])
def test_encrypt_decrypt_round_trip(keys, tmp_path, capsys, kind):
    prefix, pub, _ = keys
    msg = random_message(pub, random.Random(2))
    ct_file = encrypt_to(tmp_path, prefix, msg, kind)
    assert f"kind={kind}" in ct_file.read_text()
    capsys.readouterr()
    assert cli.dispatch(["decrypt", "--key", f"{prefix}.key", "--in", str(ct_file)]) == 0
    assert capsys.readouterr().out == f"mx={msg.mx:x} my={msg.my:x}\n"


def test_decrypt_tampered_ciphertext_exits_3(keys, tmp_path, capsys):
    prefix, pub, _ = keys
    ct_file = encrypt_to(tmp_path, prefix, random_message(pub, random.Random(3)), "point")
    lines = ct_file.read_text().splitlines()
    cx = int(lines[3].removeprefix("cx="), 16)
    lines[3] = f"cx={cx + 1:x}"  # moves the point off the curve
    ct_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.dispatch(["decrypt", "--key", f"{prefix}.key", "--in", str(ct_file)]) == 3
    assert capsys.readouterr().err.startswith("DecryptionFailure")


def test_encrypt_out_of_range_message_exits_3(keys, tmp_path, capsys):
    # mx = N + 5 used to encrypt 5 and exit 0
    prefix, pub, _ = keys
    argv = ["encrypt", "--pub", f"{prefix}.pub", "--mx", f"{pub.n + 5:x}", "--my", "3"]
    assert cli.dispatch(argv + ["--out", str(tmp_path / "ct")]) == 3
    assert capsys.readouterr().err.startswith("MessageNotEncryptable")
    assert not list(tmp_path.iterdir())


def test_encrypt_with_a_factor_of_over_4300_digits_exits_3(tmp_path, capsys):
    # my = 0 is no unit, so the factor is N itself; str() refuses an int of
    # over 4300 decimal digits, and formatting it raised a bare ValueError
    pub = tmp_path / "big.pub"
    pub.write_text(dump_public_key(PublicKey((1 << 14400) + 1, 3)))
    argv = ["encrypt", "--pub", str(pub), "--mx", "2", "--my", "0", "--out", str(tmp_path / "ct")]
    assert cli.dispatch(argv) == 3
    assert capsys.readouterr().err.startswith("ImpossibleOperation: impossible group operation (factor=0x1000")
    assert list(tmp_path.iterdir()) == [pub]


@pytest.mark.parametrize(
    "flag,bad,error",
    [
        ("--key", "d=0", "KeyFormatError"),
        ("--key", b"\xff\xfe", "UnicodeDecodeError"),
        ("--in", b"\xff\xfe", "UnicodeDecodeError"),
        ("--pub", b"\xff\xfe", "UnicodeDecodeError"),
        ("--pub", "e=2", "KeyFormatError"),
    ],
    ids=["key-syntax", "key-not-utf8", "in-not-utf8", "pub-not-utf8", "pub-even-e"],
)
def test_invalid_input_file_exits_2(keys, tmp_path, capsys, flag, bad, error):
    # a key that does not parse, an even public e that no private key can
    # match, or an input file that is not UTF-8 text
    prefix, pub, _ = keys
    msg = random_message(pub, random.Random(4))
    files = {"--key": f"{prefix}.key", "--pub": f"{prefix}.pub"}
    files["--in"] = str(encrypt_to(tmp_path, prefix, msg, "param"))
    bad_file = tmp_path / "bad"
    if bad == "d=0":
        text = prefix.with_suffix(".key").read_text().splitlines()
        bad_file.write_text("\n".join([text[0], text[1], "d=0", *text[3:]]) + "\n")
    elif bad == "e=2":
        text = prefix.with_suffix(".pub").read_text().splitlines()
        bad_file.write_text("\n".join([text[0], text[1], "e=2"]) + "\n")
    else:
        bad_file.write_bytes(bad)
    files[flag] = str(bad_file)
    if flag == "--pub":
        argv = ["encrypt", "--pub", files["--pub"], "--mx", f"{msg.mx:x}", "--my", f"{msg.my:x}"]
    else:
        argv = ["decrypt", "--key", files["--key"], "--in", files["--in"]]
    capsys.readouterr()
    assert cli.dispatch(argv) == 2
    assert capsys.readouterr().err.startswith(error)


def test_keygen_with_too_few_primes_of_that_size_exits_3(tmp_path, capsys, alarm):
    # 192 // 24 = 8-bit primes, and only 23 exist: redrawing never ended
    argv = ["keygen", "--bits", "192", "--primes", "24", "--exponents", ",".join(["1"] * 24)]
    assert cli.dispatch(argv + ["--seed", "1", "--out", str(tmp_path / "k")]) == 3
    assert capsys.readouterr().err.startswith("RandomnessExhausted")
    assert not list(tmp_path.iterdir())


def test_factor_given_psi(keys, capsys):
    _, pub, priv = keys
    capsys.readouterr()
    argv = ["factor", "--n", f"{pub.n:x}", "--psi", f"{psi(priv.factors):x}", "--seed", "5"]
    assert cli.dispatch(argv) == 0
    expected = " * ".join(f"{p:x}^{e}" for p, e in priv.factors.factors)
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--bits", "512", "--primes", "0", "--exponents", ","],
        ["keygen", "--bits", "512", "--primes", "2", "--exponents", "1,-1"],
        ["factor", "--n", "f", "--psi", "0", "--seed", "1"],
        ["bench", "--bits", "512", "--primes", "2"],
        ["keygen", "--bits", "512", "--primes", "2", "--exponents", "1,1", "--mode", "strict"],
        ["factor", "--n", f"{3**10400:x}", "--psi", "4", "--seed", "1"],
        ["keygen", "--bits", "40000", "--primes", "2", "--exponents", "1,1"],
        ["encrypt", "--pub", "absent.pub", "--mx", "0x10", "--my", "3"],
        ["keygen", "--bits", "512", "--primes", "2", "--exponents", "1,,1"],
        ["keygen", "--bits", "512", "--primes", "3", "--exponents", "1,1"],
        ["keygen", "--bits", "512", "--primes", "2", "--exponents", "2,1"],
    ],
)
def test_invalid_arguments_exit_1(tmp_path, capsys, argv):
    if argv[0] == "keygen":
        argv = argv + ["--out", str(tmp_path / "k")]
    assert cli.dispatch(argv) == 1
    assert capsys.readouterr().err
    assert not list(tmp_path.iterdir())
