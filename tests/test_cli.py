import random

import pytest

from pellrsa import cli
from pellrsa.keyfmt import dump_private_key, dump_public_key, load_private_key, load_public_key
from pellrsa.pell import psi
from pellrsa.scheme import exponent_modulus, keygen, random_message


@pytest.fixture(scope="module")
def keys(tmp_path_factory):
    # a fixed 512-bit key: its e d - 1 is wider than 2|n| bits, as
    # test_factor_takes_a_multiple_of_psi_below_n_squared_only needs and
    # not every random key's is
    prefix = tmp_path_factory.mktemp("keys") / "k"
    pub, priv = keygen(2, [1, 1], 256, random.Random(1))
    prefix.with_suffix(".pub").write_text(dump_public_key(pub))
    prefix.with_suffix(".key").write_text(dump_private_key(priv))
    return prefix, pub, priv


def test_keygen_draws_from_the_os_csprng(tmp_path, monkeypatch):
    # keygen used random.Random, a Mersenne Twister, seeded or not
    rngs, draw = [], cli.keygen
    monkeypatch.setattr(cli, "keygen", lambda *args, **kw: rngs.append(args[3]) or draw(*args, **kw))
    prefix = tmp_path / "k"
    assert cli.dispatch(["keygen", "--bits", "512", "--exponents", "1,1", "--out", str(prefix)]) == 0
    assert [type(rng) for rng in rngs] == [random.SystemRandom]
    pub = load_public_key(prefix.with_suffix(".pub").read_text())
    priv = load_private_key(prefix.with_suffix(".key").read_text())
    assert pub.n == priv.n and pub.n.bit_length() >= 511


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
    # without --out the same ciphertext text goes to stdout
    argv = ["encrypt", "--pub", f"{prefix}.pub", "--mx", f"{msg.mx:x}", "--my", f"{msg.my:x}"]
    assert cli.dispatch(argv + (["--point"] if kind == "point" else [])) == 0
    assert capsys.readouterr().out == ct_file.read_text()


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


@pytest.mark.parametrize("kind", ["param", "point"])
@pytest.mark.parametrize("j", [0, 3])
def test_encrypt_with_a_non_unit_my_exits_3(keys, tmp_path, capsys, kind, j):
    # my = 0 or my = p * j: it used to raise ImpossibleOperation from
    # inverting my^2, whose factor for my = 0 was N itself
    prefix, _, priv = keys
    p = priv.factors.factors[0][0]
    argv = ["encrypt", "--pub", f"{prefix}.pub", "--mx", "2", "--my", f"{p * j:x}", "--out", str(tmp_path / "ct")]
    assert cli.dispatch(argv + (["--point"] if kind == "point" else [])) == 3
    assert capsys.readouterr().err == "MessageNotEncryptable: mx or my is not a unit mod N\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag,bad,error",
    [
        ("--key", "d=0", "KeyFormatError"),
        ("--key", b"\xff\xfe", "UnicodeDecodeError"),
        ("--in", b"\xff\xfe", "UnicodeDecodeError"),
        ("--pub", b"\xff\xfe", "UnicodeDecodeError"),
        ("--pub", "e=2", "KeyFormatError"),
        ("--key", "d+lambda", "KeyFormatError"),
    ],
    ids=["key-syntax", "key-not-utf8", "in-not-utf8", "pub-not-utf8", "pub-even-e", "key-d-above-lambda"],
)
def test_invalid_input_file_exits_2(keys, tmp_path, capsys, flag, bad, error):
    # a key that does not parse, an even public e that no private key can
    # match, a d not reduced mod the exponent modulus, or an input file that
    # is not UTF-8 text
    prefix, pub, priv = keys
    msg = random_message(pub, random.Random(4))
    files = {"--key": f"{prefix}.key", "--pub": f"{prefix}.pub"}
    files["--in"] = str(encrypt_to(tmp_path, prefix, msg, "param"))
    bad_file = tmp_path / "bad"
    if bad in ("d=0", "d+lambda"):
        d = 0 if bad == "d=0" else priv.d + exponent_modulus(priv.factors, priv.mode)
        text = prefix.with_suffix(".key").read_text().splitlines()
        bad_file.write_text("\n".join([text[0], text[1], f"d={d:x}", *text[3:]]) + "\n")
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


def test_encrypt_with_an_identity_public_exponent_exits_2(keys, tmp_path, capsys):
    # e = 1 used to load, and encrypt then wrote the message point itself
    prefix, pub, _ = keys
    msg = random_message(pub, random.Random(5))
    (tmp_path / "pub").write_text(f"pellrsa-pub v1\nn={pub.n:x}\ne=1\n")
    argv = ["encrypt", "--pub", str(tmp_path / "pub"), "--mx", f"{msg.mx:x}", "--my", f"{msg.my:x}"]
    assert cli.dispatch(argv + ["--point", "--out", str(tmp_path / "ct")]) == 2
    assert capsys.readouterr().err.startswith("KeyFormatError")
    assert not (tmp_path / "ct").exists()


def test_keygen_with_too_few_primes_of_that_size_exits_3(tmp_path, capsys, alarm):
    # 192 // 24 = 8-bit primes, and only 23 exist: redrawing never ended
    argv = ["keygen", "--bits", "192", "--exponents", ",".join(["1"] * 24)]
    assert cli.dispatch(argv + ["--out", str(tmp_path / "k")]) == 3
    assert capsys.readouterr().err.startswith("RandomnessExhausted")
    assert not list(tmp_path.iterdir())


def test_factor_given_psi(keys, capsys):
    _, pub, priv = keys
    capsys.readouterr()
    argv = ["factor", "--n", f"{pub.n:x}", "--psi", f"{psi(priv.factors):x}", "--seed", "5"]
    assert cli.dispatch(argv) == 0
    expected = " * ".join(f"{p:x}^{e}" for p, e in priv.factors.factors)
    assert capsys.readouterr().out == expected + "\n"


def test_factor_splits_two_primes_in_closed_form_with_no_trial_budget(keys, capsys):
    # exact psi needs no splitting trial; 3 psi(n) does and exits 3
    _, pub, priv = keys
    capsys.readouterr()

    def factor(multiple):
        return cli.dispatch(["factor", "--n", f"{pub.n:x}", "--psi", f"{multiple:x}", "--trials", "0", "--seed", "5"])

    assert factor(psi(priv.factors)) == 0
    assert capsys.readouterr().out == " * ".join(f"{p:x}^{e}" for p, e in priv.factors.factors) + "\n"
    assert factor(3 * psi(priv.factors)) == 3
    assert capsys.readouterr().err.startswith("TrialBudgetExhausted")


def test_factor_takes_a_multiple_of_psi_below_n_squared_only(keys, capsys, alarm):
    # the exponent modulus factors n; the key's e d - 1, a multiple of it
    # wider than 2|n| bits, exits 1 before any splitting trial
    _, pub, priv = keys
    capsys.readouterr()

    def factor(multiple):
        return cli.dispatch(["factor", "--n", f"{pub.n:x}", "--psi", f"{multiple:x}", "--seed", "5"])

    assert factor(exponent_modulus(priv.factors, priv.mode)) == 0
    assert capsys.readouterr().out == " * ".join(f"{p:x}^{e}" for p, e in priv.factors.factors) + "\n"
    assert factor(pub.e * priv.d - 1) == 1
    assert "must lie in" in capsys.readouterr().err


def test_factor_refuses_an_oversized_psi_at_once(capsys, alarm):
    # an odd 200,000-bit psi used to spend minutes on 200 splitting trials
    n = (2**521 - 1) * (2**607 - 1)
    argv = ["factor", "--n", f"{n:x}", "--psi", f"{(1 << 200_000) | 1:x}", "--seed", "1"]
    assert cli.dispatch(argv) == 1
    assert "must lie in" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["keygen", "--bits", "512", "--exponents", ","],
        ["keygen", "--bits", "512", "--exponents", "1,-1"],
        ["factor", "--n", "f", "--psi", "0", "--seed", "1"],
        ["bench", "--bits", "512", "--primes", "2"],
        ["keygen", "--bits", "512", "--exponents", "1,1", "--mode", "strict"],
        ["factor", "--n", f"{3**10400:x}", "--psi", "4", "--seed", "1"],
        ["keygen", "--bits", "40000", "--exponents", "1,1"],
        ["encrypt", "--pub", "absent.pub", "--mx", "0x10", "--my", "3"],
        ["keygen", "--bits", "512", "--exponents", "1,,1"],
        ["keygen", "--bits", "512", "--exponents", "1"],
        ["keygen", "--bits", "512", "--exponents", "2,1"],
        ["keygen", "--bits", "512", "--primes", "2", "--exponents", "1,1"],
        ["keygen", "--bits", "512", "--exponents", "1,1", "--seed", "1"],
        ["keygen", "--bits", "512", "--exponents", "0,1"],
    ],
)
def test_invalid_arguments_exit_1(tmp_path, capsys, argv):
    if argv[0] == "keygen":
        argv = argv + ["--out", str(tmp_path / "k")]
    assert cli.dispatch(argv) == 1
    assert capsys.readouterr().err
    assert not list(tmp_path.iterdir())
