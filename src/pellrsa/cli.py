"""Command line front end: keygen, encrypt, decrypt, factor.

Residues cross the command line as lowercase hex.  Exit codes: 1 for bad
flags, 2 for file or parse problems, 3 for domain errors (the error class
name goes to stderr).
"""

import argparse
import random
import sys
from pathlib import Path

from .attacks import full_factorization
from .errors import KeyFormatError, PellRsaError
from .keyfmt import (
    dump_ciphertext,
    dump_private_key,
    dump_public_key,
    load_ciphertext,
    load_private_key,
    load_public_key,
)
from .scheme import (
    Ciphertext,
    MessagePair,
    Mode,
    decrypt,
    decrypt_point,
    encrypt,
    encrypt_point,
    keygen,
)


def _hex_arg(value):
    try:
        return int(value, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not hex") from None


def _int_list(value):
    try:
        return [int(part) for part in value.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a comma-separated int list") from None


def build_parser():
    parser = argparse.ArgumentParser(prog="pellrsa")
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--bits", type=int, required=True, help="modulus size in bits")
    kg.add_argument("--primes", type=int, required=True, help="number of primes r")
    kg.add_argument("--exponents", type=_int_list, required=True, help="e1,..,er (odd)")
    kg.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.ROBUST.value)
    kg.add_argument("--pub-exp", type=int, default=None, help="public exponent (decimal)")
    kg.add_argument("--seed", type=int, default=None, help="deterministic randomness seed")
    kg.add_argument("--out", required=True, help="prefix for PREFIX.pub / PREFIX.key")

    en = sub.add_parser("encrypt", help="encrypt a message pair")
    en.add_argument("--pub", required=True, help="public key file")
    en.add_argument("--mx", type=_hex_arg, required=True, help="first residue (hex)")
    en.add_argument("--my", type=_hex_arg, required=True, help="second residue (hex)")
    en.add_argument("--point", action="store_true", help="uncompressed point ciphertext")
    en.add_argument("--out", default=None, help="ciphertext file (default stdout)")

    de = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    de.add_argument("--key", required=True, help="private key file")
    de.add_argument("--in", dest="infile", required=True, help="ciphertext file")

    fa = sub.add_parser("factor", help="factor n given psi(n)")
    fa.add_argument("--n", type=_hex_arg, required=True, help="modulus (hex)")
    fa.add_argument("--psi", type=_hex_arg, required=True, help="totient analog (hex)")
    fa.add_argument("--trials", type=int, default=200, help="trial budget")
    fa.add_argument("--seed", type=int, default=None)

    return parser


def _cmd_keygen(args):
    exps = args.exponents
    if len(exps) != args.primes or not exps or min(exps) < 1:
        print("--exponents must list one odd exponent >= 1 per prime", file=sys.stderr)
        return 1
    prime_bits = args.bits // sum(exps)
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    pub, priv = keygen(
        args.primes, exps, prime_bits, rng, e=args.pub_exp, mode=Mode(args.mode)
    )
    Path(args.out + ".pub").write_text(dump_public_key(pub))
    Path(args.out + ".key").write_text(dump_private_key(priv))
    return 0


def _cmd_encrypt(args):
    pub = load_public_key(Path(args.pub).read_text())
    msg = MessagePair(args.mx, args.my)
    ct = encrypt_point(pub, msg) if args.point else encrypt(pub, msg)
    text = dump_ciphertext(ct)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decrypt(args):
    priv = load_private_key(Path(args.key).read_text())
    ct = load_ciphertext(Path(args.infile).read_text())
    if isinstance(ct, Ciphertext):
        msg = decrypt(priv, ct)
    else:
        msg = decrypt_point(priv, ct)
    print(f"mx={msg.mx:x} my={msg.my:x}")
    return 0


def _cmd_factor(args):
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    factors = full_factorization(args.n, args.psi, rng, max_trials=args.trials)
    print(" * ".join(f"{p:x}^{e}" for p, e in factors))
    return 0


_COMMANDS = {
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "factor": _cmd_factor,
}


def dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for bad flags; map the latter to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except KeyFormatError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except PellRsaError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
