"""Command line front end: keygen, encrypt, decrypt, factor.

keygen draws its primes from the OS CSPRNG (random.SystemRandom); only
factor takes a --seed, as its randomness need not be secret.  Numbers
cross the command line as keyfmt writes them: residues in hex, the rest in
decimal.  Exit codes: 1 for bad flags, 2 for file or parse problems, 3 for
domain errors (the error class name goes to stderr).
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
    parse_number,
)
from .scheme import (
    Ciphertext,
    MessagePair,
    decrypt,
    decrypt_point,
    encrypt,
    encrypt_point,
    keygen,
)


def _number(base):
    def parse(value):
        try:
            return parse_number(value, "argument", base)
        except KeyFormatError:
            raise argparse.ArgumentTypeError(f"{value!r} is not a base-{base} keyfmt number") from None

    return parse


def _exponent_list(value):
    exps = [_number(10)(part) for part in value.split(",")]
    if min(exps) < 1:
        raise argparse.ArgumentTypeError(f"{value!r} lists an exponent below 1")
    return exps


def build_parser():
    parser = argparse.ArgumentParser(prog="pellrsa")
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair from the OS CSPRNG")
    kg.set_defaults(run=_cmd_keygen)
    kg.add_argument("--bits", type=_number(10), required=True, help="modulus size in bits")
    kg.add_argument("--exponents", type=_exponent_list, required=True, help="e1,..,er (odd), one per prime")
    kg.add_argument("--pub-exp", type=_number(10), default=None, help="public exponent (decimal)")
    kg.add_argument("--out", required=True, help="prefix for PREFIX.pub / PREFIX.key")

    en = sub.add_parser("encrypt", help="encrypt a message pair")
    en.set_defaults(run=_cmd_encrypt)
    en.add_argument("--pub", required=True, help="public key file")
    en.add_argument("--mx", type=_number(16), required=True, help="first residue (hex)")
    en.add_argument("--my", type=_number(16), required=True, help="second residue (hex)")
    en.add_argument("--point", action="store_true", help="uncompressed point ciphertext")
    en.add_argument("--out", default=None, help="ciphertext file (default stdout)")

    de = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    de.set_defaults(run=_cmd_decrypt)
    de.add_argument("--key", required=True, help="private key file")
    de.add_argument("--in", dest="infile", required=True, help="ciphertext file")

    fa = sub.add_parser("factor", help="factor n given psi(n)")
    fa.set_defaults(run=_cmd_factor)
    fa.add_argument("--n", type=_number(16), required=True, help="modulus (hex)")
    fa.add_argument("--psi", type=_number(16), required=True, help="psi(n) or a multiple below 2^(2|n|) (hex)")
    fa.add_argument("--trials", type=_number(10), default=200, help="budget of splitting trials (default 200)")
    fa.add_argument("--seed", type=_number(10), default=None)

    return parser


def _cmd_keygen(args):
    prime_bits = args.bits // sum(args.exponents)
    pub, priv = keygen(len(args.exponents), args.exponents, prime_bits, random.SystemRandom(), e=args.pub_exp)
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
    factors = full_factorization(args.n, args.psi, random.Random(args.seed), max_trials=args.trials)
    print(" * ".join(f"{p:x}^{e}" for p, e in factors))
    return 0


def dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for bad flags; map the latter to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (KeyFormatError, OSError, UnicodeDecodeError) as err:
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
