"""Line-oriented text serialization of keys and ciphertexts.

Numbers are read only as written: residues in lowercase hex, factor-line
exponents in decimal, ASCII with no sign, prefix, separator or leading zero.
Whitespace around lines and blank lines are ignored.  Formats:

    pellrsa-pub v1          pellrsa-priv v1         pellrsa-ct v1
    n=<hex>                 mode=<strict|robust>    kind=<param|point>
    e=<hex>                 d=<hex>                 d_coef=<hex>
                            factor=<p-hex>^<e-dec>  c=<hex>          (param)
                            ... (ascending p)       cx=<hex>
                                                    cy=<hex>         (point)
"""

from .arith import FactoredModulus
from .errors import KeyFormatError
from .scheme import Ciphertext, Mode, PointCiphertext, PrivateKey, PublicKey

PUBLIC_MAGIC = "pellrsa-pub v1"
PRIVATE_MAGIC = "pellrsa-priv v1"
CIPHERTEXT_MAGIC = "pellrsa-ct v1"


def _parse_lines(text, magic):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != magic:
        raise KeyFormatError(f"missing header {magic!r}")
    fields = []
    for ln in lines[1:]:
        key, sep, value = ln.partition("=")
        if not sep or not value:
            raise KeyFormatError(f"malformed line {ln!r}")
        fields.append((key, value))
    return fields


def _take(fields, expected):
    if not fields or fields[0][0] != expected:
        raise KeyFormatError(f"expected field {expected!r}")
    return fields.pop(0)[1]


def parse_number(value, field, base=16):
    """The n >= 0 written as `value`, which must be exactly format(n, "x"),
    or format(n, "d") for base 10; other text raises KeyFormatError."""
    try:
        n = int(value, base)
        if n >= 0 and format(n, "x" if base == 16 else "d") == value:
            return n
    except ValueError:
        pass
    raise KeyFormatError(f"field {field!r} is not a base-{base} number as pellrsa writes it")


def dump_public_key(pk):
    return f"{PUBLIC_MAGIC}\nn={pk.n:x}\ne={pk.e:x}\n"


def load_public_key(text):
    fields = _parse_lines(text, PUBLIC_MAGIC)
    n = parse_number(_take(fields, "n"), "n")
    e = parse_number(_take(fields, "e"), "e")
    if fields:
        raise KeyFormatError(f"unexpected trailing fields {fields}")
    try:
        return PublicKey(n, e)
    except ValueError as err:
        raise KeyFormatError(str(err)) from None


def dump_private_key(sk):
    lines = [PRIVATE_MAGIC, f"mode={sk.mode.value}", f"d={sk.d:x}"]
    lines += [f"factor={p:x}^{e}" for p, e in sk.factors.factors]
    return "\n".join(lines) + "\n"


def load_private_key(text):
    fields = _parse_lines(text, PRIVATE_MAGIC)
    mode = _take(fields, "mode")
    d = parse_number(_take(fields, "d"), "d")
    pairs = []
    for key, value in fields:
        if key != "factor":
            raise KeyFormatError(f"unexpected field {key!r}")
        base, _, exp = value.partition("^")
        pairs.append((parse_number(base, "factor"), parse_number(exp, "factor", 10)))
    if pairs != sorted(pairs):
        raise KeyFormatError("factor lines must list the primes in ascending order")
    try:
        return PrivateKey(FactoredModulus(pairs), d, Mode(mode))
    except ValueError as err:
        raise KeyFormatError(str(err)) from None


def dump_ciphertext(ct):
    if isinstance(ct, Ciphertext):
        body = f"kind=param\nd_coef={ct.d_coef:x}\nc={ct.c:x}"
    elif isinstance(ct, PointCiphertext):
        body = f"kind=point\nd_coef={ct.d_coef:x}\ncx={ct.cx:x}\ncy={ct.cy:x}"
    else:
        raise TypeError(f"not a ciphertext: {ct!r}")
    return f"{CIPHERTEXT_MAGIC}\n{body}\n"


def load_ciphertext(text):
    fields = _parse_lines(text, CIPHERTEXT_MAGIC)
    kind = _take(fields, "kind")
    d_coef = parse_number(_take(fields, "d_coef"), "d_coef")
    if kind == "param":
        c = parse_number(_take(fields, "c"), "c")
        ct = Ciphertext(c, d_coef)
    elif kind == "point":
        cx = parse_number(_take(fields, "cx"), "cx")
        cy = parse_number(_take(fields, "cy"), "cy")
        ct = PointCiphertext(cx, cy, d_coef)
    else:
        raise KeyFormatError(f"unknown ciphertext kind {kind!r}")
    if fields:
        raise KeyFormatError(f"unexpected trailing fields {fields}")
    return ct
