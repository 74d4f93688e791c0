"""Line-oriented text serialization of keys and ciphertexts.

All residues are lowercase hex without a 0x prefix; prime-power exponents
in factor lines are decimal.  Formats:

    pellrsa-pub v1          pellrsa-priv v1         pellrsa-ct v1
    n=<hex>                 mode=<strict|robust>    kind=<param|point>
    e=<hex>                 d=<hex>                 d_coef=<hex>
                            factor=<p-hex>^<e-dec>  c=<hex>          (param)
                            ...                     cx=<hex>
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


def _hex_int(value, field):
    try:
        return int(value, 16)
    except ValueError:
        raise KeyFormatError(f"field {field!r} is not hex") from None


def dump_public_key(pk):
    return f"{PUBLIC_MAGIC}\nn={pk.n:x}\ne={pk.e:x}\n"


def load_public_key(text):
    fields = _parse_lines(text, PUBLIC_MAGIC)
    n = _hex_int(_take(fields, "n"), "n")
    e = _hex_int(_take(fields, "e"), "e")
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
    d = _hex_int(_take(fields, "d"), "d")
    pairs = []
    for key, value in fields:
        if key != "factor":
            raise KeyFormatError(f"unexpected field {key!r}")
        base, sep, exp = value.partition("^")
        if not sep:
            raise KeyFormatError(f"malformed factor {value!r}")
        try:
            pairs.append((int(base, 16), int(exp, 10)))
        except ValueError:
            raise KeyFormatError(f"malformed factor {value!r}") from None
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
    d_coef = _hex_int(_take(fields, "d_coef"), "d_coef")
    if kind == "param":
        c = _hex_int(_take(fields, "c"), "c")
        ct = Ciphertext(c, d_coef)
    elif kind == "point":
        cx = _hex_int(_take(fields, "cx"), "cx")
        cy = _hex_int(_take(fields, "cy"), "cy")
        ct = PointCiphertext(cx, cy, d_coef)
    else:
        raise KeyFormatError(f"unknown ciphertext kind {kind!r}")
    if fields:
        raise KeyFormatError(f"unexpected trailing fields {fields}")
    return ct
