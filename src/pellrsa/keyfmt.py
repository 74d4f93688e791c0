"""Line-oriented text serialization of keys and ciphertexts.

Numbers are read only as written: residues in lowercase hex, factor-line
exponents in decimal, ASCII with no sign, prefix, separator or leading zero.
A loader accepts a text only if the matching dump writes it back, up to
whitespace around lines and blank lines, so the dump alone fixes the
header, the field order, repeats and the order of the factors.  Formats:

    pellrsa-pub v1          pellrsa-priv v1         pellrsa-ct v1
    n=<hex>                 mode=<strict|robust>    kind=<param|point>
    e=<hex>                 d=<hex>                 d_coef=<hex>
                            factor=<p-hex>^<e-dec>  c=<hex>          (param)
                            ... (ascending p)       cx=<hex>
                                                    cy=<hex>         (point)
"""

from .arith import FactoredModulus, _expect, _ints
from .errors import KeyFormatError
from .scheme import Ciphertext, Mode, PointCiphertext, PrivateKey, PublicKey

PUBLIC_MAGIC = "pellrsa-pub v1"
PRIVATE_MAGIC = "pellrsa-priv v1"
CIPHERTEXT_MAGIC = "pellrsa-ct v1"


def _load(text, dump, build):
    """build(fields), where fields maps each key of text's key=value lines to
    its values in file order, if dump writes the result back as text; any
    other text or non-str, and a KeyError or ValueError from build, raise KeyFormatError."""
    if not isinstance(text, str):
        raise KeyFormatError("a key or ciphertext text must be a str")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    fields = {}
    for key, _, value in (ln.partition("=") for ln in lines):
        fields.setdefault(key, []).append(value)
    try:
        obj = build(fields)
    except KeyError as err:
        raise KeyFormatError(f"missing field {err}") from None
    except ValueError as err:
        raise KeyFormatError(str(err)) from None
    # a dump writes stripped lines and no blank ones
    if dump(obj).splitlines() != lines:
        raise KeyFormatError("the text is not what pellrsa writes for its content")
    return obj


def parse_number(value, field, base=16):
    """The n >= 0 written as `value`, exactly format(n, "x"), or format(n, "d")
    for base 10 (any other base raises ValueError); other text or a non-str KeyFormatError."""
    if not _ints(base) or base not in (16, 10):
        raise ValueError("base must be 16 or 10")
    try:
        n = int(value, base)
        if n >= 0 and format(n, "x" if base == 16 else "d") == value:
            return n
    except (TypeError, ValueError):
        pass
    raise KeyFormatError(f"field {field!r} is not a base-{base} number as pellrsa writes it")


def dump_public_key(pk):
    return f"{PUBLIC_MAGIC}\nn={_expect(pk, PublicKey).n:x}\ne={pk.e:x}\n"


def load_public_key(text):
    return _load(text, dump_public_key, lambda f: PublicKey(parse_number(f["n"][0], "n"), parse_number(f["e"][0], "e")))


def dump_private_key(sk):
    lines = [PRIVATE_MAGIC, f"mode={_expect(sk, PrivateKey).mode.value}", f"d={sk.d:x}"]
    lines += [f"factor={p:x}^{e}" for p, e in sk.factors.factors]
    return "\n".join(lines) + "\n"


def _private_key(fields):
    mode, d = Mode(fields["mode"][0]), parse_number(fields["d"][0], "d")
    pairs = [value.partition("^")[::2] for value in fields["factor"]]
    factors = FactoredModulus((parse_number(p, "factor"), parse_number(k, "factor", 10)) for p, k in pairs)
    return PrivateKey(factors, d, mode)


def load_private_key(text):
    return _load(text, dump_private_key, _private_key)


def dump_ciphertext(ct):
    if type(_expect(ct, Ciphertext, PointCiphertext)) is Ciphertext:
        body = f"kind=param\nd_coef={ct.d_coef:x}\nc={ct.c:x}"
    else:
        body = f"kind=point\nd_coef={ct.d_coef:x}\ncx={ct.cx:x}\ncy={ct.cy:x}"
    return f"{CIPHERTEXT_MAGIC}\n{body}\n"


def _ciphertext(fields):
    d_coef = parse_number(fields["d_coef"][0], "d_coef")
    if fields["kind"][0] == "param":
        return Ciphertext(parse_number(fields["c"][0], "c"), d_coef)
    return PointCiphertext(parse_number(fields["cx"][0], "cx"), parse_number(fields["cy"][0], "cy"), d_coef)


def load_ciphertext(text):
    return _load(text, dump_ciphertext, _ciphertext)
