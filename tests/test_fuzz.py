"""Fuzz the text loaders and the CLI with valid files and their mutations.

A loader returns or raises KeyFormatError, whatever the text; the CLI
exits with one of its documented codes 0-3, whatever the files.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pellrsa import cli
from pellrsa.errors import KeyFormatError
from pellrsa.keyfmt import (
    dump_ciphertext,
    dump_private_key,
    dump_public_key,
    load_ciphertext,
    load_private_key,
    load_public_key,
)
from pellrsa.scheme import encrypt, encrypt_point, keygen, random_message

LOADERS = [load_public_key, load_private_key, load_ciphertext]

# pieces a mutation writes into a file: hex-like text, arbitrary text, and
# values at the edges (0, -1, 1200-bit hex, a decimal str() refuses)
PIECES = st.one_of(
    st.text("0123456789abcdefx=^-+_ \n", max_size=8),
    st.text(max_size=4),
    st.sampled_from(["0", "1", "-1", "f" * 300, "9" * 4400]),
)

# a line holding one number, or a factor's prime and its exponent
NUMBER_LINE = re.compile(r"\w+=[0-9a-f]+(\^\d+)?")
OFFSETS = st.integers(-3, 3) | st.integers(-(2**80), 2**80)


@st.composite
def mutated(draw, text):
    """text with its lines shuffled, one number moved by a drawn offset (a
    factor's exponent redrawn), or one to three spans of up to 8
    characters replaced by pieces."""
    lines = text.splitlines()
    how = draw(st.sampled_from(["shuffle", "number", "spans"]))
    if how == "shuffle":
        return "\n".join(draw(st.permutations(lines)))
    if how == "number":
        i = draw(st.sampled_from([i for i, ln in enumerate(lines) if NUMBER_LINE.fullmatch(ln)]))
        key, _, value = lines[i].partition("=")
        base, hat, _ = value.partition("^")
        value = f"{int(base, 16) + draw(OFFSETS):x}"
        if hat:
            value += f"^{draw(st.integers(-1, 5))}"
        lines[i] = f"{key}={value}"
        return "\n".join(lines)
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, len(text)))
        b = draw(st.integers(a, min(len(text), a + 8)))
        text = text[:a] + draw(PIECES) + text[b:]
    return text


@pytest.fixture(scope="module")
def files():
    """Valid texts of a 64-bit key: public key, private key and both kinds
    of ciphertext, and a message to encrypt."""
    rng = random.Random(31)
    pub, priv = keygen(2, [1, 1], 32, rng)
    msg = random_message(pub, rng)
    texts = {
        "pub": dump_public_key(pub),
        "key": dump_private_key(priv),
        "param": dump_ciphertext(encrypt(pub, msg)),
        "point": dump_ciphertext(encrypt_point(pub, msg)),
    }
    return texts, msg


@settings(max_examples=300)
@given(data=st.data())
def test_loaders_return_or_raise_key_format_error(files, data):
    texts, _ = files
    text = data.draw(st.sampled_from(list(texts.values())).flatmap(mutated) | st.text())
    for load in LOADERS:
        try:
            load(text)
        except KeyFormatError:
            pass


@settings(max_examples=100)
@given(data=st.data())
def test_cli_on_mutated_files_exits_0_to_3(files, tmp_path_factory, data):
    texts, msg = files
    work = tmp_path_factory.mktemp("fuzz")
    paths = {name: work / name for name in texts}
    for name, path in paths.items():
        path.write_text(texts[name])
    name = data.draw(st.sampled_from(list(texts)))
    paths[name].write_bytes(data.draw(mutated(texts[name])).encode("utf-8", "surrogatepass"))
    if name == "pub":
        argv = ["encrypt", "--pub", str(paths["pub"]), "--mx", f"{msg.mx:x}", "--my", f"{msg.my:x}"]
        argv += ["--out", str(work / "out")] + (["--point"] if data.draw(st.booleans()) else [])
    else:
        ct = paths[name] if name != "key" else paths[data.draw(st.sampled_from(["param", "point"]))]
        argv = ["decrypt", "--key", str(paths["key"]), "--in", str(ct)]
    assert cli.dispatch(argv) in (0, 1, 2, 3)
