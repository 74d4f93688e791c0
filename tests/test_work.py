"""The one test of the work a clean round trip does: every kernel call, in order.

The recorder, calls, logs each call of scheme's point_pow (exponent,
modulus, whether it ran a chain), chebyshev (exponent, modulus),
PellParams (modulus) and lucas_chain (exponent), and of mod_inv in
scheme, pell and arith (modulus).  expected_work reads a key's plan rows
before a decryption and returns the calls it must make, so the paper's
claim that every power runs at the width of one prime is one list: per
prime p^k in the key's order, the decompression's inversion mod p^k
(compressed kind only), the row's chain build on its second use, the
curve mod p, the power mod p to d mod the order, chained from the row's
second use on, the root check's power to e mod the order and its y
inversion mod p, then one power to e mod p^(k-1) * order per Newton step
of the lift, mod min(u^3, p^k) from u = p on; nothing at CRT, nothing mod
N.  Encryption makes one inversion and one power to e, both mod N, and
compression one more inversion mod N.

Keys of five shapes over 64-bit primes = 3 mod 4 (conftest's keys) serve
it, each with three messages: one whose D is a residue mod every prime,
one a non-residue mod every prime, one mixed.  Each key runs as drawn and
with the least usable d above 2^20, whose e exceeds every p^(k-1) (p + 1),
so both of _root's reductions of e show.  A case encrypts its message
with one kind and decrypts it three times with a fresh copy of the key:
each row's first use, its chain build and its chain.  Each decryption
adds one use to the plan's own row for each prime and changes no other.
"""

import dataclasses
import math

import pytest

from pellrsa import arith, pell, scheme
from pellrsa.arith import jacobi
from pellrsa.scheme import (
    Ciphertext,
    Mode,
    PointCiphertext,
    PrivateKey,
    PublicKey,
    decrypt,
    decrypt_point,
    encrypt,
    encrypt_point,
    exponent_modulus,
    reduced_private_exponents,
)

SHAPES = ((1, 1, 1), (3, 1), (5, 1), (9, 1), (1, 1, 3))
SYMBOLS = {"residue": lambda i: 1, "non-residue": lambda i: -1, "mixed": lambda i: (-1) ** i}  # Jacobi(D, p) at prime i
ENCRYPT = {Ciphertext: encrypt, PointCiphertext: encrypt_point}
DECRYPT = {Ciphertext: decrypt, PointCiphertext: decrypt_point}


def wide_e(sk):
    """sk's primes with the least usable d above 2^20, whose e is about as wide as the exponent modulus."""
    lam = exponent_modulus(sk.factors, Mode.ROBUST)
    return PrivateKey(sk.factors, next(d for d in range(1 << 20 | 1, lam, 2) if math.gcd(d, lam) == 1), Mode.ROBUST)


VARIANTS = {"normal": dataclasses.replace, "wide-e": wide_e}  # each builds fresh plan rows


@pytest.fixture
def calls(monkeypatch):
    """The kernel calls made from here on, in order, each (name, *what the table compares)."""
    log = []

    def record(module, name, entry):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: log.append(entry(*a, **kw)) or original(*a, **kw))

    record(scheme, "point_pow", lambda x, k, pp, chain=None: ("point_pow", k, pp.modulus, chain is not None))
    record(scheme, "chebyshev", lambda x, k, n: ("chebyshev", k, n))
    record(scheme, "PellParams", lambda n, d: ("PellParams", n))
    record(scheme, "lucas_chain", lambda k: ("lucas_chain", k))
    for module in (scheme, pell, arith):
        record(module, "mod_inv", lambda a, n: ("mod_inv", n))
    return log


def expected_work(sk, ct):
    """The calls a clean decryption of ct with sk makes, read from its plan rows' state before it."""
    work = []
    for (p, k), by_order in zip(sk.factors.factors, sk.plan):
        q, order = p**k, p - jacobi(ct.d_coef, p)
        uses, d_i = by_order[order].uses, sk.d % order
        work += [("mod_inv", q)] * (type(ct) is Ciphertext) + [("lucas_chain", d_i)] * (uses == 1)
        work += [("PellParams", p), ("point_pow", d_i, p, uses >= 1), ("chebyshev", sk.e % order, p), ("mod_inv", p)]
        u = p
        while u < q:
            u = min(u**3, q)
            work.append(("chebyshev", sk.e % (p ** (k - 1) * order), u))
    return work


@pytest.mark.parametrize("kind", DECRYPT, ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("message", SYMBOLS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "".join(map(str, shape)))
def test_a_clean_round_trip_makes_exactly_its_expected_calls(keys, calls, shape, message, variant, kind):
    key = keys[shape, message]
    sk = VARIANTS[variant](key.sk)
    n, e = sk.n, sk.e
    assert all((e > p ** (k - 1) * (p + 1)) == (variant == "wide-e") for p, k in sk.factors.factors)
    calls.clear()
    ct = ENCRYPT[kind](PublicKey(n, e), key.msg)
    assert calls == [("mod_inv", n), ("chebyshev", e, n)] + [("mod_inv", n)] * (kind is Ciphertext)
    assert len(sk.garner) == len(shape) - 1  # built with the key, so CRT inverts nothing
    rows = [row for by_order in sk.plan for row in by_order.values()]
    for _ in ("first use", "chain build", "chained"):
        read = reduced_private_exponents(sk, ct.d_coef)
        assert all(row is sk.plan[i][row.order] for i, row in enumerate(read))
        before, work = [(row.uses, row.chain) for row in rows], expected_work(sk, ct)
        calls.clear()
        assert DECRYPT[kind](sk, ct) == key.msg
        assert calls == work
        for row, (uses, chain) in zip(rows, before):
            hit = any(row is r for r in read)
            assert row.uses == uses + hit
            assert row.chain.k == row.d_i if hit and uses == 1 else row.chain is chain
