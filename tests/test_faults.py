"""The one test of decryption failures: one row per DecryptionFailure site in scheme.py.

TABLE is keyed by each site's message template, an f-string's fields read
as {}; a str row names the test that covers its site.  A row's cases build
a bad ciphertext, spliced by CRT mod one prime power into a clean one, or
inject a fault through monkeypatch, as hardware would flip a branch, a bit
of d_i, a ladder's output, a lift's power or the key's d.  Keys of shapes (1,1,1), (3,1)
and (5,1) over 64-bit primes = 3 mod 4 (conftest's keys) serve them,
each with one message whose D is a residue mod every prime, run on the
p - 1 rows, where sqrt(D) = D^((p + 1)/4) mod p, and one whose D is a
non-residue, run on the p + 1 rows.  A case runs per message and ciphertext kind it takes, per
prime whose exponent its `at` names (once, if None), and per use:
"first-use" decrypts with a fresh dataclasses.replace of the key, its rows
running the binary ladder, "chained" with the warmed key, running their
Lucas chains.  Each run must raise exactly DecryptionFailure, no subclass,
with the whole message, count one use per prime whose root it took on the
plan's own rows, keep every chain, and leave the clean ciphertext
decrypting to the message: no fault leaves state.
"""

import ast
import dataclasses
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from pellrsa import scheme
from pellrsa.arith import jacobi, mod_inv
from pellrsa.errors import DecryptionFailure
from pellrsa.pell import chebyshev, lucas_chain, param_to_point
from pellrsa.scheme import Ciphertext, PointCiphertext, decrypt, decrypt_point, reduced_private_exponents
from oracles import crt, on_curve

STAGES = ("plan", "decompression", "curve", "ladder", "verify", "crt")
SHAPES = ((1, 1, 1), (3, 1), (5, 1))
KINDS = (Ciphertext, PointCiphertext)
SYMBOLS = {"residue": lambda i: 1, "non-residue": lambda i: -1}  # Jacobi(D, p) at prime i, for conftest's keys
DECRYPT = {Ciphertext: decrypt, PointCiphertext: decrypt_point}
OTHER = {Ciphertext: PointCiphertext, PointCiphertext: Ciphertext}


class Run(NamedTuple):
    """One case's mp to patch through, key, the key sk it decrypts with, kind,
    prime index i, that prime p and q = p^k (all None at no prime) and clean ct."""

    mp: pytest.MonkeyPatch
    key: tuple  # conftest's Key
    sk: scheme.PrivateKey
    kind: type
    i: int
    p: int
    q: int
    ct: object

    def splice(self, **values):
        """The clean ciphertext with each field in values put in its place mod q, the rest kept."""
        ct, q = self.ct, self.q
        return dataclasses.replace(ct, **{f: crt([v, getattr(ct, f)], [q, self.sk.n // q]) for f, v in values.items()})


# ---- bad inputs ----

def shifted(field, sign):
    # each used to decrypt, to the message or, for -c, to (mx, N - my)
    return lambda t: dataclasses.replace(t.ct, **{field: getattr(t.ct, field) + sign * t.sk.n})


def c_is_sqrt_d(t):
    # for p = 3 mod 4 and D a residue mod p, s = D^((p + 1)/4) has s^2 = D
    # mod p, so c = s mod p^k makes c^2 - D no unit mod that prime power alone
    s = pow(t.ct.d_coef, (t.p + 1) // 4, t.p)
    assert (s * s - t.ct.d_coef) % t.p == 0
    return t.splice(c=s)


def cx_plus_1(t):
    # the point was checked on the curve mod N, which named no prime
    bad = t.splice(cx=t.ct.cx + 1)
    assert not on_curve(bad.cx, bad.cy, bad.d_coef, t.q)
    return bad


def point_to_its_order(t):
    # c^(p - (D/p)) is (1, 0) mod p, and mod p^k, k > 1, y is 0 mod p only;
    # with the clean ciphertext mod the rest, it is on the curve mod N and no message
    x, u = chebyshev(t.ct.cx, t.p - jacobi(t.ct.d_coef, t.p), t.q)
    y = t.ct.cy * u % t.q
    assert y % t.p == 0 and (y != 0) == (t.q > t.p)
    bad = t.splice(cx=x, cy=y)
    assert on_curve(bad.cx, bad.cy, bad.d_coef, t.sk.n)
    return bad


def x_is_0(t):
    # (0, y) with D = -1/y^2 mod p^k lies on the curve there, and c with
    # D = -c^2 decompresses to (0, 1/c); the root to an odd e has x = 0 too,
    # so the root check and the lift pass, and only the CRT stage sees that
    # the recovered mx = 0 mod p is no unit
    if t.kind is PointCiphertext:
        return t.splice(cx=0, d_coef=-mod_inv(t.ct.cy**2, t.q))
    bad = t.splice(d_coef=-t.ct.c**2)
    assert param_to_point(bad.c, t.q, bad.d_coef % t.q)[0] == 0
    return bad


# ---- faults: each patches through t.mp and returns None, so the clean ciphertext is decrypted ----

def on_result(name, change):
    """The fault that makes scheme.<name>'s result r for the arguments a change(t, a, r)."""
    def inject(t):
        original = getattr(scheme, name)
        t.mp.setattr(scheme, name, lambda *a, **kw: change(t, a, original(*a, **kw)))
    return inject


# the Legendre symbol of D mod p, jacobi(D, p), picks the other group order
branch = on_result("jacobi", lambda t, a, symbol: -symbol if a[1] == t.p else symbol)
# copies of the rows: the plan's own keep their d_i, uses and chain, and a
# chained row's copy keeps its chain for the true d_i
d_bit = on_result("reduced_private_exponents", lambda t, a, rows: [
    dataclasses.replace(row, d_i=row.d_i ^ (1 << 40)) if row.p == t.p else row for row in rows
])
shifted_result = on_result("crt_combine", lambda t, a, m: (m[0] + 1, m[1]))


def ladder_output(corrupt):
    # corrupt(x) for point_pow(x, k, pp)'s x mod p
    return on_result("point_pow", lambda t, a, x: corrupt(x) % t.p if a[2].modulus == t.p else x)


def lift_x(last_only):
    # x + p in chebyshev(x, e, n), the lift's power to e mod each n = p^j, j > 1, or mod p^k alone
    hit = (lambda t, n: n == t.q) if last_only else (lambda t, n: n != t.p and t.q % n == 0)
    return on_result("chebyshev", lambda t, a, r: ((r[0] + t.p) % a[2], r[1]) if hit(t, a[2]) else r)


def chain_for_d_plus_2(t):
    # a proved chain, but for d_i + 2: point_pow would run it, were it not refused
    for row in t.sk.plan[t.i].values():
        if row.chain:
            chain = lucas_chain(row.d_i + 2)
            assert chain.proved_index() == row.d_i + 2
            t.mp.setattr(row, "chain", chain)


def corrupted_chain_op(t):
    # one op's first operand moved to the register before it: no longer
    # proved, it still claims d_i, so point_pow runs it and only the root
    # check can tell its x is no root
    for row in t.sk.plan[t.i].values():
        if row.chain:
            ops, j = row.chain.ops, len(row.chain.ops) // 2
            bad = row.chain._replace(ops=ops[:j] + ((ops[j][0] - 1, *ops[j][1:]),) + ops[j + 1 :])
            with pytest.raises(ValueError):
                bad.proved_index()
            t.mp.setattr(row, "chain", bad)


def kernel_power(t):
    # raising the lift's power mod p^k to e + order multiplies it by
    # m'^order, which is 1 mod p and on the curve
    order, power = t.p - jacobi(t.ct.d_coef % t.p, t.p), scheme.chebyshev
    t.mp.setattr(scheme, "chebyshev", lambda x, e, n: power(x, e + order if n == t.q else e, n))


def garner_plus_1(t):
    # a coefficient off by one used to fail only the curve check after CRT
    t.mp.setitem(vars(t.sk), "garner", tuple(c + 1 for c in t.sk.garner))


def d_plus_1(t):
    # only the lift's Newton update reads sk.d whole; the plan's d_i are kept
    t.mp.setitem(vars(t.sk), "d", t.sk.d + 1)


# ---- the table ----

GAP = pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
    "the Hensel lift's verification gap, a FOUND line in CHANGES.md: the lift checks only that its power to e "
    "lies on the curve, which a kernel element keeps, and nothing checks the root its last Newton update returns"))
FIRST, CHAINED = ("first-use",), ("chained",)
POINT, COMPRESSED = (PointCiphertext,), (Ciphertext,)


class Case(NamedTuple):
    name: str
    bad: Callable  # (Run) -> the ciphertext decrypted, or None for the clean one
    kinds: tuple = KINDS
    residues: tuple = tuple(SYMBOLS)
    uses: tuple = FIRST + CHAINED
    at: tuple = (1, 3, 5)  # the exponents k of the primes it runs at; None: once, at no prime
    call: Callable = None  # (sk, ct) -> the call that raises; None: the kind's decryption
    marks: tuple = ()


class Row(NamedTuple):
    cases: tuple
    fields: Callable  # (Run) -> the template's fields; str.format ignores those it has no {} for


def row(*cases, fields=lambda t: (t.i,)):
    return Row(cases, fields)


TABLE = {
    "plan: D must be an int": "tests/test_contract.py's row scheme.reduced_private_exponents puts each non-int at D",
    # a wrong key or a non-ciphertext: the object paths of decrypt and decrypt_point in tests/test_contract.py;
    # the other kind used to raise a bare AttributeError from reading the missing field
    "plan: expected a {}, got a {}": row(
        Case("other-kind", lambda t: t.key.cts[OTHER[t.kind]], at=None),
        fields=lambda t: (t.kind.__name__, OTHER[t.kind].__name__),
    ),
    "plan: ciphertext fields must be ints in [0, N)": row(*(
        Case(f"{field}{'+-'[sign < 0]}n", shifted(field, sign), at=None,
             kinds=tuple(kind for kind in KINDS if field in kind.__dataclass_fields__))
        for field in ("c", "cx", "cy", "d_coef") for sign in (1, -1)
    )),
    # Jacobi(D, p) = 0 gives the order p, which no key covers; a robust key
    # used to plan it as p - 1, and D = 0 mod p alone used to fail as "no
    # unit mod N", naming no prime
    "plan: the {} key covers no group order of D mod prime {}": row(
        Case("d-is-p", lambda t: t.splice(d_coef=t.p)),
        Case("plan-of-d-is-0", lambda t: t.splice(d_coef=0), kinds=COMPRESSED,
             call=lambda sk, ct: reduced_private_exponents(sk, ct.d_coef)),
        fields=lambda t: (t.sk.mode.value, t.i),
    ),
    "decompression: c^2 - D is no unit mod prime {}": row(
        Case("c-is-sqrt-d", c_is_sqrt_d, kinds=COMPRESSED, residues=("residue",)),
    ),
    "curve: the ciphertext point is off the curve mod prime {}": row(Case("cx-plus-1", cx_plus_1, kinds=POINT)),
    "ladder: the ciphertext has y = 0 mod prime {}": row(
        # (+-1, 0) lie on every curve and are their own powers; their y = 0
        # is no unit, so that prime's ladder refuses them
        Case("point-1-0", lambda t: t.splice(cx=1, cy=0), kinds=POINT),
        Case("point-minus-1-0", lambda t: t.splice(cx=-1, cy=0), kinds=POINT),
        # c = 0 mod p^k decompresses to (-1, 0) mod p^k, which decrypts to itself
        Case("c-is-0", lambda t: t.splice(c=0), kinds=COMPRESSED),
        Case("point-to-its-order", point_to_its_order, kinds=POINT),
    ),
    "verify: the row's chain raises to another exponent than d_i mod prime {}": row(
        Case("chain-for-d-plus-2", chain_for_d_plus_2, uses=CHAINED),
        Case("d_bit", d_bit, uses=CHAINED),
    ),
    # a wrong root mod p still lies on the curve mod p, so it used to come
    # back as a wrong plaintext m' with gcd(m' - m, N) a multiple of the
    # other primes: the Bellcore attack on CRT decryption
    "verify: the root's e-th power is not the ciphertext mod prime {}": row(
        Case("branch", branch),
        Case("ladder_x", ladder_output(lambda x: x + 1)),
        Case("x_is_1", ladder_output(lambda x: 1)),
        Case("x_is_minus_1", ladder_output(lambda x: -1)),
        Case("d_bit", d_bit, uses=FIRST),
        Case("corrupted-chain-op", corrupted_chain_op, uses=CHAINED),
    ),
    # a wrong lift power mod p^3 used to give a wrong plaintext with
    # gcd(m' - m, N) a multiple of p; at k = 5 the second Newton step's
    # power alone is off too
    "verify: the lifted root's e-th power is off the curve mod prime {}": row(
        Case("lift_x", lift_x(False), at=(3, 5)),
        Case("lift_x-at-p5", lift_x(True), at=(5,)),
        Case("kernel-at-p3", kernel_power, at=(3,), marks=(GAP,)),
        # a wrong d at p^3 puts the one Newton update's root off, and nothing checks it after
        Case("d-plus-1-at-p3", d_plus_1, at=(3,), marks=(GAP,)),
    ),
    "crt: the key's Garner coefficients do not invert its moduli": row(Case("garner-plus-1", garner_plus_1, at=None)),
    "crt: the recovered point is not on the curve": row(
        Case("shifted-result", shifted_result, at=None),
        # at p^5 the faulty power leaves y_E = 0 mod p only, not mod p^3, so
        # the update, exact only for y_E = 0 mod the step's u, puts the root
        # off the curve by D^2 t^4/4: the gap ends at k = 5, where CRT sees it
        Case("kernel-at-p5", kernel_power, at=(5,)),
        # at p^5 both Newton updates read the wrong d, and the root they leave is off the curve
        Case("d-plus-1-at-p5", d_plus_1, at=(5,)),
    ),
    "crt: the recovered point is not a message: a coordinate is not a unit": row(Case("x-is-0", x_is_0)),
}
CASES = [
    pytest.param(template, case, shape, residue, kind, use, i, marks=case.marks,
                 id=f"{case.name}-{''.join(map(str, shape))}{'' if i is None else f'-prime{i}'}-{residue}-{kind.__name__}-{use}")
    for template, entry in TABLE.items() if not isinstance(entry, str)
    for case in entry.cases
    for shape in SHAPES
    for residue in case.residues
    for kind in case.kinds
    for use in case.uses
    for i in ([None] if case.at is None else [i for i, k in enumerate(shape) if k in case.at])
]


@pytest.mark.parametrize("template, case, shape, residue, kind, use, i", CASES)
def test_each_failure_raises_its_sites_whole_message_and_leaves_no_state(
    keys, monkeypatch, template, case, shape, residue, kind, use, i
):
    key = keys[shape, residue]
    sk = dataclasses.replace(key.sk) if use == "first-use" else key.sk
    def plan_state():  # per prime, the total uses of its rows and their chains
        return [(sum(row.uses for row in by_order.values()), [row.chain for row in by_order.values()]) for by_order in sk.plan]
    rows = reduced_private_exponents(sk, key.cts[kind].d_coef)
    assert [row.p - row.order for row in rows] == [SYMBOLS[residue](j) for j in range(len(rows))]
    assert all(row.uses == 0 if use == "first-use" else row.chain for row in rows)
    before = plan_state()
    with monkeypatch.context() as mp:
        p, k = (None, None) if i is None else sk.factors.factors[i]
        t = Run(mp, key, sk, kind, i, p, None if i is None else p**k, key.cts[kind])
        message = template.format(*TABLE[template].fields(t))
        bad = case.bad(t) or t.ct
        with pytest.raises(DecryptionFailure, match=f"^{re.escape(message)}$") as caught:
            (case.call or DECRYPT[kind])(sk, bad)
    assert type(caught.value) is DecryptionFailure
    # the roots of the primes before i were taken, i's too from the stage
    # verify on, unless through d_bit's copies, and every prime's at CRT
    stage = template.partition(":")[0]
    taken = 0 if stage == "plan" else len(rows) if stage == "crt" else i + (stage == "verify" and case.bad is not d_bit)
    assert plan_state() == [(uses + (j < taken), chains) for j, (uses, chains) in enumerate(before)]
    assert DECRYPT[kind](sk, key.cts[kind]) == key.msg


def failure_templates(source):
    """The message template of each DecryptionFailure(...) call in a source,
    an f-string's fields read as {}; None for a message that is no literal."""
    templates = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "DecryptionFailure":
            msg = node.args[0] if node.args else None
            if isinstance(msg, ast.JoinedStr):
                templates.append("".join(v.value if isinstance(v, ast.Constant) else "{}" for v in msg.values))
            else:
                templates.append(msg.value if isinstance(msg, ast.Constant) and isinstance(msg.value, str) else None)
    return templates


def test_failure_templates_are_found():
    source = (
        "DecryptionFailure('plan: x')\nraise DecryptionFailure(f'crt: {x} at {i}') from None\n"
        "DecryptionFailure(s)\nDecryptionFailure()\nValueError('x')\n"
    )
    assert failure_templates(source) == ["plan: x", "crt: {} at {}", None, None]


def test_every_site_has_one_row_and_every_row_one_site():
    templates = failure_templates(Path(scheme.__file__).read_text())
    assert None not in templates and len(set(templates)) == len(templates)
    assert sorted(templates) == sorted(TABLE)
    assert {c.values[0] for c in CASES} == {t for t, entry in TABLE.items() if not isinstance(entry, str)}
    # each starts with its stage and a colon, and every stage has a site
    assert {template.partition(": ")[0] for template in templates} == set(STAGES)
