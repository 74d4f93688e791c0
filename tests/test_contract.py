"""The one test of argument refusals over the public API, one row per public callable.

arith's module docstring states the rules: an int argument is an int and
no bool, and an int subclass counts as its value; an object or sequence
argument has one of the exact types the function names.  CALLS gives every
public callable of arith, pell, scheme, attacks and keyfmt a valid example
call and the paths of its int, object and text arguments; a path is a
positional index or a keyword, then indices into nested lists and tuples.

The test puts 2.0, None, True, "7", b"7" and 7 + 0j at each int path; None,
7 and a wrong package object (a PrivateKey where a PublicKey goes, else a
PublicKey) at each object path (a key, a ciphertext, a message, a FactoredModulus, a
PellParams, a chain, a mode, a list or tuple of ints or pairs); and None, 7
and the example text as bytes at each text path (parse_number's value, the
loaders' text).  None is not tried where it is the parameter's default, as
e=None and chain=None are.  Each refusal raises exactly one class, no
subclass, with one whole message, written as the library raises it:
- an int or a text path raises the row's `refuses`;
- an object path raises arith._expect's ValueError("expected a {C}, got a
  {T}"), where {T} is the refused value's type and {C} any class names;
  decrypt and decrypt_point raise it as a DecryptionFailure after "plan: ";
- a row's `at` gives a path its own: e's BadExponentChoice, a msg's
  MessageNotEncryptable, the shape message of what is no pair or residue tuple.
Every refused call gets an rng that fails the test when touched
(oracles.NoDraws), so each refusal comes before any draw.  An int subclass
at an int path must give the example's result.

A row exempts only rng arguments, which any object with getrandbits or
randrange serves, and parse_number's `field` label.  A record
(MessagePair, Ciphertext, PointCiphertext) checks nothing when built: its
row calls the scheme function that takes it.  A str row exempts a whole
callable and says why.
"""

import inspect
import random
import re
from typing import NamedTuple

import pytest

from pellrsa import arith, attacks, keyfmt, pell, scheme
from pellrsa.errors import BadExponentChoice, DecryptionFailure, KeyFormatError, MessageNotEncryptable
from oracles import NoDraws

MODULES = (arith, pell, scheme, attacks, keyfmt)
NON_INTS = (2.0, None, True, "7", b"7", 7 + 0j)
RNG = object()  # stands for random.Random(1) in an example call and NoDraws() in a refused one

EXPECTED = ValueError("expected a {C}, got a {T}")
PLAN_EXPECTED = DecryptionFailure("plan: expected a {C}, got a {T}")
MESSAGE_FIELDS = MessageNotEncryptable("mx and my must be ints in [0, N)")
CIPHERTEXT_FIELDS = DecryptionFailure("plan: ciphertext fields must be ints in [0, N)")
E_UNUSABLE = BadExponentChoice("e unusable (gcd with exponent modulus != 1, e = 1 mod it, e < 3 odd, or too wide)")
FACTOR_INTS = ValueError("primes and exponents must be ints")
FACTOR_PAIRS = ValueError("factors must be (prime, exponent) pairs")
RESIDUE_ROWS = ValueError("residues must be int tuples of one length, moduli ints >= 2")
GARNER = ValueError("coefficients must be crt_coefficients(moduli)")
EXPONENT = ValueError("exponent must be an int >= 1")
TEXT = KeyFormatError("a key or ciphertext text must be a str")


class Int(int):
    """An int subclass: every int argument takes it as its value."""


class Mark(NamedTuple):
    kind: str  # "int", "obj" or "text"
    path: tuple
    refusal: Exception


class Call(NamedTuple):
    fn: object
    args: tuple
    kwargs: dict
    marks: tuple
    exempt: tuple  # the parameters that take none of the three


def call(fn, *args, ints=(), objs=(), texts=(), refuses=None, at=None, exempt=(), **kwargs):
    """A row: an int or text path raises `refuses`, an object path EXPECTED, a path in `at` its own."""

    def path(mark):
        return mark if isinstance(mark, tuple) else (mark,)

    own = {path(mark): refusal for mark, refusal in (at or {}).items()}
    marks = tuple(
        Mark(kind, path(mark), own.pop(path(mark), default))
        for kind, group, default in (("int", ints, refuses), ("obj", objs, EXPECTED), ("text", texts, refuses))
        for mark in group
    )
    assert not own, f"at names paths the row does not mark: {own}"
    return Call(fn, args, kwargs, marks, exempt)


PK, SK = scheme.keypair_from_primes([1009, 1013], [1, 1])
MSG = scheme.random_message(PK, random.Random(1))
CT, PCT = scheme.encrypt(PK, MSG), scheme.encrypt_point(PK, MSG)
PP = pell.PellParams(101, 2)
LEAVES = "paper-definition code, which leaves the library with PellParams; the benchmark still reads it"

CALLS = {
    "arith.mod_inv": call(arith.mod_inv, 16, 35, ints=(0, 1), refuses=ValueError("need ints: a and a modulus >= 2")),
    "arith.jacobi": call(
        arith.jacobi, 2, 35, ints=(0, 1), refuses=ValueError("jacobi symbol needs ints: a and an odd modulus >= 3")
    ),
    "arith.crt_coefficients": call(
        arith.crt_coefficients, [5, 7, 9], ints=((0, 0), (0, 1), (0, 2)), objs=(0,),
        refuses=ValueError("need at least one modulus, each an int >= 2"),
    ),
    "arith.crt_combine": call(
        arith.crt_combine, [(2, 1), (3, 0)], [5, 7], (3,),
        ints=((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0), (1, 1), (2, 0)), objs=(0, (0, 0), (0, 1), 1, 2),
        refuses=RESIDUE_ROWS, at={(0, 0): RESIDUE_ROWS, (0, 1): RESIDUE_ROWS, (2, 0): GARNER},
    ),
    "arith.lucas_v": call(
        arith.lucas_v, 3, 5, 101, ints=(0, 1, 2), refuses=ValueError("lucas_v needs ints: k >= 0 and m >= 2")
    ),
    "arith.is_probable_prime": call(
        arith.is_probable_prime, 1009, ints=(0,), refuses=ValueError("is_probable_prime needs an int")
    ),
    "arith.gen_prime": call(
        arith.gen_prime, 16, RNG, ints=(0,), refuses=ValueError("bits must be an int >= 8"), exempt=("rng",)
    ),
    "arith.FactoredModulus": call(
        arith.FactoredModulus, [(5, 1), (7, 1)], ints=((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)),
        objs=(0, (0, 0), (0, 1)), refuses=FACTOR_INTS, at={0: FACTOR_PAIRS, (0, 0): FACTOR_PAIRS, (0, 1): FACTOR_PAIRS},
    ),
    "pell.PellParams": call(
        pell.PellParams, 101, 2, ints=(0, 1), refuses=ValueError("need ints: a modulus >= 2 and a coefficient")
    ),
    "pell.param_mul": LEAVES,
    "pell.param_pow": LEAVES,
    "pell.redei_eval": call(
        pell.redei_eval, 18, 9, 3, 35, ints=(0, 1, 2, 3),
        refuses=ValueError("need ints: d, z, an exponent >= 1 and a modulus >= 2"),
    ),
    "pell.redei_pow": LEAVES,
    "pell.psi": LEAVES,
    "pell.point_pow": call(
        pell.point_pow, 3, 5, PP, ints=(0, 1), objs=(2, "chain"),
        refuses=ValueError("need ints: x and an exponent >= 0"),
    ),
    "pell.LucasChain": "a record that lucas_chain builds; point_pow refuses a chain built for another exponent",
    "pell.LucasChain.run": call(
        pell.lucas_chain(1000003).run, 3, 101, ints=(0, 1), refuses=ValueError("v and m must be ints, m >= 2")
    ),
    "pell.lucas_chain": call(pell.lucas_chain, 1000003, ints=(0,), refuses=EXPONENT),
    "pell.chebyshev": call(
        pell.chebyshev, 2, 3, 1000, ints=(0, 1, 2), refuses=ValueError("need ints: exponent >= 1 and modulus >= 2")
    ),
    "pell.ladder_cost": call(pell.ladder_cost, 5, ints=(0,), refuses=EXPONENT),
    "pell.point_to_param": call(
        pell.point_to_param, 2, 1, 35, ints=(0, 1, 2), refuses=ValueError("need ints: x, y and a modulus >= 2")
    ),
    "pell.param_to_point": call(
        pell.param_to_point, 3, 35, 18, ints=(0, 1, 2),
        refuses=ValueError("need an int or INFINITY m, and ints: n >= 2 and d"),
    ),
    "scheme.Mode": "an Enum of str values",
    "scheme.PublicKey": call(
        scheme.PublicKey, PK.n, PK.e, ints=(0, 1),
        refuses=ValueError("public key needs ints: an odd n >= 3 and an odd e >= 3"),
    ),
    "scheme.PrivateKey": call(
        scheme.PrivateKey, SK.factors, SK.d, scheme.Mode.ROBUST, ints=(1,), objs=(0, 2),
        refuses=ValueError("d must be an int"),
    ),
    "scheme.PlanRow": "a record that PrivateKey builds from its own checked d",
    "scheme.MessagePair": call(lambda mx, my: scheme.encrypt_point(PK, scheme.MessagePair(mx, my)),
                               MSG.mx, MSG.my, ints=(0, 1), refuses=MESSAGE_FIELDS),
    "scheme.Ciphertext": call(lambda c, d_coef: scheme.decrypt(SK, scheme.Ciphertext(c, d_coef)),
                              CT.c, CT.d_coef, ints=(0, 1), refuses=CIPHERTEXT_FIELDS),
    "scheme.PointCiphertext": call(
        lambda cx, cy, d_coef: scheme.decrypt_point(SK, scheme.PointCiphertext(cx, cy, d_coef)),
        PCT.cx, PCT.cy, PCT.d_coef, ints=(0, 1, 2), refuses=CIPHERTEXT_FIELDS,
    ),
    "scheme.exponent_modulus": call(scheme.exponent_modulus, SK.factors, scheme.Mode.ROBUST, objs=(0, 1)),
    "scheme.keypair_from_primes": call(
        scheme.keypair_from_primes, [1009, 1013], [1, 1], e=PK.e,
        ints=((0, 0), (0, 1), (1, 0), (1, 1), "e"), objs=(0, 1, "mode"), refuses=FACTOR_INTS, at={"e": E_UNUSABLE},
    ),
    "scheme.keygen": call(
        scheme.keygen, 2, [1, 1], 16, RNG, e=65537, ints=(0, (1, 0), (1, 1), 2, "e"), objs=(1, "mode"),
        refuses=ValueError("need ints: r >= 2 primes, prime_bits and one odd exponent >= 1 for each"),
        at={"e": E_UNUSABLE}, exempt=("rng",),
    ),
    "scheme.validate_message": call(scheme.validate_message, PK, MSG, objs=(0, 1, "mode"), at={1: MESSAGE_FIELDS}),
    "scheme.encrypt": call(scheme.encrypt, PK, MSG, objs=(0, 1, "mode"), at={1: MESSAGE_FIELDS}),
    "scheme.encrypt_point": call(scheme.encrypt_point, PK, MSG, objs=(0, 1, "mode"), at={1: MESSAGE_FIELDS}),
    "scheme.reduced_private_exponents": call(
        scheme.reduced_private_exponents, SK, CT.d_coef, ints=(1,), objs=(0,),
        refuses=DecryptionFailure("plan: D must be an int"),
    ),
    "scheme.decrypt": call(scheme.decrypt, SK, CT, objs=(0, 1), at={0: PLAN_EXPECTED, 1: PLAN_EXPECTED}),
    "scheme.decrypt_point": call(scheme.decrypt_point, SK, PCT, objs=(0, 1), at={0: PLAN_EXPECTED, 1: PLAN_EXPECTED}),
    "scheme.random_message": call(scheme.random_message, PK, RNG, objs=(0, "mode"), exempt=("rng",)),
    "attacks.find_factor": call(
        attacks.find_factor, 35, 48, 3, ints=(0, 1, 2), refuses=ValueError("need ints: n, x and psi_n >= 1")
    ),
    "attacks.full_factorization": call(
        attacks.full_factorization, 35, 48, RNG, max_trials=200, ints=(0, 1, "max_trials"), exempt=("rng",),
        refuses=ValueError("n must lie in [1, 2^16384), psi_n in [1, 2^(2|n|)) and max_trials in [0, inf)"),
    ),
    "keyfmt.parse_number": call(
        keyfmt.parse_number, "ff", "n", 16, ints=(2,), texts=(0,), refuses=ValueError("base must be 16 or 10"),
        at={0: KeyFormatError("field 'n' is not a base-16 number as pellrsa writes it")}, exempt=("field",),
    ),
    "keyfmt.dump_public_key": call(keyfmt.dump_public_key, PK, objs=(0,)),
    "keyfmt.load_public_key": call(keyfmt.load_public_key, keyfmt.dump_public_key(PK), texts=(0,), refuses=TEXT),
    "keyfmt.dump_private_key": call(keyfmt.dump_private_key, SK, objs=(0,)),
    "keyfmt.load_private_key": call(keyfmt.load_private_key, keyfmt.dump_private_key(SK), texts=(0,), refuses=TEXT),
    "keyfmt.dump_ciphertext": call(keyfmt.dump_ciphertext, CT, objs=(0,)),
    "keyfmt.load_ciphertext": call(keyfmt.load_ciphertext, keyfmt.dump_ciphertext(CT), texts=(0,), refuses=TEXT),
}
ROWS = {name: row for name, row in CALLS.items() if isinstance(row, Call)}


def public_callables():
    """module.name of each public class and function a module defines."""
    return sorted(
        f"{module.__name__.rpartition('.')[2]}.{name}"
        for module in MODULES
        for name, value in vars(module).items()
        if not name.startswith("_") and callable(value) and getattr(value, "__module__", None) == module.__name__
    )


def put(seq, path, value):
    """A copy of the list, tuple or dict seq with value at path."""
    head, *rest = path
    out = dict(seq) if isinstance(seq, dict) else list(seq)
    out[head] = put(out[head], rest, value) if rest else value
    return out if type(seq) in (dict, list) else tuple(out)


def run(row, path=None, value=None, rng=None):
    """The row's call, with value at path if a path is given, and rng (else random.Random(1)) for RNG."""
    args, kwargs = row.args, row.kwargs
    if path is not None:
        if isinstance(path[0], str):
            kwargs = put(kwargs, path, value)
        else:
            args = put(args, path, value)
    return row.fn(*(rng or random.Random(1) if a is RNG else a for a in args), **kwargs)


def parameter(row, path):
    """The parameter of the row's callable at the head of path."""
    params = inspect.signature(row.fn).parameters
    return params[path[0]] if isinstance(path[0], str) else list(params.values())[path[0]]


def argument(row, path):
    """The row's argument at path; a keyword the row leaves out gives its default."""
    if isinstance(path[0], str) and path[0] not in row.kwargs:
        return parameter(row, path).default
    value = row.args if isinstance(path[0], int) else row.kwargs
    for key in path:
        value = value[key]
    return value


def label(path):
    return "".join(f"[{key}]" for key in path)


def bad_values(row, mark):
    if mark.kind == "int":
        return NON_INTS
    example = argument(row, mark.path)
    if mark.kind == "text":
        return None, 7, example.encode()
    return None, 7, SK if type(example) is scheme.PublicKey else PK


REFUSED_CASES = [
    pytest.param(name, mark, bad, id=f"{name}{label(mark.path)}-{type(bad).__name__}")
    for name, row in ROWS.items()
    for mark in row.marks
    for bad in bad_values(row, mark)
    if not (bad is None and len(mark.path) == 1 and parameter(row, mark.path).default is None)
]
INT_PATHS = [(name, mark.path) for name, row in ROWS.items() for mark in row.marks if mark.kind == "int"]


def test_every_public_callable_has_a_row_and_every_row_names_one():
    assert sorted(name for name in CALLS if name.count(".") == 1) == public_callables()
    modules = {module.__name__.rpartition(".")[2]: module for module in MODULES}
    for name in CALLS:
        module, *attrs = name.split(".")
        obj = modules[module]
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


@pytest.mark.parametrize("name", ROWS)
def test_a_row_marks_or_exempts_each_parameter_and_its_example_runs(name):
    row = ROWS[name]
    marked = {parameter(row, mark.path).name for mark in row.marks}
    assert set(row.exempt) <= {"rng", "field"} and not marked & set(row.exempt)
    assert sorted(marked | set(row.exempt)) == sorted(inspect.signature(row.fn).parameters)
    run(row)


@pytest.mark.parametrize("name, mark, bad", REFUSED_CASES)
def test_a_refused_argument_raises_its_rows_class_and_message_before_any_draw(name, mark, bad):
    cls, message = type(mark.refusal), re.escape(str(mark.refusal))
    message = message.replace(re.escape("{C}"), ".+").replace(re.escape("{T}"), type(bad).__name__)
    with pytest.raises(cls, match=f"^{message}$") as caught:
        run(ROWS[name], mark.path, bad, rng=NoDraws())
    assert type(caught.value) is cls


@pytest.mark.parametrize("name, path", INT_PATHS, ids=[name + label(path) for name, path in INT_PATHS])
def test_an_int_subclass_argument_counts_as_its_value(name, path):
    row = ROWS[name]
    assert run(row, path, Int(argument(row, path))) == run(row)


def test_the_int_rule_takes_int_subclasses_and_refuses_bools():
    values = (7, Int(7), -1, True, False, 7.0, 7.9, None, "7", b"7", 7 + 0j)
    assert [arith._ints(v) for v in values] == [True] * 3 + [False] * 8
    assert arith._ints(3, Int(5)) and not arith._ints(3, 5, True)


def test_the_object_rule_takes_exact_types_only():
    assert arith._expect(PK, scheme.PublicKey) is PK and arith._expect((), list, tuple) == ()
    with pytest.raises(ValueError, match="^expected a list or tuple, got a Call$"):
        arith._expect(ROWS["arith.jacobi"], list, tuple)  # a NamedTuple is a tuple subclass
    with pytest.raises(ValueError, match="^expected a PublicKey, got a PrivateKey$"):
        arith._expect(SK, scheme.PublicKey)
