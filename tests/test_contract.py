"""The argument rules over the public API, one row per public callable.

arith's module docstring states both rules: an int argument is an int and
no bool, and an int subclass counts as its value; an object or sequence
argument has one of the exact types the function names.  CALLS gives every
public callable of arith, pell, scheme, attacks and keyfmt a valid example
call, the paths of its int arguments and the paths of its object arguments;
a path is a positional index or a keyword, then indices into nested lists
and tuples.  At each int path the test puts 2.0, None, True and "7" in turn
and requires ValueError or a PellRsaError, and an int subclass there must
give the example's result.  At each object path (a key, a ciphertext, a
message, a FactoredModulus, a PellParams, a chain, a mode, a list or tuple
of ints or pairs) it puts None, 7 and a wrong package object (a PrivateKey
where a PublicKey goes, else a PublicKey) and requires the same.  None is
not tried where it is the parameter's default, as e=None and chain=None are.

A row names the parameters it leaves unmarked in `exempt`: rng arguments,
parse_number's `value` text and `field` label, and the loaders' text.  A
record (MessagePair, Ciphertext, PointCiphertext) checks nothing when built:
its row calls the scheme function that takes it.  A str row exempts a whole
callable and says why.
"""

import inspect
import random
from typing import NamedTuple

import pytest

from pellrsa import arith, attacks, keyfmt, pell, scheme
from pellrsa.errors import PellRsaError

MODULES = (arith, pell, scheme, attacks, keyfmt)
NON_INTS = (2.0, None, True, "7")
RNG = object()  # stands for a fresh random.Random(1) in each call


class Int(int):
    """An int subclass: every int argument takes it as its value."""


class Call(NamedTuple):
    fn: object
    args: tuple
    kwargs: dict
    ints: tuple  # paths of the int arguments
    objs: tuple  # paths of the object and sequence arguments
    exempt: tuple  # the parameters that take neither


def call(fn, *args, ints=(), objs=(), exempt=(), **kwargs):
    def paths(marks):
        return tuple(p if isinstance(p, tuple) else (p,) for p in marks)

    return Call(fn, args, kwargs, paths(ints), paths(objs), exempt)


PK, SK = scheme.keypair_from_primes([1009, 1013], [1, 1])
MSG = scheme.random_message(PK, random.Random(1))
CT, PCT = scheme.encrypt(PK, MSG), scheme.encrypt_point(PK, MSG)
PP = pell.PellParams(101, 2)
LEAVES = "paper-definition code, which leaves the library with PellParams; the benchmark still reads it"

CALLS = {
    "arith.mod_inv": call(arith.mod_inv, 16, 35, ints=(0, 1)),
    "arith.jacobi": call(arith.jacobi, 2, 35, ints=(0, 1)),
    "arith.crt_coefficients": call(arith.crt_coefficients, [5, 7, 9], ints=((0, 0), (0, 1), (0, 2)), objs=(0,)),
    "arith.crt_combine": call(
        arith.crt_combine, [(2, 1), (3, 0)], [5, 7], (3,),
        ints=((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0), (1, 1), (2, 0)), objs=(0, (0, 0), (0, 1), 1, 2),
    ),
    "arith.lucas_v": call(arith.lucas_v, 3, 5, 101, ints=(0, 1, 2)),
    "arith.is_probable_prime": call(arith.is_probable_prime, 1009, ints=(0,)),
    "arith.gen_prime": call(arith.gen_prime, 16, RNG, ints=(0,), exempt=("rng",)),
    "arith.FactoredModulus": call(
        arith.FactoredModulus, [(5, 1), (7, 1)], ints=((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)),
        objs=(0, (0, 0), (0, 1)),
    ),
    "pell.PellParams": LEAVES,
    "pell.param_mul": LEAVES,
    "pell.param_pow": LEAVES,
    "pell.redei_eval": LEAVES,
    "pell.redei_pow": LEAVES,
    "pell.psi": LEAVES,
    "pell.point_pow": call(pell.point_pow, 3, 5, PP, ints=(0, 1), objs=(2, "chain")),
    "pell.LucasChain": "a record that lucas_chain builds; point_pow refuses a chain built for another exponent",
    "pell.LucasChain.run": call(pell.lucas_chain(1000003).run, 3, 101, ints=(0, 1)),
    "pell.lucas_chain": call(pell.lucas_chain, 1000003, ints=(0,)),
    "pell.chebyshev": call(pell.chebyshev, 2, 3, 1000, ints=(0, 1, 2)),
    "pell.ladder_cost": call(pell.ladder_cost, 5, ints=(0,)),
    "pell.point_to_param": call(pell.point_to_param, 2, 1, 35, ints=(0, 1, 2)),
    "pell.param_to_point": call(pell.param_to_point, 3, 35, 18, ints=(0, 1, 2)),
    "scheme.Mode": "an Enum of str values",
    "scheme.PublicKey": call(scheme.PublicKey, PK.n, PK.e, ints=(0, 1)),
    "scheme.PrivateKey": call(scheme.PrivateKey, SK.factors, SK.d, scheme.Mode.ROBUST, ints=(1,), objs=(0, 2)),
    "scheme.PlanRow": "a record that PrivateKey builds from its own checked d",
    "scheme.MessagePair": call(lambda mx, my: scheme.encrypt_point(PK, scheme.MessagePair(mx, my)),
                               MSG.mx, MSG.my, ints=(0, 1)),
    "scheme.Ciphertext": call(lambda c, d_coef: scheme.decrypt(SK, scheme.Ciphertext(c, d_coef)),
                              CT.c, CT.d_coef, ints=(0, 1)),
    "scheme.PointCiphertext": call(
        lambda cx, cy, d_coef: scheme.decrypt_point(SK, scheme.PointCiphertext(cx, cy, d_coef)),
        PCT.cx, PCT.cy, PCT.d_coef, ints=(0, 1, 2),
    ),
    "scheme.exponent_modulus": call(scheme.exponent_modulus, SK.factors, scheme.Mode.ROBUST, objs=(0, 1)),
    "scheme.keypair_from_primes": call(
        scheme.keypair_from_primes, [1009, 1013], [1, 1], e=PK.e,
        ints=((0, 0), (0, 1), (1, 0), (1, 1), "e"), objs=(0, 1, "mode"),
    ),
    "scheme.keygen": call(
        scheme.keygen, 2, [1, 1], 16, RNG, e=65537, ints=(0, (1, 0), (1, 1), 2, "e"), objs=(1, "mode"),
        exempt=("rng",),
    ),
    "scheme.validate_message": call(scheme.validate_message, PK, MSG, objs=(0, 1, "mode")),
    "scheme.encrypt": call(scheme.encrypt, PK, MSG, objs=(0, 1, "mode")),
    "scheme.encrypt_point": call(scheme.encrypt_point, PK, MSG, objs=(0, 1, "mode")),
    "scheme.reduced_private_exponents": call(scheme.reduced_private_exponents, SK, CT.d_coef, ints=(1,), objs=(0,)),
    "scheme.decrypt": call(scheme.decrypt, SK, CT, objs=(0, 1)),
    "scheme.decrypt_point": call(scheme.decrypt_point, SK, PCT, objs=(0, 1)),
    "scheme.random_message": call(scheme.random_message, PK, RNG, objs=(0, "mode"), exempt=("rng",)),
    "attacks.find_factor": call(attacks.find_factor, 35, 48, 3, ints=(0, 1, 2)),
    "attacks.full_factorization": call(
        attacks.full_factorization, 35, 48, RNG, max_trials=200, ints=(0, 1, "max_trials"), exempt=("rng",)
    ),
    "keyfmt.parse_number": call(keyfmt.parse_number, "ff", "n", 16, ints=(2,), exempt=("value", "field")),
    "keyfmt.dump_public_key": call(keyfmt.dump_public_key, PK, objs=(0,)),
    "keyfmt.load_public_key": call(keyfmt.load_public_key, keyfmt.dump_public_key(PK), exempt=("text",)),
    "keyfmt.dump_private_key": call(keyfmt.dump_private_key, SK, objs=(0,)),
    "keyfmt.load_private_key": call(keyfmt.load_private_key, keyfmt.dump_private_key(SK), exempt=("text",)),
    "keyfmt.dump_ciphertext": call(keyfmt.dump_ciphertext, CT, objs=(0,)),
    "keyfmt.load_ciphertext": call(keyfmt.load_ciphertext, keyfmt.dump_ciphertext(CT), exempt=("text",)),
}


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


def run(row, path=None, value=None):
    """The row's call, with value at path if a path is given."""
    args, kwargs = row.args, row.kwargs
    if path is not None:
        if isinstance(path[0], str):
            kwargs = put(kwargs, path, value)
        else:
            args = put(args, path, value)
    return row.fn(*(random.Random(1) if a is RNG else a for a in args), **kwargs)


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


def cases(paths, bads):
    """(name, path, bad) per path and bad value, with no None where None is the default."""
    return [
        (name, path, bad)
        for name, path in paths
        for bad in bads(CALLS[name], path)
        if not (bad is None and len(path) == 1 and parameter(CALLS[name], path).default is None)
    ]


def non_objects(row, path):
    return None, 7, SK if type(argument(row, path)) is scheme.PublicKey else PK


INT_PATHS = [(name, path) for name, row in CALLS.items() if isinstance(row, Call) for path in row.ints]
OBJ_PATHS = [(name, path) for name, row in CALLS.items() if isinstance(row, Call) for path in row.objs]
NON_INT_CASES = [
    pytest.param(*case, id=f"{case[0]}{label(case[1])}-{case[2]!r}") for case in cases(INT_PATHS, lambda *_: NON_INTS)
]
NON_OBJECT_CASES = [
    pytest.param(*case, id=f"{case[0]}{label(case[1])}-{type(case[2]).__name__}")
    for case in cases(OBJ_PATHS, non_objects)
]


def test_every_public_callable_has_a_row_and_every_row_names_one():
    assert sorted(name for name in CALLS if name.count(".") == 1) == public_callables()
    modules = {module.__name__.rpartition(".")[2]: module for module in MODULES}
    for name in CALLS:
        module, *attrs = name.split(".")
        obj = modules[module]
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


@pytest.mark.parametrize("name", [name for name, row in CALLS.items() if isinstance(row, Call)])
def test_a_row_marks_or_exempts_each_parameter_and_its_example_runs(name):
    row = CALLS[name]
    marked = {parameter(row, path).name for path in row.ints + row.objs}
    assert not marked & set(row.exempt)
    assert sorted(marked | set(row.exempt)) == sorted(inspect.signature(row.fn).parameters)
    run(row)


@pytest.mark.parametrize("name, path, bad", NON_INT_CASES)
def test_a_non_int_argument_is_refused(name, path, bad):
    with pytest.raises((ValueError, PellRsaError)):
        run(CALLS[name], path, bad)


@pytest.mark.parametrize("name, path, bad", NON_OBJECT_CASES)
def test_a_wrong_object_argument_is_refused(name, path, bad):
    with pytest.raises((ValueError, PellRsaError)):
        run(CALLS[name], path, bad)


@pytest.mark.parametrize("name, path", INT_PATHS, ids=[name + label(path) for name, path in INT_PATHS])
def test_an_int_subclass_argument_counts_as_its_value(name, path):
    row = CALLS[name]
    assert run(row, path, Int(argument(row, path))) == run(row)


def test_the_int_rule_takes_int_subclasses_and_refuses_bools():
    assert [arith._ints(v) for v in (7, Int(7), -1, True, False, 7.0, None, "7")] == [True] * 3 + [False] * 5
    assert arith._ints(3, Int(5)) and not arith._ints(3, 5, True)


def test_the_object_rule_takes_exact_types_only():
    assert arith._expect(PK, scheme.PublicKey) is PK and arith._expect((), list, tuple) == ()
    with pytest.raises(ValueError, match="^expected a list or tuple, got a Call$"):
        arith._expect(CALLS["arith.jacobi"], list, tuple)  # a NamedTuple is a tuple subclass
    with pytest.raises(ValueError, match="^expected a PublicKey, got a PrivateKey$"):
        arith._expect(SK, scheme.PublicKey)
