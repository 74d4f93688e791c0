"""The int-argument rule over the public API, one row per public callable.

arith's module docstring states the rule: an int argument is an int and no
bool, and an int subclass counts as its value.  CALLS gives every public
callable of arith, pell, scheme, attacks and keyfmt a valid example call and
the paths of its int arguments; a path is a positional index or a keyword,
then indices into nested lists and tuples.  At each path the test puts 2.0,
None, True and "7" in turn and requires ValueError or a PellRsaError, and an
int subclass there must give the example's result.  None is not tried where
it is the parameter's default, as e=None is.

A row names the parameters it leaves unmarked in `exempt`: rng arguments,
parse_number's `value` text and `field` label, the loaders' text, and object
arguments (keys, ciphertexts, a FactoredModulus, a chain, a PellParams, a
mode, a dump's input), whose type checks are a separate rule.  A record
(MessagePair, Ciphertext, PointCiphertext) checks nothing when built: its
row calls the scheme function that takes it.  A str row exempts a whole
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
    exempt: tuple  # the parameters that take no int


def call(fn, *args, ints=(), exempt=(), **kwargs):
    return Call(fn, args, kwargs, tuple(p if isinstance(p, tuple) else (p,) for p in ints), exempt)


PK, SK = scheme.keypair_from_primes([1009, 1013], [1, 1])
MSG = scheme.random_message(PK, random.Random(1))
CT, PCT = scheme.encrypt(PK, MSG), scheme.encrypt_point(PK, MSG)
PP = pell.PellParams(101, 2)
LEAVES = "paper-definition code, which leaves the library with PellParams; the benchmark still reads it"

CALLS = {
    "arith.mod_inv": call(arith.mod_inv, 16, 35, ints=(0, 1)),
    "arith.jacobi": call(arith.jacobi, 2, 35, ints=(0, 1)),
    "arith.crt_coefficients": call(arith.crt_coefficients, [5, 7, 9], ints=((0, 0), (0, 1), (0, 2))),
    "arith.crt_combine": call(
        arith.crt_combine, [(2, 1), (3, 0)], [5, 7], (3,),
        ints=((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0), (1, 1), (2, 0)),
    ),
    "arith.lucas_v": call(arith.lucas_v, 3, 5, 101, ints=(0, 1, 2)),
    "arith.is_probable_prime": call(arith.is_probable_prime, 1009, ints=(0,)),
    "arith.gen_prime": call(arith.gen_prime, 16, RNG, ints=(0,), exempt=("rng",)),
    "arith.FactoredModulus": call(
        arith.FactoredModulus, [(5, 1), (7, 1)], ints=((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))
    ),
    "pell.PellParams": LEAVES,
    "pell.param_mul": LEAVES,
    "pell.param_pow": LEAVES,
    "pell.redei_eval": LEAVES,
    "pell.redei_pow": LEAVES,
    "pell.psi": LEAVES,
    "pell.point_pow": call(pell.point_pow, 3, 5, PP, ints=(0, 1), exempt=("pp", "chain")),
    "pell.LucasChain": "a record that lucas_chain builds; point_pow refuses a chain built for another exponent",
    "pell.LucasChain.run": call(pell.lucas_chain(1000003).run, 3, 101, ints=(0, 1)),
    "pell.lucas_chain": call(pell.lucas_chain, 1000003, ints=(0,)),
    "pell.chebyshev": call(pell.chebyshev, 2, 3, 1000, ints=(0, 1, 2)),
    "pell.ladder_cost": call(pell.ladder_cost, 5, ints=(0,)),
    "pell.point_to_param": call(pell.point_to_param, 2, 1, 35, ints=(0, 1, 2)),
    "pell.param_to_point": call(pell.param_to_point, 3, 35, 18, ints=(0, 1, 2)),
    "scheme.Mode": "an Enum of str values",
    "scheme.PublicKey": call(scheme.PublicKey, PK.n, PK.e, ints=(0, 1)),
    "scheme.PrivateKey": call(scheme.PrivateKey, SK.factors, SK.d, scheme.Mode.ROBUST, ints=(1,),
                              exempt=("factors", "mode")),
    "scheme.PlanRow": "a record that PrivateKey builds from its own checked d",
    "scheme.MessagePair": call(lambda mx, my: scheme.encrypt_point(PK, scheme.MessagePair(mx, my)),
                               MSG.mx, MSG.my, ints=(0, 1)),
    "scheme.Ciphertext": call(lambda c, d_coef: scheme.decrypt(SK, scheme.Ciphertext(c, d_coef)),
                              CT.c, CT.d_coef, ints=(0, 1)),
    "scheme.PointCiphertext": call(
        lambda cx, cy, d_coef: scheme.decrypt_point(SK, scheme.PointCiphertext(cx, cy, d_coef)),
        PCT.cx, PCT.cy, PCT.d_coef, ints=(0, 1, 2),
    ),
    "scheme.exponent_modulus": call(scheme.exponent_modulus, SK.factors, scheme.Mode.ROBUST,
                                    exempt=("factors", "mode")),
    "scheme.keypair_from_primes": call(
        scheme.keypair_from_primes, [1009, 1013], [1, 1], e=PK.e,
        ints=((0, 0), (0, 1), (1, 0), (1, 1), "e"), exempt=("mode",),
    ),
    "scheme.keygen": call(
        scheme.keygen, 2, [1, 1], 16, RNG, e=65537, ints=(0, (1, 0), (1, 1), 2, "e"), exempt=("rng", "mode")
    ),
    "scheme.validate_message": call(scheme.validate_message, PK, MSG, exempt=("pk", "msg", "mode")),
    "scheme.encrypt": call(scheme.encrypt, PK, MSG, exempt=("pk", "msg", "mode")),
    "scheme.encrypt_point": call(scheme.encrypt_point, PK, MSG, exempt=("pk", "msg", "mode")),
    "scheme.reduced_private_exponents": call(scheme.reduced_private_exponents, SK, CT.d_coef, ints=(1,),
                                             exempt=("sk",)),
    "scheme.decrypt": call(scheme.decrypt, SK, CT, exempt=("sk", "ct")),
    "scheme.decrypt_point": call(scheme.decrypt_point, SK, PCT, exempt=("sk", "ct")),
    "scheme.random_message": call(scheme.random_message, PK, RNG, exempt=("pk", "rng", "mode")),
    "attacks.find_factor": call(attacks.find_factor, 35, 48, 3, ints=(0, 1, 2)),
    "attacks.full_factorization": call(
        attacks.full_factorization, 35, 48, RNG, max_trials=200, ints=(0, 1, "max_trials"), exempt=("rng",)
    ),
    "keyfmt.parse_number": call(keyfmt.parse_number, "ff", "n", 16, ints=(2,), exempt=("value", "field")),
    "keyfmt.dump_public_key": call(keyfmt.dump_public_key, PK, exempt=("pk",)),
    "keyfmt.load_public_key": call(keyfmt.load_public_key, keyfmt.dump_public_key(PK), exempt=("text",)),
    "keyfmt.dump_private_key": call(keyfmt.dump_private_key, SK, exempt=("sk",)),
    "keyfmt.load_private_key": call(keyfmt.load_private_key, keyfmt.dump_private_key(SK), exempt=("text",)),
    "keyfmt.dump_ciphertext": call(keyfmt.dump_ciphertext, CT, exempt=("ct",)),
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


def label(path):
    return "".join(f"[{key}]" for key in path)


INT_PATHS = [(name, path) for name, row in CALLS.items() if isinstance(row, Call) for path in row.ints]
NON_INT_CASES = [
    pytest.param(name, path, bad, id=f"{name}{label(path)}-{bad!r}")
    for name, path in INT_PATHS
    for bad in NON_INTS
    if not (bad is None and len(path) == 1 and parameter(CALLS[name], path).default is None)
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
    marked = {parameter(row, path).name for path in row.ints}
    assert not marked & set(row.exempt)
    assert sorted(marked | set(row.exempt)) == sorted(inspect.signature(row.fn).parameters)
    run(row)


@pytest.mark.parametrize("name, path, bad", NON_INT_CASES)
def test_a_non_int_argument_is_refused(name, path, bad):
    with pytest.raises((ValueError, PellRsaError)):
        run(CALLS[name], path, bad)


@pytest.mark.parametrize("name, path", INT_PATHS, ids=[name + label(path) for name, path in INT_PATHS])
def test_an_int_subclass_argument_counts_as_its_value(name, path):
    row = CALLS[name]
    value = row.args if isinstance(path[0], int) else row.kwargs
    for key in path:
        value = value[key]
    assert run(row, path, Int(value)) == run(row)


def test_the_int_rule_takes_int_subclasses_and_refuses_bools():
    assert [arith._ints(v) for v in (7, Int(7), -1, True, False, 7.0, None, "7")] == [True] * 3 + [False] * 5
    assert arith._ints(3, Int(5)) and not arith._ints(3, 5, True)
