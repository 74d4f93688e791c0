import random
import signal
from typing import NamedTuple

import pytest
from hypothesis import settings

from pellrsa import scheme
from pellrsa.arith import gen_prime, jacobi
from pellrsa.scheme import Ciphertext, PointCiphertext

# Examples at crypto sizes take longer than hypothesis' 200 ms deadline.
settings.register_profile("pellrsa", deadline=None)
settings.load_profile("pellrsa")


@pytest.fixture
def alarm():
    """Fail the test after ten seconds, so a loop that never ends cannot hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its ten-second alarm")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Key(NamedTuple):
    sk: scheme.PrivateKey
    msg: scheme.MessagePair
    cts: dict  # {kind: the message's ciphertext}


@pytest.fixture(scope="module")
def keys(request):
    """{(shape, message class): Key} for the requesting module's SHAPES and SYMBOLS.

    One robust key per shape over 64-bit primes = 3 mod 4, drawn in order
    from random.Random(35), and per class in SYMBOLS, {name: the Jacobi
    symbol of D mod prime i, as a function of i}, one message and both its
    ciphertexts.  Each ciphertext decrypts once, so two uses of every row a
    message reads have built its chain, and a third runs it.
    """
    rng, keys = random.Random(35), {}
    for shape in request.module.SHAPES:
        primes = set()
        while len(primes) < len(shape):
            if (p := gen_prime(64, rng)) % 4 == 3:
                primes.add(p)
        primes = sorted(primes)
        pub, sk = scheme.keypair_from_primes(primes, list(shape))
        for name, symbol in request.module.SYMBOLS.items():
            wanted = [symbol(i) for i in range(len(primes))]
            draws = iter(lambda: scheme.random_message(pub, rng), None)
            msg = next(m for m in draws if [jacobi(scheme.validate_message(pub, m), p) for p in primes] == wanted)
            cts = {Ciphertext: scheme.encrypt(pub, msg), PointCiphertext: scheme.encrypt_point(pub, msg)}
            assert scheme.decrypt(sk, cts[Ciphertext]) == scheme.decrypt_point(sk, cts[PointCiphertext]) == msg
            keys[shape, name] = Key(sk, msg, cts)
    return keys
