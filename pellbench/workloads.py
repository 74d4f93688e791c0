"""The four benchmark workloads: inputs from a seed, one request, its expected output.

Every workload is driven only through pellrsa's public functions, looked up
as module attributes at call time so the tracer's wrappers see the calls.
A workload object is stateless; ``setup`` returns the state its requests
read.  Request ``i`` is a pure function of the state and ``i``, so its
traced rerun must return a bit-identical output.
"""

import random
import time
from dataclasses import dataclass

from pellrsa import attacks, keyfmt, pell, scheme
from pellrsa.errors import PellRsaError

clock = time.perf_counter_ns


@dataclass(frozen=True)
class Key:
    pub: object
    sk: object
    msgs: tuple = ()

    @property
    def shape(self):
        return {
            "n_bits": self.pub.n.bit_length(),
            "exponents": [e for _, e in self.sk.factors.factors],
            "mode": self.sk.mode.value,
        }


def _gen_key(r, exponents, bits, rng, mode=scheme.Mode.ROBUST):
    # keygen rounds bits // sum(exponents) down; the actual size is in Key.shape
    return scheme.keygen(r, exponents, bits // sum(exponents), rng, mode=mode)


def strict_gap(key, msg):
    """True when a strict key is documented to decrypt this message wrongly.

    A strict private exponent inverts e only modulo p^(e-1) * (p + 1), so a
    curve coefficient D = (mx^2 - 1)/my^2 that is a residue mod some prime
    gets the wrong group order there (see the scheme module docstring).
    Computed here, not through the library, so checking adds no spans.
    """
    if key.sk.mode != scheme.Mode.STRICT:
        return False
    n = key.pub.n
    d_coef = (msg.mx * msg.mx - 1) * pow(msg.my * msg.my, -1, n) % n
    return any(pow(d_coef % p, (p - 1) // 2, p) == 1 for p, _ in key.sk.factors.factors)


class DecryptWorkload:
    """One robust key; compressed and point ciphertexts alternate."""

    request_label = "decrypt"
    rsa_pairs = 1  # baseline pair-decrypts per request, per RSA version

    def __init__(self, name, bits, exponents, pool=24):
        self.name, self.bits, self.exponents, self.pool = name, bits, exponents, pool

    def setup(self, rng):
        pub, sk = _gen_key(len(self.exponents), self.exponents, self.bits, rng)
        msgs = tuple(scheme.random_message(pub, rng) for _ in range(self.pool))
        cts = tuple(scheme.encrypt(pub, m) for m in msgs)
        pcts = tuple(scheme.encrypt_point(pub, m) for m in msgs)
        return {"keys": (Key(pub, sk, msgs),), "cts": cts, "pcts": pcts}

    def key_for(self, state, i):
        return state["keys"][0]

    def request(self, state, i):
        key, j = state["keys"][0], (i // 2) % self.pool
        t0 = clock()
        if i % 2 == 0:
            out, label = scheme.decrypt(key.sk, state["cts"][j]), "decrypt_ms"
        else:
            out, label = scheme.decrypt_point(key.sk, state["pcts"][j]), "decrypt_point_ms"
        parts = ((label, clock() - t0),)
        return (out.mx, out.my), parts

    def check(self, state, i, value):
        key = state["keys"][0]
        m = key.msgs[(i // 2) % self.pool]
        return value == (m.mx % key.pub.n, m.my % key.pub.n)


class CliSessionWorkload:
    """What `pellrsa encrypt` then `pellrsa decrypt` do per call, without a process.

    Keys cross the boundary as text, so every request re-parses both keys;
    loading a private key re-runs Miller-Rabin on each prime.  The timed pool
    holds robust keys only, so no timed request fails.  A strict key decrypts
    some messages wrongly (the documented residue gap), so it runs in
    ``strict_probe`` instead: a fixed, seeded set of sessions, outside timing,
    whose wrong plaintexts are counted and reported.
    """

    request_label = "session"
    rsa_pairs = 2
    probe_messages = 40

    def __init__(self, name, bits, pool=8):
        self.name, self.bits, self.pool = name, bits, pool
        self.shapes = ((2, (1, 1)), (3, (1, 1, 1)))

    def setup(self, rng):
        keys, texts = [], []
        for r, exponents in self.shapes:
            keys.append(_session_key(r, exponents, self.bits, scheme.Mode.ROBUST, self.pool, rng))
            texts.append(_texts(keys[-1]))
        return {"keys": tuple(keys), "texts": tuple(texts)}

    def _pick(self, state, i):
        # key k, then both ciphertext kinds for each message in turn
        n_keys = len(state["keys"])
        k, turn = i % n_keys, i // n_keys
        return k, state["keys"][k].msgs[(turn // 2) % self.pool], turn % 2 == 1

    def key_for(self, state, i):
        return state["keys"][i % len(state["keys"])]

    def request(self, state, i):
        k, msg, point = self._pick(state, i)
        return _session(state["keys"][k], state["texts"][k], msg, point)

    def check(self, state, i, value):
        k, msg, _ = self._pick(state, i)
        return _plaintext_ok(state["keys"][k], msg, value)

    def strict_probe(self, rng):
        """Run ``probe_messages`` sessions on one strict r=3 key; count failures.

        Returns a report: the key's shape, the sessions attempted, failures by
        ``PellRsaError`` class or ``wrong_plaintext``, and the failures that
        the residue gap does not predict (each of them is a defect).
        """
        key = _session_key(3, (1, 1, 1), self.bits, scheme.Mode.STRICT, self.probe_messages, rng)
        texts = _texts(key)
        failures, unexpected = {}, []
        for j, msg in enumerate(key.msgs):
            try:
                value, _ = _session(key, texts, msg, j % 2 == 1)
            except PellRsaError as err:
                outcome = type(err).__name__
            else:
                outcome = None if _plaintext_ok(key, msg, value) else "wrong_plaintext"
            if outcome is not None:
                failures[outcome] = failures.get(outcome, 0) + 1
                if not strict_gap(key, msg):
                    unexpected.append(j)
        return {
            "key": key.shape,
            "attempted": len(key.msgs),
            "failed": sum(failures.values()),
            "failures": failures,
            "unexpected_failures": unexpected,
        }


def _session_key(r, exponents, bits, mode, messages, rng):
    pub, sk = _gen_key(r, exponents, bits, rng, mode)
    # encryption validates under the key's own mode, so a strict key sees
    # only messages that are encryptable in strict mode
    return Key(pub, sk, tuple(scheme.random_message(pub, rng, mode) for _ in range(messages)))


def _texts(key):
    return keyfmt.dump_public_key(key.pub), keyfmt.dump_private_key(key.sk)


def _session(key, texts, msg, point):
    """One encrypt+decrypt CLI round trip; returns (ciphertext text, mx, my) and timed parts."""
    pub_text, priv_text = texts
    mode = key.sk.mode
    pub = keyfmt.load_public_key(pub_text)
    t1 = clock()
    if point:
        ct = scheme.encrypt_point(pub, msg, mode)
    else:
        ct = scheme.encrypt(pub, msg, mode)
    t2 = clock()
    ct_text = keyfmt.dump_ciphertext(ct)
    ct = keyfmt.load_ciphertext(ct_text)
    sk = keyfmt.load_private_key(priv_text)
    t3 = clock()
    out = scheme.decrypt_point(sk, ct) if point else scheme.decrypt(sk, ct)
    t4 = clock()
    kind = "_point" if point else ""
    parts = ((f"encrypt{kind}_ms", t2 - t1), (f"decrypt{kind}_ms", t4 - t3))
    return (ct_text, out.mx, out.my), parts


def _plaintext_ok(key, msg, value):
    n = key.pub.n
    return value[1:] == (msg.mx % n, msg.my % n)


class FactorWorkload:
    """full_factorization(n, psi(n)) over a pool of moduli with r = 2 and r = 3."""

    request_label = "factor"
    rsa_pairs = 8

    def __init__(self, name, bits, shapes=((2, (1, 1)), (3, (1, 1, 1))) * 3):
        self.name, self.bits, self.shapes = name, bits, shapes

    def setup(self, rng):
        keys = tuple(Key(*_gen_key(r, exps, self.bits, rng)) for r, exps in self.shapes)
        return {"keys": keys, "psi": tuple(pell.psi(k.sk.factors) for k in keys), "seed": rng.getrandbits(64)}

    def key_for(self, state, i):
        return state["keys"][i % len(state["keys"])]

    def request(self, state, i):
        k = i % len(state["keys"])
        rng = random.Random(f"{state['seed']}/{i}")
        t0 = clock()
        out = attacks.full_factorization(state["keys"][k].pub.n, state["psi"][k], rng)
        parts = (("factor_s", clock() - t0),)
        return tuple(tuple(pair) for pair in out), parts

    def check(self, state, i, value):
        return value == tuple(state["keys"][i % len(state["keys"])].sk.factors.factors)


def make_workloads(bits=None):
    """The benchmark's workloads by name; ``bits`` shrinks every modulus (smoke test).

    Why each exists is recorded in BENCHMARK.json.
    """
    workloads = (
        DecryptWorkload("decrypt-2048-r3", bits or 2048, (1, 1, 1)),
        DecryptWorkload("decrypt-2048-pp31", bits or 2048, (3, 1)),
        CliSessionWorkload("cli-session-1024", bits or 1024),
        FactorWorkload("factor-1024", bits or 1024),
    )
    return {w.name: w for w in workloads}
