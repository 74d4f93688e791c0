"""Decryption benchmark against a two-prime CRT-RSA baseline.

The paper's operation-count model: RSA decrypting 2*log2(N) plaintext bits
(two ciphertexts) via CRT performs 4 exponentiations at half the modulus
width, while the r-prime scheme performs r exponentiations at 1/r of the
width, predicting a speedup of 4*(N/2)^3 / (r*(N/r)^3) = r^2/2.  The model
counts one exponent bit as one modular multiplication on both sides.  In
real multiplications the per-prime Lucas ladder costs 2 per exponent bit
(pell.ladder_cost), plus one inversion per prime for the y recovery and,
for a compressed ciphertext, one full-width decompression, while RSA's
square-and-multiply costs 1.5 on average, so counting multiplications
predicts 3/4 of r^2/2.  Measured ratios sit lower still: the interpreter's
fixed cost per operation does not shrink with the operand width, so it
weighs more on the narrower per-prime products.  The paper's prediction and
the measurement are reported side by side; nothing is gated on the model.

Fairness: both schemes decrypt the same number of plaintext bits per timed
call, run single-threaded over plain Python integers, and use this
package's explicit square-and-multiply loops rather than the C-level pow
builtin, so each modular multiplication carries the same interpreter
overhead on both sides.  The two are timed round-robin.
"""

import csv
import io
import math
import random
import statistics
import time
from dataclasses import dataclass

from .arith import gen_prime, mod_inv, mod_pow
from .errors import ConfigInfeasible, RandomnessExhausted
from .scheme import Mode, decrypt, encrypt, keygen, random_message

WARMUP_RUNS = 3
MIN_TIMED_RUNS = 11

_COLUMNS = ("bits", "r", "pell_ns", "rsa_ns", "measured", "predicted")


@dataclass(frozen=True)
class BenchConfig:
    modulus_bits: int
    r: int
    exponents: tuple = None
    trials: int = MIN_TIMED_RUNS
    seed: int = 0


@dataclass(frozen=True)
class BenchResult:
    """Median decryption times (ns) and the measured vs predicted speedup."""

    modulus_bits: int
    r: int
    pell_decrypt_ns: int
    rsa_decrypt_ns: int
    measured_speedup: float
    predicted_speedup: float


class RsaBaseline:
    """Textbook two-prime RSA with CRT decryption.

    decrypt_pair handles 2*log2(n) plaintext bits with exactly four
    half-width exponentiations.
    """

    def __init__(self, p, q, e, d):
        self.p, self.q, self.e, self.d = p, q, e, d
        self.n = p * q
        self.dp = d % (p - 1)
        self.dq = d % (q - 1)
        self.q_inv = mod_inv(q, p)

    def encrypt(self, m):
        return pow(m, self.e, self.n)

    def decrypt(self, c):
        m_p = mod_pow(c % self.p, self.dp, self.p)
        m_q = mod_pow(c % self.q, self.dq, self.q)
        h = (m_p - m_q) * self.q_inv % self.p
        return m_q + self.q * h

    def decrypt_pair(self, pair):
        return self.decrypt(pair[0]), self.decrypt(pair[1])


def rsa_baseline(modulus_bits, rng):
    """Fresh RSA baseline key at the given modulus size (>= 512 bits)."""
    if modulus_bits < 512:
        raise ConfigInfeasible("baseline needs a modulus of at least 512 bits")
    half = modulus_bits // 2
    p = gen_prime(half, rng)
    q = gen_prime(half, rng)
    while q == p:
        q = gen_prime(half, rng)
    phi = (p - 1) * (q - 1)
    e = 65537
    while math.gcd(e, phi) != 1:
        e += 2
    return RsaBaseline(p, q, e, mod_inv(e, phi))


def _interleaved_medians_ns(ops, inputs_per_op):
    """Per-op median wall times, sampling the ops round-robin.

    Interleaving means a load spike on the host inflates every series
    instead of one, which keeps the ratios honest.
    """
    times = [[] for _ in ops]
    for run in range(len(inputs_per_op[0])):
        for i, op in enumerate(ops):
            start = time.perf_counter_ns()
            op(inputs_per_op[i][run])
            times[i].append(time.perf_counter_ns() - start)
    return [int(statistics.median(series[WARMUP_RUNS:])) for series in times]


def run_benchmark(cfg):
    """Time both schemes decrypting matched random plaintexts.

    Medians over max(cfg.trials, 11) runs after 3 discarded warmups.  One
    Pell decryption recovers a pair of residues (2*log2 N bits), so the RSA
    baseline decrypts two ciphertexts per timed call.
    """
    exponents = tuple(cfg.exponents) if cfg.exponents else (1,) * cfg.r
    if cfg.r < 2 or len(exponents) != cfg.r:
        raise ConfigInfeasible("need r >= 2 and one exponent per prime")
    prime_bits = cfg.modulus_bits // sum(exponents)
    if prime_bits < 8:
        raise ConfigInfeasible("primes would be smaller than 8 bits")
    rng = random.Random(cfg.seed)
    try:
        pub, priv = keygen(cfg.r, exponents, prime_bits, rng, mode=Mode.ROBUST)
    except (RandomnessExhausted, ValueError) as err:
        raise ConfigInfeasible(str(err)) from err
    rsa = rsa_baseline(cfg.modulus_bits, rng)

    runs = max(cfg.trials, MIN_TIMED_RUNS) + WARMUP_RUNS
    pell_cts = [encrypt(pub, random_message(pub, rng)) for _ in range(runs)]
    rsa_cts = [
        (rsa.encrypt(rng.randrange(2, rsa.n)), rsa.encrypt(rng.randrange(2, rsa.n)))
        for _ in range(runs)
    ]

    pell_ns, rsa_ns = _interleaved_medians_ns(
        [lambda ct: decrypt(priv, ct), rsa.decrypt_pair], [pell_cts, rsa_cts]
    )

    return BenchResult(
        modulus_bits=cfg.modulus_bits,
        r=cfg.r,
        pell_decrypt_ns=pell_ns,
        rsa_decrypt_ns=rsa_ns,
        measured_speedup=rsa_ns / pell_ns,
        predicted_speedup=cfg.r * cfg.r / 2,
    )


def _rows(results):
    ordered = sorted(results, key=lambda res: (res.modulus_bits, res.r))
    for res in ordered:
        yield (
            str(res.modulus_bits),
            str(res.r),
            str(res.pell_decrypt_ns),
            str(res.rsa_decrypt_ns),
            f"{res.measured_speedup:.3f}",
            f"{res.predicted_speedup:.1f}",
        )


def emit_report(results, format="table"):
    """Render results as an aligned table or CSV, rows sorted by (bits, r)."""
    if not results:
        raise ValueError("no results to report")
    rows = list(_rows(results))
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(_COLUMNS)
        writer.writerows(rows)
        return out.getvalue()
    if format == "table":
        widths = [
            max(len(_COLUMNS[i]), max(len(row[i]) for row in rows))
            for i in range(len(_COLUMNS))
        ]
        lines = ["  ".join(name.rjust(w) for name, w in zip(_COLUMNS, widths))]
        lines += ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")
