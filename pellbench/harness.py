"""Run one workload: set up, measure a closed loop, check outputs, report.

One client, one thread.  Each round runs the workload's request between
RSA baseline pair-decrypts, so a slow phase of the host inflates both
series and the ratio of their mean times stays steady where raw times
drift.

With tracing on, every request runs a second time right after its untraced
run, under the tracer; the two outputs must be bit-identical, and every
wrapped name is restored before the next untraced run.
"""

import os
import platform
import random
import statistics
import time
from pathlib import Path

import pellrsa
from pellrsa import arith, attacks, keyfmt, pell, scheme
from pellrsa.errors import PellRsaError

from . import rsa_baseline, tracing
from .workloads import DecryptWorkload, make_workloads

MODULES = {"scheme": scheme, "pell": pell, "arith": arith, "keyfmt": keyfmt, "attacks": attacks}
SETUP_REPEATS = 5
WARMUP_REQUESTS = 2
MIN_REQUESTS = 4
RSA_INPUTS = 16

# name, span, field, unit; "setup" fields are summed over the traced setup
PER_LAYER = (
    ("pell.point_pow.self_ms", "pell.point_pow", "self_ns", "ms"),
    ("pell.point_pow.calls", "pell.point_pow", "calls", "count"),
    ("pell.point_pow.exp_bits", "pell.point_pow", "exp_bits", "bits"),
    ("pell.point_pow.mod_bits", "pell.point_pow", "mod_bits", "bits"),
    ("pell.param_to_point.self_ms", "pell.param_to_point", "self_ns", "ms"),
    ("pell.point_to_param.self_ms", "pell.point_to_param", "self_ns", "ms"),
    ("pell.redei_pow.self_ms", "pell.redei_pow", "self_ns", "ms"),
    ("pell.redei_pow.exp_bits", "pell.redei_pow", "exp_bits", "bits"),
    ("pell.param_pow.self_ms", "pell.param_pow", "self_ns", "ms"),
    ("pell.param_mul.calls", "pell.param_mul", "calls", "count"),
    ("scheme.reduced_private_exponents.self_ms", "scheme.reduced_private_exponents", "self_ns", "ms"),
    ("scheme.reduced_private_exponents.calls", "scheme.reduced_private_exponents", "calls", "count"),
    ("scheme.decrypt.self_ms", "scheme.decrypt", "self_ns", "ms"),
    ("scheme.decrypt_point.self_ms", "scheme.decrypt_point", "self_ns", "ms"),
    ("scheme.validate_message.self_ms", "scheme.validate_message", "self_ns", "ms"),
    ("scheme.keygen.self_s", "scheme.keygen", "self_ns", "s"),
    ("arith.crt_combine.self_ms", "arith.crt_combine", "self_ns", "ms"),
    ("arith.crt_combine.calls", "arith.crt_combine", "calls", "count"),
    ("arith.jacobi.self_ms", "arith.jacobi", "self_ns", "ms"),
    ("arith.jacobi.calls", "arith.jacobi", "calls", "count"),
    ("arith.mod_inv.self_ms", "arith.mod_inv", "self_ns", "ms"),
    ("arith.mod_inv.calls", "arith.mod_inv", "calls", "count"),
    ("arith.is_probable_prime.self_ms", "arith.is_probable_prime", "self_ns", "ms"),
    ("arith.is_probable_prime.calls", "arith.is_probable_prime", "calls", "count"),
    ("arith.gen_prime.self_s", "arith.gen_prime", "self_ns", "s"),
    ("keyfmt.load_private_key.self_ms", "keyfmt.load_private_key", "self_ns", "ms"),
    ("keyfmt.load_public_key.self_ms", "keyfmt.load_public_key", "self_ns", "ms"),
    ("keyfmt.load_ciphertext.self_ms", "keyfmt.load_ciphertext", "self_ns", "ms"),
    ("keyfmt.dump_ciphertext.self_ms", "keyfmt.dump_ciphertext", "self_ns", "ms"),
    ("attacks.full_factorization.self_ms", "attacks.full_factorization", "self_ns", "ms"),
    ("attacks.find_factor.calls", "attacks.find_factor", "calls", "count"),
    ("attacks.find_factor.self_ms", "attacks.find_factor", "self_ns", "ms"),
    ("attacks.find_factor.success_ratio", "attacks.find_factor", "successes", "ratio"),
)

# Gated metrics.  Raw latencies swing with the host's speed phases (p50 by
# ~25% between 20-s runs of decrypt-2048-r3), so the gate uses the summed
# time of the interleaved RSA baselines over the summed request time; raw
# percentiles are in the report.
END_TO_END_UNITS = {
    "speedup_vs_rsa_ladder": "ratio",
    "speedup_vs_rsa_pow": "ratio",
    "setup_s": "s",
}

_SCALE = {"ms": 1e6, "s": 1e9}


def _unit(label):
    return label.rsplit("_", 1)[1]


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _metric(value, unit, samples=None):
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def _seeded(workload, seed, tag):
    return random.Random(f"pellbench/{workload.name}/{seed}/{tag}")


def setup_workload(workload, seed):
    """Set up SETUP_REPEATS times from distinct sub-seeds; keep the first.

    Returns the state and the median set-up time in seconds.  Only the
    program's work (key generation and input encryption) is timed.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        rng = _seeded(workload, seed, f"setup{rep}")
        start = time.perf_counter_ns()
        state = workload.setup(rng)
        times.append((time.perf_counter_ns() - start) / 1e9)
        if rep == 0:
            first = state
    return first, statistics.median(times)


def setup_baselines(workload, state, seed):
    """One RSA key per distinct Pell modulus size, with RSA_INPUTS ciphertext pairs."""
    rng = _seeded(workload, seed, "rsa")
    baselines = {}
    for key in state["keys"]:
        bits = key.pub.n.bit_length()
        if bits in baselines:
            continue
        rsa = rsa_baseline.make_rsa_key(bits, rng)
        plains = [(rng.randrange(2, rsa.n), rng.randrange(2, rsa.n)) for _ in range(RSA_INPUTS)]
        cipher = [tuple(rsa_baseline.encrypt(rsa, m) for m in pair) for pair in plains]
        baselines[bits] = (rsa, plains, cipher)
    return baselines


class Pass:
    """Records of one measured pass over request indices 0..count-1."""

    def __init__(self):
        self.request_ns = []
        self.parts = {}  # label -> list of ns
        self.outputs = []
        self.failures = {}  # class name -> count
        self.failed_at = []  # request indices
        self.rsa_ns = {"ladder": 0, "pow": 0}
        self.rsa_pairs = 0  # per RSA version
        self.rsa_wrong = 0
        self.wall_s = 0.0

    @property
    def count(self):
        return len(self.request_ns)

    def rsa_pair_ns(self, kind):
        """Mean time of one baseline pair-decrypt."""
        return self.rsa_ns[kind] / self.rsa_pairs

    @property
    def failed(self):
        return sum(self.failures.values())


def run_pass(workload, state, baselines, seconds, tracer=None):
    """Closed loop over request indices 0, 1, ... for ``seconds``.

    A round is one request and ``workload.rsa_pairs`` baseline pair-decrypts
    per RSA version, split around the request.  With a tracer, each request
    runs a second time right after, traced, so the overhead is measured in
    pairs and a slow phase of the host cancels.
    Returns the untraced and the traced records (None without a tracer).
    """
    rec = Pass()
    traced = Pass() if tracer is not None else None
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    i = 0
    while i < MIN_REQUESTS or clock() < deadline:
        # baseline pairs on both sides of the request, so they sample the
        # host's speed around it; an odd count puts the extra one first on
        # odd rounds and last on even rounds
        before = (workload.rsa_pairs + i % 2) // 2
        _baseline_block(workload, state, baselines, i, range(before), rec)
        _timed_request(workload, state, i, rec)
        _baseline_block(workload, state, baselines, i, range(before, workload.rsa_pairs), rec)
        if tracer is not None:
            tracer.request = i
            with tracer:
                _timed_request(workload, state, i, traced)
            tracer.request = tracing.SETUP_REQUEST
        i += 1
    rec.wall_s = (clock() - start) / 1e9
    return rec, traced


def _baseline_block(workload, state, baselines, i, slots, rec):
    rsa, plains, cipher = baselines[workload.key_for(state, i).pub.n.bit_length()]
    clock = time.perf_counter_ns
    for k in slots:
        j = (i * workload.rsa_pairs + k) % len(plains)
        for kind, decrypt in _RSA_VERSIONS[(i + k) % 2]:
            t0 = clock()
            out = decrypt(rsa, cipher[j])
            rec.rsa_ns[kind] += clock() - t0
            rec.rsa_wrong += out != plains[j]
        rec.rsa_pairs += 1


_LADDER = ("ladder", rsa_baseline.decrypt_pair_ladder)
_POW = ("pow", rsa_baseline.decrypt_pair_pow)
_RSA_VERSIONS = ((_LADDER, _POW), (_POW, _LADDER))


def _timed_request(workload, state, i, rec):
    t0 = time.perf_counter_ns()
    try:
        value, parts = workload.request(state, i)
    except PellRsaError as err:
        rec.request_ns.append(time.perf_counter_ns() - t0)
        outcome, value, parts = type(err).__name__, ("error", type(err).__name__), ()
    else:
        rec.request_ns.append(time.perf_counter_ns() - t0)
        outcome = None if workload.check(state, i, value) else "wrong_plaintext"
    rec.outputs.append(value)
    for label, ns in parts:
        rec.parts.setdefault(label, []).append(ns)
    if outcome is not None:
        rec.failures[outcome] = rec.failures.get(outcome, 0) + 1
        rec.failed_at.append(i)


def named_metrics(workload, rec, setup_s):
    """The workload's own metric names, each with its unit and sample count."""
    out = {}
    series = dict(rec.parts)
    if workload.request_label == "session":
        series["session_ms"] = rec.request_ns
    for label, values in sorted(series.items()):
        unit = _unit(label)
        scaled = [v / _SCALE[unit] for v in values]
        out[f"{label}.p50"] = _metric(statistics.median(scaled), unit, len(scaled))
        if len(scaled) >= 2:
            out[f"{label}.p90"] = _metric(_p90(scaled), unit, len(scaled))
    total_ns = sum(rec.request_ns)
    verified_per_s = (rec.count - rec.failed) / (total_ns / 1e9)
    out[f"{workload.request_label}_per_s"] = _metric(verified_per_s, "1/s", rec.count)
    mean_ns = total_ns / rec.count
    for kind in ("ladder", "pow"):
        out[f"speedup_vs_rsa_{kind}"] = _metric(rec.rsa_pair_ns(kind) / mean_ns, "ratio", rec.count)
    out["fail_frac"] = _metric(rec.failed / rec.count, "ratio", rec.count)
    out["setup_s"] = _metric(setup_s, "s", SETUP_REPEATS)
    return out


def per_layer(tracer, count):
    table = tracer.per_request()
    requests = range(count)
    setup = table.get(tracing.SETUP_REQUEST, {})
    out = {}
    for name, span, field, unit in PER_LAYER:
        if unit == "s":
            value = setup.get(span, {}).get(field, 0) / 1e9
        elif unit == "ratio":
            rows = [table[r][span] for r in requests if span in table.get(r, {})]
            calls = sum(row["calls"] for row in rows)
            value = sum(row.get(field, 0) for row in rows) / calls if calls else 0
        else:
            value = tracing.request_median(table, requests, span, field)
            if unit == "ms":
                value /= 1e6
        out[name] = _metric(value, unit)
    return out


def _git_rev(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _meta(workload, state, seed, root):
    return {
        "workload": workload.name,
        "seed": seed,
        "git_rev": _git_rev(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pellrsa": os.path.relpath(Path(pellrsa.__file__).resolve().parent, root),
        "keys": [key.shape for key in state["keys"]],
        "clients": 1,
        "loop": "closed",
    }


def run_workload(name, seed, seconds, trace, root, spans_dir=None, bits=None):
    """Run one workload; returns (result line, report) as dicts."""
    workload = make_workloads(bits)[name]
    state, setup_s = setup_workload(workload, seed)
    baselines = setup_baselines(workload, state, seed)
    for i in range(WARMUP_REQUESTS):
        workload.request(state, i)

    report = {"meta": _meta(workload, state, seed, root)}
    tracer = tracing.Tracer(MODULES) if trace else None
    if tracer is not None:
        with tracer:
            traced_state = workload.setup(_seeded(workload, seed, "setup0"))
    rec, traced = run_pass(workload, state, baselines, seconds, tracer)
    named = named_metrics(workload, rec, setup_s)
    if isinstance(workload, DecryptWorkload):
        # the paper's operation-count model, printed as information only
        r = len(workload.exponents)
        for kind in ("ladder", "pow"):
            named[f"speedup_vs_rsa_{kind}"]["paper_r2_over_2"] = r * r / 2
    correct = not rec.failed and not rec.rsa_wrong
    if hasattr(workload, "strict_probe"):
        # untimed and untraced; a known defect's share, reported beside the run
        probe = workload.strict_probe(_seeded(workload, seed, "strict"))
        report["strict_key_probe"] = probe
        correct = correct and not probe["unexpected_failures"]
    if tracer is None:
        metrics = {name: _metric(named[name]["value"], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        leftovers = tracing.leftover_wrappers(MODULES)
        identical = traced.outputs == rec.outputs and traced_state == state
        overhead_ns = sum(traced.request_ns) - sum(rec.request_ns)
        report["trace"] = {
            "outputs_bit_identical": identical,
            "left_patched": leftovers,
            "absent": tracer.absent,
            "spans": len(tracer.spans),
            "overhead_ms_per_request": overhead_ns / rec.count / 1e6,
            "overhead_frac": overhead_ns / sum(rec.request_ns),
        }
        if spans_dir is not None:
            path = Path(spans_dir) / f"spans-{name}-{seed}.jsonl"
            tracer.write(path)
            report["trace"]["spans_file"] = path.name
        metrics = per_layer(tracer, rec.count)
        correct = correct and identical and not leftovers

    report["named"] = named
    report["failures"] = dict(rec.failures)
    report["failed_at"] = rec.failed_at
    report["rsa_baseline_wrong"] = rec.rsa_wrong
    report["wall_s"] = rec.wall_s
    result = {"correct": correct, "attempted": rec.count, "failed": rec.failed, "metrics": metrics}
    return result, report
