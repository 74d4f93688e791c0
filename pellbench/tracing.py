"""In-memory span tracing around the public functions of each pellrsa layer.

The library itself carries no instrumentation: the tracer replaces module
attributes with timing wrappers for the traced pass and puts the originals
back afterwards.  ``scheme``, ``attacks`` and ``keyfmt`` bind imported
names at import time, so a function is wrapped in every layer module whose
namespace holds it, which is where its callers look it up; patching only
the defining module would record nothing for those callers.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``.  A span's
self time is its duration minus the durations of its direct children.
Counts taken from call arguments (exponent and modulus bit lengths) and
from results (useful factoring splits) are summed per request.
"""

import functools
import json
import statistics
import time

TRACED = {
    "scheme": (
        "keygen",
        "validate_message",
        "encrypt",
        "encrypt_point",
        "decrypt",
        "decrypt_point",
        "reduced_private_exponents",
    ),
    "pell": ("point_pow", "param_to_point", "point_to_param", "redei_pow", "param_pow", "param_mul"),
    "arith": ("crt_combine", "jacobi", "mod_inv", "is_probable_prime", "gen_prime"),
    "keyfmt": ("load_private_key", "load_public_key", "load_ciphertext", "dump_ciphertext"),
    "attacks": ("full_factorization", "find_factor"),
}


def _exp_and_mod_bits(args):
    return {"exp_bits": args[1].bit_length(), "mod_bits": args[2].modulus.bit_length()}


# Counts read from a call's arguments, by span name.
ARG_COUNTS = {
    "pell.point_pow": _exp_and_mod_bits,
    "pell.redei_pow": _exp_and_mod_bits,
}

# Counts read from a call's result, by span name.
RESULT_COUNTS = {
    "attacks.find_factor": lambda result: {"successes": 1 if result else 0},
}

SETUP_REQUEST = "setup"


class Tracer:
    """Owns the spans of one traced pass and the patches that produce them."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> imported module
        self.spans = []
        self.counts = {}  # (request, span name, count name) -> summed value
        self.request = SETUP_REQUEST
        self._stack = []
        self._wrappers = {}  # original function -> its tracing wrapper
        self._patches = []  # (module, attribute, original) while installed
        self.absent = []
        for layer, names in TRACED.items():
            for attr in names:
                fn = modules[layer].__dict__.get(attr)
                if fn is None:
                    self.absent.append(f"{layer}.{attr}")
                else:
                    self._wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        arg_counts, result_counts = ARG_COUNTS.get(name), RESULT_COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_counts is not None:
                self._count(name, arg_counts, args)
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[1] = start
                stack.pop()
            if result_counts is not None:
                self._count(name, result_counts, result)
            return result

        traced.pellbench_traced = True
        return traced

    def _count(self, name, extract, value):
        try:
            values = extract(value)
        except (AttributeError, IndexError, TypeError):
            return  # a later signature: the count is reported as absent
        for key, v in values.items():
            slot = (self.request, name, key)
            self.counts[slot] = self.counts.get(slot, 0) + v

    def install(self):
        """Wrap each traced function wherever a layer module holds it."""
        for module in self.modules.values():
            for key, value in list(module.__dict__.items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Spans as JSON lines: name, start_ns, end_ns, parent index, request id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def per_request(self):
        """{request: {span name: {"self_ns", "calls", <counts>...}}}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = {}
        for i, (name, start, end, _, request) in enumerate(self.spans):
            row = table.setdefault(request, {}).setdefault(name, {"self_ns": 0, "calls": 0})
            row["self_ns"] += end - start - child_ns[i]
            row["calls"] += 1
        for (request, name, key), value in self.counts.items():
            row = table.setdefault(request, {}).setdefault(name, {"self_ns": 0, "calls": 0})
            row[key] = row.get(key, 0) + value
        return table


def leftover_wrappers(modules):
    """Module attributes that are still tracing wrappers; empty once restored."""
    return [
        f"{module.__name__}.{key}"
        for module in modules.values()
        for key, value in module.__dict__.items()
        if getattr(value, "pellbench_traced", False)
    ]


def request_median(table, requests, name, field):
    """Median over the requests that called ``name`` of the per-request total."""
    rows = [table[r][name] for r in requests if name in table.get(r, {})]
    values = [row[field] for row in rows if field in row]
    return statistics.median(values) if values else 0
