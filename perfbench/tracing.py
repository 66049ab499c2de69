"""Span tracing for the benchmark, installed from outside the program.

Each layer is a set of public functions.  ``Tracer.install`` replaces every
one of them, on the module attribute that its callers look up at call
time, with a wrapper that records a span (name, start, end, parent, run
id) and, for a few layers, a work counter read off the returned object.
Spans stay in memory until the round ends; ``self_times`` turns them into
per-layer self seconds and call counts.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter


def _coeff_bits(counters, bound, table):
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in table.coeffs.values())
    counters["linear_forms.coeff_bits_max"] = max(counters["linear_forms.coeff_bits_max"], bits)


def _eval_work(counters, bound, res):
    wdps = bound.arguments.get("wdps") or bound.arguments["ctx"].workdps
    counters["highprec.direct.terms"] += res.terms
    counters["highprec.direct.term_digits"] += res.terms * wdps
    if res.method == "direct":
        counters["highprec.route.direct"] += 1
    else:
        counters["highprec.route.laurent"] += 1
        counters["highprec.laurent.K_sum"] += res.laurent_K


def _newton_steps(counters, bound, res):
    counters["saddle.newton_steps"] += res[1]["newton_steps"]


def _permutations(counters, bound, report):
    counters["criterion.permutations_checked"] += len(report.rows)


# layer name -> (targets as "module:attribute", counter read from the result)
LAYERS = {
    "linear_forms.partial_fractions": (["zetaforms.linear_forms:partial_fractions"], _coeff_bits),
    "linear_forms.zeta_forms": (["zetaforms.linear_forms:zeta_form_plain",
                                 "zetaforms.linear_forms:zeta_form_derived"], None),
    "linear_forms.checks": (["zetaforms.linear_forms:denominator_check",
                             "zetaforms.linear_forms:verify_partial_sum_identity"], None),
    "highprec.measure_rates": (["zetaforms.highprec:measure_rates"], None),
    "highprec.form_residual": (["zetaforms.highprec:form_residual"], None),
    "highprec.eval_S_direct": (["zetaforms.highprec:eval_S_direct"], _eval_work),
    "highprec.laurent.build": (["zetaforms.highprec:LaurentTail.__init__",
                                "zetaforms.highprec:LaurentTail.extend"], None),
    "highprec.laurent.tail_value": (["zetaforms.highprec:LaurentTail.tail_value"], None),
    "highprec.zeta_value": (["zetaforms.highprec:zeta_value"], None),
    "saddle.compute_constants": (["zetaforms.saddle:compute_constants",
                                  "zetaforms.criterion:compute_constants"], None),
    "saddle.find_mu1": (["zetaforms.saddle:find_mu1"], _newton_steps),
    "saddle.find_tau0": (["zetaforms.saddle:find_tau0"], _newton_steps),
    "criterion.permutation_product_check": (["zetaforms.criterion:permutation_product_check"],
                                            _permutations),
    "criterion.zeta_rank_bound": (["zetaforms.criterion:zeta_rank_bound"], None),
    "symbolic.rational_rank": (["zetaforms.symbolic:rational_rank"], None),
    "diophantine.projective_distance_sweep": (["zetaforms.diophantine:projective_distance_sweep"],
                                              None),
    "diophantine.type2_box_check": (["zetaforms.diophantine:type2_box_check"], None),
    "cli.main": (["zetaforms.cli:main"], None),
    "certificates.write_json": (["zetaforms.cli:write_json"], None),
}

# counter name -> unit
COUNTERS = {
    "linear_forms.coeff_bits_max": "bits",
    "highprec.direct.terms": "count",
    "highprec.direct.term_digits": "count",
    "highprec.route.direct": "count",
    "highprec.route.laurent": "count",
    "highprec.laurent.K_sum": "count",
    "saddle.newton_steps": "count",
    "criterion.permutations_checked": "count",
}


class Tracer:
    """In-memory span recorder; one per round."""

    def __init__(self, run_id: str, clock):
        self.run_id = run_id
        self.clock = clock              # seconds, without the speed probe's own time
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def _wrap(self, name, orig, count):
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if count is not None:
                count(self.counters, sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self) -> None:
        for name, (targets, count) in LAYERS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counters": {k: self.counters[k] for k in COUNTERS},
        }


def self_times(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Per span name: (self seconds, calls).  Self time is the span's
    duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    out: dict[str, list] = {}
    for i, sp in enumerate(spans):
        acc = out.setdefault(sp["name"], [0.0, 0])
        acc[0] += sp["end"] - sp["start"] - child_time[i]
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}
