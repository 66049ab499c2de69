"""Seeded workloads of the zetaforms benchmark: inputs, items and checks.

A workload is a batch of items drawn from the seed.  Items run one after
the other (a closed loop with one caller), each calls into the package
through its module attributes (so the tracer sees the calls), checks what
it got back, and returns a canonical record for the batch digest.

Inputs are stratified draws: each stratum lists parameters of similar cost
and the seed picks one entry per stratum (a stratum of one is fixed).
Different seeds therefore exercise different inputs while the batch cost
barely moves, which keeps run-to-run spread small enough for the
regression bounds.  Batches are sized (about 7.5 s, 12 s, 13 s and 19 s on
a 2-vCPU 2.1 GHz Xeon) so that a 30 s run repeats the first three two or
three times.  Each has an odd number of items, and the item of median cost
is fixed or has a near-equal neighbour, so item_p50_s does not depend on
the draw.

Failure classes: an item that raises, or a CLI call that exits non-zero on
a valid input, has *failed*.  An item whose output contradicts a check has
produced a *wrong* result; ``CheckFailed`` marks that case.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpc, mpf

# every module is imported here, so set-up covers the whole cold import
import zetaforms
from zetaforms import cli, criterion, diophantine, highprec, saddle, symbolic  # noqa: F401
from zetaforms import linear_forms as lf


class CheckFailed(Exception):
    """The program returned an output that a check shows to be wrong."""


class OperationFailed(Exception):
    """The program did not complete an operation on a valid input."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Item:
    label: str
    run: Callable[[object], object]     # prep result -> JSON-able record


@dataclass
class Batch:
    prep: Callable[[], object] | None
    items: list[Item]


def _draw(rng: random.Random, strata: list[list]) -> list:
    """One entry per stratum, in stratum order.  The order stays fixed
    because items share caches (power sums, Bernoulli numbers, zeta
    values): the first item pays for them, always the same one."""
    return [rng.choice(s) for s in strata]


def _forms(spec: lf.FormSpec):
    table = lf.table_for(spec)
    return table, lf.zeta_form_plain(table), lf.zeta_form_derived(table)


# ---------------------------------------------------------------------------
# exact-tables: partial fractions, zeta forms and the exact structural checks

EXACT_STRATA = [[(13, 2, 8), (13, 2, 9)], [(41, 6, 4)], [(13, 2, 14)],
                [(13, 2, 17), (13, 2, 18)], [(13, 2, 20), (13, 2, 21)]]


def _exact_item(spec: lf.FormSpec) -> Item:
    def run(_prep):
        table, plain, derived = _forms(spec)
        check(table.c1_sum() == 0, "order-1 residues do not sum to zero")
        check(plain.zeta_coeffs == derived.zeta_coeffs, "plain and derived l_i differ")
        check(sorted(plain.zeta_coeffs) == list(range(3, spec.a + 1, 2)),
              "zeta slots are not the odd arguments 3..a")
        for form in (plain, derived):
            check(lf.denominator_check(form).passed,
                  f"d_2n^(a+2) does not clear the {form.kind} form")
            check(lf.verify_partial_sum_identity(table, form, spec.n + 2),
                  f"partial-sum identity fails for the {form.kind} form")
        return [lf.form_to_json(plain), lf.form_to_json(derived)]

    return Item(f"forms{(spec.a, spec.r, spec.n)}", run)


def exact_tables(rng: random.Random, workdir: str) -> Batch:
    return Batch(None, [_exact_item(lf.FormSpec(*p)) for p in _draw(rng, EXACT_STRATA)])


# ---------------------------------------------------------------------------
# residual-grid: certified series values against the exact forms

RESIDUAL_CTX = (250, 25)
RESIDUAL_BOUND = mpf("1e-150")
RESIDUAL_STRATA = [
    [(7, 1, 1), (9, 1, 1), (11, 1, 1)],         # Laurent route
    [(13, 1, 6)],                               # direct route, 4k terms
    [(13, 1, 4), (11, 1, 6)],                   # direct route, 32.7k terms
]


def _residual_item(spec: lf.FormSpec) -> Item:
    def run(_prep):
        _table, plain, derived = _forms(spec)
        ctx = highprec.PrecisionContext(*RESIDUAL_CTX)
        out = []
        for form in (plain, derived):
            res = highprec.form_residual(form, ctx)
            check(res < RESIDUAL_BOUND,
                  f"{form.kind} residual {mp.nstr(res, 5)} is not below 1e-150")
            out.append(lf.form_to_json(form))
        return out

    return Item(f"residual{(spec.a, spec.r, spec.n)}", run)


def residual_grid(rng: random.Random, workdir: str) -> Batch:
    return Batch(None, [_residual_item(lf.FormSpec(*p)) for p in _draw(rng, RESIDUAL_STRATA)])


# ---------------------------------------------------------------------------
# rate-sweep: measure_rates along n at a = 13, r = 2 (direct summation)

RATE_A, RATE_R = 13, 2
RATE_STRATA = [[20, 21], [25], [30, 31]]


def _log_plain_sum(a: int, r: int, n: int) -> float:
    """log S_n in float64 from log-gamma values of the summand, a route
    independent of the package's term-ratio recursion."""
    base = (a - 6 * r) * math.lgamma(2 * n + 1)
    t = (2 * r + 1) * n + 1
    top, acc = -math.inf, 0.0          # running maximum and sum of exp(term - top)
    while True:
        lr = (base + 3 * (math.lgamma(t - n) - math.lgamma(t - (2 * r + 1) * n))
              + 3 * (math.lgamma(t + n + 1 + 2 * r * n) - math.lgamma(t + n + 1))
              - a * (math.lgamma(t + n + 1) - math.lgamma(t - n)))
        if lr > top:
            acc, top = acc * math.exp(top - lr) + 1.0, lr
        elif lr < top - 50:            # past the peak and below 1e-21 of it
            return top + math.log(acc)
        else:
            acc += math.exp(lr - top)
        t += 1


def _rates_prep():
    data = saddle.compute_constants(RATE_A, RATE_R)
    check(data.log_eps_pp_a < data.log_eps_a < 0, "growth constants out of order")
    return data


def _rate_item(n: int) -> Item:
    def run(data):
        rep = highprec.measure_rates(RATE_A, RATE_R, [n], data)
        s = rep.samples[0]
        check(s.n == n, "sample for the wrong n")
        ref = _log_plain_sum(RATE_A, RATE_R, n) / n
        check(abs(s.log_sn_over_n - ref) < 1e-8,
              f"log|S_n|/n = {s.log_sn_over_n!r}, log-gamma route gives {ref!r}")
        check(s.sign_plain == 1, "S_n is a sum of positive terms")
        check(s.sign_pp in (1, -1) and s.log_sppn_over_n < s.log_sn_over_n,
              "S''_n is not smaller than S_n")
        return {"n": n, "log_sn_over_n": f"{s.log_sn_over_n:.10e}",
                "log_sppn_over_n": f"{s.log_sppn_over_n:.10e}", "sign_pp": s.sign_pp}

    return Item(f"rates(n={n})", run)


def rate_sweep(rng: random.Random, workdir: str) -> Batch:
    return Batch(_rates_prep, [_rate_item(n) for n in _draw(rng, RATE_STRATA)])


# ---------------------------------------------------------------------------
# checkers: CLI certificates, shipped fixtures, property batches

FIXTURES = sorted(
    os.path.join("src", "zetaforms", "data", f)
    for f in os.listdir(os.path.join(os.path.dirname(zetaforms.__file__), "data"))
    if f.endswith(".json"))
# 10^4 permutation tables in many small items: they are most of the items,
# so item_p50_s is the median of one homogeneous group
PERM_CHUNKS, PERM_TABLES = 100, 100
SMALL_CHUNKS, SMALL_SIZE = 4, 500


def _cli(argv: list[str], out: str) -> tuple[int, dict | None]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", out])
    if not os.path.exists(out):
        return code, None
    with open(out) as fh:
        return code, json.load(fh)


def _r_of_a(a: int) -> int:
    with mp.workdps(50):
        raw = int(mp.floor(a * mp.exp(-mp.sqrt(mp.log(a)))))
    return max(1, min(raw, a // 6))


def _q_scaled_residual(a: int, c: int, x) -> mpf:
    lhs = (x + c) ** 3 * (x - 1) ** (a + 3)
    rhs = (x - c) ** 3 * (x + 1) ** (a + 3)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def _asymptotics_item(a: int, workdir: str) -> Item:
    def run(_prep):
        code, doc = _cli(["asymptotics", "--a", str(a)], os.path.join(workdir, f"saddle-{a}.json"))
        if code != 0 or doc is None:
            raise OperationFailed(f"exit {code}")
        r = _r_of_a(a)
        check(doc["schema"] == "zetaforms/saddle-certificate@1" and doc["a"] == a
              and doc["r"] == r, "certificate for the wrong (a, r)")
        check(doc["pass"] and doc["eps_a_lt_1"] and doc["eps_pp_lt_eps"],
              "certificate does not assert eps'' < eps < 1")
        c = 2 * r + 1
        with mp.workdps(doc["precision_dps"]):
            mu1 = mpf(doc["mu1"])
            tau0 = mpc(doc["tau0"]["re"], doc["tau0"]["im"])
            check(mu1 > c and _q_scaled_residual(a, c, mu1) < mpf("1e-20"),
                  "mu1 is not a root of Q above 2r+1")
            check(tau0.real > 0 and tau0.imag > 0 and _q_scaled_residual(a, c, tau0) < mpf("1e-20"),
                  "tau0 is not a root of Q in the upper-right quadrant")
            rec = {k: mp.nstr(mpf(doc[k]), 15)
                   for k in ("mu1", "log_eps_a", "log_eps_pp_a", "omega_a", "phi_a")}
            rec["tau0"] = mp.nstr(tau0, 15)
            check(mpf(doc["log_eps_pp_a"]) < mpf(doc["log_eps_a"]) < 0,
                  "growth constants out of order")
        return {"a": a, "r": r, **rec}

    return Item(f"asymptotics --a {a}", run)


def _rank_bound_item(a: int, workdir: str) -> Item:
    def run(_prep):
        code, doc = _cli(["rank-bound", "--a", str(a)], os.path.join(workdir, f"rank-{a}.json"))
        if doc is None:
            raise OperationFailed(f"exit {code} without a certificate")
        r = _r_of_a(a)
        check(doc["schema"] == "zetaforms/rank-bound-certificate@1" and doc["a"] == a
              and doc["r"] == r, "certificate for the wrong (a, r)")
        # the float fields tie from a ~ 1e10 on; only their order is checked here
        check(doc["log_eps_pp_a"] <= doc["log_eps_a"] < 0, "growth constants out of order")
        with mp.workdps(30):
            log_beta = (2 * (a + 2) + 2 * (a - 6 * r) * mp.log(2)
                        + 6 * (2 * r + 1) * mp.log(2 * r + 1))
            tau1 = -(2 * (a + 2) + mpf(doc["log_eps_a"])) / log_beta
            tau2 = -(2 * (a + 2) + mpf(doc["log_eps_pp_a"])) / log_beta
            for key, ref in (("log_beta", log_beta), ("tau1", tau1), ("tau2", tau2),
                             ("bound", 2 + tau1 + tau2)):
                check(abs(doc[key] - ref) <= 1e-12 * abs(ref), f"{key} disagrees with its formula")
        check(0 < doc["tau1"] <= doc["tau2"], "exponents not positive and ordered")
        if code != 0:                   # every odd a >= 7 is a valid input
            raise OperationFailed(f"exit {code} on a valid certificate")
        return {"a": a, "r": r, **{k: f"{doc[k]:.12e}" for k in ("tau1", "tau2", "bound")}}

    return Item(f"rank-bound --a {a}", run)


def _fixture_item(path: str, workdir: str) -> Item:
    def run(_prep):
        with open(path) as fh:
            instance = json.load(fh)
        code, doc = _cli(["criterion", "--in", path],
                         os.path.join(workdir, "criterion-" + os.path.basename(path)))
        if code != 0 or doc is None:
            raise OperationFailed(f"exit {code}")
        check(doc["schema"] == "zetaforms/criterion-report@1" and doc["kind"] == instance["kind"]
              and doc["pass"], "report does not pass")
        if instance["kind"] == "rational_rank":
            check(doc["routes_agree"] and doc["rank"] == instance["expected_rank"],
                  "rank differs from the fixture's expected rank")
        return {k: v for k, v in doc.items() if k != "provenance"}

    return Item(f"criterion --in {os.path.basename(path)}", run)


def _perm_item(seed: int) -> Item:
    def run(_prep):
        rng = random.Random(seed)
        ks = []
        for _ in range(PERM_TABLES):
            k = rng.randint(2, 5)
            table, phi, n0 = criterion.random_smallness_table(rng, k)
            rep = criterion.permutation_product_check(table, phi, n0, k)
            check(rep.hypothesis_ok and rep.conclusion_holds,
                  "permutation product inequality fails on a table meeting the hypothesis")
            check(len(rep.rows) == math.factorial(k), "not every permutation was checked")
            ks.append(k)
        return {"seed": seed, "ks": "".join(map(str, ks))}

    return Item(f"permutation batch {seed:#x}", run)


def _coeff_item(seed: int) -> Item:
    def run(_prep):
        rng = random.Random(seed)
        for _ in range(SMALL_SIZE):
            k = rng.randint(1, 4)
            inst, phi, n0 = criterion.random_signed_instance(rng, k)
            lambdas = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(k)]
            check(criterion.coefficient_bound_check(inst, lambdas, n0, phi).passed,
                  "coefficient bound fails on a hypothesis-satisfying instance")
        return {"seed": seed}

    return Item(f"coefficient batch {seed:#x}", run)


def _rank_item(seed: int) -> Item:
    def run(_prep):
        rng = random.Random(seed)
        ranks = []
        for _ in range(SMALL_SIZE):
            k, p, nsym = rng.randint(1, 4), rng.randint(1, 8), rng.randint(1, 4)
            fld = symbolic.SymbolField(symbols=("1",) + tuple(f"s{i}" for i in range(1, nsym)))
            cols = [[{s: Fraction(rng.randint(1, 5) * rng.choice((-1, 1)), rng.randint(1, 4))
                      for s in fld.symbols if rng.random() < 0.35}
                     for _ in range(k)] for _ in range(p)]
            res = symbolic.rational_rank(cols, fld)
            check(res.routes_agree and 0 <= res.rank <= min(p, k * nsym),
                  "rank routes disagree or rank out of range")
            ranks.append(res.rank)
        return {"seed": seed, "ranks": "".join(map(str, ranks))}

    return Item(f"rank batch {seed:#x}", run)


def _test_vector_item(triples: list[tuple[int, int, int]]) -> Item:
    def run(_prep):
        out = []
        for a, n, N in triples:
            res = symbolic.generate_test_vector(a, n, N)
            check(res.verified and (res.n_verified, res.N_verified) == (n, N),
                  f"test vector ({a},{n},{N}) misses its rank pair")
            out.append([a, n, N, res.patched])
        return out

    return Item("test vectors a in (7, 9, 11)", run)


def checkers(rng: random.Random, workdir: str) -> Batch:
    a_values = [rng.randrange(10 ** e + 1, 10 ** (e + 1), 2) for e in range(3, 13)]
    items = [_asymptotics_item(a, workdir) for a in a_values]
    items += [_rank_bound_item(a, workdir) for a in a_values]
    items += [_fixture_item(p, workdir) for p in FIXTURES]
    items += [_perm_item(rng.getrandbits(48)) for _ in range(PERM_CHUNKS)]
    items += [_coeff_item(rng.getrandbits(48)) for _ in range(SMALL_CHUNKS)]
    items += [_rank_item(rng.getrandbits(48)) for _ in range(SMALL_CHUNKS)]
    triples = [(a, n, N) for a in (7, 9, 11) for n in range(1, (a + 1) // 2 + 1)
               for N in range(n + 1, min(2 * n + 1, (a + 3) // 2) + 1)]
    items.append(_test_vector_item(triples))
    return Batch(None, items)


WORKLOADS = {
    "exact-tables": exact_tables,
    "residual-grid": residual_grid,
    "rate-sweep": rate_sweep,
    "checkers": checkers,
}


def make_batch(name: str, seed: int, workdir: str) -> Batch:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
