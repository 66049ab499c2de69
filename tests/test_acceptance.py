"""Acceptance suite: one section per criterion, printed pass/fail lines.

Shared expensive computations (the verification grid, the saddle
certificates, the long rate sweep) are session-scoped fixtures.  The
asymptotic windows (phi -> -2pi/3, the rank-bound ratio) are limits as
a -> infinity; each is asserted at a certificate point where its limit
has set in, and that point's root certificates are asserted with it.
Everything must be green.
"""
import math
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from zetaforms.criterion import (
    permutation_product_check,
    coefficient_bound_check,
    random_smallness_table,
    random_signed_instance,
    zeta_rank_bound,
)
from zetaforms.diophantine import type2_box_check, sqrt2_convergents, projective_distance_sweep
from zetaforms.highprec import PrecisionContext, measure_rates
from zetaforms.linear_forms import (
    FormSpec,
    coeff_growth,
    denominator_check,
    table_for,
    zeta_form_derived,
    zeta_form_plain,
)
from zetaforms.saddle import compute_constants, r_of_a
from zetaforms.symbolic import (
    SymbolField,
    generate_test_vector,
    gutnik_log2_columns,
    rational_rank,
)

GRID = [(a, r) for a in (7, 9, 11, 13) for r in (1, 2) if 6 * r <= a]
N_RANGE = range(1, 7)
# The large-a certificate points: the construction requires odd a, so the
# 1e3 / 1e4 / 1e5 scale points are the nearest odd integers.
BIG_A = (1001, 10001, 100001)
# phi -> -2pi/3 needs a Im(tau0) / r -> 0, which sets in near a ~ 1e8.
PHI_CHAIN = BIG_A + (10**7 + 1, 10**8 + 1)
# The 6(2r+1) log(2r+1) share of log beta dies out only like
# e^{-sqrt(log a)}; the rank-bound ratio reaches its window near a ~ 1e16.
RANK_CHAIN = (100001, 10**8 + 1, 10**12 + 1, 10**16 + 1)


def announce(line: str) -> None:
    print(f"\n[acceptance] {line}", flush=True)


@pytest.fixture(scope="module")
def grid_forms():
    out = {}
    for a, r in GRID:
        for n in N_RANGE:
            spec = FormSpec(a=a, r=r, n=n)
            table = table_for(spec)
            out[spec] = (table, zeta_form_plain(table), zeta_form_derived(table))
    return out


@pytest.fixture(scope="module")
def grid_residuals(grid_forms):
    from zetaforms.highprec import form_residual

    ctx = PrecisionContext(digits=250, guard=25)
    started = time.time()
    residuals = {}
    seconds = {}
    for spec, (_table, plain, derived) in grid_forms.items():
        spec_started = time.time()
        residuals[spec] = (form_residual(plain, ctx), form_residual(derived, ctx))
        seconds[spec] = time.time() - spec_started
    slowest = max(seconds, key=seconds.get)
    return residuals, time.time() - started, (slowest, seconds[slowest])


@pytest.fixture(scope="module")
def saddle_certs():
    return {a: compute_constants(a, r_of_a(a)) for a in sorted({*PHI_CHAIN, *RANK_CHAIN})}


def roots_certified(data) -> bool:
    """mu1 and tau0 are roots of Q (scaled residuals) on the right branch
    (angle identity)."""
    return (data.mu1_residual < mpf(10) ** -30
            and data.tau0_residual < mpf(10) ** -30
            and abs(data.angle_identity_residual) < mpf(10) ** -20)


@pytest.fixture(scope="module")
def rate_report():
    data = compute_constants(13, 2)
    started = time.time()
    rep = measure_rates(13, 2, list(range(20, 61)), data)
    return rep, time.time() - started


def test_criterion_1_linear_form_identity(grid_residuals):
    residuals, elapsed, (slowest, slowest_s) = grid_residuals
    tol = mpf(10) ** -150
    worst = max(max(p, d) for p, d in residuals.values())
    ok = all(p < tol and d < tol for p, d in residuals.values())
    announce(f"criterion 1 (linear-form identity, {len(residuals)} specs, "
             f"worst residual {mp.nstr(worst, 3)}, {elapsed:.0f}s, slowest spec "
             f"{(slowest.a, slowest.r, slowest.n)} {slowest_s:.1f}s): "
             f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"worst residual {worst}"
    assert elapsed < 300, f"grid took {elapsed:.0f}s, target < 5 min"


def test_criterion_2_structural_exactness(grid_forms):
    ok = True
    for spec, (table, plain, derived) in grid_forms.items():
        if table.c1_sum() != 0:
            ok = False
        for i in range(2, spec.a + 1, 2):
            if table.column_sum(i) != 0:
                ok = False
        if plain.zeta_coeffs != derived.zeta_coeffs:
            ok = False
    announce(f"criterion 2 (structural exactness over {len(grid_forms)} specs): "
             f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_3_denominators(grid_forms):
    ok = True
    for spec, (_t, plain, derived) in grid_forms.items():
        if not denominator_check(plain).passed or not denominator_check(derived).passed:
            ok = False
    announce(f"criterion 3 (d_2n^(a+2) clears all coefficients): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_4_growth():
    ok = True
    details = []
    for a, r in ((7, 1), (13, 2)):
        rep = coeff_growth(a, r, range(1, 13), slack=0.5)
        details.append(f"(a={a},r={r}): max={max(v for _n, v in rep.rows):.3f} "
                       f"bound={rep.bound_log:.3f}")
        if not rep.passed:
            ok = False
    announce(f"criterion 4 (coefficient growth; {'; '.join(details)}): "
             f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_saddle_certificates(saddle_certs):
    ok = True
    lines = []
    for a, data in saddle_certs.items():
        r = data.r
        resid_ok = (data.mu1_residual < mpf(10) ** -30
                    and data.tau0_residual < mpf(10) ** -30)
        identity_ok = abs(data.angle_identity_residual) < mpf(10) ** -20
        eps_ok = data.log_eps_pp_a < data.log_eps_a < 0
        with mp.workdps(data.dps):
            bound_log = 6 * (r + 1) * mp.log(2) - 2 * (a - 6 * r) * mp.log(r)
        eps_bound_ok = data.log_eps_a <= bound_log
        steps = "/".join(str(data.certificates[k]["newton_steps"]) for k in ("mu1", "tau0"))
        lines.append(f"a={a}: residuals {'ok' if resid_ok else 'BAD'}, "
                     f"identity {'ok' if identity_ok else 'BAD'}, "
                     f"eps ordering {'ok' if eps_ok else 'BAD'}, "
                     f"eps bound {'ok' if eps_bound_ok else 'BAD'}, "
                     f"Newton steps mu1/tau0 {steps}")
        ok = ok and resid_ok and identity_ok and eps_ok and eps_bound_ok
    announce(f"criterion 5 (saddle certificates; {'; '.join(lines)}): "
             f"{'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_5_phi_window(saddle_certs):
    # phi_a within 0.15 of -2pi/3 once a Im(tau0) / r is small, drift decreasing.
    dists = []
    for a in PHI_CHAIN:
        data = saddle_certs[a]
        with mp.workdps(40):
            d = float(min(abs(data.phi_a + 2 * mp.pi / 3),
                          2 * mp.pi - abs(data.phi_a + 2 * mp.pi / 3)))
        dists.append(d)
    last = saddle_certs[PHI_CHAIN[-1]]
    with mp.workdps(40):
        premise = float(last.a * mp.im(last.tau0) / last.r)
    certified = roots_certified(last)
    drift_ok = all(d0 > d1 for d0, d1 in zip(dists, dists[1:]))
    premise_ok = premise < 0.1
    window_ok = dists[-1] <= 0.15
    ok = certified and drift_ok and premise_ok and window_ok
    announce(f"criterion 5 (phi -> -2pi/3 over a={list(PHI_CHAIN)}: distances "
             f"{[f'{d:.3g}' for d in dists]}, drift decreasing {drift_ok}; at a={last.a}: "
             f"roots certified {certified}, a Im(tau0)/r = {premise:.3g}, "
             f"window {window_ok}): {'PASS' if ok else 'FAIL'}")
    assert certified, f"root certificates fail at a={last.a}"
    assert drift_ok, dists
    assert premise_ok, (
        f"a Im(tau0) / r = {premise:.3g} at a={last.a}: the convergence "
        "phi -> -2pi/3 requires it to tend to 0, so the window is not yet in force here."
    )
    assert window_ok, (
        f"phi at a={last.a} sits {dists[-1]:.3g} from -2pi/3, outside the 0.15 window."
    )


def test_criterion_6_slope(rate_report):
    rep, elapsed = rate_report
    slope = rep.fit_slope(20, 40)
    rel = abs(slope - rep.log_eps_a) / abs(rep.log_eps_a)
    ok = rel < 0.15
    announce(f"criterion 6 (slope {slope:.4f} vs log eps {rep.log_eps_a:.4f}, "
             f"rel {rel:.3f}, sweep {elapsed:.0f}s): {'PASS' if ok else 'FAIL'}")
    assert ok, (slope, rep.log_eps_a)
    assert elapsed < 600, f"rate sweep took {elapsed:.0f}s, target < 10 min"


def test_criterion_6_sign_agreement(rate_report):
    # The absolute-value law fixes (omega, phi) only mod a simultaneous pi
    # shift; the integer summation step carries phase exp(f'(tau0)) = -1, so
    # the signed law lives at (omega + pi, phi + pi) (SaddleData.omega_signed,
    # phi_signed).  The literal pair matches exactly the odd n.
    rep, _elapsed = rate_report
    rate, m, c = rep.sign_agreement(20, 60)
    srate, sm, sc = rep.sign_agreement(20, 60, signed_law=True)
    ok = srate >= 0.8
    announce(f"criterion 6 (sign vs signed law cos(n(omega+pi) + phi+pi): "
             f"{sm}/{sc} = {srate:.2f}; literal cos(n omega + phi): {m}/{c} = {rate:.2f}): "
             f"{'PASS' if ok else 'FAIL'}")
    assert ok, (
        f"sign(S''_n) matches the signed law cos(n(omega_a+pi) + phi_a+pi) at rate "
        f"{srate:.2f} < 0.8 (literal pair: {rate:.2f})."
    )


def test_criterion_7_rank_bound_arithmetic(saddle_certs):
    certs = {a: zeta_rank_bound(a, saddle_data=saddle_certs[a]) for a in RANK_CHAIN}
    last = RANK_CHAIN[-1]
    c = certs[last]
    certified = roots_certified(saddle_certs[last])
    distinct_ok = mpf(c["tau_gap"]) > 0 and c["tau1"] > 0 and c["tau2"] > 0
    ratios = [certs[a]["bound_over_reference"] for a in RANK_CHAIN]
    increasing_ok = all(x0 < x1 for x0, x1 in zip(ratios, ratios[1:]))
    window = c["bound_over_intermediate"]
    window_ok = 0.8 < window < 1.2
    ok = certified and distinct_ok and increasing_ok and window_ok
    announce(f"criterion 7 (rank bound at a={last}: roots certified {certified}, "
             f"tau1={c['tau1']:.4f} tau2={c['tau2']:.4f} gap={c['tau_gap']} "
             f"bound={c['bound']:.4f}, bound/intermediate={window:.4f}, "
             f"bound/reference over a={list(RANK_CHAIN)}: {[f'{x:.3f}' for x in ratios]}): "
             f"{'PASS' if ok else 'FAIL'}")
    assert certified, f"root certificates fail at a={last}"
    assert distinct_ok, c
    assert increasing_ok, ratios
    assert window_ok, (
        f"bound / (2 log r / (1 + log 2)) = {window:.4f} outside (0.8, 1.2) at a={last}. "
        "The bound uses log beta with the 6(2r+1) log(2r+1) term, whose share dies "
        "out only like e^{-sqrt(log a)}."
    )


def test_criterion_8_property_suites():
    rng = random.Random(20260808)
    started = time.time()
    perm_bad = 0
    for _ in range(10_000):
        k = rng.randint(2, 5)
        table, phi, n0 = random_smallness_table(rng, k)
        rep = permutation_product_check(table, phi, n0, k)
        if not rep.hypothesis_ok or not rep.conclusion_holds:
            perm_bad += 1
    coeff_bad = 0
    for _ in range(1_000):
        k = rng.randint(1, 4)
        inst, phi, n0 = random_signed_instance(rng, k)
        lambdas = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(k)]
        if not coefficient_bound_check(inst, lambdas, n0, phi).passed:
            coeff_bad += 1
    rank_bad = 0
    for _ in range(1_000):
        k = rng.randint(1, 4)
        p = rng.randint(1, 8)
        nsym = rng.randint(1, 4)
        fld = SymbolField(symbols=("1",) + tuple(f"s{i}" for i in range(1, nsym)))
        cols = []
        for _ in range(p):
            col = []
            for _ in range(k):
                ent = {}
                for s in fld.symbols:
                    if rng.random() < 0.35:
                        v = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        if v:
                            ent[s] = v
                col.append(ent)
            cols.append(col)
        res = rational_rank(cols, fld)
        if not res.routes_agree:
            rank_bad += 1
    gut = rational_rank(*gutnik_log2_columns())
    gut_ok = gut.rank == 4
    vectors_ok = True
    for a in (7, 9, 11):
        for n in range(1, (a + 1) // 2 + 1):
            for N in range(n + 1, min(2 * n + 1, (a + 3) // 2) + 1):
                if not generate_test_vector(a, n, N).verified:
                    vectors_ok = False
    ok = (perm_bad == 0 and coeff_bad == 0 and rank_bad == 0 and gut_ok and vectors_ok)
    elapsed = time.time() - started
    announce(f"criterion 8 (property suites: permutation suite 10^4 tables bad={perm_bad}, "
             f"coefficient bound 10^3 bad={coeff_bad}, rank routes 10^3 bad={rank_bad}, "
             f"gutnik rank {gut.rank}, test vectors {'ok' if vectors_ok else 'BAD'}; "
             f"{elapsed:.1f}s): {'PASS' if ok else 'FAIL'}")
    assert ok
    # 1.3-1.5 s on a 2-vCPU host; the bound is 4x that, to pass slow spells
    assert elapsed < 6.0, f"property suites took {elapsed:.1f}s"


def test_criterion_9_diophantine_windows():
    golden = (1 + math.sqrt(5)) / 2
    th = projective_distance_sweep(golden, tau=1.0, eps=0.2, p_max=10**6)
    cs = sqrt2_convergents(28)
    with mp.workdps(60):
        xi_sqrt2 = mp.sqrt(2)
    t2 = type2_box_check(xis=[xi_sqrt2], forms=[[p, q] for p, q in cs],
                         qseq=[q for _p, q in cs], taus=[1.0], eps=0.2, Q=100)
    ok = th.passed and t2.passed and t2.hypothesis_ok
    announce(f"criterion 9 (distance sweep checked {th.checked} points, "
             f"violations {len(th.violations)}; type-II boxes {t2.boxes_checked}, "
             f"violations {len(t2.violations)}): {'PASS' if ok else 'FAIL'}")
    assert ok
