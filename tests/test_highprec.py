import math
from fractions import Fraction
from functools import partial

import pytest
from mpmath import mp, mpf
import mpmath

from zetaforms import highprec
from zetaforms.highprec import (
    DOUBLE_DERIVED,
    PLAIN,
    PrecisionContext,
    _elementary_tail_bound_log10,
    _em_tail_range,
    eval_S_direct,
    eval_S_form,
    form_residual,
    measure_rates,
    zeta_value,
)
from zetaforms.linear_forms import (FormSpec, build_summand, half_second_derivative_exact,
                                   table_for, zeta_form_derived, zeta_form_plain)
from zetaforms.saddle import compute_constants

from oracles import bernoulli_exact, direct_sum_mpf, em_at_per_term


CTX = PrecisionContext(digits=60, guard=20)


def test_precision_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(digits=40)
    with pytest.raises(ValueError):
        PrecisionContext(digits=60, guard=5)


def test_zeta_rejects_bad_s():
    with pytest.raises(ValueError):
        zeta_value(1, CTX)
    with pytest.raises(ValueError):
        zeta_value(0, CTX)


def test_zeta_2_and_4_against_pi_identities():
    with mp.workdps(CTX.workdps):
        assert abs(zeta_value(2, CTX) - mp.pi ** 2 / 6) < mpf(10) ** -CTX.digits
        assert abs(zeta_value(4, CTX) - mp.pi ** 4 / 90) < mpf(10) ** -CTX.digits


def test_zeta_3_twenty_digits_against_direct_summation_oracle():
    # oracle: plain summation with integral tail bound, at modest precision
    with mp.workdps(40):
        direct = mpf(0)
        N = 120000
        for m in range(1, N):
            direct += mpf(m) ** -3
        tail_hi = mpf(N) ** -3 + mpf(N) ** -2 / 2     # f(N) + int_N^inf x^-3 dx
        z3 = zeta_value(3, CTX)
        assert direct < z3 < direct + tail_hi
        assert abs(z3 - mpf("1.20205690315959428540")) < mpf(10) ** -20


def test_zeta_matches_mpmath_oracle():
    for s in (2, 3, 5, 8, 13, 40):
        with mp.workdps(CTX.workdps):
            assert abs(zeta_value(s, CTX) - mpmath.zeta(s)) < mpf(10) ** -CTX.digits


def test_zeta_cache_meets_each_callers_digits():
    # both contexts work at 150 digits; the 100-digit value cached by the
    # first must not be returned to the second, which asks for 140
    highprec._ZETA_CACHE.clear()
    zeta_value(3, PrecisionContext(100, 50))
    v = zeta_value(3, PrecisionContext(140, 10))
    with mp.workdps(300):
        assert abs(v - mpmath.zeta(3)) < mpf(10) ** -140


def test_zeta_certified_at_rate_sweep_budgets():
    # measure_rates asks for zeta values at about 600-900 digits on the
    # rate-sweep batch and at 1705 digits for criterion 6; the direct part
    # runs on integers at the scale of the target
    highprec._ZETA_CACHE.clear()
    for digits, exponents in ((300, (2, 3, 5, 21, 45)), (450, (2, 3, 5, 21, 45)),
                              (600, (2, 3, 5, 21, 45)), (900, (2, 3, 5, 21, 45)),
                              (1705, (3,))):
        ctx = PrecisionContext(digits=digits, guard=20)
        for s in exponents:
            v = zeta_value(s, ctx)
            with mp.workdps(digits + 50):
                assert abs(v - mpmath.zeta(s)) < mpf(10) ** -digits


def test_tangent_bernoulli_numbers_equal_exact_oracle():
    # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for every 2k <= 1200
    for k in range(1, 601):
        b = Fraction((-1) ** (k - 1) * 2 * k * highprec._tangent(k), 4 ** k * (4 ** k - 1))
        assert b == bernoulli_exact(2 * k), k


def test_tangent_table_started_at_low_precision_serves_higher_ones(monkeypatch):
    # the tangent numbers are started by a 120-digit zeta value and then
    # read at 400 and 1705 digits; being exact, they must still give every
    # zeta value to its own tolerance
    monkeypatch.setattr(highprec, "_TANGENT", [])
    monkeypatch.setattr(highprec, "_TANGENT_STAGES", [])
    monkeypatch.setattr(highprec, "_ZETA_CACHE", {})
    held = []
    for digits in (120, 400, 1705):
        ctx = PrecisionContext(digits=digits, guard=20)
        v = zeta_value(5, ctx)
        held.append(len(highprec._TANGENT))
        with mp.workdps(digits + 50):
            assert abs(v - mpmath.zeta(5)) < mpf(10) ** -digits
    assert 0 < held[0] < held[1] < held[2]


def _old_em_point(x0, needed):
    # the fixed rule the cost estimate replaced
    return max(x0, int(0.46 * -min(t for _, t in needed)) + 8)


@pytest.mark.parametrize("digits", [300, 900, 1705])
def test_em_point_costs_no_more_than_fixed_rule_for_zeta(digits, monkeypatch):
    monkeypatch.setattr(highprec, "_EM_TABLE", None)
    needed = [(3, -(digits + 4))]
    with mp.workdps(digits + 20):
        cost = highprec._em_cost(1, needed)
        assert cost(highprec._em_point(1, needed)) <= cost(_old_em_point(1, needed))


@pytest.mark.parametrize("abc", [(9, 1, 1), (13, 2, 5)])
def test_em_point_costs_no_more_than_fixed_rule_for_laurent_tails(abc, monkeypatch):
    # every expansion point chosen for the Laurent tails of criterion 1's
    # residuals, priced against the fixed rule in the same state
    real = highprec._em_point
    costs = []

    def spy(x0, needed):
        X = real(x0, needed)
        if x0 > 1:
            cost = highprec._em_cost(x0, needed)
            costs.append((cost(X), cost(_old_em_point(x0, needed))))
        return X

    monkeypatch.setattr(highprec, "_em_point", spy)
    table = table_for(FormSpec(*abc))
    for form in (zeta_form_plain(table), zeta_form_derived(table)):
        form_residual(form, PrecisionContext(250, 25))
    assert costs
    for chosen, fixed in costs:
        assert chosen <= fixed


def test_zeta_table_at_rate_sweep_budget_stays_small(monkeypatch):
    # at 899 digits the fixed rule X = 423 built 555 coefficients
    monkeypatch.setattr(highprec, "_ZETA_CACHE", {})
    monkeypatch.setattr(highprec, "_EM_TABLE", None)
    ctx = PrecisionContext(digits=899, guard=20)
    for s in range(3, 16, 2):
        zeta_value(s, ctx)
    assert len(highprec._EM_TABLE.c) <= 300


def test_power_sum_tail_matches_mpmath_hurwitz():
    # single-s power-sum tails sum_{m >= start} m^-s, up to s = 120,
    # against the Hurwitz zeta function
    for s, start in ((3, 7), (9, 48), (25, 240), (120, 64)):
        with mp.workdps(CTX.workdps):
            (mine,) = _em_tail_range(s, s, start, [-64])
        with mp.workdps(120):
            # the expansion and the direct part each within 10^-64
            assert abs(mine - mpmath.zeta(s, start)) < 3 * mpf(10) ** -64


def test_em_tail_range_consistent_with_scalar():
    # one shared range of exponents against the Hurwitz zeta function
    with mp.workdps(80):
        vals = _em_tail_range(9, 40, 48, [-70] * 32)
    with mp.workdps(120):
        for val, s in zip(vals, range(9, 41)):
            assert abs(val - mpmath.zeta(s, 48)) < 3 * mpf(10) ** -70


def test_em_tail_range_rejects_bad_input():
    with pytest.raises(ValueError):
        _em_tail_range(1, 3, 5, [-50] * 3)
    with pytest.raises(ValueError):
        _em_tail_range(3, 3, 0, [-50])
    with pytest.raises(ValueError):
        _em_tail_range(3, 5, 5, [-50])
    with pytest.raises(ValueError, match="no exponent"):
        _em_tail_range(3, 5, 5, [None] * 3)


def test_em_tail_range_against_per_term_oracle_at_two_precisions(monkeypatch):
    # the expansion point is held at x0 = 600, so both calls expand at
    # X = 600 and have no direct part.  The 120-digit call runs first: its
    # coefficient table, read again at 400 digits, would hold only about
    # 120 good digits there.
    X, lo, hi = 600, 2, 24
    monkeypatch.setattr(highprec, "_em_point", lambda x0, needed: x0)
    for dps in (120, 400):
        tol = -(dps - 10)
        with mp.workdps(dps):
            vals = _em_tail_range(lo, hi, X, [tol] * (hi - lo + 1))
            # the expansion stops at a power of two at or below 10^tol
            stop = mpf(2) ** math.floor(tol * math.log2(10))
            for s, val in zip(range(lo, hi + 1), vals):
                ref, bound = em_at_per_term(s, X, stop)
                assert bound is not None
                assert abs(val - ref) < mpf(10) ** (tol - 5)
        with mp.workdps(dps + 50):
            for s, val in zip(range(lo, hi + 1), vals):
                assert abs(val - mpmath.zeta(s, X)) < mpf(10) ** tol


def _assert_laurent_tail_meets_hurwitz_oracle(lt, kind, K, T, tol):
    # the tail is sum_i w_i zeta(s_i, T) with w_i = b_i (plain) or
    # b_i s(s+1)/2 and the exponent shifted by 2 (derived)
    with mp.workdps(110):
        val = lt.tail_value(kind, K, T, tol)
    shift = 0 if kind == PLAIN else 2
    with mp.workdps(220):
        ref = mpf(0)
        for i, b in enumerate(lt.b[:K]):
            s = lt.D + i
            w = b if kind == PLAIN else b * s * (s + 1) // 2
            ref += w * mpmath.zeta(s + shift, T)
        assert abs(val - ref) < mpf(10) ** tol


@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_laurent_tail_value_against_hurwitz_oracle(kind):
    # (7,1,6) has Laurent coefficients up to 1e76
    lt = highprec._laurent_for(FormSpec(7, 1, 6))
    _assert_laurent_tail_meets_hurwitz_oracle(lt, kind, 64, 48, -100)


@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_laurent_tail_value_expands_only_nonzero_weights(kind, monkeypatch):
    # every other Laurent coefficient of (9,1,1) is 0; those exponents
    # are neither expanded nor certified
    lt = highprec._laurent_for(FormSpec(9, 1, 1))
    K = 64
    lt.extend(K)
    shift = 0 if kind == PLAIN else 2
    nonzero = [lt.D + i + shift for i, b in enumerate(lt.b[:K]) if b]
    assert 0 < len(nonzero) < K
    expanded = []
    real = highprec._em_at

    def spy(s, X, tol):
        expanded.append(s)
        return real(s, X, tol)

    monkeypatch.setattr(highprec, "_em_at", spy)
    _assert_laurent_tail_meets_hurwitz_oracle(lt, kind, K, 48, -100)
    assert expanded == nonzero


def test_em_tail_range_meets_tolerances_tighter_than_working_precision():
    # Laurent coefficients up to 1e72 push the per-s tolerances to 1e-140,
    # far below the 60-digit working precision; the direct part must be
    # summed at the scale of the hardest tolerance, not of the context
    lt = highprec._laurent_for(FormSpec(7, 1, 6))
    K, wdps = 64, 60
    lt.extend(K)
    spread = math.log10(K) + 2
    tols = [-wdps - (highprec._ilog10(abs(b)) if b else 0) - spread for b in lt.b[:K]]
    assert min(tols) < -2 * wdps
    with mp.workdps(wdps):
        vals = _em_tail_range(lt.D, lt.D + K - 1, 48, tols)
    with mp.workdps(3 * wdps):
        for val, s, tol in zip(vals, range(lt.D, lt.D + K), tols):
            ref = mpmath.zeta(s, 48)
            # the tolerance, plus the rounding of the value to wdps digits
            assert abs(val - ref) <= mpf(10) ** tol + abs(ref) * mpf(10) ** (1 - wdps)


def _exact_head(spec, kind, t0, T):
    if kind == PLAIN:
        term = build_summand(spec).eval_exact
    else:
        term = partial(half_second_derivative_exact, table_for(spec))
    return sum((term(t) for t in range(t0, T)), Fraction(0))


@pytest.mark.parametrize("abc", [(7, 1, 1), (9, 1, 2), (13, 1, 2)])
@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_direct_sum_certificate_against_exact_sum(abc, kind):
    # at these scales the floor errors are within a few times their bound:
    # the bound must cover the distance to the exact rational sum, and
    # stay a few thousand units (a vacuous bound would pass the first check)
    spec = FormSpec(*abc)
    t0 = build_summand(spec).first_nonzero_term()
    T = 200
    exact = _exact_head(spec, kind, t0, T)
    for P in (64, 160, 400):
        head, err = highprec._direct_sum(spec, kind, t0, T, P)
        assert abs(Fraction(head, 1 << P) - exact) <= Fraction(err, 1 << P)
        assert err < 2 ** 13


@pytest.mark.parametrize("abc", [(13, 1, 6), (7, 1, 1), (7, 1, 2), (7, 1, 3)])
def test_direct_sum_agrees_with_mpf_oracle(abc):
    ctx = PrecisionContext(digits=250, guard=25)
    spec = FormSpec(*abc)
    t0 = build_summand(spec).first_nonzero_term()
    for kind in (PLAIN, DOUBLE_DERIVED):
        res = eval_S_direct(spec, kind, ctx)
        P = res.work_bits
        head, err = highprec._direct_sum(spec, kind, t0, res.split_T, P)
        # the oracle runs 40 digits above the head's scale, so its own
        # rounding is far below the kernel's bound
        with mp.workdps(ctx.workdps + 40):
            ref = direct_sum_mpf(spec, kind, t0, res.split_T)
            assert abs(mp.ldexp(head, -P) - ref) <= mp.ldexp(err, -P)
        assert res.tail_bound_log10 < -ctx.digits
        if res.method == "direct":
            with mp.workdps(ctx.workdps + 40):
                assert abs(res.value - ref) <= mpf(10) ** res.tail_bound_log10


def test_S1_positive_and_truncation_stable():
    spec = FormSpec(a=7, r=1, n=1)
    res = eval_S_direct(spec, PLAIN, CTX)
    assert res.value > 0
    assert res.tail_bound_log10 < -(CTX.digits)
    # doubling the requested tail tolerance must not move reported digits
    res2 = eval_S_direct(spec, PLAIN, CTX, abs_tol_log10=2 * res.tail_bound_log10)
    assert abs(res.value - res2.value) < mpf(10) ** (-CTX.digits + 2)


def test_elementary_bound_is_actually_an_upper_bound():
    # compare the bound at T against the exactly summed stretch [T, 4T)
    from zetaforms.linear_forms import build_summand

    spec = FormSpec(a=7, r=1, n=1)
    s = build_summand(spec)
    T = 64
    with mp.workdps(40):
        chunk = mpf(0)
        for t in range(T, 4 * T):
            v = s.eval_exact(t)
            chunk += mpf(v.numerator) / mpf(v.denominator)
        assert math.log10(float(chunk)) < _elementary_tail_bound_log10(spec, PLAIN, T)


def _residual_and_sides(form, ctx, monkeypatch):
    """form_residual with the two EvalResults it compares."""
    sides = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            sides.append(res)
            return res
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(highprec, "eval_S_direct", spy(highprec.eval_S_direct))
        m.setattr(highprec, "eval_S_form", spy(highprec.eval_S_form))
        residual = form_residual(form, ctx)
    direct, exact = sides
    assert exact.method == "form"
    return residual, direct, exact


def _assert_residuals_within_bounds(spec, route, monkeypatch):
    # the residual is below the sum of the two sides' certified bounds
    ctx = PrecisionContext(digits=200, guard=25)
    table = table_for(spec)
    for form in (zeta_form_plain(table), zeta_form_derived(table)):
        residual, direct, exact = _residual_and_sides(form, ctx, monkeypatch)
        assert direct.method == route
        assert residual < mpf(10) ** -150
        with mp.workdps(30):
            assert residual < mpf(10) ** direct.tail_bound_log10 + mpf(10) ** exact.tail_bound_log10


def test_residuals_at_200_digits_for_712(monkeypatch):
    _assert_residuals_within_bounds(FormSpec(a=7, r=1, n=2), "direct+laurent", monkeypatch)


def test_residuals_within_bounds_on_direct_route(monkeypatch):
    _assert_residuals_within_bounds(FormSpec(13, 1, 5), "direct", monkeypatch)


def test_laurent_and_direct_paths_agree():
    # small decay exponent forces the Laurent path; compare against the
    # direct path at a spec where both are feasible
    spec = FormSpec(a=13, r=1, n=2)      # decay 13 + 4*7 = 41: direct feasible
    ctx = PrecisionContext(digits=80, guard=20)
    direct = eval_S_direct(spec, PLAIN, ctx)
    lt_res = None
    from zetaforms import highprec

    from zetaforms.linear_forms import build_summand

    lt = highprec._laurent_for(spec)
    t0 = build_summand(spec).first_nonzero_term()
    P = math.ceil(ctx.workdps * math.log2(10)) + 64
    head, _err = highprec._direct_sum(spec, PLAIN, t0, 64, P)
    with mp.workdps(ctx.workdps):
        head = mp.ldexp(head, -P)
        K = 96
        while lt.tail_bound_log10(PLAIN, K, 64) > -100:
            K *= 2
        tail = lt.tail_value(PLAIN, K, 64, -100)
        lt_res = head + tail
    assert abs(direct.value - lt_res) < mpf(10) ** -75


def test_derived_eval_uses_no_numerical_differentiation():
    # the derived series value must match the exact linear form, which is
    # only possible if the second derivative is realized exactly
    ctx = PrecisionContext(digits=120, guard=20)
    spec = FormSpec(a=9, r=1, n=1)
    table = table_for(spec)
    d = zeta_form_derived(table)
    res = eval_S_direct(spec, DOUBLE_DERIVED, ctx)
    with mp.workdps(ctx.workdps):
        target = d.evaluate(lambda s: zeta_value(s, ctx))
        assert abs(res.value - target) < mpf(10) ** -100


@pytest.fixture(scope="module")
def saddle_13_2():
    return compute_constants(13, 2)


@pytest.mark.parametrize("n", [20, 21])
def test_rates_form_route_matches_direct_summation(n, saddle_13_2):
    # the target measure_rates sets at n, and the working precision the
    # direct series needs for it (S''_n cancels from eps_a^n to eps''_a^n)
    L, Lpp = float(saddle_13_2.log_eps_a), float(saddle_13_2.log_eps_pp_a)
    tol = n * Lpp / math.log(10) - 34
    digits = int(n * (L - Lpp) / math.log(10)) + 64
    spec = FormSpec(13, 2, n)
    table = table_for(spec)
    sample = measure_rates(13, 2, [n], saddle_13_2).samples[0]
    assert sample.method == "form"
    logs = {}
    for form in (zeta_form_plain(table), zeta_form_derived(table)):
        need = highprec._log10_abs_sum(form.all_coefficients()) - tol
        via_form = eval_S_form(form, PrecisionContext(math.ceil(need) + 20, 20))
        assert via_form.method == "form" and via_form.tail_bound_log10 < tol
        direct = eval_S_direct(spec, form.kind, PrecisionContext(digits, 20),
                               abs_tol_log10=tol, wdps=digits + 20)
        # the terms rise far above the first one here: the head is summed
        # again at a larger scale so that its rounding meets the target
        assert direct.method == "direct" and direct.tail_bound_log10 < tol
        with mp.workdps(via_form.zeta_digits + 20):
            diff = abs(via_form.value - direct.value)
            assert diff < mpf(10) ** via_form.tail_bound_log10 + mpf(10) ** direct.tail_bound_log10
            logs[form.kind] = float(mp.log(abs(direct.value))) / n
    assert sample.log_sn_over_n == logs[PLAIN]
    assert sample.log_sppn_over_n == logs[DOUBLE_DERIVED]


def test_rates_certify_twenty_significant_digits(saddle_13_2):
    # the amplitude of S''_37 is about e^-58: a target of n log10 eps'' - 34
    # left it 8 significant digits and the last bits of log|S''_n|/n wrong
    rep = measure_rates(13, 2, [37], saddle_13_2)
    s = rep.samples[0]
    _plain, derived = highprec._rate_forms(FormSpec(13, 2, 37))
    ref = eval_S_form(derived, PrecisionContext(s.zeta_digits + 60, 20))
    with mp.workdps(ref.zeta_digits + 20):
        ref_log = float(mp.log(abs(ref.value))) / 37
        size = float(mp.log10(abs(ref.value)))
    assert s.log_sppn_over_n == ref_log == -16.325575542102705
    assert s.bound_log10_pp < size - 20
    assert s.bound_log10_plain < s.log_sn_over_n * 37 / math.log(10) - 20


def test_rates_raise_budget_when_target_is_too_loose(saddle_13_2, monkeypatch):
    # a target at the scale of eps_a^n leaves S''_n below the zeta errors;
    # the 20-digit check must catch that and evaluate again
    from dataclasses import replace

    good = measure_rates(13, 2, [20], saddle_13_2).samples[0]
    calls = []
    real = highprec.eval_S_form

    def spy(form, ctx):
        calls.append((form.kind, ctx.digits))
        return real(form, ctx)

    monkeypatch.setattr(highprec, "eval_S_form", spy)
    loose = replace(saddle_13_2, log_eps_pp_a=saddle_13_2.log_eps_a)
    raised = measure_rates(13, 2, [20], loose).samples[0]
    derived = [d for kind, d in calls if kind == DOUBLE_DERIVED]
    assert len(derived) == 2 and derived[1] > derived[0]
    assert [d for kind, d in calls if kind == PLAIN] == derived[:1]
    assert raised.zeta_digits == derived[1]
    assert raised.log_sppn_over_n == good.log_sppn_over_n
    assert raised.sign_pp == good.sign_pp
