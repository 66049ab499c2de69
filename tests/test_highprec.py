import logging
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
from zetaforms.linear_forms import (FormSpec, Summand, build_summand,
                                   half_second_derivative_exact, table_for, zeta_form_derived,
                                   zeta_form_plain)
from zetaforms.saddle import compute_constants

from oracles import (LinearFactorTail, bernoulli_exact, direct_sum_mpf, em_at_per_term, in_x,
                     zeta_borwein_per_s)


CTX = PrecisionContext(digits=60, guard=20)


def _em_values(x0, needed):
    """``_em_tail_range`` read as exact mpf values."""
    P, sums = _em_tail_range(x0, needed)
    return [mp.ldexp(z, -P) for z in sums]


def _pairs(exponents, tol):
    """(s, tol) for every s of ``exponents``: one tolerance for all."""
    return [(s, tol) for s in exponents]


def _tail_value(lt, kind, K, T, tol):
    """``LaurentTail.tail_value`` read as an exact mpf value."""
    Y, P = lt.tail_value(kind, K, T, tol)
    return mp.ldexp(Y, -P)


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
    # unequal guards too: the one conversion at workdps keeps 10^-digits
    for digits, guard in ((60, 20), (100, 50), (140, 10), (139, 10), (140, 40), (120, 60)):
        ctx = PrecisionContext(digits, guard)
        for s in (2, 3, 5, 8, 13, 40):
            v = zeta_value(s, ctx)
            with mp.workdps(digits + 50):
                assert abs(v - mpmath.zeta(s)) < mpf(10) ** -digits, (digits, guard, s)


def test_zeta_certified_at_rate_sweep_budgets():
    # measure_rates asks for zeta values at about 600-900 digits on the
    # rate-sweep batch and for zeta(3..15) at 1705 digits for criterion 6
    for digits, exponents in ((300, (2, 3, 5, 21, 45)), (450, (2, 3, 5, 21, 45)),
                              (600, (2, 3, 5, 21, 45)), (900, (2, 3, 5, 21, 45)),
                              (1705, tuple(range(3, 16, 2)))):
        ctx = PrecisionContext(digits=digits, guard=20)
        for s in exponents:
            v = zeta_value(s, ctx)
            with mp.workdps(digits + 50):
                assert abs(v - mpmath.zeta(s)) < mpf(10) ** -digits


def test_borwein_d_equal_factorial_oracle():
    # d_k = n sum_{i <= k} (n+i-1)! 4^i / ((n-i)! (2i)!), summed in Fractions
    for n in range(1, 41):
        d = highprec._borwein_d(n)
        assert len(d) == n + 1
        acc = Fraction(0)
        for k in range(n + 1):
            acc += Fraction(n * math.factorial(n + k - 1) * 4 ** k,
                            math.factorial(n - k) * math.factorial(2 * k))
            assert d[k] == acc, (n, k)


@pytest.mark.parametrize("digits", [60, 300, 600, 900, 1705])
def test_zeta_agrees_with_mpmath_and_euler_maclaurin_oracle(digits):
    ctx = PrecisionContext(digits=digits, guard=20)
    for s in (2, 3, 4, 5, 15, 21, 45, 120):
        v = zeta_value(s, ctx)
        with mp.workdps(ctx.workdps):
            (em,) = _em_values(1, [(s, -(digits + 4))])
        with mp.workdps(digits + 50):
            assert abs(v - mpmath.zeta(s)) < mpf(10) ** -digits, s
            assert abs(v - em) < mpf(10) ** -digits, s


def test_zeta_of_huge_s_stops_at_the_first_zero_quotient(monkeypatch):
    # zeta(4000) = 1 + 2^-4000 + ...: the quotient at k = 1 is already 0,
    # so of the table only d_0, d_1 and d_n are read
    read = []
    real = highprec._borwein_d

    class Recorder(list):
        def __getitem__(self, k):
            read.append(k)
            return list.__getitem__(self, k)

    monkeypatch.setattr(highprec, "_borwein_d", lambda n: Recorder(real(n)))
    v = zeta_value(4000, PrecisionContext(digits=300, guard=20))
    n = max(read)
    assert n > 300
    assert sorted(set(read)) == [0, 1, n]
    with mp.workdps(350):
        assert abs(v - mpmath.zeta(4000)) < mpf(10) ** -300


@pytest.mark.parametrize("digits", [60, 300, 598, 903, 1705])
def test_one_pass_equals_the_per_exponent_oracle(digits):
    # gaps 1, 2, 16 and 24, the odd exponents of the rate sweep, a gap of
    # 3997 whose larger exponent leaves the pass at k = 1, and single ones
    for exponents in ((2, 3, 5, 21, 45), tuple(range(3, 16, 2)), (3, 4000),
                      (2,), (3,), (15,), (4000,)):
        B, got = highprec._zeta_borwein(exponents, digits)
        ref = {s: zeta_borwein_per_s(s, digits) for s in exponents}
        assert got == {s: z for s, (z, _B) in ref.items()}, exponents
        assert {b for _z, b in ref.values()} == {B}, exponents


def test_zeta_value_leaves_precision_as_found():
    # three contexts, each converting at its own workdps above the 97 bits
    with mp.workprec(97):
        for digits, guard in ((200, 20), (200, 30), (100, 20)):
            zeta_value(3, PrecisionContext(digits, guard))
            assert mp.prec == 97


def test_tangent_bernoulli_numbers_equal_exact_oracle():
    # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for every 2k <= 1200
    for k in range(1, 601):
        b = Fraction((-1) ** (k - 1) * 2 * k * highprec._tangent(k), 4 ** k * (4 ** k - 1))
        assert b == bernoulli_exact(2 * k), k


@pytest.mark.parametrize("X, bits", [(1, 200), (48, 1000), (300, 2600), (1174, 3020)])
def test_em_table_entries_equal_exact_bernoulli_oracle(X, bits):
    # every C_k within 2 of d_k 2^(R_k), d_k = B_2k / (2k (2k-1)) X^(1-2k)
    # exactly, with 2^(bits-1) <= |C_k| < 2^(bits+2), at expansion points
    # and scales of the zeta oracle (X = 1, 1174) and of the Laurent tails
    table = highprec._EMTable(X, bits)
    for k in range(1, 151):
        table.extend()
        d = bernoulli_exact(2 * k) / (2 * k * (2 * k - 1)) / Fraction(X) ** (2 * k - 1)
        C, R = table.c[k - 1], table.r[k - 1]
        assert abs(C - d * Fraction(2) ** R) <= 2, k
        assert 2 ** (bits - 1) <= abs(C) < 2 ** (bits + 2), k


def test_tangent_table_started_at_low_precision_serves_higher_ones(monkeypatch):
    # the tangent numbers are started by a 120-digit zeta value from the
    # Euler-Maclaurin routine at x0 = 1 and then read at 400 and 1705
    # digits; being exact, they must still give every zeta value to its
    # own tolerance
    monkeypatch.setattr(highprec, "_TANGENT", [])
    monkeypatch.setattr(highprec, "_TANGENT_STAGES", [])
    held = []
    for digits in (120, 400, 1705):
        with mp.workdps(digits + 20):
            (v,) = _em_values(1, [(5, -(digits + 4))])
        held.append(len(highprec._TANGENT))
        with mp.workdps(digits + 50):
            assert abs(v - mpmath.zeta(5)) < mpf(10) ** -digits
    assert 0 < held[0] < held[1] < held[2]


def test_em_expansions_need_no_growth_retry(monkeypatch):
    # the expansion point is never moved by the growth retry: no expansion
    # bottoms out on the Laurent tails of criterion 1's residuals at
    # (250, 25), nor for zeta(s) at x0 = 1 from 60 to 1705 digits
    results = []
    real = highprec._em_at

    def spy(*args):
        got = real(*args)
        results.append(got)
        return got

    monkeypatch.setattr(highprec, "_em_at", spy)
    for abc in ((9, 1, 1), (13, 1, 6), (13, 2, 6)):
        table = table_for(FormSpec(*abc))
        for form in (zeta_form_plain(table), zeta_form_derived(table)):
            form_residual(form, PrecisionContext(250, 25))
    laurent = len(results)
    assert laurent
    for digits in (60, 250, 899, 1705):
        for s in (3, 5, 15):
            _em_tail_range(1, [(s, -(digits + 4))])
    assert len(results) > laurent
    assert None not in results


def test_zeta_table_at_rate_sweep_budget_stays_small(monkeypatch):
    # zeta(3..15) at 899 digits through the x0 = 1 path of _em_tail_range,
    # the tests' oracle for zeta_value, which no command runs (the rate
    # sweep takes its zeta values from _zeta_borwein); there the fixed
    # rule X = 423 built 555 coefficients
    entries = {}
    real = highprec._EMTable.extend

    def spy(table):
        entries[table] = entries.get(table, 0) + 1
        real(table)

    monkeypatch.setattr(highprec._EMTable, "extend", spy)
    with mp.workdps(899 + 20):
        for s in range(3, 16, 2):
            _em_tail_range(1, [(s, -(899 + 4))])
    assert entries and max(entries.values()) <= 300


def test_power_sum_tail_matches_mpmath_hurwitz():
    # single-s power-sum tails sum_{m >= start} m^-s, up to s = 120,
    # against the Hurwitz zeta function
    for s, start in ((3, 7), (9, 48), (25, 240), (120, 64)):
        with mp.workdps(CTX.workdps):
            (mine,) = _em_values(start, [(s, -64)])
        with mp.workdps(120):
            # the expansion and the direct part each within 10^-64
            assert abs(mine - mpmath.zeta(s, start)) < 3 * mpf(10) ** -64


def test_em_tail_range_consistent_with_scalar():
    # one shared range of exponents against the Hurwitz zeta function
    with mp.workdps(80):
        vals = _em_values(48, _pairs(range(9, 41), -70))
    with mp.workdps(120):
        for val, s in zip(vals, range(9, 41)):
            assert abs(val - mpmath.zeta(s, 48)) < 3 * mpf(10) ** -70


def test_em_tail_range_rejects_bad_input():
    with pytest.raises(ValueError):
        _em_tail_range(5, _pairs(range(1, 4), -50))
    with pytest.raises(ValueError):
        _em_tail_range(0, [(3, -50)])
    # one tolerance per s: an exponent given twice is refused
    with pytest.raises(ValueError, match="ascending"):
        _em_tail_range(5, [(3, -50), (3, -60), (5, -50)])
    with pytest.raises(ValueError, match="no exponent"):
        _em_tail_range(5, [])


@pytest.mark.parametrize("needed", [
    [(5, -50), (3, -50)],
    [(3, -50), (7, -50), (5, -50)],
    [(9, -50), (3, -50), (5, -50)],
])
def test_em_tail_range_refuses_a_list_that_does_not_ascend(needed, monkeypatch):
    # a negative gap would turn m ** gap into a float: the list is refused
    # before any power is formed
    def fail(*args):
        raise AssertionError("expanded a list that does not ascend")

    monkeypatch.setattr(highprec, "_em_at", fail)
    monkeypatch.setattr(highprec, "_em_point", fail)
    with pytest.raises(ValueError, match="ascending"):
        _em_tail_range(5, needed)


def test_em_tail_range_against_per_term_oracle_at_two_precisions(monkeypatch):
    # the expansion point is held at x0 = 600, so both calls expand at
    # X = 600 and have no direct part.  The 120-digit call runs first: a
    # coefficient table kept from it would hold only about 120 good digits
    # at 400.
    X, lo, hi = 600, 2, 24
    monkeypatch.setattr(highprec, "_em_point", lambda x0, needed: x0)
    for dps in (120, 400):
        tol = -(dps - 10)
        with mp.workdps(dps):
            vals = _em_values(X, _pairs(range(lo, hi + 1), tol))
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
        val = _tail_value(lt, kind, K, T, tol)
    shift = 0 if kind == PLAIN else 2
    with mp.workdps(220):
        ref = mpf(0)
        for i, b in enumerate(lt.b[:K // 2]):
            s = lt.D + 2 * i
            w = b if kind == PLAIN else b * s * (s + 1) // 2
            ref += w * mpmath.zeta(s + shift, T)
        assert abs(val - ref) < mpf(10) ** tol


@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_laurent_tail_value_against_hurwitz_oracle(kind):
    # (7,1,6) has Laurent coefficients up to 1e76
    lt = highprec.LaurentTail(build_summand(FormSpec(7, 1, 6)))
    _assert_laurent_tail_meets_hurwitz_oracle(lt, kind, 64, 48, -100)


@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_laurent_tail_value_expands_only_nonzero_weights(kind, monkeypatch):
    # every other Laurent coefficient of (9,1,1) is 0 and is not held;
    # only the exponents of the held nonzero ones are expanded
    lt = highprec.LaurentTail(build_summand(FormSpec(9, 1, 1)))
    K = 64
    lt.extend(K)
    shift = 0 if kind == PLAIN else 2
    nonzero = [lt.D + 2 * i + shift for i, b in enumerate(lt.b[:K // 2]) if b]
    assert 0 < len(nonzero) < K
    expanded = []
    real = highprec._em_at

    def spy(s, *args):
        expanded.append(s)
        return real(s, *args)

    monkeypatch.setattr(highprec, "_em_at", spy)
    _assert_laurent_tail_meets_hurwitz_oracle(lt, kind, K, 48, -100)
    assert expanded == nonzero


# terms ``_laurent_remainder_log10`` sums at most: it needs about 150 at
# T = 48 and D + K > 64, and a broken expansion, whose remainder does not
# fall like t^-(D+K), reaches the cap instead of running on
_REMAINDER_TERM_CAP = 1000


def _laurent_remainder_log10(lt, kind, K, T):
    """log10 |sum_{t >= T} (R - W_K)(t)| (plain) or the same of
    (1/2)(R - W_K)'' (derived), from exact values of R or (1/2) R'' and of
    W_K.  The terms fall like t^-(D+K) with D + K > 64; they are summed
    until one is 40 digits below the first, and the rest is far below the
    sum.  Fails if that takes more than _REMAINDER_TERM_CAP terms."""
    if kind == PLAIN:
        exact, weights, shift = lt.summand.eval_exact, lt.b[:K // 2], 0
    else:
        exact = partial(half_second_derivative_exact, table_for(lt.summand.spec))
        weights = [b * (s * (s + 1) // 2) for s, b in zip(range(lt.D, lt.D + K, 2), lt.b)]
        shift = 2
    top = lt.D + K - 2 + shift
    total, first = Fraction(0), None
    for t in range(T, T + _REMAINDER_TERM_CAP):
        w = 0
        for x in weights:               # W_K(t) t^top, by Horner's rule in t^2
            w = w * t * t + x
        term = exact(t) - Fraction(w, t ** top)
        total += term
        if first is None:
            first = abs(term)
        elif abs(term) < first / 10 ** 40:
            break
    else:
        raise AssertionError(f"the remainder did not fall 40 digits in {_REMAINDER_TERM_CAP} terms")
    with mp.workdps(30):
        return float(mp.log10(abs(mpf(total.numerator) / total.denominator)))


@pytest.mark.parametrize("abc, T, Ks", [
    ((7, 1, 2), 48, (64, 128)),
    ((13, 1, 4), 48, (128, 256)),
    ((11, 1, 6), 48, (256, 512)),
    ((13, 2, 3), 100, (128, 256)),
])
@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_laurent_tail_bound_against_the_remainder(abc, T, Ks, kind):
    # the bound holds, and stays within 30 digits of what it bounds (a
    # vacuous bound fails the second check)
    lt = highprec.LaurentTail(build_summand(FormSpec(*abc)))
    for K in Ks:
        bound = lt.tail_bound_log10(kind, K, T)
        remainder = _laurent_remainder_log10(lt, kind, K, T)
        assert remainder < bound < remainder + 30


@pytest.mark.parametrize("abc", [(7, 1, 1), (11, 1, 6)])
@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_laurent_tail_bound_below_the_divided_count_raises(abc, kind):
    # a tail holds only the residual of the count it is divided to: a
    # bound asked below it raises, and one at it is a fresh tail's
    summand = build_summand(FormSpec(*abc))
    lt = highprec.LaurentTail(summand)
    lt.extend(256)
    for K in (64, 255):
        with pytest.raises(ValueError):
            lt.tail_bound_log10(kind, K, 48)
    assert lt.tail_bound_log10(kind, 256, 48) == \
        highprec.LaurentTail(summand).tail_bound_log10(kind, 256, 48)


@pytest.mark.parametrize("abc", [(7, 1, 1), (11, 1, 6), (13, 1, 6), (13, 2, 6), (13, 2, 20),
                                 (21, 3, 10)])
def test_laurent_tail_in_y_equals_the_linear_factor_build(abc):
    # the build in y = 1/t^2 and its division give the coefficients, the
    # residual at every K and the certified bounds (norms from the
    # coefficients in y) of the build from linear factors divided and
    # bounded in 1/t, bit for bit
    summand = build_summand(FormSpec(*abc))
    tails = {kind: (highprec.LaurentTail(summand), LinearFactorTail(summand))
             for kind in (PLAIN, DOUBLE_DERIVED)}
    for K in (64, 128, 256):
        for kind, (lt, ref) in tails.items():
            for T in (48, 262):
                assert lt.tail_bound_log10(kind, K, T) == ref.tail_bound_log10(kind, K, T)
            assert (lt.D, lt.degQ, lt.b) == (ref.D, ref.degQ, ref.b[::2])
            assert in_x(lt._e, lt.degQ) == ref._e
    lt, ref = tails[PLAIN]
    assert in_x(lt._q, lt.degQ + 1) == ref._q_x
    assert not any(ref.b[1::2]) and all(lt.b)


@pytest.mark.parametrize("K", [1, 97])
def test_laurent_tail_refuses_an_odd_K(K):
    # K counts coefficients in x, and the tail holds every other one: an
    # odd K would end between two of them.  The routes only ask for 64 2^j
    lt = highprec.LaurentTail(build_summand(FormSpec(7, 1, 1)))
    with pytest.raises(ValueError, match="even"):
        lt.extend(K)
    with pytest.raises(ValueError, match="even"):
        lt.tail_bound_log10(PLAIN, K, 48)
    with pytest.raises(ValueError, match="even"):
        lt.tail_value(DOUBLE_DERIVED, K, 48, -100)
    assert lt.b == []


@pytest.mark.parametrize("roots", [
    ((3, 3), (2, 3)),               # no partner
    ((3, 3), (-3, 2)),              # partners of other multiplicities
])
def test_laurent_tail_refuses_roots_that_do_not_pair(roots):
    summand = Summand(spec=FormSpec(7, 1, 1), scale=1, numerator_roots=roots)
    with pytest.raises(ValueError, match="pair"):
        highprec.LaurentTail(summand)


def test_em_tail_range_meets_tolerances_tighter_than_working_precision():
    # Laurent coefficients up to 1e72 push the per-s tolerances to 1e-140,
    # far below the 60-digit working precision; the direct part must be
    # summed at the scale of the hardest tolerance, not of the context
    lt = highprec.LaurentTail(build_summand(FormSpec(7, 1, 6)))
    K, wdps = 64, 60
    lt.extend(K)
    spread = math.log10(K) + 2
    exponents = range(lt.D, lt.D + K, 2)
    tols = [-wdps - (math.log10(abs(b)) if b else 0) - spread for b in lt.b[:K // 2]]
    assert min(tols) < -2 * wdps
    with mp.workdps(wdps):
        vals = _em_values(48, list(zip(exponents, tols)))
    with mp.workdps(3 * wdps):
        for val, s, tol in zip(vals, exponents, tols):
            ref = mpmath.zeta(s, 48)
            # the tolerance, plus the rounding of the value to wdps digits
            assert abs(val - ref) <= mpf(10) ** tol + abs(ref) * mpf(10) ** (1 - wdps)


# (s, X, log10 tolerance) of criterion-1 Laurent tails at (250, 25): the
# first and last needed exponents of the (7,1,1) and (11,1,6) tails and
# points between, with X from the points those tails expand at
EM_POINTS = [(9, 528, -280.5), (264, 528, -266.7), (73, 361, -753.7), (140, 361, -600.2),
             (584, 266, -313.5), (71, 439, -541.9), (326, 399, -302.0), (300, 535, -700.4)]


def _em_point_value(s, X, tol):
    """The integer expansion at one (s, X, tol) with no direct part, at the
    scale and stop ``_em_tail_range`` gives it: (value, err, P, F)."""
    P = highprec._em_scale(tol, 0)
    F = P + math.floor(tol * math.log2(10) - highprec._EM_TOL_MARGIN)
    value, err = highprec._em_at(s, X, X ** s, P, F, highprec._EMTable(X, P))
    return value, err, P, F


@pytest.mark.parametrize("s, X, tol", EM_POINTS)
def test_integer_expansion_against_hurwitz_and_per_term_oracle(s, X, tol):
    value, err, P, F = _em_point_value(s, X, tol)
    digits = math.ceil(-tol) + 30
    with mp.workdps(digits):
        got = mp.ldexp(value, -P)
        # the expansion is sum_{m >= X} m^-s within its tolerance
        assert abs(got - mpmath.zeta(s, X)) < mpf(10) ** tol
        # the same terms in mpf, stopped at the same power of two
        ref, bound = em_at_per_term(s, X, mp.ldexp(1, F - P))
        assert bound is not None
        assert abs(got - ref) < mpf(10) ** (tol - 5)


@pytest.mark.parametrize("s, X, tol", EM_POINTS)
def test_integer_expansion_floor_error_bound(s, X, tol):
    # the returned bound covers the floors (the distance to the same terms
    # summed exactly, in mpf at far more digits) and stays below 2^-20 of
    # the tolerance, as _em_tail_range requires
    value, err, P, F = _em_point_value(s, X, tol)
    with mp.workdps(math.ceil(-tol) + 60):
        ref, _bound = em_at_per_term(s, X, mp.ldexp(1, F - P))
        actual = abs(mp.ldexp(value, -P) - ref) * mpf(2) ** P
        assert actual <= err
    assert err.bit_length() <= F - 20
    with mp.workdps(30):
        assert err * mpf(2) ** (20 - P) < mpf(10) ** tol


def test_em_tail_range_raises_the_scale_when_a_bound_misses(monkeypatch):
    # with no guard bits and no allowance the first scale leaves the
    # floor-error bounds above 2^-20 of their stops: the range is summed
    # again at a larger P, and still meets every tolerance
    monkeypatch.setattr(highprec, "_EM_GUARD", 0)
    monkeypatch.setattr(highprec, "_EM_ALLOWANCE", 1)
    scales = []
    real = highprec._em_at

    def spy(s, X, Xs, P, F, table):
        scales.append(P)
        return real(s, X, Xs, P, F, table)

    monkeypatch.setattr(highprec, "_em_at", spy)
    with mp.workdps(140):
        vals = _em_values(48, _pairs(range(9, 41), -120.0))
    assert len(set(scales)) == 2 and scales[-1] > scales[0]
    with mp.workdps(200):
        for val, s in zip(vals, range(9, 41)):
            assert abs(val - mpmath.zeta(s, 48)) < mpf(10) ** -120

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


@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_head_first_pass_bound_follows_the_error(kind):
    # the 101-term head of (13,2,20) before its Laurent tail at
    # PrecisionContext(200, 20): the first pass's floor-error bound is at
    # least the true error (from the head summed again 600 bits finer)
    # and at most 2 digits above it.  It misses the target because the
    # terms rise far above the first, which P does not see, so the second
    # pass of _head_value is needed, not an artefact of a loose bound
    spec = FormSpec(13, 2, 20)
    ctx = PrecisionContext(200, 20)
    tol = -(ctx.digits + ctx.guard // 2)
    t0 = build_summand(spec).first_nonzero_term()
    T = 2 * t0
    P = highprec._head_bits(T - t0, tol)
    head, err = highprec._direct_sum(spec, kind, t0, T, P)
    fine, fine_err = highprec._direct_sum(spec, kind, t0, T, P + 600)
    gap = abs((head << 600) - fine)
    assert gap + fine_err <= err << 600
    bound = math.log10(err) - P * math.log10(2)
    true = math.log10(gap - fine_err) - (P + 600) * math.log10(2)
    assert true <= bound <= true + 2
    assert bound > tol


def test_certified_values_do_not_depend_on_the_callers_precision():
    # zeta values, exact forms and both series routes under a 53-bit and
    # under a 3000-digit context: the same values and bounds, and the same
    # integers from the power sums and the tail
    ctx = PrecisionContext(100, 20)
    table = table_for(FormSpec(7, 1, 2))

    def run():
        out = [zeta_value(s, ctx) for s in (2, 3, 21)]
        for form in (zeta_form_plain(table), zeta_form_derived(table)):
            res = eval_S_form(form, ctx)
            out += [res.value, res.tail_bound_log10]
        laurent = eval_S_direct(FormSpec(7, 1, 2), PLAIN, ctx)
        direct = eval_S_direct(FormSpec(13, 1, 6), PLAIN, ctx)
        assert (laurent.method, direct.method) == ("direct+laurent", "direct")
        for res in (laurent, direct):
            out += [res.value, res.tail_bound_log10, res.work_bits, res.laurent_K]
        out.append(_em_tail_range(48, _pairs(range(9, 41), -70)))
        lt = highprec.LaurentTail(build_summand(FormSpec(7, 1, 6)))
        out.append(lt.tail_value(PLAIN, 64, 48, -100))
        return out

    with mp.workprec(53):
        low = run()
    with mp.workdps(3000):
        high = run()
    assert low == high


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


CRITERION_1 = PrecisionContext(250, 25)


def _criterion_1_series(spec, monkeypatch):
    """The series side of form_residual at criterion 1's precision, for the
    plain and the derived form of spec."""
    table = table_for(spec)
    return [_residual_and_sides(form, CRITERION_1, monkeypatch)[1]
            for form in (zeta_form_plain(table), zeta_form_derived(table))]


@pytest.mark.parametrize("abc, routes", [
    ((13, 1, 3), ("direct+laurent", "direct+laurent")),    # derived: 131k direct terms
    ((11, 1, 5), ("direct+laurent", "direct+laurent")),
    ((13, 1, 4), ("direct+laurent", "direct+laurent")),
    # derived: Laurent at K = 128 took 9-13 ms, the 8192 direct terms 48-85 ms
    ((13, 1, 5), ("direct", "direct+laurent")),
    # derived: Laurent at K = 128 took 14-16 ms, the 4096 direct terms 35-42 ms
    ((13, 1, 6), ("direct", "direct+laurent")),
])
def test_route_of_forms_with_a_direct_split_at_criterion_1(abc, routes, monkeypatch):
    for res, route in zip(_criterion_1_series(FormSpec(*abc), monkeypatch), routes):
        assert res.method == route


@pytest.mark.parametrize("abc, kind, ctx", [
    ((7, 1, 2), PLAIN, PrecisionContext(100, 20)),
    ((7, 1, 2), DOUBLE_DERIVED, PrecisionContext(100, 20)),
    ((9, 1, 1), PLAIN, CRITERION_1),
    ((9, 1, 1), DOUBLE_DERIVED, CRITERION_1),
    ((13, 1, 6), DOUBLE_DERIVED, CRITERION_1),
])
def test_laurent_route_bound_is_below_its_target(abc, kind, ctx):
    # tail_value certifies the tail to 10^(tol-2), and the truncation bound
    # at the route's K is below 10^tol, so the reported bound stays below
    # the target the route was chosen to meet
    res = eval_S_direct(FormSpec(*abc), kind, ctx)
    assert res.method == "direct+laurent"
    assert res.tail_bound_log10 < -(ctx.digits + ctx.guard // 2)


def test_direct_first_choice_builds_no_laurent_tail(monkeypatch):
    # (13,1,6) plain sums 4k direct terms; building its Laurent tail and
    # finding K would cost more than that
    built = []

    class Spy(highprec.LaurentTail):
        def __init__(self, summand):
            built.append(summand.spec)
            super().__init__(summand)

    monkeypatch.setattr(highprec, "LaurentTail", Spy)
    plain = zeta_form_plain(table_for(FormSpec(13, 1, 6)))
    res = _residual_and_sides(plain, CRITERION_1, monkeypatch)[1]
    assert res.method == "direct"
    assert not built


@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_route_at_large_n(kind, monkeypatch):
    # at (13,2,20) the derived series took 0.33-0.34 s by the Laurent tail
    # (K = 512, T = 212) and 1.20-1.27 s by direct summation; the plain one
    # stays direct and builds no tail.  Only the choice is made here
    spec = FormSpec(13, 2, 20)
    ctx = PrecisionContext(200, 25)
    t0 = build_summand(spec).first_nonzero_term()
    route = highprec._route(spec, kind, t0, -(ctx.digits + ctx.guard // 2))
    K = None if kind == PLAIN else 512
    assert route.K == K
    assert (route.tail is None) == (K is None)
    if K is not None:
        assert 2 * len(route.tail.b) == K


def _criterion_1_grid():
    """(spec, kind, t0, wdps) of the 60 criterion-1 forms in grid order,
    with the working digits ``form_residual`` gives their series."""
    grid = []
    for a, r in ((7, 1), (9, 1), (11, 1), (13, 1), (13, 2)):
        for n in range(1, 7):
            spec = FormSpec(a, r, n)
            t0 = build_summand(spec).first_nonzero_term()
            table = table_for(spec)
            for form in (zeta_form_plain(table), zeta_form_derived(table)):
                grid.append((spec, form.kind, t0,
                             highprec._residual_workdps(form, CRITERION_1)))
    return grid


# the criterion-1 forms summed directly, at their split T; every other
# form takes the Laurent tail at T = 262, the target's digits, and K = 128,
# or K = 256 for these specs
CRITERION_1_DIRECT = {((13, 1, 5), PLAIN): 8192, ((13, 1, 6), PLAIN): 4096}
CRITERION_1_K256 = {(7, 1, 3), (7, 1, 4), (7, 1, 5), (7, 1, 6),
                    (13, 2, 3), (13, 2, 4), (13, 2, 5), (13, 2, 6)}


def test_routes_and_values_do_not_depend_on_earlier_calls(monkeypatch):
    # every decision of highprec is a function of its call's arguments:
    # two series values, a range of power sums and the routes of all 60
    # criterion-1 forms are the same from emptied tangent-number tables,
    # after the tangent numbers are made far ahead, and with the grid in
    # reverse order; no Laurent tail outlives its call
    grid = _criterion_1_grid()
    tol = -(CRITERION_1.digits + CRITERION_1.guard // 2)
    derived_wdps = next(w for spec, kind, _t0, w in grid
                        if spec == FormSpec(13, 1, 6) and kind == DOUBLE_DERIVED)

    def run(order, before=lambda: None):
        monkeypatch.setattr(highprec, "_TANGENT", [])
        monkeypatch.setattr(highprec, "_TANGENT_STAGES", [])
        before()
        routes = {(spec, kind): highprec._route(spec, kind, t0, tol)
                  for spec, kind, t0, _wdps in order}
        return [eval_S_direct(FormSpec(7, 1, 2), PLAIN, PrecisionContext(100, 20)),
                eval_S_direct(FormSpec(13, 1, 6), DOUBLE_DERIVED, CRITERION_1,
                              wdps=derived_wdps),
                _em_tail_range(48, _pairs(range(9, 41), -70)),
                routes]

    fresh = run(grid)
    assert fresh[0].method == "direct+laurent"
    # the routes of demos/laurent_routes.py
    for (spec, kind), route in fresh[3].items():
        abc = (spec.a, spec.r, spec.n)
        if (abc, kind) in CRITERION_1_DIRECT:
            assert (route.T, route.K) == (CRITERION_1_DIRECT[abc, kind], None)
        else:
            assert (route.T, route.K) == (262, 256 if abc in CRITERION_1_K256 else 128)
    assert run(grid, lambda: highprec._tangent(700)) == fresh
    assert run(grid[::-1]) == fresh


@pytest.mark.parametrize("abc", [(9, 1, 1), (11, 1, 6)])
@pytest.mark.parametrize("kind", [PLAIN, DOUBLE_DERIVED])
def test_laurent_split_at_the_target_digits(abc, kind, monkeypatch):
    # the head runs up to the target's digits, about where the power sums
    # start their expansion, and the power sums start at the split
    spec = FormSpec(*abc)
    tol = -(CRITERION_1.digits + CRITERION_1.guard // 2)
    t0 = build_summand(spec).first_nonzero_term()
    route = highprec._route(spec, kind, t0, tol)
    assert route.K is not None and route.T >= math.ceil(-tol)
    starts = []
    real = highprec._em_tail_range

    def spy(x0, needed):
        starts.append(x0)
        return real(x0, needed)

    monkeypatch.setattr(highprec, "_em_tail_range", spy)
    res = eval_S_direct(spec, kind, CRITERION_1)
    assert (res.split_T, res.laurent_K) == (route.T, route.K)
    assert starts == [route.T]


@pytest.mark.parametrize("abc, kind, digits, K", [
    ((7, 1, 1), PLAIN, 16000, 4096),
    ((7, 1, 1), PLAIN, 24000, 8192),
    ((11, 1, 6), DOUBLE_DERIVED, 12000, 4096),
    ((13, 1, 6), DOUBLE_DERIVED, 12000, 4096),
])
def test_laurent_reach_within_the_K_cap(abc, kind, digits, K):
    # inputs the split at max(2 t0, 48) reached with K = 16384 still take
    # the Laurent tail within the halved cap (the targets of the CLI's
    # --residual-digits, guard 20); only the route is found here
    spec = FormSpec(*abc)
    t0 = build_summand(spec).first_nonzero_term()
    route = highprec._route(spec, kind, t0, -(digits + 10))
    assert route.K == K <= highprec._LAURENT_K_CAP


def test_route_decision_is_logged(caplog):
    spec = FormSpec(11, 1, 6)
    tol = -(CRITERION_1.digits + CRITERION_1.guard // 2)
    t0 = build_summand(spec).first_nonzero_term()
    with caplog.at_level(logging.DEBUG, logger="zetaforms"):
        route = highprec._route(spec, PLAIN, t0, tol)
    (record,) = caplog.records
    assert record.name == "zetaforms" and record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "laurent split at the target's digits" in message
    assert f"T = 262, K = {route.K}, bound {route.bound:.1f}" in message
    assert "weighted head 32749 against 0.41 degQ^2 = 8384" in message


@pytest.mark.parametrize("abc, kinds", [
    ((13, 1, 3), (DOUBLE_DERIVED,)),
    ((11, 1, 5), (PLAIN, DOUBLE_DERIVED)),
    ((13, 1, 4), (PLAIN, DOUBLE_DERIVED)),
    ((11, 1, 6), (PLAIN, DOUBLE_DERIVED)),
])
def test_moved_routes_agree_with_direct_summation(abc, kinds):
    # the forms that went from direct summation to the Laurent tail, against
    # the direct head they were evaluated by before
    spec = FormSpec(*abc)
    ctx = CRITERION_1
    tol = -(ctx.digits + ctx.guard // 2)
    t0 = build_summand(spec).first_nonzero_term()
    for kind in kinds:
        res = eval_S_direct(spec, kind, ctx)
        assert res.method == "direct+laurent"
        T = highprec._direct_split(spec, kind, t0, tol)
        head, err, P = highprec._head_value(spec, kind, t0, T, tol)
        rounding = math.log10(err) - P * math.log10(2)
        assert _elementary_tail_bound_log10(spec, kind, T) < tol and rounding < tol
        with mp.workdps(ctx.workdps):
            assert abs(mp.ldexp(head, -P) - res.value) < mpf(10) ** -250


def test_laurent_and_direct_paths_agree():
    # small decay exponent forces the Laurent path; compare against the
    # direct path at a spec where both are feasible
    spec = FormSpec(a=13, r=1, n=2)      # decay 13 + 4*7 = 41: direct feasible
    ctx = PrecisionContext(digits=80, guard=20)
    direct = eval_S_direct(spec, PLAIN, ctx)
    lt_res = None
    from zetaforms import highprec

    from zetaforms.linear_forms import build_summand

    lt = highprec.LaurentTail(build_summand(spec))
    t0 = build_summand(spec).first_nonzero_term()
    P = math.ceil(ctx.workdps * math.log2(10)) + 64
    head, _err = highprec._direct_sum(spec, PLAIN, t0, 64, P)
    with mp.workdps(ctx.workdps):
        head = mp.ldexp(head, -P)
        K = 96
        while lt.tail_bound_log10(PLAIN, K, 64) > -100:
            K *= 2
        tail = _tail_value(lt, PLAIN, K, 64, -100)
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
        target = eval_S_form(d, ctx).value
        assert abs(res.value - target) < mpf(10) ** -100


@pytest.fixture(scope="module")
def saddle_13_2():
    return compute_constants(13, 2)


def test_rate_sweep_makes_its_zeta_values_in_one_pass(saddle_13_2, monkeypatch):
    # one pass for all the exponents of both forms at measure_rates' budget
    calls = []
    real = highprec._zeta_borwein

    def spy(exponents, digits):
        calls.append((sorted(exponents), digits))
        return real(exponents, digits)

    monkeypatch.setattr(highprec, "_zeta_borwein", spy)
    report = measure_rates(13, 2, [20, 21], saddle_13_2)
    assert calls == [(list(range(3, 16, 2)), report.samples[0].zeta_digits + 4)]


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
    real = highprec._form_value

    def spy(form, ctx, zetas):
        calls.append((form.kind, ctx.digits))
        return real(form, ctx, zetas)

    monkeypatch.setattr(highprec, "_form_value", spy)
    loose = replace(saddle_13_2, log_eps_pp_a=saddle_13_2.log_eps_a)
    raised = measure_rates(13, 2, [20], loose).samples[0]
    derived = [d for kind, d in calls if kind == DOUBLE_DERIVED]
    assert len(derived) == 2 and derived[1] > derived[0]
    assert [d for kind, d in calls if kind == PLAIN] == derived[:1]
    assert raised.zeta_digits == derived[1]
    assert raised.log_sppn_over_n == good.log_sppn_over_n
    assert raised.sign_pp == good.sign_pp


@pytest.mark.parametrize("side", [-1, 1])
def test_log_float_next_to_a_rounding_boundary(side, monkeypatch):
    # log x sits 1e-45 above or below the midpoint between two doubles:
    # a log at 128 bits cannot tell which way it rounds, so the bits are
    # raised, and the float is the one the log at 200 digits gives
    f = -35.123456789
    with mp.workdps(200):
        mid = mp.ldexp(mp.fadd(f, math.nextafter(f, math.inf), exact=True), -1)
        x = mp.exp(mid + side * mpf(10) ** -45)
        full = float(mp.log(x))
    assert full == (math.nextafter(f, math.inf) if side > 0 else f)
    tried = []
    real = highprec._log_abs_error

    def spy(value):
        tried.append(mp.prec)
        return real(value)

    monkeypatch.setattr(highprec, "_log_abs_error", spy)
    assert highprec._nearest_float(lambda: highprec._log_abs_error(x)) == full
    assert tried[0] == highprec._LOG_BITS and len(tried) > 1


def test_rate_sweep_logs_equal_full_precision_logs(saddle_13_2, monkeypatch):
    # the floats of a rate sweep from logs at a few dozen digits, against
    # the same logs taken at the values' full working precision
    values = []
    real = highprec._certified_value

    def spy(form, ctx, zetas):
        res = real(form, ctx, zetas)
        values.append((res.value, ctx.workdps))
        return res

    monkeypatch.setattr(highprec, "_certified_value", spy)
    ns = range(20, 26)
    rep = measure_rates(13, 2, ns, saddle_13_2)
    assert len(values) == 2 * len(ns)
    for s, (plain, wdps), (derived, _) in zip(rep.samples, values[::2], values[1::2]):
        with mp.workdps(wdps):
            assert s.log_sn_over_n == float(mp.log(abs(plain))) / s.n
            assert s.log_sppn_over_n == float(mp.log(abs(derived))) / s.n
            if not s.excluded:
                amp = float(mp.log(abs(derived)) - s.n * saddle_13_2.log_eps_pp_a
                            - mp.log(abs(s.cos_reference)))
                assert s.log_amp_ratio == amp
