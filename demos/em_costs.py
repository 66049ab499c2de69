"""Timings behind the Euler-Maclaurin cost constants of ``highprec``.

Times the pieces of ``_em_tail_range`` at 300-1700 decimal digits of
its scale 2^P: one direct m-step (the power m^s and the floor division
of 2^P by it), one row at that m (an add and a floor division by m^2),
one integer expansion term (``_em_at`` on a held coefficient table) and
one new table entry (``_EMTable.extend``, tangent numbers already held),
and prints each as a fitted (fixed, per digit) pair of microseconds
beside the constant ``highprec`` holds.  Then times
``LaurentTail.tail_value`` on criterion-1 tails against _COST_POWER_SUM
per power sum and working digit.  Timings are the least of a few repeats, so they read the
machine's fast state; on a shared host, run it more than once.

Run:  python demos/em_costs.py
"""
import math
import time

from zetaforms import highprec
from zetaforms.linear_forms import (DOUBLE_DERIVED, PLAIN, FormSpec, table_for,
                                    zeta_form_derived, zeta_form_plain)

DIGITS = (300, 500, 700, 1000, 1300, 1700)
X, S = 400, 40                  # an expansion point and an exponent of the grid's tails


def best_us(fn, count, repeats=3):
    """Least microseconds per unit of ``fn()``, which does ``count`` units."""
    best = math.inf
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best / count * 1e6


def fit(points):
    """Least-squares (fixed, per digit) through (digits, us) points.  The
    products and divisions of the larger pieces cost more than linearly
    in the digits, so the line through them can have a negative fixed
    part; it is then set to 0 and the line fitted through the origin."""
    n = len(points)
    sx = sum(d for d, _ in points)
    sy = sum(u for _, u in points)
    sxx = sum(d * d for d, _ in points)
    sxy = sum(d * u for d, u in points)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    fixed = (sy - slope * sx) / n
    if fixed < 0:
        return 0.0, sxy / sxx
    return fixed, slope


def direct_pieces(P):
    one = 1 << P
    ms = range(300, 500)

    def steps():
        for m in ms:
            one // m ** S

    rows = [one // m ** S for m in ms]

    def row_steps():
        acc = 0
        for w, m in zip(rows, ms):
            acc += w
            w //= m ** 2

    return best_us(steps, len(ms)), best_us(row_steps, len(ms))


def expansion_pieces(P):
    digits = P * math.log10(2)
    # stop where a tail of the grid stops: 10^-digits plus a few guard digits
    F = P - math.ceil((digits - 8) * math.log2(10))
    table = highprec._EMTable(X, P)
    highprec._em_at(S, X, X ** S, P, F, table)
    K = len(table.c)                    # terms formed, the stopping one too
    term = best_us(lambda: highprec._em_at(S, X, X ** S, P, F, table), K)

    def entries():
        fresh = highprec._EMTable(X, P)
        for _ in range(K):
            fresh.extend()

    return term, best_us(entries, K)


def power_sum_check():
    """(tail, us per power sum and working digit) of ``tail_value`` on
    criterion-1 tails at their route's K, and the least-squares value
    through them, which is what _COST_POWER_SUM prices."""
    ctx = highprec.PrecisionContext(250, 25)
    tol = -(ctx.digits + ctx.guard // 2)
    rows, xy, xx = [], 0.0, 0.0
    for abc, kind in (((7, 1, 1), PLAIN), ((11, 1, 5), DOUBLE_DERIVED),
                      ((13, 1, 6), DOUBLE_DERIVED), ((13, 2, 3), PLAIN)):
        spec = FormSpec(*abc)
        table = table_for(spec)
        form = zeta_form_plain(table) if kind == PLAIN else zeta_form_derived(table)
        wdps = highprec._residual_workdps(form, ctx)
        lt = highprec._laurent_for(spec)
        lt.extend(256)
        work = wdps * 256 / 2
        us = best_us(lambda: lt.tail_value(kind, 256, 48, tol), 1, repeats=2)
        rows.append((abc, kind, us / work))
        xy += work * us
        xx += work * work
    return rows, xy / xx


direct, expansion = [], []
highprec._tangent(600)
for digits in DIGITS:
    P = math.ceil(digits * math.log2(10))
    m_us, row_us = direct_pieces(P)
    term_us, entry_us = expansion_pieces(P)
    direct.append((digits, m_us, row_us))
    expansion.append((digits, term_us, entry_us))
    print(f"{digits:5d} digits: m-step {m_us:6.2f} us, row {row_us:5.2f} us, "
          f"term {term_us:5.2f} us, entry {entry_us:6.2f} us")
for name, col, points, held in (
        ("_COST_M", 1, direct, highprec._COST_M),
        ("_COST_ROW", 2, direct, highprec._COST_ROW),
        ("_COST_TERM", 1, expansion, highprec._COST_TERM),
        ("_COST_ENTRY", 2, expansion, highprec._COST_ENTRY)):
    fixed, per = fit([(p[0], p[col]) for p in points])
    print(f"{name:12s} fitted ({fixed:.2f}, {per:.5f}), held {held}")
rows, fitted = power_sum_check()
for abc, kind, us in rows:
    print(f"tail_value {abc} {kind}, K = 256: {us:.3f} us per power sum and digit")
print(f"_COST_POWER_SUM fitted {fitted:.3f}, held {highprec._COST_POWER_SUM}")
