"""Timings behind the power-sum cost constant of ``highprec``'s route estimate.

Times ``LaurentTail.tail_value`` on criterion-1 tails at K = 256 and
prints its microseconds per power sum and working digit beside
_COST_POWER_SUM, with the least-squares value through them.  Timings
are the least of a few repeats, so they read the machine's fast state;
on a shared host, run it more than once.

Run:  python demos/em_costs.py
"""
import math
import time

from zetaforms import highprec
from zetaforms.linear_forms import (DOUBLE_DERIVED, PLAIN, FormSpec, table_for,
                                    zeta_form_derived, zeta_form_plain)


def best_us(fn, count, repeats=3):
    """Least microseconds per unit of ``fn()``, which does ``count`` units."""
    best = math.inf
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best / count * 1e6


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


rows, fitted = power_sum_check()
for abc, kind, us in rows:
    print(f"tail_value {abc} {kind}, K = 256: {us:.3f} us per power sum and digit")
print(f"_COST_POWER_SUM fitted {fitted:.3f}, held {highprec._COST_POWER_SUM}")
