"""Walk through the exact pipeline for one parameter triple.

Builds the summand for (a, r, n) = (7, 1, 2), decomposes it into exact
partial fractions (kept as integer numerators over the known
denominators D_k = L^k k!, L = lcm(1..(2r+2)n)), extracts both zeta
linear forms, checks the common denominator, and confirms the numeric
identity at 120 digits.

Run:  python demos/linear_forms_walkthrough.py
"""
from fractions import Fraction

from mpmath import mp

from zetaforms import (
    FormSpec,
    PrecisionContext,
    build_summand,
    denominator_check,
    smallest_clearing_exponent,
    table_for,
    zeta_form_derived,
    zeta_form_plain,
)
from zetaforms.highprec import DOUBLE_DERIVED, PLAIN, eval_S_direct, eval_S_form

spec = FormSpec(a=7, r=1, n=2)
summand = build_summand(spec)
print(f"spec: a={spec.a}, r={spec.r}, n={spec.n}")
print(f"numerator degree {summand.numerator_degree}, "
      f"poles {list(summand.poles)} each of order {summand.pole_order}, "
      f"decay exponent {summand.decay_exponent}")
print(f"summand at t = 9/2: {summand.eval_exact(Fraction(9, 2))}")

table = table_for(spec)
print(f"\npartial fractions: {len(table.num)} x {len(table.num[0])} integer numerators "
      f"c_(a-k),j * D_k over D_k = L^k k!, L = {table.den[1]}; "
      f"sum_j c_1j = {table.c1_sum()}")
num, den = table.num[spec.a - 1][spec.n], table.den[spec.a - 1]
print(f"c_1,0 = {num} / {den} = {Fraction(num, den)}")
print(f"reconstruction at 7/3 exact: "
      f"{table.reconstruct_at(Fraction(7, 3)) == summand.eval_exact(Fraction(7, 3))}")

plain = zeta_form_plain(table)
derived = zeta_form_derived(table)
print(f"\nplain form constant l0 = {plain.constant}")
for arg, i, c in plain.terms():
    print(f"  coefficient of zeta({arg}): {c}")
print(f"derived form constant l0'' = {derived.constant}")
for arg, i, c in derived.terms():
    print(f"  coefficient of zeta({arg}): {c}   (slot l_{i} times C({i+1},2))")

for form in (plain, derived):
    rep = denominator_check(form)
    print(f"\n{form.kind}: d_2n^(a+2) = {rep.d2n}^{rep.exponent} clears all "
          f"coefficients: {rep.passed}; smallest clearing exponent "
          f"{smallest_clearing_exponent(form)}")

ctx = PrecisionContext(digits=120, guard=20)
for form, kind in ((plain, PLAIN), (derived, DOUBLE_DERIVED)):
    direct = eval_S_direct(spec, kind, ctx)
    with mp.workdps(ctx.workdps):
        target = eval_S_form(form, ctx).value
        print(f"\n{form.kind}: series value  {mp.nstr(direct.value, 25)}")
        print(f"{form.kind}: form value    {mp.nstr(target, 25)}")
        print(f"residual: {mp.nstr(abs(direct.value - target), 3)} "
              f"(tail bound 1e{direct.tail_bound_log10:.0f}, method {direct.method})")
