import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from math import comb

import pytest

from oracles import (QPolynomial, form_from_json, fraction_forms, fraction_table,
                     numerator_poly, table_from_json, table_to_json)
from zetaforms.exact_kernel import lcm_upto
from zetaforms.linear_forms import (
    DOUBLE_DERIVED,
    PLAIN,
    FormSpec,
    build_summand,
    coeff_growth,
    denominator_check,
    form_to_json,
    half_second_derivative_exact,
    partial_fractions,
    smallest_clearing_exponent,
    table_for,
    verify_partial_sum_identity,
    zeta_form_derived,
    zeta_form_plain,
)


def test_spec_validation():
    FormSpec(a=7, r=1, n=1)
    with pytest.raises(ValueError):
        FormSpec(a=8, r=1, n=1)          # even a
    with pytest.raises(ValueError):
        FormSpec(a=7, r=2, n=1)          # 6r > a
    with pytest.raises(ValueError):
        FormSpec(a=7, r=0, n=1)
    with pytest.raises(ValueError):
        FormSpec(a=7, r=1, n=0)
    FormSpec(a=9, r=1, n=1)              # fine: decay 2n(a-6r) = 6 >= 2
    # a = 6r would zero the decay exponent; rejected even though 6r <= a
    with pytest.raises(ValueError):
        FormSpec(a=6, r=1, n=3)


def test_summand_shape_711():
    s = build_summand(FormSpec(a=7, r=1, n=1))
    assert list(s.poles) == [-1, 0, 1]
    assert s.pole_order == 7
    assert s.numerator_degree == 12
    assert s.decay_exponent == 7 * 3 - 12 == 9
    assert s.first_nonzero_term() == 4


def test_summand_exact_value_oracle():
    # direct product evaluation, written out independently
    s = build_summand(FormSpec(a=7, r=1, n=1))
    t = Fraction(2)
    expect = Fraction(2)                     # (2n)!^{a-6r} = 2
    for k in range(2):
        expect *= (t - 3 + k) ** 3 * (t + 2 + k) ** 3
    for j in (-1, 0, 1):
        expect /= (t - j) ** 7
    assert s.eval_exact(t) == expect
    assert s.eval_exact(2) == 0              # zero range covers t=2: factor (t-2)
    assert s.eval_exact(Fraction(9, 2)) > 0


def test_summand_well_poised_antisymmetry():
    rng = random.Random(5)
    for spec in (FormSpec(7, 1, 1), FormSpec(9, 1, 2), FormSpec(13, 2, 1)):
        s = build_summand(spec)
        for _ in range(50):
            t = Fraction(rng.randint(-400, 400), rng.choice([3, 5, 7, 11, 13]))
            if t.denominator == 1:
                t += Fraction(1, 2)
            assert s.eval_exact(-t) == -s.eval_exact(t)


def test_partial_fraction_c1_sum_zero_and_reconstruction():
    spec = FormSpec(a=7, r=1, n=1)
    table = table_for(spec)
    assert table.c1_sum() == 0
    s = build_summand(spec)
    assert table.reconstruct_at(Fraction(3, 2)) == s.eval_exact(Fraction(3, 2))


def test_partial_fraction_reconstruction_random_points():
    rng = random.Random(17)
    for spec in (FormSpec(7, 1, 1), FormSpec(9, 1, 1), FormSpec(13, 2, 1)):
        s = build_summand(spec)
        table = table_for(spec)
        for _ in range(100):
            t = Fraction(rng.randint(-300, 300), rng.choice([2, 3, 7]))
            if t.denominator == 1:
                t += Fraction(1, 3)
            assert table.reconstruct_at(t) == s.eval_exact(t)


def _taylor_division_oracle(spec: FormSpec, j: int) -> dict[int, Fraction]:
    """Independent oracle: expand numerator and deleted denominator as full
    polynomials, Taylor-shift to the pole, and long-divide the series."""
    s = build_summand(spec)
    a = spec.a
    num = numerator_poly(s).shift(j)                 # coefficients in u = t - j
    den = QPolynomial.from_roots(1, [(m, a) for m in s.poles if m != j]).shift(j)
    order = a
    num_c = list(num.coeffs[:order]) + [Fraction(0)] * max(0, order - len(num.coeffs))
    den_c = list(den.coeffs[:order]) + [Fraction(0)] * max(0, order - len(den.coeffs))
    # long division of truncated series
    out = [Fraction(0)] * order
    rem = num_c[:]
    for k in range(order):
        out[k] = rem[k] / den_c[0]
        for i in range(order - k):
            rem[k + i] -= out[k] * den_c[i]
    return {i: out[a - i] for i in range(1, a + 1)}


def test_partial_fraction_against_long_division_oracle():
    for spec in (FormSpec(7, 1, 1), FormSpec(9, 1, 2), FormSpec(13, 2, 2), FormSpec(15, 2, 1)):
        table = table_for(spec)
        for j in range(-spec.n, spec.n + 1):
            oracle = _taylor_division_oracle(spec, j)
            for i in range(1, spec.a + 1):
                assert table.coeffs[(i, j)] == oracle[i], (spec, i, j)


@pytest.mark.parametrize("spec, digest", [
    (FormSpec(13, 2, 6), "c08ed339d81e7d8d5b4d70c5708ff2647b87f41bb1aebd21b30a977d2ff28c7c"),
    (FormSpec(41, 6, 2), "dcd913c019a7f8a2eed1fabcfd3d0735121fe9c67b871717794c77360376642f"),
])
def test_partial_fraction_golden_digest(spec, digest):
    # SHA-256 of the canonical table JSON, recorded from the truncated-series
    # route that the log-derivative recurrence replaced
    doc = json.dumps(table_to_json(partial_fractions(build_summand(spec))),
                     sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


@pytest.mark.parametrize("abc", [(7, 1, 1), (7, 1, 3), (9, 1, 4), (13, 2, 5), (13, 2, 20),
                                 (41, 6, 2)])
def test_integer_route_matches_fraction_oracle(abc):
    # the integer numerators over D_k, their column sums and the
    # common-denominator harmonic tails give the very Fractions that
    # reducing every coefficient and accumulating in Fractions gives
    spec = FormSpec(*abc)
    table = partial_fractions(build_summand(spec))
    plain, derived = zeta_form_plain(table), zeta_form_derived(table)
    assert table.c1_sum() == 0
    for form in (plain, derived):
        assert denominator_check(form).passed
        assert verify_partial_sum_identity(table, form, spec.n + 2)
        form_to_json(form)
    assert "coeffs" not in vars(table)           # none of these builds the Fraction view
    assert table.coeffs == fraction_table(spec)
    assert (plain, derived) == fraction_forms(spec)


def test_form_golden_digest():
    # SHA-256 of the canonical form JSON at (13,2,20), recorded from the
    # Fraction-accumulating route that the integer numerators replaced
    table = partial_fractions(build_summand(FormSpec(13, 2, 20)))
    digests = [hashlib.sha256(json.dumps(form_to_json(form), sort_keys=True,
                                         separators=(",", ":")).encode()).hexdigest()
               for form in (zeta_form_plain(table), zeta_form_derived(table))]
    assert digests == ["5536f79756f1b1a851297981f37178c312eed8a9f10328ab4dc710d3e3eff96c",
                       "be6b4f7c387f9f3338ddd1ca7934b23cb8e3e9d0875f0efe4114c9b63a0b13dd"]


def test_even_zeta_coefficients_vanish_exactly():
    for spec in (FormSpec(7, 1, 1), FormSpec(9, 1, 2), FormSpec(13, 2, 2)):
        table = table_for(spec)
        for i in range(2, spec.a + 1, 2):
            assert table.column_sum(i) == 0


def test_forms_share_coefficients_bit_for_bit():
    spec = FormSpec(a=9, r=1, n=2)
    table = table_for(spec)
    p = zeta_form_plain(table)
    d = zeta_form_derived(table)
    assert p.zeta_coeffs == d.zeta_coeffs
    assert p.kind == PLAIN and d.kind == DOUBLE_DERIVED


def test_derived_multipliers():
    spec = FormSpec(a=7, r=1, n=1)
    d = zeta_form_derived(table_for(spec))
    terms = {i: (arg, c) for arg, i, c in d.terms()}
    # zeta(3) slot contributes to zeta(5) with multiplier C(4,2) = 6
    assert terms[3][0] == 5 and terms[3][1] == d.zeta_coeffs[3] * 6
    # zeta(5) slot contributes to zeta(7) with multiplier C(6,2) = 15
    assert terms[5][0] == 7 and terms[5][1] == d.zeta_coeffs[5] * 15
    assert comb(4, 2) == 6 and comb(6, 2) == 15


def test_partial_sum_identity_certifies_constants():
    # exact rational identity at several truncation points; this is the
    # oracle pinning l_0 and l''_0
    for spec in (FormSpec(7, 1, 1), FormSpec(7, 1, 2), FormSpec(9, 1, 1)):
        table = table_for(spec)
        p = zeta_form_plain(table)
        d = zeta_form_derived(table)
        for T in (spec.n + 3, spec.n + 11):
            assert verify_partial_sum_identity(table, p, T)
            assert verify_partial_sum_identity(table, d, T)


def test_partial_sum_identity_far_truncation():
    # T = 1200 reads harmonic prefixes past any recursion limit
    table = table_for(FormSpec(7, 1, 1))
    assert verify_partial_sum_identity(table, zeta_form_plain(table), 1200)
    assert verify_partial_sum_identity(table, zeta_form_derived(table), 1200)


def test_half_second_derivative_matches_log_derivative_route():
    # (1/2) R'' through partial fractions vs R (L^2 + L') with L = R'/R
    spec = FormSpec(a=7, r=1, n=1)
    s = build_summand(spec)
    table = table_for(spec)
    for t in (Fraction(9, 2), Fraction(13, 3), Fraction(7)):
        R = s.eval_exact(t)
        L = Fraction(0)
        Lp = Fraction(0)
        for root, mult in s.numerator_roots:
            L += Fraction(mult, 1) / (t - root)
            Lp -= Fraction(mult, 1) / (t - root) ** 2
        for j in s.poles:
            L -= Fraction(spec.a) / (t - j)
            Lp += Fraction(spec.a) / (t - j) ** 2
        assert half_second_derivative_exact(table, t) == R * (L * L + Lp) / 2


def test_zeta_form_rejects_corrupted_table():
    # one integer numerator of column i off by one: a nonzero c1 sum
    # (i = 1), or a nonzero even column (i = 2)
    spec = FormSpec(a=7, r=1, n=1)
    table = table_for(spec)
    for i, match in ((1, "order-1"), (2, "even-order")):
        num = [list(row) for row in table.num]
        num[spec.a - i][spec.n] += 1
        bad = dataclasses.replace(table, num=num)
        for build in (zeta_form_plain, zeta_form_derived):
            with pytest.raises(ArithmeticError, match=match):
                build(bad)


def test_denominator_check_and_probe():
    for spec in (FormSpec(7, 1, 1), FormSpec(7, 1, 3)):
        table = table_for(spec)
        for form in (zeta_form_plain(table), zeta_form_derived(table)):
            rep = denominator_check(form)
            assert rep.passed
            assert rep.d2n == lcm_upto(2 * spec.n)
            e = smallest_clearing_exponent(form)
            assert e is not None and e <= spec.a + 2


def test_denominator_on_larger_specs():
    for spec in (FormSpec(9, 1, 7), FormSpec(13, 2, 8)):
        table = table_for(spec)
        assert denominator_check(zeta_form_plain(table)).passed
        assert denominator_check(zeta_form_derived(table)).passed


def test_coeff_growth_7_1():
    rep = coeff_growth(7, 1, range(1, 13))
    import math

    assert abs(rep.bound_log - (2 * math.log(2) + 18 * math.log(3))) < 1e-12
    assert rep.passed, rep.flagged
    # stabilization: < 5% drift between n = 10 and n = 12
    vals = dict(rep.rows)
    assert abs(vals[12] - vals[10]) / abs(vals[10]) < 0.05


def test_json_roundtrip():
    spec = FormSpec(a=7, r=1, n=2)
    table = table_for(spec)
    assert table_from_json(table_to_json(table)) == table
    for form in (zeta_form_plain(table), zeta_form_derived(table)):
        doc = form_to_json(form)
        back = form_from_json(doc)
        assert back == form
    # stable ordering: serializing twice gives identical text
    import json

    assert json.dumps(table_to_json(table)) == json.dumps(table_to_json(table))
