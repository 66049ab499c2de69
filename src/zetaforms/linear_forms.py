"""Well-poised summands and their exact decomposition into zeta linear forms.

The central object is the rational function

    R(t) = (2n)!^(a-6r) * (t-(2r+1)n)_{2rn}^3 (t+n+1)_{2rn}^3 / (t-n)_{2n+1}^a

with a odd and 6r < a.  Summing R over integer t > n gives a number
S_n = l_0 + l_3 zeta(3) + l_5 zeta(5) + ... + l_a zeta(a) with rational
coefficients; summing (1/2) R'' gives the companion form
S''_n = l''_0 + sum_i l_i * C(i+1,2) * zeta(i+2) with the *same* l_i.
This module produces those coefficients exactly.

The decomposition route is: exact partial fractions c_{i,j} of R at its
integer poles j in [-n, n] (Taylor coefficients from the log-derivative
recurrence on integers, whose inputs are harmonic prefixes; no linear
solves), then re-indexing of the pole tails against zeta tails.  The
i = 1 coefficients sum to zero (forced by decay), which makes the
harmonic contribution to l_0 finite.
The table is kept as integer numerators over the known denominators
D_k = L^k k!, L = lcm(1..(2r+2)n).  Every output is summed on integers
and made one Fraction: l_i from the column sums, l_0 and l''_0 by Horner
in L/m over the column prefix sums, the pole sums over one common
denominator, and the harmonic side of the partial-sum identity over one
harmonic scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from operator import mul
from typing import Iterator

from .exact_kernel import binomial, harmonic_prefixes, lcm_upto


@dataclass(frozen=True)
class FormSpec:
    """Parameter triple (a, r, n) of a summand family.

    Validity: a odd, r >= 1, n >= 1, 6r <= a, and decay exponent
    2n(a - 6r) >= 2 so the defining series converges absolutely.  The
    decay requirement excludes a = 6r.
    """

    a: int
    r: int
    n: int

    def __post_init__(self):
        if self.a < 1 or self.a % 2 == 0:
            raise ValueError(f"a must be a positive odd integer, got {self.a}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if 6 * self.r > self.a:
            raise ValueError(f"need 6r <= a, got a={self.a}, r={self.r}")
        if 2 * self.n * (self.a - 6 * self.r) < 2:
            raise ValueError(
                f"decay exponent 2n(a-6r) = {2 * self.n * (self.a - 6 * self.r)} < 2; "
                "the series would not converge fast enough (a = 6r is rejected)"
            )


@dataclass(frozen=True)
class Summand:
    """Factored representation of R(t): scalar, numerator roots, poles.

    numerator_roots is a tuple of (root, multiplicity); poles are the
    integers -n..n, each of order a.  The factored form is kept because
    expansion is only needed for the asymptotic tail machinery.
    """

    spec: FormSpec
    scale: int
    numerator_roots: tuple[tuple[int, int], ...]

    @property
    def poles(self) -> range:
        return range(-self.spec.n, self.spec.n + 1)

    @property
    def pole_order(self) -> int:
        return self.spec.a

    @property
    def numerator_degree(self) -> int:
        return sum(m for _, m in self.numerator_roots)

    @property
    def decay_exponent(self) -> int:
        """Exponent D with R(t) ~ const * t^-D at infinity."""
        return self.spec.a * (2 * self.spec.n + 1) - self.numerator_degree

    def first_nonzero_term(self) -> int:
        """Terms vanish for t <= (2r+1)n because of the left Pochhammer."""
        return (2 * self.spec.r + 1) * self.spec.n + 1

    def eval_exact(self, t) -> Fraction:
        """R(t) at rational t = p/q: the factors (p - root q), (p - jq) and
        q^D (D the decay exponent) multiplied on integers, then one Fraction."""
        t = Fraction(t)
        p, q = t.numerator, t.denominator
        if q == 1 and -self.spec.n <= p <= self.spec.n:
            raise ValueError(f"t={t} is a pole")
        num = self.scale * q ** self.decay_exponent
        for root, mult in self.numerator_roots:
            num *= (p - root * q) ** mult
        den = 1
        for j in self.poles:
            den *= p - j * q
        return Fraction(num, den ** self.pole_order)


def build_summand(spec: FormSpec) -> Summand:
    a, r, n = spec.a, spec.r, spec.n
    scale = math.factorial(2 * n) ** (a - 6 * r)
    roots: list[tuple[int, int]] = []
    for k in range(2 * r * n):
        roots.append(((2 * r + 1) * n - k, 3))   # (t - (2r+1)n + k)
        roots.append((-(n + 1 + k), 3))          # (t + n+1 + k)
    return Summand(spec=spec, scale=scale, numerator_roots=tuple(roots))


@dataclass(frozen=True)
class PartialFractionTable:
    """Exact coefficients c_{i,j} with R(t) = sum c_{i,j} / (t-j)^i, as
    c_{a-k,j} = num[k][n+j] / den[k], den[k] = D_k = L^k k!, L = d_{(2r+2)n}.
    Column sums, the zeta slots and the ``coeffs`` view of reduced
    Fractions are built on first use and kept on the table."""

    spec: FormSpec
    num: list[list[int]] = field(hash=False)
    den: list[int] = field(hash=False)

    @cached_property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        a, n = self.spec.a, self.spec.n
        return {(a - k, j): Fraction(self.num[k][n + j], self.den[k])
                for j in range(-n, n + 1) for k in range(a)}

    @cached_property
    def column_numerators(self) -> list[int]:
        """sum_j num[k][n+j]; column i = a - k sums to this over den[k]."""
        return [sum(row) for row in self.num]

    def column_sum(self, i: int) -> Fraction:
        k = self.spec.a - i
        return Fraction(self.column_numerators[k], self.den[k])

    def c1_sum(self) -> Fraction:
        return self.column_sum(1)

    @cached_property
    def zeta_coeffs(self) -> dict[int, Fraction]:
        """l_i = sum_j c_{i,j} for odd i >= 3, once the structure holds:
        the order-1 and every even column sum to zero."""
        a, col = self.spec.a, self.column_numerators
        if col[a - 1]:
            raise ArithmeticError("order-1 partial fraction coefficients do not sum to zero; "
                                  "the series re-indexing is invalid for this input")
        for i in range(2, a + 1, 2):
            if col[a - i]:
                raise ArithmeticError(f"even-order column sum c_{i},* is nonzero; "
                                      "well-poised symmetry is broken")
        return {i: self.column_sum(i) for i in range(3, a + 1, 2)}

    def reconstruct_at(self, t) -> Fraction:
        """R(t) = sum c_{i,j} (t-j)^-i, exactly (``_pole_sum``)."""
        return _pole_sum(self, t, 0)


def partial_fractions(summand: Summand) -> PartialFractionTable:
    """Exact Taylor expansion of F(u) = R(t) (t-j)^a, u = t - j, at each pole j.

    F = f0 prod_k (1 + u/c_k)^{e_k}: the roots give c = j-(2r+1)n .. j-n-1
    and j+n+1 .. j+(2r+1)n with e = 3, the other poles c = j-n .. j+n
    without 0 with e = -a.  The log-derivative F'/F = sum_s g_s u^s has
    g_s = (-1)^s sum_k e_k c_k^{-(s+1)}, a signed combination of harmonic
    prefixes H^(s+1)_m with m <= (2r+2)n, and (s+1) f_{s+1} =
    sum_{i<=s} f_i g_{s-i}.  With L = d_{(2r+2)n}, every c_k divides L, so
    each factor (1 + (L/c_k) v)^{e_k} is a binomial series with integer
    coefficients in v = u/L, and so is F/f0: h_k = L^k f_k / f0 is an
    integer.  On G_s = L^{s+1} g_s the recurrence reads
    (s+1) h_{s+1} = sum_{i<=s} h_i G_{s-i}, one exact division per step.
    f0 = F(0) is an integer: (2n)!^(6r) divides the cubed root offsets, two
    products of 2rn consecutive integers.  So c_{a-k,j} = f_k is the integer
    f0 k! h_k over D_k = L^k k!, and nothing is reduced.  Every pole is
    computed, so the symmetry c_{i,-j} = (-1)^{i+1} c_{i,j} stays a check.
    """
    spec = summand.spec
    a, r, n = spec.a, spec.r, spec.n
    w = (2 * r + 1) * n
    poles = range(-n, n + 1)
    L, rows = harmonic_prefixes(range(1, a), 0, w + n)
    # G[j][s], from the prefix row of order p = s + 1
    G: dict[int, list[int]] = {j: [] for j in poles}
    for s, P in enumerate(rows):
        sign = -1 if s % 2 else 1                  # (-1)^s
        for j in poles:
            positive = 3 * (P[j + w] - P[j + n]) - a * P[j + n]
            negative = 3 * (P[w - j] - P[n - j]) - a * P[n - j]
            G[j].append(sign * positive - negative)
    del rows
    num: list[list[int]] = [[] for _ in range(a)]
    fact = list(accumulate(range(1, a), mul, initial=1))   # k!
    block = math.factorial(2 * n) ** r
    for j in poles:
        # f0 = (-1)^(n-j) (prod of root offsets)^3 C(2n, n+j)^a / (2n)!^(6r),
        # where n - j of the pole offsets are negative
        roots = (math.perm(w + j, w - n) // block) * (math.perm(w - j, w - n) // block)
        f0 = (-1) ** (n - j) * roots ** 3 * math.comb(2 * n, n + j) ** a
        g = G.pop(j)                               # frees G as the table fills
        h = [1]
        for s in range(a - 1):
            h_next, rem = divmod(sum(map(mul, h, reversed(g[:s + 1]))), s + 1)
            if rem:
                raise ArithmeticError(f"h_{s + 1} at pole {j} is not an integer")
            h.append(h_next)
        for row, x, k_fact in zip(num, h, fact):
            row.append(f0 * k_fact * x)
    den = [L ** k * k_fact for k, k_fact in enumerate(fact)]
    return PartialFractionTable(spec=spec, num=num, den=den)


def table_bytes(a: int, r: int, n: int) -> int:
    """Estimated bytes that ``partial_fractions`` holds at (a, r, n), from
    the parameters alone: a - 1 harmonic prefix rows of (2r+2)n + 1
    entries, then a(2n+1) numerators.  An entry of order k has about
    k log2 L bits, a numerator also log2 k! <= k log2 a, so each kind sums
    to a^2/2 times its width; log2 L < 1.5 (2r+2)n, as log lcm(1..N) <
    1.04 N (Rosser-Schoenfeld)."""
    log2_l = 3 * (r + 1) * n
    width = ((2 * r + 2) * n + 1) * log2_l + (2 * n + 1) * (log2_l + a.bit_length())
    return a * a * width // 16


def table_for(spec: FormSpec) -> PartialFractionTable:
    return partial_fractions(build_summand(spec))


PLAIN = "plain"
DOUBLE_DERIVED = "double_derived"


@dataclass(frozen=True)
class ZetaLinearForm:
    """Exact rational data of one linear form in zeta values.

    kind = "plain":          value = constant + sum_i coeff_i * zeta(i)
    kind = "double_derived": value = constant + sum_i coeff_i * C(i+1,2) * zeta(i+2)

    zeta_coeffs maps odd i in {3, ..., a} to l_i; both kinds built from
    one table carry identical l_i.  Coefficients at even arguments vanish
    identically (well-poised symmetry) and are verified exactly during
    construction.
    """

    spec: FormSpec
    kind: str
    constant: Fraction
    zeta_coeffs: dict[int, Fraction] = field(hash=False)

    def terms(self) -> Iterator[tuple[int, int, Fraction]]:
        """Yields (zeta argument, slot index i, effective coefficient)."""
        for i in sorted(self.zeta_coeffs):
            li = self.zeta_coeffs[i]
            if self.kind == PLAIN:
                yield i, i, li
            else:
                yield i + 2, i, li * binomial(i + 1, 2)

    def all_coefficients(self) -> list[Fraction]:
        return [self.constant] + [c for _, _, c in self.terms()]


def _harmonic_tails(table: PartialFractionTable, kind: str, T: int) -> Fraction:
    """sum_{i,j} c_{i,j} H^(i)_{T-j} for PLAIN, and
    sum_{i,j} c_{i,j} C(i+1,2) H^(i+2)_{T-j} for DOUBLE_DERIVED, exactly.

    The harmonic side of ``verify_partial_sum_identity``; at T = n it is
    an independent route to the form constants of ``_zeta_form``.  Reads
    the scaled prefix rows (scale L') over the window T-n .. T+n
    from the shared harmonic kernel and sums on integers over the common
    denominator D_{a-1} L'^(a+shift), in Horner form over the orders;
    one Fraction is formed at the end.
    """
    a, n, den = table.spec.a, table.spec.n, table.den
    shift = 0 if kind == PLAIN else 2
    Lp, rows = harmonic_prefixes(range(1 + shift, a + 1 + shift), T - n, T + n)
    acc = 0
    for i, row in enumerate(rows, 1):
        col = sum(map(mul, table.num[a - i], reversed(row)))
        mult = binomial(i + 1, 2) if shift else 1
        acc = acc * Lp + col * (mult * (den[a - 1] // den[a - i]))
    return Fraction(acc, den[a - 1] * Lp ** (a + shift))


def _zeta_form(table: PartialFractionTable, kind: str) -> ZetaLinearForm:
    """The form of one kind: the table's zeta slots and the constant
    -sum_{i,j} c_{i,j} w_i H^(i+shift)_{n-j}, w_i = 1 (plain, shift 0) or
    C(i+1,2) (double derived, shift 2), read from the table alone.

    Grouped by the power m^-(i+shift), m = 1..2n, that sum is
    sum_m sum_i w_i m^-(i+shift) P_i(n-m), with P_i(J) = sum_{j<=J} c_{i,j}
    the column prefix sums.  Every m <= 2n divides L = d_{(2r+2)n}, so
    q = L/m is an integer, and with c_{i,j} = num[k][n+j] / D_k, k = a - i,
    each m is one Horner pass in q over the prefix sums of num; the weights
    (a-1)!/k! come in as the multipliers q k.  All of it sits over
    D_{a-1} L^(1+shift) and one Fraction is formed.  No harmonic row is
    read: ``_harmonic_tails`` is the partial-sum identity's own route.
    """
    a, n = table.spec.a, table.spec.n
    shift = 0 if kind == PLAIN else 2
    L = table.den[1]                                # D_k = L^k k!
    mults = [binomial(a - k + 1, 2) if shift else 1 for k in range(a)]
    prefixes = zip(*(accumulate(row) for row in table.num))    # over k, at j = -n, ...
    acc = 0
    for m, col in zip(range(2 * n, 0, -1), prefixes):          # j = n - m
        q = L // m
        horner = 0
        for k, (x, mult) in enumerate(zip(col, mults)):
            horner = horner * (q * k) + x * mult
        acc += horner * q ** (1 + shift)
    constant = Fraction(-acc, table.den[a - 1] * L ** (1 + shift))
    return ZetaLinearForm(spec=table.spec, kind=kind, zeta_coeffs=dict(table.zeta_coeffs),
                          constant=constant)


def zeta_form_plain(table: PartialFractionTable) -> ZetaLinearForm:
    """Collapse pole tails onto zeta values for the plain sum.

    For i >= 2:  sum_{t>n} (t-j)^{-i} = zeta(i) - H^(i)_{n-j}, so
    l_i = sum_j c_{i,j} and the finite parts feed l_0.  For i = 1 the
    individual tails diverge; since sum_j c_{1,j} = 0 they telescope to
    -sum_j c_{1,j} H^(1)_{n-j}.
    """
    return _zeta_form(table, PLAIN)


def zeta_form_derived(table: PartialFractionTable) -> ZetaLinearForm:
    """Same for the double-derived sum.

    (1/2) d^2/dt^2 (t-j)^{-i} = C(i+1,2) (t-j)^{-(i+2)}, so every slot
    shifts by two and picks up the binomial multiplier; all tails now
    converge individually (i + 2 >= 3).
    """
    return _zeta_form(table, DOUBLE_DERIVED)


def _pole_sum(table: PartialFractionTable, t, shift: int) -> Fraction:
    """sum_{i,j} c_{i,j} (t-j)^-i (shift 0, R itself) or
    sum_{i,j} c_{i,j} C(i+1,2) (t-j)^-(i+2) (shift 2, (1/2) R''), exactly.

    With t = p/q and b = p - jq, pole j contributes
    sum_i c_{i,j} m_i (q/b)^(i+shift), m_i = 1 or C(i+1,2), an integer over
    D_{a-1} b^(a+shift) summed in Horner form over k = a - i (multipliers
    D_k / D_{k-1} = L k).  The poles are added over one denominator,
    D_{a-1} M^(a+shift) with M = lcm of the b, and one Fraction is formed.
    """
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    a, n = table.spec.a, table.spec.n
    L = table.den[1]                                # D_k = L^k k!
    bs = [p - j * q for j in range(-n, n + 1)]
    if 0 in bs:
        raise ValueError(f"t={t} is a pole")
    M = math.lcm(*bs)
    weights = [(binomial(a - k + 1, 2) if shift else 1) * q ** (a - k + shift) for k in range(a)]
    out = 0
    for b, col in zip(bs, zip(*table.num)):
        acc = 0
        for k, (x, weight) in enumerate(zip(col, weights)):
            acc = acc * (L * k) + x * (weight * b ** k)
        out += acc * (M // b) ** (a + shift)
    return Fraction(out, table.den[a - 1] * M ** (a + shift))


def half_second_derivative_exact(table: PartialFractionTable, t) -> Fraction:
    """(1/2) R''(t) evaluated exactly through the partial fractions
    (``_pole_sum``)."""
    return _pole_sum(table, t, 2)


def verify_partial_sum_identity(table: PartialFractionTable, form: ZetaLinearForm,
                                upto: int) -> bool:
    """Exact finite-T identity certifying the l_0 / l''_0 bookkeeping.

    For every T > n:
      plain:   sum_{t=n+1}^{T} R(t)        == l_0   + sum_{i,j} c_{i,j} H^(i)_{T-j}
      derived: sum_{t=n+1}^{T} (1/2)R''(t) == l''_0 + sum_{i,j} c_{i,j} C(i+1,2) H^(i+2)_{T-j}

    Both sides are rationals; equality is checked bit for bit.  The left
    side is evaluated through an independent route (factored products for
    R, differentiated partial fractions for R'').
    """
    n = table.spec.n
    if form.kind == PLAIN:
        term = build_summand(table.spec).eval_exact
    else:
        term = partial(half_second_derivative_exact, table)
    lhs = sum((term(t) for t in range(n + 1, upto + 1)), Fraction(0))
    return lhs == form.constant + _harmonic_tails(table, form.kind, upto)


@dataclass(frozen=True)
class DenominatorReport:
    spec: FormSpec
    kind: str
    exponent: int
    d2n: int
    passed: bool


def denominator_check(form: ZetaLinearForm) -> DenominatorReport:
    """Does d_{2n}^{a+2} clear every coefficient to an integer?"""
    spec = form.spec
    d2n = lcm_upto(2 * spec.n)
    mult = d2n ** (spec.a + 2)
    ok = all(mult % c.denominator == 0
             for c in (form.constant, *form.zeta_coeffs.values()))
    return DenominatorReport(spec=spec, kind=form.kind, exponent=spec.a + 2,
                             d2n=d2n, passed=ok)


def smallest_clearing_exponent(form: ZetaLinearForm) -> int | None:
    """Least e with d_{2n}^e * coefficient integral for all coefficients."""
    spec = form.spec
    d2n = lcm_upto(2 * spec.n)
    coeffs = [form.constant] + list(form.zeta_coeffs.values())
    for e in range(0, spec.a + 3):
        mult = d2n ** e
        if all(mult % c.denominator == 0 for c in coeffs):
            return e
    return None


@dataclass(frozen=True)
class GrowthReport:
    a: int
    r: int
    bound_log: float
    rows: tuple[tuple[int, float], ...]   # (n, max_i log|l_i| / n)
    slack: float
    flagged: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.flagged


def coeff_growth(a: int, r: int, n_values, slack: float = 0.5) -> GrowthReport:
    """Empirical growth exponent of the coefficients against the bound
    log(2^{2(a-6r)} (2r+1)^{6(2r+1)}), flagging any n exceeding bound+slack."""
    bound = 2 * (a - 6 * r) * math.log(2) + 6 * (2 * r + 1) * math.log(2 * r + 1)
    rows = []
    flagged = []
    for n in n_values:
        spec = FormSpec(a=a, r=r, n=n)
        form = zeta_form_plain(table_for(spec))
        mx = max(
            [abs(form.constant)] + [abs(c) for c in form.zeta_coeffs.values()]
        )
        val = _log_of_fraction(mx) / n
        rows.append((n, val))
        if val > bound + slack:
            flagged.append(n)
    return GrowthReport(a=a, r=r, bound_log=bound, rows=tuple(rows),
                        slack=slack, flagged=tuple(flagged))


def _log_of_fraction(x: Fraction) -> float:
    """log |x|; math.log takes ints of any size."""
    if x == 0:
        return float("-inf")
    return math.log(abs(x.numerator)) - math.log(x.denominator)


# Canonical JSON encoding (stable field order, rationals as digit strings).

def _frac_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def spec_json(spec: FormSpec) -> dict:
    return {"a": spec.a, "r": spec.r, "n": spec.n}


def form_to_json(form: ZetaLinearForm) -> dict:
    return {
        "schema": "zetaforms/linear-form@1",
        "spec": spec_json(form.spec),
        "kind": form.kind,
        "constant": _frac_json(form.constant),
        "zeta_coefficients": [
            {"i": i, "zeta_argument": arg, "coefficient": _frac_json(form.zeta_coeffs[i]),
             "multiplier": str(binomial(i + 1, 2)) if form.kind == DOUBLE_DERIVED else "1"}
            for arg, i, _c in form.terms()
        ],
    }
