"""Arbitrary-precision evaluation with certified error bounds.

Every certified value is a Python integer at an explicit scale 2^P until
one conversion to mpf per result, made at the precision the caller
passes (``PrecisionContext.workdps`` or ``wdps``); the integer kernels
read no mp.prec, and no cache holds a precision.  Every value and every
decision (the route of a series, its split point and K, an expansion
point) is a function of its call's arguments; the one table held across
calls is the exact tangent numbers, which no estimate reads.  Five layers:

* Zeta values.  ``_zeta_borwein`` sums Borwein's alternating series on
  exact integers: the coefficients d_k depend only on the term count n,
  which the target sets, so one table of them and one pass over k serve
  every s a call asks for.  At each k the smallest exponent's summand is
  floored once at a small scale 2^g and each larger one is the previous
  one floored by (k+1)^gap; an exponent leaves the pass at its first zero
  quotient, and each value is floored once at one scale 2^B, the same
  for every exponent, set by the digits asked for.  No zeta value is
  held: each call that reads them makes them (``zeta_value`` one,
  ``eval_S_form`` its form's, and ``measure_rates`` all of its forms' in
  one pass), and ``zeta_value`` converts its one once, at the caller's
  workdps.

* Euler-Maclaurin power sums.  One routine, ``_em_tail_range``, gives
  sum_{m >= x0} m^{-s} for a list of ascending (s, tolerance) pairs at
  one start x0; the Laurent tails call it at x0 = T.  The direct part up
  to the expansion point X and the expansion at X are both summed on
  Python integers at one scale 2^P, set by the hardest tolerance and the
  bits of their floor errors, and returned as integers at that scale.
  X comes from the tolerance of the smallest exponent (``_em_point``):
  about its digit count, a little more for a single exponent.  For the
  completely monotone integrand x^{-s} the Euler-Maclaurin remainder is
  no larger than the first omitted correction term, so each expansion
  stops once that term is below its tolerance (X grows if the terms
  bottom out too early), and the kernel carries an integer bound on its
  floor errors.  The coefficients B_2k/(2k)! X^(1-2k) do not depend on
  s: one table of them as integers, made by the call for X and the bits
  of its scale, serves every s it expands at X.  B_2k comes from exact
  integer tangent numbers, whose one table serves every scale.  The
  Laurent tail holds only its nonzero coefficients.

* Exact forms.  ``eval_S_form`` evaluates S_n = l_0 + sum l_i zeta(i)
  (or S''_n) from its exact coefficients and the zeta integers, summed
  on integers over the coefficients' common denominator at one scale and
  divided once.  The coefficients cancel from sum|coeff| down to the
  value, so the zeta values must be good to 10^-digits with digits at
  least log10 sum|coeff| minus the target; the certified error is
  sum|coeff| 10^-digits plus the one rounding.  ``measure_rates`` takes
  this route, and makes the zeta values of all its forms at once.

* Direct summation of the defining series, the independent cross-check
  behind ``eval_S_direct`` and ``form_residual``.  Every quantity is a
  Python integer scaled by 2^P, with P from the target (raised once if
  the rounding misses it).  Terms are advanced by the exact integer term
  ratio, R <- R num // den; the double-derived summand
  (1/2) R''(t) is realized as R(t) (L(t)^2 + L'(t))/2 where L = R'/R is a
  sum of simple poles, each floored once as (1 << P) // x and updated in
  O(1) per step.  Beside the sum the kernel carries an integer bound on
  its floor errors (a running recurrence for the term's own error, one
  unit per floor, |x| e_y + |y| e_x + e_x e_y per product), and that
  rounding bound is part of the certified error ``eval_S_direct``
  returns.

* Tail completion.  Either an elementary bound
  sum_{t >= T} R(t) <= A(T) (T^-D + T^{1-D}/(D-1)) after a long head,
  where the decay exponent D lets it truncate outright, or the exact
  Laurent expansion of R at infinity after a head up to the target's
  digits, about where the power sums start their expansion: R = sum b_s t^-s
  with integer b_s from long division in y = 1/t^2 (every other b_s is 0
  and is not held),
  whose truncation error is bounded from the division residual at the
  split point T, where each pole factor |1 - j/t| is at least 1 - n/T.
  The tail then becomes a finite combination of certified power-sum
  tails, an exact integer sum.  ``_route`` chooses between them by one
  comparison, of the direct head's length with the square of the tail's
  degree, builds the Laurent expansion only where it takes that route,
  and hands it on the route to ``eval_S_direct``, which adds the head and
  the tail by exact shifts and converts once.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Sequence

from mpmath import mp, mpf

from . import linear_forms
from .linear_forms import (FormSpec, Summand, ZetaLinearForm, build_summand, PLAIN,
                           DOUBLE_DERIVED, _log_of_fraction)

_log = logging.getLogger("zetaforms")


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal working precision plus guard digits."""

    digits: int = 50
    guard: int = 20

    def __post_init__(self):
        if self.digits < 50:
            raise ValueError("digits must be >= 50")
        if self.guard < 10:
            raise ValueError("guard must be >= 10")

    @property
    def workdps(self) -> int:
        return self.digits + self.guard


_LOG2_10 = math.log2(10)
_LOG10_2 = math.log10(2)
_LN10 = math.log(10)


def _log10_add(x: float, y: float) -> float:
    """log10(10^x + 10^y)."""
    if x < y:
        x, y = y, x
    if x == float("-inf"):
        return x
    return x + math.log10(1 + 10 ** max(y - x, -300))


# ---------------------------------------------------------------------------
# Zeta values


_LN_BORWEIN = math.log(3 + math.sqrt(8))
_LN6 = math.log(6)


def _borwein_d(n: int) -> list[int]:
    """d_k = sum_{i <= k} t_i for k = 0..n, t_i = n (n+i-1)! 4^i / ((n-i)! (2i)!).

    t_i = n/(n+i) C(n+i, 2i) 4^i is the coefficient of x^i in the
    Chebyshev polynomial T_n(1 + 2x), an integer, so the recurrence
    t_0 = 1, t_i = t_{i-1} 4 (n+i-1)(n-i+1) / ((2i-1) 2i) divides exactly;
    d_n = T_n(3) = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2."""
    t = d = 1
    table = [d]
    for i in range(1, n + 1):
        t = t * 4 * (n + i - 1) * (n - i + 1) // ((2 * i - 1) * 2 * i)
        d += t
        table.append(d)
    return table


def _zeta_borwein(exponents: Iterable[int], digits: int) -> tuple[int, dict[int, int]]:
    """zeta(s) for every integer s >= 2 in ``exponents`` from Borwein's
    alternating series ("An efficient algorithm for the Riemann zeta
    function", 2000), summed for all of them in one pass over k:

        zeta(s) = sum_{k < n} (-1)^k (d_n - d_k) / (k+1)^s / (d_n (1 - 2^(1-s)))
                  + gamma_n(s),
        |gamma_n(s)| <= 3 (1 + 2|t|) / ((3+sqrt 8)^n |1 - 2^(1-s)|),

    with d_k from ``_borwein_d``.  For real s >= 2, t = 0 and
    |1 - 2^(1-s)| >= 1/2, so |gamma_n(s)| <= 6 (3+sqrt 8)^-n.  Returns
    (B, {s: z}), one scale for every exponent: z 2^-B is within
    10^-digits + 10^-(digits+3) of zeta(s), the truncation below the first
    and the floors below the second.

    * Truncation.  n = ceil((digits ln 10 + ln 6) / ln(3+sqrt 8)), and
      d_n > 3 10^digits is checked on integers, so
      (3+sqrt 8)^n > 2 d_n - 1 >= 6 10^digits and |gamma_n(s)| < 10^-digits.
      n does not depend on s, so every exponent shares n, d and g.
    * Floors.  The sum is taken on integers at the scale 2^g, 2^g > 1000 n,
      as sum (-1)^k floor((d_n - d_k) 2^g / (k+1)^s).  At each k the
      smallest exponent's quotient is one such floor, and each next one is
      the previous quotient floored by (k+1)^gap; nested floors by positive
      integers are one floor by their product, so every quotient is the
      floor of its own exponent.  The quotients do not increase with k nor
      with s, so after the first zero of an exponent every later one of it
      and of every larger exponent is 0, and those leave the pass there.
      The n floors, each within one unit, move the sum by less than n
      units, and the value by less than
      n 2^-g / (d_n (1 - 2^(1-s))) < 2n / (1000 n 3 10^digits)
      = (2/3) 10^-(digits+3).  One integer division then gives z, the
      floor of the sum's value scaled by 2^B, B = max(g, ceil((digits+4)
      log2 10)), within 2^-B <= 10^-(digits+4) (the float rounding of
      (digits+4) log2 10 is far inside the margin left).
    """
    order = sorted(set(exponents))
    n = math.ceil((digits * _LN10 + _LN6) / _LN_BORWEIN)
    d = _borwein_d(n)
    top = d[n]
    assert top > 3 * 10 ** digits
    g = (1000 * n).bit_length()
    first, gaps = order[0], [b - a for a, b in zip(order, order[1:])]
    totals = [0] * len(order)
    live = len(order)                   # exponents whose quotients are not yet 0
    for k in range(n):
        m = k + 1
        mm = m * m
        q = ((top - d[k]) << g) // m ** first
        for i in range(live):
            if i:
                gap = gaps[i - 1]
                q //= mm if gap == 2 else m ** gap
            if not q:
                live = i
                break
            totals[i] += -q if k & 1 else q
        if not live:
            break
    # value = total 2^(s-1) / (2^g d_n (2^(s-1) - 1))
    p = max(0, math.ceil((digits + 4) * _LOG2_10) - g)
    return g + p, {s: (total << (s - 1 + p)) // (top * ((1 << (s - 1)) - 1))
                   for s, total in zip(order, totals)}


def zeta_value(s: int, ctx: PrecisionContext) -> mpf:
    """zeta(s) for integer s >= 2, absolute error below 10^-digits, as
    one conversion of the integer of ``_zeta_borwein`` to mpf at workdps.

    That integer, made for digits + 4, is within 10^-(digits+4) +
    10^-(digits+7) < 10^-(digits+3) of zeta(s) at its scale.  The
    conversion at w = workdps >= digits + 10 rounds once, by at most
    2^-prec of a value below 2, where mpmath's prec is at least
    (w+1) log2 10 - 1/2 bits: below 3 10^-(w+2).  Together these stay
    below 10^-(digits+3) + 10^-(digits+11) < 10^-digits.
    """
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"zeta_value needs an integer s >= 2, got {s!r}")
    B, z = _zeta_borwein([s], ctx.digits + 4)
    with mp.workdps(ctx.workdps):
        return mp.ldexp(mpf(z[s]), -B)


# ---------------------------------------------------------------------------
# Euler-Maclaurin power sums


# Tangent numbers T_1, T_2, ... = 1, 2, 16, 272, ..., exact and so shared
# by every precision.  Brent and Harvey (2011) make T_1..T_n in place by
# T_j <- (j-i) T_{j-1} + (j-i+2) T_j for stages i = 2..n, j = i..n, from
# T_j = (j-1)!.  Run one j at a time, column j after stage i is
# h_j(i) = (j-i) h_{j-1}(i) + (j-i+2) h_j(i-1), h_j(1) = (j-1)!, and
# T_j = h_j(j); _TANGENT_STAGES holds h_j(1..j) of the last j made.
_TANGENT: list[int] = []
_TANGENT_STAGES: list[int] = []


def _tangent(k: int) -> int:
    """The tangent number T_k, k >= 1; B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    global _TANGENT_STAGES
    while len(_TANGENT) < k:
        j = len(_TANGENT) + 1
        prev = _TANGENT_STAGES
        col = [(j - 1) * prev[0] if prev else 1]
        for i in range(2, j):
            col.append((j - i) * prev[i - 1] + (j - i + 2) * col[-1])
        if j > 1:
            col.append(2 * col[-1])          # stage j: h_{j-1}(j) has factor 0
        _TANGENT_STAGES = col
        _TANGENT.append(col[-1])
    return _TANGENT[k - 1]


class _EMTable:
    """The Euler-Maclaurin coefficients at one expansion point X, as
    d_k = c_k (2k-2)! = B_2k / (2k (2k-1)) X^(1-2k), k = 1, 2, ..., with
    c_k = B_2k/(2k)! X^(1-2k): integers C_k in ``c`` and shifts R_k in
    ``r``, C_k within 2 of d_k 2^(R_k), with 2^(bits-1) <= |C_k| < 2^(bits+2).
    Taking (2k-2)! into the coefficient keeps the other factor of a term,
    (s)_{2k-1} / (2k-2)! = s C(s+2k-2, 2k-2), a binomial, small.  The
    coefficients do not depend on s, so every s expanded at X (the
    exponents of one Laurent tail) reads them from here.  Each
    ``_em_tail_range`` call makes its own table for X and ``bits``, the
    scale 2^P of the expansions it serves (``_em_at``); it holds no
    precision state: each C_k comes from the exact tangent number T_k
    (``_tangent``) and the exact running X^(2k), by one integer
    division, when first asked for."""

    __slots__ = ("X", "bits", "c", "r", "_den")

    def __init__(self, X: int, bits: int):
        self.X, self.bits = X, bits
        self.c: list[int] = []
        self.r: list[int] = []
        self._den = 1                   # X^(2k) of the last k made

    def extend(self) -> None:
        k = len(self.c) + 1
        X = self.X
        self._den *= X * X
        # |d_k| = T_k X / (4^k (4^k - 1) (2k-1) X^(2k)) = num / (4^k den)
        num = _tangent(k) * X
        den = ((1 << 2 * k) - 1) * (2 * k - 1) * self._den
        # floor(num 2^shift / den) from the top bits + 32 bits of den:
        # within 1 + 2^-28 of num 2^shift / den, which is in
        # [2^bits, 2^(bits+2))
        shift = self.bits + 1 + den.bit_length() - num.bit_length()     # R_k - 2k
        cut = max(0, den.bit_length() - self.bits - 32)
        top = num << (shift - cut) if shift >= cut else num >> (cut - shift)
        q = top // (den >> cut)
        self.c.append(q if k % 2 else -q)
        self.r.append(shift + 2 * k)


_EM_TERM_CAP = 4000


def _em_at(s: int, X: int, Xs: int, P: int, F: int,
           table: _EMTable) -> tuple[int, int] | None:
    """Euler-Maclaurin expansion of sum_{m >= X} m^{-s} at the point X on
    integers scaled by 2^P, stopped at the first term below 2^F units; Xs
    is X^s.  Returns (value, err): value holds the first K - 1 terms, the
    K-th is the first below 2^F, and the sum is within 2^F + err units of
    value.  None if the terms stop decreasing or pass _EM_TERM_CAP first
    (the caller must enlarge X).

    With xs = floor(2^P / X^s), the pieces X^(1-s)/(s-1) and X^-s/2 are
    floor(2^P / ((s-1) X^(s-1))) and floor(xs / 2), and term k,
    c_k (s)_{2k-1} X^-s = d_k b_k X^-s with b_k = s C(s+2k-2, 2k-2)
    (``_EMTable``), is floor((C_k >> j) p_k / 2^(R_k - j)) with
    p_k = b_k xs, advanced by the exact (s+2k-1)(s+2k) / ((2k-1) 2k), and
    j = max(0, R_k - bits(p_k) - 1): only the bits of C_k that reach the
    unit are multiplied.

    Proof of the bound.  Each piece is one floor, within one unit.  With
    pi_k = b_k 2^P X^-s the true p_k and t_k = d_k pi_k the true term, the
    computed t'_k is within 1 + u_k + v_k of t_k: the floor of the shift,
    u_k = |(C_k >> j) 2^j - d_k 2^(R_k)| p_k 2^-(R_k) and
    v_k = |d_k| (pi_k - p_k) < |d_k| b_k.  The coefficient is off by less
    than 2^j + 2: for j >= 1 that is at most 2^(j+1), and
    u_k < 2^(j+1+bits(p_k)-R_k) = 1; for j = 0, u_k < 2 p_k 2^-(R_k) and,
    as |C_k| >= 2^(bits-1) and |C_k| p_k 2^-(R_k) <= |t'_k| + 1,
    u_k < (|t'_k| + 1) / 2^(bits-2).  For xs >= 1, b_k = p_k / xs, so
    v_k < |d_k| 2^(R_k) p_k 2^-(R_k) / xs <= (|t'_k| + 1 + u_k) / xs; for
    xs = 0 every p_k is 0, t'_1 = 0 stops the expansion, and
    v_1 < |d_1| s = s / (12 X).  With A = sum_{k <= K} |t'_k|, the K terms
    are together within K + U + V units, U = K + ceil((A + K) / 2^(bits-2))
    and V = ceil((A + K + U) / xs) (s // (12 X) + 1 at xs = 0).  For the
    completely monotone x^-s the remainder after K - 1 terms is at most
    |t_K| <= |t'_K| + (its share of K + U + V) with |t'_K| < 2^F, so the
    sum is within 2^F + err units of value, err = 2 + K + U + V.
    """
    one = 1 << P
    xs = one // Xs
    value = one // ((s - 1) * (Xs // X)) + (xs >> 1)
    stop = 1 << F
    c, r = table.c, table.r
    p = s * xs                          # s C(s+2k-2, 2k-2) xs
    size = 0                            # A: sum of |t'_k| formed
    prev = None
    for k in range(1, _EM_TERM_CAP + 1):
        if k > len(c):
            table.extend()
        # only the top bits of C_k that reach the unit: (C_k >> j) p_k
        # is within 2^j p_k < 2^(R_k - 1) of C_k p_k
        R = r[k - 1]
        j = R - p.bit_length() - 1
        term = (c[k - 1] >> j) * p >> (R - j) if j > 0 else c[k - 1] * p >> R
        at = abs(term)
        size += at
        if at < stop:
            break
        if prev is not None and at >= prev:
            return None                 # terms no longer decreasing
        value += term
        prev = at
        p = p * ((s + 2 * k - 1) * (s + 2 * k)) // ((2 * k - 1) * (2 * k))
    else:
        return None
    U = k + ((size + k - 1) >> (table.bits - 2)) + 1
    V = -(-(size + k + U) // xs) if xs else s // (12 * X) + 1
    return value, 2 + k + U + V


# Guard bits of the scale 2^P of ``_em_tail_range`` beyond the hardest
# tolerance and its floor-error allowance: 20 leave every error bound
# below 2^-20 of the stop, and 2 cover the rounding of tol log2 10 to
# whole bits, up for P and down for the stop.
_EM_GUARD = 22
_EM_ALLOWANCE = 1 << 12     # expansion floor errors the first scale allows
_EM_TOL_MARGIN = 2 ** -16   # tol log2 10 is lowered by this before its floor


def _em_scale(hardest: float, width: int) -> int:
    """The scale P of ``_em_tail_range`` for the hardest log10 tolerance
    and a direct part of ``width`` m: the bits of the tolerance, of the
    direct part's floor errors and an allowance for the expansion's, and
    _EM_GUARD."""
    return (max(0, math.ceil(-hardest * _LOG2_10))
            + (2 * width + _EM_ALLOWANCE).bit_length() + _EM_GUARD)


def _em_point(x0: int, needed: Sequence[tuple[int, float]]) -> int:
    """The expansion point X >= x0 for the needed (s, log10 tolerance)
    pairs, s ascending: X = D (1 + 0.3 / N), D the digits of the smallest
    s's tolerance (its terms carry the least X^-s, so it binds) and N the
    count of needed s.  At X below D / (2 pi log10 e) = 0.37 D its terms
    bottom out above 10^-D; above that, they fall in number as the
    direct part's X - x0 steps rise.  Measured from x0 = 48, the
    criterion-1 grid's tails (N = 128 or 256) took about the same time from
    X = 0.8 D to 1.3 D and 10 % more at 0.6 D.  The Laurent tails now start
    at the target's digits (``_route``), a little below D: on the grid,
    x0 = 262 and X = 268 to 333.  There the 58 tails took 0.37-0.57 s at
    X = D to 1.1 D, 0.55-0.60 s at 1.3 D and 0.63-0.65 s at 1.6 D.  With
    one exponent a direct step carries one row, cheap against a table
    entry, so X sits 0.3 D further out: zeta(3..15) at 900 digits then
    build 295 entries, 330 at X = D.  ``_em_tail_range`` grows X if an
    expansion bottoms out all the same."""
    return max(x0, math.ceil(-needed[0][1] * (1 + 0.3 / len(needed))))


def _em_tail_range(x0: int, needed: Sequence[tuple[int, float]]) -> tuple[int, list[int]]:
    """sum_{m >= x0} m^{-s} for every (s, log10 tolerance) pair of
    ``needed``, the one Euler-Maclaurin power sum, behind the Laurent
    tails (x0 = T).  Its x0 = 1 case, zeta(s), is the tests' oracle for
    ``zeta_value``.

    Returns (P, sums): one integer per pair, in the order of ``needed``,
    the power sum scaled by 2^P.  The s must be strictly ascending, from
    s >= 2, with x0 >= 1 and at least one pair; ValueError otherwise.  The
    direct part, m from x0 to the expansion point X, is shared by all s;
    the expansion at X stops each s at its own tolerance, reading the
    coefficient table that all of them share (``_EMTable``, made here for
    X and 2^P).  Both are summed on integers at one scale 2^P
    (``_em_scale``) and added; nothing is converted.  The direct loop
    steps from one s to the next by m^gap, and leaves each m once its
    term is floored to 0.  X starts at about the digits of the smallest
    s's tolerance (``_em_point``) and grows while some expansion bottoms
    out above its tolerance.

    Each sum is within 10^tol 2^P units of the power sum scaled by 2^P.
    At every s the direct part's w is floor(2^P / m^s) (nested floors by
    integers are one floor by their product), so each (m, s) is within 2
    units, and a w floored to 0 stays below them: d = 2 (X - x0) units in
    all.  The expansion is stopped at 2^F units,
    F = P + floor(tol log2 10 - 2^-16), and is within 2^F + e units
    (``_em_at``).  P is raised by the shortfall until d + e < 2^(F-20) at
    every s, so sum 2^-P is within 2^(F-P) (1 + 2^-20) < 2^(F-P) 2^(2^-16)
    <= 10^tol: the float rounding of tol log2 10 is far below 2^-16.
    """
    if x0 < 1:
        raise ValueError("need x0 >= 1")
    if not needed:
        raise ValueError("no exponent is needed")
    if needed[0][0] < 2:
        raise ValueError("need s >= 2")
    # the loops step from one s to the next by m^gap and X^gap
    gaps = [b - a for (a, _), (b, _) in zip(needed, needed[1:])]
    if min(gaps, default=1) < 1:
        raise ValueError("the exponents must be strictly ascending")
    gaps.append(0)
    hardest = min(t for _, t in needed)
    first = needed[0][0]
    X = _em_point(x0, needed)
    raised = 0
    while True:
        err = 2 * (X - x0)
        P = _em_scale(hardest, X - x0) + raised
        one = 1 << P
        direct = [0] * len(needed)
        for m in range(x0, X):
            w = one // m ** first
            mm = m * m                  # the gap between exponents of one parity
            for i, gap in enumerate(gaps):
                direct[i] += w
                w //= mm if gap == 2 else m ** gap
                if not w:
                    break
        table = _EMTable(X, P)
        acc = []
        Xs = X ** first
        short = 0
        for (s, tol), gap, d in zip(needed, gaps, direct):
            F = P + math.floor(tol * _LOG2_10 - _EM_TOL_MARGIN)
            got = _em_at(s, X, Xs, P, F, table)
            if got is None:
                X += max(32, X)
                break
            value, e = got
            short = max(short, (err + e).bit_length() + 20 - F)
            acc.append(d + value)
            Xs *= X ** gap
        else:
            if short <= 0:
                return P, acc
            raised += short


# ---------------------------------------------------------------------------
# Laurent expansion of the summand at infinity


def _even_poly(scale: int, roots: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """(g, deg) with scale prod (t - c)^e = t^deg g(1/t^2) over the (root c,
    multiplicity e) pairs.  The roots must pair up as +-c, all of one
    multiplicity e, or ValueError is raised; f = prod_{c > 0} (1 - c^2 y)
    is multiplied out and g = scale f^e made by J.C.P. Miller's recurrence
    k g_k = sum_{i=1..k} ((e+1) i - k) f_i g_{k-i}, exact as f_0 = 1."""
    mult: dict[int, int] = {}
    for c, e in roots:
        mult[c] = mult.get(c, 0) + e
    e = max(mult.values())
    if any(mult.get(-c) != e for c in mult):
        raise ValueError("the roots do not pair up as +-c of one multiplicity")
    f = [1]
    for c in sorted(c for c in mult if c > 0):
        f = [u - c * c * v for u, v in zip(f + [0], [0] + f)]
    d = len(f) - 1
    g = [scale]
    for k in range(1, e * d + 1):
        g.append(sum(((e + 1) * i - k) * f[i] * g[k - i] for i in range(1, min(k, d) + 1)) // k)
    return g, sum(mult.values())


_LAURENT_DEGREE_CAP = 2000     # largest degQ = a(2n+1) expanded


def _radius_norms_log10(c: Sequence[int], m: int, T: int) -> tuple[float, float, float]:
    """log10 of sum |c_u| T^-u, sum u |c_u| T^(1-u) and
    sum u(u-1) |c_u| T^(2-u): bounds on |f|, |f'| and |f''| of
    f(x) = sum c_u x^u over |x| <= 1/T, for f(x) = c(x^2) of degree at
    most m, c given by its coefficients in y = x^2.  Each is an integer
    over T^m, made by Horner's rule in T^2 times T^(m - 2 last), last the
    degree of c in y; -inf for a zero norm."""
    h0 = h1 = h2 = 0
    TT = T * T
    for i, ci in enumerate(c):
        v = abs(ci)
        u = 2 * i
        h0 = h0 * TT + v
        h1 = h1 * TT + u * v
        h2 = h2 * TT + u * (u - 1) * v
    lift = T ** (m - 2 * (len(c) - 1))
    lgT = math.log10(T)
    return tuple(math.log10(h * lift) - (m - i) * lgT if h else float("-inf")
                 for i, h in enumerate((h0, h1, h2)))


class LaurentTail:
    """Expansion R(t) = sum_{s >= D} b_s t^{-s} with exact error control.

    The summand's roots and poles pair up as +-c, so with x = 1/t and
    y = x^2, R = x^D p(y)/q(y) with q(y) = prod_{j=1..n} (1 - j^2 y)^a and
    p(y) = scale prod_c (1 - c^2 y)^3 (``_even_poly``).  Long division in y
    yields the integer b_D, b_(D+2), ... held in ``b`` (every other b_s is
    0 and is not held), and after i steps an exact residual e_y of degree
    below deg q.  K counts coefficients in x and must be even: K = 2i and

        R(t) - W_K(t) = t^{-D-K} e_y(1/t^2) / q(1/t^2).

    For t >= T > n every factor |1 - j/t| is at least 1 - n/T, so
    |q| >= (1 - n/T)^degQ, and the coefficient norms in x of e_y(x^2) and
    q(x^2) at radius 1/T turn the residual into explicit tail bounds, for
    the function itself and for (1/2) of its second derivative
    (``tail_bound_log10``).  Only the residual at the count divided to is
    held, and each tail is built by the call that reads it.
    """

    def __init__(self, summand: Summand):
        self.summand = summand
        spec = summand.spec
        if spec.a * (2 * spec.n + 1) > _LAURENT_DEGREE_CAP:
            raise ArithmeticError(
                "Laurent tail needs the expanded denominator; its degree "
                f"{spec.a * (2 * spec.n + 1)} is past the practical cap. "
                "Large n has a steep decay exponent: use plain truncation.")
        self.n = spec.n
        self.min_t = 2 * self.n + 2
        p, deg_p = _even_poly(summand.scale, summand.numerator_roots)
        self._q, self.degQ = _even_poly(1, [(j, summand.pole_order) for j in summand.poles])
        self.D = self.degQ - deg_p
        self.b: list[int] = []
        # e_y after len(b) steps, of degree below deg q
        self._e = p + [0] * (len(self._q) - 1 - len(p))

    def extend(self, K: int) -> None:
        """Divide on to the coefficients b_s, s < D + K; K even."""
        if K % 2:
            raise ValueError(f"K counts coefficients in x and must be even, got {K}")
        e, q = self._e, self._q
        for _ in range(len(self.b), K // 2):
            c = e[0]
            self.b.append(c)
            # one division step in y: e/y - c q/y
            e = [x - c * y for x, y in zip(islice(e, 1, None), islice(q, 1, None))]
            e.append(-c * q[-1])
        self._e = e

    def tail_bound_log10(self, kind: str, K: int, T: int) -> float:
        """Certified log10 bound for |sum_{t >= T} (R - W_K)(t)| (plain)
        or the same for (1/2)(R - W_K)'' (double-derived).  T >= 2n+2, and
        K even and no less than the count the tail is divided to.

        Proof.  Let x = 1/t <= 1/T and v = D + K, so (R - W_K)(t) =
        x^v g(x) with g = e/q, e(x) = e_y(x^2) of degree below degQ.  Every
        pole j has |j| <= n < T, so |q(x)| = prod |1 - j x|^a >=
        (1 - n/T)^degQ =: m.  With E_i = sum_u u!/(u-i)! |e_u| T^(i-u) and
        Q_i the same for q (``_radius_norms_log10``), |e^(i)(x)| <= E_i and
        |q^(i)(x)| <= Q_i, so from g' = (e'q - eq')/q^2 and
        g'' = ((e''q - eq'')q - 2q'(e'q - eq'))/q^3:

            |g| <= E_0/m,  |g'| <= (E_1 Q_0 + E_0 Q_1)/m^2,
            |g''| <= ((E_2 Q_0 + E_0 Q_2) Q_0 + 2 Q_1 (E_1 Q_0 + E_0 Q_1))/m^3.

        Plain: |(R - W_K)(t)| <= t^-v |g|.  Derived: with d/dt = -x^2 d/dx,
        (t^-v g(1/t))'' = t^-(v+2) (v(v+1) g + (2v+2) x g' + x^2 g''), so
        (1/2)|(R - W_K)''(t)| <= (1/2) t^-(v+2) (v(v+1)|g| + (2v+2)|g'|/T
        + |g''|/T^2).  In both the factor of t is t^-w, w = v or v + 2,
        and sum_{t >= T} t^-w <= T^-w + T^(1-w)/(w-1).
        """
        if T < self.min_t:
            raise ValueError(f"T must be >= {self.min_t}")
        self.extend(K)
        if K < 2 * len(self.b):
            raise ValueError(f"the tail holds its residual at K = {2 * len(self.b)}, not at {K}")
        E0, E1, E2 = _radius_norms_log10(self._e, self.degQ - 1, T)
        if E0 == float("-inf"):
            return E0
        lm = self.degQ * math.log10(T / (T - self.n))
        Q0, Q1, Q2 = _radius_norms_log10(self._q, self.degQ, T)
        lgT = math.log10(T)
        v = self.D + K
        if kind == PLAIN:
            c_log = E0 + lm
            power = v
        else:
            g1 = _log10_add(E1 + Q0, E0 + Q1)
            g2 = _log10_add(_log10_add(E2 + Q0, E0 + Q2) + Q0, _LOG10_2 + Q1 + g1)
            c_log = _log10_add(math.log10(v * (v + 1)) + E0 + lm,
                               math.log10(2 * v + 2) + g1 + 2 * lm - lgT)
            c_log = _log10_add(c_log, g2 + 3 * lm - 2 * lgT) - _LOG10_2
            power = v + 2
        return c_log + _log10_add(-power * lgT, (1 - power) * lgT - math.log10(power - 1))

    def tail_value(self, kind: str, K: int, T: int, tol_log10: float) -> tuple[int, int]:
        """sum_{t >= T} W_K(t) (plain) or sum (1/2) W_K''(t) (derived), as
        (Y, P): Y is the tail scaled by 2^P, an exact integer sum.

        Both are sum_i w_i sum_{t >= T} t^{-(s_i + shift)} over the held
        coefficients, s_i = D + 2i: plain has w_i = b_(s_i) and shift 0,
        derived w_i = b_(s_i) s_i (s_i+1)/2 and shift 2.  Each power sum
        with w_i != 0 is an integer Z_i at the scale 2^P (``_em_tail_range``)
        certified to 10^tol_log10 / (100 K |w_i|), so Y = sum w_i Z_i is
        within 10^(tol_log10 - 2) 2^P units of the tail.
        """
        self.extend(K)
        shift = 0 if kind == PLAIN else 2
        weights = [(s + shift, b if kind == PLAIN else b * (s * (s + 1) // 2))
                   for s, b in zip(range(self.D, self.D + K, 2), self.b) if b]
        spread = math.log10(max(K, 1)) + 2
        P, tails = _em_tail_range(
            T, [(s, tol_log10 - math.log10(abs(w)) - spread) for s, w in weights])
        return sum(w * z for (_s, w), z in zip(weights, tails)), P


# ---------------------------------------------------------------------------
# Direct summation


def _elementary_tail_bound_log10(spec: FormSpec, kind: str, T: int) -> float:
    """log10 bound for the absolute tail sum_{t >= T} of the summand
    (or of |(1/2) R''|), using factor-by-factor comparisons only."""
    a, r, n = spec.a, spec.r, spec.n
    if T <= (2 * r + 1) * n + 1 or T <= 2 * n + 1:
        return float("inf")
    D = spec.a + 2 * n * (a - 6 * r)
    logA = ((a - 6 * r) * math.lgamma(2 * n + 1) / math.log(10)
            + 6 * r * n * math.log10(1 + (2 * r + 1) * n / T)
            - a * (2 * n + 1) * math.log10(1 - n / T))
    tail = _log10_add(-D * math.log10(T), (1 - D) * math.log10(T) - math.log10(D - 1))
    out = logA + tail
    if kind == DOUBLE_DERIVED:
        cL = 12 * r * n + a * (2 * n + 1)
        out += math.log10((cL * cL + cL) / 2) - 2 * math.log10(T - (2 * r + 1) * n)
    return out


def _direct_sum(spec: FormSpec, kind: str, t_start: int, t_stop: int,
                P: int) -> tuple[int, int]:
    """sum of the summand (plain) or of (1/2) R'' over t in [t_start, t_stop)
    on integers scaled by 2^P: returns (value, err) with the exact sum
    within err / 2^P of value / 2^P.

    ``err`` bounds the accumulated floor errors: one unit per floor, the
    term's own error carried by the running recurrence
    eR <- ceil(eR num/den) + 1, and |x| e_y + |y| e_x + e_x e_y for each
    product x y of two inexact values.  Needs t_start > (2r+1)n, where
    every term is positive.
    """
    a, r, n = spec.a, spec.r, spec.n
    if t_stop <= t_start:
        return 0, 0
    one = 1 << P
    R0 = build_summand(spec).eval_exact(t_start)
    Rt, eR = R0.numerator * one // R0.denominator, 1
    acc = eacc = 0
    derived = kind == DOUBLE_DERIVED
    c = (2 * r + 1) * n
    t = t_start
    if derived:
        # L = R'/R = 3 S - a Sw and L' = -3 T + a Tw.  S, T run over the
        # 4rn simple poles of the numerator blocks, x in [t-c, t-n) and
        # (t+n, t+c]; Sw, Tw over the 2n+1 of the denominator block,
        # x in [t-n, t+n].  Each step moves the four window ends by one:
        # an x enters with its floored 1/x and 1/x^2 and leaves with the
        # same values, so each sum stays within one unit per member.
        rec = {x: (one // x, one // (x * x)) for x in range(t - c, t + c + 1)}
        num_poles = [*range(t - c, t - n), *range(t + n + 1, t + c + 1)]
        S = sum(rec[x][0] for x in num_poles)
        T = sum(rec[x][1] for x in num_poles)
        Sw = sum(rec[x][0] for x in range(t - n, t + n + 1))
        Tw = sum(rec[x][1] for x in range(t - n, t + n + 1))
        eS, eSw = len(num_poles), 2 * n + 1
        eL = 3 * eS + a * eSw
        eM0 = 2 + 3 * eS + a * eSw      # floor and ceil of L L, plus 3 T and a Tw
        half = P + 1                    # the (1/2) of (1/2) R'' is one more shift
        eprod = 0                       # product errors, in units of 2^-half
    while t < t_stop:
        p, q, u, v = t - n, t + n + 1, t - c, t + c + 1
        if derived:
            L = 3 * S - a * Sw
            M = (L * L >> P) - 3 * T + a * Tw
            eM = ((2 * abs(L) * eL + eL * eL) >> P) + eM0
            acc += Rt * M >> half
            eprod += Rt * eM + abs(M) * eR + eR * eM
            rp, rp2 = rec[p]
            rq, rq2 = rec[q]
            ru, ru2 = rec.pop(u)
            rv, rv2 = rec[v] = one // v, one // (v * v)
            S += rp - ru + rv - rq
            Sw += rq - rp
            T += rp2 - ru2 + rv2 - rq2
            Tw += rq2 - rp2
        else:
            acc += Rt
            eacc += eR
        # R(t+1)/R(t) as one exact integer ratio
        num, den = p ** (a + 3) * v ** 3, u ** 3 * q ** (a + 3)
        Rt = Rt * num // den
        eR = -(-eR * num // den) + 1
        t += 1
    if derived:
        # one floor per term, plus the product errors brought to scale
        eacc = (t_stop - t_start) - (-eprod >> half)
    return acc, eacc


@dataclass(frozen=True)
class EvalResult:
    value: mpf
    method: str                 # "direct", "direct+laurent" or "form"
    split_T: int
    terms: int
    # certified log10 error: series truncation (the Laurent tail's own
    # target included) plus the rounding of the head; for "form" the
    # zeta values' error plus rounding
    tail_bound_log10: float
    laurent_K: int | None = None
    zeta_digits: int | None = None   # "form": zeta values certified to 10^-zeta_digits
    work_bits: int | None = None     # direct routes: the head is summed on integers scaled by 2^work_bits


_DIRECT_TERM_CAP = 250_000
_LAURENT_K_CAP = 8192
_GUARD_BITS = 64
# direct heads of up to this many weighted terms per degQ^2 of the Laurent
# tail are summed rather than expanded (``_route``)
_DIRECT_PER_DEGQ2 = 0.41


def _head_bits(terms: int, tol: float) -> int:
    """The scale P a head of ``terms`` terms is first summed at: the bits
    of tol, plus the bits of the term count (each term adds floor errors
    of a few units), plus guard bits."""
    return max(0, math.ceil(-tol * _LOG2_10)) + terms.bit_length() + _GUARD_BITS


def _head_value(spec: FormSpec, kind: str, t0: int, T: int,
                tol: float) -> tuple[int, int, int]:
    """The head over [t0, T) as (head, err, P) from ``_direct_sum``: the
    sum scaled by 2^P is within err units of head.

    P starts at ``_head_bits``.  The floor errors of the terms grow with
    their size, and P does not see how far the terms rise above the first,
    so there the bound can miss tol; the head is then summed once more
    with P raised by the shortfall.
    """
    P = _head_bits(T - t0, tol)
    head, err = _direct_sum(spec, kind, t0, T, P)
    shortfall = math.log10(err) - P * _LOG10_2 - tol if err else 0.0
    if shortfall > 0:
        P += math.ceil(shortfall * _LOG2_10) + _GUARD_BITS
        head, err = _direct_sum(spec, kind, t0, T, P)
    return head, err, P


def _direct_split(spec: FormSpec, kind: str, t0: int, tol: float) -> int | None:
    """The first T = max(64, 2 t0) 2^j whose elementary tail bound meets
    tol, or None if there is none within _DIRECT_TERM_CAP terms."""
    T = max(64, 2 * t0)
    while T - t0 <= _DIRECT_TERM_CAP:
        if _elementary_tail_bound_log10(spec, kind, T) < tol:
            return T
        T *= 2
    return None


@dataclass(frozen=True)
class _Route:
    """The split point T, the Laurent coefficient count K (None for the
    direct route), the log10 tail bound at them, and the Laurent tail the
    search divided to K (None for the direct route)."""

    T: int
    K: int | None
    bound: float
    tail: LaurentTail | None = field(default=None, compare=False, repr=False)


def _route(spec: FormSpec, kind: str, t0: int, tol: float) -> _Route:
    """The route of the series to 10^tol, from one comparison.

    Direct: the head up to the first split T whose elementary tail bound
    meets tol (``_direct_split``).  Laurent: a head up to
    T = max(2 t0, 48, ceil(-tol)) and the least K = 64 2^j whose certified
    bound meets tol.  Direct is taken where ``_direct_split`` finds its T
    and either degQ = a(2n+1) is past the Laurent degree cap or

        w (T - t0) <= 0.41 degQ^2,   w = 1 plain, 3 double-derived;

    the Laurent route everywhere else, with direct again where no K within
    _LAURENT_K_CAP meets tol.  Direct is the only route past the degree
    cap, Laurent the only one where direct cannot reach tol within its cap.

    * w = 3: a double-derived term makes three products at the head's
      scale 2^P where a plain one makes one (timings of the two loops put
      the ratio at 3.2).
    * degQ^2: building the tail multiplied out degQ linear factors when
      0.41 was fitted; it stays until it is refitted to the build in y.
    * 0.41 (_DIRECT_PER_DEGQ2): between the two criterion-1 forms nearest
      the boundary at 250 digits, guard 25, timed with the Laurent split at
      max(2 t0, 48).  (13,1,5) plain sits at 0.400 and stays direct,
      (13,1,6) derived at 0.428 and takes the tail; both were near ties,
      at an estimated 21.7 ms direct against 23.7 ms Laurent and 34.4 ms
      against 27.1 ms.  At the split max(2 t0, 48, ceil(-tol)) the rule
      is not refitted: there (13,1,5) plain took 13-22 ms direct against
      7-13 ms Laurent, and (13,1,6) plain 8-11 ms against 11-17 ms (fresh
      processes, 2-vCPU host).
    * ceil(-tol), the target's digits: ``_em_tail_range`` sums its direct
      part from T up to the expansion point about that far out
      (``_em_point``), one floor per (m, s) for each of the tail's K
      exponents, where the head takes each of those t with one product
      (plain) or three (derived).  Split there, the power sums directly sum
      only the m from T to X, 6 to 71 on the criterion-1 grid, and the
      tail needs about half the K.

    The rule reads only the arguments.  The Laurent route builds its tail
    here, divides it forward through the K it tries and carries it to
    ``eval_S_direct``; a direct route builds no tail.  Each decision is
    logged at DEBUG on the "zetaforms" logger: the route, T and what set
    it, K and the bound, and both sides of the comparison.
    """
    T = _direct_split(spec, kind, t0, tol)
    direct = None if T is None else _Route(T, None, _elementary_tail_bound_log10(spec, kind, T))
    degQ = spec.a * (2 * spec.n + 1)
    head = None if T is None else (3 if kind == DOUBLE_DERIVED else 1) * (T - t0)
    budget = _DIRECT_PER_DEGQ2 * degQ ** 2

    def decided(route: _Route, how: str) -> _Route:
        _log.debug("%s %s to 10^%g: %s, T = %d, K = %s, bound %.1f; "
                   "weighted head %s against 0.41 degQ^2 = %.0f",
                   spec, kind, tol, how, route.T, route.K, route.bound, head, budget)
        return route

    if direct is not None and (degQ > _LAURENT_DEGREE_CAP or head <= budget):
        return decided(direct, "direct")
    # 2 t0 > 2n + 2, the least T of the tail bound
    splits = {"2 t0": 2 * t0, "48": 48, "the target's digits": math.ceil(-tol)}
    why = max(splits, key=splits.get)
    T = splits[why]
    tail = LaurentTail(build_summand(spec))
    K = 64
    while K <= _LAURENT_K_CAP:
        bound = tail.tail_bound_log10(kind, K, T)
        if bound < tol:
            return decided(_Route(T, K, bound, tail), f"laurent split at {why}")
        K *= 2
    if direct is None:
        raise ArithmeticError(
            f"Laurent tail for {spec} does not reach 10^{tol} within K = {_LAURENT_K_CAP}; "
            "lower the precision target (--residual-digits of the forms command)")
    return decided(direct, f"direct, no K <= {_LAURENT_K_CAP} at T = {T}")


def eval_S_direct(spec: FormSpec, kind: str, ctx: PrecisionContext,
                  abs_tol_log10: float | None = None,
                  wdps: int | None = None) -> EvalResult:
    """Evaluate the defining series with a certified absolute error bound.

    Takes the route of ``_route``: plain truncation where the elementary
    tail bound meets the target, or a short head completed by the
    certified Laurent tail.  The head is summed on integers scaled by 2^P
    (``_head_value``) and the tail on integers scaled by 2^P'
    (``LaurentTail.tail_value``, within 10^(tol-2) of the truncated
    expansion's sum); both are brought to the larger scale by exact shifts
    and added, and the sum is converted to mpf once, at wdps.  That
    rounding is at most 2^(b - prec) units of a b-bit sum, and joins the
    head's floor errors in the bound.
    """
    if kind not in (PLAIN, DOUBLE_DERIVED):
        raise ValueError(f"unknown kind {kind!r}")
    wdps = wdps or ctx.workdps
    tol = abs_tol_log10 if abs_tol_log10 is not None else -(ctx.digits + ctx.guard // 2)
    t0 = build_summand(spec).first_nonzero_term()
    route = _route(spec, kind, t0, tol)
    total, err, P = _head_value(spec, kind, t0, route.T, tol)
    scale, bound = P, route.bound
    if route.K is not None:
        tail, tail_P = route.tail.tail_value(kind, route.K, route.T, tol)
        scale = max(P, tail_P)
        total = (total << (scale - P)) + (tail << (scale - tail_P))
        err <<= scale - P
        bound = _log10_add(bound, tol - 2)
    with mp.workdps(wdps):
        value = mp.ldexp(mpf(total), -scale)
        err += 1 << max(0, abs(total).bit_length() - mp.prec)
    return EvalResult(value=value, method="direct" if route.K is None else "direct+laurent",
                      split_T=route.T, terms=route.T - t0,
                      tail_bound_log10=_log10_add(bound, math.log10(err) - scale * _LOG10_2),
                      laurent_K=route.K, work_bits=P)


def _log10_abs_sum(coeffs) -> float:
    """log10 sum |c| over exact rationals, without overflow."""
    out = float("-inf")
    for c in coeffs:
        if c:
            out = _log10_add(out, _log_of_fraction(c) / math.log(10))
    return out


def eval_S_form(form: ZetaLinearForm, ctx: PrecisionContext) -> EvalResult:
    """S_n or S''_n as l_0 + sum l_i zeta(.) from the exact form.

    The sum is taken on integers: each zeta(s) is an integer z_s at the
    one scale 2^B of a pass of ``_zeta_borwein`` over the form's exponents
    at digits + 4, within 10^-(digits+4) + 10^-(digits+7) <
    10^-(digits+3) of it.  With the coefficients as N_i / D over their
    common denominator, N_0 2^B + sum N_i z_i over D 2^B is within
    sum|coeff| 10^-(digits+3) of the value.  It is divided once, rounded to workdps: at most 2^-prec of a
    quotient below 2 sum|coeff| (every zeta(s) is below 2), prec >=
    (workdps+1) log2 10 - 1/2 bits, so below sum|coeff| 10^-workdps.
    Callers pick digits at least log10 sum|coeff| minus their target.
    """
    return _form_value(form, ctx, _zeta_borwein({s for s, _i, _c in form.terms()},
                                                ctx.digits + 4))


def _form_value(form: ZetaLinearForm, ctx: PrecisionContext,
                zetas: tuple[int, dict[int, int]]) -> EvalResult:
    """``eval_S_form`` from ``zetas``, (B, {s: z}) of ``_zeta_borwein`` at
    ctx.digits + 4 for at least the form's exponents."""
    size = _log10_abs_sum(form.all_coefficients())
    B, z = zetas
    coeffs = [(c, z[s]) for s, _i, c in form.terms()]
    D = math.lcm(form.constant.denominator, *(c.denominator for c, _z in coeffs))
    num = (form.constant.numerator * (D // form.constant.denominator) << B) + sum(
        c.numerator * (D // c.denominator) * zs for c, zs in coeffs)
    with mp.workdps(ctx.workdps):
        value = mp.ldexp(mp.fdiv(num, D), -B)
    rounding = size - ctx.workdps
    return EvalResult(value=value, method="form", split_T=0, terms=0,
                      tail_bound_log10=_log10_add(size - ctx.digits, rounding),
                      zeta_digits=ctx.digits)


def _residual_workdps(form, ctx: PrecisionContext) -> int:
    """The working digits of ``form_residual``: the linear form combines
    coefficients of size up to B = max|l| that cancel down to the series
    value, so resolving the identity to 10^-digits absolute needs log10(B)
    extra working digits on top of the context."""
    coeff_log10 = max(
        0.0,
        max(_log_of_fraction(c) for c in form.all_coefficients()) / math.log(10),
    )
    return ctx.workdps + int(coeff_log10) + 5


def form_residual(form, ctx: PrecisionContext) -> mpf:
    """|S_direct - linear-form value| for either kind, at the working
    digits of ``_residual_workdps``."""
    wdps = _residual_workdps(form, ctx)
    res = eval_S_direct(form.spec, form.kind, ctx, wdps=wdps)
    target = eval_S_form(form, PrecisionContext(digits=wdps - ctx.guard, guard=ctx.guard))
    with mp.workdps(wdps):
        return abs(res.value - target.value)


# ---------------------------------------------------------------------------
# Empirical rates against the asymptotic constants


@dataclass(frozen=True)
class RateSample:
    n: int
    log_sn_over_n: float
    log_sppn_over_n: float
    sign_pp: int
    cos_reference: float          # cos(n omega_a + phi_a), the |.|-law reference
    excluded: bool
    sign_plain: int
    cos_signed: float             # cos(n omega_signed + phi_signed)
    log_amp_ratio: float          # log(|S''_n| / (eps''^n |cos n omega + phi|))
    method: str                   # evaluation route of S_n and S''_n
    zeta_digits: int              # zeta values certified to 10^-zeta_digits
    bound_log10_plain: float      # certified log10 error bound of S_n
    bound_log10_pp: float         # the same for S''_n


@dataclass(frozen=True)
class RateReport:
    a: int
    r: int
    log_eps_a: float
    log_eps_pp_a: float
    omega_a: float
    phi_a: float
    cos_exclusion: float
    samples: tuple[RateSample, ...]

    def fit_slope(self, n_lo: int, n_hi: int) -> float:
        """Least-squares slope of log|S_n| against n on [n_lo, n_hi]."""
        pts = [(s.n, s.log_sn_over_n * s.n) for s in self.samples if n_lo <= s.n <= n_hi]
        if len(pts) < 2:
            raise ValueError("need at least two samples in range")
        N = len(pts)
        sx = sum(p[0] for p in pts)
        sy = sum(p[1] for p in pts)
        sxx = sum(p[0] * p[0] for p in pts)
        sxy = sum(p[0] * p[1] for p in pts)
        return (N * sxy - sx * sy) / (N * sxx - sx * sx)

    def sign_agreement(self, n_lo: int, n_hi: int,
                       signed_law: bool = False) -> tuple[float, int, int]:
        """(rate, matches, counted) of sign(S''_n) == sign(cos reference),
        near-zero cosines excluded.  ``signed_law`` switches the reference
        from cos(n omega + phi) to the pi-shifted signed-law cosine."""
        match = counted = 0
        for s in self.samples:
            if s.n < n_lo or s.n > n_hi or s.excluded:
                continue
            counted += 1
            c = s.cos_signed if signed_law else s.cos_reference
            ref = 1 if c > 0 else -1
            if ref == s.sign_pp:
                match += 1
        return (match / counted if counted else float("nan")), match, counted


_RATE_SIG_DIGITS = 20      # significant digits every rate value is certified to
_RATE_GUARD = 20           # zeta digits beyond log10 sum|coeff| minus the target
_RATE_ATTEMPTS = 4
# |cos(n omega + phi)| below which a sample's sign and amplitude are not
# compared with the law: there a zero of the cosine decides them
_COS_EXCLUSION = 1e-3


def _certified_value(form: ZetaLinearForm, ctx: PrecisionContext,
                     zetas: tuple[int, dict[int, int]]) -> EvalResult:
    """``eval_S_form`` with its bound more than _RATE_SIG_DIGITS digits below
    |value|, first from the zeta integers ``zetas`` made for ctx.  A value
    that misses is evaluated again, by ``eval_S_form`` and its own zeta
    pass, with the budget raised by its shortfall; one at or below its
    bound tells no shortfall, and the budget grows by half."""
    for attempt in range(_RATE_ATTEMPTS):
        res = eval_S_form(form, ctx) if attempt else _form_value(form, ctx, zetas)
        bound = res.tail_bound_log10
        with mp.workdps(15):
            size = float(mp.log10(abs(res.value))) if res.value else float("-inf")
        if size - bound > _RATE_SIG_DIGITS:
            return res
        if size > bound:
            extra = math.ceil(_RATE_SIG_DIGITS - (size - bound)) + ctx.guard
        else:
            extra = ctx.digits // 2
        ctx = PrecisionContext(digits=ctx.digits + extra, guard=ctx.guard)
    raise ArithmeticError(
        f"{form.kind} value at {form.spec} is not certified to "
        f"{_RATE_SIG_DIGITS} significant digits with zeta values to 10^-{res.zeta_digits}")


_LOG_BITS = 128           # bits a rate's log is first taken at


def _nearest_float(evaluate: Callable[[], tuple[mpf, mpf]]) -> float:
    """The double nearest to a real t, where ``evaluate`` returns, at the
    current precision, v and e with |v - t| <= e.

    Tried at _LOG_BITS bits, then at twice as many while [v - 2e, v + 2e]
    is not strictly inside the rounding cell of float(v), between the
    midpoints to its neighbouring doubles: then every value within e of
    t, the true value and its evaluation at any higher precision alike,
    rounds to that float.  So a log taken here from a copy of a value
    rounded to a few dozen digits gives the float that the same log taken
    at the value's full working precision gives.
    """
    bits = _LOG_BITS
    while bits <= 1 << 16:
        with mp.workprec(bits):
            v, e = evaluate()
            f = float(v)
            cell_lo = mp.ldexp(mp.fadd(f, math.nextafter(f, -math.inf), exact=True), -1)
            cell_hi = mp.ldexp(mp.fadd(f, math.nextafter(f, math.inf), exact=True), -1)
            e2 = mp.ldexp(e, 1)
            if (mp.fsub(v, e2, exact=True) > cell_lo
                    and mp.fadd(v, e2, exact=True) < cell_hi):
                return f
        bits *= 2
    raise ArithmeticError("the value lies on a rounding boundary of the double")


def _log_abs_error(x: mpf) -> tuple[mpf, mpf]:
    """log|x| from a copy of x at the current precision p, and a bound
    on its error: the copy is within 2^-p of |x| relative, which moves
    the log by at most 2^(1-p), and the log itself is within an ulp,
    2^(1-p) |log|; 2^(2-p) (1 + |log|) covers both."""
    v = mp.log(abs(+x))
    return v, mp.ldexp(1 + abs(v), 2 - mp.prec)


def _amplitude_error(value: mpf, n: int, saddle_data, cref: float) -> tuple[mpf, mpf]:
    """log|value| - n log eps''_a - log|cref| at the current precision p,
    and a bound on its error: the two logs' (``_log_abs_error``), and the
    rounding of the product and the two differences, each at most 2^-p of
    a term or of the result's size."""
    lv, elv = _log_abs_error(value)
    lc, elc = _log_abs_error(mpf(cref))
    m = n * saddle_data.log_eps_pp_a
    v = lv - m - lc
    return v, elv + elc + mp.ldexp(abs(lv) + 2 * abs(m) + abs(lc) + abs(v), 1 - mp.prec)


def _rate_forms(spec: FormSpec) -> tuple[ZetaLinearForm, ZetaLinearForm]:
    """Plain and double-derived forms at spec.  The calls go through the
    module so that wrappers installed there see them."""
    table = linear_forms.table_for(spec)
    return linear_forms.zeta_form_plain(table), linear_forms.zeta_form_derived(table)


def measure_rates(a: int, r: int, n_values: Sequence[int], saddle_data) -> RateReport:
    """High-precision |S_n|, |S''_n| along n, against the saddle constants.

    Both values come from their exact zeta forms (``eval_S_form``), which
    share the l_i.  The forms cancel from sum|coeff| down to the value, so
    at n the zeta values need log10 sum|coeff| - tol_n digits plus a guard,
    with target tol_n = n log10 eps''_a - 34.  One budget, the largest over
    the n values and at least 50, serves the whole call, so
    the zeta values of all its forms are made in one pass of
    ``_zeta_borwein`` at that budget + 4, as ``eval_S_form`` would make
    each form's own.
    Each value is then certified to 20 significant digits
    (bound < log10|value| - 20); the target ignores the amplitude of S''_n,
    so a value that misses is evaluated again with the budget raised by
    the shortfall.
    """
    if (saddle_data.a, saddle_data.r) != (a, r):
        raise ValueError("saddle data does not match (a, r)")
    L = float(saddle_data.log_eps_a)
    Lpp = float(saddle_data.log_eps_pp_a)
    omega = float(saddle_data.omega_a)
    phi = float(saddle_data.phi_a)
    forms = []
    digits = 50
    for n in n_values:
        pair = _rate_forms(FormSpec(a=a, r=r, n=n))
        tol = n * Lpp / math.log(10) - 34
        for form in pair:
            need = _log10_abs_sum(form.all_coefficients()) - tol + _RATE_GUARD
            digits = max(digits, math.ceil(need))
        forms.append((n, pair))
    ctx = PrecisionContext(digits=digits, guard=20)
    zetas = _zeta_borwein({s for _n, pair in forms for form in pair
                           for s, _i, _c in form.terms()}, digits + 4)
    samples = []
    for n, (plain_form, derived_form) in forms:
        plain = _certified_value(plain_form, ctx, zetas)
        derived = _certified_value(derived_form, ctx, zetas)
        log_sn = _nearest_float(lambda: _log_abs_error(plain.value)) / n
        log_spp = _nearest_float(lambda: _log_abs_error(derived.value)) / n
        with mp.workdps(ctx.workdps):
            cref = float(mp.cos(n * saddle_data.omega_a + saddle_data.phi_a))
            csig = float(mp.cos(n * saddle_data.omega_signed + saddle_data.phi_signed))
        if abs(cref) >= _COS_EXCLUSION:
            amp = _nearest_float(lambda: _amplitude_error(derived.value, n, saddle_data, cref))
        else:
            amp = float("nan")
        samples.append(RateSample(
            n=n,
            log_sn_over_n=log_sn,
            log_sppn_over_n=log_spp,
            sign_pp=1 if derived.value > 0 else -1,
            cos_reference=cref,
            excluded=abs(cref) < _COS_EXCLUSION,
            sign_plain=1 if plain.value > 0 else -1,
            cos_signed=csig,
            log_amp_ratio=amp,
            method=derived.method,
            zeta_digits=max(plain.zeta_digits, derived.zeta_digits),
            bound_log10_plain=plain.tail_bound_log10,
            bound_log10_pp=derived.tail_bound_log10,
        ))
    return RateReport(a=a, r=r, log_eps_a=L, log_eps_pp_a=Lpp,
                      omega_a=omega, phi_a=phi, cos_exclusion=_COS_EXCLUSION,
                      samples=tuple(samples))
