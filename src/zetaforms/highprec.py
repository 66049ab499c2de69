"""Arbitrary-precision evaluation with certified error bounds.

Four layers:

* Euler-Maclaurin power sums.  One routine, ``_em_tail_range``, gives
  sum_{m >= x0} m^{-s} for a range of s at one start x0; ``zeta_value``
  is its x0 = 1 case for a single s and the Laurent tails call it at
  x0 = T.  The direct part up to the expansion point is summed on
  integers at the scale of the hardest tolerance.  For the completely
  monotone integrand x^{-s} the Euler-Maclaurin remainder is no larger
  than the first omitted correction term, so each expansion stops once
  that term is below its tolerance (the expansion point grows if the
  terms bottom out too early).  The coefficients B_2k/(2k)! X^(1-2k) do
  not depend on s: one table of them, kept for the last (X, mp.prec),
  serves every s expanded at X, including consecutive zeta values at
  one budget.  A Laurent exponent whose weight is 0 is not expanded.

* Exact forms.  ``eval_S_form`` evaluates S_n = l_0 + sum l_i zeta(i)
  (or S''_n) from its exact coefficients and certified zeta values.  The
  coefficients cancel from sum|coeff| down to the value, so the zeta
  values must be good to 10^-digits with digits at least
  log10 sum|coeff| minus the target; the certified error is
  sum|coeff| 10^-digits plus rounding.  ``measure_rates`` takes this route.

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
  sum_{t >= T} R(t) <= A(T) (T^-D + T^{1-D}/(D-1)) when the decay
  exponent D is large enough to truncate outright, or the exact Laurent
  expansion of R at infinity: R = sum b_s t^-s with integer b_s from
  long division, whose truncation error is controlled exactly through
  the division residual.  The tail then becomes a finite combination of
  certified power-sum tails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from mpmath import mp, mpf

from . import linear_forms
from .linear_forms import (FormSpec, Summand, ZetaLinearForm, build_summand, PLAIN,
                           DOUBLE_DERIVED, _log_of_fraction)


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


def _ilog10(v: int) -> float:
    """log10 of a positive int without overflow."""
    if v <= 0:
        raise ValueError("need positive value")
    bl = v.bit_length()
    if bl <= 900:
        return math.log10(v)
    top = v >> (bl - 64)
    return math.log10(top) + (bl - 64) * math.log10(2)


def _log10_add(x: float, y: float) -> float:
    """log10(10^x + 10^y)."""
    if x < y:
        x, y = y, x
    if x == float("-inf"):
        return x
    return x + math.log10(1 + 10 ** max(y - x, -300))


# ---------------------------------------------------------------------------
# Euler-Maclaurin power sums


class _EMTable:
    """The Euler-Maclaurin coefficients c_k = B_2k/(2k)! X^(1-2k),
    k = 1, 2, ..., at one expansion point X.  They do not depend on s, so
    every s expanded at X reads them from here; ``key`` is (X, mp.prec)
    at the time the table was started, and each c_k is made at that
    precision when first asked for."""

    __slots__ = ("key", "c", "_q")

    def __init__(self, X: int):
        self.key = (X, mp.prec)
        self.c: list[mpf] = []
        self._q = mpf(X)                # 1/((2k)! X^(2k-1)) of the last k made

    def extend(self) -> None:
        k = len(self.c) + 1
        X = self.key[0]
        self._q /= (2 * k - 1) * (2 * k) * X * X
        self.c.append(mp.bernoulli(2 * k) * self._q)


# One table, for the last (X, mp.prec) asked for: consecutive expansions
# share it, and a table made at another point or precision is replaced.
_EM_TABLE: _EMTable | None = None


def _em_table(X: int) -> _EMTable:
    global _EM_TABLE
    if _EM_TABLE is None or _EM_TABLE.key != (X, mp.prec):
        _EM_TABLE = _EMTable(X)
    return _EM_TABLE


def _em_at(s: int, X: int, tol: mpf) -> tuple[mpf, mpf | None]:
    """Euler-Maclaurin expansion of sum_{m >= X} m^{-s} at the point X.

    Term k is c_k (s)_{2k-1} X^{-s}: c_k comes from the table shared by
    every s expanded at X at the current precision (``_em_table``), and
    (s)_{2k-1} X^{-s} is advanced by one integer product per term.
    Returns (value, remainder_bound) or (partial, None) if the correction
    terms bottom out above ``tol`` (caller must enlarge X).
    """
    table = _em_table(X)
    c = table.c
    xs = mpf(X) ** -s
    acc = xs * X / (s - 1) + xs / 2
    p = s * xs                          # (s)_{2k-1} X^{-s}
    prev = None
    k = 1
    while True:
        if k > len(c):
            table.extend()
        term = c[k - 1] * p
        at = abs(term)
        if at < tol:
            return acc, at
        if prev is not None and at >= prev:
            return acc, None            # terms no longer decreasing
        acc += term
        prev = at
        p *= (s + 2 * k - 1) * (s + 2 * k)
        k += 1
        if k > 4000:
            return acc, None


# (s, workdps) -> (digits the value is certified to, value).  A hit must
# also meet the caller's digits: two contexts share a workdps with
# different digits/guard splits.
_ZETA_CACHE: dict[tuple[int, int], tuple[int, mpf]] = {}


def zeta_value(s: int, ctx: PrecisionContext) -> mpf:
    """zeta(s) for integer s >= 2, absolute error below 10^-digits."""
    if not isinstance(s, int) or s < 2:
        raise ValueError(f"zeta_value needs an integer s >= 2, got {s!r}")
    key = (s, ctx.workdps)
    hit = _ZETA_CACHE.get(key)
    if hit is not None and hit[0] >= ctx.digits:
        return hit[1]
    with mp.workdps(ctx.workdps):
        v = _em_tail_range(s, s, 1, [-(ctx.digits + 4)])[0]
    _ZETA_CACHE[key] = (ctx.digits, v)
    return v


def _em_tail_range(s_lo: int, s_hi: int, x0: int,
                   tols_log10: Sequence[float | None]) -> list[mpf | None]:
    """sum_{m >= x0} m^{-s} for every integer s in [s_lo, s_hi], the one
    Euler-Maclaurin power sum behind zeta values and Laurent tails.

    ``tols_log10`` holds one log10 tolerance per s, or None for an s that
    is not needed: it is neither expanded nor certified, and its entry of
    the result is None.  The direct part, m from x0 to the expansion point
    X, is shared by all s and summed on integers at the scale of the
    hardest tolerance; the expansion at X stops each needed s at its own
    tolerance, reading the coefficient table that all of them share
    (``_em_table``).  X starts from the hardest tolerance and grows while
    some expansion bottoms out above its tolerance.  Needs s_lo >= 2,
    x0 >= 1 and at least one needed s.
    """
    if s_lo < 2:
        raise ValueError("need s >= 2")
    if x0 < 1:
        raise ValueError("need x0 >= 1")
    count = s_hi - s_lo + 1
    tols = [None if t is None else float(t) for t in tols_log10]
    if len(tols) != count:
        raise ValueError("one tolerance per s value required")
    needed_tols = [t for t in tols if t is not None]
    if not needed_tols:
        raise ValueError("no exponent is needed")
    hardest = min(needed_tols)
    extra = 0
    needed = max(x0, int(0.46 * (-hardest)) + 8) if hardest < 0 else x0
    while True:
        X = max(x0, needed + extra)
        # direct part on integers scaled by 2^P, P set by the hardest
        # tolerance: w floors once at m^-s_lo and once per later s, so each
        # (m, s) is within 2 units, and a w floored to 0 stays below them
        err = 2 * (X - x0)
        P = max(0, math.ceil(-hardest * _LOG2_10)) + err.bit_length() + 8
        assert err == 0 or _ilog10(err) - P * _LOG10_2 < hardest
        one = 1 << P
        direct = [0] * count
        for m in range(x0, X):
            w = one // m ** s_lo
            for idx in range(count):
                if not w:
                    break
                direct[idx] += w
                w //= m
        acc: list[mpf | None] = [None] * count
        for idx, tol in enumerate(tols):
            if tol is None:
                continue
            value, bound = _em_at(s_lo + idx, X, mpf(10) ** tol)
            if bound is None:
                break
            acc[idx] = mp.ldexp(direct[idx], -P) + value
        else:
            return acc
        extra = max(32, 2 * extra, X)


# ---------------------------------------------------------------------------
# Laurent expansion of the summand at infinity


def _int_poly_from_roots(scale: int, roots: Iterable[tuple[int, int]]) -> list[int]:
    out = [scale]
    for root, mult in roots:
        for _ in range(mult):
            nxt = [0] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i] -= root * c
                nxt[i + 1] += c
            out = nxt
    return out


class LaurentTail:
    """Expansion R(t) = sum_{s >= D} b_s t^{-s} with exact error control.

    Writing x = 1/t, R = x^D p(x)/q(x) with integer polynomials and
    q(0) = 1; long division yields integer coefficients b and, after K
    steps, an exact residual e(x) with

        R(t) - W_K(t) = t^{-D-K} e(1/t) / q(1/t).

    For t >= 2n the factorized bound |q(1/t)| >= 2^-degQ turns coefficient
    norms of e and q into fully explicit tail bounds, for the function
    itself and for (1/2) of its second derivative.
    """

    def __init__(self, summand: Summand):
        self.summand = summand
        spec = summand.spec
        if spec.a * (2 * spec.n + 1) > 2000:
            raise ArithmeticError(
                "Laurent tail needs the expanded denominator; its degree "
                f"{spec.a * (2 * spec.n + 1)} is past the practical cap. "
                "Large n has a steep decay exponent: use plain truncation.")
        n = summand.spec.n
        self.min_t = 2 * n + 2
        P = _int_poly_from_roots(summand.scale, summand.numerator_roots)
        Q = _int_poly_from_roots(1, [(j, summand.pole_order) for j in summand.poles])
        assert Q[-1] == 1
        self.D = (len(Q) - 1) - (len(P) - 1)
        self.degQ = len(Q) - 1
        self.p_rev = P[::-1]
        self.q_rev = Q[::-1]
        self.b: list[int] = []
        self.rem = list(self.p_rev)
        # coefficient norms of q(x): sum |q_i|, sum i|q_i|, sum i(i-1)|q_i|
        self.Aq = sum(abs(c) for c in self.q_rev)
        self.Aq1 = sum(i * abs(c) for i, c in enumerate(self.q_rev))
        self.Aq2 = sum(i * (i - 1) * abs(c) for i, c in enumerate(self.q_rev))

    def extend(self, K: int) -> None:
        if K <= len(self.b):
            return
        need_len = K + self.degQ + 1
        if len(self.rem) < need_len:
            self.rem.extend([0] * (need_len - len(self.rem)))
        for s in range(len(self.b), K):
            c = self.rem[s]
            self.b.append(c)
            if c:
                for i in range(1, self.degQ + 1):
                    self.rem[s + i] -= c * self.q_rev[i]

    def _e_norms(self, K: int) -> tuple[int, int, int]:
        self.extend(K)
        Ae = Ae1 = Ae2 = 0
        for u in range(self.degQ):
            v = abs(self.rem[K + u])
            Ae += v
            Ae1 += u * v
            Ae2 += u * (u - 1) * v
        return Ae, Ae1, Ae2

    def tail_bound_log10(self, kind: str, K: int, T: int) -> float:
        """Certified log10 bound for |sum_{t >= T} (R - W_K)(t)| (plain)
        or the same for (1/2)(R - W_K)'' (double-derived).  T >= 2n+2."""
        if T < self.min_t:
            raise ValueError(f"T must be >= {self.min_t}")
        Ae, Ae1, Ae2 = self._e_norms(K)
        if Ae == 0:
            return float("-inf")
        lgQ2 = self.degQ * math.log10(2)
        v = self.D + K
        if kind == PLAIN:
            c_log = _ilog10(Ae) + lgQ2
            power = v
        else:
            B0 = _ilog10(Ae) + lgQ2
            B1 = _ilog10(Ae1 * self.Aq + Ae * self.Aq1) + 2 * lgQ2 if (Ae1 or self.Aq1) else float("-inf")
            inner = (Ae2 * self.Aq + Ae * self.Aq2) * self.Aq + 2 * self.Aq1 * (Ae1 * self.Aq + Ae * self.Aq1)
            B2 = _ilog10(inner) + 3 * lgQ2 if inner else float("-inf")
            c_log = math.log10(v) + math.log10(v + 1) + B0
            if B1 != float("-inf"):
                c_log = _log10_add(c_log, math.log10(2 * v + 2) + B1)
            if B2 != float("-inf"):
                c_log = _log10_add(c_log, B2)
            c_log -= math.log10(2)
            power = v + 2
        tail_pow = _log10_add(-power * math.log10(T),
                              (1 - power) * math.log10(T) - math.log10(power - 1))
        return c_log + tail_pow

    def tail_value(self, kind: str, K: int, T: int, tol_log10: float) -> mpf:
        """sum_{t >= T} W_K(t) (plain) or sum (1/2) W_K''(t) (derived).

        Both are sum_i w_i sum_{t >= T} t^{-(s_i + shift)} with s_i = D + i:
        plain has w_i = b_i and shift 0, derived w_i = b_i s_i (s_i+1)/2
        and shift 2.  Each power sum with w_i != 0 is certified to
        10^tol_log10 / (100 K |w_i|), so the K weighted errors sum below
        10^(tol_log10 - 2); one with w_i = 0 is not expanded at all.
        """
        self.extend(K)
        if kind == PLAIN:
            shift, weights = 0, self.b[:K]
        else:
            shift = 2
            weights = [b * (s * (s + 1) // 2) for s, b in enumerate(self.b[:K], self.D)]
        spread = math.log10(max(K, 1)) + 2
        tols = [tol_log10 - _ilog10(abs(w)) - spread if w else None for w in weights]
        tails = _em_tail_range(self.D + shift, self.D + K - 1 + shift, T, tols)
        out = mpf(0)
        for w, tail in zip(weights, tails):
            if w:
                out += mpf(w) * tail
        return out


_LAURENT_CACHE: dict[FormSpec, LaurentTail] = {}


def _laurent_for(spec: FormSpec) -> LaurentTail:
    lt = _LAURENT_CACHE.get(spec)
    if lt is None:
        lt = LaurentTail(build_summand(spec))
        _LAURENT_CACHE[spec] = lt
    return lt


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
_DIRECT_T_CAP = 1_000_000
_GUARD_BITS = 64


def _head_value(spec: FormSpec, kind: str, t0: int, T: int, wdps: int,
                tol: float) -> tuple[mpf, float, int]:
    """The head over [t0, T) at wdps digits, the log10 bound of its
    rounding (the kernel's floor errors plus the conversion to mpf) and
    the scale P it was summed at.

    P starts from the target: the bits of tol, plus the bits of the term
    count (each term adds floor errors of a few units), plus guard bits.
    The floor error of a term grows with the terms after it, so where they
    rise far above the first the bound can miss tol; the head is then
    summed once more with P raised by the shortfall.
    """
    P = max(0, math.ceil(-tol * _LOG2_10)) + (T - t0).bit_length() + _GUARD_BITS
    head, err = _direct_sum(spec, kind, t0, T, P)
    shortfall = _ilog10(err) - P * _LOG10_2 - tol if err else 0.0
    if shortfall > 0:
        P += math.ceil(shortfall * _LOG2_10) + _GUARD_BITS
        head, err = _direct_sum(spec, kind, t0, T, P)
    with mp.workdps(wdps):
        value = mp.ldexp(head, -P)
        err += 1 << max(0, abs(head).bit_length() - mp.prec)
    return value, _ilog10(err) - P * _LOG10_2, P


def eval_S_direct(spec: FormSpec, kind: str, ctx: PrecisionContext,
                  abs_tol_log10: float | None = None,
                  wdps: int | None = None) -> EvalResult:
    """Evaluate the defining series with a certified absolute error bound.

    Picks plain truncation when the polynomial decay is steep enough to
    reach the target within a bounded number of terms, otherwise sums a
    short head and completes with the certified Laurent tail.  The head
    is summed on integers scaled by 2^P (``_head_value``).
    """
    if kind not in (PLAIN, DOUBLE_DERIVED):
        raise ValueError(f"unknown kind {kind!r}")
    wdps = wdps or ctx.workdps
    tol = abs_tol_log10 if abs_tol_log10 is not None else -(ctx.digits + ctx.guard // 2)
    t0 = build_summand(spec).first_nonzero_term()

    T = max(64, 2 * t0)
    chosen = None
    while T <= _DIRECT_T_CAP:
        if _elementary_tail_bound_log10(spec, kind, T) < tol and T - t0 <= _DIRECT_TERM_CAP:
            chosen = T
            break
        T *= 2
    if chosen is not None:
        head, rounding, P = _head_value(spec, kind, t0, chosen, wdps, tol)
        bound = _elementary_tail_bound_log10(spec, kind, chosen)
        return EvalResult(value=head, method="direct", split_T=chosen,
                          terms=chosen - t0, tail_bound_log10=_log10_add(bound, rounding),
                          work_bits=P)

    lt = _laurent_for(spec)
    T = max(lt.min_t, 2 * t0, 48)
    K = 64
    while True:
        bound = lt.tail_bound_log10(kind, K, T)
        if bound < tol:
            break
        K *= 2
        if K > 16384:
            raise ArithmeticError(
                f"Laurent tail for {spec} does not reach 10^{tol}; "
                "raise the split point or lower the precision target"
            )
    head, rounding, P = _head_value(spec, kind, t0, T, wdps, tol)
    with mp.workdps(wdps):
        value = head + lt.tail_value(kind, K, T, tol)
    return EvalResult(value=value, method="direct+laurent", split_T=T,
                      terms=max(0, T - t0),
                      tail_bound_log10=_log10_add(_log10_add(bound, tol), rounding),
                      laurent_K=K, work_bits=P)


def _log10_abs_sum(coeffs) -> float:
    """log10 sum |c| over exact rationals, without overflow."""
    out = float("-inf")
    for c in coeffs:
        if c:
            out = _log10_add(out, _log_of_fraction(c) / math.log(10))
    return out


def eval_S_form(form: ZetaLinearForm, ctx: PrecisionContext) -> EvalResult:
    """S_n or S''_n as l_0 + sum l_i zeta(.) from the exact form.

    The zeta values are certified below 10^-digits and the sum runs at
    workdps, so the error is at most sum|coeff| 10^-digits from the zeta
    values plus the rounding of k+1 coefficients, k products and k sums,
    below 4 (k+4) sum|coeff| 10^-workdps (every zeta(s) here is below 2).
    Callers pick digits at least log10 sum|coeff| minus their target.
    """
    size = _log10_abs_sum(form.all_coefficients())
    with mp.workdps(ctx.workdps):
        value = form.evaluate(lambda s: zeta_value(s, ctx))
    rounding = size + math.log10(4 * (len(form.zeta_coeffs) + 4)) - ctx.workdps
    return EvalResult(value=value, method="form", split_T=0, terms=0,
                      tail_bound_log10=_log10_add(size - ctx.digits, rounding),
                      zeta_digits=ctx.digits)


def form_residual(form, ctx: PrecisionContext) -> mpf:
    """|S_direct - linear-form value| for either kind.

    The linear form combines coefficients of size up to B = max|l| that
    cancel down to the series value, so resolving the identity to
    10^-digits absolute needs log10(B) extra working digits on top of the
    context; they are added automatically.
    """
    coeff_log10 = max(
        0.0,
        max(_log_of_fraction(c) for c in form.all_coefficients()) / math.log(10),
    )
    wdps = ctx.workdps + int(coeff_log10) + 5
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


def _certified_value(form: ZetaLinearForm, ctx: PrecisionContext) -> EvalResult:
    """``eval_S_form`` with its bound more than _RATE_SIG_DIGITS digits below
    |value|.  A value that misses is evaluated again with the zeta budget
    raised by its shortfall; one at or below its bound tells no shortfall,
    and the budget grows by half."""
    for _ in range(_RATE_ATTEMPTS):
        res = eval_S_form(form, ctx)
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


def _rate_forms(spec: FormSpec) -> tuple[ZetaLinearForm, ZetaLinearForm]:
    """Plain and double-derived forms at spec.  The table is used once, so
    it is not put in table_for's cache; the calls go through the module so
    that wrappers installed there see them."""
    table = linear_forms.partial_fractions(build_summand(spec))
    return linear_forms.zeta_form_plain(table), linear_forms.zeta_form_derived(table)


def measure_rates(a: int, r: int, n_values: Sequence[int], saddle_data,
                  cos_exclusion: float = 1e-3, min_digits: int = 0) -> RateReport:
    """High-precision |S_n|, |S''_n| along n, against the saddle constants.

    Both values come from their exact zeta forms (``eval_S_form``), which
    share the l_i.  The forms cancel from sum|coeff| down to the value, so
    at n the zeta values need log10 sum|coeff| - tol_n digits plus a guard,
    with target tol_n = n log10 eps''_a - 34.  One budget, the largest over
    the n values and at least ``min_digits``, serves the whole call, so
    each zeta(s) is computed once.  Each value is then certified to 20
    significant digits (bound < log10|value| - 20); the target ignores the
    amplitude of S''_n, so a value that misses is evaluated again with the
    budget raised by the shortfall.
    """
    if (saddle_data.a, saddle_data.r) != (a, r):
        raise ValueError("saddle data does not match (a, r)")
    L = float(saddle_data.log_eps_a)
    Lpp = float(saddle_data.log_eps_pp_a)
    omega = float(saddle_data.omega_a)
    phi = float(saddle_data.phi_a)
    forms = []
    digits = max(50, min_digits)
    for n in n_values:
        pair = _rate_forms(FormSpec(a=a, r=r, n=n))
        tol = n * Lpp / math.log(10) - 34
        for form in pair:
            need = _log10_abs_sum(form.all_coefficients()) - tol + _RATE_GUARD
            digits = max(digits, math.ceil(need))
        forms.append((n, pair))
    ctx = PrecisionContext(digits=digits, guard=20)
    samples = []
    for n, (plain_form, derived_form) in forms:
        plain = _certified_value(plain_form, ctx)
        derived = _certified_value(derived_form, ctx)
        with mp.workdps(ctx.workdps):
            log_sn = float(mp.log(abs(plain.value))) / n
            log_spp = float(mp.log(abs(derived.value))) / n
            cref = float(mp.cos(n * saddle_data.omega_a + saddle_data.phi_a))
            csig = float(mp.cos(n * saddle_data.omega_signed + saddle_data.phi_signed))
            if abs(cref) >= cos_exclusion:
                amp = float(mp.log(abs(derived.value)) - n * saddle_data.log_eps_pp_a
                            - mp.log(abs(cref)))
            else:
                amp = float("nan")
        samples.append(RateSample(
            n=n,
            log_sn_over_n=log_sn,
            log_sppn_over_n=log_spp,
            sign_pp=1 if derived.value > 0 else -1,
            cos_reference=cref,
            excluded=abs(cref) < cos_exclusion,
            sign_plain=1 if plain.value > 0 else -1,
            cos_signed=csig,
            log_amp_ratio=amp,
            method=derived.method,
            zeta_digits=max(plain.zeta_digits, derived.zeta_digits),
            bound_log10_plain=plain.tail_bound_log10,
            bound_log10_pp=derived.tail_bound_log10,
        ))
    return RateReport(a=a, r=r, log_eps_a=L, log_eps_pp_a=Lpp,
                      omega_a=omega, phi_a=phi, cos_exclusion=cos_exclusion,
                      samples=tuple(samples))
