"""Executable pieces of the vector linear-independence criterion.

The transference argument consumes a sequence of small integer linear
forms L_n at points e_1..e_k with decay rates Q_n^{-tau_j}.  Its moving
parts are implemented here as standalone checkers over exact data:

* phi_build                 -- the "next index" map with Q_{phi(n)-1} <= Q_n^{1+eps1} < Q_{phi(n)}
* choose_eps1               -- dyadic choice of eps1 from (k, tau_1, eps)
* permutation_product_check -- the permutation product inequality, eta = 1/(k+1)!
* coefficient_bound_check   -- the coefficient bound with constant 1 + 1/k + 1/k^2
* rank_lower_bound, zeta_rank_bound -- the rank arithmetic
* oscillation_subsequence   -- greedy cosine-avoiding subsequence

All smallness data is exact, each entry an integer pair (p, q) for p/q.
The permutation and hypothesis inequalities compare products of those
integers, and are decided from the bit lengths of the factors first:
an integer x >= 1 has 2^(bits(x)-1) <= x < 2^bits(x), so the bit lengths
bound each product between two powers of two.  Only the near ties, where
those bounds overlap, are multiplied out (_exceeds).  The coefficient
bound sums each bound's terms on integers over one denominator and makes
one Fraction per bound.  Every check is decisive rather than a
floating-point judgement.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from operator import getitem
from typing import Callable, Sequence

from mpmath import mp

from .diophantine import ENUMERATION_CAP
from .saddle import SaddleData, compute_constants, r_of_a


# ---------------------------------------------------------------------------
# phi and eps1


def _cmp_pow(base_a: int, exp_a: Fraction, base_b: int, exp_b: Fraction) -> int:
    """sign(base_a^exp_a - base_b^exp_b) for positive integer bases, exactly.

    Floating screen first; exact integer powering only when the logs are
    too close to call.
    """
    if base_a < 1 or base_b < 1:
        raise ValueError("bases must be positive")
    la = float(exp_a) * math.log(base_a) if base_a > 1 else 0.0
    lb = float(exp_b) * math.log(base_b) if base_b > 1 else 0.0
    gap = la - lb
    slack = 1e-9 * (abs(la) + abs(lb) + 1)
    if gap > slack:
        return 1
    if gap < -slack:
        return -1
    q = math.lcm(exp_a.denominator, exp_b.denominator)
    pa = base_a ** int(exp_a * q)
    pb = base_b ** int(exp_b * q)
    return (pa > pb) - (pa < pb)


def phi_build(qseq: Sequence[int], eps1, n: int) -> int:
    """The unique m with Q_{m-1} <= Q_n^{1+eps1} < Q_m (1-based indices).

    ``qseq[i]`` holds Q_{i+1}.  Raises IndexError when the sequence is
    exhausted before the threshold is crossed.
    """
    eps1 = Fraction(eps1)
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    if n < 1 or n > len(qseq):
        raise ValueError(f"n={n} outside the sequence")
    qn = qseq[n - 1]
    if qn < 1:
        raise ValueError("Q_n must be >= 1")
    if any(qseq[i] >= qseq[i + 1] for i in range(len(qseq) - 1)):
        raise ValueError("Q sequence must be strictly increasing")
    exp = 1 + eps1
    m = n + 1
    while True:
        if m > len(qseq):
            raise IndexError("Q sequence exhausted before crossing Q_n^(1+eps1)")
        if _cmp_pow(qseq[m - 1], Fraction(1), qn, exp) > 0:
            return m
        m += 1


def choose_eps1(k: int, tau1, eps) -> Fraction:
    """Largest dyadic eps1 = 2^-s <= 1 with
    ((1+eps1)^{k-1} - 1) tau1 < eps/4 and (1+eps1)^{k-1} <= 1 + eps/2.
    For k = 1 there is no constraint and 1 is returned."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return Fraction(1)
    tau1 = Fraction(tau1)
    eps = Fraction(eps)
    if tau1 <= 0 or eps <= 0:
        raise ValueError("tau1 and eps must be positive")
    s = 0
    while True:
        e1 = Fraction(1, 2 ** s)
        grow = (1 + e1) ** (k - 1)
        if (grow - 1) * tau1 < eps / 4 and grow <= 1 + eps / 2:
            return e1
        s += 1
        if s > 20000:
            raise ArithmeticError("no dyadic eps1 found (inputs degenerate)")


# ---------------------------------------------------------------------------
# Exact smallness tables


def _exceeds(lhs: Sequence[int], rhs: Sequence[int]) -> bool:
    """prod(lhs) > prod(rhs), multiplied out: the near ties that the
    bit-length bounds of permutation_product_check and
    EpsTable.hypothesis_violations leave open come here, and nothing else."""
    return math.prod(lhs) > math.prod(rhs)


@dataclass(frozen=True)
class EpsTable:
    """eps_{j,n} = |L_n(e_j)| over a finite support, as integer pairs (p, q), p, q > 0, for p/q."""

    k: int
    eps: dict[tuple[int, int], tuple[int, int]] = field(hash=False)

    def support(self) -> list[int]:
        return sorted({n for (_j, n) in self.eps})

    def _row(self, n: int, rows: dict) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(p_1 .. p_k), (q_1 .. q_k) of eps_{1,n} .. eps_{k,n}, read once and
        kept in ``rows``; ValueError names an entry missing or not positive."""
        row = rows.get(n)
        if row is None:
            pairs = []
            for j in range(1, self.k + 1):
                try:
                    p, q = self.eps[(j, n)]
                except KeyError:
                    raise ValueError(f"eps_({j},{n}) is not in the table") from None
                if p <= 0 or q <= 0:
                    raise ValueError(f"eps_({j},{n}) must be positive")
                pairs.append((p, q))
            row = rows[n] = tuple(zip(*pairs))
        return row

    def hypothesis_violations(self, phi: Callable[[int], int], rows: dict | None = None) -> list[dict]:
        """All (i, n, n') in the support with n' >= phi(n) violating
        eps_{i,n'} / eps_{i,n} <= (1/(k+1)!) eps_{i+1,n'} / eps_{i+1,n},
        decided on the entries' integer numerators and denominators: with
        eps_{i,n} / eps_{i+1,n} = a_i(n) / b_i(n), a violation is
        a_i(n') b_i(n) (k+1)! > a_i(n) b_i(n').  ``rows`` keeps the entries
        read (see _row), so that a caller checking more inequalities on the
        same table reads each entry once.

        Each comparison is decided from bit lengths first.  With l the sum
        of the bit lengths of the three left factors and r that of the two
        right ones, 2^(l-3) <= left < 2^l and 2^(r-2) <= right < 2^r: so
        l - r <= -2 gives left < right, l - r >= 3 gives left > right, and
        only -1 <= l - r <= 2 is multiplied out.  Here
        l - r = d_i(n') - d_i(n) + bits((k+1)!), d_i = bits(a_i) - bits(b_i)
        being kept once per n."""
        rows = {} if rows is None else rows
        fact = math.factorial(self.k + 1)
        fact_bits = fact.bit_length()
        ns = self.support()
        ratios: dict[int, list[tuple[int, int, int]]] = {}

        def ratio(n: int) -> list[tuple[int, int, int]]:
            """(a_i, b_i, d_i) for i = 1..k-1 at n."""
            out = ratios.get(n)
            if out is None:
                num, den = self._row(n, rows)
                out = ratios[n] = []
                for i in range(self.k - 1):
                    a, b = num[i] * den[i + 1], den[i] * num[i + 1]
                    out.append((a, b, a.bit_length() - b.bit_length()))
            return out

        bad = []
        for n in ns:
            try:
                cut = phi(n)
            except IndexError:
                continue                     # phi past the data: nothing to check
            later = ns[bisect_left(ns, cut):]
            if not later or self.k < 2:
                continue
            here = ratio(n)
            for npr in later:
                for i, ((a, b, d), (a_p, b_p, d_p)) in enumerate(zip(here, ratio(npr))):
                    gap = d_p - d + fact_bits                  # l - r
                    if gap > -2 and (gap >= 3 or _exceeds((a_p, b, fact), (a, b_p))):
                        bad.append({"i": i + 1, "n": n, "n_prime": npr})
        return bad


@dataclass(frozen=True)
class PermutationProductReport:
    k: int
    n: int
    hypothesis_ok: bool
    hypothesis_violations: tuple
    rows: tuple            # per permutation: (sigma, ok, eta)
    conclusion_holds: bool  # raw outcome; only asserted when hypothesis_ok

    @property
    def passed(self) -> bool:
        """Hypothesis verified and conclusion holds; a failed hypothesis is
        a separate defect, not a conclusion violation."""
        return self.hypothesis_ok and self.conclusion_holds


def permutation_product_check(table: EpsTable, phi: Callable[[int], int], n: int, k: int) -> PermutationProductReport:
    """Permutation inequality: for every sigma in S_k,

        prod_j eps_{j, phi^{sigma(j)-1}(n)} <= eta_sigma prod_j eps_{j, phi^{j-1}(n)}

    with eta_Id = 1 and eta_sigma = 1/(k+1)! otherwise.  Hypothesis
    violations are reported separately; the conclusion is only asserted
    when the hypothesis holds on the table's support.

    Each inequality is decided exactly on integers: row j, the entries
    eps_{j, phi^{s-1}(n)}, is put over its common denominator
    D_j = lcm of its denominators, so every product along a sigma has the
    same denominator prod_j D_j, and sigma's row holds iff the product of
    its numerators is at most limit = diag // (k+1)!, diag being the
    identity's (an integer x has (k+1)! x <= diag iff x <= diag // (k+1)!).
    The identity's row always holds; it is the first of
    itertools.permutations.

    Each row is decided from bit lengths first.  With b the sum of the bit
    lengths of sigma's k numerators and L = bits(limit),
    2^(b-k) <= product < 2^b and limit < 2^L, limit >= 2^(L-1) if L > 0: so
    b <= L - 1 holds, b - k >= L fails, and only L <= b <= L + k - 1 is
    multiplied out.
    """
    if k != table.k:
        raise ValueError("k mismatch with the table")
    rows_read: dict = {}
    viol = table.hypothesis_violations(phi, rows_read)
    iterates = [n]
    for _ in range(k - 1):
        iterates.append(phi(iterates[-1]))
    cols = [table._row(m, rows_read) for m in iterates]
    # scaled[j][s] / D_j = eps_{j+1, phi^{s-1}(n)} and bits[j][s] is its bit
    # length; index 0 is unused so that sigma's 1-based entries index the
    # rows directly.
    scaled = []
    for j in range(k):
        dens = [col[1][j] for col in cols]
        common = math.lcm(*dens)
        scaled.append((None, *(col[0][j] * (common // d) for col, d in zip(cols, dens))))
    bits = [(0, *(x.bit_length() for x in row[1:])) for row in scaled]
    identity = tuple(range(1, k + 1))
    fact = math.factorial(k + 1)
    limit = math.prod(map(getitem, scaled, identity)) // fact
    holds_below = limit.bit_length()
    fails_from = holds_below + k
    eta_off = Fraction(1, fact)
    sigmas = permutations(identity)
    rows = [(next(sigmas), True, Fraction(1))]
    for sigma in sigmas:
        b = sum(map(getitem, bits, sigma))
        ok = b < holds_below or (b < fails_from
                                 and not _exceeds(list(map(getitem, scaled, sigma)), (limit,)))
        rows.append((sigma, ok, eta_off))
    return PermutationProductReport(
        k=k, n=n,
        hypothesis_ok=not viol,
        hypothesis_violations=tuple(viol),
        rows=tuple(rows),
        conclusion_holds=all(ok for _sigma, ok, _eta in rows),
    )


class InstanceDefect(ValueError):
    """The instance data itself is unusable (for example a zero eps)."""


@dataclass(frozen=True)
class AbstractInstance:
    """Signed exact values L_n(e_j) = p/q over a support, each an integer
    pair (p, q) with q > 0; enough for the coefficient-bound argument."""

    k: int
    values: dict[tuple[int, int], tuple[int, int]] = field(hash=False)   # (j, n) -> (p, q)


@dataclass(frozen=True)
class CoefficientBoundReport:
    k: int
    n: int
    bounds: tuple[Fraction, ...]
    lambdas: tuple[Fraction, ...]
    ok_per_j: tuple[bool, ...]

    @property
    def passed(self) -> bool:
        return all(self.ok_per_j)


def coefficient_bound_check(instance: AbstractInstance, lambdas: Sequence, n: int,
                phi: Callable[[int], int]) -> CoefficientBoundReport:
    """|lambda_j| <= (1 + 1/k + 1/k^2) sum_i |L_{phi^{i-1}(n)}(M)| / |L_{phi^{i-1}(n)}(e_j)|
    with M = sum lambda_j e_j.  All arithmetic exact, and on integers.

    With B the lcm of the lambdas' denominators and E_m that of the
    entries' pairs L_m(e_j) = (n_jm, d_jm), |L_m(M)| = S_m / (B E_m) for the
    integer S_m = |sum_j (B lambda_j) n_jm (E_m / d_jm)|, and since d_jm
    divides E_m each term is S_m / (B (E_m / d_jm) |n_jm|).  Summed over
    the product of those denominators, times (k^2 + k + 1) / k^2 and
    reduced once, bound_j is the canonical Fraction of the exact sum.
    """
    k = instance.k
    lambdas = [Fraction(l) for l in lambdas]
    if len(lambdas) != k:
        raise ValueError("need one lambda per point")
    iterates = [n]
    for _ in range(k - 1):
        iterates.append(phi(iterates[-1]))
    lam_den = math.lcm(*(l.denominator for l in lambdas))
    lam_num = [l.numerator * (lam_den // l.denominator) for l in lambdas]
    entries = [[instance.values[(j, m)] for j in range(1, k + 1)] for m in iterates]
    m_nums, m_dens = [], []
    for m, vals in zip(iterates, entries):
        if min(q for _p, q in vals) <= 0:
            raise ValueError(f"L_{m}(e_1..e_{k}) need a positive denominator, got {vals}")
        den = math.lcm(*(q for _p, q in vals))
        m_nums.append(abs(sum(a * p * (den // q) for a, (p, q) in zip(lam_num, vals))))
        m_dens.append(den)
    c_num, c_den = k * k + k + 1, k * k * lam_den
    bounds, ok = [], []
    for j in range(k):
        num, den = 0, 1
        for m, vals, s_m, e_m in zip(iterates, entries, m_nums, m_dens):
            p, q = vals[j]
            if not p:
                raise InstanceDefect(f"|L_{m}(e_{j + 1})| = 0; instance unusable")
            t_den = e_m // q * abs(p)
            num, den = num * t_den + s_m * den, den * t_den
        b = Fraction(c_num * num, c_den * den)
        bounds.append(b)
        ok.append(abs(lambdas[j]) <= b)
    return CoefficientBoundReport(k=k, n=n, bounds=tuple(bounds), lambdas=tuple(lambdas),
                       ok_per_j=tuple(ok))


# ---------------------------------------------------------------------------
# Rank arithmetic


def rank_lower_bound(k: int, taus: Sequence) -> Fraction:
    """k + tau_1 + ... + tau_k; the taus must be pairwise distinct and > 0."""
    taus = [Fraction(t) for t in taus]
    if len(taus) != k:
        raise ValueError("need exactly k exponents")
    if any(t <= 0 for t in taus):
        raise ValueError("exponents must be positive")
    if len(set(taus)) != len(taus):
        raise ValueError("exponents must be pairwise distinct")
    return k + sum(taus, Fraction(0))


def zeta_rank_bound(a: int, saddle_data: SaddleData | None = None) -> dict:
    """Rank-bound certificate for the two-point zeta application.

    Scales the growth constants by the common-denominator factor
    e^{2(a+2)}: with log beta = 2(a+2) + 2(a-6r) log 2 + 6(2r+1) log(2r+1),
    tau_1 = -log(e^{2(a+2)} eps) / log beta and tau_2 likewise with eps''.
    Emits bound = 2 + tau_1 + tau_2, the limit target 2 log a / (1 + log 2)
    and the intermediate 2 log r / (1 + log 2) the derivation passes
    through.  Since eps'' < eps, tau_2 > tau_1; the gap tau_2 - tau_1 is
    emitted as a decimal string ("tau_gap"), because the float fields
    round both exponents to the same double from about a = 1e10 on.  It
    is log eps - log eps'' over log beta, with the numerator taken from
    the root offsets (SaddleData.log_eps_gap): from about a = 1e30 the
    two exponents agree to working precision.  Raises ArithmeticError
    naming the first float field past the double range (log_beta from
    about a = 1e308 on).
    """
    r = r_of_a(a)
    data = saddle_data if saddle_data is not None else compute_constants(a, r)
    if (data.a, data.r) != (a, r):
        raise ValueError("saddle data mismatch")
    with mp.workdps(data.dps):
        log_beta = (2 * (a + 2) + 2 * (a - 6 * r) * mp.log(2)
                    + 6 * (2 * r + 1) * mp.log(2 * r + 1))
        tau1 = -(2 * (a + 2) + data.log_eps_a) / log_beta
        tau2 = -(2 * (a + 2) + data.log_eps_pp_a) / log_beta
        if tau1 <= 0 or tau2 <= 0:
            raise ArithmeticError(
                f"nonpositive exponent (tau1={mp.nstr(tau1, 8)}, tau2={mp.nstr(tau2, 8)}): "
                "the scaled forms do not decay at this a")
        gap = data.log_eps_gap / log_beta          # tau2 - tau1
        if not gap > 0:
            raise ArithmeticError("tau1 == tau2; distinctness required")
        bound = 2 + tau1 + tau2
        reference = 2 * mp.log(a) / (1 + mp.log(2))
        intermediate = 2 * mp.log(r) / (1 + mp.log(2))
        cert = {
            "a": a,
            "r": r,
            "log_beta": float(log_beta),
            "tau1": float(tau1),
            "tau2": float(tau2),
            "tau_gap": mp.nstr(gap, 20),
            "bound": float(bound),
            "reference_2loga_over_1plog2": float(reference),
            "intermediate_2logr_over_1plog2": float(intermediate),
            "bound_over_reference": float(bound / reference),
            "bound_over_intermediate": float(bound / intermediate),
            "log_eps_a": float(data.log_eps_a),
            "log_eps_pp_a": float(data.log_eps_pp_a),
            "dps": data.dps,
        }
    for name, value in cert.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ArithmeticError(f"{name} is {value} as a double at a of {len(str(a))} "
                                  "digits; the certificate's float fields cannot hold it")
    return cert


# ---------------------------------------------------------------------------
# Oscillation subsequence


@dataclass(frozen=True)
class OscillationReport:
    eps: float
    horizon: int
    psi: tuple[int, ...]
    accepted_fraction: float
    lambda_estimate: float


def oscillation_subsequence(omegas: Sequence[float], varphis: Sequence[float],
                            eps: float, horizon: int) -> OscillationReport:
    """Greedy increasing psi with |cos(psi(n) omega_j + varphi_j)| >= eps
    for every j, scanning m = 1..horizon.  The empirical density psi(N)/N
    estimates the thinning factor lambda.  Raises ArithmeticError if
    nothing qualifies, and ValueError before any work for a horizon past
    ENUMERATION_CAP."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if horizon > ENUMERATION_CAP:
        raise ValueError(f"horizon {horizon} exceeds cap {ENUMERATION_CAP}")
    if len(omegas) != len(varphis):
        raise ValueError("omega/varphi length mismatch")
    kept = []
    for m in range(1, horizon + 1):
        if all(abs(math.cos(m * w + p)) >= eps for w, p in zip(omegas, varphis)):
            kept.append(m)
    if not kept:
        raise ArithmeticError("horizon exhausted: no index avoids the cosine zeros "
                              f"at eps={eps}")
    return OscillationReport(
        eps=eps, horizon=horizon, psi=tuple(kept),
        accepted_fraction=len(kept) / horizon,
        lambda_estimate=kept[-1] / len(kept),
    )


# ---------------------------------------------------------------------------
# Randomized instance generators for the property suites


def random_smallness_table(rng, k: int) -> tuple[EpsTable, Callable[[int], int], int]:
    """Random table built to satisfy the ratio hypothesis exactly.

    eps_{j,n} = 2^{-n tau_j} (1 + jitter) with integer taus of gap >= 1 and
    phi(n) = n + gap where gap covers log2((k+1)!) plus jitter headroom.
    The support is kept sparse: the phi-iterate chain from n0 = 1 plus two
    trailing points, which is all the checkers quantify over.  Entries are
    in lowest terms: a draw's trailing zeros are shifted out of both p and
    q.  Returns (table, phi, n0).
    """
    taus = []
    t = rng.randint(1, 4)
    for _ in range(k):
        taus.append(t)
        t += rng.randint(1, 3)
    taus.reverse()                       # tau_1 > ... > tau_k
    need = int(math.log2(math.factorial(k + 1))) + 3
    gap = need + rng.randint(2, 6)
    n0 = 1
    support = [n0 + i * gap for i in range(k)]
    support += [support[-1] + 1, support[-1] + gap]
    draw = rng.randrange                 # 1024 + jitter, jitter/1024 in [0, 1/4]
    eps = {(j, n): (p >> z, 1 << (n * tau + 10 - z))
           for j, tau in enumerate(taus, 1) for n in support
           for p in (draw(1024, 1280),) for z in ((p & -p).bit_length() - 1,)}

    def phi(n: int) -> int:
        return n + gap

    return EpsTable(k=k, eps=eps), phi, n0


def random_signed_instance(rng, k: int) -> tuple[AbstractInstance, Callable[[int], int], int]:
    """Signed exact instance whose absolute values satisfy the hypothesis."""
    table, phi, n0 = random_smallness_table(rng, k)
    values = {key: (p if rng.random() < 0.5 else -p, q) for key, (p, q) in table.eps.items()}
    return AbstractInstance(k=k, values=values), phi, n0
