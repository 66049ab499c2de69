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

All smallness data is exact (Fractions), and the permutation and
hypothesis inequalities are decided by integer cross-multiplication of
their numerators and denominators, so every check is decisive rather than
a floating-point judgement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from operator import getitem
from typing import Callable, Sequence

from mpmath import mp

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


@dataclass(frozen=True)
class EpsTable:
    """eps_{j,n} = |L_n(e_j)| > 0 over a finite support of n values."""

    k: int
    eps: dict[tuple[int, int], Fraction] = field(hash=False)

    def value(self, j: int, n: int) -> Fraction:
        try:
            v = self.eps[(j, n)]
        except KeyError:
            raise ValueError(f"eps_({j},{n}) is not in the table") from None
        if v <= 0:
            raise ValueError(f"eps_({j},{n}) must be positive")
        return v

    def support(self) -> list[int]:
        return sorted({n for (_j, n) in self.eps})

    def _row(self, n: int, rows: dict) -> tuple[list[int], list[int]]:
        """Numerators and denominators of eps_{1,n} .. eps_{k,n}, each read
        once through value() and kept in ``rows``."""
        row = rows.get(n)
        if row is None:
            ratios = [self.value(j, n).as_integer_ratio() for j in range(1, self.k + 1)]
            row = rows[n] = ([p for p, _q in ratios], [q for _p, q in ratios])
        return row

    def hypothesis_violations(self, phi: Callable[[int], int], rows: dict | None = None) -> list[dict]:
        """All (i, n, n') in the support with n' >= phi(n) violating
        eps_{i,n'} / eps_{i,n} <= (1/(k+1)!) eps_{i+1,n'} / eps_{i+1,n},
        decided on the entries' integer numerators and denominators.
        ``rows`` keeps the entries read (see _row), so that a caller checking
        more inequalities on the same table reads each entry once."""
        rows = {} if rows is None else rows
        fact = math.factorial(self.k + 1)
        ns = self.support()
        bad = []
        for n in ns:
            try:
                cut = phi(n)
            except IndexError:
                continue                     # phi past the data: nothing to check
            later = [npr for npr in ns if npr >= cut]
            if not later or self.k < 2:
                continue
            num, den = self._row(n, rows)
            for npr in later:
                num_p, den_p = self._row(npr, rows)
                for i in range(self.k - 1):
                    lhs = num_p[i] * num[i + 1] * fact * den[i] * den_p[i + 1]
                    rhs = num[i] * num_p[i + 1] * den_p[i] * den[i + 1]
                    if lhs > rhs:
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

    Each inequality is decided exactly by integer cross-multiplication:
    the products of the entries' numerators and denominators along sigma
    give lhs_num * diag_den * (k+1)! <= diag_num * lhs_den (no (k+1)! for
    the identity).  Rows come in itertools.permutations order.
    """
    if k != table.k:
        raise ValueError("k mismatch with the table")
    rows_read: dict = {}
    viol = table.hypothesis_violations(phi, rows_read)
    iterates = [n]
    for _ in range(k - 1):
        iterates.append(phi(iterates[-1]))
    # nums[j][s] / dens[j][s] = eps_{j+1, phi^{s-1}(n)}; index 0 is unused so
    # that sigma's 1-based entries index the rows directly.
    cols = [table._row(m, rows_read) for m in iterates]
    nums = [(None, *(col[0][j] for col in cols)) for j in range(k)]
    dens = [(None, *(col[1][j] for col in cols)) for j in range(k)]
    identity = tuple(range(1, k + 1))
    diag_num = math.prod(map(getitem, nums, identity))
    diag_den = math.prod(map(getitem, dens, identity))
    fact = math.factorial(k + 1)
    diag_den_fact, eta_off = diag_den * fact, Fraction(1, fact)
    rows = []
    for sigma in permutations(identity):
        is_id = sigma == identity
        ok = (math.prod(map(getitem, nums, sigma)) * (diag_den if is_id else diag_den_fact)
              <= diag_num * math.prod(map(getitem, dens, sigma)))
        rows.append((sigma, ok, Fraction(1) if is_id else eta_off))
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
    """Signed exact values L_n(e_j) over a support; enough for the
    coefficient-bound argument, which only ever sees these numbers."""

    k: int
    values: dict[tuple[int, int], Fraction] = field(hash=False)   # (j, n) -> signed L_n(e_j)

    def form_at_point(self, j: int, n: int) -> Fraction:
        return self.values[(j, n)]

    def form_at_combination(self, lambdas: Sequence[Fraction], n: int) -> Fraction:
        return sum((Fraction(l) * self.values[(j + 1, n)] for j, l in enumerate(lambdas)),
                   Fraction(0))


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
    with M = sum lambda_j e_j.  All arithmetic exact."""
    k = instance.k
    lambdas = [Fraction(l) for l in lambdas]
    if len(lambdas) != k:
        raise ValueError("need one lambda per point")
    iterates = [n]
    for _ in range(k - 1):
        iterates.append(phi(iterates[-1]))
    m_vals = [abs(instance.form_at_combination(lambdas, m)) for m in iterates]
    const = Fraction(1) + Fraction(1, k) + Fraction(1, k * k)
    bounds = []
    ok = []
    for j in range(1, k + 1):
        total = Fraction(0)
        for i, m in enumerate(iterates):
            denom = abs(instance.form_at_point(j, m))
            if denom == 0:
                raise InstanceDefect(f"|L_{m}(e_{j})| = 0; instance unusable")
            total += m_vals[i] / denom
        b = const * total
        bounds.append(b)
        ok.append(abs(lambdas[j - 1]) <= b)
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


def zeta_rank_bound(a: int, dps: int | None = None,
                    saddle_data: SaddleData | None = None) -> dict:
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
    two exponents agree to working precision.
    """
    r = r_of_a(a)
    data = saddle_data if saddle_data is not None else compute_constants(a, r, dps)
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
    estimates the thinning factor lambda.  Raises if nothing qualifies."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
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


def random_smallness_table(rng, k: int, phi_gap: int | None = None
                      ) -> tuple[EpsTable, Callable[[int], int], int]:
    """Random table built to satisfy the ratio hypothesis exactly.

    eps_{j,n} = 2^{-n tau_j} (1 + jitter) with integer taus of gap >= 1 and
    phi(n) = n + gap where gap covers log2((k+1)!) plus jitter headroom.
    The support is kept sparse: the phi-iterate chain from n0 = 1 plus two
    trailing points, which is all the checkers quantify over.  Returns
    (table, phi, n0).
    """
    taus = []
    t = rng.randint(1, 4)
    for _ in range(k):
        taus.append(t)
        t += rng.randint(1, 3)
    taus.reverse()                       # tau_1 > ... > tau_k
    need = int(math.log2(math.factorial(k + 1))) + 3
    gap = phi_gap or (need + rng.randint(2, 6))
    n0 = 1
    support = [n0 + i * gap for i in range(k)]
    support += [support[-1] + 1, support[-1] + gap]
    eps: dict[tuple[int, int], Fraction] = {}
    for j in range(1, k + 1):
        for n in support:
            jitter = rng.randint(0, 255)                   # jitter/1024 in [0, 1/4]
            eps[(j, n)] = Fraction(1024 + jitter, 2 ** (n * taus[j - 1] + 10))
    table = EpsTable(k=k, eps=eps)

    def phi(n: int) -> int:
        return n + gap

    return table, phi, n0


def random_signed_instance(rng, k: int) -> tuple[AbstractInstance, Callable[[int], int], int]:
    """Signed exact instance whose absolute values satisfy the hypothesis."""
    table, phi, n0 = random_smallness_table(rng, k)
    values = {key: (v if rng.random() < 0.5 else -v) for key, v in table.eps.items()}
    return AbstractInstance(k=k, values=values), phi, n0
