"""Projective distance, Siegel-style determinants, and type-II box checks.

Desk-scale verifiers: each takes concrete sequences (continued-fraction
convergents for sqrt(2) and the golden ratio ship as fixtures), checks
the decay hypotheses empirically by regression, and then enumerates the
claimed-empty boxes exactly.  Asymptotic conclusions are verified as
"no violation above a recorded threshold", never as universally
quantified statements.  The linear algebra is small and runs on
integers, Fractions and mpmath, so no quantity is confined to the
double-precision range however far the convergents grow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from mpmath import mp, mpf

from .exact_kernel import echelon

# Largest number of lattice points, box vectors or indices that one
# checker enumerates; a larger input is refused before any work.
ENUMERATION_CAP = 10_000_000


def convergents(cf_terms: Sequence[int], count: int) -> list[tuple[int, int]]:
    """(p_k, q_k) from continued-fraction terms; cf_terms[0] is the integer
    part, later terms repeat cyclically if count exceeds their number."""
    out = []
    p0, q0 = 1, 0
    p1, q1 = cf_terms[0], 1
    out.append((p1, q1))
    idx = 1
    while len(out) < count:
        term = cf_terms[(idx - 1) % (len(cf_terms) - 1) + 1] if len(cf_terms) > 1 else cf_terms[0]
        # periodic tail: for sqrt2 = [1; 2,2,...], golden = [1; 1,1,...]
        p0, q0, p1, q1 = p1, q1, term * p1 + p0, term * q1 + q0
        out.append((p1, q1))
        idx += 1
    return out


def sqrt2_convergents(count: int) -> list[tuple[int, int]]:
    return convergents([1, 2], count)


def golden_convergents(count: int) -> list[tuple[int, int]]:
    return convergents([1, 1], count)


def _integer_rows(rows) -> tuple[int, list[list[int]]]:
    """(D, D * rows): the least common denominator D of the rows of reals
    (ints, floats, Fractions or decimal strings) and the integer rows they
    scale to, exactly."""
    fracs = [[Fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in fracs for x in row))
    return den, [[int(x * den) for x in row] for row in fracs]


def _gram(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(a, b)) for b in vectors] for a in vectors]


def _slope(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Least-squares slope of ys against xs; None without two distinct xs."""
    if len(set(xs)) < 2:
        return None
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


# ---------------------------------------------------------------------------
# Projective distance


@dataclass(frozen=True)
class ProjectiveInstance:
    """Basis of F (rows) and the norm-equivalence constant derived from it."""

    basis: Sequence[Sequence[float]]     # k x p, rows e_1..e_k

    def __post_init__(self):
        try:
            rows = [list(row) for row in self.basis]
        except TypeError:
            raise ValueError("basis must be a k x p array") from None
        if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("basis must be a k x p array")
        if echelon(_integer_rows(rows)[1]).rank < len(rows):
            raise ValueError("basis rows are linearly dependent")

    @property
    def kappa(self) -> float:
        """kappa with max|lambda_j| <= kappa ||f|| for f = sum lambda_j e_j:
        the reciprocal of the smallest singular value of the basis, from
        the least eigenvalue of the exact Gram matrix of the basis scaled
        to integers by D (which scales that eigenvalue by D^2)."""
        den, rows = _integer_rows(self.basis)
        gram = _gram(rows)
        with mp.workprec(128 + max(abs(g).bit_length() for row in gram for g in row)):
            eigenvalues, _ = mp.eigsy(mp.matrix(gram))
            return float(den / mp.sqrt(min(eigenvalues)))


def projective_distance(inst: ProjectiveInstance, P) -> float:
    """Dist(P, F) = ||u|| / ||P||, u the component of P orthogonal to F.

    ||u||^2 = det Gram(e_1..e_k, P) / det Gram(e_1..e_k), both Gram
    matrices on the integers that basis and P scale to together, so the
    ratio is exact and only its square root is rounded.
    """
    basis = [list(row) for row in inst.basis]
    P = list(P)
    if len(P) != len(basis[0]):
        raise ValueError("P must have one coordinate per basis column")
    *B, Pi = _integer_rows(basis + [P])[1]
    norm2 = sum(x * x for x in Pi)
    if not norm2:
        raise ValueError("P must be nonzero")
    u2 = Fraction(echelon(_gram(B + [Pi])).det, echelon(_gram(B)).det)
    return math.sqrt(u2 / norm2)


@dataclass(frozen=True)
class DistanceSweepReport:
    tau: float
    eps: float
    norm_threshold: float
    checked: int                  # points whose inequality was decided
    violations: tuple             # (p, q, Dist, bound), first 20 by p
    best_exponent: float          # most negative log Dist / log ||P|| among them

    @property
    def passed(self) -> bool:
        return not self.violations


def _cf_terms(num: int, den: int) -> list[int]:
    """The continued-fraction terms of num/den (den > 0)."""
    terms = []
    while den:
        t, r = divmod(num, den)
        terms.append(t)
        num, den = den, r
    return terms


def _upper_bound(log_x: float, p_max: int) -> int:
    """An integer above exp(log_x), or p_max if that is smaller."""
    if log_x > math.log(p_max + 1) + 1:
        return p_max
    return min(p_max, int(math.exp(log_x) * (1 + 1e-9)) + 1)


def _decide(A: int, B: int, C: int, tau: float, eps: float) -> tuple[bool, float, float]:
    """Whether u < ||P||^(-1/tau-eps), for u = A / sqrt(B) and ||P|| = sqrt(C)
    (all integers > 0), with log u and log ||P|| as floats.

    The sign of g = log A - log B / 2 + (1/tau + eps) log C / 2 decides; it
    is taken at a doubling precision until it clears the rounding bound.
    """
    prec = 64
    while prec <= 1 << 14:
        with mp.workprec(prec):
            la, lb, lc = mp.log(A), mp.log(B), mp.log(C)
            e = mpf(1) / tau + eps
            g = la - lb / 2 + e * lc / 2
            if abs(g) > (abs(la) + abs(lb) + abs(e * lc) + 1) * mpf(2) ** (8 - prec):
                return g < 0, float(la - lb / 2), float(lc / 2)
        prec *= 2
    raise ArithmeticError(f"cannot decide the distance bound at ({A}, {B}, {C})")


def projective_distance_sweep(xi, tau: float, eps: float, p_max: int,
                              norm_threshold: float = 100.0) -> DistanceSweepReport:
    """Dist(P, F) >= ||P||^(-1-1/tau-eps) for F = span((1, xi)) in R^2,
    over integer P = (p, q) with 1 <= p <= p_max, decided exactly.

    The conclusion is asymptotic ("||P|| sufficiently large in terms of
    eps"); ``norm_threshold`` is the recorded burn-in below which points
    are not asserted.  For the golden ratio at eps = 0.2 the early
    convergents genuinely dip under the bound up to ||P|| ~ 55.  The
    vertical line p = 0 is not swept: Dist there is the constant
    1/sqrt(1+xi^2), which the decaying right side falls below for large
    ||P||.  Points on F (Dist = 0) are not asserted either.

    ``xi`` is taken as the exact rational it denotes (a float, int,
    Fraction or decimal string), x = num/den.  With d = p x - q,
    s = sqrt(1 + x^2) and e = 1/tau + eps (which must be positive), the
    bound reads u = |d|/s >= ||P||^(-e), and each point is decided on the
    integers A = |p num - q den|, B = num^2 + den^2, C = p^2 + q^2 (see
    ``_decide``).  The report's ``checked`` counts the decided points and
    ``best_exponent`` is the least log Dist / log ||P|| among them (0 if
    none); a violating point is one whose bound fails.

    Which points are decided.  Let (p_j, q_j) be the convergents of x
    with d_j != 0, p_j ascending.  Every violating P is found, because:

    * Best approximation.  For P off F, let k be the largest j with
      p_j <= p.  Then |d_k| <= |d|.  If p < p_{k+1}, write
      P = a P_k + b P_{k+1} (the determinant is +-1); a != 0, a and b do
      not share a sign, and d_k, d_{k+1} alternate, so
      |d| = |a| |d_k| + |b| |d_{k+1}| >= |d_k|.  Otherwise x is rational
      and P_{k+1} = (den, num) lies on F; then |d| >= 1/den = |d_k|.
    * The rounding of q.  If also |d| < 1/2, then
      |q_k| <= p_k|x| + |d_k| and |q| >= p|x| - |d| give
      |q_k| - |q| <= |d_k| + |d| < 1, so the integer |q_k| - |q| is <= 0
      and ||P_k|| <= ||P||.  With u_k <= u and a negative exponent -e,
      u_k <= u < ||P||^(-e) <= ||P_k||^(-e): P_k violates too.
    * |d| >= 1/2.  A violation needs |d| < s ||P||^(-e) <= s p^(-e), so
      p < R = (2s)^(1/e).
    * ||P_k|| under the threshold.  Let k* be the last j with
      ||P_j|| < threshold.  P_k is not asserted only if k <= k*, and then
      p < p_{k+1} <= p_{k*+1} =: G (G = p_max if p_{k*+1} > p_max).  If
      P_{k*+1} lies on F instead, every P off F has |d| >= 1/den, so a
      violation needs p <= ||P|| < (den s)^(1/e) =: G.

    So every p <= min(p_max, max(G, R)) is swept directly, over each q with
    |d| < s max(threshold, p)^(-e): any violation lies there, since
    ||P|| >= max(threshold, p).  A violation at a larger p has |d| < 1/2
    and an asserted P_k, so the convergent P_k, decided directly or among
    the convergents above, violates with p_k <= p.  The direct part is
    empty or short unless the threshold hides a convergent followed by a
    large partial quotient.
    """
    e = 1 / tau + eps
    if not e > 0:
        raise ValueError("the bound must decay: need 1/tau + eps > 0")
    x = Fraction(xi)
    num, den = x.numerator, x.denominator
    B = num * num + den * den
    t2 = Fraction(max(norm_threshold, 0)) ** 2
    log_s = math.log(B) / 2 - math.log(den)

    terms = _cf_terms(num, den)
    convs = []
    on_line = True                     # the last convergent, x itself, is reached
    for q, p in convergents(terms, len(terms))[:-1]:
        convs.append((p, q))
        if p > p_max:
            on_line = False
            break
    below = [j for j, (p, q) in enumerate(convs) if p * p + q * q < t2]
    k_star = below[-1] if below else -1
    if on_line and k_star == len(convs) - 1:
        gap = _upper_bound(math.log(B) / (2 * e), p_max)
    elif k_star + 1 < len(convs):
        gap = convs[k_star + 1][0] - 1
    else:
        gap = p_max
    p_direct = min(p_max, max(gap, _upper_bound((math.log(2) + log_s) / e, p_max)))

    s = math.exp(log_s)
    candidates = []
    for p in range(1, p_direct + 1):
        width = s * max(norm_threshold, p) ** -e * (1 + 1e-9)
        qc = (2 * p * num + den) // (2 * den)          # nearest q to p x
        h = int(width) + 1
        candidates.extend((p, q) for q in range(qc - h, qc + h + 1)
                          if abs(p * num - q * den) / den < width)
    candidates.extend((p, q) for p, q in convs if p_direct < p <= p_max)

    checked = 0
    violations = []
    best = 0.0
    for p, q in candidates:
        A = abs(p * num - q * den)
        C = p * p + q * q
        if not A or C < t2:
            continue
        checked += 1
        bad, log_u, log_norm = _decide(A, B, C, tau, eps)
        if bad and len(violations) < 20:
            violations.append((p, q, math.exp(log_u - log_norm), math.exp(-(1 + e) * log_norm)))
        if log_norm > 0:
            best = min(best, (log_u - log_norm) / log_norm)
    return DistanceSweepReport(tau=tau, eps=eps, norm_threshold=norm_threshold,
                               checked=checked, violations=tuple(violations),
                               best_exponent=best)


# ---------------------------------------------------------------------------
# Siegel-style determinant verifier


@dataclass(frozen=True)
class SiegelReport:
    d: int
    k: int
    tau_sum: float
    rows_: tuple                       # (n, det, log|det|/logQ, logBound/logQ)
    hypothesis_failures: tuple
    bound_slope: float | None          # fitted exponent of the bound product
    expected_bound_slope: float        # d - k - sum(tau)

    @property
    def passed(self) -> bool:
        return not self.hypothesis_failures and all(r[1] != 0 for r in self.rows_)


def siegel_verify(forms_per_n: Sequence[Sequence[Sequence[int]]],
                  qseq: Sequence[int],
                  points: Sequence[Sequence[float]],
                  taus: Sequence[float],
                  subspace_basis: Sequence[Sequence[int]]) -> SiegelReport:
    """Determinant side of the p-independent-forms criterion.

    Per n: verify the p forms are independent (exact rank), restrict to
    the rational subspace spanned by ``subspace_basis`` (integer vectors),
    select d rows with a nonzero exact determinant, and record it; the
    column-combination upper bound d! prod_j max_t |L^t(e_j)| *
    (p ||l||_inf ||W||)^(d-k) is tracked alongside and its fitted exponent
    compared against d - k - sum tau.  The values L^t(e_j) are dot
    products in mpmath with the integer forms held exactly (a zero one
    counts as 1e-300), the logarithms of integers come from ``math.log``,
    and the exponent is a least-squares slope.  Exponents of a row with
    q_n = 1, and the fitted exponent of fewer than two distinct q_n, are
    undefined and None.
    """
    U = [list(map(int, u)) for u in subspace_basis]
    d = len(U)
    k = len(points)
    if not 1 <= k <= d:
        raise ValueError("need 1 <= number of points <= dim F")
    hypothesis_failures = []
    rows_out = []
    logs = []
    for idx, forms in enumerate(forms_per_n):
        n = idx + 1
        L = [list(map(int, f)) for f in forms]
        p = len(L[0])
        if any(len(e) != p for e in points):
            raise ValueError("points need one coordinate per form column")
        if echelon(L).rank < len(L):
            hypothesis_failures.append({"n": n, "reason": "forms not independent"})
            continue
        # restriction matrix [L^t(u_j)]; the rows independent of the rows
        # before them are the pivot columns of its transpose, at most d
        R = [[sum(L[t][h] * U[jj][h] for h in range(p)) for jj in range(d)]
             for t in range(len(L))]
        cols = echelon([list(col) for col in zip(*R)])
        if cols.rank < d:
            hypothesis_failures.append({"n": n, "reason": "no independent restriction"})
            continue
        det = echelon([R[t] for t in cols.pivots]).det
        # upper-bound product from the column-combination argument
        top = max(abs(x) for row in L for x in row)
        bnd = math.lgamma(d + 1)
        with mp.workprec(top.bit_length() + 64):
            for e in points:
                small = max(abs(mp.fdot(row, e)) for row in L)
                bnd += float(mp.log(small)) if small else math.log(1e-300)
        bnd += (d - k) * (math.log(max(1, top)) + math.log(p + 1))
        q = qseq[idx]
        lq = math.log(q)
        if lq > 0:
            rows_out.append((n, det, math.log(abs(det)) / lq if det else float("-inf"),
                             bnd / lq))
        else:                            # q_n = 1: no exponent is defined
            rows_out.append((n, det, None, None))
        logs.append((lq, bnd))
    return SiegelReport(d=d, k=k, tau_sum=float(sum(taus)),
                        rows_=tuple(rows_out),
                        hypothesis_failures=tuple(hypothesis_failures),
                        bound_slope=_slope([x for x, _ in logs], [y for _, y in logs]),
                        expected_bound_slope=d - k - float(sum(taus)))


@dataclass(frozen=True)
class ConvexBodyReport:
    n: int
    eps: float
    box_bounds: tuple
    points_checked: int
    nonzero_survivors: tuple

    @property
    def passed(self) -> bool:
        return not self.nonzero_survivors


def convex_body_emptiness(points: Sequence[Sequence[float]],
                          taus: Sequence[float],
                          qn: int, n: int, eps: float,
                          volume_cap: int = ENUMERATION_CAP) -> ConvexBodyReport:
    """Enumerate integer P = sum lambda_j e_j + u with |lambda_j| <= Q_n^(tau_j - eps)
    and ||u|| <= Q_n^(-1-eps); only the origin may survive.

    The integer bounding box follows from ||P|| <= sum |lambda_j| ||e_j|| + 1.
    Capped at p <= 6 and ``volume_cap`` lattice points.  Every term
    Q_n^(tau_j - eps) ||e_j|| is below the box half-width B, so a box
    whose volume is past the cap by more than a factor e in logs (taken
    of the integer Q_n) is refused before any cap is formed as a float;
    the caps are then formed from the same log, as Q_n may be past the
    float range.  The coordinates lambda = M P come from
    M = Gram(e)^(-1) (e_1..e_k), solved exactly on the points scaled to
    integers and rounded to floats once.
    """
    E = [[float(x) for x in row] for row in points]
    k, p = len(E), len(E[0])
    if p > 6:
        raise ValueError("enumeration capped at p <= 6")
    log_qn = math.log(qn)
    norms = [math.hypot(*e) for e in E]
    log_widest = max(((t - eps) * log_qn + math.log(r) for t, r in zip(taus, norms) if r),
                         default=-math.inf)
    if p * log_widest > math.log(volume_cap) + 1:
        raise ValueError(f"box volume exceeds cap {volume_cap}")
    lam_caps = [math.exp((t - eps) * log_qn) for t in taus]
    u_cap = math.exp((-1 - eps) * log_qn)
    B = int(math.floor(sum(c * r for c, r in zip(lam_caps, norms)) + 1))
    total = (2 * B + 1) ** p
    if total > volume_cap:
        raise ValueError(f"box volume {total} exceeds cap {volume_cap}")
    den, Ei = _integer_rows(E)
    # [Gram(D E) | D E] reduces to [s I | s M / D]
    red = echelon([g + row for g, row in zip(_gram(Ei), Ei)])
    if red.rank < k:
        raise ValueError("points are linearly dependent")
    M = [[float(Fraction(den * x, red.scale)) for x in row[k:]] for row in red.rows[:k]]
    survivors = []
    for P in product(range(-B, B + 1), repeat=p):
        if not any(P):
            continue
        lam = [sum(m * x for m, x in zip(row, P)) for row in M]
        if any(abs(lj) > c for lj, c in zip(lam, lam_caps)):
            continue
        u2 = sum((x - sum(lj * e[h] for lj, e in zip(lam, E))) ** 2 for h, x in enumerate(P))
        if u2 <= u_cap * u_cap and len(survivors) < 20:
            survivors.append(P)
    return ConvexBodyReport(n=n, eps=eps,
                            box_bounds=(B,) * p,
                            points_checked=int(total),
                            nonzero_survivors=tuple(survivors))

# ---------------------------------------------------------------------------
# Type-II verifier


@dataclass(frozen=True)
class TypeIIReport:
    k: int
    Q: int
    eps: float
    hypothesis_ok: bool
    decay_slopes: tuple[float, ...]
    taus: tuple[float, ...]
    boxes_checked: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return self.hypothesis_ok and not self.violations


def type2_box_check(xis: Sequence,
                    forms: Sequence[Sequence[int]],
                    qseq: Sequence[int],
                    taus: Sequence[float],
                    eps: float, Q: int,
                    slope_drift: float = 0.2) -> TypeIIReport:
    """Type-II smallness: with forms (l_1..l_k, l_{k+1}) per n and
    |l_{k+1,n} xi_j - l_{j,n}| = Q_n^(-tau_j + o(1)), every integer vector
    (a_0..a_k) != 0 with |a_j| <= Q^(tau_j) satisfies
    |a_0 + sum a_j xi_j| >= Q^(-1-eps).

    The decay hypothesis is checked by regression of log error against
    log Q_n (drift tolerance ``slope_drift``); the conclusion by exact
    enumeration of the box, testing only the integer a_0 nearest to
    -sum a_j xi_j (any other a_0 leaves a gap >= 1/2 > Q^(-1-eps)).
    The regression takes log Q_n from the integers, so Q_n may lie far
    beyond the double-precision range.  Before any work the box caps
    floor(Q^tau_j) are formed as doubles (OverflowError, an
    ArithmeticError, past the double range) and a box of more than
    ENUMERATION_CAP vectors, prod (2 floor(Q^tau_j) + 1), is refused with
    ValueError.
    """
    caps = [int(math.floor(Q ** t)) for t in taus]
    box = math.prod(2 * c + 1 for c in caps)
    if box > ENUMERATION_CAP:
        raise ValueError(f"type-II box of {box} vectors exceeds cap {ENUMERATION_CAP}")
    k = len(xis)
    # the residues |l_{k+1} xi - l_j| cancel to ~ 1/Q_n; evaluate them at a
    # precision covering the largest Q_n, never in double precision
    dps = 30 + int(math.log10(max(qseq))) * 2
    slopes = []
    hypo_ok = True
    with mp.workdps(dps):
        xs_mp = [mpf(x) for x in xis]       # strings/mpf keep full precision
        lx = [math.log(q) for q in qseq]
        for j in range(k):
            errs = []
            for idx in range(len(qseq)):
                l = forms[idx]
                errs.append(float(mp.log(abs(l[k] * xs_mp[j] - l[j]))))
            slope = _slope(lx, errs)
            if slope is None:
                raise ValueError("the decay regression needs two distinct Q_n")
            slopes.append(slope)
            if abs(slope + taus[j]) > slope_drift:
                hypo_ok = False
        threshold = mpf(Q) ** (-1 - eps)
        violations = []
        boxes = 0
        for avec in product(*(range(-c, c + 1) for c in caps)):
            if not any(avec):
                continue
            boxes += 1
            x = sum((a * x_ for a, x_ in zip(avec, xs_mp)), mpf(0))
            a0 = -int(mp.nint(x))
            for da in (0, -1, 1):
                v = abs((a0 + da) + x)
                if v < threshold:
                    violations.append(((a0 + da,) + tuple(avec), float(v)))
    return TypeIIReport(k=k, Q=Q, eps=eps, hypothesis_ok=hypo_ok,
                        decay_slopes=tuple(slopes), taus=tuple(float(t) for t in taus),
                        boxes_checked=boxes, violations=tuple(violations))

