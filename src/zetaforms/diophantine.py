"""Projective distance, Siegel-style determinants, and type-II box checks.

Desk-scale verifiers: each takes concrete sequences (continued-fraction
convergents for sqrt(2) and the golden ratio ship as fixtures), checks
the decay hypotheses empirically by regression, and then enumerates the
claimed-empty boxes exactly.  Asymptotic conclusions are verified as
"no violation above a recorded threshold", never as universally
quantified statements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact_kernel import echelon


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


# ---------------------------------------------------------------------------
# Projective distance


@dataclass(frozen=True)
class ProjectiveInstance:
    """Basis of F (rows) and the norm-equivalence constant derived from it."""

    basis: np.ndarray            # k x p, rows e_1..e_k

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be a k x p array")
        gram = b @ b.T
        if np.linalg.det(gram) <= 0:
            raise ValueError("basis rows are linearly dependent")

    @property
    def kappa(self) -> float:
        """kappa with max|lambda_j| <= kappa ||f|| for f = sum lambda_j e_j:
        the reciprocal of the smallest singular value of the basis."""
        s = np.linalg.svd(np.asarray(self.basis, dtype=float), compute_uv=False)
        return float(1.0 / s[-1])


def projective_distance(inst: ProjectiveInstance, P) -> float:
    """Dist(P, F) = ||u|| / ||P||, u the component of P orthogonal to F."""
    P = np.asarray(P, dtype=float)
    if not P.any():
        raise ValueError("P must be nonzero")
    B = np.asarray(inst.basis, dtype=float)
    gram = B @ B.T
    lam = np.linalg.solve(gram, B @ P)
    u = P - B.T @ lam
    return float(np.linalg.norm(u) / np.linalg.norm(P))


@dataclass(frozen=True)
class DistanceSweepReport:
    tau: float
    eps: float
    norm_threshold: float
    checked: int
    violations: tuple
    best_exponent: float          # most negative observed log Dist / log ||P||

    @property
    def passed(self) -> bool:
        return not self.violations


def projective_distance_sweep(xi: float, tau: float, eps: float, p_max: int,
                      norm_threshold: float = 100.0) -> DistanceSweepReport:
    """Dist(P, F) >= ||P||^(-1-1/tau-eps) for F = span((1, xi)) in R^2,
    over integer P with first coordinate up to p_max.

    The conclusion is asymptotic ("||P|| sufficiently large in terms of
    eps"); ``norm_threshold`` is the recorded burn-in below which points
    are not asserted.  For the golden ratio at eps = 0.2 the early
    convergents genuinely dip under the bound up to ||P|| ~ 55.

    For each p only the few q nearest to p*xi can challenge the bound
    (any other q makes Dist order one while the right side shrinks), so
    the sweep is p in [1, p_max] times q in round(p*xi) +- 2.  The
    vertical line p = 0 is not swept: Dist there is the constant
    1/sqrt(1+xi^2), which the decaying right side falls below for large
    ||P||.  Vectorized; float64 is ample at desk scale.
    """
    expo = -1 - 1 / tau - eps
    scale = math.sqrt(1 + xi * xi)
    violations = []
    checked = 0
    block = 1_000_000
    best = 0.0
    for start in range(1, p_max + 1, block):
        p = np.arange(start, min(start + block, p_max + 1), dtype=np.float64)
        qc = np.rint(p * xi)
        for dq in (-2.0, -1.0, 0.0, 1.0, 2.0):
            q = qc + dq
            u = np.abs(p * xi - q) / scale
            norm = np.hypot(p, q)
            dist = u / norm
            rhs = norm ** expo
            mask = (norm >= norm_threshold) & (dist > 0)
            checked += int(mask.sum())
            bad = mask & (dist < rhs)
            if bad.any():
                for idx in np.nonzero(bad)[0][:20]:
                    violations.append((int(p[idx]), int(q[idx]), float(dist[idx]), float(rhs[idx])))
            with np.errstate(divide="ignore"):
                ex = np.where(mask, np.log(dist) / np.log(norm), 0.0)
            m = float(ex.min()) if mask.any() else 0.0
            best = min(best, m)
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
    compared against d - k - sum tau.  Exponents of a row with q_n = 1, and
    the fitted exponent of fewer than two rows, are undefined and None.
    """
    U = [list(map(int, u)) for u in subspace_basis]
    d = len(U)
    k = len(points)
    if not 1 <= k <= d:
        raise ValueError("need 1 <= number of points <= dim F")
    E = np.asarray(points, dtype=float)
    hypothesis_failures = []
    rows_out = []
    logs = []
    for idx, forms in enumerate(forms_per_n):
        n = idx + 1
        L = [list(map(int, f)) for f in forms]
        p = len(L[0])
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
        Larr = np.asarray(L, dtype=float)
        smalls = np.abs(Larr @ E.T)      # p x k matrix |L^t(e_j)|
        bnd = math.lgamma(d + 1)
        for j in range(k):
            bnd += math.log(max(float(smalls[:, j].max()), 1e-300))
        extra = math.log(max(1.0, float(np.abs(Larr).max()))) + math.log(p + 1)
        bnd += (d - k) * extra
        q = qseq[idx]
        lq = math.log(q)
        if lq > 0:
            rows_out.append((n, det, math.log(abs(det)) / lq if det else float("-inf"),
                             bnd / lq))
        else:                            # q_n = 1: no exponent is defined
            rows_out.append((n, det, None, None))
        logs.append((lq, bnd))
    if len(logs) >= 2:
        xs = np.array([x for x, _ in logs])
        ys = np.array([y for _, y in logs])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = None
    return SiegelReport(d=d, k=k, tau_sum=float(sum(taus)),
                        rows_=tuple(rows_out),
                        hypothesis_failures=tuple(hypothesis_failures),
                        bound_slope=slope,
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
                          volume_cap: int = 10_000_000) -> ConvexBodyReport:
    """Enumerate integer P = sum lambda_j e_j + u with |lambda_j| <= Q_n^(tau_j - eps)
    and ||u|| <= Q_n^(-1-eps); only the origin may survive.

    The integer bounding box follows from ||P|| <= sum |lambda_j| ||e_j|| + 1.
    Capped at p <= 6 and ``volume_cap`` lattice points.
    """
    E = np.asarray(points, dtype=float)
    k, p = E.shape
    if p > 6:
        raise ValueError("enumeration capped at p <= 6")
    lam_caps = [qn ** (t - eps) for t in taus]
    u_cap = qn ** (-1 - eps)
    B = int(math.floor(sum(c * np.linalg.norm(E[j]) for j, c in enumerate(lam_caps)) + 1))
    total = (2 * B + 1) ** p
    if total > volume_cap:
        raise ValueError(f"box volume {total} exceeds cap {volume_cap}")
    gram = E @ E.T
    survivors = []
    ranges = [np.arange(-B, B + 1)] * p
    grid = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, p).astype(float)
    lam = np.linalg.solve(gram, (grid @ E.T).T).T
    proj = lam @ E
    u = grid - proj
    unorm = np.linalg.norm(u, axis=1)
    ok_lam = np.all(np.abs(lam) <= np.asarray(lam_caps)[None, :], axis=1)
    inside = ok_lam & (unorm <= u_cap)
    nz = inside & np.any(grid != 0, axis=1)
    for idx in np.nonzero(nz)[0][:20]:
        survivors.append(tuple(int(x) for x in grid[idx]))
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
    identity_samples: tuple

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
    -sum a_j xi_j (any other a_0 leaves a gap >= 1/2 > Q^(-1-eps)).  For a
    sample of candidates the direct-proof identity

        |l_{k+1,n}| |a_0 + sum a_j xi_j|
            = |sum_j a_j (l_{k+1,n} xi_j - l_{j,n}) + l_{k+1,n} a_0 + sum_j a_j l_{j,n}|

    is replayed at the maximal n with Q_n |a_0 + sum a_j xi_j| < 1/2.
    """
    from mpmath import mp, mpf

    k = len(xis)
    # the residues |l_{k+1} xi - l_j| cancel to ~ 1/Q_n; evaluate them at a
    # precision covering the largest Q_n, never in double precision
    dps = 30 + int(math.log10(max(qseq))) * 2
    slopes = []
    hypo_ok = True
    with mp.workdps(dps):
        xs_mp = [mpf(x) for x in xis]       # strings/mpf keep full precision
        lx = np.log(np.asarray(qseq, dtype=float))
        for j in range(k):
            errs = []
            for idx in range(len(qseq)):
                l = forms[idx]
                errs.append(float(mp.log(abs(l[k] * xs_mp[j] - l[j]))))
            slope = float(np.polyfit(lx, np.asarray(errs), 1)[0])
            slopes.append(slope)
            if abs(slope + taus[j]) > slope_drift:
                hypo_ok = False
        threshold = mpf(Q) ** (-1 - eps)
        violations = []
        samples = []
        boxes = 0
        caps = [int(math.floor(Q ** t)) for t in taus]
        for avec in _box_iter(caps):
            if not any(avec):
                continue
            boxes += 1
            x = sum((a * x_ for a, x_ in zip(avec, xs_mp)), mpf(0))
            a0 = -int(mp.nint(x))
            for da in (0, -1, 1):
                v = abs((a0 + da) + x)
                if v < threshold:
                    violations.append(((a0 + da,) + tuple(avec), float(v)))
            if boxes % max(1, (2 * caps[0] + 1) // 3) == 0:
                v = abs(a0 + x)
                n_star = 0
                for idx, q in enumerate(qseq):
                    if q * v < mpf(1) / 2:
                        n_star = idx + 1
                if n_star:
                    l = forms[n_star - 1]
                    lhs = abs(l[k]) * v
                    rhs = abs(sum((a * (l[k] * xs_mp[j] - l[j]) for j, a in enumerate(avec)),
                                  mpf(0))
                              + l[k] * a0 + sum(a * l[j] for j, a in enumerate(avec)))
                    samples.append({"a": (a0,) + tuple(avec), "n": n_star,
                                    "lhs": float(lhs), "rhs": float(rhs),
                                    "gap": float(abs(lhs - rhs))})
    return TypeIIReport(k=k, Q=Q, eps=eps, hypothesis_ok=hypo_ok,
                        decay_slopes=tuple(slopes), taus=tuple(float(t) for t in taus),
                        boxes_checked=boxes, violations=tuple(violations),
                        identity_samples=tuple(samples[:8]))


def _box_iter(caps: Sequence[int]):
    if len(caps) == 1:
        for a in range(-caps[0], caps[0] + 1):
            yield (a,)
        return
    for a in range(-caps[0], caps[0] + 1):
        for rest in _box_iter(caps[1:]):
            yield (a,) + rest
