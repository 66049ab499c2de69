"""Independent reference implementations that only the tests use.

Dense polynomials over the rationals, rising factorials, exact power
sums, the product form of the saddle polynomial Q with an
argument-principle root count, the permutation product inequality,
Gauss-Jordan elimination in Fraction arithmetic, the brute-force float
sweep of the projective distance, direct summation in mpf, Borwein's
zeta series summed for one exponent at a time, the Laurent tail built
from linear factors and divided in 1/t, exact Bernoulli numbers,
an Euler-Maclaurin expansion built term by term, and the partial-fraction
table and zeta forms accumulated in reduced Fractions, with the JSON
readers of tables and forms: slow, transparent routes that the package's
own algorithms are checked against.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import Callable, Iterable, Sequence

import mpmath
from mpmath import mp, mpf

from zetaforms import highprec
from zetaforms.criterion import EpsTable, PermutationProductReport
from zetaforms.exact_kernel import binomial, harmonic_prefixes, lcm_upto
from zetaforms.linear_forms import (DOUBLE_DERIVED, PLAIN, FormSpec, PartialFractionTable,
                                    ZetaLinearForm, build_summand, spec_json)


def pochhammer(alpha, k: int) -> Fraction:
    """Rising factorial alpha (alpha+1) ... (alpha+k-1); 1 for k = 0."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    alpha = Fraction(alpha)
    out = Fraction(1)
    for i in range(k):
        out *= alpha + i
    return out


def power_sum(i: int, m: int) -> Fraction:
    """H^(i)_m = sum_{t=1}^{m} t^{-i} as an exact rational; 0 for m = 0,
    read from the package's harmonic prefix kernel."""
    if m < 0:
        raise ValueError("power_sum needs m >= 0")
    L, [row] = harmonic_prefixes(range(i, i + 1), m, m)
    return Fraction(row[0], L ** i)


class QPolynomial:
    """Dense univariate polynomial over Fraction, lowest degree first.

    Coefficients are kept canonical (no trailing zeros).  The zero
    polynomial has degree -1, used as the distinguished sentinel.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls([])

    @classmethod
    def from_roots(cls, scale, roots: Sequence[tuple[Fraction | int, int]]) -> "QPolynomial":
        """scale * prod (X - root)^multiplicity."""
        out = cls([scale])
        for root, mult in roots:
            out = out * cls([-Fraction(root), 1]) ** mult
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not self or not other:
            return QPolynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return QPolynomial(out)

    def __pow__(self, e: int) -> "QPolynomial":
        if e < 0:
            raise ValueError("negative power")
        out = QPolynomial([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def derivative(self) -> "QPolynomial":
        return QPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, c) -> "QPolynomial":
        """Taylor shift: returns q with q(X) = p(X + c)."""
        c = Fraction(c)
        n = len(self.coeffs)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            pw = Fraction(1)
            for j in range(i, -1, -1):
                out[j] += a * binomial(i, i - j) * pw
                pw *= c
        return QPolynomial(out)

    def eval_exact(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)!r})"


def poly_eval_precise(p: QPolynomial, x):
    """Horner evaluation of p at a high-precision real/complex point, at the
    caller's working precision.  Each coefficient is converted exactly
    (num/den division is the only rounding)."""
    acc = mpf(0)
    for c in reversed(p.coeffs):
        acc = acc * x + mpf(c.numerator) / c.denominator
    return acc


def numerator_poly(summand) -> QPolynomial:
    """The numerator of R(t), expanded."""
    return QPolynomial.from_roots(summand.scale, summand.numerator_roots)


def q_expanded(a: int, r: int) -> QPolynomial:
    """Expanded coefficients of Q(X) = (X+c)^3 (X-1)^{a+3} - (X-c)^3 (X+1)^{a+3},
    c = 2r+1; only sensible for small a."""
    c = 2 * r + 1
    lhs = QPolynomial.from_roots(1, [(-c, 3), (1, a + 3)])
    rhs = QPolynomial.from_roots(1, [(c, 3), (-1, a + 3)])
    return lhs - rhs


def q_eval(a: int, r: int, x):
    """Q(x) by powered factors; works for complex x and any a."""
    c = 2 * r + 1
    return (x + c) ** 3 * (x - 1) ** (a + 3) - (x - c) ** 3 * (x + 1) ** (a + 3)


def q_scaled_residual(a: int, r: int, x):
    """|Q(x)| relative to the larger of its two competing products, from
    the product form (the package computes it from the root offsets)."""
    c = 2 * r + 1
    A = (x + c) ** 3 * (x - 1) ** (a + 3)
    B = (x - c) ** 3 * (x + 1) ** (a + 3)
    scale = max(abs(A), abs(B))
    if scale == 0:
        return mpf(0)
    return abs(A - B) / scale


def q_prime(a: int, r: int, x):
    """Q'(x) by powered factors."""
    c = 2 * r + 1
    A = (x + c) ** 3 * (x - 1) ** (a + 3)
    B = (x - c) ** 3 * (x + 1) ** (a + 3)
    return A * (3 / (x + c) + (a + 3) / (x - 1)) - B * (3 / (x - c) + (a + 3) / (x + 1))


def argument_principle_count(f: Callable, df: Callable, corners: Sequence,
                             samples: int = 64, max_depth: int = 60) -> int:
    """Zeros of the analytic f (derivative df) inside the polygon with these
    corners (counterclockwise), as the winding number of f along its
    boundary.

    Each edge starts from `samples` pieces.  A piece's turn of arg f is
    read off the principal argument of f(end) / f(start).  It is accepted
    when that turn is at most pi/4 and the piece's length times |f'/f| at
    either end is at most pi/4, and is halved otherwise.  For a polynomial
    |f'/f| = |sum 1/(z - root)| grows near every root, so a root close to
    a piece forces it to be halved; near a logarithmic singularity the
    ends do not bound the turn, so f should be a polynomial.  Raises
    ArithmeticError when f vanishes on the boundary or a piece cannot be
    resolved."""
    def point(z):
        v = f(z)
        if v == 0:
            raise ArithmeticError(f"f vanishes on the boundary at {z}")
        return z, v, abs(df(z) / v)

    def turn(p0, p1, depth):
        d = mp.arg(p1[1] / p0[1])
        if abs(d) <= mp.pi / 4 and abs(p1[0] - p0[0]) * max(p0[2], p1[2]) <= mp.pi / 4:
            return d
        if depth == max_depth:
            raise ArithmeticError(f"winding unresolved between {p0[0]} and {p1[0]}")
        pm = point((p0[0] + p1[0]) / 2)
        return turn(p0, pm, depth + 1) + turn(pm, p1, depth + 1)

    total = mpf(0)
    for i, z0 in enumerate(corners):
        z1 = corners[(i + 1) % len(corners)]
        pts = [point(z0 + (z1 - z0) * mpf(k) / samples) for k in range(samples + 1)]
        total += sum(turn(p0, p1, 0) for p0, p1 in zip(pts, pts[1:]))
    count = total / (2 * mp.pi)
    if abs(count - mp.nint(count)) > mpf(1) / 8:
        raise ArithmeticError(f"winding number {count} is not near an integer")
    return int(mp.nint(count))


def permutation_product_oracle(table: EpsTable, phi: Callable[[int], int], n: int,
                               k: int) -> PermutationProductReport:
    """criterion.permutation_product_check computed entry by entry in
    Fraction arithmetic: the hypothesis loop, then every sigma in S_k."""
    if k != table.k:
        raise ValueError("k mismatch with the table")
    eta = Fraction(1, math.factorial(k + 1))
    ns = table.support()
    viol = []
    for m in ns:
        try:
            cut = phi(m)
        except IndexError:
            continue
        for mpr in ns:
            if mpr < cut:
                continue
            for i in range(1, k):
                lhs = table.value(i, mpr) * table.value(i + 1, m)
                rhs = eta * table.value(i, m) * table.value(i + 1, mpr)
                if lhs > rhs:
                    viol.append({"i": i, "n": m, "n_prime": mpr})
    iterates = [n]
    for _ in range(k - 1):
        iterates.append(phi(iterates[-1]))
    diag = Fraction(1)
    for j in range(1, k + 1):
        diag *= table.value(j, iterates[j - 1])
    rows = []
    for sigma in permutations(range(1, k + 1)):
        eta_sigma = Fraction(1) if sigma == tuple(range(1, k + 1)) else eta
        lhs = Fraction(1)
        for j in range(1, k + 1):
            lhs *= table.value(j, iterates[sigma[j - 1] - 1])
        rows.append((sigma, lhs <= eta_sigma * diag, eta_sigma))
    return PermutationProductReport(
        k=k, n=n,
        hypothesis_ok=not viol,
        hypothesis_violations=tuple(viol),
        rows=tuple(rows),
        conclusion_holds=all(ok for _sigma, ok, _eta in rows),
    )


def row_echelon(mat: list[list[Fraction]]) -> tuple[int, list[int]]:
    """In-place reduced echelon form over Fraction; returns (rank, pivot
    column list)."""
    if not mat:
        return 0, []
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def select_independent_rows(R: Sequence[Sequence[int]], d: int) -> list[int] | None:
    """Greedy in-order choice of d rows, each independent of those chosen
    before it, by a fresh Fraction rank per candidate; None if fewer than
    d are independent."""
    chosen: list[int] = []
    for t in range(len(R)):
        cand = [[Fraction(x) for x in R[i]] for i in chosen + [t]]
        if row_echelon(cand)[0] == len(cand):
            chosen.append(t)
            if len(chosen) == d:
                return chosen
    return None


def cofactor_det(mat: Sequence[Sequence[int]]) -> int:
    """Determinant by cofactor expansion along the first row; 1 for 0 x 0."""
    if not mat:
        return 1
    return sum((-1) ** j * x * cofactor_det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j, x in enumerate(mat[0]) if x)


def distance_sweep_brute(xi: float, tau: float, eps: float, p_max: int,
                         norm_threshold: float = 100.0) -> tuple[list, int, float]:
    """The float sweep of Dist(P, F) >= ||P||^(-1-1/tau-eps), F = span((1, xi)):
    every p in [1, p_max] with q in round(p xi) +- 2, points of norm at
    least ``norm_threshold`` and Dist > 0 asserted.  Returns every
    violating (p, q) in order of p, the number of asserted points and the
    least log Dist / log ||P|| among them (0 if none)."""
    expo = -1 - 1 / tau - eps
    scale = math.sqrt(1 + xi * xi)
    violations = []
    checked = 0
    best = 0.0
    for p in range(1, p_max + 1):
        qc = round(p * xi)
        for q in range(qc - 2, qc + 3):
            norm = math.hypot(p, q)
            dist = abs(p * xi - q) / scale / norm
            if norm < norm_threshold or dist <= 0:
                continue
            checked += 1
            if dist < norm ** expo:
                violations.append((p, q))
            if norm > 1:
                best = min(best, math.log(dist) / math.log(norm))
    return violations, checked, best


def direct_sum_mpf(spec: FormSpec, kind: str, t_start: int, t_stop: int) -> mpf:
    """sum of the summand (plain) or of (1/2) R'' over t in [t_start, t_stop)
    in mpf arithmetic at the caller's working precision: the term advanced
    by its exact ratio, L = R'/R and L' kept as running pole sums."""
    a, r, n = spec.a, spec.r, spec.n
    if t_stop <= t_start:
        return mpf(0)
    t = t_start
    Rt_frac = build_summand(spec).eval_exact(t)
    Rt = mpf(Rt_frac.numerator) / mpf(Rt_frac.denominator)
    derived = kind == DOUBLE_DERIVED
    c = (2 * r + 1) * n
    if derived:
        S = (sum(1 / mpf(t - root) for root in range(n + 1, c + 1))
             + sum(1 / mpf(t + n + 1 + k) for k in range(2 * r * n)))
        T = (sum(1 / mpf(t - root) ** 2 for root in range(n + 1, c + 1))
             + sum(1 / mpf(t + n + 1 + k) ** 2 for k in range(2 * r * n)))
        Sw = sum(1 / mpf(t - m) for m in range(-n, n + 1))
        Tw = sum(1 / mpf(t - m) ** 2 for m in range(-n, n + 1))
    acc = mpf(0)
    while t < t_stop:
        p, q, u, v = t - n, t + n + 1, t - c, t + c + 1
        if derived:
            L = 3 * S - a * Sw
            acc += Rt * (L * L - 3 * T + a * Tw)
            ep, eq, eu, ev = 1 / mpf(p), 1 / mpf(q), 1 / mpf(u), 1 / mpf(v)
            S += ep - eu + ev - eq
            Sw += eq - ep
            ep, eq, eu, ev = ep * ep, eq * eq, eu * eu, ev * ev
            T += ep - eu + ev - eq
            Tw += eq - ep
        else:
            acc += Rt
        Rt = Rt * (p ** (a + 3) * v ** 3) / (u ** 3 * q ** (a + 3))
        t += 1
    return acc / 2 if derived else acc


def zeta_borwein_per_s(s: int, digits: int) -> tuple[int, int]:
    """(z, B) of ``highprec._zeta_borwein`` for the one exponent s, from
    its own pass over k: every quotient floor((d_n - d_k) 2^g / (k+1)^s)
    is one division, and the pass stops at the first zero quotient.  The
    term count n, the scale 2^g and the final division are the kernel's."""
    n = math.ceil((digits * math.log(10) + math.log(6)) / math.log(3 + math.sqrt(8)))
    d = highprec._borwein_d(n)
    top = d[n]
    g = (1000 * n).bit_length()
    total = 0
    for k in range(n):
        q = ((top - d[k]) << g) // (k + 1) ** s
        if not q:
            break
        total += -q if k & 1 else q
    p = max(0, math.ceil((digits + 4) * math.log2(10)) - g)
    return (total << (s - 1 + p)) // (top * ((1 << (s - 1)) - 1)), g + p


class LinearFactorTail(highprec.LaurentTail):
    """``highprec.LaurentTail`` built and divided in x = 1/t: P(t) and
    Q(t) multiplied out one linear factor (t - root) at a time, reversed
    into p(x) = x^degP P(1/t) and q(x) = prod_{|j| <= n} (1 - j x)^a, and
    p/q divided one step in x per coefficient, the zeros at odd s - D
    included.  It assumes no symmetry of the roots, and holds the residual
    in x as it is, so the certified bound the package reads from it is the
    reference for the build and the division in y = x^2."""

    def __init__(self, summand):
        self.summand = summand
        self.n = summand.spec.n
        self.min_t = 2 * self.n + 2

        def expand(scale, roots):
            out = [scale]
            for root, mult in roots:
                for _ in range(mult):
                    nxt = [0] * (len(out) + 1)
                    for i, c in enumerate(out):
                        nxt[i] -= root * c
                        nxt[i + 1] += c
                    out = nxt
            return out

        P = expand(summand.scale, summand.numerator_roots)
        Q = expand(1, [(j, summand.pole_order) for j in summand.poles])
        self.degQ = len(Q) - 1
        self.D = self.degQ - (len(P) - 1)
        self._q_x = Q[::-1]
        self._q_tail = self._q_x[1:]
        self.b = []
        self._e = P[::-1] + [0] * (self.D - 1)

    def extend(self, K: int) -> None:
        for _ in range(len(self.b), K):
            self.b.append(self._e[0])
            self._e = self._step(self._e)

    def _held_residual(self) -> list[int]:
        return self._e


def bernoulli_exact(n: int) -> Fraction:
    """The Bernoulli number B_n as an exact fraction, from mpmath's
    ``bernfrac`` (a numerical value made exact by von Staudt-Clausen)."""
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


def em_at_per_term(s: int, X: int, tol: mpf) -> tuple[mpf, mpf | None]:
    """Euler-Maclaurin expansion of sum_{m >= X} m^{-s} at the point X,
    every term built on its own as B_2k/(2k)! (s)_{2k-1} X^{-s-2k+1} from
    ``mp.bernoulli`` and the exact (2k)!, at the caller's precision.

    Returns (value, remainder_bound) or (partial, None) if the correction
    terms bottom out above ``tol``.
    """
    Xf = mpf(X)
    acc = Xf ** (1 - s) / (s - 1) + Xf ** (-s) / 2
    poch = mpf(s)
    xpow = Xf ** (-s - 1)
    prev = None
    for k in range(1, 4001):
        term = mp.bernoulli(2 * k) / math.factorial(2 * k) * poch * xpow
        xpow /= Xf * Xf
        at = abs(term)
        if at < tol:
            return acc, at
        if prev is not None and at >= prev:
            return acc, None
        acc += term
        prev = at
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return acc, None


def fraction_table(spec: FormSpec) -> dict[tuple[int, int], Fraction]:
    """Partial fractions c_{i,j} by the log-derivative recurrence of
    ``linear_forms.partial_fractions``, each coefficient reduced as its own
    Fraction over (n-j)!^a (n+j)!^a L^k k!."""
    a, r, n = spec.a, spec.r, spec.n
    w = (2 * r + 1) * n
    scale = math.factorial(2 * n) ** (a - 6 * r)
    coeffs: dict[tuple[int, int], Fraction] = {}
    for j in range(-n, n + 1):
        g = []
        for p in range(1, a):
            L, [P] = harmonic_prefixes(range(p, p + 1), 0, w + n)
            positive = 3 * (P[j + w] - P[j + n]) - a * P[j + n]
            negative = 3 * (P[w - j] - P[n - j]) - a * P[n - j]
            g.append((1 if p % 2 else -1) * positive - negative)
        roots = math.perm(w + j, w - n) * math.perm(w - j, w - n)
        f0num = (-1) ** (n - j) * scale * roots ** 3
        f0den = (math.factorial(n - j) * math.factorial(n + j)) ** a
        hh = [1]
        for s in range(a - 1):
            hh.append(sum(hh[i] * g[s - i] * math.factorial(s) // math.factorial(i)
                          for i in range(s + 1)))
        for k in range(a):
            coeffs[(a - k, j)] = Fraction(f0num * hh[k], f0den * L ** k * math.factorial(k))
    return coeffs


def fraction_forms(spec: FormSpec) -> tuple[ZetaLinearForm, ZetaLinearForm]:
    """Plain and double-derived forms from ``fraction_table``: column sums
    and l_0, l''_0 = -sum_{i,j} c_{i,j} m_i H^(i+shift)_{n-j} accumulated
    one Fraction at a time."""
    a, n = spec.a, spec.n
    coeffs = fraction_table(spec)
    zc = {i: sum(coeffs[(i, j)] for j in range(-n, n + 1)) for i in range(3, a + 1, 2)}
    forms = []
    for kind, shift in ((PLAIN, 0), (DOUBLE_DERIVED, 2)):
        const = Fraction(0)
        for i in range(1, a + 1):
            mult = binomial(i + 1, 2) if shift else 1
            for j in range(-n, n + 1):
                const -= coeffs[(i, j)] * mult * power_sum(i + shift, n - j)
        forms.append(ZetaLinearForm(spec=spec, kind=kind, constant=const, zeta_coeffs=dict(zc)))
    return forms[0], forms[1]


def _frac_from_json(d: dict) -> Fraction:
    return Fraction(int(d["num"]), int(d["den"]))


def table_to_json(table: PartialFractionTable) -> dict:
    """The canonical ``zetaforms/partial-fractions@1`` document of a table."""
    return {
        "schema": "zetaforms/partial-fractions@1",
        "spec": spec_json(table.spec),
        "coefficients": [
            {"i": i, "j": j, "num": str(c.numerator), "den": str(c.denominator)}
            for (i, j), c in sorted(table.coeffs.items())
        ],
    }


def table_from_json(doc: dict) -> PartialFractionTable:
    """Integer numerators over D_k = L^k k! from the reduced
    coefficients; raises ValueError if one is not such a numerator."""
    spec = FormSpec(**doc["spec"])
    a, r, n = spec.a, spec.r, spec.n
    coeffs = {(e["i"], e["j"]): _frac_from_json(e) for e in doc["coefficients"]}
    L = lcm_upto((2 * r + 2) * n)
    den = [L ** k * math.factorial(k) for k in range(a)]
    num = []
    for k, d in enumerate(den):
        row = [coeffs[(a - k, j)] * d for j in range(-n, n + 1)]
        if any(x.denominator != 1 for x in row):
            raise ValueError(f"column {a - k} is not integral over D_{k}")
        num.append([x.numerator for x in row])
    return PartialFractionTable(spec=spec, num=num, den=den)


def form_from_json(doc: dict) -> ZetaLinearForm:
    spec = FormSpec(**doc["spec"])
    zc = {e["i"]: _frac_from_json(e["coefficient"]) for e in doc["zeta_coefficients"]}
    return ZetaLinearForm(spec=spec, kind=doc["kind"],
                          constant=_frac_from_json(doc["constant"]), zeta_coeffs=zc)
