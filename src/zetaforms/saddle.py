"""Asymptotic constants of the summand family via its phase function.

For parameters (a, r) put c = 2r + 1 and

    Q(X) = (X+c)^3 (X-1)^{a+3} - (X-c)^3 (X+1)^{a+3}.

Two roots drive the asymptotics: mu1, the unique real root above c, and
tau0, the unique root in the open upper-right quadrant.  On the plane cut
along (-inf, 1] and [c, +inf) the phase

    f(tau) = 3(tau+c) log(tau+c) + 3(c-tau) log(c-tau)
           + (a+3)(tau-1) log(tau-1) - (a+3)(tau+1) log(tau+1)
           + 2(a-6r) log 2

is real on (1, c); principal logarithm branches realize exactly that
determination.  On the upper bank of [c, +inf) the middle term continues
to log(tau-c) - i pi.  With

    f0 = f - tau f' = 3c (log(tau+c) + log(c-tau))
                      - (a+3) (log(tau-1) + log(tau+1)) + 2(a-6r) log 2:

    log eps   = Re f0(mu1 + i0)        (growth rate of the plain sums)
    log eps'' = Re f0(tau0)            (growth rate of the derived sums)
    omega     = Im f0(tau0)            (oscillation frequency)
    phi       = -arg f''(tau0)/2 + arg g(tau0)   (oscillation phase)

with g(tau) = (tau+c)^{3/2} (c-tau)^{3/2} / ((tau+1) (tau-1))^{(a+3)/2}.

Both roots solve one equation in offset coordinates.  Q = A - B with
A = (X+c)^3 (X-1)^{a+3} and B = (X-c)^3 (X+1)^{a+3}, so Q vanishes where
F = log B - log A does.  With mu1 = c + e^u and tau0 = c - e^w (F taken
on the branch F = i pi - f'(tau0)), one Newton iteration on the log
offset u or w finds either root from the closed-form small-offset start,
at any size of the offset, also where c + e^u rounds to c.  The offsets
are kept next to the roots, and the constants and branch angles are
evaluated from them.  The polynomial is never expanded.  Each root
carries a certificate (Newton trace plus the scaled residual
|A - B| / max(|A|, |B|), computed as |expm1(F)|), and a root whose
residual is not small at the working precision is refused with
ArithmeticError.  Every complex log1p is `_log1p`, which splits off
log1p(Re w) and takes the argument by atan2: mpmath's own forms
|1 + w|^2 exactly, whose mantissa spans the exponent gap down to
(Im w)^2, and Im w shrinks with the tau0 offset (to about 2^-3e7 at
a = 1e140+1), so that no a is out of reach.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpf, mpc


def default_dps(a: int) -> int:
    """Working precision scaling with a; root gaps shrink as a grows."""
    return 60 + 10 * len(str(a))


def nu_of(a: int) -> mpf:
    """exp(-exp(cbrt(log a))); the asymptotic proximity scale of the roots."""
    return mp.exp(-mp.exp(mp.cbrt(mp.log(a))))


def r_of_a(a: int) -> int:
    """max(1, floor(a exp(-sqrt(log a)))), clamped so 6r <= a.

    The product is evaluated at 20 digits past those of a (at least 50),
    so its floor is exact unless it lies that close to an integer."""
    if a < 3 or a % 2 == 0:
        raise ValueError("need odd a >= 3")
    with mp.workdps(max(50, len(str(a)) + 20)):
        raw = int(mp.floor(a * mp.exp(-mp.sqrt(mp.log(a)))))
    return max(1, min(raw, a // 6) if a >= 6 else 1)


def _phase(a: int, r: int, z, log_z):
    """f, f' and f0 = f - tau f' at tau = c - z, from the offset z and the
    branch log_z of log(c - tau); they stay accurate where c - z rounds to
    c."""
    c = 2 * r + 1
    lc, l1, l2 = mp.log(2 * c - z), mp.log(c - 1 - z), mp.log(c + 1 - z)
    k = 2 * (a - 6 * r) * mp.log(2)
    f = (3 * (2 * c - z) * lc + 3 * z * log_z
         + (a + 3) * ((c - 1 - z) * l1 - (c + 1 - z) * l2) + k)
    fp = 3 * lc - 3 * log_z + (a + 3) * (l1 - l2)
    return f, fp, 3 * c * (lc + log_z) - (a + 3) * (l1 + l2) + k


def _f_second(a: int, r: int, z):
    """f'' at tau = c - z."""
    c = 2 * r + 1
    return 3 / (2 * c - z) + 3 / z + (a + 3) * (1 / (c - 1 - z) - 1 / (c + 1 - z))


def reduce_angle(x) -> mpf:
    """Canonical representative in (-pi, pi]."""
    twopi = 2 * mp.pi
    y = x - twopi * mp.floor(x / twopi)
    if y > mp.pi:
        y -= twopi
    return y


def angle_distance(x, target, modulus) -> mpf:
    """min_k |x - target - k modulus|."""
    d = x - target
    d = d - modulus * mp.floor(d / modulus + mpf(1) / 2)
    return abs(d)


def _certify_root(name: str, resid, dps: int) -> None:
    """Refuse a root whose scaled residual is not below 10^-max(dps/2, 10).

    A converged Newton iterate leaves a residual near 10^-dps; anything
    above the half-precision mark means the iteration stopped short.  At
    a low dps that mark is too coarse to tell a root (at 1 digit it is
    1), so it is never above 10^-10."""
    if not resid < mpf(10) ** -max(dps // 2, 10):
        raise ArithmeticError(f"{name} is not certified: scaled residual "
                              f"{mp.nstr(resid, 3)} at {dps} digits")


_STEP_CAP = 200


def _log1p(w):
    """log(1 + w) on the principal branch for every w != -1; mp.log1p(w) if w is real.
    With u = 1 + Re w, y = Im w: M = max(|u|, |y|) > 0 as w != -1, t is the other over
    M, log|1 + w| = log M + l, l = log1p(t^2)/2, where log M = log1p(Re w) if M = u > 0,
    and arg(1 + w) = atan2(y, u).  Each step is one mpmath operation rounded at working
    precision, none formed exactly, so the cost ignores the exponent gap of Re w and Im w.
    As |t| <= 1 and a relative error e in u moves atan2 by |e sin(2 arg)|/2 <= |e arg|, the
    imaginary part is within 2 ulp, the real part within 8 ulp of |log M| + l (9 if u < 0)."""
    if not isinstance(w, mpc):
        return mp.log1p(w)
    y, u = w.imag, 1 + w.real
    if abs(y) > abs(u):
        log_m, t = mp.log(abs(y)), u / y
    else:
        log_m, t = (mp.log1p(w.real) if u > 0 else mp.log(-u)), y / u
    return mpc(log_m + mp.log1p(t * t) / 2, mp.atan2(y, u))


def _offset_equation(a: int, r: int, v, quadrant: bool):
    """z = c - X and F(v) = log B - log A at X = c + e^v (mu1) or c - e^v
    (tau0, on the branch F = i pi - f'(X)); e^F = B/A in both cases."""
    c = 2 * r + 1
    z = mp.exp(v) if quadrant else -mp.exp(v)
    F = 3 * v - 3 * mp.log(2 * c - z) + (a + 3) * _log1p(2 / (c - 1 - z))
    return z, (F + mpc(0, mp.pi) if quadrant else F)


def _scaled_residual(F):
    """|A - B| / max(|A|, |B|) from F = log B - log A."""
    return abs(mp.expm1(F if mp.re(F) <= 0 else -F))


def _log_offset_newton(a: int, r: int, dps: int, quadrant: bool) -> tuple:
    """Newton on F(v) = 0 for the log offset v of mu1 (quadrant False) or
    tau0 (quadrant True), from the closed-form small-offset solution
    v = log 2c - ((a+3)/3) log((c+1)/(c-1)) (minus i pi/3 for tau0).

    dF/dv = z f''(c - z) stays near 3 while the offset is small, so the
    iteration converges at any size of e^v.  It stops when the step falls
    below 10^-(dps-8) relative to v, or once the steps, already past half
    precision, stop shrinking (rounding noise).  Returns the root and its
    certificate, whose "offset" string reads back exactly at dps digits.
    """
    c = 2 * r + 1
    name = "tau0" if quadrant else "mu1"
    with mp.workdps(dps):
        v = mp.log(2 * c) - mpf(a + 3) / 3 * mp.log1p(mpf(2) / (c - 1))
        if quadrant:
            v = mpc(v, -mp.pi / 3)
        start = mp.exp(v)
        tol, half = mpf(10) ** (-(dps - 8)), mpf(10) ** (-(dps // 2))
        steps, last = 0, None
        while steps < _STEP_CAP:
            z, F = _offset_equation(a, r, v, quadrant)
            step = F / (z * _f_second(a, r, z))
            if last is not None and last < half and abs(step) >= last:
                break
            v -= step
            steps += 1
            last = abs(step)
            if last < tol * max(1, abs(v)):
                break
        z, F = _offset_equation(a, r, v, quadrant)
        offset = mp.exp(v)
        root = c - z
        resid = _scaled_residual(F)
        cert = {
            "method": "log-offset-newton",
            "initial_offset": mp.nstr(start, 20),
            "offset": mp.nstr(offset, dps + 3),
            "newton_steps": steps,
            "last_step": float(last) if last is not None else 0.0,
            "scaled_residual": mp.nstr(resid, 8),
            "dps": dps,
        }
        if quadrant and not (mp.re(root) > 0 and -mp.pi < mp.im(v) < 0):
            raise ArithmeticError(f"tau0 search left the quadrant: {root}")
        _certify_root(name, resid, dps)
    return root, cert


def find_mu1(a: int, r: int, dps: int | None = None) -> tuple[mpf, dict]:
    """Unique real root of Q above c = 2r+1, with a Newton certificate.

    Q(c+) > 0 and Q -> -inf (the X^{a+5} coefficient is 12r - 2a < 0), so
    the root exists; it is found as c + e^u by `_log_offset_newton`.  Where
    e^u is below the resolution of c the returned root rounds to c, and the
    certificate's "offset" holds e^u.
    """
    if 6 * r >= a:
        raise ValueError("need 6r < a for the sign change at infinity")
    return _log_offset_newton(a, r, dps or default_dps(a), quadrant=False)


def find_tau0(a: int, r: int, dps: int | None = None) -> tuple[mpc, dict]:
    """Unique root of Q with Re > 0, Im > 0, with a Newton certificate.

    Found as c - e^w with -pi < Im w < 0 by `_log_offset_newton`, on the
    branch f'(tau0) = i pi; the certificate's "offset" holds e^w = c - tau0.
    """
    return _log_offset_newton(a, r, dps or default_dps(a), quadrant=True)


@dataclass(frozen=True)
class SaddleData:
    a: int
    r: int
    mu1: mpf
    mu1_offset: mpf              # mu1 - c, kept since c + offset may round to c
    tau0: mpc
    tau0_offset: mpc             # c - tau0
    log_eps_a: mpf
    log_eps_pp_a: mpf
    log_eps_gap: mpf             # log eps - log eps'', > 0 when eps'' < eps
    omega_a: mpf
    phi_a: mpf
    alpha_plus: mpf
    alpha_minus: mpf
    beta_plus: mpf
    beta_minus: mpf
    nu_a: mpf
    angle_identity_residual: mpf
    fprime_tau0_minus_ipi: mpf
    mu1_residual: mpf
    tau0_residual: mpf
    dps: int
    certificates: dict = field(hash=False, default_factory=dict)

    @property
    def omega_signed(self) -> mpf:
        """Frequency of the signed oscillation law.

        The absolute-value law |S''_n| = eps''^n |cos(n omega + phi)| is
        invariant under shifting omega and phi by pi together, so it does
        not pin the sign of S''_n.  The summation index steps the phase
        by exp(f'(tau0)) = exp(i pi) = -1 per integer, which lands the
        signed law at (omega + pi, phi + pi); empirically sign(S''_n)
        tracks cos(n omega_signed + phi_signed) essentially always.
        """
        return reduce_angle(self.omega_a + mp.pi)

    @property
    def phi_signed(self) -> mpf:
        return reduce_angle(self.phi_a + mp.pi)


def compute_constants(a: int, r: int, dps: int | None = None) -> SaddleData:
    """All asymptotic constants for (a, r), with residual certificates.

    Everything is evaluated from the root offsets delta = mu1 - c and
    z = c - tau0 (log(c - tau), 3/(c - tau) and arg(c - tau) included), so
    the constants stay right where c + delta rounds to c.  Raises
    ValueError for an even or negative a or 6r > a, and ArithmeticError
    when either root fails its certificate."""
    if a % 2 == 0 or a < 1:
        raise ValueError("a must be odd and positive")
    if 6 * r > a:
        raise ValueError("need 6r <= a")
    dps = dps or default_dps(a)
    c = 2 * r + 1
    mu1, cert_mu = find_mu1(a, r, dps)
    tau0, cert_tau = find_tau0(a, r, dps)
    with mp.workdps(dps):
        delta = mpf(cert_mu["offset"])
        z = mp.mpmathify(cert_tau["offset"])
        log_delta, log_z = mp.log(delta), mp.log(z)
        # mu1 + i0 lies on the upper bank: log(c - mu1) = log delta - i pi
        log_eps = mp.re(_phase(a, r, -delta, log_delta - mpc(0, mp.pi))[2])
        _, fp_t, f0_t = _phase(a, r, z, log_z)
        log_eps_pp = mp.re(f0_t)
        # log eps - log eps'' from the root equations, so that its sign is
        # decided also where the two agree to working precision
        s = delta + z
        p, m, q = (mp.re(_log1p(s / (k - z))) for k in (2 * c, c - 1, c + 1))
        gap = 6 * c * p - (a + 3) * ((c + 1) * q - (c - 1) * m)
        omega = mp.im(f0_t)
        alpha_p = mp.arg(c - 1 - z)
        alpha_m = mp.arg(c + 1 - z)
        beta_p = -mp.im(log_z)
        beta_m = mp.arg(2 * c - z)
        # arg g(tau0) as the angle sum of its factors
        g_arg = mpf(3) / 2 * (beta_m - beta_p) - mpf(a + 3) / 2 * (alpha_m + alpha_p)
        phi = reduce_angle(-mp.arg(_f_second(a, r, z)) / 2 + g_arg)
        identity_residual = 3 * (beta_m + beta_p) + (a + 3) * (alpha_p - alpha_m) - mp.pi
        fp_diag = abs(fp_t - mpc(0, mp.pi))
        data = SaddleData(
            a=a, r=r, mu1=mu1, mu1_offset=delta, tau0=tau0, tau0_offset=z,
            log_eps_a=log_eps, log_eps_pp_a=log_eps_pp, log_eps_gap=gap,
            omega_a=omega, phi_a=phi,
            alpha_plus=alpha_p, alpha_minus=alpha_m,
            beta_plus=beta_p, beta_minus=beta_m,
            nu_a=nu_of(a),
            angle_identity_residual=identity_residual,
            fprime_tau0_minus_ipi=fp_diag,
            mu1_residual=_scaled_residual(_offset_equation(a, r, log_delta, False)[1]),
            tau0_residual=_scaled_residual(_offset_equation(a, r, log_z, True)[1]),
            dps=dps,
            certificates={"mu1": cert_mu, "tau0": cert_tau},
        )
    return data


_ANGLE_TOL = 1e-3          # least distance of phi, omega from the degenerate angles
_IDENTITY_TOL = 1e-20      # largest angle-identity residual passed


def check_assumptions(a: int, r: int, data: SaddleData) -> dict:
    """Report on the analytic side conditions behind the oscillation law.

    (1) mu1 within the explicit window above c;
    (2) phi away from pi/2 mod pi and omega away from 0 mod pi;
    (3) the angle identity 3(b- + b+) + (a+3)(a+ - a-) = pi.

    Also reports the root-proximity diagnostics mu1 - c vs nu(a) and
    |tau0 - c| < |mu1 - c|.  Proximity to nu(a) is a large-a asymptotic
    and routinely fails at accessible a; it is reported, never asserted.
    Both gaps are read from the root offsets.
    """
    with mp.workdps(data.dps):
        window = min(mpf(3 * r * (r + 1)) / (2 * (a + 3)),
                     mpf(r * (r + 1)) / (3 * (2 * r + 1)))
        mu_gap = data.mu1_offset
        cond1_pass = bool(mu_gap <= window)
        phi_dist = angle_distance(data.phi_a, mp.pi / 2, mp.pi)
        omega_dist = angle_distance(data.omega_a, 0, mp.pi)
        cond2_pass = bool(phi_dist > _ANGLE_TOL and omega_dist > _ANGLE_TOL)
        cond3_pass = bool(abs(data.angle_identity_residual) < _IDENTITY_TOL)
        report = {
            "a": a, "r": r,
            "cond1_mu1_window": {
                "mu1_minus_c": mp.nstr(mu_gap, 12),
                "window": mp.nstr(window, 12),
                "pass": cond1_pass,
            },
            "cond2_nondegenerate_angles": {
                "phi_distance_to_half_pi_mod_pi": mp.nstr(phi_dist, 12),
                "omega_distance_to_zero_mod_pi": mp.nstr(omega_dist, 12),
                "threshold": _ANGLE_TOL,
                "pass": cond2_pass,
            },
            "cond3_angle_identity": {
                "residual": mp.nstr(abs(data.angle_identity_residual), 8),
                "tolerance": _IDENTITY_TOL,
                "pass": cond3_pass,
            },
            "proximity_diagnostics": {
                "nu_a": mp.nstr(data.nu_a, 8),
                "mu1_minus_c_below_nu": bool(mu_gap < data.nu_a),
                "tau0_closer_than_mu1": bool(abs(data.tau0_offset) < mu_gap),
                "note": "nu-proximity holds only for very large a; reported, not asserted",
            },
            "all_pass": cond1_pass and cond2_pass and cond3_pass,
        }
    return report
