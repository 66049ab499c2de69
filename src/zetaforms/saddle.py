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
to log(tau-c) - i pi.  With f0 = f - tau f':

    log eps   = Re f0(mu1 + i0)        (growth rate of the plain sums)
    log eps'' = Re f0(tau0)            (growth rate of the derived sums)
    omega     = Im f0(tau0)            (oscillation frequency)
    phi       = -arg f''(tau0)/2 + arg g(tau0)   (oscillation phase)

with g(tau) = (tau+c)^{3/2} (c-tau)^{3/2} / ((tau+1) (tau-1))^{(a+3)/2}.

Everything is evaluated by powering factored forms; the polynomial is
never expanded.  Root certificates (bracket or Newton trace plus scaled
residual) are recorded with each root, and a root whose residual is not
small at the working precision is refused with ArithmeticError.  With the
default r = r_of_a(a) the roots certify through a = 1e16 + 1; from about
1e17 the Newton polish of mu1 stalls short of the root and is refused.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpf, mpc


def default_dps(a: int) -> int:
    """Working precision scaling with a; root gaps shrink as a grows."""
    return max(60, 30 + 10 * len(str(a)) + 30)


def nu_of(a: int) -> mpf:
    """exp(-exp(cbrt(log a))); the asymptotic proximity scale of the roots."""
    return mp.exp(-mp.exp(mp.cbrt(mp.log(a))))


def r_of_a(a: int) -> int:
    """max(1, floor(a exp(-sqrt(log a)))), clamped so 6r <= a."""
    if a < 3 or a % 2 == 0:
        raise ValueError("need odd a >= 3")
    with mp.workdps(50):
        raw = int(mp.floor(a * mp.exp(-mp.sqrt(mp.log(a)))))
    return max(1, min(raw, a // 6) if a >= 6 else 1)


@dataclass(frozen=True)
class SaddlePlane:
    """Cut-plane context: cuts along (-inf, 1] and [2r+1, +inf).

    Principal logarithms give the real-on-(1, c) determination; points on
    [c, +inf) must be tagged bank="upper" and use log(c - tau) =
    log(tau - c) - i pi.
    """

    a: int
    r: int

    def __post_init__(self):
        if self.a % 2 == 0 or self.a < 1:
            raise ValueError("a must be odd and positive")
        if 6 * self.r > self.a:
            raise ValueError("need 6r <= a")

    @property
    def c(self) -> int:
        return 2 * self.r + 1

    def _check_point(self, tau, bank):
        im = mp.im(tau)
        re = mp.re(tau)
        if im == 0:
            if re >= self.c:
                if bank != "upper":
                    raise ValueError(
                        f"tau={tau} lies on the cut [c, inf); pass bank='upper'")
            elif re <= 1:
                raise ValueError(f"tau={tau} lies on the cut (-inf, 1]")

    def _log_middle(self, tau, bank):
        # log(c - tau), continued onto the upper bank of [c, inf)
        if bank == "upper" and mp.im(tau) == 0 and mp.re(tau) > self.c:
            return mp.log(tau - self.c) - mpc(0, mp.pi)
        return mp.log(self.c - tau)

    def f(self, tau, bank: str | None = None):
        self._check_point(tau, bank)
        a, c = self.a, self.c
        return (3 * (tau + c) * mp.log(tau + c)
                + 3 * (c - tau) * self._log_middle(tau, bank)
                + (a + 3) * (tau - 1) * mp.log(tau - 1)
                - (a + 3) * (tau + 1) * mp.log(tau + 1)
                + 2 * (a - 6 * self.r) * mp.log(2))

    def f_prime(self, tau, bank: str | None = None):
        self._check_point(tau, bank)
        a, c = self.a, self.c
        return (3 * mp.log(tau + c) - 3 * self._log_middle(tau, bank)
                + (a + 3) * (mp.log(tau - 1) - mp.log(tau + 1)))

    def f_second(self, tau):
        a, c = self.a, self.c
        return (3 / (tau + c) + 3 / (c - tau)
                + (a + 3) / (tau - 1) - (a + 3) / (tau + 1))

    def f0(self, tau, bank: str | None = None):
        return self.f(tau, bank) - tau * self.f_prime(tau, bank)

    def g(self, tau):
        a, c = self.a, self.c
        return ((tau + c) ** mpf(1.5) * (c - tau) ** mpf(1.5)
                / ((tau + 1) ** (mpf(a + 3) / 2) * (tau - 1) ** (mpf(a + 3) / 2)))

    def g_arg(self, tau) -> mpf:
        """arg g(tau) via the angle sum, reduced to (-pi, pi]."""
        a, c = self.a, self.c
        raw = (mpf(3) / 2 * (mp.arg(tau + c) + mp.arg(c - tau))
               - mpf(a + 3) / 2 * (mp.arg(tau + 1) + mp.arg(tau - 1)))
        return reduce_angle(raw)


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


def q_eval(a: int, r: int, x):
    """Q(x) by powered factors; works for complex x and any a."""
    c = 2 * r + 1
    return (x + c) ** 3 * (x - 1) ** (a + 3) - (x - c) ** 3 * (x + 1) ** (a + 3)


def q_scaled_residual(a: int, r: int, x):
    """|Q(x)| relative to the larger of its two competing products."""
    c = 2 * r + 1
    A = (x + c) ** 3 * (x - 1) ** (a + 3)
    B = (x - c) ** 3 * (x + 1) ** (a + 3)
    scale = max(abs(A), abs(B))
    if scale == 0:
        return mpf(0)
    return abs(A - B) / scale


def _certify_root(name: str, resid, dps: int) -> None:
    """Refuse a root whose scaled residual is not below 10^-(dps/2).

    A converged Newton iterate leaves a residual near 10^-dps; anything
    above the half-precision mark means the iteration stopped short."""
    if not resid < mpf(10) ** (-(dps // 2)):
        raise ArithmeticError(f"{name} is not certified: scaled residual "
                              f"{mp.nstr(resid, 3)} at {dps} digits")


def _q_newton_step(a, r, x):
    c = 2 * r + 1
    A = (x + c) ** 3 * (x - 1) ** (a + 3)
    B = (x - c) ** 3 * (x + 1) ** (a + 3)
    Ap = A * (3 / (x + c) + (a + 3) / (x - 1))
    Bp = B * (3 / (x - c) + (a + 3) / (x + 1))
    return (A - B) / (Ap - Bp)


def find_mu1(a: int, r: int, dps: int | None = None) -> tuple[mpf, dict]:
    """Unique real root of Q above c = 2r+1, with a bracketing certificate.

    Q(c+) > 0 and Q -> -inf (the X^{a+5} coefficient is 12r - 2a < 0), so
    a geometric scan locates a sign change; bisection plus a Newton polish
    finish at working precision.
    """
    if 6 * r >= a:
        raise ValueError("need 6r < a for the sign change at infinity")
    dps = dps or default_dps(a)
    c = 2 * r + 1
    with mp.workdps(dps):
        d = mpf(1) / 1024
        expansions = 0
        while mp.sign(q_eval(a, r, c + d)) > 0:
            d *= 2
            expansions += 1
            if expansions > 120:
                raise ArithmeticError("no sign change of Q found above c")
        lo = c + d / 2 if expansions else mpf(c)
        hi = c + d
        bracket = (lo, hi)
        for _ in range(40):
            mid = (lo + hi) / 2
            if mp.sign(q_eval(a, r, mid)) > 0:
                lo = mid
            else:
                hi = mid
        x = (lo + hi) / 2
        trace = []
        for _ in range(200):
            step = _q_newton_step(a, r, x)
            x -= step
            trace.append(float(abs(step)))
            if abs(step) < mpf(10) ** (-(dps - 8)) * max(abs(x), 1):
                break
        resid = q_scaled_residual(a, r, x)
        cert = {
            "method": "bracket+newton",
            "bracket": [mp.nstr(bracket[0], 20), mp.nstr(bracket[1], 20)],
            "newton_steps": len(trace),
            "last_step": trace[-1] if trace else 0.0,
            "scaled_residual": mp.nstr(resid, 8),
            "dps": dps,
        }
        if not (x > c):
            raise ArithmeticError(f"mu1 search left the domain: {x}")
        _certify_root("mu1", resid, dps)
    return x, cert


def _tau0_initial_guess(a: int, r: int) -> mpc:
    """Damped fixed point of the phase equation 3 log z = h(c - z) - i pi,
    z = c - tau.  Converges toward the quadrant root for every scale of a;
    for very large a it lands in the regime where |tau0 - c| is tiny."""
    c = 2 * r + 1
    with mp.workdps(40):
        z = mpf("0.01") * mp.exp(mpc(0, -mp.pi / 3))
        for _ in range(220):
            tau = c - z
            h = 3 * mp.log(tau + c) + (a + 3) * (mp.log(tau - 1) - mp.log(tau + 1))
            znew = mp.exp((h - mpc(0, mp.pi)) / 3)
            z = (z + znew) / 2
        return mpc(c - z)


def find_tau0(a: int, r: int, dps: int | None = None) -> tuple[mpc, dict]:
    """Unique root of Q with Re > 0, Im > 0, with a Newton certificate.

    Falls back to an argument-principle rectangle subdivision if Newton
    leaves the quadrant.
    """
    dps = dps or default_dps(a)
    with mp.workdps(dps):
        guess = x = _tau0_initial_guess(a, r)
        trace = []
        ok = True
        for _ in range(400):
            step = _q_newton_step(a, r, x)
            x -= step
            trace.append(float(abs(step)))
            if mp.re(x) <= 0 or mp.im(x) <= 0:
                ok = False
                break
            if abs(step) < mpf(10) ** (-(dps - 8)) * max(abs(x), 1):
                break
        if not ok:
            x = _tau0_by_subdivision(a, r, dps)
            for _ in range(400):
                step = _q_newton_step(a, r, x)
                x -= step
                trace.append(float(abs(step)))
                if abs(step) < mpf(10) ** (-(dps - 8)) * max(abs(x), 1):
                    break
        if mp.re(x) <= 0 or mp.im(x) <= 0:
            raise ArithmeticError(f"tau0 search left the quadrant: {x}")
        resid = q_scaled_residual(a, r, x)
        cert = {
            "method": "fixed-point-init+newton" + ("" if ok else "+subdivision"),
            "initial_guess": mp.nstr(guess, 20),
            "newton_steps": len(trace),
            "last_step": trace[-1] if trace else 0.0,
            "scaled_residual": mp.nstr(resid, 8),
            "dps": dps,
        }
        _certify_root("tau0", resid, dps)
    return x, cert


def _winding_number(a, r, corners, samples_per_edge=256) -> int:
    total = mpf(0)
    prev_arg = None
    pts = []
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        for k in range(samples_per_edge):
            pts.append(z0 + (z1 - z0) * mpf(k) / samples_per_edge)
    pts.append(pts[0])
    for p in pts:
        v = q_eval(a, r, p)
        cur = mp.arg(v)
        if prev_arg is not None:
            d = cur - prev_arg
            while d > mp.pi:
                d -= 2 * mp.pi
            while d <= -mp.pi:
                d += 2 * mp.pi
            total += d
        prev_arg = cur
    return int(mp.nint(total / (2 * mp.pi)))


def _tau0_by_subdivision(a, r, dps) -> mpc:
    """Rectangle subdivision on the quadrant using the argument principle."""
    c = 2 * r + 1
    lo_re, hi_re = mpf(1) / 4, mpf(2 * c + 2)
    lo_im, hi_im = mpf(1) / 1024, mpf(c + 1)
    for _ in range(60):
        if hi_re - lo_re < mpf(10) ** -6 and hi_im - lo_im < mpf(10) ** -6:
            break
        mid_re = (lo_re + hi_re) / 2
        mid_im = (lo_im + hi_im) / 2
        found = False
        for (r0, r1, i0, i1) in (
            (lo_re, mid_re, lo_im, mid_im), (mid_re, hi_re, lo_im, mid_im),
            (lo_re, mid_re, mid_im, hi_im), (mid_re, hi_re, mid_im, hi_im),
        ):
            corners = [mpc(r0, i0), mpc(r1, i0), mpc(r1, i1), mpc(r0, i1)]
            if _winding_number(a, r, corners) >= 1:
                lo_re, hi_re, lo_im, hi_im = r0, r1, i0, i1
                found = True
                break
        if not found:
            break
    return mpc((lo_re + hi_re) / 2, (lo_im + hi_im) / 2)


@dataclass(frozen=True)
class SaddleData:
    a: int
    r: int
    mu1: mpf
    tau0: mpc
    log_eps_a: mpf
    log_eps_pp_a: mpf
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
    def eps_a(self) -> mpf:
        return mp.exp(self.log_eps_a)

    @property
    def eps_pp_a(self) -> mpf:
        return mp.exp(self.log_eps_pp_a)

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

    Raises ArithmeticError when either root fails its certificate."""
    dps = dps or default_dps(a)
    plane = SaddlePlane(a=a, r=r)
    mu1, cert_mu = find_mu1(a, r, dps)
    tau0, cert_tau = find_tau0(a, r, dps)
    c = plane.c
    with mp.workdps(dps):
        f0_mu = plane.f0(mu1, bank="upper")
        log_eps = mp.re(f0_mu)
        f_t = plane.f(tau0)
        fp_t = plane.f_prime(tau0)
        f0_t = f_t - tau0 * fp_t
        log_eps_pp = mp.re(f0_t)
        omega = mp.im(f0_t)
        fpp = plane.f_second(tau0)
        phi = reduce_angle(-mp.arg(fpp) / 2 + plane.g_arg(tau0))
        alpha_p = mp.arg(tau0 - 1)
        alpha_m = mp.arg(tau0 + 1)
        beta_p = -mp.arg(c - tau0)
        beta_m = mp.arg(tau0 + c)
        identity_residual = 3 * (beta_m + beta_p) + (a + 3) * (alpha_p - alpha_m) - mp.pi
        fp_diag = abs(fp_t - mpc(0, mp.pi))
        data = SaddleData(
            a=a, r=r, mu1=mu1, tau0=tau0,
            log_eps_a=log_eps, log_eps_pp_a=log_eps_pp,
            omega_a=omega, phi_a=phi,
            alpha_plus=alpha_p, alpha_minus=alpha_m,
            beta_plus=beta_p, beta_minus=beta_m,
            nu_a=nu_of(a),
            angle_identity_residual=identity_residual,
            fprime_tau0_minus_ipi=fp_diag,
            mu1_residual=q_scaled_residual(a, r, mu1),
            tau0_residual=q_scaled_residual(a, r, tau0),
            dps=dps,
            certificates={"mu1": cert_mu, "tau0": cert_tau},
        )
    return data


def check_assumptions(a: int, r: int, data: SaddleData,
                      angle_tol: float = 1e-3,
                      identity_tol: float = 1e-20) -> dict:
    """Report on the analytic side conditions behind the oscillation law.

    (1) mu1 within the explicit window above c;
    (2) phi away from pi/2 mod pi and omega away from 0 mod pi;
    (3) the angle identity 3(b- + b+) + (a+3)(a+ - a-) = pi.

    Also reports the root-proximity diagnostics mu1 - c vs nu(a) and
    |tau0 - c| < |mu1 - c|.  Proximity to nu(a) is a large-a asymptotic
    and routinely fails at accessible a; it is reported, never asserted.
    """
    c = 2 * r + 1
    with mp.workdps(data.dps):
        window = min(mpf(3 * r * (r + 1)) / (2 * (a + 3)),
                     mpf(r * (r + 1)) / (3 * (2 * r + 1)))
        cond1_pass = bool(data.mu1 <= c + window)
        phi_dist = angle_distance(data.phi_a, mp.pi / 2, mp.pi)
        omega_dist = angle_distance(data.omega_a, 0, mp.pi)
        cond2_pass = bool(phi_dist > angle_tol and omega_dist > angle_tol)
        cond3_pass = bool(abs(data.angle_identity_residual) < identity_tol)
        mu_gap = data.mu1 - c
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
                "threshold": angle_tol,
                "pass": cond2_pass,
            },
            "cond3_angle_identity": {
                "residual": mp.nstr(abs(data.angle_identity_residual), 8),
                "tolerance": identity_tol,
                "pass": cond3_pass,
            },
            "proximity_diagnostics": {
                "nu_a": mp.nstr(data.nu_a, 8),
                "mu1_minus_c_below_nu": bool(mu_gap < data.nu_a),
                "tau0_closer_than_mu1": bool(abs(data.tau0 - c) < mu_gap),
                "note": "nu-proximity holds only for very large a; reported, not asserted",
            },
            "all_pass": cond1_pass and cond2_pass and cond3_pass,
        }
    return report
