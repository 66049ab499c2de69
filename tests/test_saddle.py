import pytest
from mpmath import mp, mpf, mpc

from zetaforms import saddle
from zetaforms.saddle import (
    _f_second,
    _phase,
    angle_distance,
    check_assumptions,
    compute_constants,
    find_mu1,
    find_tau0,
    nu_of,
    r_of_a,
    reduce_angle,
)
from oracles import (
    argument_principle_count,
    poly_eval_precise,
    q_eval,
    q_expanded,
    q_prime,
    q_scaled_residual,
)


def test_q_at_special_points():
    with mp.workdps(40):
        assert q_eval(13, 2, mpf(5)) > 0            # Q(2r+1) > 0
        # Q(0) = 2 (2r+1)^3 for odd a
        assert q_eval(13, 2, mpf(0)) == 2 * 5 ** 3
        assert q_eval(7, 1, mpf(0)) == 2 * 27


def test_q_matches_expanded_polynomial():
    import random

    rng = random.Random(23)
    p = q_expanded(7, 1)
    with mp.workdps(60):
        for _ in range(20):
            x = mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
            direct = q_eval(7, 1, x)
            via_poly = poly_eval_precise(p, x)
            scale = max(1, abs(direct))
            assert abs(direct - via_poly) / scale < mpf(10) ** -45


def test_find_mu1_13_2():
    mu1, cert = find_mu1(13, 2)
    assert mu1 > 5
    with mp.workdps(80):
        assert q_scaled_residual(13, 2, mu1) < mpf(10) ** -30
    assert cert["newton_steps"] >= 1


def test_mu1_uniqueness_probe():
    # exactly one sign change on a geometric grid over (c, 2 mu1 - c)
    mu1, _ = find_mu1(13, 2)
    c = 5
    with mp.workdps(40):
        lo, hi = mpf(c) + mpf(10) ** -6, 2 * mu1 - c
        pts = [lo * (hi / lo) ** (mpf(i) / 400) for i in range(401)]
        signs = [mp.sign(q_eval(13, 2, x)) for x in pts]
        changes = sum(1 for s0, s1 in zip(signs, signs[1:]) if s0 * s1 < 0)
    assert changes == 1


def test_find_tau0_13_2():
    tau0, cert = find_tau0(13, 2)
    assert mp.re(tau0) > 0 and mp.im(tau0) > 0
    with mp.workdps(80):
        assert q_scaled_residual(13, 2, tau0) < mpf(10) ** -30
        # conjugate-root symmetry
        assert q_scaled_residual(13, 2, mp.conj(tau0)) < mpf(10) ** -30


def test_tau0_closer_to_c_than_mu1_at_1001():
    r = r_of_a(1001)
    mu1, _ = find_mu1(1001, r)
    tau0, _ = find_tau0(1001, r)
    c = 2 * r + 1
    assert abs(tau0 - c) < mu1 - c


def _phase_at(a, r, tau, upper_bank=False):
    """f, f' and f0 at tau = c - z on the branch compute_constants uses:
    the principal log(c - tau) on (1, c), log(tau - c) - i pi on the
    upper bank of [c, +inf)."""
    c = 2 * r + 1
    log_z = mp.log(tau - c) - mpc(0, mp.pi) if upper_bank else mp.log(c - tau)
    return _phase(a, r, c - tau, log_z)


def test_f_real_on_inner_interval_and_bank_rules():
    with mp.workdps(50):
        for x in (mpf(3) / 2, mpf(3), mpf("4.99")):
            assert abs(mp.im(_phase_at(13, 2, x)[0])) < mpf(10) ** -45
        # upper bank: Im f(tau + i0) = 3 (tau - c) pi
        for x in (mpf(6), mpf("11.5")):
            imf = mp.im(_phase_at(13, 2, x, upper_bank=True)[0])
            assert abs(imf - 3 * (x - 5) * mp.pi) < mpf(10) ** -40


def test_fprime_at_mu1_is_3_i_pi():
    mu1, _ = find_mu1(13, 2)
    with mp.workdps(60):
        v = _phase_at(13, 2, mu1, upper_bank=True)[1]
        assert abs(v - mpc(0, 3 * mp.pi)) < mpf(10) ** -40


def test_phase_at_mu1_from_the_offset_where_mu1_rounds_to_c():
    # at (1001, 1) mu1 - c is about 1.08e-100, below the resolution of
    # c = 3 at 100 digits; from the certified offset delta the upper-bank
    # phase still gives f'(mu1 + i0) = 3 i pi and Re f0 = log eps
    data = compute_constants(1001, 1)
    with mp.workdps(data.dps):
        delta = data.mu1_offset
        _, fp, f0 = _phase(1001, 1, -delta, mp.log(delta) - mpc(0, mp.pi))
        assert abs(fp - mpc(0, 3 * mp.pi)) < mpf(10) ** -40
        assert abs(mp.re(f0) - data.log_eps_a) < mpf(10) ** -40
        assert abs(data.log_eps_a - mpf("-2763.904")) < mpf("1e-3")


def test_fprime_finite_difference_consistency():
    with mp.workdps(80):
        tau = mpf(2 * 2) + mpf(1) / 2           # 2r + 0.5, inside (1, c)
        h = mpf(10) ** -20
        fd = (_phase_at(13, 2, tau + h)[0] - _phase_at(13, 2, tau - h)[0]) / (2 * h)
        assert abs(fd - _phase_at(13, 2, tau)[1]) < mpf(10) ** -35


def test_f_increases_to_mu1_then_decreases_on_upper_bank():
    mu1, _ = find_mu1(13, 2)
    with mp.workdps(50):
        xs = [5 + (mu1 - 5) * mpf(i) / 12 for i in range(1, 12)]
        vals = [mp.re(_phase_at(13, 2, x, upper_bank=True)[0]) for x in xs]
        assert all(v0 < v1 for v0, v1 in zip(vals, vals[1:]))
        ys = [mu1 + i for i in range(1, 8)]
        vals2 = [mp.re(_phase_at(13, 2, y, upper_bank=True)[0]) for y in ys]
        assert all(v0 > v1 for v0, v1 in zip(vals2, vals2[1:]))


def test_constants_13_2():
    data = compute_constants(13, 2)
    assert data.log_eps_pp_a < data.log_eps_a < 0
    # eps_a below the coarse bound 2^{6(r+1)} / r^{2(a-6r)}
    bound_log = 18 * mp.log(2) - 2 * mp.log(2)
    assert data.log_eps_a <= bound_log
    assert abs(data.angle_identity_residual) < mpf(10) ** -20
    assert data.fprime_tau0_minus_ipi < mpf(10) ** -40


def test_constants_refuse_even_a_and_6r_above_a():
    for a in (14, -13):
        with pytest.raises(ValueError, match="a must be odd and positive"):
            compute_constants(a, 2)
    with pytest.raises(ValueError, match=r"need 6r <= a"):
        compute_constants(13, 3)


def test_angle_limits_drift_decreasing():
    # arg f''(tau0) -> pi/3 with decreasing drift as a grows
    drifts = []
    for a in (1001, 10001):
        r = r_of_a(a)
        data = compute_constants(a, r)
        with mp.workdps(data.dps):
            argf = mp.arg(_f_second(a, r, 2 * r + 1 - data.tau0))
            drifts.append(float(abs(argf - mp.pi / 3)))
    assert drifts[1] < drifts[0]


def test_check_assumptions_1001_all_pass():
    a = 1001
    r = r_of_a(a)
    data = compute_constants(a, r)
    rep = check_assumptions(a, r, data)
    assert rep["cond1_mu1_window"]["pass"]
    assert rep["cond2_nondegenerate_angles"]["pass"]
    assert rep["cond3_angle_identity"]["pass"]
    assert rep["all_pass"]


def test_check_assumptions_13_2_reports_regardless():
    data = compute_constants(13, 2)
    rep = check_assumptions(13, 2, data)
    assert "cond1_mu1_window" in rep
    assert rep["cond1_mu1_window"]["pass"] is False     # mu1 - c = 6.64 > 0.4
    assert rep["cond2_nondegenerate_angles"]["pass"]


def test_uncertified_root_is_refused(monkeypatch):
    # a Newton run stopped short leaves a residual far above 10^-(dps/2);
    # neither the root nor the constants may be returned
    monkeypatch.setattr(saddle, "_STEP_CAP", 1)
    with pytest.raises(ArithmeticError, match="mu1 is not certified"):
        find_mu1(13, 2)
    with pytest.raises(ArithmeticError, match="tau0 is not certified"):
        find_tau0(13, 2)
    with pytest.raises(ArithmeticError, match="not certified"):
        compute_constants(13, 2)


def _assert_certified(data):
    half = mpf(10) ** (-(data.dps // 2))
    for name in ("mu1", "tau0"):
        cert = data.certificates[name]
        assert mpf(cert["scaled_residual"]) < half, (name, cert)
        assert 0 < cert["newton_steps"] < saddle._STEP_CAP, (name, cert)
    assert data.mu1_residual < half and data.tau0_residual < half
    assert all(mp.isfinite(x) for x in (data.log_eps_a, data.log_eps_pp_a,
                                        data.omega_a, data.phi_a, data.log_eps_gap))
    assert data.log_eps_a < 0 and data.log_eps_gap > 0     # eps'' < eps < 1
    assert abs(data.angle_identity_residual) < mpf(10) ** -20
    assert data.fprime_tau0_minus_ipi < half
    assert data.mu1_offset > 0 and mp.re(data.tau0) > 0 and mp.im(data.tau0) > 0


def test_roots_certify_at_1e24():
    a = 10**24 + 1
    _assert_certified(compute_constants(a, r_of_a(a)))


@pytest.mark.parametrize("a, r", [
    (1001, 1), (1001, 2), (1001, 3),
    (10001, 1), (10001, 2), (10001, 3),
    (10**8 + 1, 1), (10**8 + 1, 2), (10**8 + 1, 3),
    (10**17 + 1, r_of_a(10**17 + 1)), (10**20 + 1, r_of_a(10**20 + 1)),
])
def test_roots_certify_where_product_form_newton_stalled(a, r):
    # mu1 - c runs from 1e-41 (1001, 3) down to 1e-10034333 (1e8+1, 1),
    # far below the resolution of c from a = 1001, r = 1 on
    _assert_certified(compute_constants(a, r))


def test_noise_level_steps_end_the_iteration():
    # the root is far above c here; once converged the steps stall at
    # rounding noise instead of shrinking, and the iteration must stop
    mu1, cert = find_mu1(10**6 + 1, 166666)
    assert 0 < cert["newton_steps"] < saddle._STEP_CAP
    assert mpf(cert["scaled_residual"]) < mpf(10) ** -60


def test_certificate_fields_and_offsets():
    a, r = 1001, 72
    mu1, cm = find_mu1(a, r)
    tau0, ct = find_tau0(a, r)
    for cert in (cm, ct):
        assert cert["method"] == "log-offset-newton"
        assert set(cert) == {"method", "initial_offset", "offset", "newton_steps",
                             "last_step", "scaled_residual", "dps"}
        assert cert["dps"] == saddle.default_dps(a)
    data = compute_constants(a, r)
    with mp.workdps(data.dps):
        # the offset strings read back exactly at the working precision
        assert mu1 == 2 * r + 1 + data.mu1_offset and tau0 == 2 * r + 1 - data.tau0_offset
        # where c + offset is representable the product form agrees
        half = mpf(10) ** (-(data.dps // 2))
        assert q_scaled_residual(a, r, mu1) < half
        assert q_scaled_residual(a, r, tau0) < half


def test_eps_gap_where_the_constants_agree_to_working_precision():
    # at (1001, 1) log eps - log eps'' is about 5e-100 against |log eps| of
    # 2764 at 100 digits; the gap is taken from the offsets instead
    data = compute_constants(1001, 1)
    fine = compute_constants(1001, 1, 260)
    with mp.workdps(260):
        diff = fine.log_eps_a - fine.log_eps_pp_a
        assert abs(data.log_eps_gap / diff - 1) < mpf(10) ** -90
        assert abs(fine.log_eps_gap / diff - 1) < mpf(10) ** -150
    assert mpf("4e-100") < data.log_eps_gap < mpf("6e-100")
    assert abs(data.mu1_offset / mpf("1.0801e-100") - 1) < mpf(10) ** -4


@pytest.mark.parametrize("a, r", [(7, 1), (13, 2), (101, 1)])
def test_tau0_is_the_one_root_of_q_in_a_quadrant_rectangle(a, r):
    tau0, _ = find_tau0(a, r)
    c = 2 * r + 1
    with mp.workdps(50):
        left, low, high = mpf(1) / 4, mp.im(tau0) / 2, mpf(8 * c)
        q = lambda x: q_eval(a, r, x)           # noqa: E731
        dq = lambda x: q_prime(a, r, x)         # noqa: E731
        quadrant = [mpc(left, low), mpc(high, low), mpc(high, high), mpc(left, high)]
        assert argument_principle_count(q, dq, quadrant) == 1
        assert left < mp.re(tau0) < high and low < mp.im(tau0) < high
        # across the real axis the count picks up conj(tau0) and mu1
        mirrored = [mpc(left, -high), mpc(high, -high), mpc(high, high), mpc(left, high)]
        assert argument_principle_count(q, dq, mirrored) == 3


def test_r_of_a_values_and_monotonicity():
    assert r_of_a(7) == 1                 # clamped
    assert r_of_a(13) == 2
    vals = [r_of_a(a) for a in (1001, 10001, 100001)]
    assert vals == sorted(vals)
    assert vals[0] == 72
    # exact floors past 50 digits (taken at digits(a) + 40)
    assert r_of_a(10**60 + 1) == 7858302023665033443441471583819535745319050443453773549
    assert r_of_a(10**100 + 1) == int("25697904461171171159909042189732801147873274316078"
                                      "35091665478339969749361888689576085461953331")
    with pytest.raises(ValueError):
        r_of_a(8)


def test_reduce_angle_and_distance():
    with mp.workdps(30):
        assert abs(reduce_angle(3 * mp.pi) - mp.pi) < mpf(10) ** -25
        assert abs(reduce_angle(-3 * mp.pi) - mp.pi) < mpf(10) ** -25
        assert angle_distance(mp.pi / 2 + 7 * mp.pi, mp.pi / 2, mp.pi) < mpf(10) ** -25


def test_nu_of_magnitudes():
    with mp.workdps(30):
        assert nu_of(100001) < mpf(10) ** -4
        assert nu_of(1001) < mpf("0.002")


def _log1p_cases(rng):
    # (w, relative): w anywhere off -1, 1 + Re w <= 0 included, and w with
    # Im w far below Re w, down to 2^-3e7, where the real part is relative
    for _ in range(60):
        yield mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)), False
    for _ in range(20):
        yield mpc(rng.uniform(-3, -1), rng.choice((-1, 1)) * 2.0 ** -rng.randrange(1, 200)), False
    for bits in (10, 200, 750, 10**4, 10**6, 3 * 10**7):
        x = rng.choice((-1, 1)) * mpf(2) ** -rng.randrange(1, 800) * rng.uniform(1, 2)
        y = rng.choice((-1, 1)) * mpf(2) ** -bits
        yield mpc(x, y), True


def test_log1p_matches_mpmath_at_twice_the_precision():
    import random

    rng = random.Random(31)
    with mp.workdps(50):
        prec = mp.prec
        cases = list(_log1p_cases(rng)) + [(mpc(-1, 0.5), False), (mpc(-1, -2), False)]
        for w, relative in cases:
            got = saddle._log1p(w)
            with mp.workprec(2 * prec):
                ref = mp.log1p(w)
            unit = mpf(2) ** -prec
            scale = abs(ref.real) if relative else max(1, abs(ref.real))
            assert abs(got.real - ref.real) <= 32 * unit * scale, w
            assert abs(got.imag - ref.imag) <= 4 * unit * abs(ref.imag), w


def test_log1p_of_a_real_argument_is_mpmath_log1p():
    import random

    rng = random.Random(37)
    with mp.workdps(80):
        for _ in range(50):
            x = mpf(rng.uniform(-0.999, 5)) * mpf(2) ** -rng.randrange(0, 300)
            got = saddle._log1p(x)
            assert type(got) is type(x) and got == mp.log1p(x)
