import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from oracles import cofactor_det, distance_sweep_brute, row_echelon, select_independent_rows
from zetaforms.diophantine import (
    ProjectiveInstance,
    convergents,
    convex_body_emptiness,
    type2_box_check,
    golden_convergents,
    projective_distance,
    siegel_verify,
    sqrt2_convergents,
    projective_distance_sweep,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_convergents_sqrt2_and_golden():
    cs = sqrt2_convergents(6)
    assert cs[:5] == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29)]
    for p, q in cs:
        assert abs(p * p - 2 * q * q) == 1
    gs = golden_convergents(8)
    for (p0, q0), (p1, q1) in zip(gs, gs[1:]):
        assert abs(p1 * q0 - p0 * q1) == 1
    assert gs == [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8), (21, 13), (34, 21)]
    assert sqrt2_convergents(6) == convergents([1, 2, 2], 6)
    assert golden_convergents(8) == convergents([1, 1, 1, 1], 8)


def test_convergents_of_pi_read_every_term():
    assert convergents([3, 7, 15, 1, 292], 5) == [
        (3, 1), (22, 7), (333, 106), (355, 113), (103993, 33102)]
    assert convergents([3, 7, 15, 1], 2) == [(3, 1), (22, 7)]


def test_projective_distance_extremes():
    inst = ProjectiveInstance(basis=[[1.0, 0.0, 0.0]])
    assert projective_distance(inst, [3, 0, 0]) < 1e-14          # P in F
    assert abs(projective_distance(inst, [0, 2, 0]) - 1) < 1e-14  # P orthogonal
    with pytest.raises(ValueError):
        projective_distance(inst, [0, 0, 0])


def test_projective_distance_against_grid_oracle():
    # oracle: brute-force minimization of ||P - f|| over a grid of F
    # elements, refined around the argmin until the step is ~1e-8
    def grid_min(e1, e2, P):
        c1, c2, half = 0.0, 0.0, 8.0
        best = math.inf
        for _ in range(9):
            sgrid = [c1 - half + 2 * half * i / 60 for i in range(61)]
            tgrid = [c2 - half + 2 * half * i / 60 for i in range(61)]
            best, c1, c2 = min(
                (math.dist(P, [s * x + t * y for x, y in zip(e1, e2)]), s, t)
                for s in sgrid for t in tgrid)
            half *= 4.0 / 60.0 * 2.0
        return best

    rng = random.Random(19)
    done = 0
    while done < 6:
        e1 = [rng.uniform(-2, 2) for _ in range(3)]
        e2 = [rng.uniform(-2, 2) for _ in range(3)]
        cross = [e1[1] * e2[2] - e1[2] * e2[1], e1[2] * e2[0] - e1[0] * e2[2],
                 e1[0] * e2[1] - e1[1] * e2[0]]
        if sum(c * c for c in cross) < 1e-2:      # det(e1, e2, e1 x e2)
            continue
        inst = ProjectiveInstance(basis=[e1, e2])
        P = [rng.uniform(-3, 3) for _ in range(3)]
        if math.hypot(*P) < 0.5:
            continue
        got = projective_distance(inst, P)
        best = grid_min(e1, e2, P)
        assert abs(got - best / math.hypot(*P)) < 1e-6
        done += 1


def test_projective_instance_rejects_dependent_basis():
    with pytest.raises(ValueError):
        ProjectiveInstance(basis=[[1.0, 2.0], [2.0, 4.0]])


def test_kappa_is_coordinate_norm_bound():
    rng = random.Random(7)
    inst = ProjectiveInstance(basis=[[1.0, 0.2, -0.5], [0.3, 2.0, 0.7]])
    kappa = inst.kappa
    for _ in range(200):
        lam = [rng.uniform(-5, 5), rng.uniform(-5, 5)]
        f = [lam[0] * x + lam[1] * y for x, y in zip(*inst.basis)]
        assert max(map(abs, lam)) <= kappa * math.hypot(*f) + 1e-12


def test_distance_sweep_golden_line():
    golden = (1 + math.sqrt(5)) / 2
    rep = projective_distance_sweep(golden, tau=1.0, eps=0.2, p_max=10**6)
    assert rep.passed, rep.violations[:3]
    # the points decided are the convergents (55, 89) .. (832040, 1346269);
    # no other point below p = 55 comes within the bound of the line
    assert rep.checked == 21
    assert rep.norm_threshold == 100.0         # recorded burn-in
    assert -2.25 <= rep.best_exponent <= -1.95  # tightness probe near -2


@pytest.mark.parametrize("xi, tau, eps, threshold, passes", [
    (GOLDEN, 1.0, 0.2, 100.0, True),
    (GOLDEN, 2.0, 0.1, 100.0, False),
    (math.sqrt(2), 1.0, 0.2, 100.0, False),     # (70, 99) dips under the bound
    (math.sqrt(2), 1.0, 0.5, 100.0, True),
    (-math.sqrt(3), 1.0, 0.2, 10.0, False),
    (-GOLDEN, 1.0, 0.2, 100.0, True),
    (355 / 113 + 1e-9, 1.0, 0.2, 100.0, False),
    # burn-in edge: the convergent (113, 355) lies under the threshold and
    # the next one beyond p_max, while its multiples violate above it
    (355 / 113 + 1e-9, 1.0, 0.2, 400.0, False),
])
def test_distance_sweep_matches_the_brute_force(xi, tau, eps, threshold, passes):
    p_max = 20_000
    rep = projective_distance_sweep(xi, tau=tau, eps=eps, p_max=p_max, norm_threshold=threshold)
    brute, _checked, brute_best = distance_sweep_brute(xi, tau, eps, p_max, threshold)
    assert rep.passed == (not brute) == passes
    found = [(p, q) for p, q, _dist, _bound in rep.violations]
    assert set(found) <= set(brute)
    if brute:
        assert found[0][0] <= brute[0][0]    # so below every brute-force violation
    assert rep.best_exponent == pytest.approx(brute_best, rel=1e-6)   # the brute force rounds p xi - q


def test_distance_sweep_needs_a_decaying_bound():
    with pytest.raises(ValueError):
        projective_distance_sweep(GOLDEN, tau=-1.0, eps=0.5, p_max=100)


def test_integer_points_never_on_the_line():
    golden = (1 + math.sqrt(5)) / 2
    inst = ProjectiveInstance(basis=[[1.0, golden]])
    rng = random.Random(3)
    for _ in range(500):
        P = [rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)]
        if P == [0, 0]:
            continue
        assert projective_distance(inst, P) > 0


def _oracle_dets(forms_per_n, subspace_basis):
    """Per n: the determinant of the d restricted rows that the greedy
    Fraction selection picks, or None where the forms are dependent or no
    d restricted rows are independent."""
    d = len(subspace_basis)
    out = []
    for forms in forms_per_n:
        if row_echelon([[Fraction(x) for x in f] for f in forms])[0] < len(forms):
            out.append(None)
            continue
        R = [[sum(x * u for x, u in zip(f, b)) for b in subspace_basis] for f in forms]
        chosen = select_independent_rows(R, d)
        out.append(None if chosen is None else cofactor_det([R[t] for t in chosen]))
    return out


def test_siegel_sqrt2_consecutive_convergents():
    cs = sqrt2_convergents(26)
    forms = []
    qseq = []
    for (p0, q0), (p1, q1) in zip(cs, cs[1:]):
        forms.append([[q0, -p0], [q1, -p1]])
        qseq.append(q0)
    with mp.workdps(60):
        xi = mp.sqrt(2)
    rep = siegel_verify(forms, qseq, points=[[xi, 1]], taus=[1.0],
                        subspace_basis=[[1, 0], [0, 1]])
    assert rep.passed
    for row in rep.rows_:
        assert row[1] != 0 and abs(row[1]) == 1    # consecutive convergents: det = +-1
    assert [row[1] for row in rep.rows_] == _oracle_dets(forms, [[1, 0], [0, 1]])
    assert [row[1] for row in rep.rows_] == [(-1) ** n for n in range(1, 26)]
    # bound exponent tracks d - k - sum tau = 0
    assert abs(rep.bound_slope - rep.expected_bound_slope) < 0.01


def test_siegel_beyond_float_range():
    # q_n reaches 10^325 at 850 sqrt(2) convergents
    cs = sqrt2_convergents(851)
    forms = [[[q0, -p0], [q1, -p1]] for (p0, q0), (p1, q1) in zip(cs, cs[1:])]
    qseq = [q0 for _p0, q0 in cs[:-1]]
    with mp.workdps(800):
        xi = mp.sqrt(2)
    rep = siegel_verify(forms, qseq, points=[[xi, 1]], taus=[1.0],
                        subspace_basis=[[1, 0], [0, 1]])
    assert qseq[-1] > 10**320
    assert [row[1] for row in rep.rows_] == [(-1) ** n for n in range(1, 851)]
    assert math.isfinite(rep.bound_slope)
    # with sqrt(2) held to 800 digits the bound product is flat in q_n
    assert abs(rep.bound_slope - rep.expected_bound_slope) < 0.01


def test_siegel_report_equals_its_recomputation():
    # q_1 = 1 leaves the first row's exponents undefined; they are None, not
    # nan, so equal inputs give equal reports
    cs = sqrt2_convergents(12)
    forms = [[[q0, -p0], [q1, -p1]] for (p0, q0), (p1, q1) in zip(cs, cs[1:])]
    qseq = [q0 for _p0, q0 in cs[:-1]]

    def report(m):
        return siegel_verify(forms[:m], qseq[:m], points=[[math.sqrt(2), 1.0]],
                             taus=[1.0], subspace_basis=[[1, 0], [0, 1]])

    rep = report(len(forms))
    assert rep.rows_[0][2:] == (None, None) and rep.bound_slope is not None
    assert rep == report(len(forms))
    single = report(1)
    assert single.bound_slope is None and single == report(1)


def test_siegel_duplicate_forms_rejected():
    forms = [[[1, 2], [1, 2]]]
    rep = siegel_verify(forms, [10], points=[[1.5, 1.0]], taus=[1.0],
                        subspace_basis=[[1, 0], [0, 1]])
    assert rep.hypothesis_failures
    assert not rep.passed


def test_siegel_needs_points_within_the_subspace_dimension():
    forms = [[[1, 2], [3, 4]]]
    for points, basis in (([], []), ([], [[1, 0]]), ([[1.5, 1.0]] * 2, [[1, 0]])):
        with pytest.raises(ValueError):
            siegel_verify(forms, [10], points=points, taus=[1.0] * len(points),
                          subspace_basis=basis)


def test_siegel_d_equals_k_slope():
    # one point, one-dimensional rational subspace: the bound product is
    # d! * max_t |L(e_1)| and must decay like Q^{-tau}
    cs = golden_convergents(30)
    golden = (1 + math.sqrt(5)) / 2
    forms = []
    qseq = []
    for (p0, q0), (p1, q1) in zip(cs[4:-1], cs[5:]):
        forms.append([[q0, -p0]])
        qseq.append(q0)
    rep = siegel_verify(forms, qseq, points=[[golden, 1.0]], taus=[1.0],
                        subspace_basis=[[1, 0]])
    # restriction of (q x1 - p x2) to span((1,0)) is q != 0
    assert not rep.hypothesis_failures
    assert [row[1] for row in rep.rows_] == qseq == _oracle_dets(forms, [[1, 0]])
    assert abs(rep.bound_slope - rep.expected_bound_slope) < 0.35


def test_siegel_selects_rows_like_the_greedy_fraction_oracle():
    # three forms on Z^3 restricted to span((1,0,0), (0,1,1)): some n have a
    # zero or a dependent restricted row, which the selection skips, and
    # some have dependent forms
    rng = random.Random(19)
    basis = [[1, 0, 0], [0, 1, 1]]
    forms = []
    for _ in range(60):
        while True:
            fs = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            if rng.random() < 0.3:
                fs[0] = [0, fs[0][1], -fs[0][1]]                       # restriction 0
            if rng.random() < 0.4:
                fs[1] = [2 * fs[0][0], 2 * fs[0][1] + 1, 2 * fs[0][2] - 1]  # restriction x2
            if cofactor_det(fs) or rng.random() < 0.05:
                break
        forms.append(fs)
    qseq = [10 + n for n in range(len(forms))]
    rep = siegel_verify(forms, qseq, points=[[1.0, 0.5, 0.25]], taus=[0.5],
                        subspace_basis=basis)
    dets = _oracle_dets(forms, basis)
    failed = {f["n"] for f in rep.hypothesis_failures}
    assert failed == {n for n, det in enumerate(dets, 1) if det is None}
    assert [(row[0], row[1]) for row in rep.rows_] == [
        (n, det) for n, det in enumerate(dets, 1) if det is not None]
    choices = {tuple(select_independent_rows(
        [[f[0], f[1] + f[2]] for f in fs], 2) or ()) for fs in forms}
    assert {(0, 1), (0, 2), (1, 2)} <= choices
    assert 0 < len(failed) < len(forms)
    assert len({abs(row[1]) for row in rep.rows_}) > 5


def test_convex_body_emptiness_golden():
    golden = (1 + math.sqrt(5)) / 2
    rep = convex_body_emptiness(points=[[1.0, golden]], taus=[1.0],
                                qn=13, n=6, eps=0.25)
    assert rep.passed
    assert rep.points_checked > 0


def test_convex_body_volume_cap():
    with pytest.raises(ValueError):
        convex_body_emptiness(points=[[1.0, 0.5, 0.25, 0.1]], taus=[2.0],
                              qn=10**4, n=3, eps=0.1, volume_cap=100)


def test_convex_body_beyond_float_range():
    # Q_n = 10^400 is past the float range: the box of tau = 1 is refused
    # by its volume, and the box of tau = eps / 2 is enumerated
    golden = (1 + math.sqrt(5)) / 2
    with pytest.raises(ValueError, match="exceeds cap"):
        convex_body_emptiness(points=[[1.0, golden]], taus=[1.0],
                              qn=10**400, n=6, eps=0.1)
    rep = convex_body_emptiness(points=[[1.0, golden]], taus=[0.05],
                                qn=10**400, n=6, eps=0.1)
    assert rep.passed
    assert rep.box_bounds == (1, 1)


def test_type2_box_sqrt2():
    from mpmath import mp
    cs = sqrt2_convergents(28)
    forms = [[p, q] for p, q in cs]
    qseq = [q for _, q in cs]
    with mp.workdps(60):
        xi = mp.sqrt(2)
    rep = type2_box_check(xis=[xi], forms=forms, qseq=qseq,
                          taus=[1.0], eps=0.2, Q=100)
    assert rep.hypothesis_ok, rep.decay_slopes
    assert rep.passed, rep.violations[:3]
    assert rep.boxes_checked == 200            # a1 in [-100, 100] minus zero


def test_type2_box_beyond_float_range():
    cs = sqrt2_convergents(850)
    with mp.workdps(800):
        xi = mp.sqrt(2)
    rep = type2_box_check(xis=[xi], forms=[[p, q] for p, q in cs],
                          qseq=[q for _, q in cs], taus=[1.0], eps=0.2, Q=100)
    assert cs[-1][1] > 10**320
    assert rep.hypothesis_ok, rep.decay_slopes
    assert rep.passed, rep.violations[:3]


def test_type2_box_corrupted_forms_fail_hypothesis():
    from mpmath import mp
    cs = sqrt2_convergents(20)
    forms = [[p + (7 if i % 2 else -3), q] for i, (p, q) in enumerate(cs)]
    qseq = [q for _, q in cs]
    with mp.workdps(60):
        xi = mp.sqrt(2)
    rep = type2_box_check(xis=[xi], forms=forms, qseq=qseq,
                          taus=[1.0], eps=0.2, Q=50)
    assert not rep.hypothesis_ok
    assert not rep.passed
