import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc

from oracles import (QPolynomial, cofactor_det, pochhammer, poly_eval_precise, power_sum,
                     row_echelon, select_independent_rows)
from zetaforms.exact_kernel import echelon, harmonic_prefixes, lcm_upto


def test_pochhammer_basics():
    assert pochhammer(1, 3) == 6
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(-2, 5) == 0


def test_pochhammer_additivity():
    rng = random.Random(7)
    for _ in range(200):
        alpha = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        j = rng.randint(0, 8)
        k = rng.randint(0, 8)
        assert pochhammer(alpha, j + k) == pochhammer(alpha, j) * pochhammer(alpha + j, k)


def test_lcm_upto_small_values_against_pairwise_fold():
    def fold(k):
        out = 1
        for i in range(1, k + 1):
            out = out * i // math.gcd(out, i)
        return out

    assert lcm_upto(1) == 1
    assert lcm_upto(4) == 12 == fold(4)
    assert lcm_upto(10) == 2520 == fold(10)
    for k in (2, 3, 17, 30, 97, 128):
        assert lcm_upto(k) == fold(k)


def test_lcm_growth_tracks_prime_number_theorem():
    # log(d_k)/k in (0.9, 1.1) and moving toward 1 across k = 1e3, 1e4, 1e5
    ratios = []
    for k in (10**3, 10**4, 10**5):
        d = lcm_upto(k)
        ratios.append((d.bit_length() * math.log(2)) / k)
    for rat in ratios:
        assert 0.9 < rat < 1.1
    assert abs(ratios[2] - 1) <= abs(ratios[0] - 1)


def test_lcm_monotone():
    prev = 1
    for k in range(1, 60):
        cur = lcm_upto(k)
        assert cur >= prev and cur % prev == 0
        prev = cur


def test_fraction_arithmetic_is_exact():
    rng = random.Random(11)
    for _ in range(300):
        a = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        c = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert (a + c) - c == a


def test_qpolynomial_canonical_and_degree_sentinel():
    assert QPolynomial([0, 0, 0]).degree == -1
    assert QPolynomial([]).degree == -1
    assert not QPolynomial.zero()
    p = QPolynomial([1, 2, 0])
    assert p.degree == 1
    assert p == QPolynomial([1, 2])


def test_qpolynomial_arithmetic():
    p = QPolynomial([-1, 1])            # X - 1
    q = QPolynomial([1, 1])             # X + 1
    assert (p * q) == QPolynomial([-1, 0, 1])
    assert (p + q) == QPolynomial([0, 2])
    assert p ** 3 == QPolynomial([-1, 3, -3, 1])
    assert p.derivative() == QPolynomial([1])
    assert QPolynomial.from_roots(2, [(1, 2)]) == QPolynomial([2, -4, 2])


def test_qpolynomial_shift_matches_eval():
    rng = random.Random(3)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(6)]
        p = QPolynomial(coeffs)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert p.shift(c).eval_exact(x) == p.eval_exact(x + c)


def test_poly_eval_precise_examples():
    ctx_dps = 60
    with mp.workdps(ctx_dps):
        p = QPolynomial([-1, 1])
        assert abs(poly_eval_precise(p, mpf(1))) == 0
        q = QPolynomial([1, 0, 1])      # X^2 + 1 at i
        assert abs(poly_eval_precise(q, mpc(0, 1))) < mpf(10) ** -55
        r = QPolynomial([2, 3])         # 3X + 2 at 1/3
        assert abs(poly_eval_precise(r, mpf(1) / 3) - 3) < mpf(10) ** -55


def test_power_sum_values():
    assert power_sum(1, 0) == 0
    assert power_sum(1, 3) == Fraction(11, 6)
    assert power_sum(2, 4) == Fraction(1, 1) + Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16)


def test_harmonic_prefixes_window():
    # L = lcm(1..4) = 12; the window 2..4 holds 12^p H^(p)_k for p = 2, 3
    assert harmonic_prefixes(range(2, 4), 2, 4) == (12, [
        [144 + 36, 144 + 36 + 16, 144 + 36 + 16 + 9],
        [1728 + 216, 1728 + 216 + 64, 1728 + 216 + 64 + 27]])
    assert harmonic_prefixes(range(3, 4), 0, 0) == (1, [[0]])
    with pytest.raises(ValueError):
        harmonic_prefixes(range(2, 3), 3, 2)
    with pytest.raises(ValueError):
        harmonic_prefixes(range(2, 2), 0, 2)


def test_power_sum_cold_large_m():
    # a recursive prefix would exceed the interpreter's recursion limit here
    assert power_sum(3, 5000) == sum((Fraction(1, t ** 3) for t in range(1, 5001)), Fraction(0))


def test_lcm_rejects_bad_input():
    with pytest.raises(ValueError):
        lcm_upto(0)
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def _echelon_cases():
    rng = random.Random(2024)
    cases = [[], [[]], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]], [[5]], [[-3, 6, 9]],
             [[1, 2], [2, 4], [3, 6]], [[2, 4, 6], [2, 4, 6]], [[0, 1], [1, 0]]]
    for _ in range(400):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        size = rng.choice((1, 3, 40, 10**9))
        density = rng.random()
        mat = [[rng.randint(-size, size) if rng.random() < density else 0
                for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:
            mat[rng.randrange(nrows)] = list(mat[rng.randrange(nrows)])
        cases.append(mat)
    return cases


def test_echelon_matches_fraction_oracle_and_cofactor_det():
    shapes = set()
    for mat in _echelon_cases():
        ech = echelon(mat)
        work = [[Fraction(x) for x in row] for row in mat]
        rank, pivots = row_echelon(work)
        assert (ech.rank, list(ech.pivots)) == (rank, pivots), mat
        assert [[Fraction(x, ech.scale) for x in row] for row in ech.rows] == work, mat
        nrows, ncols = len(mat), len(mat[0]) if mat else 0
        assert ech.det == (cofactor_det(mat) if nrows == ncols else 0), mat
        shapes.add("wide" if ncols > nrows else "tall" if ncols < nrows else "square")
    assert shapes == {"wide", "tall", "square"}


def test_echelon_leaves_its_input_alone_and_rejects_ragged_rows():
    mat = [[2, 3], [4, 5]]
    assert echelon(mat).det == -2
    assert mat == [[2, 3], [4, 5]]
    assert echelon([]).rank == 0 and echelon([]).det == 1
    with pytest.raises(ValueError):
        echelon([[1, 2], [3]])


def test_echelon_pivots_of_transpose_are_the_greedy_row_choice():
    for mat in _echelon_cases():
        if not mat or not mat[0]:
            continue
        ech = echelon([list(col) for col in zip(*mat)])
        for d in range(1, len(mat[0]) + 1):
            mine = list(ech.pivots[:d]) if ech.rank >= d else None
            assert mine == select_independent_rows(mat, d), (mat, d)
