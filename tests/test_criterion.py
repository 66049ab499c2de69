import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from oracles import coefficient_bound_oracle, permutation_product_oracle
from zetaforms import criterion
from zetaforms.criterion import (
    AbstractInstance,
    EpsTable,
    InstanceDefect,
    choose_eps1,
    permutation_product_check,
    oscillation_subsequence,
    phi_build,
    coefficient_bound_check,
    random_smallness_table,
    random_signed_instance,
    rank_lower_bound,
    zeta_rank_bound,
)


def _pairs(values: dict) -> dict:
    """Fraction, int or float entries as the integer pairs the criterion reads."""
    return {key: v.as_integer_ratio() for key, v in values.items()}


def test_phi_build_powers_of_two():
    q = [2 ** n for n in range(1, 16)]
    assert phi_build(q, 1, 5) == 11          # smallest m with 2^m > 2^10
    for n in range(1, 8):
        m = phi_build(q, Fraction(1, 2), n)
        assert m >= n + 1
        assert q[m - 1] > 2 ** (n * Fraction(3, 2))
        assert q[m - 2] <= 2 ** (n * Fraction(3, 2))


def test_phi_build_superexponential_against_scan_oracle():
    q = [3 ** (n * n) for n in range(1, 9)]
    eps1 = Fraction(1, 2)
    n = 3
    # oracle: linear scan with exact power comparison
    threshold_num = q[n - 1] ** 3            # Q_n^{3} vs Q_m^{2}: compare squares
    m_oracle = None
    for m in range(n + 1, len(q) + 1):
        if q[m - 1] ** 2 > threshold_num:
            m_oracle = m
            break
    assert phi_build(q, eps1, n) == m_oracle == 4


def test_phi_build_errors():
    with pytest.raises(IndexError):
        phi_build([2, 4, 8], 1, 3)
    with pytest.raises(ValueError):
        phi_build([2, 4, 4], 1, 1)
    with pytest.raises(ValueError):
        phi_build([2, 4, 8], 0, 1)


def test_choose_eps1_k1_unconstrained():
    assert choose_eps1(1, 1, Fraction(1, 10)) == 1


def test_choose_eps1_k2_example():
    # constraints: eps1 < 1/4 strictly and 1 + eps1 <= 3/2  ->  1/8
    assert choose_eps1(2, 1, 1) == Fraction(1, 8)


def test_choose_eps1_postconditions_hold():
    rng = random.Random(2)
    for _ in range(100):
        k = rng.randint(1, 6)
        tau1 = Fraction(rng.randint(1, 40), rng.randint(1, 7))
        eps = Fraction(rng.randint(1, 9), rng.randint(1, 11))
        e1 = choose_eps1(k, tau1, eps)
        assert 0 < e1 <= 1
        if k > 1:
            grow = (1 + e1) ** (k - 1)
            assert (grow - 1) * tau1 < eps / 4
            assert grow <= 1 + eps / 2
            # maximality among dyadics: twice the value violates something
            g2 = (1 + 2 * e1) ** (k - 1)
            assert not ((g2 - 1) * tau1 < eps / 4 and g2 <= 1 + eps / 2) or 2 * e1 > 1


def test_permutation_identity_is_equality():
    table, phi, _ = random_smallness_table(random.Random(1), 3)
    rep = permutation_product_check(table, phi, 1, 3)
    ident = next(r for r in rep.rows if r[0] == (1, 2, 3))
    assert ident[1]                          # equality passes as <=


def test_permutation_check_power_table_all_sigmas():
    # eps_{j,n} = Q_n^{-tau_j}, tau = (3, 2, 1), Q = 2^n, phi from phi_build
    # with eps1 large enough that the iterate gaps cover log2(4!) = 4.58
    q = [2 ** n for n in range(1, 46)]
    eps = {}
    for j, tau in enumerate((3, 2, 1), start=1):
        for n in range(1, 46):
            eps[(j, n)] = Fraction(1, 2 ** (n * tau))
    table = EpsTable(k=3, eps=_pairs(eps))
    eps1 = 5

    def phi(n):
        return phi_build(q, eps1, n)

    assert phi(1) == 7 and phi(7) == 43     # smallest m with 2^m > 2^(6n)
    rep = permutation_product_check(table, phi, 1, 3)
    assert rep.hypothesis_ok
    assert rep.conclusion_holds and rep.passed
    assert len(rep.rows) == 6


def test_permutation_check_adversarial_table_flags_hypothesis():
    eps = {}
    for j in (1, 2):
        for n in (1, 2, 3, 4):
            eps[(j, n)] = Fraction(1, 2 ** n) if j == 1 else Fraction(1, 3 ** n)
    # j = 1 decays slower than j = 2: hypothesis reversed
    table = EpsTable(k=2, eps=_pairs(eps))
    rep = permutation_product_check(table, lambda n: n + 1, 1, 2)
    assert not rep.hypothesis_ok
    assert rep.hypothesis_violations
    assert not rep.passed                    # conclusion not asserted


def test_coefficient_bound_k1_is_three_m_over_eps():
    inst = AbstractInstance(k=1, values=_pairs({(1, n): Fraction(1, 2 ** n) for n in (1, 2, 3)}))
    rep = coefficient_bound_check(inst, [Fraction(5)], 1, lambda n: n + 1)
    assert rep.bounds[0] == 3 * Fraction(5)
    assert rep.passed


def test_coefficient_bound_zero_combination():
    inst = AbstractInstance(k=2, values=_pairs({(j, n): Fraction((-1) ** n, 2 ** (n * j))
                                                for j in (1, 2) for n in range(1, 9)}))
    rep = coefficient_bound_check(inst, [0, 0], 1, lambda n: n + 2)
    assert all(b == 0 for b in rep.bounds)
    assert rep.passed


def test_coefficient_bound_instance_defect_on_zero_eps():
    inst = AbstractInstance(k=1, values=_pairs({(1, 1): Fraction(0), (1, 2): Fraction(1, 2)}))
    with pytest.raises(InstanceDefect):
        coefficient_bound_check(inst, [1], 1, lambda n: n + 1)


def test_coefficient_bound_randomized_draws_hold():
    rng = random.Random(9)
    inst, phi, n0 = random_signed_instance(rng, 3)
    for _ in range(1000):
        lambdas = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3)]
        rep = coefficient_bound_check(inst, lambdas, n0, phi)
        assert rep.passed


def _random_instance(rng):
    """Half hypothesis instances, half arbitrary signed values, where the
    last point's values are often set so that L_m(M) nearly cancels and
    the bound fails; zero lambdas now and then."""
    k = rng.randint(1, 4)
    lambdas = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) if rng.random() < 0.9 else 0
               for _ in range(k)]
    if rng.random() < 0.5:
        inst, phi, n0 = random_signed_instance(rng, k)
        return inst, lambdas, n0, phi
    gap = rng.randint(1, 3)
    iterates = range(1, 1 + k * gap, gap)
    values = {(j, m): Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 40))
              for j in range(1, k + 1) for m in iterates}
    if k >= 2 and lambdas[-1] and rng.random() < 0.6:
        for m in iterates:
            rest = sum(l * values[(j, m)] for j, l in enumerate(lambdas[:-1], 1))
            near = (Fraction(rng.randint(1, 9), 1000) - rest) / lambdas[-1]
            values[(k, m)] = near or values[(k, m)]
    return AbstractInstance(k=k, values=_pairs(values)), lambdas, 1, lambda n: n + gap


def test_coefficient_bound_equals_fraction_oracle():
    rng = random.Random(6174)
    seen = {"k=1": 0, "zero lambda": 0, "failing j": 0, "passing": 0}
    for _ in range(2000):
        inst, lambdas, n0, phi = _random_instance(rng)
        rep = coefficient_bound_check(inst, lambdas, n0, phi)
        assert rep == coefficient_bound_oracle(inst, lambdas, n0, phi)
        seen["k=1"] += inst.k == 1
        seen["zero lambda"] += 0 in lambdas
        seen["failing j"] += not rep.passed
        seen["passing"] += rep.passed
    assert min(seen.values()) >= 50, seen


def test_coefficient_bound_with_lambda_exactly_at_its_bound():
    # at each iterate m the other points combine to a L_m(e_j), so that
    # bound_j = c k |a + lambda_j| with c = 1 + 1/k + 1/k^2; it equals
    # |lambda_j| at lambda_j = -c k a / (c k - 1)
    rng = random.Random(1729)
    at_bound = 0
    for _ in range(300):
        k = rng.randint(2, 4)
        j, o = rng.sample(range(1, k + 1), 2)
        iterates = [1 + 2 * i for i in range(k)]
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
        ck = k + 1 + Fraction(1, k)
        lambdas = [Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(k)]
        lambdas[j - 1] = -ck * a / (ck - 1)
        values = {(l, m): Fraction(rng.randint(1, 50), rng.randint(1, 50))
                  for l in range(1, k + 1) for m in iterates}
        for m in iterates:
            rest = sum(lambdas[l - 1] * values[(l, m)] for l in range(1, k + 1) if l not in (j, o))
            values[(o, m)] = (a * values[(j, m)] - rest) / lambdas[o - 1]
        if any(v == 0 for v in values.values()):
            continue
        inst = AbstractInstance(k=k, values=_pairs(values))
        rep = coefficient_bound_check(inst, lambdas, 1, lambda n: n + 2)
        assert rep == coefficient_bound_oracle(inst, lambdas, 1, lambda n: n + 2)
        assert rep.bounds[j - 1] == abs(lambdas[j - 1]) and rep.ok_per_j[j - 1]
        at_bound += 1
    assert at_bound >= 250
    # k = 1: the bound is 3 |lambda|, met with equality only at lambda = 0
    inst = AbstractInstance(k=1, values=_pairs({(1, 1): Fraction(-7, 3)}))
    rep = coefficient_bound_check(inst, [0], 1, lambda n: n + 1)
    assert rep == coefficient_bound_oracle(inst, [0], 1, lambda n: n + 1)
    assert rep.bounds == (0,) and rep.passed


def test_coefficient_bound_instance_defect_message_names_the_first_zero():
    # zeros at (j, m) = (2, 1) and (1, 3): j is scanned first
    values = {(1, 1): Fraction(1, 2), (2, 1): Fraction(0), (1, 3): Fraction(0), (2, 3): Fraction(5)}
    inst = AbstractInstance(k=2, values=_pairs(values))
    for check in (coefficient_bound_check, coefficient_bound_oracle):
        with pytest.raises(InstanceDefect) as err:
            check(inst, [1, Fraction(-2, 3)], 1, lambda n: n + 2)
        assert str(err.value) == "|L_3(e_1)| = 0; instance unusable"


def test_rank_lower_bound():
    assert rank_lower_bound(2, [Fraction(1, 2), Fraction(1, 4)]) == Fraction(11, 4)
    assert rank_lower_bound(1, [Fraction(3, 2)]) == Fraction(5, 2)
    with pytest.raises(ValueError):
        rank_lower_bound(2, [1, 1])
    with pytest.raises(ValueError):
        rank_lower_bound(2, [1, -2])


def test_zeta_rank_bound_small_a_rejected():
    # at a = 13 the scaled forms do not decay; tau1 < 0
    with pytest.raises(ArithmeticError):
        zeta_rank_bound(13)


def test_oscillation_identity_cases():
    # a count equal to the last index pins every index: psi(n) = n
    rep = oscillation_subsequence([0.0], [0.0], 0.9, 200)
    assert rep.count == rep.last == 200
    rep = oscillation_subsequence([math.pi], [0.0], 0.9, 100)
    assert rep.count == rep.last == 100
    assert rep.lambda_estimate == 1.0


def test_oscillation_golden_density():
    golden = (1 + math.sqrt(5)) / 2
    rep = oscillation_subsequence([math.pi * golden], [0.0], 0.5, 10000)
    # |cos| >= 1/2 on a set of density 2/3 for an equidistributed angle;
    # measured, with a loose window
    assert 0.6 < rep.accepted_fraction < 0.73
    assert 1.3 < rep.lambda_estimate < 1.7


def test_oscillation_holds_no_index_list():
    # the shipped golden instance at horizon 1e5: its accepted indices held
    # as a list and then a tuple peaked at 3.2 MB traced (31 MB at 1e6);
    # the count and the last index alone stay under 256 KB
    from importlib import resources

    doc = json.loads((resources.files("zetaforms.data") / "golden_oscillation.json").read_text())
    omegas, varphis = [float(x) for x in doc["omega"]], [float(x) for x in doc["varphi"]]
    tracemalloc.start()
    try:
        rep = oscillation_subsequence(omegas, varphis, float(doc["eps"]), 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.count, rep.last) == (66667, 99999)       # as the index list gave
    assert peak < 256 * 1024, f"oscillation_subsequence peaked at {peak // 1024} KB"


def test_oscillation_failure():
    with pytest.raises(ArithmeticError):
        oscillation_subsequence([0.0], [math.pi / 2], 0.5, 50)


def test_permutation_check_randomized_suite_small():
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randint(2, 5)
        table, phi, n0 = random_smallness_table(rng, k)
        rep = permutation_product_check(table, phi, n0, k)
        assert rep.hypothesis_ok, rep.hypothesis_violations[:3]
        assert rep.conclusion_holds


def _old_entry_table(seed: int, k: int):
    """random_smallness_table's parameters and entries as first written:
    each entry 2^{-n tau_j} (1 + jitter/1024) as a Fraction product, drawing
    from the RNG in the same order.  Returns (entries, gap, n0)."""
    rng = random.Random(seed)
    taus = []
    t = rng.randint(1, 4)
    for _ in range(k):
        taus.append(t)
        t += rng.randint(1, 3)
    taus.reverse()
    need = int(math.log2(math.factorial(k + 1))) + 3
    gap = need + rng.randint(2, 6)
    support = [1 + i * gap for i in range(k)]
    support += [support[-1] + 1, support[-1] + gap]
    eps = {}
    for j in range(1, k + 1):
        for n in support:
            jitter = Fraction(rng.randint(0, 255), 1024)
            eps[(j, n)] = Fraction(1, 2 ** (n * taus[j - 1])) * (1 + jitter)
    return eps, gap, 1


def test_random_smallness_table_entries_unchanged():
    for seed in range(40):
        for k in (1, 2, 3, 5):
            old, gap, n0_old = _old_entry_table(seed, k)
            table, phi, n0 = random_smallness_table(random.Random(seed), k)
            assert table == EpsTable(k=k, eps=_pairs(old)) and table.eps == _pairs(old)
            assert all(math.gcd(p, q) == 1 for p, q in table.eps.values())
            assert n0 == n0_old
            assert all(phi(n) == n + gap for n in table.support())


def test_permutation_check_equals_fraction_oracle():
    rng = random.Random(5150)
    counts = {}
    for _ in range(2000):
        k = rng.randint(2, 5)
        table, phi, n0 = random_smallness_table(rng, k)
        rep = permutation_product_check(table, phi, n0, k)
        assert rep == permutation_product_oracle(table, phi, n0, k)
        counts[k] = counts.get(k, 0) + 1
    assert sorted(counts) == [2, 3, 4, 5]


def test_permutation_check_equals_oracle_on_perturbed_tables():
    # every entry times a random p/q with p, q < 2^40 and random bit sizes,
    # so that hypothesis violations and failing rows both occur
    rng = random.Random(8128)
    failed_rows = violated = passed = 0
    for _ in range(500):
        k = rng.randint(2, 5)
        table, phi, n0 = random_smallness_table(rng, k)
        eps = {key: Fraction(*v) * Fraction(rng.randrange(1, 2 ** rng.randint(1, 40)),
                                            rng.randrange(1, 2 ** rng.randint(1, 40)))
               for key, v in table.eps.items()}
        table = EpsTable(k=k, eps=_pairs(eps))
        rep = permutation_product_check(table, phi, n0, k)
        assert rep == permutation_product_oracle(table, phi, n0, k)
        failed_rows += not rep.conclusion_holds
        violated += not rep.hypothesis_ok
        passed += rep.passed
    assert failed_rows and violated and passed


def _bound_table(bump: Fraction = Fraction(0)) -> EpsTable:
    # k = 2, phi(n) = n + 1: the swapped product eps_{1,2} eps_{2,1} equals
    # (1/3!) eps_{1,1} eps_{2,2} exactly, times (1 + bump)
    e11, e22, e21 = Fraction(5, 7), Fraction(11, 13), Fraction(3, 2)
    e12 = e11 * e22 / (6 * e21) * (1 + bump)
    return EpsTable(k=2, eps=_pairs({(1, 1): e11, (2, 1): e21, (1, 2): e12, (2, 2): e22}))


def test_permutation_check_equality_at_the_bound_passes():
    rep = permutation_product_check(_bound_table(), lambda n: n + 1, 1, 2)
    assert rep.rows == (((1, 2), True, Fraction(1)), ((2, 1), True, Fraction(1, 6)))
    assert rep.hypothesis_ok and rep.passed


def test_permutation_check_just_past_the_bound_fails():
    table = _bound_table(Fraction(1, 2 ** 200))
    assert float(Fraction(*table.eps[(1, 2)])) == float(Fraction(*_bound_table().eps[(1, 2)]))
    rep = permutation_product_check(table, lambda n: n + 1, 1, 2)
    assert rep.rows == (((1, 2), True, Fraction(1)), ((2, 1), False, Fraction(1, 6)))
    assert rep.hypothesis_violations == ({"i": 1, "n": 1, "n_prime": 2},)
    assert not rep.conclusion_holds and not rep.passed
    assert rep == permutation_product_oracle(table, lambda n: n + 1, 1, 2)


def test_permutation_check_one_unit_past_the_bound_fails():
    # integer entries: the swapped product 2 is one unit past diag // 3! = 1
    table = EpsTable(k=2, eps=_pairs({(1, 1): 6, (2, 1): 1, (1, 2): 2, (2, 2): 1}))
    rep = permutation_product_check(table, lambda n: n + 1, 1, 2)
    assert rep.rows == (((1, 2), True, Fraction(1)), ((2, 1), False, Fraction(1, 6)))
    assert rep == permutation_product_oracle(table, lambda n: n + 1, 1, 2)


@pytest.fixture
def exact_calls(monkeypatch):
    """Every (lhs, rhs) that criterion multiplies out, in call order."""
    seen = []
    multiply = criterion._exceeds

    def spy(lhs, rhs):
        seen.append((tuple(lhs), tuple(rhs)))
        return multiply(lhs, rhs)

    monkeypatch.setattr(criterion, "_exceeds", spy)
    return seen


def _extremes(total: int, parts: int, top: bool) -> list[int]:
    """``parts`` integers whose bit lengths are as even as possible and sum
    to ``total``: the largest of each length if ``top``, else the least."""
    q, r = divmod(total, parts)
    return [(1 << c) - 1 if top else 1 << (c - 1) for c in (q + (i < r) for i in range(parts))]


def _ones_table(k: int) -> dict:
    return {(j, m): 1 for j in range(1, k + 1) for m in range(1, k + 1)}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_permutation_rows_at_the_bit_length_edges(k, exact_calls):
    # integer entries, phi(n) = n + 1: eps_{1,1} = (k+1)! 2^(L-1) and the
    # other entries 1 but those of the cycle sigma = (2, 3, .., k, 1), so
    # that limit = 2^(L-1) has L bits and sigma's k entries have bit lengths
    # summing to b.  Only L <= b <= L + k - 1 may be multiplied out.
    L = 10 * k + 1
    cycle = tuple(range(2, k + 1)) + (1,)
    cases = [  # (b, largest entries, row holds, multiplied out)
        (L - 1, True, True, False), (L - 1, False, True, False),
        (L, True, False, True), (L, False, True, True),
        (L + k - 1, True, False, True), (L + k - 1, False, True, True),
        (L + k, True, False, False), (L + k, False, False, False),
    ]
    for b, top, holds, multiplied in cases:
        entries = _extremes(b, k, top)
        eps = _ones_table(k)
        eps[(1, 1)] = math.factorial(k + 1) << (L - 1)
        eps.update({(j, s): x for j, s, x in zip(range(1, k + 1), cycle, entries)})
        table = EpsTable(k=k, eps=_pairs(eps))
        exact_calls.clear()
        rep = permutation_product_check(table, lambda n: n + 1, 1, k)
        assert rep == permutation_product_oracle(table, lambda n: n + 1, 1, k)
        assert {sigma: ok for sigma, ok, _eta in rep.rows}[cycle] is holds
        assert ((tuple(entries), (1 << (L - 1),)) in exact_calls) is multiplied


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_hypothesis_comparison_at_the_bit_length_edges(k, exact_calls):
    # integer entries, i = 1, n = 1, n' = 2: a violation is
    # eps_{1,2} eps_{2,1} (k+1)! > eps_{1,1} eps_{2,2}.  The right side's two
    # entries have bit lengths summing to r, the left side's three factors
    # r + offset; only offsets -1 to 2 may be multiplied out.
    fact = math.factorial(k + 1)
    r = 40
    cases = [  # (offset, largest left and least right, violated, multiplied out)
        (-2, True, False, False), (-2, False, False, False),
        (-1, True, True, True), (-1, False, False, True),
        (2, True, True, True), (2, False, False, True),
        (3, True, True, False), (3, False, True, False),
    ]
    for offset, top, violated, multiplied in cases:
        e12, e21 = _extremes(r + offset - fact.bit_length(), 2, top)
        e11, e22 = _extremes(r, 2, not top)
        eps = _ones_table(k)
        eps.update({(1, 1): e11, (2, 2): e22, (1, 2): e12, (2, 1): e21})
        table = EpsTable(k=k, eps=_pairs(eps))
        exact_calls.clear()
        found = table.hypothesis_violations(lambda n: n + 1)
        oracle = permutation_product_oracle(table, lambda n: n + 1, 1, k)
        assert found == list(oracle.hypothesis_violations)
        assert ({"i": 1, "n": 1, "n_prime": 2} in found) is violated
        assert (((e12, e21, fact), (e11, e22)) in exact_calls) is multiplied


def test_bit_length_bounds_decide_nearly_every_row_and_comparison(exact_calls):
    # a check that multiplies out every row or comparison fails here
    rng = random.Random(4242)
    decisions = 0
    for _ in range(2000):
        k = rng.randint(2, 5)
        table, phi, n0 = random_smallness_table(rng, k)
        rep = permutation_product_check(table, phi, n0, k)
        ns = table.support()
        decisions += len(rep.rows) - 1 + (k - 1) * sum(m >= phi(n) for n in ns for m in ns)
    assert decisions > 100_000
    assert len(exact_calls) * 1000 < decisions


def test_permutation_check_missing_entry_is_value_error():
    table = EpsTable(k=2, eps=_pairs({(1, 1): Fraction(1, 2), (2, 1): Fraction(1, 4),
                                      (1, 2): Fraction(1, 8)}))
    with pytest.raises(ValueError, match=r"eps_\(2,2\)"):
        permutation_product_check(table, lambda n: n + 1, 1, 2)


@pytest.mark.parametrize("bad", [(0, 1), (-1, 8), (1, -8), (1, 0)])
def test_permutation_check_nonpositive_entry_on_chain(bad):
    # (1, -8) has a positive numerator but the value -1/8
    table = EpsTable(k=2, eps={(1, 1): (1, 2), (2, 1): (1, 4), (1, 2): (1, 8), (2, 2): bad})
    with pytest.raises(ValueError, match=r"eps_\(2,2\) must be positive"):
        permutation_product_check(table, lambda n: n + 1, 1, 2)


def test_permutation_check_reads_int_and_float_entries_exactly():
    exact = {(1, 1): Fraction(1, 2), (2, 1): Fraction(1, 4), (1, 2): Fraction(1, 64),
             (2, 2): Fraction(1)}
    mixed = EpsTable(k=2, eps=_pairs({(1, 1): 0.5, (2, 1): Fraction(1, 4), (1, 2): 2.0 ** -6,
                                      (2, 2): 1}))
    phi = lambda n: n + 1
    assert (permutation_product_check(mixed, phi, 1, 2)
            == permutation_product_check(EpsTable(k=2, eps=_pairs(exact)), phi, 1, 2))


def test_coefficient_bound_nonpositive_denominator_is_value_error():
    for bad in ((1, -8), (1, 0), (0, 0)):
        inst = AbstractInstance(k=2, values={(1, 1): (1, 2), (2, 1): bad, (1, 3): (3, 4),
                                             (2, 3): (-5, 1)})
        for check in (coefficient_bound_check, coefficient_bound_oracle):
            with pytest.raises(ValueError, match="positive denominator") as err:
                check(inst, [1, Fraction(-2, 3)], 1, lambda n: n + 2)
            assert not isinstance(err.value, InstanceDefect)


def test_fraction_entries_are_refused():
    # a Fraction where a pair is expected raises, and never yields a report
    eps = {(j, n): Fraction(1, 2 ** (n * (3 - j))) for j in (1, 2) for n in (1, 2)}
    with pytest.raises(TypeError):
        permutation_product_check(EpsTable(k=2, eps=eps), lambda n: n + 1, 1, 2)
    with pytest.raises(TypeError):
        coefficient_bound_check(AbstractInstance(k=2, values=eps), [1, 1], 1, lambda n: n + 1)


def test_generators_and_checks_build_no_fraction_per_entry(monkeypatch):
    # every Fraction criterion builds is counted: the generators build none,
    # a permutation check only its two etas, a coefficient check one per
    # lambda and one per bound
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(criterion, "Fraction", counted)
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randint(2, 5)
        table, phi, n0 = random_smallness_table(rng, k)
        assert not made
        rep = permutation_product_check(table, phi, n0, k)
        assert rep.passed and len(made) == 2
        made.clear()
    rng = random.Random(9)
    for _ in range(200):
        k = rng.randint(1, 4)
        inst, phi, n0 = random_signed_instance(rng, k)
        assert not made
        lambdas = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(k)]
        assert coefficient_bound_check(inst, lambdas, n0, phi).passed
        assert len(made) == 2 * k
        made.clear()
