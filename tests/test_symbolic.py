import random
from fractions import Fraction

import pytest

from oracles import rational_rank_oracle
from zetaforms import symbolic
from zetaforms.exact_kernel import Echelon
from zetaforms.symbolic import (
    SymbolField,
    entry,
    generate_test_vector,
    gutnik_log2_columns,
    gutnik_zeta34_columns,
    polylog_pair_columns,
    rational_rank,
    scalar_rank,
    zeta_pair_columns,
)


def test_symbol_field_validation():
    with pytest.raises(ValueError):
        SymbolField(symbols=("a", "a", "1"))
    with pytest.raises(ValueError):
        SymbolField(symbols=("a", "b"))
    SymbolField(symbols=("1", "x"))


def test_canonical_basis_doubled_has_rank_k():
    fld = SymbolField(symbols=("1",))
    k = 3
    cols = []
    for rep in range(2):
        for j in range(k):
            col = [{} for _ in range(k)]
            col[j] = entry(one=1)
            cols.append(col)
    res = rational_rank(cols, fld)
    assert res.rank == k
    assert res.routes_agree
    assert len(res.kernel_basis) == 2 * k - k


def test_gutnik_fixtures_rank_4():
    for cols, fld in (gutnik_log2_columns(), gutnik_zeta34_columns()):
        res = rational_rank(cols, fld)
        assert res.rank == 4
        assert res.routes_agree


def test_polylog_pair_family_full_rank():
    for k in (1, 2, 3, 4):
        cols, fld = polylog_pair_columns(k)
        assert len(cols) == 2 * k
        res = rational_rank(cols, fld)
        assert res.rank == 2 * k


def test_zeta_pair_columns_rank_under_full_independence():
    # (a+3)/2 columns, all independent when every zeta symbol is formal
    for a in (7, 9, 11):
        cols, fld = zeta_pair_columns(a)
        assert len(cols) == (a + 3) // 2
        res = rational_rank(cols, fld)
        assert res.rank == (a + 3) // 2


def test_rational_rank_rejects_unknown_symbols():
    fld = SymbolField(symbols=("1",))
    with pytest.raises(ValueError):
        rational_rank([[{"ghost": Fraction(1)}]], fld)


def test_scalar_rank():
    fld = SymbolField(symbols=("1", "x"))
    vals = [entry(one=1), entry(x=1), entry(one=2, x=3), entry(one=-1)]
    assert scalar_rank(vals, fld) == 2


def test_two_routes_agree_on_random_symbolic_matrices():
    rng = random.Random(41)
    for _ in range(150):
        k = rng.randint(1, 4)
        p = rng.randint(1, 8)
        nsym = rng.randint(1, 3)
        fld = SymbolField(symbols=("1",) + tuple(f"s{i}" for i in range(1, nsym)))
        cols = []
        for _ in range(p):
            col = []
            for _ in range(k):
                ent = {}
                for s in fld.symbols:
                    if rng.random() < 0.4:
                        v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        if v:
                            ent[s] = v
                col.append(ent)
            cols.append(col)
        res = rational_rank(cols, fld)
        assert res.routes_agree
        # cross-check against an independent float-rank when entries allow
        assert 0 <= res.rank <= min(p, k * len(fld.symbols))


def _random_columns(rng):
    """Columns with zero entries kept, empty entries and empty columns,
    and now and then one column a rational combination of two others."""
    k, p, nsym = rng.randint(1, 4), rng.randint(1, 8), rng.randint(1, 4)
    fld = SymbolField(symbols=("1",) + tuple(f"s{i}" for i in range(1, nsym)))
    cols = [[{s: Fraction(rng.randint(-6, 6), rng.randint(1, 12))
              for s in fld.symbols if rng.random() < 0.35}
             for _ in range(k)] for _ in range(p)]
    if p >= 3 and rng.random() < 0.3:
        a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(1, 5), 3)
        cols[-1] = [{s: a * ca.get(s, 0) + b * cb.get(s, 0) for s in set(ca) | set(cb)}
                    for ca, cb in zip(cols[0], cols[1])]
    return cols, fld


def test_rational_rank_equals_fraction_oracle():
    rng = random.Random(2718)
    seen = {"p=1": 0, "zero entry": 0, "all-zero row": 0, "kernel": 0}
    for _ in range(2000):
        cols, fld = _random_columns(rng)
        res = rational_rank(cols, fld)
        assert res == rational_rank_oracle(cols, fld)
        seen["p=1"] += len(cols) == 1
        seen["zero entry"] += any(v == 0 for col in cols for ent in col for v in ent.values())
        seen["all-zero row"] += any(not any(col[c].get(s) for col in cols)
                                    for c in range(len(cols[0])) for s in fld.symbols)
        seen["kernel"] += bool(res.kernel_basis)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("cols", [
    [[{}]],                                          # p = 1, the zero column
    [[{"1": Fraction(0)}, {}]],                      # p = 1, an explicit zero entry
    [[{"1": Fraction(-3, 4)}, {"x": Fraction(5, 6)}]],
    [[{}, {}], [{}, {}], [{}, {}]],                  # the zero matrix
    [[{"1": Fraction(1, 2)}, {}], [{"1": Fraction(0)}, {}], [{"1": Fraction(-1, 3)}, {}]],
])
def test_rational_rank_edge_cases_equal_fraction_oracle(cols):
    fld = SymbolField(symbols=("1", "x"))
    assert rational_rank(cols, fld) == rational_rank_oracle(cols, fld)


def test_rational_rank_rejects_columns_of_unequal_dimension():
    fld = SymbolField(symbols=("1",))
    with pytest.raises(ValueError, match="same dimension"):
        rational_rank([[{}, {}], [{}]], fld)


def test_kernel_reverification_fails_on_an_off_by_one_reduced_entry(monkeypatch):
    # e_1, e_2, e_1 + e_2 / 3: the free column's reduced entry in the first
    # pivot row, raised by one, gives a vector that is not in the kernel
    fld = SymbolField(symbols=("1",))
    cols = [[entry(one=1), {}], [{}, entry(one=1)], [entry(one=1), entry(one=Fraction(1, 3))]]
    assert len(rational_rank(cols, fld).kernel_basis) == 1
    real = symbolic.echelon

    def off_by_one(rows):
        ech = real(rows)
        bent = [list(row) for row in ech.rows]
        bent[0][2] += 1
        return Echelon(ech.rank, ech.pivots, bent, ech.scale, ech.det)

    monkeypatch.setattr(symbolic, "echelon", off_by_one)
    with pytest.raises(ArithmeticError, match="kernel vector fails re-verification"):
        rational_rank(cols, fld)


def test_generate_test_vector_spec_cases():
    r1 = generate_test_vector(7, 2, 3)
    assert (r1.i, r1.j) == (3, 3)
    assert (r1.n_verified, r1.N_verified) == (2, 3)
    r2 = generate_test_vector(9, 2, 5)
    assert (r2.i, r2.j) == (3, 7)
    assert (r2.n_verified, r2.N_verified) == (2, 5)


def test_generate_test_vector_boundaries():
    ok = generate_test_vector(7, 2, 5)       # N = 2n+1 accepted
    assert ok.verified
    with pytest.raises(ValueError):
        generate_test_vector(7, 2, 6)        # N = 2n+2 rejected
    with pytest.raises(ValueError):
        generate_test_vector(7, 2, 2)        # N < n+1 rejected
    with pytest.raises(ValueError):
        generate_test_vector(7, 4, 6)        # N > (a+3)/2 rejected


def test_generate_test_vector_all_admissible_ranges_hold_bounds():
    for a in (7, 9):
        for n in range(1, (a + 1) // 2 + 1):
            for N in range(n + 1, min(2 * n + 1, (a + 3) // 2) + 1):
                res = generate_test_vector(a, n, N)
                assert res.verified
                assert res.n_verified + 1 <= res.N_verified <= 2 * res.n_verified + 1
