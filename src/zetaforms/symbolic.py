"""Exact rational rank over formal symbol bases.

Vectors live in R^k with entries that are exact rational combinations of
named symbols assumed Q-linearly independent ("1" always among them).
The Q-rank of columns C_1..C_p equals the rank of the Q-linear map
psi(r_1..r_p) = sum r_i C_i, realized as an exact matrix over Q with one
row per (coordinate, symbol) pair.  Each row is scaled to integers and
reduced by the one fraction-free elimination of ``exact_kernel``.  The
pivot count and p minus the size of the kernel basis read off the reduced
rows come from that one elimination, so they agree by construction; the
independent check is that every kernel vector is re-verified exactly
against the original rational matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Sequence

from .exact_kernel import echelon

SymEntry = dict[str, Fraction]          # symbol -> coefficient
SymVector = list[SymEntry]              # one entry per coordinate


@dataclass(frozen=True)
class SymbolField:
    """Ordered list of formal basis symbols, with optional numeric display
    bindings.  Symbol "1" is always present."""

    symbols: tuple[str, ...]
    values: dict = field(hash=False, default_factory=dict)

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("symbol names must be unique")
        if "1" not in self.symbols:
            raise ValueError('symbol "1" must be present')
        for s in self.values:
            if s not in self.symbols:
                raise ValueError(f"binding for unknown symbol {s!r}")


def entry(**coeffs) -> SymEntry:
    """Convenience builder: entry(one=1, zeta3=-2) with 'one' aliasing '1'."""
    out: SymEntry = {}
    for k, v in coeffs.items():
        name = "1" if k == "one" else k
        v = Fraction(v)
        if v:
            out[name] = v
    return out


def _as_matrix(columns: Sequence[SymVector], fld: SymbolField) -> list[list[Fraction]]:
    k = len(columns[0])
    for col in columns:
        if len(col) != k:
            raise ValueError("columns must share the same dimension")
        for ent in col:
            for s in ent:
                if s not in fld.symbols:
                    raise ValueError(f"entry uses unknown symbol {s!r}")
    rows = []
    for coord in range(k):
        for s in fld.symbols:
            rows.append([col[coord].get(s, Fraction(0)) for col in columns])
    return rows


@dataclass(frozen=True)
class RankResult:
    rank: int
    rank_via_pivots: int
    rank_via_kernel: int
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    minimal_subspace_dim: int

    @property
    def routes_agree(self) -> bool:
        return self.rank_via_pivots == self.rank_via_kernel


def rational_rank(columns: Sequence[SymVector], fld: SymbolField) -> RankResult:
    """Q-rank of the columns, with a kernel basis checked exactly.

    The (coordinate x symbol) by column matrix is scaled row by row to
    integers, which keeps its rank, pivots and kernel, and reduced once.
    The rank is the pivot count; the kernel basis is read off the reduced
    rows, and each vector is re-verified against the original rational
    matrix.  The rank is also the dimension of the smallest rationally
    defined subspace containing the row vectors.
    """
    p = len(columns)
    if p == 0:
        raise ValueError("need at least one column")
    original = _as_matrix(columns, fld)
    scaled = []
    for row in original:
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    ech = echelon(scaled)
    rank, pivots = ech.rank, ech.pivots
    free_cols = [c for c in range(p) if c not in pivots]
    kernel = []
    for fc in free_cols:
        v = [Fraction(0)] * p
        v[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            v[pc] = Fraction(-ech.rows[rr][fc], ech.scale)
        for row in original:
            s = sum((row[c] * v[c] for c in range(p)), Fraction(0))
            if s != 0:
                raise ArithmeticError("kernel vector fails re-verification")
        kernel.append(tuple(v))
    rank_kernel = p - len(kernel)
    if rank != rank_kernel:
        raise ArithmeticError(
            f"rank routes disagree: pivots={rank}, kernel={rank_kernel}")
    return RankResult(rank=rank, rank_via_pivots=rank,
                      rank_via_kernel=rank_kernel,
                      kernel_basis=tuple(kernel),
                      minimal_subspace_dim=rank)


def scalar_rank(values: Sequence[SymEntry], fld: SymbolField) -> int:
    """Q-dimension of the span of scalars (k = 1 case)."""
    return rational_rank([[v] for v in values], fld).rank


# ---------------------------------------------------------------------------
# Paired zeta-style columns and the test-vector generator


def paired_columns(xi: dict[int, SymEntry], a: int) -> list[SymVector]:
    """Columns (1,0), (0,1), then (xi_m, C(m+1,2) xi_{m+2}) for odd m <= a."""
    cols: list[SymVector] = [
        [entry(one=1), {}],
        [{}, entry(one=1)],
    ]
    for m in range(3, a + 1, 2):
        second = {s: comb(m + 1, 2) * v for s, v in xi.get(m + 2, {}).items()}
        cols.append([dict(xi.get(m, {})), second])
    return cols


@dataclass(frozen=True)
class TestVectorResult:
    a: int
    n_requested: int
    N_requested: int
    i: int
    j: int
    patched: bool
    field_: SymbolField
    xi: dict = field(hash=False)          # odd index 3..a+2 -> SymEntry
    n_verified: int = 0
    N_verified: int = 0

    @property
    def verified(self) -> bool:
        return (self.n_verified, self.N_verified) == (self.n_requested, self.N_requested)


def generate_test_vector(a: int, n: int, N: int) -> TestVectorResult:
    """Build xi with prescribed scalar rank n and paired rank N.

    Recipe: with i = 2n-1 and j = 2N-3, take fresh symbols xi_3..xi_i,
    then the periodic tail xi_{i+2} = 1, xi_{i+4} = xi_3, ..., xi_j, then
    zeros.  At several boundary configurations the truncated period makes
    one paired column degenerate and the paired rank lands at N-1; in
    that case the final slot xi_{a+2} is set to a fresh symbol (invisible
    to the scalar rank, which only reads up to xi_a), restoring the
    missing dimension.  Both ranks are re-verified exactly either way.
    """
    if a < 3 or a % 2 == 0:
        raise ValueError("need odd a >= 3")
    if not (1 <= n and n + 1 <= N <= 2 * n + 1):
        raise ValueError(f"need n+1 <= N <= 2n+1, got n={n}, N={N}")
    if N > (a + 3) // 2:
        raise ValueError(f"need N <= (a+3)/2 = {(a + 3) // 2}")
    i, j = 2 * n - 1, 2 * N - 3
    if i > a:
        raise ValueError(f"n too large for a: i = 2n-1 = {i} > a")

    def build(patch: bool):
        syms = ["1"] + [f"x{m}" for m in range(3, i + 1, 2)]
        xi: dict[int, SymEntry] = {}
        for m in range(3, i + 1, 2):
            xi[m] = {f"x{m}": Fraction(1)}
        if j >= i + 2:
            for m in range(i + 2, j + 1, 2):
                src = m - i - 1
                xi[m] = entry(one=1) if src == 1 else dict(xi[src])
        for m in range(j + 2, a + 3, 2):
            xi[m] = {}
        if patch:
            syms.append("y")
            xi[a + 2] = {"y": Fraction(1)}
        fld = SymbolField(symbols=tuple(syms))
        scal = [entry(one=1)] + [xi[m] for m in range(3, a + 1, 2)]
        n_v = scalar_rank(scal, fld)
        N_v = rational_rank(paired_columns(xi, a), fld).rank
        return xi, fld, n_v, N_v

    xi, fld, n_v, N_v = build(patch=False)
    patched = False
    if (n_v, N_v) != (n, N):
        if (n_v, N_v) == (n, N - 1):
            xi, fld, n_v, N_v = build(patch=True)
            patched = True
        if (n_v, N_v) != (n, N):
            raise ArithmeticError(
                f"construction failed for (a={a}, n={n}, N={N}): got ({n_v}, {N_v})")
    return TestVectorResult(a=a, n_requested=n, N_requested=N, i=i, j=j,
                            patched=patched, field_=fld, xi=xi,
                            n_verified=n_v, N_verified=N_v)


# ---------------------------------------------------------------------------
# Shipped vector families


def gutnik_log2_columns() -> tuple[list[SymVector], SymbolField]:
    """(1,0), (0,1), (-2 log 2, zeta2), (zeta2, -3 zeta3)."""
    fld = SymbolField(symbols=("1", "log2", "zeta2", "zeta3"))
    cols = [
        [entry(one=1), {}],
        [{}, entry(one=1)],
        [entry(log2=-2), entry(zeta2=1)],
        [entry(zeta2=1), entry(zeta3=-3)],
    ]
    return cols, fld


def gutnik_zeta34_columns() -> tuple[list[SymVector], SymbolField]:
    """(1,0), (0,1), (2 zeta3, 3 zeta4), (3 zeta4, 6 zeta5)."""
    fld = SymbolField(symbols=("1", "zeta3", "zeta4", "zeta5"))
    cols = [
        [entry(one=1), {}],
        [{}, entry(one=1)],
        [entry(zeta3=2), entry(zeta4=3)],
        [entry(zeta4=3), entry(zeta5=6)],
    ]
    return cols, fld


def polylog_pair_columns(kdim: int) -> tuple[list[SymVector], SymbolField]:
    """The 2k-column polylogarithm family in R^k: the canonical basis then
    columns j = 1..k with rows C(j-1+t, j-1) Li_{j+t} for t = 0..k-1."""
    if kdim < 1:
        raise ValueError("need k >= 1")
    syms = ("1",) + tuple(f"Li{s}" for s in range(1, 2 * kdim))
    fld = SymbolField(symbols=syms)
    cols: list[SymVector] = []
    for jj in range(kdim):
        col: SymVector = [{} for _ in range(kdim)]
        col[jj] = entry(one=1)
        cols.append(col)
    for jcol in range(1, kdim + 1):
        col = []
        for t in range(kdim):
            col.append({f"Li{jcol + t}": Fraction(comb(jcol - 1 + t, jcol - 1))})
        cols.append(col)
    return cols, fld


def zeta_pair_columns(a: int) -> tuple[list[SymVector], SymbolField]:
    """(1,0), (0,1), (zeta_i, C(i+1,2) zeta_{i+2}) for odd i in [3, a],
    all zeta symbols formal and independent."""
    if a < 3 or a % 2 == 0:
        raise ValueError("need odd a >= 3")
    syms = ("1",) + tuple(f"zeta{s}" for s in range(3, a + 3, 2))
    fld = SymbolField(symbols=syms)
    xi = {m: {f"zeta{m}": Fraction(1)} for m in range(3, a + 3, 2)}
    return paired_columns(xi, a), fld
