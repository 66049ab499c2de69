"""Exact rational rank over formal symbol bases.

Vectors live in R^k with entries that are exact rational combinations of
named symbols assumed Q-linearly independent ("1" always among them).
The Q-rank of columns C_1..C_p equals the rank of the Q-linear map
psi(r_1..r_p) = sum r_i C_i, realized as an exact matrix over Q with one
row per (coordinate, symbol) pair.  Each row is scaled to integers, from
its entries' numerators and denominators, and reduced by the one
fraction-free elimination of ``exact_kernel``; a nonzero scale per row
keeps each row's zero set, so the rank and kernel are those over Q.  The
pivot count and p minus the size of the kernel basis read off the reduced
rows come from that one elimination, so they agree by construction; the
independent check is that every kernel vector, as an integer vector, is
re-verified exactly against the entries, each row put over its own
denominator apart from the scaling the elimination was given.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm, prod
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


def _entry_rows(columns: Sequence[SymVector],
                fld: SymbolField) -> list[list[tuple[int, int, int]]]:
    """One row per (coordinate, symbol) pair: the (column, numerator,
    denominator) of each entry present, in column order."""
    k = len(columns[0])
    index = {s: i for i, s in enumerate(fld.symbols)}
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(k * len(index))]
    for c, col in enumerate(columns):
        if len(col) != k:
            raise ValueError("columns must share the same dimension")
        for coord, ent in enumerate(col):
            for s, x in ent.items():
                i = index.get(s)
                if i is None:
                    raise ValueError(f"entry uses unknown symbol {s!r}")
                rows[coord * len(index) + i].append((c, x.numerator, x.denominator))
    return rows


@dataclass(frozen=True)
class RankResult:
    rank: int
    rank_via_pivots: int
    rank_via_kernel: int
    kernel_basis: tuple[tuple[Fraction, ...], ...]

    @property
    def routes_agree(self) -> bool:
        return self.rank_via_pivots == self.rank_via_kernel


def rational_rank(columns: Sequence[SymVector], fld: SymbolField) -> RankResult:
    """Q-rank of the columns, with a kernel basis checked exactly.

    The (coordinate x symbol) by column matrix is scaled row by row to
    integers, each row by the lcm of its entries' denominators, and
    reduced once.  Scaling a row by a nonzero integer keeps its zero set
    {v : row . v = 0}, so the rank, pivots and kernel are those of the
    rational matrix.  The rank is the pivot count.  Each kernel vector is
    read off the reduced rows as the integer vector w = scale v, and
    w . row = 0 iff v . row = 0, so w is re-verified on integers against
    the entries, each row put over the product of its own denominators
    (not the elimination's scaling), before the one division by scale.
    The rank is also the dimension of the smallest rationally defined
    subspace containing the row vectors.
    """
    p = len(columns)
    if p == 0:
        raise ValueError("need at least one column")
    entries = _entry_rows(columns, fld)
    scaled = []
    for row in entries:
        den = lcm(*(d for _c, _n, d in row))
        out = [0] * p
        for c, n, d in row:
            out[c] = n * (den // d)
        scaled.append(out)
    ech = echelon(scaled)
    rank, pivots, scale = ech.rank, ech.pivots, ech.scale
    free_cols = [c for c in range(p) if c not in pivots]
    checks = []
    if free_cols:
        for row in entries:
            den = prod(d for _c, _n, d in row)
            checks.append([(c, n * (den // d)) for c, n, d in row])
    kernel = []
    for fc in free_cols:
        w = [0] * p
        w[fc] = scale
        for rr, pc in enumerate(pivots):
            w[pc] = -ech.rows[rr][fc]
        if any(sum(n * w[c] for c, n in row) for row in checks):
            raise ArithmeticError("kernel vector fails re-verification")
        kernel.append(tuple(Fraction(x, scale) for x in w))
    return RankResult(rank=rank, rank_via_pivots=rank,
                      rank_via_kernel=p - len(kernel),
                      kernel_basis=tuple(kernel))


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
