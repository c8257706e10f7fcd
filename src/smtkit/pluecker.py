"""Type-A concretization: Grassmannian and SL(n)/B minors over exact arithmetic.

Plücker conventions.  A point of Gr(r, n) is the row space of an r x n
matrix; p_I is the determinant of the r x r submatrix on columns I (rows in
order).  Indices are 1-based strictly increasing tuples, ordered
componentwise.  Internally a point sample is stored transposed (an n x r
matrix whose columns span the subspace), so p_I is the minor on rows I.

Symbolic layer.  A monomial of a product of two minors in the r x n generic
matrix entries takes two entries from each row, so polynomials are sparse
dicts keyed by one sorted (a, b) column pair per row.  Lex order on the
entries (row-major) is the reverse of tuple order on these keys: the
lex-leading monomial of p_I p_J is its least key, the "double diagonal"
x_{1,min} ... x_{r,max}, whose a's and b's are the standard pair (I', J')
it determines.  Straightening therefore solves the linear system in
monomial-coefficient space by unit-triangular elimination: repeatedly
subtract the standard product whose leading monomial matches, until the
remainder is exactly zero.  Coefficients stay integers, and a decode
failure would mean the "system" is singular, i.e. a bug.

Randomized layer.  Points of a Schubert variety are sampled as products of
one-parameter unipotents u_i(t) s_i along a reduced word, over the one field
F_p, p = MERSENNE_PRIME = 2^31 - 1 (Schwartz-Zippel style, seeded and
reproducible), applied to the n x r identity slab; each factor rewrites two
rows.  Opposite Schubert varieties are sampled through the longest-element
twist.  A sample computes its whole Plücker coordinate vector once, by a
Laplace recursion planned per (n, r), so a chain's value is a product of
lookups.  A rank check inserts rows one at a time into an echelon basis
whose rows are packed into one int each, with slots wide enough that
clearing a pivot never carries between columns.  A row is built from the
sample's coordinates by prefix products along the lexicographic chain
order, and a point is drawn only when its row is read, so a check that
reads no other coordinate (the top cell, or degree 0) stops drawing at
full rank.  The vanishing check reads coordinates, not chains.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

__all__ = [
    "PlueckerIndex",
    "StraighteningRelation",
    "index_leq",
    "all_indices",
    "standard_monomials_grassmann",
    "standard_chain_count",
    "straighten",
    "relation_residual",
    "schubert_point_sample",
    "PointSample",
    "rank_mod_p",
    "verify_hodge_i",
    "verify_hodge_iii",
    "sample_flag_point",
    "flag_monomial_evaluate",
    "perm_from_word",
    "MERSENNE_PRIME",
]

MERSENNE_PRIME = 2**31 - 1

PlueckerIndex = tuple[int, ...]


def _check_index(I, r: int, n: int) -> PlueckerIndex:
    I = tuple(int(i) for i in I)
    if len(I) != r:
        raise ValueError(f"index {I} does not have {r} entries")
    if any(not 1 <= i <= n for i in I):
        raise ValueError(f"index {I} has an entry outside 1..{n}")
    if any(a >= b for a, b in zip(I, I[1:])):
        raise ValueError(f"index {I} is not strictly increasing")
    return I


def index_leq(I: PlueckerIndex, J: PlueckerIndex) -> bool:
    """Componentwise order: i_1 <= j_1, ..., i_r <= j_r."""
    if len(I) != len(J):
        raise ValueError("indices of different shape are incomparable")
    return all(a <= b for a, b in zip(I, J))


def all_indices(r: int, n: int) -> list[PlueckerIndex]:
    return [tuple(c) for c in itertools.combinations(range(1, n + 1), r)]


def standard_monomials_grassmann(r: int, n: int, m: int) -> list[tuple[PlueckerIndex, ...]]:
    """All weakly increasing chains I_1 <= ... <= I_m, in lexicographic order."""
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")
    if m < 0:
        raise ValueError("degree must be nonnegative")
    indices = all_indices(r, n)
    chains: list[tuple[PlueckerIndex, ...]] = [()]
    for _ in range(m):
        chains = [
            ch + (J,)
            for ch in chains
            for J in indices
            if not ch or index_leq(ch[-1], J)
        ]
    return chains


def standard_chain_count(r: int, n: int, m: int) -> int:
    """len(standard_monomials_grassmann(r, n, m)), without enumerating.

    A chain I_1 <= ... <= I_m is a semistandard tableau of the r x m
    rectangle with entries in 1..n, so the hook-content formula counts it:
    the product over cells (i, j) of (n + j - i) / hook(i, j).
    """
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")
    if m < 0:
        raise ValueError("degree must be nonnegative")
    num = den = 1
    for i in range(r):
        for j in range(m):
            num *= n + j - i
            den *= (m - j) + (r - i) - 1
    return num // den


# ---------------------------------------------------------------------------
# exact polynomials in the r x n generic matrix entries
# ---------------------------------------------------------------------------

Poly = dict[tuple[tuple[int, int], ...], int]


def _poly_sub_scaled(a: Poly, b: Poly, c: int) -> Poly:
    """a - c*b, dropping zero terms."""
    out = dict(a)
    for mono, coeff in b.items():
        v = out.get(mono, 0) - c * coeff
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)
    return out


@functools.cache
def _minor_terms(I: PlueckerIndex, r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """det of the generic r x r submatrix on columns I: per term, the column
    each row picks, and the term's sign."""
    out = []
    for perm in itertools.permutations(range(r)):
        sign = 1
        for a in range(r):
            for b in range(a + 1, r):
                if perm[a] > perm[b]:
                    sign = -sign
        out.append((tuple(I[i] for i in perm), sign))
    return tuple(out)


def _product(I: PlueckerIndex, J: PlueckerIndex, r: int) -> Poly:
    """p_I p_J in the generic entries, keyed by row-pair monomials."""
    out: Poly = {}
    for cols_i, si in _minor_terms(I, r):
        for cols_j, sj in _minor_terms(J, r):
            mono = tuple((a, b) if a <= b else (b, a) for a, b in zip(cols_i, cols_j))
            v = out.get(mono, 0) + si * sj
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


@dataclass(frozen=True)
class StraighteningRelation:
    """p_I p_J = sum of c * p_{I'} p_{J'} over standard pairs I' <= J'."""

    r: int
    n: int
    lhs: tuple[PlueckerIndex, PlueckerIndex]
    rhs: tuple[tuple[int, tuple[PlueckerIndex, PlueckerIndex]], ...]


def straighten(I, J, r: int, n: int) -> StraighteningRelation:
    """Expand the non-standard product p_I p_J in the standard degree-2 basis.

    The linear system in monomial-coefficient space is unit-triangular with
    respect to lex-leading monomials of standard products, so it is solved by
    direct elimination; the remainder reaching exactly zero IS the polynomial
    identity.  The order condition I' <= I, J <= J' is asserted on the way out.
    """
    I = _check_index(I, r, n)
    J = _check_index(J, r, n)
    if index_leq(I, J) or index_leq(J, I):
        raise ValueError(f"pair ({I}, {J}) is already standard; nothing to straighten")
    residual = _product(I, J, r)
    terms: list[tuple[int, tuple[PlueckerIndex, PlueckerIndex]]] = []
    while residual:
        mono = min(residual)  # the lex-leading monomial
        I2, J2 = zip(*mono)
        if any(a >= b for a, b in zip(I2, I2[1:])) or any(a >= b for a, b in zip(J2, J2[1:])):
            raise AssertionError("leading monomial does not decode to a standard pair")
        c = residual[mono]  # leading coefficient of a standard product is +1
        terms.append((c, (I2, J2)))
        residual = _poly_sub_scaled(residual, _product(I2, J2, r), c)
        if mono in residual:
            raise AssertionError(f"p{I2} p{J2} does not cancel the leading monomial")

    for _c, (I2, J2) in terms:
        if not (index_leq(I2, I) and index_leq(J, J2)):
            raise AssertionError("straightening term violates the order condition")
    return StraighteningRelation(r, n, (I, J), tuple(terms))


def relation_residual(rel: StraighteningRelation) -> Poly:
    """Symbolic re-expansion of lhs - rhs; the zero dict iff the relation is exact."""
    res = _product(*rel.lhs, rel.r)
    for c, (I2, J2) in rel.rhs:
        res = _poly_sub_scaled(res, _product(I2, J2, rel.r), c)
    return res


# ---------------------------------------------------------------------------
# permutations and reduced words (one-line notation, 1-based values)
# ---------------------------------------------------------------------------


def perm_from_word(word, n: int) -> tuple[int, ...]:
    """One-line permutation of 1..n for a word in 0-based simple reflections."""
    p = list(range(1, n + 1))
    for j in word:
        p[j], p[j + 1] = p[j + 1], p[j]
    return tuple(p)


def _reduced_word_of_perm(p) -> tuple[int, ...]:
    """Any reduced word (0-based letters) for a one-line permutation."""
    p = list(p)
    word: list[int] = []
    while True:
        for j in range(len(p) - 1):
            if p[j] > p[j + 1]:
                p[j], p[j + 1] = p[j + 1], p[j]
                word.append(j)
                break
        else:
            return tuple(reversed(word))


@functools.cache
def _grassmann_word(I: PlueckerIndex, n: int) -> tuple[int, ...]:
    """A reduced word for the minimal coset representative sending {1..r} to I."""
    return _reduced_word_of_perm(I + tuple(i for i in range(1, n + 1) if i not in I))


# ---------------------------------------------------------------------------
# mod-p point samples
# ---------------------------------------------------------------------------


def _group_element_along(word, ts, n: int, r: int | None = None):
    """The first r columns of  prod_j u_{i_j}(t_j) s_{i_j}  over F_p, as rows.

    The product is applied from its right end to the n x r identity slab
    (r = n, the default, gives the whole matrix).  Left multiplication by
    u_j(t) s_j, whose j, j+1 block is [[t, -1], [1, 0]], rewrites only rows j
    and j+1: (row_j, row_{j+1}) -> (t row_j - row_{j+1}, row_j), O(r) work.
    """
    r = n if r is None else r
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(n)]
    for j, t in zip(reversed(word), reversed(ts)):
        a, b = rows[j], rows[j + 1]
        rows[j] = [(t * x - y) % MERSENNE_PRIME for x, y in zip(a, b)]
        rows[j + 1] = a
    return rows


@functools.cache
def _laplace_plan(n: int, r: int):
    """_minors' recursion for n rows, r columns: the 1-based keys of the r-subsets,
    and per column k, for each (k + 1)-subset S in combinations order, its
    terms (row i of S, position of S - {i} one level down), split by sign."""
    prev = {(): 0}
    subsets = [()]
    levels = []
    for k in range(r):
        subsets = list(itertools.combinations(range(n), k + 1))
        level = []
        for S in subsets:
            terms = [(S[t], prev[S[:t] + S[t + 1:]]) for t in range(k, -1, -1)]
            level.append((tuple(terms[0::2]), tuple(terms[1::2])))
        levels.append(tuple(level))
        prev = {S: i for i, S in enumerate(subsets)}
    return tuple(tuple(i + 1 for i in S) for S in subsets), tuple(levels)


def _minors(rows, r: int) -> dict[PlueckerIndex, int]:
    """Every r x r minor on the first r columns of rows, over F_p.

    Keys are the 1-based row subsets, in combinations order.  Laplace
    expansion along the last column, by positions and signs planned once per
    (n, r), builds the minors of each size k from those of size k - 1: no
    division, and k * C(n, k) products per size, so about r * C(n, r) in all
    when r <= n/2.  The table holds every minor of size <= r, sum_{k<=r}
    C(n, k) entries, which nears 2^n as r nears n: this is for small n.
    """
    keys, levels = _laplace_plan(len(rows), r)
    dets = [1]
    for k, level in enumerate(levels):
        col = [row[k] for row in rows]
        nxt = []
        for plus, minus in level:
            v = 0
            for i, j in plus:
                v += col[i] * dets[j]
            for i, j in minus:
                v -= col[i] * dets[j]
            nxt.append(v % MERSENNE_PRIME)
        dets = nxt
    return dict(zip(keys, dets))


@dataclass(frozen=True)
class PointSample:
    """Evaluation functional at one sampled point of a Schubert variety.

    matrix is n x r over F_p, p = MERSENNE_PRIME; its columns span the
    sampled subspace.  coords holds every Plücker coordinate, computed once
    by _minors (whose table grows like 2^n when r > n/2); equality and
    hashing go by the matrix alone.
    """

    r: int
    n: int
    matrix: tuple[tuple[int, ...], ...]
    coords: dict[PlueckerIndex, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coords", _minors(self.matrix, self.r))

    def plucker(self, J) -> int:
        try:
            return self.coords[J]
        except (KeyError, TypeError):  # a list index, or a bad one
            return self.coords[_check_index(J, self.r, self.n)]

    def chain_value(self, chain) -> int:
        v = 1
        for J in chain:
            v = v * self.plucker(J) % MERSENNE_PRIME
        return v


def schubert_point_sample(
    I, r: int, n: int, rng: random.Random, *, opposite: bool = False
) -> PointSample:
    """A random point of the Schubert variety X_I in Gr(r, n) over F_p.

    With opposite=True, samples the opposite Schubert variety X^I through
    the longest-element twist.  Some Plücker coordinate is always nonzero:
    each factor u_j(t) s_j has determinant 1, so the sampled group element
    is invertible and its first r columns have rank r.
    """
    I = _check_index(I, r, n)
    sample_index = tuple(sorted(n + 1 - i for i in I)) if opposite else I
    word = _grassmann_word(sample_index, n)
    ts = [rng.randrange(1, MERSENNE_PRIME) for _ in word]
    rows = _group_element_along(word, ts, n, r)
    return PointSample(r, n, tuple(map(tuple, reversed(rows) if opposite else rows)))


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p, inserting the rows one at a time into an echelon basis.

    A row is packed into one int, column 0 in the top slot, with
    w = 2 * p.bit_length() + ncols.bit_length() + 1 bits per column.  Each
    basis row is stored from its pivot on, scaled so the pivot is -1 and
    reduced mod p, so clearing a pivot of a new row is one big-int
    ``row += f * basis_row`` with f < p.  Every slot starts below p and gains
    at most (p - 1)^2 per basis row, so it stays non-negative and below
    p + ncols * p^2 < 2^w: no slot carries into the next.  A basis row was
    reduced by every earlier one, so it vanishes mod p at their pivots, and
    reducing a new row in insertion order clears every pivot.  The row is
    unpacked (and taken mod p) once, to find its pivot and normalise it.
    Stops once the rank reaches the column count.
    """
    basis: list[tuple[int, int]] = []  # (shift of the pivot slot, row from its pivot on)
    shifts = None
    for row in rows:
        if shifts is None:
            ncols = len(row)
            w = 2 * p.bit_length() + ncols.bit_length() + 1
            mask = (1 << w) - 1
            shifts = [w * c for c in range(ncols - 1, -1, -1)]
        v = 0
        for x in row:
            v = v << w | x % p
        for s, b in basis:
            f = (v >> s & mask) % p
            if f:
                v += f * b
        v = [(v >> s & mask) % p for s in shifts]
        piv = next((c for c, x in enumerate(v) if x), None)
        if piv is None:
            continue
        neg_inv = p - pow(v[piv], -1, p)
        b = 0
        for x in v[piv:]:
            b = b << w | x * neg_inv % p
        basis.append((shifts[piv], b))
        if len(basis) == ncols:
            break
    return len(basis)


# ---------------------------------------------------------------------------
# randomized verification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    passed: bool
    expected_rank: int
    ranks_by_seed: tuple[tuple[int, int], ...]
    vanishing_ok: bool


def verify_hodge_i(
    r: int,
    n: int,
    m: int,
    seeds=(1, 2, 3),
    num_samples: int | None = None,
) -> RankReport:
    """Rank of the degree-m standard-chain evaluation matrix on the Grassmannian."""
    top = tuple(range(n - r + 1, n + 1))
    return verify_hodge_iii(top, r, n, m, seeds=seeds, num_samples=num_samples)


def _chain_plan(I: PlueckerIndex, r: int, n: int, m: int):
    """Per degree j = 1..m, the degree-j standard chains on X_I in
    lexicographic order, each as (position of its degree-(j - 1) prefix,
    position of its last index in all_indices); and the degree-m count k.
    The prefix of a chain on X_I is on X_I, so the degree-m chains come out
    in the order of standard_monomials_grassmann."""
    below = [(c, J) for c, J in enumerate(all_indices(r, n)) if index_leq(J, I)]
    lasts = [tuple(range(1, r + 1))]  # the empty chain, below every index
    steps = []
    for _ in range(m):
        step = [(a, c, J) for a, last in enumerate(lasts) for c, J in below if index_leq(last, J)]
        steps.append(tuple((a, c) for a, c, _J in step))
        lasts = [J for _a, _c, J in step]
    return tuple(steps), len(lasts)


def verify_hodge_iii(
    I,
    r: int,
    n: int,
    m: int,
    seeds=(1, 2, 3),
    num_samples: int | None = None,
) -> RankReport:
    """On X_I: standard-on-X_I monomials have full rank, others vanish.

    The rank check passes if any single seed reaches the expected rank; the
    vanishing check must hold at every sample of every seed (those values
    are identically zero on X_I, so any nonzero is a hard failure).  It reads
    coordinates, not chains: over a field a chain is zero iff one of its
    coordinates is, and (J, ..., J) is off X_I for each J not <= I, so in
    degree m >= 1 every off-X_I chain vanishes at a point iff every such p_J
    does.  A point's row of on-X_I values is built by prefix products (one
    multiply per prefix, read from its coordinates) only when rank_mod_p
    reads it, and the point is drawn then too, in the seed's order.  When
    there is no off-X_I coordinate (the top cell, or degree 0) nothing else
    reads the points, so a seed stops drawing once the rank reaches k;
    otherwise it draws the rest of its num_samples points and checks them all.
    """
    I = _check_index(I, r, n)
    steps, k = _chain_plan(I, r, n, m)
    off_X = [J for J in all_indices(r, n) if not index_leq(J, I)] if m else []
    if num_samples is None:
        num_samples = 2 * k + 4
    p = MERSENNE_PRIME

    def rows(rng, points):
        while len(points) < num_samples:
            pt = schubert_point_sample(I, r, n, rng)
            points.append(pt)
            coords = list(pt.coords.values())  # keyed in all_indices order
            row = [1]
            for step in steps:
                row = [row[a] * coords[c] % p for a, c in step]
            yield row

    ranks = []
    vanish_ok = True
    passed_rank = False
    for seed in seeds:
        rng = random.Random(seed)
        points: list[PointSample] = []
        rank = rank_mod_p(rows(rng, points), p)
        ranks.append((seed, rank))
        if rank == k:
            passed_rank = True
        if off_X:
            points += [
                schubert_point_sample(I, r, n, rng) for _ in range(num_samples - len(points))
            ]
            if any(pt.plucker(J) for pt in points for J in off_X):
                vanish_ok = False
    return RankReport(passed_rank and vanish_ok, k, tuple(ranks), vanish_ok)


# ---------------------------------------------------------------------------
# SL(n)/B: extremal monomials as products of top-justified minors
# ---------------------------------------------------------------------------


def sample_flag_point(word, n: int, rng: random.Random):
    """A random point of the Schubert variety X_w in SL(n)/B, as a matrix.

    word is a reduced word (0-based letters) for w; the point is the full
    n x n group element, from which every top-justified minor can be read.
    """
    ts = [rng.randrange(1, MERSENNE_PRIME) for _ in word]
    return _group_element_along(word, ts, n)


def flag_monomial_evaluate(g, factors) -> int:
    """Evaluate a product of extremal vectors at a flag point.

    factors is an iterable of (perm, i): the extremal vector of the i-th
    fundamental weight indexed by the class of perm, which at the flag point
    is p_{x(omega_i)}, the i x i minor on rows x({1..i}) and columns 1..i
    (perm is x in one-line notation).  Only trivial (extremal) factors have
    a minor realization here; that is all the SL(3) verification needs.  The
    Laplace table of the i selected rows has 2^i entries, so i should be small.
    """
    v = 1
    for perm, i in factors:
        (minor,) = _minors([g[a - 1] for a in sorted(perm[:i])], i).values()
        v = v * minor % MERSENNE_PRIME
    return v
