"""Finite root systems from Cartan matrices.

Conventions used throughout the package:

  * a root is stored by its coordinates in the simple-root basis,
  * a weight is stored by its coordinates in the fundamental-weight basis,
  * ``cartan[i][j]`` is the integer pairing <alpha_j, alpha_i^vee>, so the
    j-th column of the Cartan matrix is the simple root alpha_j written in
    fundamental-weight coordinates.

With these choices every pairing <weight, coroot> is an integer dot product:
the coroot of a positive root beta is carried along the reflection closure as
a vector in the simple-coroot basis (which is dual to the fundamental
weights), and ``pairing(lam, beta)`` is just dot(coroot(beta), lam).

Exceptional types are built from the same generic closure; nothing is
special-cased beyond the Cartan matrix table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

__all__ = [
    "Root",
    "Weight",
    "RootSystem",
    "build_root_system",
    "pairing",
    "is_classical_type",
    "rho",
]

# Largest rank constructed by default; E8 (rank 8) still fits, but accidental
# A20-style requests are refused early.
DEFAULT_RANK_CAP = 8

_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class Root:
    """A root in simple-root coordinates; positive iff all coords >= 0."""

    coords: tuple[int, ...]
    height: int

    @staticmethod
    def from_coords(coords: tuple[int, ...]) -> "Root":
        return Root(coords, sum(coords))

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords), -self.height)


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates."""

    coords: tuple[int, ...]

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))


@dataclass(frozen=True)
class RootSystem:
    """Immutable root datum: Cartan matrix, positive roots, coroot table."""

    cartan_type: str
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]
    simple_roots: tuple[Root, ...]
    # coroot of each positive root, in simple-coroot coordinates (equivalently
    # its values on the fundamental weights)
    coroot_table: dict[Root, tuple[int, ...]] = field(repr=False)

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(1 if j == i else 0 for j in range(self.rank)))

    def weight(self, coords) -> Weight:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return Weight(coords)

    def root_in_weight_coords(self, beta: Root) -> tuple[int, ...]:
        """Rewrite a root from the simple-root basis into the weight basis."""
        return tuple(
            sum(self.cartan[k][j] * beta.coords[j] for j in range(self.rank))
            for k in range(self.rank)
        )

    def coroot(self, beta: Root) -> tuple[int, ...]:
        if beta in self.coroot_table:
            return self.coroot_table[beta]
        neg = -beta
        if neg in self.coroot_table:
            return tuple(-d for d in self.coroot_table[neg])
        raise ValueError(f"{beta} is not a root of {self.cartan_type}")


def _dynkin_cartan(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entries cartan[i][j] = <alpha_j, alpha_i^vee>."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if family == "A":
        for i in range(rank - 1):
            edge(i, i + 1)
    elif family == "B":
        # alpha_rank is the short simple root
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -1, -2)
    elif family == "C":
        # alpha_rank is the long simple root
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 2, rank - 1, -2, -1)
    elif family == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif family == "E":
        # Bourbaki numbering: chain 1-3-4-5-..., node 2 hangs off node 4
        chain = [0] + list(range(2, rank))
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif family == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif family == "G":
        # alpha_1 long, alpha_2 short
        edge(0, 1, -1, -3)
    return a


_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of the given Cartan type.

    Positive roots are generated by closing the simple roots under all simple
    reflections; coroots are carried along in the dual system, so no invariant
    form ever appears explicitly.
    """
    family = family.upper()
    if family not in _VALID_RANKS:
        raise ValueError(f"unknown family {family!r}")
    if not _VALID_RANKS[family](rank):
        raise ValueError(f"invalid rank {rank} for family {family}")
    if rank > DEFAULT_RANK_CAP:
        raise ValueError(f"rank {rank} exceeds cap {DEFAULT_RANK_CAP}")

    n = rank
    cartan = tuple(tuple(row) for row in _dynkin_cartan(family, n))

    def unit(i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(n))

    # Closure under simple reflections, acting simultaneously on root
    # coordinates c and coroot coordinates d:
    #   s_i(c) = c - <beta, alpha_i^vee> e_i   with <beta, alpha_i^vee> = (A c)_i
    #   s_i(d) = d - <alpha_i, beta^vee> e_i   with <alpha_i, beta^vee> = (A^T d)_i
    seen: dict[tuple[int, ...], tuple[int, ...]] = {unit(i): unit(i) for i in range(n)}
    frontier = list(seen.items())
    while frontier:
        next_frontier = []
        for c, d in frontier:
            for i in range(n):
                ci = sum(cartan[i][j] * c[j] for j in range(n))
                di = sum(cartan[j][i] * d[j] for j in range(n))
                c2 = tuple(c[j] - (ci if j == i else 0) for j in range(n))
                d2 = tuple(d[j] - (di if j == i else 0) for j in range(n))
                if c2 not in seen:
                    seen[c2] = d2
                    next_frontier.append((c2, d2))
        frontier = next_frontier

    positives = sorted(
        (c for c in seen if all(x >= 0 for x in c)),
        key=lambda c: (sum(c), c),
    )
    expected = _POSITIVE_ROOT_COUNT[family](n)
    if len(positives) != expected:
        raise AssertionError(
            f"{family}{n}: closure produced {len(positives)} positive roots, expected {expected}"
        )

    roots = tuple(Root.from_coords(c) for c in positives)
    coroots = {r: seen[r.coords] for r in roots}
    return RootSystem(
        cartan_type=f"{family}{n}",
        family=family,
        rank=n,
        cartan=cartan,
        positive_roots=roots,
        simple_roots=tuple(Root.from_coords(unit(i)) for i in range(n)),
        coroot_table=coroots,
    )


def parse_cartan_type(label: str) -> RootSystem:
    """Build a root system from a label like "A3", "C2" or "G2"."""
    label = label.strip()
    if len(label) < 2 or not label[1:].isdigit():
        raise ValueError(f"cannot parse Cartan type {label!r}")
    return build_root_system(label[0], int(label[1:]))


def pairing(rs: RootSystem, lam: Weight, beta: Root) -> int:
    """The integer <lam, beta^vee>; linear in lam."""
    if len(lam.coords) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(lam.coords)}")
    d = rs.coroot(beta)
    return sum(di * li for di, li in zip(d, lam.coords))


def is_classical_type(rs: RootSystem, lam: Weight) -> bool:
    """True iff <lam, beta^vee> <= 2 for every positive root beta."""
    if not lam.is_dominant:
        raise ValueError("weight is not dominant")
    return all(pairing(rs, lam, beta) <= 2 for beta in rs.positive_roots)


def rho(rs: RootSystem) -> Weight:
    """Half-sum of positive roots, i.e. (1, ..., 1) in fundamental coordinates."""
    return Weight((1,) * rs.rank)


def max_pairing(rs: RootSystem, lam: Weight) -> int:
    """Largest <lam, beta^vee> over positive roots (0 for the zero weight)."""
    return reduce(max, (pairing(rs, lam, b) for b in rs.positive_roots), 0)
