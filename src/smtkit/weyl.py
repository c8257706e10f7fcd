"""Weyl groups, Bruhat order, parabolic quotients, and Deodhar lifts.

Every element of W carries an integer id, its position in a breadth-first
enumeration from the identity.  The enumeration visits words in shortlex
order, so each element also carries its length and its lexicographically
least reduced word.  What identifies an element is an orbit point: x is
keyed by x^-1(rho), which is distinct for distinct x because rho is regular.
Equality and hashing go by that point, so equal elements of two separately
built groups of one type agree, and ``WeylGroup.index`` maps a point back
to its id.  No matrix is stored or multiplied.

The search runs on those points, which cost O(n) a step: it walks the
inverses y = x^-1 by left multiplication, s_j y(rho) = y(rho) - c alpha_j
with c the j-th coordinate of y(rho), and meets the x's in the same order
as a right search would.  After the search every query is a table lookup:
right multiplication by s_j is ``rmult``, inverses come from folding
``rmult`` over reversed words, left multiplication is s_j x = (x^-1 s_j)^-1,
and products fold ``rmult`` over a word.  Weight images come from one
routine, ``WeylGroup.orbit``: x(mu) = s_j(x'(mu)) for x = s_j x', a step of
O(n) per element.

Bruhat order is read off W-orbits.  A parabolic quotient W^P is indexed by
the orbit points y(rho_P), rho_P = sum of the omega_i with i not in P, which
are distinct for distinct y in W^P.  For a positive root beta with
c = <y(rho_P), beta^vee> < 0, the point y(rho_P) - c beta = s_beta y(rho_P)
names the coset of s_beta y; when its representative has length l(y) - 1 it
is a lower cover of y, and every cover arises this way.  W^P is graded, so
the order ideal below y is bit(y) OR the ideals of its covers: one Python
int per element, built bottom-up, and ``leq`` is a single bit test.
``WeylGroup.leq`` is the test of the Borel quotient (rho_P = rho), built on
first use.  The exponential subword test is kept alongside as an
independent cross-check for the test suite.

The lifts of a coset are read from one table: ``ParabolicQuotient.lifts``
maps each class of a coarser quotient W^lam to its members of W^P, built by
projecting every member once.  A Deodhar lift ("lambda-maximal in w" /
"lambda-minimal on w") is the unique extremal element among the lifts of a
class below or above a bound; ``unique_extremal`` asserts that uniqueness,
and a failure, which would contradict Deodhar's lemma, raises immediately.
"""

from __future__ import annotations

import itertools

from .rootdata import Root, RootSystem, Weight

__all__ = [
    "WeylElement",
    "WeylGroup",
    "ParabolicQuotient",
    "bruhat_leq_subword",
    "stabilizer_subset",
    "unique_extremal",
    "format_word",
    "DEFAULT_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 50_000


class WeylElement:
    """A Weyl group element: its orbit point x^-1(rho), which identifies it,
    its length, canonical word, and its id (position) in the group that
    enumerated it."""

    __slots__ = ("point", "length", "word", "id", "_hash")

    def __init__(self, point: tuple[int, ...], length: int, word: tuple[int, ...], id: int = 0):
        self.point = point
        self.length = length
        self.word = word
        self.id = id
        self._hash = hash(point)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, WeylElement)
            and self._hash == other._hash
            and self.point == other.point
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"W[{format_word(self.word)}]"


def format_word(word: tuple[int, ...]) -> str:
    """Serialize a reduced word as "s1.s2.s1"; the identity is "e"."""
    if not word:
        return "e"
    return ".".join(f"s{i + 1}" for i in word)


def parse_word(text: str, rank: int) -> tuple[int, ...]:
    """Inverse of format_word; 1-based letters "s1".."s<rank>"."""
    text = text.strip()
    if text in ("e", ""):
        return ()
    out = []
    for part in text.split("."):
        part = part.strip()
        if not (part.startswith("s") and part[1:].isdigit()):
            raise ValueError(f"cannot parse word letter {part!r}")
        i = int(part[1:]) - 1
        if not 0 <= i < rank:
            raise ValueError(f"letter {part!r} out of range for rank {rank}")
        out.append(i)
    return tuple(out)


class WeylGroup:
    """A fully enumerated finite Weyl group with multiplication tables."""

    def __init__(self, rs: RootSystem, order_cap: int = DEFAULT_ORDER_CAP):
        self.rs = rs
        n = rs.rank
        # alpha_j in weight coordinates is column j of the Cartan matrix
        alphas = [tuple(rs.cartan[k][j] for k in range(n)) for j in range(n)]

        # Breadth-first search over the inverses y = x^-1, keyed by the orbit
        # point y(rho): s_j y(rho) = y(rho) - c alpha_j, with c the j-th
        # coordinate of y(rho), so a step costs O(n).  As (x s_j)^-1 = s_j y,
        # the search meets the x's in the shortlex order of their words, and
        # its table is rmult.
        elements: list[WeylElement] = [WeylElement((1,) * n, 0, (), 0)]
        points: dict[tuple[int, ...], int] = {(1,) * n: 0}
        rmult: list[list[int]] = []
        for el in elements:  # grows while it is walked: breadth-first order
            p = el.point
            row = []
            for j, alpha in enumerate(alphas):
                c = p[j]
                p2 = tuple(a - c * b for a, b in zip(p, alpha))
                k = points.get(p2)
                if k is None:
                    k = len(elements)
                    if k >= order_cap:
                        raise ValueError(
                            f"group order exceeds cap {order_cap} for {rs.cartan_type}"
                        )
                    elements.append(WeylElement(p2, el.length + 1, el.word + (j,), k))
                    points[p2] = k
                row.append(k)
            rmult.append(row)

        self.elements: tuple[WeylElement, ...] = tuple(elements)
        self.index = points
        self.rank = n
        self._alphas = alphas
        self.identity = elements[0]
        self.simple = tuple(elements[rmult[0][j]] for j in range(n))
        self.rmult = rmult
        inverse = []
        for x in elements:
            k = 0
            for j in reversed(x.word):
                k = rmult[k][j]
            inverse.append(k)
        self._inverse = inverse
        # s_j x = (x^-1 s_j)^-1
        self.lmult = [
            [inverse[rmult[inverse[i]][j]] for j in range(n)]
            for i in range(len(elements))
        ]
        top_len = max(el.length for el in elements)
        longest = [el for el in elements if el.length == top_len]
        assert len(longest) == 1, "longest element is not unique"
        self.w_o = longest[0]

        # id of s_beta -> beta, for recovering the reflection of a cover.  As
        # s_beta is an involution, its point is s_beta(rho) = rho - c beta,
        # with c = <rho, beta^vee> the sum of the coroot's coordinates.
        self._reflections = {}
        for b in rs.positive_roots:
            c = sum(rs.coroot(b))
            p = tuple(1 - c * a for a in rs.root_in_weight_coords(b))
            self._reflections[points[p]] = b
        self._borel: ParabolicQuotient | None = None

    # -- basic group operations ------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def idx(self, x: WeylElement) -> int:
        i = x.id
        els = self.elements
        if i < len(els) and els[i] is x:
            return i
        return self.index[x.point]

    def mul(self, x: WeylElement, y: WeylElement) -> WeylElement:
        k = self.idx(x)
        rmult = self.rmult
        for j in y.word:
            k = rmult[k][j]
        return self.elements[k]

    def inv(self, x: WeylElement) -> WeylElement:
        return self.elements[self._inverse[self.idx(x)]]

    def rmul_s(self, x: WeylElement, j: int) -> WeylElement:
        return self.elements[self.rmult[self.idx(x)][j]]

    def lmul_s(self, j: int, x: WeylElement) -> WeylElement:
        return self.elements[self.lmult[self.idx(x)][j]]

    def from_word(self, word) -> WeylElement:
        k = 0
        rmult = self.rmult
        for j in word:
            k = rmult[k][j]
        return self.elements[k]

    def orbit(self, mu: Weight) -> list[tuple[int, ...]]:
        """x(mu) for every x, in id order: x(mu) = s_j(x'(mu)) for x = s_j x',
        with j the first letter of x's word, at O(n) per element."""
        images = [self.rs.weight(mu.coords).coords]
        alphas, lmult = self._alphas, self.lmult
        for x in self.elements[1:]:
            j = x.word[0]
            p = images[lmult[x.id][j]]
            c = p[j]
            images.append(tuple(a - c * b for a, b in zip(p, alphas[j])))
        return images

    def right_descents(self, x: WeylElement) -> list[int]:
        xi = self.idx(x)
        return [
            j
            for j in range(self.rank)
            if self.elements[self.rmult[xi][j]].length < x.length
        ]

    def reflection_root(self, x: WeylElement) -> Root | None:
        """The positive root beta with x = s_beta, or None."""
        return self._reflections.get(self.idx(x))

    def root_image(self, x: WeylElement, beta: Root) -> Root:
        """x(beta), computed by folding simple reflections on root coordinates."""
        c = list(beta.coords)
        n = self.rank
        for i in reversed(x.word):
            ci = sum(self.rs.cartan[i][j] * c[j] for j in range(n))
            c[i] -= ci
        return Root.from_coords(tuple(c))

    def inversions(self, x: WeylElement) -> int:
        return sum(
            1 for b in self.rs.positive_roots if not self.root_image(x, b).is_positive
        )

    def reduced_words(self, x: WeylElement):
        """Yield every reduced word of x (exponential; test-sized inputs only)."""
        if x.length == 0:
            yield ()
            return
        for j in self.right_descents(x):
            for w in self.reduced_words(self.rmul_s(x, j)):
                yield w + (j,)

    # -- Bruhat order ------------------------------------------------------

    def leq(self, x: WeylElement, y: WeylElement) -> bool:
        """Bruhat order: the bitset test of the Borel quotient, built on first use."""
        if self._borel is None:
            self._borel = ParabolicQuotient(self, ())
        return self._borel.leq(x, y)


def bruhat_leq_subword(group: WeylGroup, x: WeylElement, y: WeylElement) -> bool:
    """Independent subword-property oracle (exhaustive, exponential in l(y))."""
    k = x.length
    if k > y.length:
        return False
    for positions in itertools.combinations(range(y.length), k):
        if group.from_word(y.word[p] for p in positions) == x:
            return True
    return False


class ParabolicQuotient:
    """Minimal coset representatives W^P with the induced Bruhat order.

    ``min_reps`` keeps the group's order (by length, then shortlex word) and
    ``pos`` maps a representative to its position there.  Each position owns
    its lower covers and its order ideal as a bitset over positions.
    """

    def __init__(self, group: WeylGroup, subset):
        self.group = group
        self.subset = frozenset(int(i) for i in subset)
        for i in self.subset:
            if not 0 <= i < group.rank:
                raise ValueError(f"simple root index {i} out of range")
        els, rmult = group.elements, group.rmult
        self.min_reps: tuple[WeylElement, ...] = tuple(
            x
            for x in els
            if all(els[rmult[x.id][j]].length > x.length for j in self.subset)
        )
        self.pos = {x: i for i, x in enumerate(self.min_reps)}
        # the longest element of W_P: climb while some s_j, j in P, lengthens
        w = group.identity
        while True:
            for j in self.subset:
                up = els[rmult[w.id][j]]
                if up.length > w.length:
                    w = up
                    break
            else:
                break
        self.w_oP = w

        # lower covers from the orbit of rho_P, then ideals bottom-up
        rs = group.rs
        roots = [
            (rs.coroot(b), rs.root_in_weight_coords(b)) for b in rs.positive_roots
        ]
        rho_p = Weight(tuple(0 if i in self.subset else 1 for i in range(group.rank)))
        images = group.orbit(rho_p)
        orbit = [images[y.id] for y in self.min_reps]
        at = {mu: i for i, mu in enumerate(orbit)}
        self._covers: list[tuple[int, ...]] = []
        self._ideal: list[int] = []
        for i, (y, mu) in enumerate(zip(self.min_reps, orbit)):
            below = set()
            for co, beta in roots:
                c = sum(a * b for a, b in zip(co, mu))
                if c < 0:
                    k = at[tuple(m - c * b for m, b in zip(mu, beta))]
                    if self.min_reps[k].length == y.length - 1:
                        below.add(k)
            covers = tuple(sorted(below))
            ideal = 1 << i
            for k in covers:
                ideal |= self._ideal[k]
            self._covers.append(covers)
            self._ideal.append(ideal)
        self._lift_tables: dict[frozenset[int], dict] = {}

    def __len__(self) -> int:
        return len(self.min_reps)

    def __contains__(self, x: WeylElement) -> bool:
        return x in self.pos

    def project(self, x: WeylElement) -> WeylElement:
        """Minimal-length representative of the coset x W_P."""
        g = self.group
        while True:
            for j in self.subset:
                y = g.rmul_s(x, j)
                if y.length < x.length:
                    x = y
                    break
            else:
                return x

    def lifts(
        self, quot_lam: ParabolicQuotient
    ) -> dict[WeylElement, tuple[WeylElement, ...]]:
        """Each class of the coarser quotient W^lam mapped to its members of
        W^P (its lifts), in the order of ``min_reps``; built once per W^lam."""
        table = self._lift_tables.get(quot_lam.subset)
        if table is None:
            members: dict[WeylElement, list[WeylElement]] = {}
            for x in self.min_reps:
                members.setdefault(quot_lam.project(x), []).append(x)
            table = {c: tuple(xs) for c, xs in members.items()}
            self._lift_tables[quot_lam.subset] = table
        return table

    def leq(self, x: WeylElement, y: WeylElement) -> bool:
        """Bruhat order on W^P; raises KeyError unless both are in W^P."""
        pos = self.pos
        return (self._ideal[pos[y]] >> pos[x]) & 1 == 1

    def covers(self, y: WeylElement) -> list[WeylElement]:
        """The lower covers of y in W^P, in the order of ``min_reps``."""
        return [self.min_reps[k] for k in self._covers[self.pos[y]]]

    def of_length(self, k: int) -> list[WeylElement]:
        return [x for x in self.min_reps if x.length == k]

    def interval(self, v: WeylElement, w: WeylElement) -> list[WeylElement]:
        return [x for x in self.min_reps if self.leq(v, x) and self.leq(x, w)]

    def top(self) -> WeylElement:
        return max(self.min_reps, key=lambda e: e.length)

    def order_reversing_involution(self, w: WeylElement) -> WeylElement:
        """The map w -> w_o w w_{o,P}; lands back in W^P and reverses <=."""
        g = self.group
        img = g.mul(g.mul(g.w_o, w), self.w_oP)
        if img not in self.pos:
            raise AssertionError("involution left W^P")
        return img

    def max_lower_bounds(self, xs) -> list[WeylElement]:
        xs = list(xs)
        common = [
            z for z in self.min_reps if all(self.leq(z, x) for x in xs)
        ]
        return [
            z
            for z in common
            if not any(z2 is not z and self.leq(z, z2) for z2 in common)
        ]

    def min_upper_bounds(self, xs) -> list[WeylElement]:
        xs = list(xs)
        common = [
            z for z in self.min_reps if all(self.leq(x, z) for x in xs)
        ]
        return [
            z
            for z in common
            if not any(z2 is not z and self.leq(z2, z) for z2 in common)
        ]


def stabilizer_subset(rs: RootSystem, lam: Weight) -> frozenset[int]:
    """Indices i with <lam, alpha_i^vee> = 0; generates the isotropy group W_lam."""
    if not lam.is_dominant:
        raise ValueError("weight is not dominant")
    return frozenset(i for i, c in enumerate(lam.coords) if c == 0)


def unique_extremal(order, candidates, want_max: bool) -> WeylElement:
    """The unique greatest (or least) element of a nonempty candidate set.

    ``order`` is anything with a Bruhat ``leq``: a WeylGroup, or a
    ParabolicQuotient holding every candidate.  Uniqueness here is Deodhar's
    lemma; its failure is a hard error, never a silently arbitrary choice.
    """
    leq = order.leq
    if want_max:
        ext = [c for c in candidates if not any(d is not c and leq(c, d) for d in candidates)]
    else:
        ext = [c for c in candidates if not any(d is not c and leq(d, c) for d in candidates)]
    if len(ext) != 1:
        raise AssertionError("Deodhar uniqueness failed: multiple extremal lifts")
    e = ext[0]
    for c in candidates:
        ok = leq(c, e) if want_max else leq(e, c)
        if not ok:
            raise AssertionError("Deodhar uniqueness failed: incomparable lift")
    return e
