"""Weyl groups, Bruhat order and parabolic quotients.

An element is its Cartan type and its canonical word, the lexicographically
least reduced word.  Equality and hashing go by them, so one element met in
W, in W^P, in W^lam or in a separately built group compares equal; its
position in a quotient is ``quot.pos[x]``.

One routine builds every parabolic quotient W^P, and W itself is the case
P = {}: a breadth-first search over the orbit points mu = x(rho_P), where
rho_P is the sum of the omega_i with i not in P, so that distinct x in W^P
have distinct points.  From mu, s_j lengthens x and stays in W^P exactly
when mu_j > 0, and the left descents of x are the i with mu_i < 0.  So the
canonical word of x is its least left descent i followed by the word of its
parent s_i x; sorting each length by word keeps the run in shortlex order.
A step costs O(n): s_j(mu) = mu - mu_j alpha_j.  Everything else is read
off points.  The coset x W_P is named by x(rho_P), so ``from_word`` folds
a word on rho_P and looks the point up; ``lifts`` groups the members of W^P
by their point x(rho_lam) in a coarser quotient; ``orbit`` steps along the
parent chain; and the order-reversing involution is w_o(x(rho_P)), where
w_o(mu) = -sigma(mu) for the diagram involution sigma, read once per group,
on first use, from w_o(omega_i) = -omega_{sigma(i)}.  A quotient costs
O(|W^P|), never O(|W|).

``WeylGroup`` is a cheap handle on the root system: the identity, the simple
reflections and w_o, whose word is peeled off the point -rho.  All of W is
the Borel quotient ``group.quotient(())`` (its ``min_reps``, ``from_word``
and ``leq``), made only when a caller asks for it, and
``WeylGroup.quotient`` shares one quotient per subset among the callers
that hold it.  ``order_cap`` bounds the size of every run.

Bruhat order is read off the same points.  For a positive root gamma with
c = <y(rho_P), gamma^vee> < 0, the point y(rho_P) - c gamma names the coset
of s_gamma y; when its representative has length l(y) - 1 it is the lower
cover s_gamma y itself, and every cover arises this way.  Each cover keeps
its left root gamma.  W^P is graded, so the order ideal below y is bit(y)
OR the ideals of its covers: one Python int per element, built bottom-up on
first use, and ``leq`` is a single bit test; the test suite checks it
against the exponential subword test in ``tests/schubert_reference.py``.
Minimal upper bounds are the involution's image of maximal lower bounds.
"""

from __future__ import annotations

import functools
import weakref

from .rootdata import Root, RootSystem, Weight

__all__ = [
    "WeylElement",
    "WeylGroup",
    "ParabolicQuotient",
    "stabilizer_subset",
    "format_word",
    "DEFAULT_ORDER_CAP",
]

DEFAULT_ORDER_CAP = 50_000


class WeylElement:
    """A Weyl group element: its Cartan type and its canonical
    (lexicographically least reduced) word."""

    __slots__ = ("cartan_type", "word", "length", "_hash")

    def __init__(self, cartan_type: str, word: tuple[int, ...]):
        self.cartan_type = cartan_type
        self.word = word
        self.length = len(word)
        self._hash = hash((cartan_type, word))

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, WeylElement)
            and self._hash == other._hash
            and self.word == other.word
            and self.cartan_type == other.cartan_type
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


def _act(alphas, word, mu: tuple[int, ...]) -> tuple[int, ...]:
    """x(mu) for the x spelled by word: s_j(mu) = mu - mu_j alpha_j, last letter first."""
    for j in reversed(word):
        c = mu[j]
        if c:
            mu = tuple(a - c * b for a, b in zip(mu, alphas[j]))
    return mu


def _least_descent(mu: tuple[int, ...]) -> int | None:
    """The least left descent of the x with orbit point mu: the first i with mu_i < 0."""
    return next((i for i, c in enumerate(mu) if c < 0), None)


class WeylGroup:
    """A finite Weyl group: a handle on its root system holding the identity,
    the simple reflections and w_o.  ``len`` and ``leq`` build all of W (the
    Borel quotient) on first use; its elements are ``quotient(()).min_reps``."""

    def __init__(self, rs: RootSystem, order_cap: int = DEFAULT_ORDER_CAP):
        self.rs = rs
        self.rank = n = rs.rank
        self.order_cap = order_cap
        # alpha_j in weight coordinates is column j of the Cartan matrix
        self._alphas = [tuple(rs.cartan[k][j] for k in range(n)) for j in range(n)]
        t = rs.cartan_type
        self.identity = WeylElement(t, ())
        self.simple = tuple(WeylElement(t, (j,)) for j in range(n))
        # w_o(rho) = -rho: peel least left descents off the point until rho
        mu, word = (-1,) * n, []
        while (i := _least_descent(mu)) is not None:
            word.append(i)
            mu = _act(self._alphas, (i,), mu)
        self.w_o = WeylElement(t, tuple(word))
        # weak, so that a quotient, which refers back to its group, is freed
        # with its last user rather than kept in a cycle until collection
        self._quotients = weakref.WeakValueDictionary()

    def quotient(self, subset) -> ParabolicQuotient:
        """W^P for a subset P of the simple roots, shared by every caller
        while one holds it."""
        key = frozenset(int(i) for i in subset)
        q = self._quotients.get(key)
        if q is None:
            q = self._quotients[key] = ParabolicQuotient(self, key)
        return q

    @functools.cached_property
    def _borel(self) -> ParabolicQuotient:
        return self.quotient(())

    @functools.cached_property
    def _wo_sigma(self) -> tuple[int, ...]:
        """The diagram involution sigma with w_o(omega_i) = -omega_{sigma(i)},
        so that w_o(mu)_j = -mu_{sigma(j)}; read on first use."""
        n = self.rank
        return tuple(
            _act(self._alphas, self.w_o.word, tuple(int(j == i) for j in range(n))).index(-1)
            for i in range(n)
        )

    def __len__(self) -> int:
        return len(self._borel)

    def leq(self, x: WeylElement, y: WeylElement) -> bool:
        """Bruhat order: the bitset test of the Borel quotient."""
        return self._borel.leq(x, y)


class ParabolicQuotient:
    """Minimal coset representatives W^P with the induced Bruhat order.

    ``min_reps`` is in shortlex order (by length, then word), ``pos`` maps
    a representative to its position there, and ``_points`` holds its orbit
    point x(rho_P) at that position.  Each position owns its lower covers,
    with their left roots, and its order ideal as a bitset over positions,
    built on first use.
    """

    def __init__(self, group: WeylGroup, subset):
        self.group = group
        self.subset = frozenset(int(i) for i in subset)
        n = group.rank
        for i in self.subset:
            if not 0 <= i < n:
                raise ValueError(f"simple root index {i} out of range")
        alphas, t = group._alphas, group.rs.cartan_type
        self.rho_p = tuple(0 if i in self.subset else 1 for i in range(n))

        # breadth-first over the points mu = x(rho_P), one length at a time
        reps, points, parent = [group.identity], [self.rho_p], [0]
        at = {self.rho_p: 0}
        start = 0
        while start < len(reps):
            level, start = range(start, len(reps)), len(reps)
            found = dict.fromkeys(
                tuple(a - c * b for a, b in zip(points[k], alphas[j]))
                for k in level
                for j, c in enumerate(points[k])
                if c > 0
            )
            if len(reps) + len(found) > group.order_cap:
                raise ValueError(
                    f"W^P exceeds cap {group.order_cap} for {t}, P = {sorted(self.subset)}"
                )
            # a new point's least left descent i leads to its parent s_i x
            new = []
            for nu in found:
                i = _least_descent(nu)
                k = at[_act(alphas, (i,), nu)]
                new.append(((i,) + reps[k].word, nu, k))
            for word, nu, k in sorted(new):
                at[nu] = len(reps)
                reps.append(WeylElement(t, word))
                points.append(nu)
                parent.append(k)
        self.min_reps: tuple[WeylElement, ...] = tuple(reps)
        self._points = points
        self.pos = {x: i for i, x in enumerate(reps)}
        self._at = at
        self._parent = parent
        self._lift_tables: dict[frozenset[int], dict] = {}
        self._covers: list[tuple[tuple[int, Root], ...]] | None = None
        self._ideal: list[int] | None = None

    def _bruhat(self) -> list[int]:
        """The order ideals, built on first use with the lower covers: for
        each y, (position, gamma) of each cover s_gamma y.  (A class-level
        cached property would slow every ``self._ideal`` in ``leq``.)"""
        if self._ideal is None:
            rs, at, reps = self.group.rs, self._at, self.min_reps
            roots = [
                (b, rs.coroot(b), rs.root_in_weight_coords(b)) for b in rs.positive_roots
            ]
            covers, ideal = [], []
            for i, (y, mu) in enumerate(zip(reps, self._points)):
                below = []
                for gamma, co, b in roots:
                    c = sum(a * m for a, m in zip(co, mu))
                    if c < 0:
                        k = at[tuple(m - c * a for m, a in zip(mu, b))]
                        if reps[k].length == y.length - 1:
                            below.append((k, gamma))
                below.sort(key=lambda t: t[0])
                bits = 1 << i
                for k, _gamma in below:
                    bits |= ideal[k]
                covers.append(tuple(below))
                ideal.append(bits)
            self._covers, self._ideal = covers, ideal
        return self._ideal

    def __len__(self) -> int:
        return len(self.min_reps)

    def __contains__(self, x: WeylElement) -> bool:
        return x in self.pos

    def from_word(self, word) -> WeylElement:
        """The representative of the coset (s_{i1} ... s_{ik}) W_P of any word."""
        return self.min_reps[self._at[_act(self.group._alphas, tuple(word), self.rho_p)]]

    def orbit(self, mu: Weight) -> list[tuple[int, ...]]:
        """x(mu) for every x in W^P, in the order of ``min_reps``:
        x(mu) = s_i(x'(mu)) for the parent x' = s_i x, at O(n) per element."""
        alphas, parent = self.group._alphas, self._parent
        images = [self.group.rs.weight(mu.coords).coords]
        for x, k in zip(self.min_reps[1:], parent[1:]):
            images.append(_act(alphas, x.word[:1], images[k]))
        return images

    def lifts(
        self, quot_lam: ParabolicQuotient
    ) -> dict[WeylElement, tuple[WeylElement, ...]]:
        """Each class of the coarser quotient W^lam mapped to its members of
        W^P (its lifts), in the order of ``min_reps``; a member's class is
        named by its point x(rho_lam).  Built once per W^lam."""
        table = self._lift_tables.get(quot_lam.subset)
        if table is None:
            classes, at = quot_lam.min_reps, quot_lam._at
            members: dict[WeylElement, list[WeylElement]] = {}
            for x, mu in zip(self.min_reps, self.orbit(Weight(quot_lam.rho_p))):
                members.setdefault(classes[at[mu]], []).append(x)
            table = {c: tuple(xs) for c, xs in members.items()}
            self._lift_tables[quot_lam.subset] = table
        return table

    def leq(self, x: WeylElement, y: WeylElement) -> bool:
        """Bruhat order on W^P; raises KeyError unless both are in W^P."""
        pos = self.pos
        return ((self._ideal or self._bruhat())[pos[y]] >> pos[x]) & 1 == 1

    def cover_roots(self, y: WeylElement) -> dict[WeylElement, Root]:
        """Each lower cover v of y in W^P, in the order of ``min_reps``, with
        the positive root gamma such that v = s_gamma y."""
        self._bruhat()
        reps = self.min_reps
        return {reps[k]: gamma for k, gamma in self._covers[self.pos[y]]}

    def interval(self, v: WeylElement, w: WeylElement) -> list[WeylElement]:
        return [x for x in self.min_reps if self.leq(v, x) and self.leq(x, w)]

    def top(self) -> WeylElement:
        """The longest element of W^P, the last of ``min_reps``."""
        return self.min_reps[-1]

    def order_reversing_involution(self, w: WeylElement) -> WeylElement:
        """The map w -> w_o w w_{o,P}, read off the point w_o(w(rho_P)) =
        -sigma(w(rho_P)); lands back in W^P and reverses <=."""
        mu = self._points[self.pos[w]]
        return self.min_reps[self._at[tuple(-mu[i] for i in self.group._wo_sigma)]]

    def max_lower_bounds(self, xs) -> list[WeylElement]:
        leq = self.leq
        common = [z for z in self.min_reps if all(leq(z, x) for x in xs)]
        return [z for z in common if not any(z2 is not z and leq(z, z2) for z2 in common)]

    def min_upper_bounds(self, xs) -> list[WeylElement]:
        """iota(max_lower_bounds(iota(xs))) for the order-reversing iota, in
        the order of ``min_reps``."""
        iota = self.order_reversing_involution
        return sorted(
            (iota(z) for z in self.max_lower_bounds([iota(x) for x in xs])),
            key=self.pos.__getitem__,
        )


def stabilizer_subset(rs: RootSystem, lam: Weight) -> frozenset[int]:
    """Indices i with <lam, alpha_i^vee> = 0; generates the isotropy group W_lam."""
    if not lam.is_dominant:
        raise ValueError("weight is not dominant")
    return frozenset(i for i, c in enumerate(lam.coords) if c == 0)
