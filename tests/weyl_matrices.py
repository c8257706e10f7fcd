"""Test-local action matrices of Weyl group elements: the reference that the
matrix-free Weyl layer is checked against.

An element's matrix on the weight lattice (fundamental-weight basis) is the
product of simple-reflection matrices along its word, and the reflection
s_beta is u s_i u^-1 for a positive root beta = u(alpha_i).  Only the Cartan
matrix, the positive-root coordinates and the words of W's elements, in
order, are read from smtkit; every action is computed here.

The word helpers at the end (reflection roots, root images, inversions,
right descents and all reduced words) serve the tests only.
"""


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


class MatrixOracle:
    """Action matrices of every element of a WeylGroup, by position k in
    ``group.quotient(()).min_reps``.

    ``elements[k]`` is the element, ``pos`` maps it to k, ``matrix[k]`` is its matrix, ``index``
    maps a matrix back to k, ``simple[i]`` is the matrix of s_i,
    ``reflection_id[beta]`` is the k of s_beta for a positive root's
    coordinates, and ``root_of`` inverts it.
    """

    def __init__(self, group):
        cartan = group.rs.cartan
        n = len(cartan)
        self.cartan = cartan
        # s_i(mu) = mu - mu_i alpha_i, with alpha_i column i of the Cartan matrix
        self.simple = [
            tuple(
                tuple((1 if k == j else 0) - (cartan[k][i] if j == i else 0) for j in range(n))
                for k in range(n)
            )
            for i in range(n)
        ]
        self._by_word = {(): tuple(tuple(1 if k == j else 0 for j in range(n)) for k in range(n))}
        self.elements = group.quotient(()).min_reps
        self.pos = {x: k for k, x in enumerate(self.elements)}
        self.matrix = [self.word_matrix(x.word) for x in self.elements]
        self.index = {m: i for i, m in enumerate(self.matrix)}
        assert len(self.index) == len(self.matrix), "two elements share a matrix"

        # positive roots as u(alpha_i), found by closing the simple roots
        # under s_j(c) = c - <beta, alpha_j^vee> e_j on root coordinates
        found = {tuple(1 if k == i else 0 for k in range(n)): ((), i) for i in range(n)}
        frontier = list(found)
        while frontier:
            nxt = []
            for c in frontier:
                word, i = found[c]
                for j in range(n):
                    cj = sum(cartan[j][k] * c[k] for k in range(n))
                    c2 = tuple(c[k] - (cj if k == j else 0) for k in range(n))
                    if all(x >= 0 for x in c2) and c2 not in found:
                        found[c2] = ((j,) + word, i)
                        nxt.append(c2)
            frontier = nxt
        assert sorted(found) == sorted(b.coords for b in group.rs.positive_roots)
        self.reflection_id = {}
        for c, (word, i) in found.items():
            m = mat_mul(mat_mul(self.word_matrix(word), self.simple[i]),
                        self.word_matrix(tuple(reversed(word))))
            self.reflection_id[c] = self.index[m]
        self.root_of = {k: c for c, k in self.reflection_id.items()}

    def word_matrix(self, word):
        word = tuple(word)
        m = self._by_word.get(word)
        if m is None:
            m = mat_mul(self.word_matrix(word[:-1]), self.simple[word[-1]])
            self._by_word[word] = m
        return m

    def apply(self, x, coords):
        """x(mu) for an element x of any quotient, from its word, and weight
        coordinates mu."""
        return mat_vec(self.word_matrix(x.word), coords)

    def root_in_weight_coords(self, coords):
        n = len(self.cartan)
        return tuple(sum(self.cartan[k][j] * coords[j] for j in range(n)) for k in range(n))

    def multiplicity(self, coords, beta):
        """<mu, beta^vee>, read off mu - s_beta(mu) = <mu, beta^vee> beta."""
        image = mat_vec(self.matrix[self.reflection_id[beta]], coords)
        diff = [a - b for a, b in zip(coords, image)]
        b = self.root_in_weight_coords(beta)
        k = next(k for k, x in enumerate(b) if x)
        c = diff[k] // b[k]
        assert diff == [c * x for x in b]
        return c


def reflection_root(group, x):
    """The positive root beta with x = s_beta, or None.

    s_beta(rho) = rho - <rho, beta^vee> beta, and no other point of the
    orbit of rho lies on the line rho + Q beta (it would have another
    length), so x = s_beta iff rho - x(rho) is a nonzero multiple of beta.
    x(rho) is folded from x's word: s_j(mu) = mu - mu_j alpha_j, with
    alpha_j column j of the Cartan matrix.
    """
    cartan = group.rs.cartan
    n = len(cartan)
    mu = [1] * n
    for j in reversed(x.word):
        c = mu[j]
        mu = [m - c * cartan[k][j] for k, m in enumerate(mu)]
    diff = [1 - m for m in mu]
    if not any(diff):
        return None
    for b in group.rs.positive_roots:
        bw = [sum(cartan[k][j] * b.coords[j] for j in range(n)) for k in range(n)]
        k = next(k for k, a in enumerate(bw) if a)
        if all(d * bw[k] == a * diff[k] for d, a in zip(diff, bw)):
            return b
    return None


def root_image(group, x, coords):
    """x(beta) in simple-root coordinates, folding simple reflections."""
    cartan, c = group.rs.cartan, list(coords)
    for i in reversed(x.word):
        c[i] -= sum(cartan[i][j] * c[j] for j in range(len(c)))
    return tuple(c)


def inversions(group, x):
    """The number of positive roots that x sends to negative roots."""
    return sum(
        1 for b in group.rs.positive_roots if min(root_image(group, x, b.coords)) < 0
    )


def right_descents(group, x):
    """The j with l(x s_j) < l(x), that is x(alpha_j) < 0."""
    n = group.rank
    return [
        j for j in range(n)
        if min(root_image(group, x, tuple(int(k == j) for k in range(n)))) < 0
    ]


def reduced_words(group, x):
    """Yield every reduced word of x (exponential; test-sized inputs only)."""
    if x.length == 0:
        yield ()
        return
    borel = group.quotient(())
    for j in right_descents(group, x):
        for w in reduced_words(group, borel.from_word(x.word + (j,))):
            yield w + (j,)
