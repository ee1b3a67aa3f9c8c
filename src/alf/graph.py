"""Weighted simple graphs, their Laplacian algebra, permutations, and node partitions.

Nodes are labelled 1..n.  Edge weights are stored as exact rationals
(floats convert losslessly), so algebraic identities such as the zero row
sums of the Laplacian hold exactly and are testable without tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import DimensionMismatchError, InvalidGraphError
from .precision import exact

ZERO_EIGENVALUE_TOL = 1e-8


def components(n: int, pairs) -> list[frozenset[int]]:
    """The partition of nodes 1..n that joins the two nodes of every pair, sorted by smallest member.

    Union-find: each class is rooted at its smallest node.  Graph components
    join the ends of every edge, group orbits every node with its image.
    """
    parent = list(range(n + 1))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, set[int]] = {}
    for i in range(1, n + 1):
        classes.setdefault(find(i), set()).add(i)
    return sorted((frozenset(c) for c in classes.values()), key=min)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}, stored as the image tuple: image[i-1] = sigma(i)."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if sorted(self.image) != list(range(1, n + 1)):
            raise InvalidGraphError(f"not a bijection on 1..{n}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        image = list(range(1, n + 1))
        image[i - 1], image[j - 1] = j, i
        return cls(tuple(image))

    @classmethod
    def cyclic_shift(cls, n: int) -> "Permutation":
        """The n-cycle 1 -> 2 -> ... -> n -> 1."""
        return cls(tuple(list(range(2, n + 1)) + [1]))

    @classmethod
    def reversal(cls, n: int) -> "Permutation":
        """The order-reversing involution i -> n + 1 - i."""
        return cls(tuple(range(n, 0, -1)))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def apply(self, x):
        """Permute a state vector: component i moves to slot sigma(i)."""
        if len(x) != self.n:
            raise DimensionMismatchError(f"state has length {len(x)}, permutation acts on {self.n}")
        out = [None] * self.n
        for i, target in enumerate(self.image):
            out[target - 1] = x[i]
        return out

    def matrix(self) -> list[list[int]]:
        """The 0/1 matrix P with P e_j = e_sigma(j); the tests' reference for commutation."""
        m =[[0] * self.n for _ in range(self.n)]
        for j, target in enumerate(self.image):
            m[target - 1][j] = 1
        return m


@dataclass(frozen=True)
class Graph:
    """Weighted undirected simple graph on nodes 1..n.

    `edges` is a sorted tuple of (i, j, weight) with i < j; weights are
    strictly positive Fractions.  Symmetry is guaranteed by construction.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise InvalidGraphError(f"node count must be >= 1, got {self.n}")
        seen = set()
        norm = []
        for i, j, w in self.edges:
            if i == j:
                raise InvalidGraphError(f"self-loop at node {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise InvalidGraphError(f"edge ({i},{j}) out of range 1..{self.n}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise InvalidGraphError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            w = exact(w)
            if w <= 0:
                raise InvalidGraphError(f"edge ({i},{j}) has non-positive weight {w}")
            norm.append((i, j, w))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def complete(cls, n: int, weight=1) -> "Graph":
        return cls(n, tuple((i, j, exact(weight)) for i in range(1, n + 1) for j in range(i + 1, n + 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise InvalidGraphError("cycle graphs need at least 3 nodes")
        edges = [(i, i + 1, Fraction(1)) for i in range(1, n)] + [(1, n, Fraction(1))]
        return cls(n, tuple(edges))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, tuple((i, i + 1, Fraction(1)) for i in range(1, n)))

    @classmethod
    def from_edge_list(cls, n: int, edge_list) -> "Graph":
        """Build from [(i, j), ...] or [(i, j, w), ...] entries."""
        edges = []
        for entry in edge_list:
            if len(entry) == 2:
                i, j = entry
                edges.append((int(i), int(j), Fraction(1)))
            else:
                i, j, w = entry
                edges.append((int(i), int(j), exact(w)))
        return cls(n, tuple(edges))

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def is_unit_complete(self) -> bool:
        """Complete with every edge weight 1, so any two nodes are exchangeable."""
        return self.is_complete() and all(w == 1 for _, _, w in self.edges)

    def laplacian(self) -> list[list[Fraction]]:
        """Degree matrix minus adjacency matrix, in exact rationals."""
        lap = [[Fraction(0)] * self.n for _ in range(self.n)]
        for i, j, w in self.edges:
            lap[i - 1][j - 1] -= w
            lap[j - 1][i - 1] -= w
            lap[i - 1][i - 1] += w
            lap[j - 1][j - 1] += w
        return lap

    def laplacian_array(self) -> np.ndarray:
        """`laplacian()` in floats; only the edge entries and the diagonal are converted."""
        lap = self.laplacian()
        out = np.zeros((self.n, self.n))
        for i, j, _ in self.edges:
            out[i - 1, j - 1] = out[j - 1, i - 1] = float(lap[i - 1][j - 1])
        np.fill_diagonal(out, [float(lap[i][i]) for i in range(self.n)])
        return out

    def connected_components(self) -> list[frozenset[int]]:
        """Node partition into components, sorted by smallest member."""
        return components(self.n, ((i, j) for i, j, _ in self.edges))

    def to_json(self) -> dict:
        return {
            "type": "custom",
            "n": self.n,
            "edges": [[i, j, float(w)] for i, j, w in self.edges],
        }


def commutes_with_laplacian(g: Graph, p: Permutation, tol=0) -> bool:
    """Whether L and the permutation matrix commute, to max-norm `tol`.

    The entries of L P - P L are L[sigma(a)][sigma(b)] - L[a][b] over all
    (a, b).  Off the diagonal such an entry is nonzero only where (a, b) is
    an edge or the image of one, so the max is taken over each edge's weight
    against its image's and against its preimage's (0 for a pair that is no
    edge), and over the weighted degrees of sigma(a) and a on the diagonal.
    The weights are integers over one common denominator, so this is
    O(|E| + n) exact integer work, no matrix, and tol=0 is meaningful.
    """
    if p.n != g.n:
        raise DimensionMismatchError(f"permutation on {p.n} symbols, graph has {g.n} nodes")
    den = lcm(*(w.denominator for _, _, w in g.edges))
    weight = {(i, j): w.numerator * (den // w.denominator) for i, j, w in g.edges}
    degree = [0] * (g.n + 1)
    for (i, j), w in weight.items():
        degree[i] += w
        degree[j] += w
    sigma = (0,) + p.image
    inverse = [0] * (g.n + 1)
    for i in range(1, g.n + 1):
        inverse[sigma[i]] = i

    def weight_of(a: int, b: int) -> int:
        return weight.get((a, b) if a < b else (b, a), 0)

    diffs = [abs(degree[sigma[a]] - degree[a]) for a in range(1, g.n + 1)]
    for (i, j), w in weight.items():
        diffs.append(abs(weight_of(sigma[i], sigma[j]) - w))
        diffs.append(abs(weight_of(inverse[i], inverse[j]) - w))
    return Fraction(max(diffs), den) <= tol


def zero_eigenvalue_count(g: Graph) -> int:
    """Number of numerically-zero Laplacian eigenvalues.

    The threshold scales with the matrix magnitude so heavy weights do not
    misclassify small nonzero eigenvalues.
    """
    lap = g.laplacian_array()
    scale = max(1.0, float(np.max(np.abs(lap)))) if lap.size else 1.0
    eigs = np.linalg.eigvalsh(lap)
    return int(np.sum(np.abs(eigs) < ZERO_EIGENVALUE_TOL * scale))
