"""Weighted simple graphs, their Laplacian, permutations, and node partitions.

Nodes are labelled 1..n.  Edge weights are stored as exact rationals
(floats convert losslessly), so algebraic identities such as the zero row
sums of the Laplacian hold exactly and are testable without tolerances.
The Laplacian is built from the edge list as sparse exact rows, and
commutation with a permutation is decided on the edges alone: no n x n
matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import index

import numpy as np

from .errors import DimensionMismatchError, InvalidGraphError
from .precision import exact


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
        try:
            object.__setattr__(self, "image", tuple(index(t) for t in self.image))
        except TypeError:
            raise InvalidGraphError(f"permutation image has a non-integer entry: {self.image}") from None
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


@dataclass(frozen=True)
class Graph:
    """Weighted undirected simple graph on nodes 1..n.

    `edges` is a sorted tuple of (i, j, weight) with i < j; weights are
    strictly positive Fractions.  Symmetry is guaranteed by construction.
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...] = field(default=())

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", index(self.n))
        except TypeError:
            raise InvalidGraphError(f"node count must be an integer, got {self.n!r}") from None
        if self.n < 1:
            raise InvalidGraphError(f"node count must be >= 1, got {self.n}")
        seen = set()
        norm = []
        for edge in self.edges:
            try:
                i, j, w = edge
            except (TypeError, ValueError):
                raise InvalidGraphError(f"edge {edge!r} is not an (i, j, weight) triple") from None
            try:
                i, j = index(i), index(j)
            except TypeError:
                raise InvalidGraphError(f"edge ({i},{j}) has a non-integer endpoint") from None
            if i == j:
                raise InvalidGraphError(f"self-loop at node {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise InvalidGraphError(f"edge ({i},{j}) out of range 1..{self.n}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise InvalidGraphError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            try:
                w = exact(w)
            except (TypeError, ValueError, OverflowError):
                raise InvalidGraphError(f"edge ({i},{j}) has non-numeric or non-finite weight {w!r}") from None
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
        """Build from [(i, j), ...] or [(i, j, w), ...] entries; a pair has weight 1."""
        return cls(n, tuple((*entry, 1) if len(entry) == 2 else tuple(entry) for entry in edge_list))

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    def is_unit_complete(self) -> bool:
        """Complete with every edge weight 1, so any two nodes are exchangeable."""
        return self.is_complete() and all(w == 1 for _, _, w in self.edges)

    @cached_property
    def weight_pairs(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(i, j) -> (numerator, denominator) of each edge's weight, i < j; equal pairs are equal weights."""
        return {(i, j): (w.numerator, w.denominator) for i, j, w in self.edges}

    def laplacian(self) -> list[list[tuple[int, Fraction]]]:
        """L = D - A as sparse exact rows: row i holds the nonzero (j, L_ij) in ascending j, 0-based.

        Built from `edges` in O(|E| + n).  The edges are sorted, so each
        row meets its lower neighbours, then its upper ones, in ascending
        order; the degree goes between them, summed in integers over the
        weights' common denominator.  An isolated node has an empty row.
        """
        den = lcm(*(w.denominator for _, _, w in self.edges))
        lower = [[] for _ in range(self.n)]
        upper = [[] for _ in range(self.n)]
        degree = [0] * self.n
        for i, j, w in self.edges:
            neg = -w
            upper[i - 1].append((j - 1, neg))
            lower[j - 1].append((i - 1, neg))
            d = w.numerator * (den // w.denominator)
            degree[i - 1] += d
            degree[j - 1] += d
        return [lo + [(a, Fraction(d, den))] + up if d else []
                for a, (lo, d, up) in enumerate(zip(lower, degree, upper))]

    def laplacian_array(self) -> np.ndarray:
        """`laplacian()` as a dense float matrix, each exact entry converted once."""
        out = np.zeros((self.n, self.n))
        for i, row in enumerate(self.laplacian()):
            for j, w in row:
                out[i, j] = float(w)
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


def commutes_with_laplacian(g: Graph, p: Permutation) -> bool:
    """Whether L P = P L exactly: whether p maps every edge onto an edge of the same weight.

    L P = P L says L[sigma(a)][sigma(b)] = L[a][b] for all (a, b).  Off the
    diagonal that is the edge-map test.  sigma permutes the node pairs, so
    when the edges land on edges they fill them, non-edges land on
    non-edges, and each node's weighted degree is its image's: the
    diagonal follows.  One pass over the edges, O(|E| + n), no matrix; the
    weights are compared as the graph's integer (numerator, denominator)
    pairs (`Graph.weight_pairs`, built once per graph).
    """
    if p.n != g.n:
        raise DimensionMismatchError(f"permutation on {p.n} symbols, graph has {g.n} nodes")
    weight = g.weight_pairs
    sigma = (0,) + p.image
    for (i, j), w in weight.items():
        a, b = sigma[i], sigma[j]
        if weight.get((a, b) if a < b else (b, a)) != w:
            return False
    return True
