"""Shared fixtures and deterministic random helpers."""

from fractions import Fraction

import pytest

from alf import Graph, Permutation, ResponseField, ResponseFunction
from alf.prng import SplitMix64


def rational(rng: SplitMix64, denom: int = 100, span: int = 200) -> Fraction:
    """Small random rational in [-span/denom, span/denom)."""
    return Fraction(rng.next_u64() % (2 * span) - span, denom)


def rational_state(rng: SplitMix64, n: int) -> list[Fraction]:
    return [rational(rng) for _ in range(n)]


def random_permutation(rng: SplitMix64, n: int) -> Permutation:
    image = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):  # Fisher-Yates on the splitmix stream
        j = rng.next_u64() % (i + 1)
        image[i], image[j] = image[j], image[i]
    return Permutation(tuple(image))


def random_graph(rng: SplitMix64, n: int, edge_prob: float = 0.5) -> Graph:
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.uniform() < edge_prob:
                edges.append((i, j, Fraction(rng.next_u64() % 400 + 1, 100)))
    return Graph(n, tuple(edges))


def graph_with_automorphism(rng: SplitMix64, p: Permutation) -> Graph:
    """Random weighted graph invariant under p: one draw per orbit of node pairs."""
    edges = {}
    for i in range(1, p.n + 1):
        for j in range(i + 1, p.n + 1):
            if (i, j) in edges:
                continue
            weight = Fraction(rng.next_u64() % 400 + 1, 100) if rng.uniform() < 0.6 else None
            a, b = i, j
            while (min(a, b), max(a, b)) not in edges:
                edges[(min(a, b), max(a, b))] = weight
                a, b = p(a), p(b)
    return Graph(p.n, tuple((i, j, w) for (i, j), w in edges.items() if w is not None))


def graph_with_isolated_nodes(rng: SplitMix64, n: int) -> Graph:
    """Random graph with weights among 1/3, 1, 7/5, 2 and about a quarter of the nodes left without edges."""
    isolated = {i for i in range(1, n + 1) if rng.uniform() < 0.25}
    weights = (Fraction(1, 3), Fraction(1), Fraction(7, 5), Fraction(2))
    edges = [(i, j, weights[rng.next_u64() % 4]) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if i not in isolated and j not in isolated and rng.uniform() < 0.5]
    return Graph(n, tuple(edges))


def dense_laplacian(g: Graph) -> list[list[Fraction]]:
    """Degree matrix minus adjacency matrix of g, n x n exact rationals built from its edge list (the definition)."""
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for i, j, w in g.edges:
        lap[i - 1][j - 1] -= w
        lap[j - 1][i - 1] -= w
        lap[i - 1][i - 1] += w
        lap[j - 1][j - 1] += w
    return lap


def assert_generic_transcritical_threshold(n, d2f_center, d2f_mirror, h, h_tilde, lam) -> None:
    """The canard threshold `lam` equals the generic transcritical route's, all inputs exact.

    The generic route (Krupa and Szmolyan 2001) reads the half second
    partials alpha, beta, gamma of the fast equation in (x, k), its forcing
    delta and the slow drift g0, and gives
    lam == (delta alpha + g0 beta) / (|g0| sqrt(beta^2 - gamma alpha)).
    Both sides are compared squared, so exactly, and their signs must agree.
    The curvatures at the point and at its mirror are passed apart, so a
    plane whose two node classes differ reads the same route.
    """
    alpha = Fraction(-d2f_center + (n - 1) ** 2 * d2f_mirror) / 2
    beta = Fraction(-(n - 1) * d2f_mirror) / 2
    gamma = Fraction(d2f_mirror) / 2
    g0 = (n - 1) * h + h_tilde
    disc = beta * beta - gamma * alpha
    assert disc > 0 and g0 != 0
    numer = h * alpha + g0 * beta
    target = lam * abs(g0)
    assert numer * numer == target * target * disc
    assert (numer > 0) - (numer < 0) == (target > 0) - (target < 0)


def permutation_matrix(p: Permutation) -> list[list[int]]:
    """The 0/1 matrix P with P e_j = e_sigma(j)."""
    m = [[0] * p.n for _ in range(p.n)]
    for j, target in enumerate(p.image):
        m[target - 1][j] = 1
    return m


@pytest.fixture
def ex1_response() -> ResponseFunction:
    """The double-well quartic (x-1)^2 (x+1)^2 used across the examples."""
    return ResponseFunction.from_roots([(1, 2), (-1, 2)])


@pytest.fixture
def ex1_field(ex1_response) -> ResponseField:
    return ResponseField(ex1_response)
