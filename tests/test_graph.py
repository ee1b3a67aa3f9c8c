from fractions import Fraction

import numpy as np
import pytest

from alf import (
    Graph,
    InvalidGraphError,
    Permutation,
    commutes_with_laplacian,
    zero_eigenvalue_count,
)
from alf.errors import DimensionMismatchError
from alf.graph import components
from alf.prng import SplitMix64

from conftest import random_graph, random_permutation


def test_complete_graph_edges():
    g = Graph.complete(3)
    assert {(i, j) for i, j, _ in g.edges} == {(1, 2), (1, 3), (2, 3)}
    assert all(w == 1 for _, _, w in g.edges)


def test_complete_graph_sizes():
    assert Graph.complete(1).edges == ()
    assert len(Graph.complete(10).edges) == 45


def test_complete_graph_rejects_zero_nodes():
    with pytest.raises(InvalidGraphError):
        Graph.complete(0)


def test_graph_rejects_self_loops_duplicates_and_bad_weights():
    with pytest.raises(InvalidGraphError):
        Graph(2, ((1, 1, Fraction(1)),))
    with pytest.raises(InvalidGraphError):
        Graph(3, ((1, 2, Fraction(1)), (2, 1, Fraction(2))))
    with pytest.raises(InvalidGraphError):
        Graph(2, ((1, 2, Fraction(-1)),))
    with pytest.raises(InvalidGraphError):
        Graph(2, ((1, 3, Fraction(1)),))


def test_laplacian_k3():
    lap = Graph.complete(3).laplacian()
    assert lap == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_laplacian_single_edge():
    assert Graph.path(2).laplacian() == [[1, -1], [-1, 1]]


def test_laplacian_weighted_k3():
    # hand evaluation of degree-minus-adjacency with w12 = 2
    g = Graph(3, ((1, 2, Fraction(2)), (1, 3, Fraction(1)), (2, 3, Fraction(1))))
    lap = g.laplacian()
    assert [lap[i][i] for i in range(3)] == [3, 3, 2]
    assert lap[0][1] == -2 and lap[1][0] == -2


def test_laplacian_row_sums_zero_exactly():
    rng = SplitMix64(2024)
    for _ in range(25):
        g = random_graph(rng, 3 + rng.next_u64() % 8)
        for row in g.laplacian():
            assert sum(row) == 0


def test_connected_components():
    assert Graph.complete(3).connected_components() == [frozenset({1, 2, 3})]
    two = Graph(5, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (4, 5, 1)))
    assert two.connected_components() == [frozenset({1, 2, 3}), frozenset({4, 5})]
    assert len(Graph(4).connected_components()) == 4


def test_components_equal_transitive_closure():
    # orbits join each node with its images, so self-pairs and repeated pairs occur
    rng = SplitMix64(2024)
    for _ in range(200):
        n = 1 + rng.next_u64() % 12
        pairs = [(1 + rng.next_u64() % n, 1 + rng.next_u64() % n) for _ in range(rng.next_u64() % (2 * n))]
        pairs += [(i, i) for i, _ in pairs[:2]] + pairs[:3]
        linked = [[i == j for j in range(n + 1)] for i in range(n + 1)]
        for i, j in pairs:
            linked[i][j] = linked[j][i] = True
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    linked[i][j] = linked[i][j] or (linked[i][k] and linked[k][j])
        closure = {frozenset(j for j in range(1, n + 1) if linked[i][j]) for i in range(1, n + 1)}
        assert components(n, pairs) == sorted(closure, key=min)


def test_zero_eigenvalue_multiplicity_matches_components():
    rng = SplitMix64(99)
    for _ in range(50):
        g = random_graph(rng, 2 + rng.next_u64() % 11, edge_prob=0.35)
        assert zero_eigenvalue_count(g) == len(g.connected_components())


def test_laplacian_positive_semidefinite():
    rng = SplitMix64(4242)
    for _ in range(100):
        g = random_graph(rng, 2 + rng.next_u64() % 9, edge_prob=0.6)
        eigs = np.linalg.eigvalsh(g.laplacian_array())
        assert eigs.min() >= -1e-10


def test_complete_graph_commutes_with_any_permutation_exactly():
    rng = SplitMix64(7)
    for n in (4, 6):
        g = Graph.complete(n)
        for _ in range(25):
            assert commutes_with_laplacian(g, random_permutation(rng, n), tol=0)


def test_path_graph_commutator_counterexample():
    g = Graph.path(3)
    sigma = Permutation.transposition(3, 1, 2)
    # independent oracle: float matrix commutator
    lap = g.laplacian_array()
    mat = np.array(sigma.matrix(), dtype=float)
    assert np.max(np.abs(lap @ mat - mat @ lap)) > 0.5
    assert not commutes_with_laplacian(g, sigma, tol=1e-12)


def _commutator_norm(g: Graph, p: Permutation) -> Fraction:
    """max |(L P - P L)_ij| from the two exact matrix products (reference oracle)."""
    lap = g.laplacian()
    sigma = p.matrix()
    worst = Fraction(0)
    for i in range(g.n):
        for j in range(g.n):
            ls = sum(lap[i][k] * sigma[k][j] for k in range(g.n))
            sl = sum(sigma[i][k] * lap[k][j] for k in range(g.n))
            worst = max(worst, abs(ls - sl))
    return worst


def _graph_with_automorphism(rng: SplitMix64, p: Permutation) -> Graph:
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


def test_commutes_agrees_with_matrix_product_oracle():
    rng = SplitMix64(29)
    tols = (0, Fraction(1, 2), 2.5)
    seen = set()
    for _ in range(60):
        n = 2 + rng.next_u64() % 6
        p = random_permutation(rng, n)
        g = _graph_with_automorphism(rng, p) if rng.uniform() < 0.5 else random_graph(rng, n, 0.6)
        worst = _commutator_norm(g, p)
        verdicts = tuple(commutes_with_laplacian(g, p, tol=tol) for tol in tols)
        assert verdicts == tuple(worst <= tol for tol in tols)
        seen.add(verdicts)
    # automorphisms, non-automorphisms, and commutators that only a positive tol accepts
    assert (True, True, True) in seen and (False, False, False) in seen
    assert any(not v[0] and v[-1] for v in seen)


def _dense_commutator_norm(g: Graph, p: Permutation) -> Fraction:
    """max |L[sigma(a)][sigma(b)] - L[a][b]| over all (a, b) of the dense exact Laplacian (the definition)."""
    lap = g.laplacian()
    s = [target - 1 for target in p.image]
    return max(abs(lap[s[a]][s[b]] - lap[a][b]) for a in range(g.n) for b in range(g.n))


def _graph_with_isolated_nodes(rng: SplitMix64, n: int) -> Graph:
    """Random graph with weights among 1/3, 1, 7/5, 2 and about a quarter of the nodes left without edges."""
    isolated = {i for i in range(1, n + 1) if rng.uniform() < 0.25}
    weights = (Fraction(1, 3), Fraction(1), Fraction(7, 5), Fraction(2))
    edges = [(i, j, weights[rng.next_u64() % 4]) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if i not in isolated and j not in isolated and rng.uniform() < 0.5]
    return Graph(n, tuple(edges))


def test_commutes_equals_dense_definition():
    rng = SplitMix64(41)
    seen = set()
    for _ in range(300):
        n = 1 + rng.next_u64() % 8
        p = random_permutation(rng, n)
        g = _graph_with_automorphism(rng, p) if rng.uniform() < 0.3 else _graph_with_isolated_nodes(rng, n)
        lap = g.laplacian()
        s = [target - 1 for target in p.image]
        diffs = sorted({abs(lap[s[a]][s[b]] - lap[a][b]) for a in range(n) for b in range(n)})
        # tols strictly between two of the entry differences, when there are two: the two largest and a random
        # pair; and the largest difference itself
        k = rng.next_u64() % max(1, len(diffs) - 1)
        between = [(diffs[i] + diffs[i + 1]) / 2 for i in (k, len(diffs) - 2) if len(diffs) > 1]
        worst = _dense_commutator_norm(g, p)
        tols = [("fixed", 0), ("fixed", 1e-12), ("max", worst)] + [("between", tol) for tol in between]
        for kind, tol in tols:
            verdict = commutes_with_laplacian(g, p, tol=tol)
            assert verdict == (worst <= tol)
            seen.add((kind, verdict))
    assert seen == {("fixed", True), ("fixed", False), ("between", False), ("max", True)}


def test_commutes_reads_both_the_image_and_the_preimage_of_each_edge():
    # every degree is 1/3 + 7/5, and the 3-cycle moves each missing pair onto an edge of weight 7/5 and one
    # such edge onto a missing pair: the max 7/5 comes only from the edge met as an image under sigma, and
    # only from the edge met as a preimage under its inverse
    g = Graph(4, ((2, 3, Fraction(7, 5)), (1, 3, Fraction(1, 3)), (1, 4, Fraction(7, 5)), (2, 4, Fraction(1, 3))))
    for p in (Permutation((2, 3, 1, 4)), Permutation((3, 1, 2, 4))):
        assert _dense_commutator_norm(g, p) == Fraction(7, 5)
        assert not commutes_with_laplacian(g, p, tol=(Fraction(16, 15) + Fraction(7, 5)) / 2)
        assert commutes_with_laplacian(g, p, tol=Fraction(7, 5))


def test_identity_always_commutes():
    rng = SplitMix64(13)
    for _ in range(10):
        g = random_graph(rng, 3 + rng.next_u64() % 6)
        assert commutes_with_laplacian(g, Permutation.identity(g.n), tol=0)


def test_commutes_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutes_with_laplacian(Graph.complete(3), Permutation.identity(4))


def test_permutation_apply():
    p = Permutation((2, 3, 1))  # 1->2, 2->3, 3->1
    assert p.apply([10, 20, 30]) == [30, 10, 20]


def test_permutation_matrix_is_orthogonal():
    rng = SplitMix64(5)
    for _ in range(10):
        p = random_permutation(rng, 6)
        m = np.array(p.matrix(), dtype=float)
        assert np.allclose(m @ m.T, np.eye(6))
        x = np.arange(1.0, 7.0)
        assert np.allclose(m @ x, p.apply(list(x)))


def test_graph_json_round_trip():
    g = Graph(3, ((1, 2, Fraction(5, 2)), (2, 3, Fraction(1)),))
    spec = g.to_json()
    g2 = Graph.from_edge_list(spec["n"], spec["edges"])
    assert g2 == g
