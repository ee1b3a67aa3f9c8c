from fractions import Fraction

import numpy as np
import pytest

from alf import (
    Graph,
    InvalidGraphError,
    Permutation,
    commutes_with_laplacian,
)
from alf.errors import DimensionMismatchError
from alf.graph import components
from alf.prng import SplitMix64

from conftest import (
    dense_laplacian,
    graph_with_automorphism,
    graph_with_isolated_nodes,
    permutation_matrix,
    random_graph,
    random_permutation,
)


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


def test_graph_rejects_a_non_integer_endpoint():
    with pytest.raises(InvalidGraphError, match="non-integer endpoint"):
        Graph(3, ((1.5, 2, 1),))
    with pytest.raises(InvalidGraphError, match="non-integer endpoint"):
        Graph.from_edge_list(3, [(1, "2", 1)])


@pytest.mark.parametrize("weight", (float("nan"), float("inf"), float("-inf")), ids=("nan", "inf", "-inf"))
def test_graph_rejects_a_non_finite_weight(weight):
    with pytest.raises(InvalidGraphError, match="non-finite weight"):
        Graph(3, ((1, 2, weight),))


@pytest.mark.parametrize("weight", ("heavy", None, [1]), ids=("string", "none", "list"))
def test_graph_rejects_a_non_numeric_weight(weight):
    with pytest.raises(InvalidGraphError, match="non-numeric"):
        Graph.from_edge_list(3, [(1, 2, weight)])


def test_graph_rejects_a_non_integer_node_count():
    with pytest.raises(InvalidGraphError, match="node count must be an integer"):
        Graph(2.5, ((1, 2, 1),))


@pytest.mark.parametrize("edges", (((1, 2),), (5,), ((1, 2, 1, 1),)), ids=("pair", "int", "quadruple"))
def test_graph_rejects_an_edge_that_is_not_a_triple(edges):
    with pytest.raises(InvalidGraphError, match="not an \\(i, j, weight\\) triple"):
        Graph(3, edges)


def test_laplacian_k3():
    lap = Graph.complete(3).laplacian()
    assert lap == [[(0, 2), (1, -1), (2, -1)], [(0, -1), (1, 2), (2, -1)], [(0, -1), (1, -1), (2, 2)]]


def test_laplacian_single_edge():
    assert Graph.path(2).laplacian() == [[(0, 1), (1, -1)], [(0, -1), (1, 1)]]


def test_laplacian_weighted_k3():
    # hand evaluation of degree-minus-adjacency with w12 = 2
    g = Graph(3, ((1, 2, Fraction(2)), (1, 3, Fraction(1)), (2, 3, Fraction(1))))
    lap = [dict(row) for row in g.laplacian()]
    assert [lap[i][i] for i in range(3)] == [3, 3, 2]
    assert lap[0][1] == -2 and lap[1][0] == -2


def test_laplacian_row_sums_zero_exactly():
    rng = SplitMix64(2024)
    for _ in range(25):
        g = random_graph(rng, 3 + rng.next_u64() % 8)
        for row in g.laplacian():
            assert sum(w for _, w in row) == 0


def test_laplacian_rows_equal_the_dense_definition():
    rng = SplitMix64(808)
    graphs = [Graph(1), Graph(4), Graph(5, ((2, 4, Fraction(1, 3)),))]
    graphs += [random_graph(rng, 1 + rng.next_u64() % 10, 0.1 + 0.8 * rng.uniform()) for _ in range(60)]
    graphs += [graph_with_isolated_nodes(rng, 1 + rng.next_u64() % 10) for _ in range(60)]
    assert any(not row for g in graphs for row in g.laplacian())
    for g in graphs:
        rows = g.laplacian()
        assert len(rows) == g.n
        for row, dense_row in zip(rows, dense_laplacian(g)):
            cols = [j for j, _ in row]
            assert cols == sorted(set(cols))
            assert all(type(w) is Fraction and w != 0 for _, w in row)
            assert row == [(j, w) for j, w in enumerate(dense_row) if w != 0]


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
        lap = g.laplacian_array()
        scale = max(1.0, float(np.max(np.abs(lap))))
        zeros = int(np.sum(np.abs(np.linalg.eigvalsh(lap)) < 1e-8 * scale))
        assert zeros == len(g.connected_components())


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
            assert commutes_with_laplacian(g, random_permutation(rng, n))


def test_path_graph_commutator_counterexample():
    g = Graph.path(3)
    sigma = Permutation.transposition(3, 1, 2)
    # independent oracle: float matrix commutator
    lap = g.laplacian_array()
    mat = np.array(permutation_matrix(sigma), dtype=float)
    assert np.max(np.abs(lap @ mat - mat @ lap)) > 0.5
    assert not commutes_with_laplacian(g, sigma)


def _commutator_norm(g: Graph, p: Permutation) -> Fraction:
    """max |(L P - P L)_ij| from the two exact matrix products (reference oracle)."""
    lap = dense_laplacian(g)
    sigma = permutation_matrix(p)
    worst = Fraction(0)
    for i in range(g.n):
        for j in range(g.n):
            ls = sum(lap[i][k] * sigma[k][j] for k in range(g.n))
            sl = sum(sigma[i][k] * lap[k][j] for k in range(g.n))
            worst = max(worst, abs(ls - sl))
    return worst


def test_commutes_agrees_with_matrix_product_oracle():
    rng = SplitMix64(29)
    seen = set()
    for _ in range(60):
        n = 2 + rng.next_u64() % 6
        p = random_permutation(rng, n)
        g = graph_with_automorphism(rng, p) if rng.uniform() < 0.5 else random_graph(rng, n, 0.6)
        verdict = commutes_with_laplacian(g, p)
        assert verdict == (_commutator_norm(g, p) == 0)
        seen.add(verdict)
    assert seen == {True, False}


def _dense_commutator_norm(g: Graph, p: Permutation) -> Fraction:
    """max |L[sigma(a)][sigma(b)] - L[a][b]| over all (a, b) of the dense exact Laplacian (the definition)."""
    lap = dense_laplacian(g)
    s = [target - 1 for target in p.image]
    return max(abs(lap[s[a]][s[b]] - lap[a][b]) for a in range(g.n) for b in range(g.n))


def test_commutes_equals_dense_definition():
    rng = SplitMix64(41)
    seen = set()
    for _ in range(300):
        n = 1 + rng.next_u64() % 8
        p = random_permutation(rng, n)
        automorphic = rng.uniform() < 0.3
        g = graph_with_automorphism(rng, p) if automorphic else graph_with_isolated_nodes(rng, n)
        verdict = commutes_with_laplacian(g, p)
        assert verdict == (_dense_commutator_norm(g, p) == 0)
        seen.add((automorphic, verdict))
    # graphs built with p as an automorphism commute; the others both commute (p fixing the edges) and not
    assert seen == {(True, True), (False, True), (False, False)}


def test_commutes_reads_both_the_image_and_the_preimage_of_each_edge():
    # every degree is 1/3 + 7/5, so the diagonal of L P - P L is zero and the verdict rests on the edge map
    # alone: under the 3-cycle and under its inverse every edge lands on a missing pair or on an edge of the
    # other weight, and every missing pair on an edge
    g = Graph(4, ((2, 3, Fraction(7, 5)), (1, 3, Fraction(1, 3)), (1, 4, Fraction(7, 5)), (2, 4, Fraction(1, 3))))
    for p in (Permutation((2, 3, 1, 4)), Permutation((3, 1, 2, 4))):
        assert _dense_commutator_norm(g, p) == Fraction(7, 5)
        assert not commutes_with_laplacian(g, p)


def test_identity_always_commutes():
    rng = SplitMix64(13)
    for _ in range(10):
        g = random_graph(rng, 3 + rng.next_u64() % 6)
        assert commutes_with_laplacian(g, Permutation.identity(g.n))


def test_commutes_compares_weights_as_normalised_pairs():
    # weights equal as rationals though given as ints, floats and unreduced Fractions, and unequal weights
    # that share a numerator or a denominator
    weights = (1, 1.0, Fraction(2, 2), Fraction(1, 2), 0.5, Fraction(1, 3), Fraction(2, 3), Fraction(2, 5),
               2, Fraction(4, 2), 0.1)
    rng = SplitMix64(47)
    seen = set()
    for _ in range(200):
        n = 2 + rng.next_u64() % 6
        p = random_permutation(rng, n)
        if rng.uniform() < 0.3:
            g = graph_with_automorphism(rng, p)
        else:
            g = Graph(n, tuple((i, j, weights[rng.next_u64() % len(weights)])
                               for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.uniform() < 0.7))
        verdict = commutes_with_laplacian(g, p)
        assert verdict == (_commutator_norm(g, p) == 0)
        assert commutes_with_laplacian(g, p) == verdict and g.weight_pairs is g.weight_pairs
        assert g.weight_pairs == {(i, j): (w.numerator, w.denominator) for i, j, w in g.edges}
        seen.add(verdict)
    assert seen == {True, False}
    # swapping the leaves of a star maps each spoke onto the other: equal weights commute, unequal ones do not
    swap = Permutation.transposition(3, 2, 3)
    for w2, w3, verdict in ((Fraction(1, 2), 0.5, True), (Fraction(2, 4), Fraction(1, 2), True), (1, 1.0, True),
                            (Fraction(1, 2), Fraction(1, 3), False), (Fraction(2, 3), Fraction(2, 5), False),
                            (Fraction(1, 3), Fraction(2, 3), False), (0.1, Fraction(1, 10), False)):
        g = Graph(3, ((1, 2, w2), (1, 3, w3)))
        assert commutes_with_laplacian(g, swap) is verdict is (_commutator_norm(g, swap) == 0)


def test_commutes_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutes_with_laplacian(Graph.complete(3), Permutation.identity(4))


def test_permutation_apply():
    p = Permutation((2, 3, 1))  # 1->2, 2->3, 3->1
    assert p.apply([10, 20, 30]) == [30, 10, 20]


def test_permutation_stores_int_images_and_refuses_non_integer_entries():
    p = Permutation([np.int64(2), np.int64(1)])
    assert p.image == (2, 1) and all(type(t) is int for t in p.image)
    with pytest.raises(InvalidGraphError, match="non-integer entry"):
        Permutation((2.0, 1.0))
    with pytest.raises(InvalidGraphError, match="non-integer entry"):
        Permutation((1, "2"))


def test_permutation_matrix_is_orthogonal():
    rng = SplitMix64(5)
    for _ in range(10):
        p = random_permutation(rng, 6)
        m = np.array(permutation_matrix(p), dtype=float)
        assert np.allclose(m @ m.T, np.eye(6))
        x = np.arange(1.0, 7.0)
        assert np.allclose(m @ x, p.apply(list(x)))


def test_graph_json_round_trip():
    g = Graph(3, ((1, 2, Fraction(5, 2)), (2, 3, Fraction(1)),))
    spec = g.to_json()
    g2 = Graph.from_edge_list(spec["n"], spec["edges"])
    assert g2 == g
