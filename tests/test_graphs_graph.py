"""SocialGraph container invariants."""

import numpy as np
import pytest

from repro.graphs.graph import SocialGraph
from repro.util.exceptions import DatasetError


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_edges == 7
        assert len(tiny_graph) == 6

    def test_degrees(self, tiny_graph):
        assert tiny_graph.degree(2) == 3
        assert tiny_graph.degree(3) == 3
        assert list(tiny_graph.degrees) == [2, 2, 3, 3, 2, 2]

    def test_neighbors_sorted(self, tiny_graph):
        assert list(tiny_graph.neighbors(2)) == [0, 1, 3]

    def test_neighbor_set_matches_array(self, tiny_graph):
        for v in range(tiny_graph.num_nodes):
            assert tiny_graph.neighbor_set(v) == set(tiny_graph.neighbors(v).tolist())

    def test_has_edge_symmetric(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1) and tiny_graph.has_edge(1, 0)
        assert not tiny_graph.has_edge(0, 5)

    def test_duplicate_edges_tolerated(self):
        g = SocialGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(DatasetError):
            SocialGraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DatasetError):
            SocialGraph(3, [(0, 3)])

    def test_empty_graph_rejected(self):
        with pytest.raises(DatasetError):
            SocialGraph(0, [])

    def test_edges_iterates_each_once(self, tiny_graph):
        edges = list(tiny_graph.edges())
        assert len(edges) == tiny_graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_average_degree(self, tiny_graph):
        assert tiny_graph.average_degree() == pytest.approx(2 * 7 / 6)


class TestMutualFriends:
    def test_triangle(self, tiny_graph):
        assert tiny_graph.mutual_friends(0, 1) == 1  # both know 2

    def test_no_overlap(self, tiny_graph):
        assert tiny_graph.mutual_friends(0, 4) == 0


class TestLargestComponent:
    def test_connected_graph_unchanged(self, tiny_graph):
        lcc = tiny_graph.largest_component()
        assert lcc.num_nodes == 6
        assert lcc.num_edges == 7

    def test_disconnected_picks_biggest(self):
        # component A: 0-1-2 (3 nodes), component B: 3-4 (2 nodes)
        g = SocialGraph(5, [(0, 1), (1, 2), (3, 4)])
        lcc = g.largest_component()
        assert lcc.num_nodes == 3
        assert lcc.num_edges == 2

    def test_relabelled_dense(self):
        g = SocialGraph(6, [(2, 4), (4, 5), (0, 1)])
        lcc = g.largest_component()
        assert set(range(lcc.num_nodes)) == {0, 1, 2}

    def test_connected_graph_is_returned_as_is(self, tiny_graph):
        assert tiny_graph.largest_component() is tiny_graph

    def test_tie_keeps_component_of_smallest_node(self):
        # {1, 4, 5} and {0, 2, 3}: three nodes each; node 0 decides.
        lcc = SocialGraph(6, [(1, 4), (4, 5), (2, 3), (0, 3)]).largest_component()
        assert list(lcc.edges()) == [(0, 2), (1, 2)]

    def test_isolated_nodes_dropped(self):
        lcc = SocialGraph(6, [(5, 4), (1, 3), (3, 4)]).largest_component()
        assert lcc.num_nodes == 4
        assert list(lcc.edges()) == [(0, 1), (1, 2), (2, 3)]


class TestImmutability:
    def test_arrays_are_read_only(self, tiny_graph):
        for array in (tiny_graph.degrees, tiny_graph.neighbors(2), *tiny_graph.csr):
            with pytest.raises(ValueError):
                array[0] = 9

    def test_degrees_is_view_of_internal_state(self, tiny_graph):
        degrees = tiny_graph.degrees
        assert isinstance(degrees, np.ndarray)
        # Same object each call (no copies on the hot path).
        assert tiny_graph.degrees is degrees
