"""SNAP edge-list loader."""

import pytest

from repro.graphs.loader import load_edge_list
from repro.util.exceptions import DatasetError


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadEdgeList:
    def test_basic_parse(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n2 0\n"))
        assert g.num_nodes == 3
        assert g.num_edges == 3

    def test_comments_ignored(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n% other\n0 1\n"))
        assert g.num_edges == 1

    def test_blank_lines_ignored(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n\n\n1 2\n"))
        assert g.num_edges == 2

    def test_arbitrary_node_ids_relabelled(self, tmp_path):
        g = load_edge_list(write(tmp_path, "1000 2000\n2000 50\n"))
        assert g.num_nodes == 3
        assert set(range(3)) == {v for e in g.edges() for v in e}

    def test_self_loops_dropped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 0\n0 1\n"))
        assert g.num_edges == 1

    def test_directed_input_symmetrized(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 0\n"))
        assert g.num_edges == 1

    def test_largest_component_returned(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n5 6\n"))
        assert g.num_nodes == 3

    def test_max_nodes_subsampling(self, tmp_path):
        text = "\n".join(f"{i} {i + 1}" for i in range(50))
        g = load_edge_list(write(tmp_path, text), max_nodes=10)
        assert g.num_nodes <= 10

    def test_max_nodes_graph_pinned(self, tmp_path):
        # Ids in first-seen order 10..100 (90's self-loop never counts);
        # 110 and 120 fall past max_nodes, {40, 50, 60} and {100} are smaller.
        text = "10 20\n20 30\n30 10\n40 50\n50 60\n20 70\n70 80\n90 90\n10 20\n60 40\n100 110\n80 10\n110 120\n"
        g = load_edge_list(write(tmp_path, text), max_nodes=9)
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (3, 4)]
        assert [list(g.neighbor_set(v)) for v in range(g.num_nodes)] == [
            [1, 2, 4], [0, 2, 3], [0, 1], [1, 4], [0, 3]
        ]

    def test_name_from_filename(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n", name="facebook_combined.txt"))
        assert g.name == "facebook_combined"

    def test_missing_file_rejected(self):
        with pytest.raises(DatasetError):
            load_edge_list("/nonexistent/file.txt")

    def test_malformed_line_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_edge_list(write(tmp_path, "0\n"))

    def test_non_integer_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_edge_list(write(tmp_path, "a b\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_edge_list(write(tmp_path, "# only comments\n"))
