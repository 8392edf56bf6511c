"""The divide-and-conquer TCO builder, checked against a connectivity oracle."""

from repro.baselines.tco import build_tco


def topic_components(topics: dict, edges) -> dict:
    """Number of connected components per topic under ``edges``.

    ``topics`` maps topic id -> iterable of member nodes. A topic is
    *topic-connected* when its component count is 1.
    """
    out = {}
    for t, members in topics.items():
        parent = {m: m for m in members}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in edges:
            if u in parent and v in parent:
                parent[find(u)] = find(v)
        out[t] = sum(1 for m in parent if find(m) == m)
    return out


class TestTopicComponents:
    def test_disconnected_topic(self):
        topics = {"t": [1, 2, 3]}
        assert topic_components(topics, edges=set())["t"] == 3

    def test_connected_topic(self):
        topics = {"t": [1, 2, 3]}
        assert topic_components(topics, {(1, 2), (2, 3)})["t"] == 1

    def test_edges_outside_topic_ignored(self):
        topics = {"t": [1, 2]}
        assert topic_components(topics, {(3, 4)})["t"] == 2

    def test_empty_topic(self):
        assert topic_components({"t": []}, set())["t"] == 0


class TestBuildTco:
    def test_every_topic_connected_without_cap(self):
        topics = {
            "a": [1, 2, 3],
            "b": [3, 4, 5],
            "c": [1, 5, 6, 7],
        }
        edges = build_tco(topics)
        comps = topic_components(topics, edges)
        assert all(c == 1 for c in comps.values())

    def test_reuses_edges_across_topics(self):
        topics = {"a": [1, 2], "b": [1, 2], "c": [1, 2]}
        edges = build_tco(topics)
        assert len(edges) == 1

    def test_degree_cap_respected(self):
        topics = {f"t{i}": [0, i] for i in range(1, 8)}
        edges = build_tco(topics, max_degree=3)
        degree = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert max(degree.values(), default=0) <= 3

    def test_small_topics_prioritized_under_cap(self):
        # With a tight cap, the tiny topic must still get its edge.
        topics = {"small": [8, 9], "big": [0, 1, 2, 3, 4, 5, 6, 7]}
        edges = build_tco(topics, max_degree=2)
        assert topic_components(topics, edges)["small"] == 1

    def test_singleton_topics_need_no_edges(self):
        assert build_tco({"t": [5]}) == set()

    def test_matches_greedy_merge_connectivity(self):
        # The input Greedy Merge connects fully; the approximation must too.
        topics = {"a": [1, 2, 3, 4], "b": [2, 4, 6], "c": [5, 6]}
        comps = topic_components(topics, build_tco(topics))
        assert comps == {"a": 1, "b": 1, "c": 1}
