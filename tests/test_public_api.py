"""Public API surface: exports exist, are documented, compose, and are called."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re
from collections import Counter

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.baselines",
    "repro.pubsub",
    "repro.overlay",
    "repro.idspace",
    "repro.graphs",
    "repro.social",
    "repro.lsh",
    "repro.sim",
    "repro.net",
    "repro.metrics",
    "repro.experiments",
    "repro.util",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    @pytest.mark.parametrize(
        "package",
        [p for p in PACKAGES if p != "repro.experiments"],
    )
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_root_exports_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestPublicClassesDocumented:
    @pytest.mark.parametrize(
        "qualname",
        [
            "repro.core.select.SelectOverlay",
            "repro.core.config.SelectConfig",
            "repro.core.recovery.RecoveryManager",
            "repro.baselines.symphony.SymphonyOverlay",
            "repro.baselines.bayeux.BayeuxOverlay",
            "repro.baselines.vitis.VitisOverlay",
            "repro.baselines.omen.OmenOverlay",
            "repro.pubsub.api.PubSubSystem",
            "repro.overlay.routing.GreedyRouter",
            "repro.sim.engine.SuperstepEngine",
            "repro.sim.runner.NotificationSimulator",
            "repro.net.churn.ChurnModel",
            "repro.net.geo.GeoLatencyModel",
        ],
    )
    def test_public_methods_documented(self, qualname):
        module_name, cls_name = qualname.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert cls.__doc__
        for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{qualname}.{name} lacks a docstring"


class TestComposition:
    def test_quickstart_snippet(self):
        """The README quickstart must actually run."""
        from repro import PubSubSystem, SelectOverlay, load_dataset

        graph = load_dataset("facebook", num_nodes=80, seed=7)
        overlay = SelectOverlay(graph).build(seed=7)
        pubsub = PubSubSystem(overlay)
        result = pubsub.publish(publisher=0)
        assert result.delivery_ratio == 1.0

    def test_build_overlay_registry_roundtrip(self):
        from repro import build_overlay, load_dataset, system_names

        graph = load_dataset("slashdot", num_nodes=80, seed=7)
        for name in system_names():
            overlay = build_overlay(name, graph, seed=7)
            assert overlay.graph is graph


SRC = pathlib.Path(repro.__file__).parent
ROOT = SRC.parent.parent

#: Definitions in ``src/`` that nothing outside ``tests/`` calls, each with
#: the reason it stays.
KEPT = {
    "sort_candidates": "reference test_packed_min_is_sort_candidates_leader checks packed keys against",
    "evaluate_position": "per-peer reference for vectorized.evaluate_positions",
    "apply_reassignment": "per-peer reference for the kernel's move rule",
    "select_gossip_partner": "per-peer reference for the kernel's partner draw",
    "decode": "inverse tests check bitmaps.encode against",
    "RankedGossipOverlay.topic_connectivity": "how tests see whether Vitis and OMen organise",
    "RoutingTree.depth_of": "how tests see a dissemination tree's shape",
    "SocialGraph.mutual_friends": "how tests see a graph's common-friend counts",
    "NodeSupervisor.restart_count": "how tests see the live supervisor restart a node",
    "NodeSupervisor.is_killed": "how tests see the live supervisor kill a node",
    "use_tracer": "lets a test swap in its own tracer",
    "community_graph": "to be replaced by a community stand-in, not deleted",
    "VertexContext.vote_to_halt": "SuperstepEngine stays while the benchmark traces its run",
    "SuperstepEngine.active_count": "SuperstepEngine stays while the benchmark traces its run",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(body, prefix=""):
    """``(qualname, name)`` of every function, method and class in ``body``."""
    for node in body:
        if isinstance(node, _DEFS):
            yield prefix + node.name, node.name
            yield from _definitions(node.body, f"{prefix}{node.name}.")
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _definitions(getattr(node, field, ()), prefix)


def _count_uses(tree, uses: Counter) -> None:
    """Names, attributes and words of string constants, less docstrings,
    ``__all__`` and imports (an import binds a name; it does not use it)."""
    skip = set()
    for node in ast.walk(tree):  # breadth first: a parent comes before its children
        if id(node) in skip:
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            skip.update(id(n) for n in ast.walk(node))
        elif isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses.update(_WORD.findall(node.value))


def test_every_definition_has_a_caller_outside_tests():
    """Dispatch tables and trace points name code in strings, so string words count."""
    uses: Counter = Counter()
    defined = {}
    for directory in (SRC, ROOT / "examples", ROOT / "benchmarks"):
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _count_uses(tree, uses)
            if directory == SRC:
                defined.update(_definitions(tree.body))
    uncalled = {
        qualname
        for qualname, name in defined.items()
        if uses[name] == 0 and not (name.startswith("__") and name.endswith("__"))
    }
    dead = sorted(uncalled - set(KEPT))
    assert not dead, f"defined in src/ but called only from tests: {dead}"
    stale = sorted(set(KEPT) - uncalled)
    assert not stale, f"KEPT names that gained a caller or lost their definition: {stale}"


#: Config fields that no call outside ``tests/`` sets, each with the reason it
#: stays a field rather than a constant.
KNOBS_KEPT = {
    f"LiveConfig.{name}": "tests quiet the protocol loops"
    for name in (
        "delay_mean",
        "delay_jitter",
        "gossip_interval",
        "probe_interval",
        "request_timeout",
        "request_retries",
        "restart_backoff",
        "restart_backoff_max",
    )
}


def test_every_config_field_is_set_outside_tests():
    """A setting that only ever takes one value is a constant, not a field."""
    from repro.live import LiveConfig, LiveScenario

    classes = (repro.SelectConfig, LiveConfig, LiveScenario)
    names = {cls.__name__ for cls in classes}
    set_outside = set()
    for directory in (SRC, ROOT / "examples", ROOT / "benchmarks"):
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if callee in names:
                        set_outside.update(f"{callee}.{kw.arg}" for kw in node.keywords if kw.arg)
    fields = {f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)}
    unset = sorted(fields - set_outside - set(KNOBS_KEPT))
    assert not unset, f"config fields only tests set (make them constants): {unset}"
    stale = sorted(set(KNOBS_KEPT) - (fields - set_outside))
    assert not stale, f"KNOBS_KEPT fields that gained a setter or left their class: {stale}"
