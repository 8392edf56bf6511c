"""``select-repro validate PATH``: one verb over everything a verb writes.

Two tables. The first drives the verb over the real output of every
writing verb (exit 0, the kinds named in the OK line) and over one
corruption of each (exit 1, ``SCHEMA ERROR:`` on stderr). The second
breaks one rule of a contract at a time and asserts the validator names
it — the pin that no rule of the three validators this module replaced
was lost on the way.
"""

import json
import os
import re
import shutil

import pytest

from repro.experiments.cli import main
from repro.persist import load, restore, snapshot_id
from repro.sim.trace import TraceRecorder
from repro.telemetry import MetricsRegistry, Tracer, write_telemetry
from repro.util.exceptions import PersistError
from repro.validate import validate_path, validate_verdict

SMALL = ["--num-nodes", "100", "--datasets", "facebook", "--seed", "7"]


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _edit(path, fn):
    """Let ``fn`` mutate the JSON document at ``path`` in place."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    fn(doc)
    _write(path, doc)


def _append(path, line):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


# -- the verb over what the verbs write -----------------------------------------


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One run of each writing verb; ``{case: (path to validate, kinds)}``."""
    root = tmp_path_factory.mktemp("written")
    snap, tel, scen = str(root / "snap"), str(root / "tel"), str(root / "scen")
    assert main(["build", snap, *SMALL, "--telemetry", tel]) == 0
    assert main(["build", str(root / "snap2"), *SMALL]) == 0
    # The scenario's own verdict (0 / 1) is not under test; its files are.
    main(["scenario", "flash_crowd", "--num-nodes", "64", "--seed", "11", "--telemetry", scen])
    return {
        "build-snapshot": (snap, "snapshot"),
        "build-telemetry": (tel, "telemetry"),
        "snapshot": (str(root / "snap2"), "snapshot"),
        "scenario": (scen, "telemetry + verdict"),
        "verdict-file": (os.path.join(scen, "verdict.json"), "verdict"),
    }


def _drop_state(path):
    os.remove(os.path.join(path, "state.json"))


CORRUPTIONS = {
    "build-snapshot": lambda p: _edit(f"{p}/manifest.json", lambda m: m.update(round="7")),
    "build-telemetry": lambda p: _append(f"{p}/series.jsonl", '{"series": "id_moves"}'),
    "snapshot": _drop_state,
    "scenario": lambda p: _append(f"{p}/metrics.prom", "!! not prometheus"),
    "verdict-file": lambda p: _edit(p, lambda v: v.update(passed=not v["passed"])),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_verb_over_everything_a_verb_writes(case, written, tmp_path, capsys):
    source, kinds = written[case]
    if os.path.isdir(source):
        path = shutil.copytree(source, str(tmp_path / "copy"))
    else:
        path = shutil.copy(source, str(tmp_path / "verdict.json"))
    capsys.readouterr()
    assert main(["validate", path]) == 0
    assert f"{path}: {kinds} schema OK" in capsys.readouterr().out
    CORRUPTIONS[case](path)
    assert main(["validate", path]) == 1
    assert "SCHEMA ERROR: " in capsys.readouterr().err


def test_verb_usage_and_unknown_directories(tmp_path, capsys):
    assert main(["validate"]) == 2
    assert "usage" in capsys.readouterr().err
    # What a pre-removal sharded build left behind: nothing known.
    (tmp_path / "shard-000").mkdir()
    (tmp_path / "build.json").write_text("{}", encoding="utf-8")
    assert main(["validate", str(tmp_path)]) == 1
    said = capsys.readouterr().err
    assert "manifest.json" in said and "state.json" in said
    assert main(["validate", str(tmp_path / "nowhere")]) == 1


# -- one mutation per rule ---------------------------------------------------------


def _live(trace_id, span, parent, name, **extra):
    return {"type": "live", "trace_id": trace_id, "span": span, "parent": parent,
            "name": name, "node": 0, "t0": 0.0, "t1": 0.1, **extra}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, written):
    """A directory holding all three artifacts, every optional file included."""
    root = str(tmp_path_factory.mktemp("artifacts") / "all")
    shutil.copytree(written["build-snapshot"][0], root)
    registry = MetricsRegistry()
    registry.histogram("demo.hops", buckets=(1, 2, 4)).observe(3)
    tracer = Tracer()
    for trace_id, name in (("0:1", "lookup"), ("5:1", "publish")):
        sid = tracer.event(trace_id, name, 0)
        tracer.event(trace_id, "delivered", 1, parent=sid, hop=1, terminal=True, link="long")
    recorder = TraceRecorder()
    recorder.record("id_moves", 1, 3.0)
    write_telemetry(root, registry, tracer=tracer, recorder=recorder)
    shutil.copy(written["verdict-file"][0], root)
    assert validate_path(root) == []
    return root


def _state(fn):
    return lambda d: _edit(f"{d}/state.json", fn)


def _manifest(fn):
    return lambda d: _edit(f"{d}/manifest.json", fn)


def _report(fn):
    return lambda d: _edit(f"{d}/report.json", fn)


def _verdict(fn):
    return lambda d: _edit(f"{d}/verdict.json", fn)


def _peers(fn):
    return _state(lambda s: fn(s["overlay"]["peers"]))


def _hist(fn):
    return _report(lambda r: fn(r["metrics"]["histograms"]["demo.hops"]))


def _objective(fn):
    return _verdict(lambda v: fn(v["objectives"][0]))


RULES = {
    # snapshot
    "snapshot schema tag": (_manifest(lambda m: m.update(schema="other/v0")), "manifest.schema"),
    "snapshot_id is the state digest": (
        _state(lambda s: s["overlay"].update(iterations=s["overlay"]["iterations"] + 1)),
        "content digest",
    ),
    "components are the state sections": (
        _manifest(lambda m: m["components"].append("faults")),
        "!= state sections",
    ),
    "overlay key set": (_state(lambda s: s["overlay"].pop("pending_ids")), "['pending_ids']"),
    "one peer record per id": (
        _peers(lambda p: p["moves_done"].pop()),
        "peers.moves_done has shape (99,), not (100,)",
    ),
    "ids match the manifest graph": (
        _manifest(lambda m: m["graph"].update(num_nodes=m["graph"]["num_nodes"] + 1)),
        "manifest graph says",
    ),
    "per-peer key set": (_peers(lambda p: p.pop("top2")), "peers missing keys ['top2']"),
    "per-table key set": (
        _state(lambda s: s["overlay"]["tables"].pop("successors")),
        "tables missing keys ['successors']",
    ),
    "manifest values are typed": (_manifest(lambda m: m.update(round="7")), "manifest.round must be int"),
    "a flag is not a number": (_manifest(lambda m: m.update(round=True)), "manifest.round must be int"),
    "manifest without state": (_drop_state, "missing state.json"),
    "unparseable manifest": (
        lambda d: _append(f"{d}/manifest.json", "}"),
        "manifest.json: unreadable",
    ),
    # telemetry
    "telemetry schema tag": (_report(lambda r: r.update(schema="x")), "report.schema"),
    "provenance keys": (
        _report(lambda r: r["provenance"].pop("config_hash")),
        "provenance missing keys ['config_hash']",
    ),
    "metrics maps": (_report(lambda r: r["metrics"].update(gauges=[])), "metrics.gauges must be dict"),
    "histogram has len(buckets)+1 counts": (_hist(lambda h: h["counts"].append(0)), "len(buckets)+1"),
    "histogram counts sum to count": (
        _hist(lambda h: h.update(count=h["count"] + 1)),
        "bucket counts != count",
    ),
    "histogram counts are typed": (_hist(lambda h: h.update(counts="ab")), "counts must be a list"),
    "report is an object": (lambda d: _write(f"{d}/report.json", [1, 2]), "report must be an object"),
    "report without metrics.prom": (lambda d: os.remove(f"{d}/metrics.prom"), "missing metrics.prom"),
    "prometheus text format": (
        lambda d: _append(f"{d}/metrics.prom", "!! not prometheus"),
        "metrics.prom:",
    ),
    # One span shape: any other "type" (the simulator's former dicts) is rejected.
    "publish span keys": (
        lambda d: _append(f"{d}/traces.jsonl", '{"type": "publish", "msg": 1}'),
        "traces.jsonl:5: unknown span type 'publish'",
    ),
    "lookup span keys": (
        lambda d: _append(f"{d}/traces.jsonl", '{"type": "lookup", "msg": 1}'),
        "traces.jsonl:5: unknown span type 'lookup'",
    ),
    "span lines are JSON objects": (
        lambda d: _append(f"{d}/traces.jsonl", "[1, 2]"),
        "traces.jsonl:5: invalid JSON line",
    ),
    "every live chain is checked": (
        lambda d: _append(f"{d}/traces.jsonl", json.dumps(_live("88:8", 9, None, "publish"))),
        "trace '88:8': no terminal span",
    ),
    "series rows": (
        lambda d: _append(f"{d}/series.jsonl", '{"series": "id_moves", "round": 2}'),
        "series.jsonl:2: row missing keys ['value']",
    ),
    # verdict
    "verdict schema tag": (_verdict(lambda v: v.update(schema="other/v9")), "verdict.schema"),
    "verdict top-level keys": (_verdict(lambda v: v.pop("seed")), "verdict missing keys ['seed']"),
    "objective keys": (_objective(lambda o: o.pop("name")), "objectives[0] missing keys ['name']"),
    "objective kind": (_objective(lambda o: o.update(kind="sideways")), "floor/ceiling"),
    "margin arithmetic": (
        _objective(lambda o: o.update(margin=o["margin"] + 1e-6)),
        "objectives[0] margin",
    ),
    "objective passed iff margin >= 0": (
        _objective(lambda o: o.update(passed=not o["passed"])),
        "passed flag inconsistent with margin",
    ),
    "verdict passed iff every row": (
        _verdict(lambda v: v.update(passed=not v["passed"])),
        "'passed' inconsistent with objective rows",
    ),
    "objective values are typed": (
        _objective(lambda o: o.update(threshold="0.9")),
        "objectives[0].threshold must be int/float",
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_each_rule_is_enforced(rule, artifacts, tmp_path):
    mutate, needle = RULES[rule]
    path = shutil.copytree(artifacts, str(tmp_path / "copy"))
    mutate(path)
    errors = validate_path(path)
    assert any(needle in e for e in errors), errors


# -- a snapshot that validates is one restore can read ---------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_snapshot")

#: v1's per-peer keys, each with the v2 block that now holds its fact as
#: a column (``identifier`` is the ``ids`` column, ``table`` the routing
#: tables).
RESTORED_PEER_KEYS = {
    "identifier": ("ids",),
    "moves_done": ("peers", "moves_done"),
    "stable_rounds": ("peers", "stable_rounds"),
    "link_change_budget": ("peers", "link_change_budget"),
    "last_anchor_pair": ("peers", "anchor_pair"),
    "top2": ("peers", "top2"),
    "known_mutual": ("edges", "mutual"),
    "known_bitmap": ("edges", "bitmap"),
    "known_bucket": ("edges", "bucket"),
    "lookahead": ("edges", "view"),
    "behavior": ("behavior",),
    "table": ("tables",),
}


def _golden_edited(tmp_path, edit_state, edit_manifest=lambda m: None):
    """A copy of the golden snapshot edited by ``edit_state`` (and
    ``edit_manifest``), re-signed so only the checks behind the digest
    stand between it and ``restore``."""
    path = shutil.copytree(GOLDEN, str(tmp_path / "snap"))
    _edit(f"{path}/state.json", edit_state)
    with open(f"{path}/state.json", encoding="utf-8") as fh:
        digest = snapshot_id(json.load(fh))
    _edit(f"{path}/manifest.json", lambda m: (edit_manifest(m), m.update(snapshot_id=digest)))
    return path


def _refused_alike(path, needle, capsys):
    """Restore raises a ``PersistError`` naming ``needle``, and ``validate``
    exits 1 with it on stderr."""
    with pytest.raises(PersistError, match=re.escape(needle)):
        restore(load(path))
    capsys.readouterr()
    assert main(["validate", path]) == 1
    assert needle in capsys.readouterr().err


def _get(doc, *keys):
    for key in keys:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("key", sorted(RESTORED_PEER_KEYS))
def test_a_peer_key_restore_reads_is_a_schema_error_when_missing(key, tmp_path, capsys):
    *block, column = RESTORED_PEER_KEYS[key]
    path = _golden_edited(tmp_path, lambda s: _get(s["overlay"], *block).pop(column))
    with pytest.raises(PersistError, match=column):
        restore(load(path))
    assert main(["validate", path]) == 1
    assert f"missing keys ['{column}']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, needle",
    [
        ({"fanout": 3}, "unknown key 'fanout'"),
        ({"max_moves": 8}, "'max_moves' is 8; this code builds with 12"),
        ({"reassign_ids": 1}, "'reassign_ids' must be bool"),
        ({"max_rounds": 0}, "max_rounds must be >= 1"),
    ],
    ids=["unknown-key", "moved-constant", "mistyped-field", "invalid-field"],
)
def test_a_config_restore_refuses_is_a_schema_error(changes, needle, tmp_path, capsys):
    path = _golden_edited(
        tmp_path,
        lambda s: s["overlay"]["config"].update(changes),
        lambda m: m["config"].update(changes),
    )
    _refused_alike(path, needle, capsys)


def _edges(edit):
    return lambda s: edit(s["overlay"]["edges"])


def _first_learned(edges):
    return next(i for i, b in enumerate(edges["bitmap"]) if b is not None)


def _drop_bitmap(edges):
    edges["bitmap"][_first_learned(edges)] = None


def _drop_count(edges):
    slot = _first_learned(edges)
    edges["mutual"][slot] = edges["mutual_stamp"][slot] = -1


def _late_stamp(edges):
    edges["bitmap_stamp"][_first_learned(edges)] = 2**31 - 1


@pytest.mark.parametrize(
    "edit, needle",
    [
        (_edges(_drop_count), "holds a bitmap without a mutual count"),
        (_edges(_drop_bitmap), "holds a view, bitmap or bitmap stamp without the other two"),
        (_edges(_late_stamp), "holds a learn stamp past the int32 stamp columns"),
    ],
    ids=["bitmap-without-count", "lookahead-set", "stamp-past-int32"],
)
def test_knowledge_the_edge_columns_cannot_hold_is_refused(edit, needle, tmp_path, capsys):
    # A slot's view, bitmap and bitmap stamp come together (v1: the lookahead
    # friends were the bitmap friends), and a bitmap comes with a count.
    _refused_alike(_golden_edited(tmp_path, edit), needle, capsys)


def _tables(name, edit):
    return lambda s: edit(s["overlay"]["tables"][name])


def _decrease_a_pointer(csr):
    csr["indptr"][1] = csr["indptr"][2] + 1


def _end_early(csr):
    csr["indptr"][-1] -= 1


def _link_past_n(csr):
    csr["values"][0] = 100  # the golden overlay has 100 peers


def _one_row(values):
    """A CSR whose row 0 holds ``values`` and every other row nothing."""
    return lambda csr: csr.update(indptr=[0] + [len(values)] * 100, values=list(values))


def _view_past_table(edges):
    edges["view"][_first_learned(edges)] = 10**6


def _widen_bitmap(edges):
    edges["bitmap"][_first_learned(edges)] = "f" * 40  # no golden peer has 160 friends


def _fractional_count(edges):
    edges["mutual"][_first_learned(edges)] = 1.5


def _integer_bitmap(edges):
    slot = _first_learned(edges)
    edges["bitmap"][slot] = int(edges["bitmap"][slot], 16)


#: the rules of ``snapshot.decode_overlay`` beyond the config block and the
#: knowledge slots above, one re-signed corruption each.
SHARED_CHECK = {
    "wrong array length": (_edges(lambda e: e["bucket"].pop()), "edges.bucket has shape"),
    "CSR pointer decreases": (
        _tables("long_links", _decrease_a_pointer),
        "long_links.indptr is not a CSR",
    ),
    "CSR ends early": (_tables("successors", _end_early), "successors.indptr is not a CSR"),
    "long-link target >= n": (
        _tables("long_links", _link_past_n),
        "long_links names node 100, outside [0, 100)",
    ),
    "long-link row wider than K": (
        _tables("long_links", _one_row(range(1, 9))),  # the golden overlay has K = 7
        "long_links has a row of 8; k_links=7 allows 7",
    ),
    "admitted source twice in a row": (
        lambda s: _one_row([3, 3])(s["overlay"]["incoming_sources"]),
        "incoming_sources has a row that does not ascend",
    ),
    "view index out of range": (_edges(_view_past_table), "edges.view indexes past the"),
    "bitmap wider than its owner's degree": (
        _edges(_widen_bitmap),
        "holds a bitmap wider than its owner's degree",
    ),
    "integer edge column holds 1.5": (
        _edges(_fractional_count),
        "edges.mutual must hold integers",
    ),
    "bitmap stored as an integer": (_edges(_integer_bitmap), "malformed overlay block"),
}


@pytest.mark.parametrize("rule", sorted(SHARED_CHECK))
def test_restore_and_validate_refuse_the_same_snapshots(rule, tmp_path, capsys):
    edit, needle = SHARED_CHECK[rule]
    _refused_alike(_golden_edited(tmp_path, edit), needle, capsys)


def test_span_failing_its_own_check_is_left_out_of_chain_assembly(artifacts, tmp_path):
    path = shutil.copytree(artifacts, str(tmp_path / "copy"))
    _append(f"{path}/traces.jsonl", '{"type": "live", "trace_id": "77:7", "span": [1]}')
    errors = validate_path(path)
    assert any("live span missing keys" in e for e in errors)
    assert any("span.span must be int" in e for e in errors)
    # Assembled, its unhashable id would crash the chain check and its
    # trace would be reported rootless.
    assert not any("trace '77:7'" in e for e in errors)


def test_verdict_need_not_be_an_object():
    assert validate_verdict([1, 2]) == ["verdict must be an object, got list"]
