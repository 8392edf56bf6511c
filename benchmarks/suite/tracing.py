"""Spans recorded from outside: the traced run's stopwatches and ledger.

``--trace 1`` repeats a workload with each trace point — a dotted public
name of ``repro`` — rebound to a stopwatch wrapper. Class attributes are
rebound on the class; module-level functions in every loaded ``repro``
namespace that holds the same object (``from x import f`` makes copies).
A span has name, start, end, parent (the call stack) and its unit's id.
Three kinds of point:

* ``ROW``: every call is a span of its own;
* ``LEAF``: called more than ~10 k times per unit, so only a count and
  the summed self time are kept, under the enclosing row span;
* ``FLAT``: coroutine functions; spans without parent or self time, since
  a coroutine's interval covers whatever else the loop ran meanwhile.

Self time is duration minus the part child spans cover, so what no
wrapped call covers stays with the enclosing span, and the self times
under a unit's root add up to the unit's stopwatch reading.

Later changes to ``src/`` may delete a trace point (ROADMAP item 1 ends
SELECT's use of ``SuperstepEngine``) but may not edit this file, so a
name that no longer resolves is counted in ``trace.unresolved_points``
and its metrics read 0; it never raises.
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import time
import types
from collections import defaultdict

from harness import percentile

ROW, LEAF, FLAT = "row", "leaf", "flat"

#: root span the harness opens around each timed unit.
UNIT_SPAN = "suite.unit"

_SEND_GROUP = {
    "gossip": "gossip",
    "ping": "ping",
    "ping-req": "ping",
    "ack": "ping",
    "notify": "notify",
    "notify-ack": "notify",
}


def _tally_changed(bag, args, result):
    if result:
        bag["links.changed"] += 1


def _tally_route(bag, args, result):
    bag["routes"] += 1
    if result.delivered:
        bag["routes.delivered"] += 1
        bag["routes.hops"] += result.hops


def _tally_route_many(bag, args, result):
    for route in result:
        _tally_route(bag, args, route)


def _tally_fanout(bag, args, result):
    bag["publish.fanout"] += len(result.subscribers)


def _tally_send(bag, args, result):
    bag["sent." + _SEND_GROUP.get(args[1].kind, "other")] += 1


def _tally_merge(bag, args, result):
    bag["merge.entries"] += len(args[1])


#: trace point -> (kind, tally). Never add ``ChurnSchedule.is_online``,
#: ``RoutingTable.link_view`` or ``RoutingTree.add_path``: millions of
#: calls, they stay inside their caller's self time.
POINTS = {
    "repro.graphs.datasets.load_dataset": (ROW, None),
    "repro.net.growth.GrowthModel.join_order": (ROW, None),
    "repro.core.projection.assign_initial_ids": (ROW, None),
    "repro.core.select.SelectOverlay.__init__": (ROW, None),
    "repro.core.select.SelectOverlay.build": (ROW, None),
    "repro.sim.engine.SuperstepEngine.run": (ROW, None),
    "repro.core.vectorized.draw_partners": (ROW, None),
    "repro.core.vectorized.ExchangeKernel.mutual_counts": (ROW, None),
    "repro.core.vectorized.ExchangeKernel.bitmap_ints": (ROW, None),
    "repro.core.vectorized.evaluate_positions": (ROW, None),
    "repro.core.vectorized.dedup_ids": (ROW, None),
    "repro.core.peer.PeerState.learn_exchange": (LEAF, None),
    "repro.core.links.create_links": (LEAF, _tally_changed),
    "repro.overlay.ring.RingIndex.pred_succ": (ROW, None),
    "repro.overlay.routing.GreedyRouter.route": (LEAF, _tally_route),
    "repro.overlay.routing.GreedyRouter.route_many": (ROW, _tally_route_many),
    "repro.overlay.base.OverlayNetwork.disseminate": (ROW, None),
    "repro.pubsub.api.PubSubSystem.publish": (ROW, _tally_fanout),
    "repro.sim.runner.NotificationSimulator.run": (ROW, None),
    "repro.net.churn.ChurnModel.schedules": (ROW, None),
    "repro.net.faults.FaultPlan.transmit_path": (LEAF, None),
    "repro.net.faults.PingService.check": (LEAF, None),
    "repro.net.faults.PingService.probe": (LEAF, None),
    "repro.core.recovery.RecoveryManager.tick": (ROW, None),
    "repro.core.stabilize.Stabilizer.round": (ROW, None),
    "repro.core.stabilize.CatchUpStore.deposit": (LEAF, None),
    "repro.core.stabilize.CatchUpStore.deliver": (ROW, None),
    "repro.persist.snapshot.capture": (ROW, None),
    "repro.persist.snapshot.save": (ROW, None),
    "repro.persist.snapshot.load": (ROW, None),
    "repro.persist.snapshot.restore_into": (ROW, None),
    "repro.live.transport.LoopbackTransport.send": (LEAF, _tally_send),
    "repro.live.node.PeerNode.request": (FLAT, None),
    "repro.live.membership.MembershipView.merge": (LEAF, _tally_merge),
    "repro.live.membership.MembershipView.digest": (LEAF, None),
}


class Row:
    """One recorded span; ``leaves`` maps a LEAF point to [calls, self_s]."""

    __slots__ = ("id", "name", "start", "end", "parent", "top", "unit", "self_s", "leaves")

    def __init__(self, id, name, parent, top, unit):
        self.id = id
        self.name = name
        self.start = self.end = self.self_s = 0.0
        self.parent = parent
        #: id of the outermost enclosing span (its own id for a root).
        self.top = top
        self.unit = unit
        self.leaves = {}


def _resolve(dotted: str):
    """``(owner, attribute, function)`` of a dotted name, or ``None``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
            found = vars(owner)[parts[-1]]
        except (AttributeError, KeyError, TypeError):
            return None
        return (owner, parts[-1], found) if isinstance(found, types.FunctionType) else None
    return None


class Tracer:
    """Stopwatch wrappers over trace points; spans stay in memory."""

    def __init__(self):
        self.rows: list[Row] = []
        #: FLAT spans: (name, start, end, unit, completed without raising).
        self.flat: list[tuple] = []
        self.unresolved: list[str] = []
        #: unit id -> the harness's own stopwatch reading of that unit.
        self.stopwatch: dict[str, float] = {}
        self.unit = "setup"
        self.bags = defaultdict(lambda: defaultdict(float))
        self.bag = self.bags[self.unit]
        self._ids = itertools.count(1)
        #: permanent bottom span, so that a LEAF call outside any span still
        #: has a row to count under.
        self.bottom = Row(0, "suite.run", None, 0, "run")
        self._stack = [[self.bottom, 0.0]]
        self._patches: list[tuple] = []

    def begin_unit(self, unit: str) -> None:
        """Spans and tallies recorded from now on belong to ``unit``."""
        self.unit = unit
        self.bag = self.bags[unit]

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0]
        row = Row(next(self._ids), name, parent.id, parent.top, self.unit)
        if parent.id == 0:
            row.top = row.id
        frame = [row, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        row = frame[0]
        self._stack.pop()
        elapsed = row.end - row.start
        row.self_s = elapsed - frame[1]
        self._stack[-1][1] += elapsed
        self.rows.append(row)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the enclosed block (the harness's own stages)."""
        frame = self._open(name)
        frame[0].start = time.perf_counter()
        try:
            yield
        finally:
            frame[0].end = time.perf_counter()
            self._close(frame)

    def _wrap_row(self, name, fn, tally):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = self._open(name)
            row = frame[0]
            row.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row.end = clock()
                self._close(frame)
            if tally is not None:
                tally(self.bag, args, result)
            return result

        return traced

    def _wrap_leaf(self, name, fn, tally):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [stack[-1][0], 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][1] += elapsed
                slot = frame[0].leaves.get(name)
                if slot is None:
                    frame[0].leaves[name] = [1, elapsed - frame[1]]
                else:
                    slot[0] += 1
                    slot[1] += elapsed - frame[1]
            if tally is not None:
                tally(self.bag, args, result)
            return result

        return traced

    def _wrap_flat(self, name, fn, tally):
        clock = time.perf_counter
        flat = self.flat

        async def traced(*args, **kwargs):
            t0 = clock()
            completed = False
            try:
                result = await fn(*args, **kwargs)
                completed = True
                return result
            finally:
                flat.append((name, t0, clock(), self.unit, completed))

        return traced

    # -- patching --------------------------------------------------------------

    def install(self, points=None) -> None:
        """Rebind every resolvable trace point to its wrapper."""
        for dotted, (kind, tally) in (POINTS if points is None else points).items():
            target = _resolve(dotted)
            if target is None or (kind == FLAT) != asyncio.iscoroutinefunction(target[2]):
                self.unresolved.append(dotted)
                continue
            owner, attr, fn = target
            wrap = {ROW: self._wrap_row, LEAF: self._wrap_leaf, FLAT: self._wrap_flat}[kind]
            wrapper = wrap(dotted, fn, tally)
            if inspect.isclass(owner):
                holders = [(owner, attr)]
            else:
                holders = [
                    (module, alias)
                    for mod_name, module in list(sys.modules.items())
                    if module is not None
                    and (mod_name == "repro" or mod_name.startswith("repro."))
                    for alias, value in list(vars(module).items())
                    if value is fn
                ]
            for holder, alias in holders:
                setattr(holder, alias, wrapper)
                self._patches.append((holder, alias, fn))

    def uninstall(self) -> None:
        while self._patches:
            holder, alias, fn = self._patches.pop()
            setattr(holder, alias, fn)

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump every span as JSONL (rows carry their leaf aggregates)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                record = {
                    "id": row.id,
                    "name": row.name,
                    "start": row.start,
                    "end": row.end,
                    "parent": row.parent or None,
                    "top": row.top,
                    "unit": row.unit,
                    "self_s": row.self_s,
                }
                if row.leaves:
                    record["leaves"] = row.leaves
                fh.write(json.dumps(record) + "\n")
            for name, start, end, unit, completed in self.flat:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None,
                    "unit": unit,
                    "completed": completed,
                }
                fh.write(json.dumps(record) + "\n")


class Ledger:
    """Per-unit sums over a finished tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: (unit, point) -> [calls, self seconds, duration seconds]
        self.cells = defaultdict(lambda: [0, 0.0, 0.0])
        #: unit -> self seconds recorded under that unit's root span
        self.under_root = defaultdict(float)
        #: unit -> spans recorded (a LEAF call counts as one)
        self.recorded = defaultdict(int)
        roots = {r.id for r in tracer.rows if r.name == UNIT_SPAN}
        for row in [tracer.bottom, *tracer.rows]:
            cell = self.cells[row.unit, row.name]
            cell[0] += 1
            cell[1] += row.self_s
            cell[2] += row.end - row.start
            self.recorded[row.unit] += 1
            self_s = row.self_s
            for name, (calls, leaf_self) in row.leaves.items():
                leaf = self.cells[row.unit, name]
                leaf[0] += calls
                leaf[1] += leaf_self
                self.recorded[row.unit] += calls
                self_s += leaf_self
            if row.top in roots:
                self.under_root[row.unit] += self_s
        for name, start, end, unit, _completed in tracer.flat:
            cell = self.cells[unit, name]
            cell[0] += 1
            cell[2] += end - start
            self.recorded[unit] += 1

    def _units(self, sums: dict) -> list:
        """Per-unit sums of the timed units, or of the others if none has any.

        The others are the set-up repetitions and the tail: a point's cost
        in the stage that is measured is not blended with its cost in the
        stages around it.
        """
        timed = [value for unit, value in sums.items() if unit in self.tracer.stopwatch]
        return timed or list(sums.values())

    def _per_unit(self, index: int, points) -> float:
        """Median over the units that called ``points``."""
        sums = defaultdict(float)
        for (unit, name), cell in self.cells.items():
            if name in points:
                sums[unit] += cell[index]
        return statistics.median(self._units(sums)) if sums else 0.0

    def calls(self, *points) -> float:
        """Calls per unit."""
        return self._per_unit(0, points)

    def self_s(self, *points) -> float:
        """Self seconds per unit."""
        return self._per_unit(1, points)

    def dur_s(self, *points) -> float:
        """Span seconds per unit, children included."""
        return self._per_unit(2, points)

    def tally(self, key: str) -> float:
        """A wrapper's tally per unit (median), on the same units as ``calls``."""
        sums = {unit: bag[key] for unit, bag in self.tracer.bags.items() if key in bag}
        return statistics.median(self._units(sums)) if sums else 0.0

    def spans(self) -> float:
        """Spans recorded in the busiest unit (a traced build_2k run times
        builds and round trips, so a median would blend the two)."""
        return max(self._units(self.recorded))

    def durations_ms(self, point: str) -> list:
        rows = [(r.end - r.start) * 1e3 for r in self.tracer.rows if r.name == point]
        flat = [(f[2] - f[1]) * 1e3 for f in self.tracer.flat if f[0] == point]
        return rows + flat

    def self_sum_ratio(self) -> float:
        """Self seconds under a unit's root over the unit's stopwatch reading."""
        ratios = [
            self.under_root[unit] / seconds
            for unit, seconds in self.tracer.stopwatch.items()
            if seconds > 0
        ]
        return statistics.median(ratios) if ratios else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(tracer: Tracer, extras: dict, live_pairs: int = 0) -> dict:
    """Every span-derived per-layer metric; ``extras`` are the workload's own.

    ``live_pairs`` is the live workload's count of acked pairs (0 elsewhere),
    the base of its per-pair ratios.
    """
    led = Ledger(tracer)
    p = "repro."
    kernels = [
        p + "core.vectorized.draw_partners",
        p + "core.vectorized.ExchangeKernel.mutual_counts",
        p + "core.vectorized.ExchangeKernel.bitmap_ints",
        p + "core.vectorized.evaluate_positions",
        p + "core.vectorized.dedup_ids",
    ]
    route = (p + "overlay.routing.GreedyRouter.route", p + "overlay.routing.GreedyRouter.route_many")
    ping = (p + "net.faults.PingService.check", p + "net.faults.PingService.probe")
    publish = p + "pubsub.api.PubSubSystem.publish"
    request = p + "live.node.PeerNode.request"
    send = p + "live.transport.LoopbackTransport.send"
    merge = p + "live.membership.MembershipView.merge"
    digest = p + "live.membership.MembershipView.digest"
    links = p + "core.links.create_links"
    publish_ms = led.durations_ms(publish)
    request_ms = led.durations_ms(request)
    m = {
        "graphs.load_s": led.self_s(p + "graphs.datasets.load_dataset"),
        "net.growth.join_order_s": led.self_s(p + "net.growth.GrowthModel.join_order"),
        "core.projection.assign_s": led.self_s(p + "core.projection.assign_initial_ids"),
        "core.vectorized.draw_s": led.self_s(kernels[0]),
        "core.vectorized.mutual_s": led.self_s(kernels[1]),
        "core.vectorized.bitmap_s": led.self_s(kernels[2]),
        "core.vectorized.positions_s": led.self_s(kernels[3]),
        "core.vectorized.dedup_s": led.self_s(kernels[4]),
        "core.vectorized.calls": led.calls(*kernels),
        "core.peer.learn_s": led.self_s(p + "core.peer.PeerState.learn_exchange"),
        "core.peer.learn_calls": led.calls(p + "core.peer.PeerState.learn_exchange"),
        "core.links.create_s": led.self_s(links),
        "core.links.create_calls": led.calls(links),
        "core.links.changed_ratio": _ratio(led.tally("links.changed"), led.calls(links)),
        "core.select.self_s": led.self_s(
            p + "core.select.SelectOverlay.__init__", p + "core.select.SelectOverlay.build"
        ),
        "sim.engine.run_s": led.self_s(p + "sim.engine.SuperstepEngine.run"),
        "overlay.ring.refresh_s": led.self_s(p + "overlay.ring.RingIndex.pred_succ"),
        "overlay.ring.refresh_calls": led.calls(p + "overlay.ring.RingIndex.pred_succ"),
        "overlay.routing.route_s": led.self_s(*route),
        "overlay.routing.routes": led.tally("routes"),
        "overlay.routing.hops_mean": _ratio(led.tally("routes.hops"), led.tally("routes.delivered")),
        "overlay.routing.us_per_hop": _ratio(led.self_s(*route) * 1e6, led.tally("routes.hops")),
        "overlay.routing.delivered_ratio": _ratio(led.tally("routes.delivered"), led.tally("routes")),
        "overlay.base.disseminate_s": led.self_s(p + "overlay.base.OverlayNetwork.disseminate"),
        "pubsub.publish_s": led.self_s(publish),
        "pubsub.publish_calls": led.calls(publish),
        "pubsub.publish_ms_p50": _pct(publish_ms, 50),
        "pubsub.publish_ms_p99": _pct(publish_ms, 99),
        "pubsub.fanout_mean": _ratio(led.tally("publish.fanout"), led.calls(publish)),
        "sim.run_s": led.dur_s(p + "sim.runner.NotificationSimulator.run"),
        "sim.self_s": led.self_s(p + "sim.runner.NotificationSimulator.run"),
        "net.churn.schedules_s": led.self_s(p + "net.churn.ChurnModel.schedules"),
        "net.faults.transmit_s": led.self_s(p + "net.faults.FaultPlan.transmit_path"),
        "net.faults.transmit_calls": led.calls(p + "net.faults.FaultPlan.transmit_path"),
        "net.faults.ping_s": led.self_s(*ping),
        "net.faults.ping_calls": led.calls(*ping),
        "core.recovery.tick_s": led.self_s(p + "core.recovery.RecoveryManager.tick"),
        "core.recovery.ticks": led.calls(p + "core.recovery.RecoveryManager.tick"),
        "core.stabilize.round_s": led.self_s(p + "core.stabilize.Stabilizer.round"),
        "core.stabilize.rounds": led.calls(p + "core.stabilize.Stabilizer.round"),
        "core.stabilize.deposit_s": led.self_s(p + "core.stabilize.CatchUpStore.deposit"),
        "core.stabilize.deposits": led.calls(p + "core.stabilize.CatchUpStore.deposit"),
        "core.stabilize.deliver_s": led.self_s(p + "core.stabilize.CatchUpStore.deliver"),
        "persist.capture_s": led.self_s(p + "persist.snapshot.capture"),
        "persist.save_s": led.self_s(p + "persist.snapshot.save"),
        "persist.load_s": led.self_s(p + "persist.snapshot.load"),
        "persist.restore_s": led.self_s(p + "persist.snapshot.restore_into"),
        "live.transport.sent": led.calls(send),
        "live.transport.send_s": led.self_s(send),
        "live.transport.gossip": led.tally("sent.gossip"),
        "live.transport.ping": led.tally("sent.ping"),
        "live.transport.notify": led.tally("sent.notify"),
        "live.transport.msgs_per_pair": _ratio(led.calls(send), live_pairs),
        "live.node.notify_per_pair": _ratio(led.tally("sent.notify"), live_pairs),
        "live.cluster.route_s": led.self_s(*route) if live_pairs else 0.0,
        "live.node.requests": led.calls(request),
        "live.node.request_ms_p50": _pct(request_ms, 50),
        "live.node.request_ms_p99": _pct(request_ms, 99),
        "live.node.request_failures": sum(1 for f in tracer.flat if f[0] == request and not f[4]),
        "live.membership.merge_s": led.self_s(merge),
        "live.membership.merges": led.calls(merge),
        "live.membership.entries_per_merge": _ratio(led.tally("merge.entries"), led.calls(merge)),
        "live.membership.digest_s": led.self_s(digest),
        "live.membership.digests": led.calls(digest),
        "trace.spans": led.spans(),
        "trace.unresolved_points": len(tracer.unresolved),
        "trace.self_sum_ratio": led.self_sum_ratio(),
    }
    m.update(extras)
    return m
