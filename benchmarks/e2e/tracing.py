"""Outside-in tracing: a tap table, a span recorder and span arithmetic.

The benchmark measures the program from its own files: :data:`TAPS`
names the public functions at each layer boundary, :func:`install`
wraps them, and every call records a span (tap, parent, start, end and
up to two counts read off the arguments or the return value).  Spans
stay in memory until the run ends.  Nothing here is imported by the
program and nothing from the program is imported at module level, so a
refactor inside ``src/`` can at worst make a tap *missing* -- it is then
counted in ``harness.tap_missing`` and its metrics read 0 -- and can
never break an end-to-end number.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Count = Optional[Callable[[tuple, dict, object], Tuple[float, float]]]


@dataclass(frozen=True)
class Tap:
    """One wrapped function: ``group`` names the metric family it feeds
    (``core.adapt``), whose first component is the layer (``core``)."""

    group: str
    target: str
    #: reads (a, b) counts off one call; see the ``_count_*`` helpers
    count: Count = None
    #: data-plane taps fire once per tuple batch: their spans are written
    #: out as aggregates plus a sample, not in full
    data_plane: bool = False
    #: remember the instances the method was called on, so their own
    #: counters can be read when a unit ends
    keep_receiver: bool = False

    @property
    def layer(self) -> str:
        return self.group.split(".", 1)[0]


def _count_push_tuple(args, kwargs, result):
    return 1, len(result)


def _count_push_batch(args, kwargs, result):
    return args[1].n, len(result)


def _count_push_query_batch(args, kwargs, result):
    return args[2].n, sum(map(len, result))


def _count_publish(args, kwargs, result):
    return 1, len(result)


def _count_publish_batch(args, kwargs, result):
    return args[3], len(result)


_ENGINE = "repro.engine.executor.Engine."
_NET = "repro.pubsub.network.PubSubNetwork."
_COSMOS = "repro.core.cosmos.Cosmos."
_COORD = "repro.core.coordinator.Coordinator."

#: the tap table: every layer boundary the benchmark observes
TAPS: Tuple[Tap, ...] = (
    # core -- facade, coordinator recursion and the algorithm kernels
    Tap("core.init", _COSMOS + "__init__"),
    Tap("core.distribute", _COSMOS + "distribute"),
    Tap("core.adopt", _COSMOS + "adopt"),
    Tap("core.insert", _COSMOS + "insert"),
    Tap("core.remove", _COSMOS + "remove"),
    Tap("core.adapt", _COSMOS + "adapt"),
    Tap("core.refresh_loads", _COSMOS + "refresh_measured_loads"),
    Tap("core.collect", _COORD + "collect"),
    Tap("core.place", _COORD + "distribute"),
    Tap("core.coarsen", "repro.core.coarsening.coarsen_cached"),
    Tap("core.coarsen", "repro.core.coarsening.coarsen"),
    Tap("core.map", "repro.core.mapping.map_graph"),
    Tap("core.map", "repro.core.mapping.refine_mapping"),
    Tap("core.rebalance", "repro.core.rebalance.rebalance"),
    Tap("core.refine", "repro.core.rebalance.refine_distribution"),
    Tap("core.diffusion", "repro.core.diffusion.diffusion_solution"),
    # engine
    Tap("engine.push", _ENGINE + "push", _count_push_tuple, True),
    Tap("engine.push", _ENGINE + "push_batch", _count_push_batch, True),
    Tap("engine.push", _ENGINE + "push_query", _count_push_tuple, True),
    Tap("engine.push", _ENGINE + "push_query_batch", _count_push_query_batch, True),
    Tap("engine.deploy", _ENGINE + "add_query", keep_receiver=True),
    Tap("engine.deploy", _ENGINE + "remove_query"),
    Tap("engine.deploy", _ENGINE + "adopt_plan", keep_receiver=True),
    # sim
    Tap("sim.loop", "repro.sim.events.EventLoop.run"),
    Tap("sim.loop", "repro.sim.events.EventLoop.run_until"),
    Tap("sim.build", "repro.sim.cluster.SimCluster.__init__"),
    Tap("sim.units", "repro.sim.cluster.SimCluster.add_query"),
    Tap("sim.units", "repro.sim.cluster.SimCluster.remove_query"),
    # pubsub
    Tap("pubsub.publish", _NET + "publish", _count_publish, True),
    Tap("pubsub.publish", _NET + "publish_batch", _count_publish_batch, True),
    Tap("pubsub.control", _NET + "subscribe"),
    Tap("pubsub.control", _NET + "unsubscribe"),
    Tap("pubsub.control", _NET + "advertise", keep_receiver=True),
    Tap("pubsub.control", _NET + "unadvertise"),
    Tap("pubsub.account_path", _NET + "account_path", None, True),
    # query
    Tap("query.generate", "repro.query.workload.generate_workload"),
    Tap("query.generate", "repro.query.workload.Workload.new_queries"),
    Tap("query.generate", "repro.sim.workload.SimQueryFactory.make"),
    Tap("query.generate", "repro.sim.workload.SimQueryFactory.make_batch"),
    Tap("query.parse", "repro.query.parser.parse_query"),
    Tap("query.merge", "repro.query.merging.merge_queries"),
    Tap("query.merge", "repro.query.merging.merge_all"),
    Tap("query.merge", "repro.query.merging.split_subscription"),
    Tap("query.merge", "repro.query.merging.source_subscriptions"),
    # topology
    Tap("topology.generate", "repro.topology.transit_stub.generate_transit_stub"),
    Tap("topology.generate", "repro.topology.latency.select_roles"),
    Tap("topology.overlay", "repro.topology.overlay.minimum_latency_spanning_tree"),
    Tap("topology.oracle_row", "repro.topology.latency.LatencyOracle.row"),
)

LAYERS = ("core", "engine", "sim", "pubsub", "query", "topology")


class Recorder:
    """In-memory span store (parallel lists, one entry per call)."""

    def __init__(self, taps: Sequence[Tap] = TAPS):
        self.taps = tuple(taps)
        self.tap: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.a: List[float] = []
        self.b: List[float] = []
        self._stack: List[int] = []
        #: instances seen by ``keep_receiver`` taps, by identity
        self.receivers: Dict[int, object] = {}
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.tap)

    # ------------------------------------------------------------------
    def wrap(self, index: int, fn: Callable) -> Callable:
        """The timing wrapper of tap ``index`` around ``fn``."""
        tap, parent, start, end = self.tap, self.parent, self.start, self.end
        ca, cb, stack = self.a, self.b, self._stack
        count = self.taps[index].count
        keep_receiver = self.taps[index].keep_receiver
        receivers = self.receivers

        def traced(*args, **kwargs):
            i = len(tap)
            tap.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            ca.append(0)
            cb.append(0)
            stack.append(i)
            if keep_receiver:
                receivers[id(args[0])] = args[0]
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    ca[i], cb[i] = count(args, kwargs, result)
                except (IndexError, AttributeError, TypeError):
                    pass  # a changed signature loses the count, not the run
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every tap that resolves; never raises on one that does not.

        A method is rebound on its class.  A module-level function is
        rebound in every loaded ``repro`` module whose globals hold the
        same object, so ``from .rebalance import rebalance`` call sites
        are covered.  Import the program's packages before calling this.
        """
        for index, tap in enumerate(self.taps):
            try:
                owner, name, fn = _resolve(tap.target)
            except (ImportError, AttributeError, TypeError) as exc:
                self.missing.append(tap.target)
                print(f"warning: tap {tap.target} not installed: {exc}", file=sys.stderr)
                continue
            wrapper = self.wrap(index, fn)
            if inspect.isclass(owner):
                self._bind(owner, name, wrapper)
            else:
                for module in list(sys.modules.values()):
                    if module is None or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._bind(module, key, wrapper)

    def _bind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every original back (reverse order)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def drain_receivers(self) -> Dict[str, float]:
        """Counters the engines and networks seen since the last drain
        keep themselves (plans and tables alive at this moment)."""
        inspected = state = link_bytes = routing = 0.0
        for obj in self.receivers.values():
            if hasattr(obj, "cpu_costs"):
                inspected += sum(obj.cpu_costs().values())
                state += sum(obj.state_sizes().values())
            else:
                link_bytes += sum(obj.link_bytes.values())
                routing += sum(obj.routing_table_sizes().values())
        self.receivers.clear()
        return {
            "engine.inspected": inspected,
            "engine.state_tuples": state,
            "pubsub.link_bytes": link_bytes,
            "pubsub.routing_entries": routing,
        }


def _resolve(target: str):
    """``(owner, attribute name, plain function)`` of a dotted name."""
    parts = target.split(".")
    module = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:]
        break
    if module is None:
        raise ImportError(f"no importable prefix in {target}")
    owner = module
    for name in rest[:-1]:
        owner = getattr(owner, name)
    fn = inspect.getattr_static(owner, rest[-1])
    if not inspect.isfunction(fn):
        raise TypeError(f"{target} is not a plain function")
    return owner, rest[-1], fn


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
@dataclass
class GroupStats:
    """Totals of one tap group over a set of spans."""

    busy_s: float = 0.0  # outermost spans only: recursion counted once
    self_s: float = 0.0  # busy minus what child spans cover, all spans
    calls: int = 0  # outermost spans
    a: float = 0.0
    b: float = 0.0
    durations: Optional[List[float]] = None  # of outermost spans


@dataclass
class Window:
    """What the spans that begin inside one time window say."""

    groups: Dict[str, GroupStats]
    layer_self_s: Dict[str, float]
    #: seconds of the window under some span (sum of root spans)
    covered_s: float


def analyse(rec: Recorder, lo: int, hi: int, start: float, end: float) -> Window:
    """Aggregate spans ``lo..hi`` that begin inside ``[start, end)``.

    ``self`` time of a span is its duration minus its direct children's
    (one thread: children nest and never overlap).  A span is *outermost*
    for its group when no ancestor belongs to the same group, so
    ``Coordinator.collect`` recursing or ``publish_batch`` calling
    ``publish`` is counted once in ``busy_s`` and ``calls``.
    """
    group_names = sorted({t.group for t in rec.taps})
    gid = {g: i for i, g in enumerate(group_names)}
    tap_gid = [gid[t.group] for t in rec.taps]
    tap_layer = [t.layer for t in rec.taps]
    stats = [GroupStats(durations=[]) for _ in group_names]
    layer_self = {layer: 0.0 for layer in LAYERS}
    child_s = [0.0] * (hi - lo)
    ancestors = [0] * (hi - lo)  # bitmask of groups above each span
    covered = 0.0
    s, e, parent, tapi = rec.start, rec.end, rec.parent, rec.tap
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child_s[p - lo] += e[i] - s[i]
            ancestors[i - lo] = ancestors[p - lo] | (1 << tap_gid[tapi[p]])
    for i in range(lo, hi):
        if not start <= s[i] < end:
            continue
        dur = e[i] - s[i]
        own = dur - child_s[i - lo]
        g = tap_gid[tapi[i]]
        st = stats[g]
        st.self_s += own
        layer_self[tap_layer[tapi[i]]] += own
        if not (ancestors[i - lo] >> g) & 1:
            st.busy_s += dur
            st.calls += 1
            st.a += rec.a[i]
            st.b += rec.b[i]
            st.durations.append(dur)
        p = parent[i]
        if p < lo or not start <= s[p] < end:
            covered += dur
    return Window(
        groups=dict(zip(group_names, stats)),
        layer_self_s=layer_self,
        covered_s=covered,
    )


def export_spans(rec: Recorder, origin: float, sample_every: int = 64) -> Dict:
    """JSON-ready dump: control-plane spans in full, data-plane spans as
    per-tap aggregates plus every ``sample_every``-th span."""
    names = [t.target for t in rec.taps]
    spans = []
    aggregates: Dict[str, Dict[str, float]] = {}
    seen = [0] * len(rec.taps)
    for i in range(len(rec)):
        t = rec.tap[i]
        dur = rec.end[i] - rec.start[i]
        if rec.taps[t].data_plane:
            agg = aggregates.setdefault(
                names[t], {"spans": 0, "total_s": 0.0, "max_s": 0.0, "a": 0, "b": 0}
            )
            agg["spans"] += 1
            agg["total_s"] += dur
            agg["max_s"] = max(agg["max_s"], dur)
            agg["a"] += rec.a[i]
            agg["b"] += rec.b[i]
            seen[t] += 1
            if seen[t] % sample_every != 1:
                continue
        spans.append(
            {
                "id": i,
                "parent": rec.parent[i],
                "name": names[t],
                "start_s": rec.start[i] - origin,
                "end_s": rec.end[i] - origin,
            }
        )
    return {
        "sample_every": sample_every,
        "missing_taps": list(rec.missing),
        "data_plane_aggregates": aggregates,
        "spans": spans,
    }
