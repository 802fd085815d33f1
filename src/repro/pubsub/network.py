"""The broker overlay network: routing, delivery and traffic accounting.

:class:`PubSubNetwork` ties :class:`~repro.pubsub.broker.Broker` instances
to an acyclic overlay (:class:`~repro.topology.overlay.OverlayTree`) and
implements the three Siena protocols the paper relies on:

* **advertise** -- flood an advertisement so every broker knows which
  neighbour leads back to each source (Figure 2(a));
* **subscribe** -- reverse-path propagate a subscription toward the
  advertisers of intersecting advertisements, stopping where a covering
  subscription has already been forwarded (Figure 2(b), including the
  merge-at-``n1`` behaviour via covering);
* **publish** -- content-based forwarding: each event crosses each overlay
  link at most once, is projected down to the attributes still needed
  downstream, and is delivered to every matching local subscriber
  (Figure 2(d)).  ``publish_batch`` does the same for many rows of one
  stream at once, replaying a walk of the tables it remembers per
  ``(stream, source)``.

Every forwarded byte is accounted per link, so experiments can report the
*measured* weighted communication cost (sum of per-link rate x latency)
next to the optimizer's WEC estimate.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping,
    NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..topology.overlay import OverlayTree
from .broker import Broker
from .messages import Event
from .routing import LOCAL
from .subscriptions import Advertisement, Subscription

__all__ = ["Delivery", "PubSubNetwork"]

#: below this, adding an integral count to an integral float is exact
_EXACT = 2.0 ** 53


def _edge(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Delivery(NamedTuple):
    """One subscriber's share of a :meth:`PubSubNetwork.publish_batch`."""

    node: int
    sub: Subscription
    #: indices of the rows delivered, ascending
    rows: Tuple[int, ...]
    #: the attributes those rows arrive with; ``None``: all they carry
    attrs: Optional[FrozenSet[str]]


class _Gate(NamedTuple):
    """A table entry an event must match to cross a link or be delivered."""

    matches: Callable[[Mapping[str, Any]], bool]
    #: the attributes its filter reads: projected away, the entry fails
    reads: FrozenSet[str]
    projection: Optional[FrozenSet[str]]


class _Outcome(NamedTuple):
    """What a row of one signature does on a :class:`_BatchRoute`."""

    #: (index into the route's ``local``, attributes delivered or
    #: ``None``: all), in delivery order
    targets: Tuple[Tuple[int, Optional[FrozenSet[str]]], ...]
    #: (link, size as forwarded over it), in walk order
    charges: Tuple[Tuple[Tuple[int, int], float], ...]
    #: every charge is a whole row (nothing was projected away)
    whole: bool
    #: brokers reached
    probes: int


class _BatchRoute:
    """Where events of one stream may go from one source, read off the
    tables by one stream-only walk (see :meth:`PubSubNetwork.publish_batch`)."""

    __slots__ = ("steps", "local", "tests", "shaped", "outcomes")

    def __init__(self) -> None:
        #: per broker reached, breadth first: (index of the step it is
        #: reached from, or -1 at the source; the link from there; the
        #: gates on that link; indices into ``local`` of its LOCAL entries)
        self.steps: List[Tuple[int, Optional[Tuple[int, int]], List[_Gate], List[int]]] = []
        #: (broker, subscription, gate) per LOCAL entry, in delivery order
        self.local: List[Tuple[int, Subscription, _Gate]] = []
        #: the distinct compiled filters that constrain some gate
        self.tests: List[Callable[[Mapping[str, Any]], bool]] = []
        #: some gate projects: what a row does depends on its attribute
        #: names too (without, a filter reading an absent attribute fails)
        self.shaped = False
        #: row signature (each test's verdict, then the attribute names
        #: when ``shaped``) -> what such a row does
        self.outcomes: Dict[Tuple[Any, ...], _Outcome] = {}


class _ForcedWalk(NamedTuple):
    """Where ``subscribe(node, sub, force=True)`` goes: read off the
    advertisement tables alone, so valid until one of ``sub``'s streams
    is (un)advertised or a broker is reset."""

    sub: Subscription
    #: the advertisement clock when the hops were read
    tick: int
    #: (normalised link, sender, receiver) per hop, depth-first
    hops: List[Tuple[Tuple[int, int], int, int]]


class PubSubNetwork:
    """A content-based pub/sub service over an overlay tree."""

    def __init__(self, tree: OverlayTree):
        if not tree.is_tree():
            raise ValueError("pub/sub overlay must be an acyclic connected tree")
        self.tree = tree
        self.brokers: Dict[int, Broker] = {n: Broker(node=n) for n in tree.nodes}
        #: cumulative data bytes forwarded per link
        self.link_bytes: Dict[Tuple[int, int], float] = {}
        #: cumulative control bytes (advertisement/subscription propagation)
        self.control_bytes: Dict[Tuple[int, int], float] = {}
        self._subscriber_node: Dict[int, int] = {}
        #: adv_id -> (source node, advertisement): which broker each
        #: advertisement was flooded from, so a departing broker's
        #: advertisements can be retired with it
        self._advertiser: Dict[int, Tuple[int, Advertisement]] = {}
        #: partitioned overlay links (normalised pairs): events do not
        #: cross them and no bytes are charged while they are down
        self.down_links: Set[Tuple[int, int]] = set()
        #: (u, v) -> (edge list, latency ms) memo for :meth:`account_path`
        self._path_cache: Dict[Tuple[int, int], Tuple[list, float]] = {}
        #: control-plane version: bumped by every subscribe / unsubscribe /
        #: advertise / unadvertise, broker reset and link partition / heal,
        #: so callers can memoise routing-derived state and invalidate it
        #: exactly when tables or reachability may have changed
        self.version = 0
        #: stream -> ``version`` of the last change naming it, and the
        #: ``version`` of the last change naming every stream (see
        #: :meth:`stream_version`)
        self._stream_versions: Dict[str, int] = {}
        self._all_streams_version = 0
        #: sub_id -> every stream a declaration of it has named (a
        #: superset of the streams its table entries can match on)
        self._sub_streams: Dict[int, FrozenSet[str]] = {}
        #: stream -> source -> memoised :meth:`publish_batch` route; a
        #: control-plane change drops the streams it names (:meth:`_changed`)
        self._batch_routes: Dict[str, Dict[int, _BatchRoute]] = {}
        #: sub_id -> subscriber node -> memoised forced walk; validated
        #: against the advertisement clock: every advertisement-table
        #: change ticks it and stamps its stream (a broker reset stamps
        #: them all), so a walk is current while its streams' stamps and
        #: the reset stamp are no newer than the walk's tick
        self._walks: Dict[int, Dict[int, _ForcedWalk]] = {}
        self._adv_clock = 0
        self._adv_stamps: Dict[str, int] = {}
        self._adv_reset = 0
        #: optional :class:`repro.obs.Observer`; when set, its metrics
        #: registry receives broker-level counters (probes, forwards,
        #: suppressions, repairs).  Reads only -- never affects routing.
        self.observer = None

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def advertise(self, source: int, adv: Advertisement, size: float = 1.0) -> None:
        """Flood ``adv`` from ``source`` over the whole tree."""
        self._changed((adv.stream,))
        self._advertisements_changed(adv.stream)
        obs = self.observer
        if obs is not None and obs.registry is not None:
            obs.registry.inc("broker.advertisements")
        self._advertiser[adv.adv_id] = (source, adv)
        self._broker(source).table.add_advertisement(adv, LOCAL)
        queue = deque([(source, None)])
        while queue:
            node, came_from = queue.popleft()
            for nbr in self.tree.neighbors(node):
                if nbr == came_from:
                    continue
                self._account(self.control_bytes, node, nbr, size)
                self._broker(nbr).table.add_advertisement(adv, node)
                queue.append((nbr, node))

    def subscribe(
        self, node: int, sub: Subscription, size: float = 1.0,
        force: bool = False,
    ) -> None:
        """Install ``sub`` for a subscriber attached at ``node``.

        Propagation follows advertisement pointers toward intersecting
        sources and stops early when coverage makes forwarding redundant.

        ``force=True`` re-propagates all the way to the advertisers even
        through brokers that already know the subscription.  The early
        stops assume the Siena invariant "a recorded subscription has
        been forwarded upstream", which :meth:`unsubscribe` (a tree-wide
        delete, not a protocol walk) breaks: tearing down a subscription
        that covered an identical one from another subscriber leaves the
        survivor's path with a hole *beyond* the brokers that still have
        its entries.  Long-running systems (the discrete-event simulator's
        migration rounds) repair such holes by re-subscribing with
        ``force=True``; the call is idempotent.

        Where a forced walk goes depends on the advertisement tables of
        ``sub``'s streams and nothing else (every hop recurses, whatever
        the table did), so it is read off them once per ``(node, sub)``
        and replayed: each hop charges ``size`` and installs ``sub`` in
        the depth-first order of the recursive walk it stands for
        (``tests/reference/covering_scan.py``).
        """
        streams = self._sub_streams.get(sub.sub_id, sub.streams) | sub.streams
        self._sub_streams[sub.sub_id] = streams
        self._changed(streams)
        obs = self.observer
        reg = None if obs is None else obs.registry
        if reg is not None:
            reg.inc("broker.subscribes")
            if force:
                reg.inc("broker.covering_repairs")
        broker = self._broker(node)
        self._subscriber_node[sub.sub_id] = node
        broker.table.add_subscription(sub, LOCAL)
        if not force:
            self._propagate(node, sub, from_iface=LOCAL, size=size)
            return
        walks = self._walks.setdefault(sub.sub_id, {})
        walk = walks.get(node)
        current = walk is not None and walk.sub is sub and self._walk_current(walk)
        if reg is not None:
            reg.inc("broker.walk_memo_hits" if current else "broker.walk_memo_misses")
        if not current:
            hops: List[Tuple[Tuple[int, int], int, int]] = []
            self._forced_hops(node, sub, LOCAL, hops)
            walk = walks[node] = _ForcedWalk(sub, self._adv_clock, hops)
        book = self.control_bytes
        brokers = self.brokers
        for edge, sender, receiver in walk.hops:
            book[edge] = book.get(edge, 0.0) + size
            brokers[receiver].table.add_subscription(sub, sender)

    def _propagate(
        self, node: int, sub: Subscription, from_iface, size: float
    ) -> None:
        broker = self._broker(node)
        targets = broker.table.advertiser_interfaces(sub)
        for iface in targets:
            if iface == from_iface:
                continue
            if broker.table.covered_upstream(sub, toward=iface):
                obs = self.observer
                if obs is not None and obs.registry is not None:
                    obs.registry.inc("broker.covering_suppressions")
                continue
            nbr = iface
            assert isinstance(nbr, int)
            # every attempted forward is a real message (the sender cannot
            # know the remote table already holds the subscription), so it
            # is charged whether or not the table changes
            self._account(self.control_bytes, node, nbr, size)
            if self._broker(nbr).table.add_subscription(sub, node):
                self._propagate(nbr, sub, from_iface=node, size=size)

    def _forced_hops(
        self, node: int, sub: Subscription, from_iface, hops: list
    ) -> None:
        """Append the hops of a forced walk from ``node`` to ``hops``."""
        for nbr in self._broker(node).table.advertiser_interfaces(sub):
            if nbr == from_iface:
                continue
            hops.append((_edge(node, nbr), node, nbr))
            self._forced_hops(nbr, sub, node, hops)

    def _walk_current(self, walk: _ForcedWalk) -> bool:
        """No advertisement table a forced walk read has changed since."""
        if self._adv_reset > walk.tick:
            return False
        stamps = self._adv_stamps
        return all(stamps.get(s, 0) <= walk.tick for s in walk.sub.streams)

    def _advertisements_changed(self, stream: Optional[str]) -> None:
        """Tick the advertisement clock and stamp ``stream`` (``None``:
        every stream) with it: forced walks reading it are stale."""
        self._adv_clock += 1
        if stream is None:
            self._adv_reset = self._adv_clock
        else:
            self._adv_stamps[stream] = self._adv_clock

    def unsubscribe(self, sub_id: int) -> None:
        """Remove a subscription everywhere (tree-wide)."""
        self._changed(self._sub_streams.pop(sub_id, ()))
        self._subscriber_node.pop(sub_id, None)
        self._walks.pop(sub_id, None)
        for broker in self.brokers.values():
            broker.table.remove_subscription(sub_id)

    def unadvertise(self, adv_id: int) -> None:
        """Retire an advertisement everywhere (tree-wide).

        The teardown counterpart of :meth:`advertise`, used when a result
        stream stops being produced (a shared group retiring) or moves to
        another node (a shared plan migrating -- retire, then re-advertise
        from the new host).  Like :meth:`unsubscribe` it is modelled as a
        tree-wide delete rather than a protocol walk, so no control
        traffic is charged; subscriptions that had propagated toward the
        old advertiser keep their entries and are repaired by the
        caller's ``subscribe(..., force=True)`` pass.
        """
        known = self._advertiser.pop(adv_id, None)
        self._changed(() if known is None else (known[1].stream,))
        if known is not None:
            self._advertisements_changed(known[1].stream)
        for broker in self.brokers.values():
            broker.table.remove_advertisement(adv_id)

    # ------------------------------------------------------------------
    # faults & membership
    # ------------------------------------------------------------------
    def remove_broker(self, node: int) -> Tuple[List[int], List[int]]:
        """Tear down everything *attached* at a departing broker.

        Subscriptions installed at ``node`` are unsubscribed tree-wide,
        and advertisements flooded *from* ``node`` are retired through
        :meth:`unadvertise` -- a departed broker was the sole advertiser
        of its own streams, so leaving them in place would keep dangling
        routes pointing at a producer that no longer exists.  The broker
        itself keeps forwarding (the overlay tree is immutable; the node
        stays as a pure router), which is exactly the graceful-departure
        model of the simulator.  Returns the removed (sub_ids, adv_ids).
        """
        subs = [sid for sid, n in self._subscriber_node.items() if n == node]
        advs = [
            adv_id
            for adv_id, (src, _adv) in self._advertiser.items()
            if src == node
        ]
        for sub_id in subs:
            self.unsubscribe(sub_id)
        for adv_id in advs:
            self.unadvertise(adv_id)
        return subs, advs

    def reset_broker(self, node: int) -> None:
        """Wipe one broker's routing state (the broker-loss fault).

        The node forwards nothing until advertisements are re-flooded and
        subscriptions re-propagated across it (the recovery policy's
        ``force=True`` pass); deliveries whose path crosses it silently
        stop in the meantime -- a restarted broker with empty tables.
        """
        self._changed(None)
        self._advertisements_changed(None)
        self._broker(node).table.clear()

    def reflood_advertisements(self, size: float = 1.0) -> None:
        """Re-flood every live advertisement from its source.

        Broker-loss recovery: flooding is idempotent on brokers that
        still hold the advertisement (their tables dedup by adv_id), and
        repopulates the wiped broker's pointers so subscription
        re-propagation can cross it again.  Control traffic is charged
        per flood, like the original advertise.
        """
        for adv_id in list(self._advertiser):
            source, adv = self._advertiser[adv_id]
            self.advertise(source, adv, size=size)

    def set_link_down(self, u: int, v: int) -> None:
        """Partition one overlay link: events stop crossing it."""
        if v not in self.tree.neighbors(u):
            raise ValueError(f"({u}, {v}) is not an overlay link")
        self._changed(None)
        self.down_links.add(_edge(u, v))

    def set_link_up(self, u: int, v: int) -> None:
        """Heal a partitioned link."""
        self._changed(None)
        self.down_links.discard(_edge(u, v))

    def _changed(self, streams: Optional[Iterable[str]]) -> None:
        """Note a control-plane change that can alter how events of
        ``streams`` are forwarded (``None``: of any stream).

        Table entries match on the streams their subscription names, and
        covering only ever prunes entries whose streams the new
        subscription names too, so a subscription change leaves every
        other stream's forwarding -- and its memoised route -- as it was.
        """
        self.version += 1
        if streams is None:
            self._batch_routes.clear()
            self._all_streams_version = self.version
        else:
            for stream in streams:
                self._batch_routes.pop(stream, None)
                self._stream_versions[stream] = self.version

    def stream_version(self, stream: str) -> int:
        """The :attr:`version` of the last control-plane call that could
        change how events of ``stream`` are forwarded -- or which
        subscriptions name it: state derived from the subscriptions of
        one stream stays valid while this does not move."""
        version = self._stream_versions.get(stream, 0)
        return max(version, self._all_streams_version)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def publish(self, source: int, event: Event) -> List[Tuple[int, Event, Subscription]]:
        """Route ``event`` from ``source``, breadth first; returns local
        deliveries as ``(node, projected_event, subscription)``.

        Each broker reached matches the event against its table exactly
        once (:meth:`RoutingTable.match_event`) -- one index probe yields
        the local deliveries, the forwarding set *and* the per-link
        projections -- and every link crossed is charged the size of the
        event as forwarded over it.  Neighbour links are walked in sorted
        order so delivery order does not depend on how a table answers; a
        partitioned link loses the event.
        """
        deliveries: List[Tuple[int, Event, Subscription]] = []
        probes = forwards = 0
        queue = deque([(source, None, event)])
        while queue:
            node, arrived_via, ev = queue.popleft()
            broker = self._broker(node)
            match = broker.table.match_event(ev, arrived_via)
            probes += 1
            for projected, sub in broker.deliver_matched(ev, match.local):
                deliveries.append((node, projected, sub))
            for nbr in match.forward_order(LOCAL):
                if self.down_links and _edge(node, nbr) in self.down_links:
                    continue  # partitioned: the event is lost, no bytes
                needed = match.needed[nbr]
                forwarded = ev if needed is None else ev.project(needed)
                self._account(self.link_bytes, node, nbr, forwarded.size)
                forwards += 1
                queue.append((nbr, node, forwarded))
        self._count_dissemination(probes, forwards, len(deliveries))
        return deliveries

    def _count_dissemination(self, probes: int, forwards: int, delivered: int) -> None:
        obs = self.observer
        if obs is not None and obs.registry is not None:
            reg = obs.registry
            reg.inc("broker.index_probes", probes)
            reg.inc("broker.forwards", forwards)
            reg.inc("broker.local_deliveries", delivered)

    def publish_batch(
        self, source: int, stream: str, rows: int,
        values: Sequence[Mapping[str, Any]],
    ) -> List[Delivery]:
        """Publish ``rows`` events of ``stream`` from ``source`` at once.

        ``values`` holds each row's attributes (``rows`` is its length,
        passed on its own so a tap metering the call reads the row count
        off the arguments; a mismatch raises).  The batch is delivered,
        charged and counted exactly as ``rows`` calls of :meth:`publish`
        with ``Event(stream, values[i], size=1.0)``: the same rows reach
        the same subscribers with the same attributes, each link gets the
        same float additions, and the ``broker.*`` dissemination counters
        and ``delivered_total`` move alike.  It returns one
        :class:`Delivery` per subscriber reached (per subscriber and
        delivered attribute set, when in-network projection shaped its
        rows differently), in the order :meth:`publish` delivers.

        Where a row can go is read off the tables once per ``(stream,
        source)`` (:meth:`_batch_route`) and kept until a control-plane
        call names the stream, resets a broker or moves a link
        (:meth:`_changed`).  A row replays it: a link forwards the row iff
        the row reached its upstream broker and a gating entry matches
        the row as projected so far, and is charged the projected size.
        That depends only on which of the route's distinct constraining
        filters pass the row (and, where some entry projects, on its
        attribute names), so each such signature is walked once per
        route; a route no entry constrains or projects evaluates nothing
        per row.
        """
        if len(values) != rows:
            raise ValueError(
                f"publish_batch({stream!r}): {rows} rows but "
                f"{len(values)} attribute mappings"
            )
        routes = self._batch_routes.get(stream)
        route = None if routes is None else routes.get(source)
        obs = self.observer
        reg = None if obs is None else obs.registry
        if reg is not None:
            reg.observe("broker.batch_rows", float(rows))
            reg.inc(
                "broker.route_memo_misses"
                if route is None
                else "broker.route_memo_hits"
            )
        if route is None:
            route = self._batch_route(source, stream)
            self._batch_routes.setdefault(stream, {})[source] = route
        if not rows:
            return []
        # each row's signature, a column of verdicts at a time
        if route.tests or route.shaped:
            columns = [list(map(test, values)) for test in route.tests]
            if route.shaped:
                columns.append([tuple(row) for row in values])
            signatures = list(zip(*columns))
        else:
            signatures = [()] * rows
        outcomes = route.outcomes
        if signatures.count(signatures[0]) == rows:
            # one signature: every row does the same
            key = signatures[0]
            outcome = outcomes.get(key) or self._outcome(route, key)
            indices = tuple(range(rows))
            probes = outcome.probes * rows
            forwards = len(outcome.charges) * rows
            whole = outcome.whole
            counts: Iterable[Tuple[Tuple[int, int], int]] = [
                (edge, rows) for edge, _size in outcome.charges
            ]
            reached = [(target, indices) for target in outcome.targets]
        else:
            by_key: Dict[Tuple[Any, ...], List[int]] = {}
            for i, key in enumerate(signatures):
                by_key.setdefault(key, []).append(i)
            probes = forwards = 0
            whole = True
            per_edge: Dict[Tuple[int, int], int] = {}
            groups: Dict[Tuple[int, Optional[FrozenSet[str]]], Tuple[int, ...]] = {}
            for key, run in by_key.items():
                outcome = outcomes.get(key) or self._outcome(route, key)
                indices, n = tuple(run), len(run)
                probes += outcome.probes * n
                forwards += len(outcome.charges) * n
                whole = whole and outcome.whole
                for edge, _size in outcome.charges:
                    per_edge[edge] = per_edge.get(edge, 0) + n
                for target in outcome.targets:
                    got = groups.get(target)
                    groups[target] = indices if got is None else tuple(sorted(got + indices))
            counts = per_edge.items()
            # walk order; a row reaches a LOCAL entry once, so one entry's
            # differently projected targets hold disjoint rows
            reached = sorted(groups.items(), key=lambda item: (item[0][0], item[1][0]))
        book = self.link_bytes
        if whole:
            # whole rows: one addition of the count where that is exactly
            # the count's additions of 1.0 (an integral total below 2^53)
            for edge, count in counts:
                total = book.get(edge, 0.0)
                if total.is_integer() and total + count < _EXACT:
                    book[edge] = total + count
                else:
                    for _ in range(count):
                        total += 1.0
                    book[edge] = total
        else:
            # projected sizes: per row, in row order, as publish adds them
            for signature in signatures:
                for edge, size in outcomes[signature].charges:
                    book[edge] = book.get(edge, 0.0) + size
        out = []
        delivered = 0
        for (slot, attrs), indices in reached:
            node, sub, _gate = route.local[slot]
            n = len(indices)
            self.brokers[node].delivered_total += n
            delivered += n
            out.append(Delivery(node, sub, indices, attrs))
        self._count_dissemination(probes, forwards, delivered)
        return out

    def _outcome(self, route: _BatchRoute, key: Any) -> _Outcome:
        """What a row whose signature is ``key`` does on ``route``
        (memoised in the route): the hop-by-hop walk of :meth:`publish`,
        with a gate matching iff its filter passes the row and reads no
        attribute projected away.  ``kept`` is the row's attribute names
        as projected so far (``None``: all of them -- nothing on the
        route projects)."""
        passes = dict(zip(route.tests, key))
        names = frozenset(key[-1]) if route.shaped else None

        def admits(gate: _Gate, kept: Optional[FrozenSet[str]]) -> bool:
            return passes.get(gate.matches, True) and (
                kept is None or gate.reads <= kept
            )

        reached: List[Optional[Tuple[Optional[FrozenSet[str]], float]]] = []
        targets: List[Tuple[int, Optional[FrozenSet[str]]]] = []
        charges: List[Tuple[Tuple[int, int], float]] = []
        for parent, edge, gates, slots in route.steps:
            if parent < 0:
                kept, size = names, 1.0
            else:
                arrived = reached[parent]
                passing = [] if arrived is None else [
                    gate for gate in gates if admits(gate, arrived[0])
                ]
                if not passing:
                    reached.append(None)
                    continue
                kept, size = arrived
                if all(gate.projection is not None for gate in passing):
                    # Event.project, on attribute names
                    forwarded = kept & frozenset().union(
                        *(gate.projection for gate in passing)
                    )
                    if kept:
                        size = size * max(1, len(forwarded)) / len(kept)
                    kept = forwarded
                charges.append((edge, size))
            reached.append((kept, size))
            for slot in slots:
                gate = route.local[slot][2]
                if admits(gate, kept):
                    got = kept if gate.projection is None else kept & gate.projection
                    targets.append((slot, None if got == names else got))
        outcome = route.outcomes[key] = _Outcome(
            tuple(targets),
            tuple(charges),
            all(size == 1.0 for _edge, size in charges),
            sum(1 for state in reached if state is not None),
        )
        return outcome

    def _batch_route(self, source: int, stream: str) -> _BatchRoute:
        """Walk ``stream`` from ``source`` over every table entry naming
        it, whatever its filter: the links and LOCAL entries a row of
        the stream can reach, each with the entries that gate it."""
        route = _BatchRoute()
        tests: Dict[Callable, None] = {}
        queue = deque([(source, None, -1, None, [])])
        while queue:
            node, via, parent, edge, gates = queue.popleft()
            index = len(route.steps)
            slots: List[int] = []
            links: Dict[int, List[_Gate]] = {}
            for iface, sub, matches in self._broker(node).table.stream_entries(stream):
                if iface == via:
                    continue
                gate = _Gate(matches, sub.filter.attributes(), sub.projection)
                if gate.projection is not None:
                    route.shaped = True
                if gate.reads:
                    tests[matches] = None
                if iface == LOCAL:
                    slots.append(len(route.local))
                    route.local.append((node, sub, gate))
                else:
                    links.setdefault(iface, []).append(gate)
            route.steps.append((parent, edge, gates, slots))
            for nbr in sorted(links):
                link = _edge(node, nbr)
                if link in self.down_links:
                    continue  # partitioned: nothing crosses, no bytes
                queue.append((nbr, node, index, link, links[nbr]))
        route.tests = list(tests)
        return route

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def account_path(self, u: int, v: int, size: float) -> float:
        """Account ``size`` data bytes along the overlay path ``u`` -> ``v``.

        For transfers that do not flow through :meth:`publish` -- result
        streams travelling host -> proxy and migration state handoffs in
        the discrete-event simulator.  Returns the path latency (ms) so the
        caller can derive the transfer delay from the same walk.  Paths
        are memoised (the tree is immutable), so repeated transfers over
        one pair -- every result tuple of a query -- skip the tree walk.
        The latency is summed from the smaller id to the larger, whichever
        direction is asked first, so it never depends on call order.
        """
        if u == v:
            return 0.0
        key = (u, v)
        cached = self._path_cache.get(key)
        if cached is None:
            lo, hi = (u, v) if u < v else (v, u)
            path = self.tree.path(lo, hi)
            edges = list(zip(path, path[1:]))
            lat = sum(self.tree.links[a][b] for a, b in edges)
            self._path_cache[(lo, hi)] = (edges, lat)
            self._path_cache[(hi, lo)] = ([(b, a) for a, b in reversed(edges)], lat)
            cached = self._path_cache[key]
        for a, b in cached[0]:
            self._account(self.link_bytes, a, b, size)
        return cached[1]

    def reset_traffic(self) -> None:
        self.link_bytes.clear()
        self.control_bytes.clear()

    def weighted_data_cost(self) -> float:
        """Sum over links of forwarded bytes x link latency (the paper's
        weighted communication cost, measured on the data plane)."""
        total = 0.0
        for (u, v), amount in self.link_bytes.items():
            total += amount * self.tree.links[u][v]
        return total

    def total_data_bytes(self) -> float:
        return sum(self.link_bytes.values())

    def routing_table_sizes(self) -> Dict[int, int]:
        return {n: b.table.size() for n, b in self.brokers.items()}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _broker(self, node: int) -> Broker:
        try:
            return self.brokers[node]
        except KeyError:
            raise KeyError(f"node {node} is not part of the pub/sub overlay") from None

    @staticmethod
    def _account(book: Dict[Tuple[int, int], float], u: int, v: int, size: float) -> None:
        key = _edge(u, v)
        book[key] = book.get(key, 0.0) + size
