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
  (Figure 2(d)).

Every forwarded byte is accounted per link, so experiments can report the
*measured* weighted communication cost (sum of per-link rate x latency)
next to the optimizer's WEC estimate.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple

from ..topology.overlay import OverlayTree
from .broker import Broker
from .messages import Event
from .routing import LOCAL
from .subscriptions import Advertisement, Subscription

__all__ = ["PubSubNetwork"]


def _edge(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class _BatchRoute(NamedTuple):
    """Where an attribute-free event of one stream goes from one source."""

    #: (broker, its matching LOCAL subscriptions), in delivery order
    local: List[Tuple[Broker, List[Subscription]]]
    #: the overlay links crossed, each once (normalised pairs)
    edges: List[Tuple[int, int]]
    #: brokers reached = forwarding-table probes of the walk
    probes: int


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

    def __init__(self, tree: OverlayTree, record_deliveries: bool = True):
        if not tree.is_tree():
            raise ValueError("pub/sub overlay must be an acyclic connected tree")
        self.tree = tree
        self.brokers: Dict[int, Broker] = {
            n: Broker(node=n, record_deliveries=record_deliveries)
            for n in tree.nodes
        }
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

    def path_is_up(self, u: int, v: int) -> bool:
        """Whether the overlay path ``u`` -> ``v`` avoids down links."""
        if not self.down_links or u == v:
            return True
        cached = self._path_cache.get((u, v))
        if cached is not None:
            edges = cached[0]
        else:
            path = self.tree.path(u, v)
            edges = list(zip(path, path[1:]))
        return all(_edge(a, b) not in self.down_links for a, b in edges)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def _walk(
        self, source: int, event: Event
    ) -> Iterator[Tuple[Broker, Event, List[Subscription], List[Tuple[int, Event]]]]:
        """Disseminate ``event`` from ``source``, breadth first.

        Yields, per broker reached: the broker, the event as it arrived
        there, the LOCAL subscriptions it matches and the
        ``(neighbour, event as forwarded)`` hops it takes from there.
        Each hop matches the event against the broker's table exactly
        once (:meth:`RoutingTable.match_event`) -- one index probe
        yields the local deliveries, the forwarding set *and* the
        per-link projections.  Neighbour links are walked in sorted order
        so delivery order does not depend on how a table answers; a
        partitioned link loses the event.
        """
        queue = deque([(source, None, event)])
        while queue:
            node, arrived_via, ev = queue.popleft()
            broker = self._broker(node)
            match = broker.table.match_event(ev, arrived_via)
            hops = []
            for nbr in match.forward_order(LOCAL):
                assert isinstance(nbr, int)
                if self.down_links and _edge(node, nbr) in self.down_links:
                    continue  # partitioned: the event is lost, no bytes
                needed = match.needed[nbr]
                forwarded = ev if needed is None else ev.project(needed)
                hops.append((nbr, forwarded))
                queue.append((nbr, node, forwarded))
            yield broker, ev, match.local, hops

    def publish(self, source: int, event: Event) -> List[Tuple[int, Event, Subscription]]:
        """Route ``event`` from ``source``; returns local deliveries.

        Each returned triple is ``(node, projected_event, subscription)``;
        every link crossed is charged the size of the event as forwarded
        over it (see :meth:`_walk`).
        """
        deliveries: List[Tuple[int, Event, Subscription]] = []
        probes = 0
        forwards = 0
        for broker, ev, local, hops in self._walk(source, event):
            probes += 1
            for projected, sub in broker.deliver_matched(ev, local):
                deliveries.append((broker.node, projected, sub))
            for nbr, forwarded in hops:
                self._account(self.link_bytes, broker.node, nbr, forwarded.size)
            forwards += len(hops)
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
        self, source: int, stream: str, rows: int
    ) -> List[Tuple[int, Event, Subscription]]:
        """Route a coalesced batch of ``rows`` same-stream events at once.

        One representative event of size ``rows`` crosses the overlay, so
        each dissemination hop is decided once per *batch* instead of
        once per tuple, while per-link traffic is still accounted per row
        (``size = rows``).

        The representative carries no per-row attributes, so where it
        goes is decided by the stream alone -- and does not change until
        a control-plane call names the stream, resets a broker or moves
        a link.  The route (deliveries, links crossed, probes) is
        therefore memoised per ``(stream, source)``; a memoised call
        charges ``rows`` on each remembered link, delivers through the
        same brokers in the same order and reports the same counters as
        the walk it stands for.

        This is only meaningful while the subscriptions of ``stream`` are
        attribute-insensitive (true for the simulator's per-query stream
        subscriptions -- content filters there live inside the engines,
        not the network): an attribute-filtered one would be skipped for
        the whole batch where per-tuple publishing delivers the rows it
        accepts.  The walk that fills the memo checks every broker it
        reaches and raises ``ValueError`` naming such a subscription.
        """
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
        size = float(rows)
        event = Event(stream=stream, attributes={}, size=size)
        book = self.link_bytes
        for edge in route.edges:
            book[edge] = book.get(edge, 0.0) + size
        deliveries = [
            (broker.node, projected, sub)
            for broker, local in route.local
            for projected, sub in broker.deliver_matched(event, local)
        ]
        self._count_dissemination(
            route.probes, len(route.edges), len(deliveries)
        )
        return deliveries

    def _batch_route(self, source: int, stream: str) -> _BatchRoute:
        """Walk an attribute-free ``stream`` event from ``source`` without
        delivering or charging anything; see :meth:`publish_batch`."""
        local: List[Tuple[Broker, List[Subscription]]] = []
        edges: List[Tuple[int, int]] = []
        probes = 0
        for broker, _ev, matched, hops in self._walk(
            source, Event(stream=stream, attributes={})
        ):
            probes += 1
            filtered = broker.table.attribute_filtered(stream)
            if filtered is not None:
                raise ValueError(
                    f"publish_batch({stream!r}): subscription "
                    f"{filtered.sub_id} ({filtered}) at broker {broker.node} "
                    "filters on attributes; publish its stream per tuple"
                )
            if matched:
                local.append((broker, matched))
            edges.extend(_edge(broker.node, nbr) for nbr, _fwd in hops)
        return _BatchRoute(local, edges, probes)

    def publish_rate(self, source: int, event: Event, rate: float) -> int:
        """Account traffic for a *stream* of events shaped like ``event``.

        Instead of pushing ``rate`` identical events per unit time, route a
        single representative and multiply the per-link bytes by ``rate``.
        Returns the number of local deliveries of the representative.
        """
        scaled = Event(stream=event.stream, attributes=event.attributes,
                       size=event.size * rate)
        return len(self.publish(source, scaled))

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
