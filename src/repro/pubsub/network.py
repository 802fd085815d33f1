"""The broker overlay network: routing, delivery and traffic accounting.

:class:`PubSubNetwork` ties :class:`~repro.pubsub.broker.Broker` instances
to an acyclic overlay (:class:`~repro.topology.overlay.OverlayTree`) and
implements the Siena protocols the paper relies on:

* **advertise** -- flood an advertisement so every broker knows which
  neighbour leads back to each source (Figure 2(a)), each broker
  forwarding the subscriptions it holds that intersect it back toward
  the new source;
* **subscribe** -- reverse-path propagate a subscription toward the
  advertisers of intersecting advertisements, stopping where a covering
  subscription has already been forwarded (Figure 2(b), including the
  merge-at-``n1`` behaviour via covering);
* **unsubscribe** -- walk the subscription's upstream path dropping its
  entry hop by hop, re-forwarding at each hop what it had been covering
  (``unadvertise`` is the mirror image of ``advertise``); together with
  advertisement-driven forwarding and :meth:`PubSubNetwork.restore_broker`
  this keeps Siena's invariant -- a recorded subscription has been
  forwarded toward every intersecting advertiser, or is covered there --
  so covering never leaves a subscriber behind;
* **publish** -- content-based forwarding: each event crosses each overlay
  link at most once, is projected down to the attributes still needed
  downstream, and is delivered to every matching local subscriber
  (Figure 2(d)).  ``publish_batch`` routes many rows of one stream at
  once, replaying a walk of the tables it remembers per ``(stream,
  source)``; ``publish`` is a batch of one row.  The hop-by-hop walk that
  defines both is ``tests/reference/per_row_publish.py``.

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


class PubSubNetwork:
    """A content-based pub/sub service over an overlay tree."""

    def __init__(self, tree: OverlayTree):
        if not tree.is_tree():
            raise ValueError("pub/sub overlay must be an acyclic connected tree")
        self.tree = tree
        self.brokers: Dict[int, Broker] = {n: Broker(node=n) for n in tree.nodes}
        #: cumulative data bytes forwarded per link
        self.link_bytes: Dict[Tuple[int, int], float] = {}
        #: cumulative control bytes per link: one per control message
        #: (advertisement, subscription, teardown or replay) crossing it
        self.control_bytes: Dict[Tuple[int, int], float] = {}
        #: sub_id -> (subscriber node, subscription as declared): every
        #: live subscription, in the order it was (last) declared
        self._subscribers: Dict[int, Tuple[int, Subscription]] = {}
        #: adv_id -> (source node, advertisement): which broker each
        #: advertisement was flooded from, so a departing broker's
        #: advertisements can be retired with it
        self._advertiser: Dict[int, Tuple[int, Advertisement]] = {}
        #: partitioned overlay links (normalised pairs): events do not
        #: cross them and no bytes are charged while they are down
        self.down_links: Set[Tuple[int, int]] = set()
        #: (u, v) -> (edge list, latency ms) memo for :meth:`account_path`
        self._path_cache: Dict[Tuple[int, int], Tuple[list, float]] = {}
        #: stream -> source -> memoised :meth:`publish_batch` route; a
        #: control-plane change drops the streams it names (:meth:`_changed`)
        self._batch_routes: Dict[str, Dict[int, _BatchRoute]] = {}
        #: optional :class:`repro.obs.Observer`; when set, its metrics
        #: registry receives broker-level counters (probes, forwards,
        #: suppressions, teardowns).  Reads only -- never affects routing.
        self.observer = None

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def advertise(self, source: int, adv: Advertisement) -> None:
        """Flood ``adv`` from ``source`` over the whole tree.

        Every broker the flood reaches forwards back toward ``source`` the
        subscriptions it holds that intersect ``adv`` (Siena's
        advertisement-driven forwarding), so a new advertiser -- a shared
        plan re-homed on another processor, say -- is subscribed to by
        everyone interested, through the ordinary covering rules.  A
        broker reads only the entries naming ``adv.stream``, and one that
        holds ``adv`` already stops the flood.  An advertisement live at
        another source, or declared otherwise, is retracted first.
        """
        self._changed((adv.stream,))
        obs = self.observer
        if obs is not None and obs.registry is not None:
            obs.registry.inc("broker.advertisements")
        if self._advertiser.get(adv.adv_id) != (source, adv):
            self._unadvertise(adv.adv_id)
        self._advertiser[adv.adv_id] = (source, adv)
        self._broker(source).table.add_advertisement(adv, LOCAL)
        self._spread(adv, source, self.tree.neighbors(source))

    def _spread(self, adv: Advertisement, node: int, toward: Iterable[int]) -> None:
        """Send ``adv`` from ``node`` to each neighbour in ``toward``, and
        on, breadth first, from every broker that did not hold it yet
        (one control message per hop).  Such a broker forwards back
        toward the sender the subscriptions it holds that intersect it."""
        queue = deque((node, nbr) for nbr in toward)
        while queue:
            sender, node = queue.popleft()
            self._account(self.control_bytes, sender, node, 1.0)
            table = self.brokers[node].table
            if not table.add_advertisement(adv, sender):
                continue
            if table.subscriptions:  # none yet where sources first advertise
                self._resend(node, sender, [
                    sub
                    for iface, sub in table.stream_subscriptions(adv.stream)
                    if iface != sender and adv.intersects(sub)
                ])
            for nbr in self.tree.neighbors(node):
                if nbr != sender:
                    queue.append((node, nbr))

    def unadvertise(self, adv_id: int) -> None:
        """Retract an advertisement: the mirror image of :meth:`advertise`,
        a flood from its source charged per hop.

        Used when a result stream stops being produced (a shared group
        retiring, or its host crashing; a migrating plan re-advertises
        from its new host instead, which moves the advertisement).
        Subscription entries that had been forwarded toward the retired
        advertiser stay: they still point toward their subscribers, and
        an event can only match one where an advertisement intersecting
        it lies the same way -- whose entries are there anyway.
        """
        self._unadvertise(adv_id)

    def _unadvertise(self, adv_id: int) -> None:
        known = self._advertiser.pop(adv_id, None)
        if known is None:
            return
        source, adv = known
        self._changed((adv.stream,))
        queue = deque([(source, None)])
        while queue:
            node, came_from = queue.popleft()
            self.brokers[node].table.remove_advertisement(adv_id)
            for nbr in self.tree.neighbors(node):
                if nbr != came_from:
                    self._account(self.control_bytes, node, nbr, 1.0)
                    queue.append((nbr, node))

    def subscribe(self, node: int, sub: Subscription) -> None:
        """Install ``sub`` for a subscriber attached at ``node``.

        Propagation follows advertisement pointers toward intersecting
        sources and stops early when coverage makes forwarding redundant:
        the tables keep Siena's invariant "a recorded subscription has
        been forwarded toward every intersecting advertiser, or is
        covered there", because :meth:`unsubscribe`, :meth:`advertise` and
        :meth:`restore_broker` keep it too.  A ``sub_id`` that is live
        already -- at another node, or declared otherwise -- is
        unsubscribed first; the same declaration again is a no-op.
        """
        obs = self.observer
        if obs is not None and obs.registry is not None:
            obs.registry.inc("broker.subscribes")
        self._changed(sub.streams)
        if self._subscribers.get(sub.sub_id) == (node, sub):
            return
        self._unsubscribe(sub.sub_id)
        self._subscribers[sub.sub_id] = (node, sub)
        self._broker(node).table.add_subscription(sub, LOCAL)
        self._propagate(node, sub, from_iface=LOCAL)

    def _propagate(self, node: int, sub: Subscription, from_iface) -> None:
        broker = self._broker(node)
        for iface in broker.table.advertiser_interfaces(sub):
            if iface == from_iface:
                continue
            if broker.table.covered_upstream(sub, toward=iface):
                obs = self.observer
                if obs is not None and obs.registry is not None:
                    obs.registry.inc("broker.covering_suppressions")
                continue
            self._forward(node, iface, sub)

    def _forward(self, node: int, toward: int, sub: Subscription) -> None:
        """Send ``sub`` from ``node`` to its neighbour ``toward``, and on
        from there if the receiver's table changed.  The message is
        charged either way: the sender cannot know what the receiver holds."""
        self._account(self.control_bytes, node, toward, 1.0)
        if self.brokers[toward].table.add_subscription(sub, node):
            self._propagate(toward, sub, from_iface=node)

    def _resend(self, node: int, toward: int, subs: Sequence[Subscription]) -> None:
        """Forward entries held at ``node`` to its neighbour ``toward``,
        in order, and on from there by :meth:`_propagate`.  One covered
        by an entry sent before it is not sent; the receiver's covering
        drops anything else it already has."""
        sent: List[Subscription] = []
        for sub in subs:
            if any(other.covers(sub) for other in sent):
                continue
            sent.append(sub)
            self._changed(sub.streams)
            self._forward(node, toward, sub)

    def unsubscribe(self, sub_id: int) -> None:
        """Tear a subscription down (Siena's unsubscription).

        The teardown walks the subscription's upstream path from its
        subscriber node, dropping its entry hop by hop (one control
        message each) and stopping where a neighbour holds no entry for it.
        At every hop it re-forwards to that neighbour the entries the
        removed one had been covering, which then travel on by the
        ordinary propagation -- so no surviving subscription is left
        behind a covering hole.
        """
        self._unsubscribe(sub_id)

    def _unsubscribe(self, sub_id: int) -> None:
        known = self._subscribers.pop(sub_id, None)
        if known is None:
            return
        node, sub = known
        self._changed(sub.streams)
        obs = self.observer
        if obs is not None and obs.registry is not None:
            obs.registry.inc("broker.unsubscribes")
        self.brokers[node].table.remove_subscription(sub_id, LOCAL)
        for nbr in self.tree.neighbors(node):
            self._retract(node, nbr, sub_id)

    def _retract(self, node: int, nbr: int, sub_id: int) -> None:
        """Withdraw the entry ``sub_id`` has at ``nbr`` from ``node``, and
        every entry it led to beyond -- but none that ``nbr`` still
        holds ``sub_id`` from another side to justify (a subscription
        moved while a broker on its old path was wiped); then send
        ``nbr`` what it had been covering at ``node`` (depth first, so
        the re-forwarded entries meet no stale coverer on their way)."""
        there = self.brokers[nbr].table
        entry = there.remove_subscription(sub_id, node)
        if entry is None:
            return
        self._account(self.control_bytes, node, nbr, 1.0)
        for nxt in self.tree.neighbors(nbr):
            if nxt != node and not there.holds(sub_id, besides=nxt):
                self._retract(nbr, nxt, sub_id)
        table = self.brokers[node].table
        self._resend(node, nbr, [
            sub
            for sub in table.covered_entries(entry, skip=nbr)
            if nbr in table.advertiser_interfaces(sub)
        ])

    # ------------------------------------------------------------------
    # faults & membership
    # ------------------------------------------------------------------
    def remove_broker(self, node: int) -> Tuple[List[int], List[int]]:
        """Tear down everything *attached* at a departing broker.

        Subscriptions installed at ``node`` are unsubscribed, and
        advertisements flooded *from* ``node`` are retracted -- a departed
        broker was the sole advertiser of its own streams.  The broker
        itself keeps forwarding (the overlay tree is immutable; the node
        stays as a pure router), which is exactly the graceful-departure
        model of the simulator.  Returns the removed (sub_ids, adv_ids).
        """
        subs = [sid for sid, (n, _sub) in self._subscribers.items() if n == node]
        advs = [
            adv_id
            for adv_id, (src, _adv) in self._advertiser.items()
            if src == node
        ]
        for sub_id in subs:
            self._unsubscribe(sub_id)
        for adv_id in advs:
            self._unadvertise(adv_id)
        return subs, advs

    def reset_broker(self, node: int) -> None:
        """Wipe one broker's routing state (the broker-loss fault).

        The node forwards nothing until :meth:`restore_broker`; deliveries
        whose path crosses it silently stop in the meantime -- a
        restarted broker with empty tables.
        """
        self._changed(None)
        self._broker(node).table.clear()

    def restore_broker(self, node: int) -> None:
        """Refill a restarted broker from its neighbours (Siena's recovery).

        The broker starts from an empty table.  It re-advertises its own
        advertisements, and each neighbour replays across the link the
        advertisements it holds from elsewhere; both spread on as
        :meth:`advertise` floods wherever they are missing (at a
        neighbour restored while ``node`` was down, say).  Then ``node``
        re-installs the subscriptions attached at it, and each neighbour
        replays the subscription entries it would forward toward
        ``node``, which travel on by the ordinary propagation.  Last, a
        neighbour withdraws (hop by hop, as :meth:`unsubscribe` does)
        every entry it holds from ``node`` for a subscription ``node`` no
        longer holds from another side: one torn down while the broker
        was down, whose teardown stopped there.
        """
        self._changed(None)
        table = self._broker(node).table
        table.clear()
        nbrs = sorted(self.tree.neighbors(node))
        for source, adv in self._advertiser.values():
            if source == node:
                table.add_advertisement(adv, LOCAL)
                self._spread(adv, node, nbrs)
        for nbr in nbrs:
            for adv, via in list(self.brokers[nbr].table.advertisements.values()):
                if via != node:
                    self._spread(adv, nbr, [node])
        for home, sub in list(self._subscribers.values()):
            if home == node:
                table.add_subscription(sub, LOCAL)
                self._propagate(node, sub, from_iface=LOCAL)
        for nbr in nbrs:
            there = self.brokers[nbr].table
            self._resend(nbr, node, [
                sub
                for iface, sub in there.iter_entries()
                if iface != node and node in there.advertiser_interfaces(sub)
            ])
        for nbr in nbrs:
            for sub in list(self.brokers[nbr].table.subscriptions.get(node, ())):
                if not table.holds(sub.sub_id, besides=nbr):
                    self._retract(node, nbr, sub.sub_id)

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
        ``streams`` are forwarded (``None``: of any stream): their
        memoised :meth:`publish_batch` routes go.

        Table entries match on the streams their subscription names, and
        covering only ever prunes or re-forwards entries whose streams
        the subscription that did it names too, so a subscription change
        leaves every other stream's forwarding -- and its memoised route
        -- as it was.
        """
        if streams is None:
            self._batch_routes.clear()
        else:
            for stream in streams:
                self._batch_routes.pop(stream, None)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def publish(self, source: int, event: Event) -> List[Tuple[int, Event, Subscription]]:
        """Route ``event`` from ``source``: a one-row :meth:`publish_batch`.
        Returns the local deliveries as ``(node, delivered event,
        subscription)`` in delivery order, each event carrying the
        attributes that reach that subscriber."""
        stream, values = event.stream, event.attributes
        return [
            (node, event if attrs is None else Event(
                stream, {a: v for a, v in values.items() if a in attrs}
            ), sub)
            for node, sub, _rows, attrs in self.publish_batch(source, stream, 1, [values])
        ]

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
        charged and counted exactly as ``rows`` events walked hop by hop
        one after another (``tests/reference/per_row_publish.py``): each
        broker reached matches the event against its table, delivers it
        to its matching LOCAL entries and forwards it, projected down to
        the attributes the matching entries of a neighbour's interface
        keep, to every such neighbour but the one it came from (in sorted
        order, over links that are up), charging the link the event's
        size -- 1.0, shrunk in proportion to the attributes projected
        away.  So the same rows reach the same subscribers with the same
        attributes, each link gets the same float additions, and the
        ``broker.*`` dissemination counters and ``delivered_total`` move
        alike.  It returns one :class:`Delivery` per subscriber reached
        (per subscriber and delivered attribute set, when in-network
        projection shaped its rows differently), in the order the walk
        reaches them: breadth first from ``source``, table order at each
        broker.

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
            # projected sizes: per row, in row order, as the walk adds them
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
        (memoised in the route): the hop-by-hop walk, with a gate
        matching iff its filter passes the row and reads no attribute
        projected away.  ``kept`` is the row's attribute names
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
                    # projection shrinks the size by the share of
                    # attribute names it keeps
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

        For transfers that are not content-routed -- result
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
