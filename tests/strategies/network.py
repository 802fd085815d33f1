"""Control logs for a pub/sub network on one small tree.

A log is a list of tuples, one per control-plane call: ``subscribe``,
``unsubscribe``, ``advertise``, ``unadvertise``, ``remove_broker``,
``reset_broker``, ``restore_broker`` and link ``link_down`` /
``link_up``.  :func:`apply` runs one step on a network.  Subscriptions
and advertisements are picked by index from :func:`subscription_pool`
and :data:`ADVERTS`, so every network replaying a log sees the same
``sub_id``\\ s and ``adv_id``\\ s.
"""

from dataclasses import replace

from hypothesis import strategies as st

from repro.pubsub import Advertisement, Filter, Subscription
from repro.pubsub.predicates import TRUE_FILTER
from repro.topology import OverlayTree

STREAMS = ("A", "B", "C")
#: a tree with a branch: 0-1-2-3, 1-4, 2-5
LINKS = ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5))
NODES = tuple(range(6))
#: where each stream's whole-stream advertisement comes from
SOURCE = {"A": 0, "B": 3, "C": 4}
#: (source, advertisement): one whole-stream advertisement per stream,
#: then second advertisers that promise only part of a stream, then the
#: first advertisement again from elsewhere (advertising it there moves it)
ADVERTS = tuple(
    (SOURCE[stream], Advertisement(stream=stream)) for stream in STREAMS
) + (
    (5, Advertisement(stream="A", filter=Filter.of(("x", ">", 3)))),
    (4, Advertisement(stream="B", filter=Filter.of(("y", "==", 1)))),
    (1, Advertisement(stream="C", filter=Filter.of(("x", "<", 2)))),
)
ADVERTS += ((2, ADVERTS[0][1]),)
FILTERS = (
    TRUE_FILTER,
    Filter.of(("x", ">", 2)),
    Filter.of(("x", "<=", 4), ("y", "==", 1)),
    Filter.of(("y", "in", (1, 2))),
    Filter.of(("z", "!=", 0)),
    Filter.of(("x", "<", 0), ("x", ">", 1)),  # unsatisfiable
)
PROJECTIONS = (None, ["x"], ["x", "y"], ["y", "z"])


def tree():
    t = OverlayTree(nodes=list(NODES))
    for u, v in LINKS:
        t.add_link(u, v, 1.0)
    return t


def subscription_pool():
    """Filtered and projected subscriptions on every stream set, then
    redeclarations: one ``sub_id``, another filter, projection or
    stream set."""
    pool = [
        Subscription.to_streams(streams, projection=projection, filter=filt)
        for streams in (["A"], ["B"], ["C"], ["A", "B"], ["B", "C"])
        for filt in FILTERS
        for projection in PROJECTIONS
    ]
    return pool + [
        replace(pool[0], filter=FILTERS[1]),
        replace(pool[5], projection=None),
        replace(pool[30], streams=frozenset({"A", "C"})),
        replace(pool[64], filter=TRUE_FILTER, projection=frozenset({"x"})),
    ]


POOL = len(subscription_pool())

subscribes = st.tuples(
    st.just("subscribe"), st.sampled_from(NODES), st.integers(0, POOL - 1)
)
control_ops = st.one_of(
    subscribes,
    st.tuples(st.just("move"), st.sampled_from(NODES), st.integers(0, POOL - 1)),
    st.tuples(st.just("unsubscribe"), st.integers(0, POOL - 1)),
    st.tuples(st.just("advertise"), st.integers(0, len(ADVERTS) - 1)),
    st.tuples(st.just("unadvertise"), st.integers(0, len(ADVERTS) - 1)),
    st.tuples(st.just("remove_broker"), st.sampled_from(NODES)),
    st.tuples(st.just("reset_broker"), st.sampled_from(NODES)),
    st.tuples(st.just("restore_broker"), st.sampled_from(NODES)),
    st.tuples(st.just("link_down"), st.sampled_from(LINKS)),
    st.tuples(st.just("link_up"), st.sampled_from(LINKS)),
)


def _aim(ops, restore):
    """Point each unsubscribe at a subscription declared earlier in the
    log, turn each move into a subscribe of one (at any node) and point
    each restore at a broker still waiting for one, when there is one:
    tearing down, moving or restoring nothing tests nothing.  With
    ``restore``, restore what is still down at the end."""
    declared, down, out = [], [], []
    for op in ops:
        kind = op[0]
        if kind == "move":
            kind, pick = "subscribe", op[2]
            op = (kind, op[1], declared[pick % len(declared)] if declared else pick)
        if kind == "subscribe":
            declared.append(op[2])
        elif kind == "unsubscribe" and declared:
            op = (kind, declared[op[1] % len(declared)])
        elif kind == "reset_broker":
            down.append(op[1])
        elif kind == "restore_broker" and down:
            op = (kind, down.pop())
        out.append(op)
    if restore:
        out += [("restore_broker", node) for node in reversed(down)]
    return out


def control_logs(max_pairs=15, min_pairs=0, restore=False):
    """Logs that subscribe before every other step, so that tables fill
    up while the rest of the log tears them down.  Without ``restore`` a
    log may end with brokers wiped; with it, every wiped broker is
    restored by the end."""
    pairs = st.lists(
        st.tuples(subscribes, control_ops), min_size=min_pairs, max_size=max_pairs
    )
    return pairs.map(lambda pairs: _aim([op for pair in pairs for op in pair], restore))


#: rows of attributes: any subset of x, y, z; a string value makes the
#: compiled interval tests fall back to the generic evaluator
rows_of = st.lists(
    st.dictionaries(
        st.sampled_from("xyz"), st.one_of(st.integers(0, 5), st.just("s"))
    ),
    max_size=6,
)
#: rows that carry every attribute, mostly
whole_rows = st.lists(
    st.fixed_dictionaries(
        {a: st.integers(-1, 5) for a in "xyz"},
        optional={"w": st.just("s")},
    ),
    min_size=1,
    max_size=8,
)


def apply(net, op, pool):
    """Run one step of a control log on ``net``; returns what the call
    returned."""
    kind = op[0]
    if kind == "subscribe":
        return net.subscribe(op[1], pool[op[2]])
    if kind == "unsubscribe":
        return net.unsubscribe(pool[op[1]].sub_id)
    if kind == "advertise":
        return net.advertise(*ADVERTS[op[1]])
    if kind == "unadvertise":
        return net.unadvertise(ADVERTS[op[1]][1].adv_id)
    if kind == "link_down":
        return net.set_link_down(*op[1])
    if kind == "link_up":
        return net.set_link_up(*op[1])
    return getattr(net, kind)(op[1])
