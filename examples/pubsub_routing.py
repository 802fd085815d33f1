"""Content-based routing walkthrough (the paper's Figure 2).

Builds the seven-node example network of the paper's introduction,
advertises stream R from n3, subscribes n6 (a > 20) and n7 (a > 10), and
publishes two messages -- showing advertisement flooding, covering-based
subscription propagation, early filtering, and per-link traffic.

Run:  python examples/pubsub_routing.py
"""

from repro.pubsub import (
    Advertisement,
    Event,
    Filter,
    PubSubNetwork,
    Subscription,
)
from repro.topology import OverlayTree


def main() -> None:
    # Figure 2's backbone: n3 - n2 - n1 with n1 fanning out to n4..n7
    #        n3 -- n2 -- n1 -- n6
    #                     |\-- n7
    #                     |--- n4
    #                     \--- n5
    tree = OverlayTree(nodes=[1, 2, 3, 4, 5, 6, 7])
    for a, b in [(3, 2), (2, 1), (1, 4), (1, 5), (1, 6), (1, 7)]:
        tree.add_link(a, b, 1.0)
    net = PubSubNetwork(tree)

    # (a) the source advertises what it will publish
    net.advertise(3, Advertisement(stream="R", filter=Filter.of(("a", ">=", 0))))
    print("advertised stream R from n3 (flooded to all brokers)")

    # (b) receivers subscribe; n1 merges them on the way to n2
    sub7 = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 10)))
    sub6 = Subscription.to_streams(["R"], filter=Filter.of(("a", ">", 20)))
    net.subscribe(7, sub7)
    net.subscribe(6, sub6)
    print("subscribed: n7 wants a>10, n6 wants a>20")

    # (c) the routing tables now point toward the interested parties
    for node in (1, 2, 3):
        table = net.brokers[node].table
        entries = {
            iface: [str(s.filter) for s in subs]
            for iface, subs in table.subscriptions.items()
        }
        print(f"  routing table at n{node}: {entries}")

    # (d) two messages: m1 (a=15) reaches only n7; m2 (a=25) reaches both
    for value in (15, 25):
        net.reset_traffic()
        deliveries = net.publish(3, Event("R", {"a": value}))
        receivers = sorted(n for n, _, _ in deliveries)
        links = sorted(net.link_bytes)
        print(f"m(a={value}): delivered to {receivers}; links used {links}")

    # early filtering: a message nobody wants dies at the source broker
    net.reset_traffic()
    assert net.publish(3, Event("R", {"a": 5})) == []
    assert net.total_data_bytes() == 0.0
    print("m(a=5): filtered at n3, zero bytes on the wire")


if __name__ == "__main__":
    main()
