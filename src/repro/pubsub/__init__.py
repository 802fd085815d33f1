"""Siena-like content-based publish/subscribe substrate."""

from .broker import Broker
from .messages import Event
from .network import PubSubNetwork
from .predicates import AttributeRange, Constraint, Filter, TRUE_FILTER
from .routing import LOCAL, RoutingTable
from .subscriptions import Advertisement, Subscription

__all__ = [
    "Event",
    "Constraint",
    "AttributeRange",
    "Filter",
    "TRUE_FILTER",
    "Subscription",
    "Advertisement",
    "RoutingTable",
    "LOCAL",
    "Broker",
    "PubSubNetwork",
]
