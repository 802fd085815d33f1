"""Events for the content-based pub/sub substrate.

A message (event) is a set of attribute/value pairs plus the name of the
stream it belongs to, exactly as in Siena-style content-based networking:
routing decisions look only at the content, never at destination addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Event"]


@dataclass(frozen=True)
class Event:
    """A single stream message.

    Attributes
    ----------
    stream:
        Name of the stream the event belongs to.
    attributes:
        Attribute/value mapping; values are numbers or strings.
    """

    stream: str
    attributes: Mapping[str, Any] = field(default_factory=dict)
