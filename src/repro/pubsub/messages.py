"""Events for the content-based pub/sub substrate.

A message (event) is a set of attribute/value pairs plus the name of the
stream it belongs to, exactly as in Siena-style content-based networking:
routing decisions look only at the content, never at destination addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

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
    size:
        Payload size in bytes, used for traffic accounting.
    """

    stream: str
    attributes: Mapping[str, Any] = field(default_factory=dict)
    size: float = 1.0

    def get(self, attr: str, default: Any = None) -> Any:
        return self.attributes.get(attr, default)

    def project(self, attrs) -> "Event":
        """Copy of the event keeping only ``attrs`` (None keeps all).

        Size shrinks proportionally to the number of retained attributes,
        which models the early-projection bandwidth saving the paper
        attributes to the pub/sub layer.
        """
        if attrs is None:
            return self
        kept: Dict[str, Any] = {
            a: v for a, v in self.attributes.items() if a in attrs
        }
        if not self.attributes:
            new_size = self.size
        else:
            new_size = self.size * max(1, len(kept)) / len(self.attributes)
        return Event(stream=self.stream, attributes=kept, size=new_size)
