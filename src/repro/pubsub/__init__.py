"""Topic-less social pub/sub on top of an overlay.

In the paper's model (Section II-B) every social user is implicitly a
topic: a publisher ``b``'s subscribers are its interested social friends
``S_b``. :class:`PubSubSystem` runs that model over any
:class:`~repro.overlay.base.OverlayNetwork` — publish events route to each
subscriber, merged into a dissemination tree whose interior non-subscriber
nodes are the *relay nodes* the paper sets out to minimize.
"""

from repro.pubsub.tree import RoutingTree
from repro.pubsub.api import DisseminationResult, PubSubSystem

__all__ = [
    "RoutingTree",
    "DisseminationResult",
    "PubSubSystem",
]
