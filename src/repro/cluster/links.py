"""Coordinator-to-shard transports.

The coordinator and :class:`~repro.cluster.shard.ShardNode` speak
JSON-able dict messages; a *link* is the duplex pipe carrying them.
Every link has the :class:`ShardLink` surface (``send`` / ``reset`` /
``rebind``, plus a ``deliver`` callback the coordinator installs for
shard replies).

:class:`DirectLink` is synchronous in-process delivery: ``send``
invokes the shard handler inline and feeds replies straight back, so a
whole two-phase commit completes within one coordinator call.  This is
the transport behind the cluster front-end, the CLI, examples and
benchmarks, where a client expects its transaction resolved before the
response frame is written.  The simulator's lossy link
(:class:`repro.simulation.network.SimShardLink`) is the other
implementation.

``rebind`` swaps in a freshly rebuilt :class:`ShardNode` after a
crash; ``reset`` then drops whatever the crash left in flight.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Protocol

from repro.cluster.shard import ShardNode

__all__ = ["DirectLink", "ShardLink"]

#: Replies travel coordinator-ward through this callback.
DeliverFn = Callable[[Mapping[str, Any]], None]


class ShardLink(Protocol):
    """What the coordinator needs of a transport to one shard."""

    shard: ShardNode
    deliver: DeliverFn

    def send(self, message: Mapping[str, Any]) -> bool: ...

    def reset(self) -> None: ...

    def rebind(self, shard: ShardNode) -> None: ...


def undelivered(message: Mapping[str, Any]) -> None:
    """Default deliver target before a coordinator attaches."""


class DirectLink:
    """Synchronous, lossless, in-process link: send → handle → deliver."""

    __slots__ = ("shard", "deliver")

    def __init__(self, shard: ShardNode) -> None:
        self.shard = shard
        self.deliver: DeliverFn = undelivered

    def send(self, message: Mapping[str, Any]) -> bool:
        for reply in self.shard.handle(message):
            self.deliver(reply)
        return True

    def reset(self) -> None:
        """Nothing is ever in flight, so a crash leaves nothing to drop."""

    def rebind(self, shard: ShardNode) -> None:
        self.shard = shard

    def __repr__(self) -> str:
        return f"<DirectLink shard={self.shard.shard_id}>"
