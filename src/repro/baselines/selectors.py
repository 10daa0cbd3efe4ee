"""Replica selection policies (per-client, decentralized).

Given the replica group of a partition, a selector picks the server to
serve a read.  These are the task-oblivious baselines; C3 (the paper's
state-of-the-art comparison point), which also paces its sends, is a
whole dispatch strategy in :mod:`repro.baselines.c3`.

All selectors see the same feedback hooks (`on_assign`/`on_response`), so
strategies can treat them uniformly.
"""

from __future__ import annotations

import typing as _t

from ..cluster.messages import RequestMessage, ResponseMessage
from ..sim.rng import Stream


class ReplicaSelector:
    """Interface for per-request replica selection."""

    name: str = "abstract"

    def choose(
        self, replicas: _t.Sequence[int], request: RequestMessage
    ) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def on_assign(self, request: RequestMessage) -> None:
        """Called when a request is *assigned* to ``request.server_id``.

        Fires before the request is sent.  Selectors that track load (LOR)
        account here, not at send time, as C3 does: a request assigned but
        not yet sent is load the next ``choose`` call needs to see.
        """

    def on_response(self, response: ResponseMessage) -> None:
        """Called when a response returns (with piggybacked feedback)."""


class RandomSelector(ReplicaSelector):
    """Uniformly random replica."""

    name = "random"

    def __init__(self, stream: Stream) -> None:
        self.stream = stream

    def choose(self, replicas: _t.Sequence[int], request: RequestMessage) -> int:
        return replicas[self.stream.randrange(len(replicas))]


class RoundRobinSelector(ReplicaSelector):
    """Cycle through each partition's replica group independently."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next: _t.Dict[int, int] = {}

    def choose(self, replicas: _t.Sequence[int], request: RequestMessage) -> int:
        idx = self._next.get(request.partition, 0)
        self._next[request.partition] = (idx + 1) % len(replicas)
        return replicas[idx % len(replicas)]


class LeastOutstandingSelector(ReplicaSelector):
    """Pick the replica with the fewest outstanding requests (per client).

    The classic "least outstanding requests" (LOR) load-balancing policy;
    purely client-local knowledge.
    """

    name = "least-outstanding"

    def __init__(self, stream: _t.Optional[Stream] = None) -> None:
        self.outstanding: _t.Dict[int, int] = {}
        self.stream = stream

    def choose(self, replicas: _t.Sequence[int], request: RequestMessage) -> int:
        best = None
        best_load = None
        candidates: _t.List[int] = []
        for server in replicas:
            load = self.outstanding.get(server, 0)
            if best_load is None or load < best_load:
                best, best_load = server, load
                candidates = [server]
            elif load == best_load:
                candidates.append(server)
        if len(candidates) > 1 and self.stream is not None:
            return candidates[self.stream.randrange(len(candidates))]
        return _t.cast(int, best)

    def on_assign(self, request: RequestMessage) -> None:
        self.outstanding[request.server_id] = (
            self.outstanding.get(request.server_id, 0) + 1
        )

    def on_response(self, response: ResponseMessage) -> None:
        server = response.request.server_id
        count = self.outstanding.get(server, 0)
        if count <= 0:
            raise RuntimeError(f"negative outstanding count for server {server}")
        self.outstanding[server] = count - 1


class LeastOutstandingBytesSelector(ReplicaSelector):
    """Least outstanding *bytes* (value-size weighted LOR).

    This is the load-aware selector BRB's clients use to pin a sub-task to
    a replica: with size-skewed values, byte counts predict busy-time far
    better than request counts.
    """

    name = "least-outstanding-bytes"

    def __init__(self, stream: _t.Optional[Stream] = None) -> None:
        self.outstanding_bytes: _t.Dict[int, int] = {}
        self.stream = stream

    def choose(self, replicas: _t.Sequence[int], request: RequestMessage) -> int:
        best = None
        best_load = None
        candidates: _t.List[int] = []
        for server in replicas:
            load = self.outstanding_bytes.get(server, 0)
            if best_load is None or load < best_load:
                best, best_load = server, load
                candidates = [server]
            elif load == best_load:
                candidates.append(server)
        if len(candidates) > 1 and self.stream is not None:
            return candidates[self.stream.randrange(len(candidates))]
        return _t.cast(int, best)

    def on_assign(self, request: RequestMessage) -> None:
        self.outstanding_bytes[request.server_id] = (
            self.outstanding_bytes.get(request.server_id, 0) + request.op.value_size
        )

    def on_response(self, response: ResponseMessage) -> None:
        server = response.request.server_id
        size = response.request.op.value_size
        current = self.outstanding_bytes.get(server, 0)
        if current < size:
            raise RuntimeError(f"outstanding bytes underflow for server {server}")
        self.outstanding_bytes[server] = current - size


def make_selector(name: str, stream: _t.Optional[Stream] = None) -> ReplicaSelector:
    """Factory by name (C3 is a strategy of its own, not a selector)."""
    if name == "random":
        if stream is None:
            raise ValueError("random selector needs a stream")
        return RandomSelector(stream)
    if name == "round-robin":
        return RoundRobinSelector()
    if name == "least-outstanding":
        return LeastOutstandingSelector(stream)
    if name == "least-outstanding-bytes":
        return LeastOutstandingBytesSelector(stream)
    raise ValueError(f"unknown selector {name!r}")
