"""The multi-process cluster supervisor behind ``repro serve --procs N``.

One logical cluster, many OS processes: the supervisor partitions the
config's ``n_servers`` workers into contiguous shard groups
(:func:`~repro.cluster.addresses.worker_groups`) and forks one child per
group, each running a plain :class:`~repro.serve.server.LiveServer` that
hosts only its subset of worker ids on its own TCP port.  Clients learn
each endpoint's workers from its ``hello-ack`` and route ops by worker
id -- no process ever proxies for another, so the data path stays one
hop, exactly like the simulated tier.

The supervisor uses the ``fork`` start method and **must be started from
synchronous code, before any event loop runs in the parent** (forking a
live loop duplicates its internal state).  Every CLI/benchmark caller
starts the cluster first and only then enters ``asyncio.run``.  Children
report their bound endpoint over a pipe, so ``base_port=0`` (ephemeral
ports everywhere) works for tests and benchmarks that cannot reserve
fixed ports.
"""

from __future__ import annotations

import multiprocessing
import typing as _t

from ..cluster.addresses import derive_endpoints, worker_groups
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DEFAULT_TIME_SCALE,
    run_server,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from ..harness.config import ExperimentConfig

#: How long a forked child may take to bind its socket and report back.
READY_TIMEOUT_S = 15.0


def _serve_process(
    config: "ExperimentConfig",
    worker_ids: _t.Sequence[int],
    time_scale: float,
    seed: int,
    host: str,
    port: int,
    pipe: _t.Any,
    metrics_port: _t.Optional[int] = None,
) -> None:
    """Child entry: serve one shard group until terminated."""
    import asyncio

    def ready(server: _t.Any) -> None:
        pipe.send(("ready", server.host, server.port, server.metrics_port))

    try:
        asyncio.run(
            run_server(
                config,
                time_scale=time_scale,
                seed=seed,
                host=host,
                port=port,
                ready=ready,
                worker_ids=worker_ids,
                metrics_port=metrics_port,
            )
        )
    except KeyboardInterrupt:
        pass
    except Exception as exc:  # surface bind failures etc. to the parent
        try:
            pipe.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass


class ServeSupervisor:
    """Forks and owns one server process per shard group.

    Synchronous by design (see module docstring); use as a context
    manager or pair :meth:`start` with :meth:`stop`.  ``endpoints`` and
    ``groups`` describe the running cluster after :meth:`start`.
    """

    def __init__(
        self,
        config: "ExperimentConfig",
        procs: int,
        time_scale: float = DEFAULT_TIME_SCALE,
        seed: int = 1,
        host: str = DEFAULT_HOST,
        base_port: int = DEFAULT_PORT,
        metrics_base_port: _t.Optional[int] = None,
    ) -> None:
        self.config = config
        self.procs = int(procs)
        self.time_scale = float(time_scale)
        self.seed = int(seed)
        self.host = host
        self.base_port = int(base_port)
        #: Child ``index`` exports Prometheus text on
        #: ``metrics_base_port + index`` (0 = ephemeral everywhere).
        self.metrics_base_port = (
            int(metrics_base_port) if metrics_base_port is not None else None
        )
        self.groups = worker_groups(config.cluster.n_servers, self.procs)
        self.endpoints: _t.List[_t.Tuple[str, int]] = []
        #: Resolved per-child metrics ports after start() (None = no export).
        self.metrics_ports: _t.List[_t.Optional[int]] = []
        self._children: _t.List[multiprocessing.process.BaseProcess] = []

    def start(self) -> _t.List[_t.Tuple[str, int]]:
        """Fork the children, wait for every socket, return the endpoints."""
        if self._children:
            raise RuntimeError("supervisor already started")
        context = multiprocessing.get_context("fork")
        requested = derive_endpoints(self.host, self.base_port, self.procs)
        pipes = []
        for index, group in enumerate(self.groups):
            parent_end, child_end = context.Pipe(duplex=False)
            if self.metrics_base_port is None:
                metrics_port: _t.Optional[int] = None
            elif self.metrics_base_port == 0:
                metrics_port = 0
            else:
                metrics_port = self.metrics_base_port + index
            child = context.Process(
                target=_serve_process,
                args=(
                    self.config,
                    group,
                    self.time_scale,
                    self.seed,
                    requested[index][0],
                    requested[index][1],
                    child_end,
                    metrics_port,
                ),
                name=f"repro-serve-{index}",
                daemon=True,
            )
            child.start()
            child_end.close()
            self._children.append(child)
            pipes.append(parent_end)
        try:
            ready = [self._await_ready(pipe) for pipe in pipes]
            self.endpoints = [(host, port) for host, port, _ in ready]
            self.metrics_ports = [metrics for _, _, metrics in ready]
        except Exception:
            self.stop()
            raise
        finally:
            for pipe in pipes:
                pipe.close()
        return list(self.endpoints)

    @staticmethod
    def _await_ready(pipe: _t.Any) -> _t.Tuple[str, int, _t.Optional[int]]:
        if not pipe.poll(READY_TIMEOUT_S):
            raise RuntimeError(
                f"server process not ready within {READY_TIMEOUT_S}s"
            )
        message = pipe.recv()
        if message[0] == "ready":
            metrics = message[3] if len(message) > 3 else None
            return (message[1], message[2], metrics)
        raise RuntimeError(f"server process failed to start: {message[1]}")

    @property
    def alive(self) -> bool:
        return bool(self._children) and all(
            child.is_alive() for child in self._children
        )

    def stop(self) -> None:
        """Terminate every child and reap it."""
        for child in self._children:
            if child.is_alive():
                child.terminate()
        for child in self._children:
            child.join(timeout=5.0)
            if child.is_alive():  # pragma: no cover - last resort
                child.kill()
                child.join(timeout=5.0)
        self._children = []
        self.endpoints = []
        self.metrics_ports = []
