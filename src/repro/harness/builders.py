"""Strategy builders: the fixed catalogue behind the experiment runner.

Each scheduling strategy under evaluation (C3, the BRB credits/model
realizations, the oblivious and hedging baselines, ...) is one
:class:`StrategyBuilder` in the module's table.  A builder knows how to
construct the pieces that differ between strategies -- shared machinery
(credits controller, global queue), per-client dispatch strategies,
per-server execution engines -- all from one :class:`ClusterContext` that
carries the experiment-wide substrate.  The runner is strategy-agnostic:
it resolves the config's strategy name through :func:`get_builder` and
asks the builder for parts.

A new strategy is one more entry in ``_BUILDERS`` below;
``KNOWN_STRATEGIES`` (re-exported by :mod:`repro.harness.config`) is the
tuple of its names, in display order.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from ..baselines.c3 import C3Selector
from ..baselines.hedging import HedgedStrategy
from ..baselines.selectors import make_selector
from ..baselines.strategies import ObliviousStrategy
from ..cluster.client import Client, DispatchStrategy
from ..cluster.server import BackendServer, PullServer
from ..core.brb_client import BRBCreditsStrategy, BRBModelStrategy
from ..core.clock import Clock, Transport
from ..core.credits import CreditGate, CreditsController, equal_initial_shares
from ..core.model_queue import GlobalQueue
from ..core.priorities import make_assigner
from ..placement import Placement
from ..sim.rng import StreamFactory
from ..workload.calibration import ServiceTimeModel
from ..workload.soundcloud import PAPER_CLIENTS

if _t.TYPE_CHECKING:  # pragma: no cover
    from .config import ExperimentConfig


@dataclasses.dataclass
class ClusterContext:
    """Everything a builder needs: the experiment-wide substrate.

    ``env`` and ``network`` are the clock/transport seam
    (:mod:`repro.core.clock`): the simulation binds them to the virtual
    :class:`~repro.sim.engine.Environment` and modelled
    :class:`~repro.cluster.network.Network`, the live subsystem
    (:mod:`repro.loadgen`) binds them to a wall clock and a TCP-backed
    transport -- the same builders assemble strategies for both.  The
    server-side hooks (:meth:`StrategyBuilder.build_server`) are
    simulation-only; the live service runs its own asyncio workers.

    ``placement`` is the run's :class:`~repro.placement.MutablePlacement`:
    a dispatch strategy must only address ``placement.replicas_of_key(key)``
    (the built-ins take the same set via ``partition_of`` + ``replicas_of``,
    since they need the partition id anyway), and a mid-run rebalance
    changes that set between calls.

    ``shared`` is the builder's scratch space: :meth:`StrategyBuilder.
    build_shared` populates it (controller, global queue, gates, ...) and
    the later build hooks and :meth:`StrategyBuilder.collect_extras` read
    it back.
    """

    config: "ExperimentConfig"
    env: Clock
    network: Transport
    placement: Placement
    service_model: ServiceTimeModel
    streams: StreamFactory
    shared: _t.Dict[str, _t.Any] = dataclasses.field(
        default_factory=dict, init=False
    )


class StrategyBuilder:
    """One strategy: how to assemble its clients and servers.

    Subclasses override the hooks they need; the defaults give the
    task-oblivious shape (push servers, no shared machinery, no
    extra audit counters).
    """

    #: Table key; must be unique.
    name: str = "abstract"
    #: One-line description for ``repro strategies``.
    description: str = ""

    # -- shared machinery -----------------------------------------------------
    def build_shared(self, ctx: ClusterContext) -> None:
        """Create strategy-wide machinery into ``ctx.shared`` (optional)."""

    def release_shared(self, ctx: ClusterContext) -> None:
        """Let go of what :meth:`build_shared` made (run teardown,
        idempotent); override when it is tied into a reference cycle."""
        ctx.shared.clear()

    # -- per-client ---------------------------------------------------------------
    def build_client_strategy(
        self, ctx: ClusterContext, client_id: int
    ) -> DispatchStrategy:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- per-server ---------------------------------------------------------------
    def congestion_interval(self, ctx: ClusterContext) -> _t.Optional[float]:
        """Congestion-monitor period for push servers (None disables)."""
        return None

    def build_server(self, ctx: ClusterContext, server_id: int) -> _t.Any:
        return BackendServer(
            ctx.env,
            server_id=server_id,
            cores=ctx.config.cluster.cores_per_server,
            service_model=ctx.service_model,
            network=ctx.network,
            congestion_interval=self.congestion_interval(ctx),
        )

    # -- audit -----------------------------------------------------------------
    def collect_extras(
        self,
        ctx: ClusterContext,
        clients: _t.Sequence[Client],
        servers: _t.Sequence[_t.Any],
    ) -> _t.Dict[str, float]:
        """Strategy-specific audit counters for ``RunResult.extras``."""
        return {}


# ---------------------------------------------------------------------------
# Built-in builders
# ---------------------------------------------------------------------------


class C3Builder(StrategyBuilder):
    """Task-oblivious dispatch with C3 replica ranking (the paper's rival)."""

    def __init__(self, name: str, rate_control: bool) -> None:
        self.name = name
        self.rate_control = rate_control
        self.description = (
            "C3 replica selection"
            + (" with cubic rate control" if rate_control else ", ranking only")
        )

    def build_client_strategy(
        self, ctx: ClusterContext, client_id: int
    ) -> DispatchStrategy:
        selector = C3Selector(
            ctx.env,
            concurrency_weight=PAPER_CLIENTS,
            stream=ctx.streams.stream(f"c3.tiebreak.{client_id}"),
            rate_control=self.rate_control,
            # Start at the per-client fair share of one server so the
            # cubic controller explores around the right operating point.
            initial_rate=ctx.config.cluster.server_capacity() / PAPER_CLIENTS,
        )
        return ObliviousStrategy(ctx.placement, selector, ctx.service_model)


class ObliviousBuilder(StrategyBuilder):
    """Task-oblivious dispatch with a simple replica selector."""

    def __init__(self, name: str, selector_kind: str) -> None:
        self.name = name
        self.selector_kind = selector_kind
        self.description = f"task-oblivious, {selector_kind} replica selection"

    def build_client_strategy(
        self, ctx: ClusterContext, client_id: int
    ) -> DispatchStrategy:
        selector = make_selector(
            self.selector_kind, stream=ctx.streams.stream(f"selector.{client_id}")
        )
        return ObliviousStrategy(ctx.placement, selector, ctx.service_model)


class HedgedBuilder(StrategyBuilder):
    """Hedged requests: duplicate laggards to a second replica."""

    name = "hedged"
    description = "hedged requests (duplicate after a fixed delay)"

    def build_client_strategy(
        self, ctx: ClusterContext, client_id: int
    ) -> DispatchStrategy:
        selector = make_selector(
            "least-outstanding", stream=ctx.streams.stream(f"selector.{client_id}")
        )
        return HedgedStrategy(ctx.placement, selector, ctx.service_model)

    def collect_extras(self, ctx, clients, servers):
        return {
            "hedges_sent": float(sum(c.strategy.hedges_sent for c in clients)),
            "wasted_responses": float(
                sum(c.strategy.wasted_responses for c in clients)
            ),
        }


class CreditsBuilder(StrategyBuilder):
    """BRB's distributed realization: credit gates + priority servers."""

    def __init__(self, assigner_name: str) -> None:
        self.assigner_name = assigner_name
        self.name = f"{assigner_name}-credits"
        self.description = f"BRB credits realization, {assigner_name} priorities"

    def build_shared(self, ctx: ClusterContext) -> None:
        ctx.shared["controller"] = CreditsController(
            ctx.env,
            ctx.network,
            n_clients=PAPER_CLIENTS,
            server_capacities=ctx.config.cluster.server_capacities(),
            allocation_interval=ctx.config.credits_measurement_interval,
        )
        ctx.shared["gates"] = []

    def build_client_strategy(
        self, ctx: ClusterContext, client_id: int
    ) -> DispatchStrategy:
        config = ctx.config
        assigner = make_assigner(self.assigner_name)
        gate = CreditGate(
            ctx.env,
            ctx.network,
            client_id=client_id,
            server_ids=list(range(config.cluster.n_servers)),
            measurement_interval=config.credits_measurement_interval,
            initial_share=equal_initial_shares(
                config.cluster.server_capacities(),
                PAPER_CLIENTS,
                config.credits_measurement_interval,
            ),
        )
        ctx.shared["gates"].append(gate)
        return BRBCreditsStrategy(
            ctx.placement, assigner, ctx.service_model, gate=gate
        )

    def congestion_interval(self, ctx: ClusterContext) -> _t.Optional[float]:
        return ctx.config.congestion_check_interval

    def collect_extras(self, ctx, clients, servers):
        controller: CreditsController = ctx.shared["controller"]
        return {
            "congestion_signals": float(controller.congestion_signals),
            "credit_grants": float(controller.grants_sent),
            "gated_requests": float(
                sum(g.gated for g in ctx.shared.get("gates", []))
            ),
        }


class ModelBuilder(StrategyBuilder):
    """BRB's unrealizable ideal: one global priority queue, work-pulling."""

    def __init__(self, assigner_name: str) -> None:
        self.assigner_name = assigner_name
        self.name = f"{assigner_name}-model"
        self.description = f"BRB ideal global-queue model, {assigner_name} priorities"

    def build_shared(self, ctx: ClusterContext) -> None:
        ctx.shared["global_queue"] = GlobalQueue(
            ctx.env,
            latency=ctx.config.cluster.make_latency_model(),
            stream=ctx.streams.stream("model.submit-latency"),
        )

    def release_shared(self, ctx: ClusterContext) -> None:
        if ctx.shared:
            ctx.shared["global_queue"].detach()  # its servers hold it back
        super().release_shared(ctx)

    def build_client_strategy(
        self, ctx: ClusterContext, client_id: int
    ) -> DispatchStrategy:
        assigner = make_assigner(self.assigner_name)
        return BRBModelStrategy(
            ctx.placement,
            assigner,
            ctx.service_model,
            global_queue=ctx.shared["global_queue"],
        )

    def build_server(self, ctx: ClusterContext, server_id: int) -> _t.Any:
        return PullServer(
            ctx.env,
            server_id=server_id,
            cores=ctx.config.cluster.cores_per_server,
            service_model=ctx.service_model,
            network=ctx.network,
            global_queue=ctx.shared["global_queue"],
            partitions=ctx.placement.partitions_of_server(server_id),
        )

    def collect_extras(self, ctx, clients, servers):
        return {
            "global_queue_submitted": float(ctx.shared["global_queue"].submitted)
        }


#: Every strategy, keyed by name.  The paper's Figure 2 series come first,
#: then the ablation strategies: this order is the display order everywhere.
_BUILDERS: _t.Dict[str, StrategyBuilder] = {
    builder.name: builder
    for builder in (
        C3Builder("c3", rate_control=True),
        CreditsBuilder("equalmax"),
        ModelBuilder("equalmax"),
        CreditsBuilder("unifincr"),
        ModelBuilder("unifincr"),
        ObliviousBuilder("oblivious-random", "random"),
        ObliviousBuilder("oblivious-rr", "round-robin"),
        ObliviousBuilder("oblivious-lor", "least-outstanding"),
        C3Builder("c3-norate", rate_control=False),
        CreditsBuilder("fifo"),
        CreditsBuilder("sjf"),
        CreditsBuilder("edf"),
        HedgedBuilder(),
    )
}

#: Every strategy name, in display order.
KNOWN_STRATEGIES: _t.Tuple[str, ...] = tuple(_BUILDERS)


def get_builder(name: str) -> StrategyBuilder:
    """Resolve a strategy name, with a helpful error on a miss."""
    try:
        return _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; known: {KNOWN_STRATEGIES}"
        ) from None
