"""Cluster substrate: servers, clients, network, partitioning, messages."""

from .client import Client, DispatchStrategy
from .faults import (
    CrashFault,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FlashCrowdFault,
    NO_FAULTS,
    NetworkJitterFault,
    RebalanceFault,
    SimFaultPort,
    SlowdownFault,
)
from ..placement import ConsistentHashRing, Placement, RingPlacement, stable_hash
from .messages import (
    CongestionSignal,
    CreditGrant,
    DemandReport,
    RequestMessage,
    ResponseMessage,
    ServerFeedback,
    TaskCompletion,
)
from .network import (
    ConstantLatency,
    JitteredLatency,
    LatencyModel,
    Network,
    PAPER_ONE_WAY_LATENCY,
)
from .server import (
    BackendServer,
    CONTROLLER_ADDRESS,
    PullServer,
    ServerState,
    client_address,
    server_address,
)
from .topology import ClusterSpec, PAPER_CLUSTER

__all__ = [
    "BackendServer",
    "CONTROLLER_ADDRESS",
    "Client",
    "ClusterSpec",
    "CongestionSignal",
    "ConsistentHashRing",
    "ConstantLatency",
    "CrashFault",
    "CreditGrant",
    "DemandReport",
    "DispatchStrategy",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FlashCrowdFault",
    "JitteredLatency",
    "LatencyModel",
    "NO_FAULTS",
    "Network",
    "NetworkJitterFault",
    "PAPER_CLUSTER",
    "PAPER_ONE_WAY_LATENCY",
    "Placement",
    "PullServer",
    "RebalanceFault",
    "RequestMessage",
    "ResponseMessage",
    "RingPlacement",
    "ServerFeedback",
    "ServerState",
    "SimFaultPort",
    "SlowdownFault",
    "TaskCompletion",
    "client_address",
    "server_address",
    "stable_hash",
]
