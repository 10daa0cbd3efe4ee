"""Property-based tests for the credits allocation arithmetic.

Invariants the allocator must maintain under any demand pattern:

* conservation: total grants for one server never exceed its interval
  budget (scaled by the congestion factor);
* demand satisfaction: when total demand fits the budget, everyone gets at
  least their demand;
* proportionality under oversubscription: grants are proportional to
  demand (within floating-point tolerance);
* gate carry-over never exceeds its cap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import CreditGrant, Network
from repro.cluster.server import server_address
from repro.core import CreditGate, CreditsController
from repro.sim import Environment, Stream


def make_controller(n_clients, capacity=1000.0, interval=0.1, scale=1.0):
    env = Environment()
    network = Network(env, stream=Stream(0, "n"))
    controller = CreditsController(
        env,
        network,
        n_clients=n_clients,
        server_capacities={0: capacity},
        allocation_interval=interval,
    )
    controller.scales[0] = scale
    return controller


demand_maps = st.dictionaries(
    keys=st.integers(min_value=0, max_value=7),
    values=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    max_size=8,
)


@given(demand_maps, st.floats(min_value=0.5, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_allocation_conserves_budget(demands, scale):
    controller = make_controller(n_clients=8, scale=scale)
    grants = controller._allocate_server(0, demands)
    budget = controller._interval_budget(0)
    assert sum(grants.values()) <= budget + 1e-6


@given(demand_maps)
@settings(max_examples=200, deadline=None)
def test_allocation_satisfies_fitting_demand(demands):
    controller = make_controller(n_clients=8)
    budget = controller._interval_budget(0)
    if sum(demands.values()) > budget:
        return  # covered by the proportionality test
    grants = controller._allocate_server(0, demands)
    for client, demand in demands.items():
        if demand > 0:
            assert grants.get(client, 0.0) >= demand - 1e-9


@given(demand_maps)
@settings(max_examples=200, deadline=None)
def test_allocation_proportional_when_oversubscribed(demands):
    controller = make_controller(n_clients=8, capacity=100.0)
    budget = controller._interval_budget(0)
    total = sum(demands.values())
    if total <= budget:
        return
    grants = controller._allocate_server(0, demands)
    for client, demand in demands.items():
        if demand > 0:
            expected = budget * demand / total
            assert grants[client] == pytest.approx(expected, rel=1e-9)


@given(
    st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False), max_size=30)
)
@settings(max_examples=100, deadline=None)
def test_gate_carryover_never_exceeds_cap(grant_sizes):
    env = Environment()
    network = Network(env, stream=Stream(0, "n"))
    network.register(server_address(0), lambda m: None)
    network.register(("controller", 0), lambda m: None)
    gate = CreditGate(
        env,
        network,
        client_id=0,
        server_ids=[0],
        initial_share={0: 10.0},
    )
    largest_grant = 0.0
    for epoch, amount in enumerate(grant_sizes):
        gate.on_grant(CreditGrant(client_id=0, epoch=epoch, credits={0: amount}))
        largest_grant = max(largest_grant, amount)
        # A single oversized grant may exceed the rate cap once (the
        # controller only issues such grants within a server's budget);
        # steady accumulation may not.
        assert gate.credits[0] <= max(gate._caps[0], largest_grant) + 1e-9
