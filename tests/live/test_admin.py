"""The admin frame as the one fault vocabulary.

The fault injector sends the same ``admin`` frames in both realms: the
simulation's :class:`~repro.cluster.faults.SimFaultPort` and the live
server's admin plane apply the server verbs through one table
(:data:`~repro.cluster.server.SERVER_VERBS`).  Checked here: the two
realms leave every server in the same fault state after any frame
sequence, the live transport fans a frame out to the endpoints it
concerns, and a bad fault frame costs one ``error`` frame and changes no
worker.
"""

import asyncio
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from wire_helpers import read_frame

from repro.cluster import BackendServer, Network, SimFaultPort
from repro.loadgen import LiveTransport, LiveTransportError
from repro.scenarios import get_scenario
from repro.serve import LiveServer
from repro.serve.protocol import encode_frame
from repro.sim import Environment, Stream

N_SERVERS = 9


def steady_config():
    return get_scenario("steady-state").build_config(strategy="c3", n_tasks=10)


def admin(command, **fields):
    return {"t": "admin", "cmd": command, **fields}


def fault_state(servers):
    return [(s.speed_factor, s.paused, s.crashes) for s in servers]


_TARGETS = st.lists(st.integers(0, N_SERVERS - 1), min_size=1, max_size=4)
_FACTORS = st.sampled_from([1.5, 2.0, 3.0, 7.0, 0.25])
_FRAMES = st.lists(
    st.one_of(
        st.builds(lambda s, f: admin("slowdown", servers=s, factor=f), _TARGETS, _FACTORS),
        st.builds(lambda s, f: admin("restore", servers=s, factor=f), _TARGETS, _FACTORS),
        st.builds(lambda s: admin("crash", servers=s), _TARGETS),
        st.builds(lambda s: admin("resume", servers=s), _TARGETS),
        st.builds(
            lambda f, sigma: admin("jitter", factor=f, sigma=sigma),
            st.sampled_from([2.0, 4.0]),
            st.sampled_from([0.0, 0.3]),
        ),
        st.just(admin("clear-jitter")),
    ),
    min_size=1,
    max_size=30,
)


@given(frames=_FRAMES)
@settings(max_examples=40, deadline=None)
def test_both_realms_apply_a_frame_sequence_alike(frames):
    """Each frame goes to simulated servers through the sim port and to a
    live server's workers through its admin handler: after every frame the
    fault state of each server is equal with ``==``."""
    env = Environment()
    network = Network(env, stream=Stream(0, "n"))
    config = steady_config()
    sim_servers = [
        BackendServer(
            env,
            server_id=server_id,
            cores=config.cluster.cores_per_server,
            service_model=config.service_model(),
            network=network,
        )
        for server_id in range(N_SERVERS)
    ]
    port = SimFaultPort(sim_servers, network)

    async def live():
        server = LiveServer.from_config(config, port=0)
        await server.start()
        try:
            replies = []
            connection = SimpleNamespace(send=replies.append)
            workers = [server.workers[i] for i in range(N_SERVERS)]
            for frame in frames:
                port(frame)
                server._handle_admin(connection, frame)
                assert fault_state(workers) == fault_state(sim_servers), frame
            return replies
        finally:
            await server.stop()

    replies = asyncio.run(live())
    assert replies == [{"t": "admin-ack", "cmd": f["cmd"]} for f in frames]


def test_transport_fans_a_frame_out_to_the_endpoints_it_concerns():
    """Two endpoints split the workers: a targeted frame reaches each one
    trimmed to its own workers (or not at all), an untargeted one both."""
    config = steady_config()
    groups = ([0, 1, 2, 3, 4], [5, 6, 7, 8])

    async def scenario():
        servers = [
            LiveServer.from_config(config, port=0, worker_ids=group)
            for group in groups
        ]
        seen = [[] for _ in servers]
        for server, frames in zip(servers, seen):
            await server.start()
            handle = server._handle_admin

            def spy(connection, frame, handle=handle, frames=frames):
                frames.append(frame)
                return handle(connection, frame)

            server._handle_admin = spy
        try:
            transport = await LiveTransport.connect(
                [(server.host, server.port) for server in servers]
            )
            try:
                for frame in (
                    admin("slowdown", servers=[1, 6, 7], factor=2.0),
                    admin("crash", servers=[8]),
                    admin("jitter", factor=4.0, sigma=0.0),
                ):
                    transport.admin(frame)
                # Frames are handled in order per connection: once the
                # stats query is answered, every admin frame has been.
                await transport.fetch_stats()
                degraded = [
                    fault_state(server.workers[i] for i in group)
                    for server, group in zip(servers, groups)
                ]
                jittered = [
                    {w.jitter_mean > 0 for w in server.workers.values()}
                    for server in servers
                ]
                for frame in (
                    admin("restore", servers=[1, 6, 7], factor=2.0),
                    admin("resume", servers=[8]),
                    admin("clear-jitter"),
                ):
                    transport.admin(frame)
                await transport.fetch_stats()
                restored = [
                    fault_state(server.workers.values()) for server in servers
                ]
            finally:
                await transport.close()
        finally:
            for server in servers:
                await server.stop()
        faults = [[f for f in frames if f["cmd"] != "stats"] for frames in seen]
        return faults, degraded, jittered, restored

    faults, degraded, jittered, restored = asyncio.run(scenario())
    assert faults == [
        [
            admin("slowdown", servers=[1], factor=2.0),
            admin("jitter", factor=4.0, sigma=0.0),
            admin("restore", servers=[1], factor=2.0),
            admin("clear-jitter"),
        ],
        [
            admin("slowdown", servers=[6, 7], factor=2.0),
            admin("crash", servers=[8]),
            admin("jitter", factor=4.0, sigma=0.0),
            admin("restore", servers=[6, 7], factor=2.0),
            admin("resume", servers=[8]),
            admin("clear-jitter"),
        ],
    ]
    healthy = (1.0, False, 0)
    assert degraded == [
        [healthy, (2.0, False, 0), healthy, healthy, healthy],
        [healthy, (2.0, False, 0), (2.0, False, 0), (1.0, True, 1)],
    ]
    assert jittered == [{True}, {True}]
    assert restored == [
        [healthy] * 5,
        [healthy, healthy, healthy, (1.0, False, 1)],
    ]


def test_a_frame_for_an_unhosted_worker_is_refused_before_any_send():
    """Two endpoints split the nine workers: a frame that also targets
    worker 9 raises, naming it, and neither endpoint applies the frame."""
    config = steady_config()
    groups = ([0, 1, 2, 3, 4], [5, 6, 7, 8])

    async def scenario():
        servers = [
            LiveServer.from_config(config, port=0, worker_ids=group)
            for group in groups
        ]
        for server in servers:
            await server.start()
        try:
            transport = await LiveTransport.connect(
                [(server.host, server.port) for server in servers]
            )
            try:
                with pytest.raises(LiveTransportError, match=r"workers \[9\]"):
                    transport.admin(admin("crash", servers=[1, 6, 9]))
                await transport.fetch_stats()
                return [fault_state(server.workers.values()) for server in servers]
            finally:
                await transport.close()
        finally:
            for server in servers:
                await server.stop()

    healthy = (1.0, False, 0)
    assert asyncio.run(scenario()) == [[healthy] * 5, [healthy] * 4]


@pytest.mark.parametrize(
    "frame, message",
    [
        (admin("slowdown", servers=[0], factor=0), "must be positive"),
        (admin("jitter", factor="fast", sigma=0.3), "could not convert"),
        (admin("jitter", factor=0, sigma=0.3), "must be positive"),
        (admin("jitter", factor=-2.0, sigma=0.3), "must be positive"),
        (admin("jitter", factor=4.0, sigma=-0.1), "non-negative"),
        (admin("crash", servers=[0, 99]), "unknown worker 99"),
    ],
    ids=[
        "slowdown-factor-0",
        "jitter-factor-not-a-number",
        "jitter-factor-0",
        "jitter-factor-negative",
        "jitter-sigma-negative",
        "unknown-worker",
    ],
)
def test_a_bad_fault_frame_costs_one_error_frame(frame, message):
    """The frame is refused whole: no worker changes, the connection lives
    and the next frame (``stats``) is answered."""

    async def scenario():
        server = LiveServer.from_config(steady_config(), port=0)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:  # no hello: a JSON control-plane connection
                writer.write(encode_frame(frame) + encode_frame(admin("stats")))
                await writer.drain()
                replies = [
                    await asyncio.wait_for(read_frame(reader), timeout=5)
                    for _ in range(2)
                ]
            finally:
                writer.close()
            workers = server.workers.values()
            state = [fault_state(workers), {w.jitter_mean for w in workers}]
            return replies, state
        finally:
            await server.stop()

    (error, stats), state = asyncio.run(scenario())
    assert error["t"] == "error" and message in error["error"]
    assert stats["t"] == "stats" and len(stats["workers"]) == N_SERVERS
    assert state == [[(1.0, False, 0)] * N_SERVERS, {0.0}]
