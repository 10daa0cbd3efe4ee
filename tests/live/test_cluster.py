"""Version interop and the multi-process cluster path.

The binary codec is the only data plane: a v1-only client (a ``hello``
without ``max_proto`` 2) is refused with an error frame that names the
fix, and keeps a JSON control-plane connection.  The supervisor tests
fork real server processes and drive them through the pooled transport
and the firehose -- the smallest end-to-end exercise of every tentpole
layer (fork, ephemeral ports, worker sharding, the handshake,
pipelining).
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest
from wire_helpers import read_frame

import repro
from repro.cluster.addresses import derive_endpoints, worker_groups
from repro.loadgen import run_firehose, run_live
from repro.scenarios import get_scenario
from repro.serve import LiveServer, ServeSupervisor
from repro.serve.protocol import encode_frame

TIME_SCALE = 2.0


def children_of(pid):
    """Pids whose parent is ``pid``, from ``/proc/<pid>/stat``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    # The field after ``(comm)``, which may hold spaces: state, ppid.
                    fields = stat.read().rsplit(")", 1)[1].split()
            except OSError:  # exited meanwhile
                continue
            if int(fields[1]) == pid:
                children.append(int(entry))
    return children


def steady_config(n_tasks=120, **overrides):
    return get_scenario("steady-state").build_config(
        strategy="unifincr-credits", n_tasks=n_tasks, **overrides
    )


class TestWorkerGroups:
    def test_even_split(self):
        assert worker_groups(9, 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_remainder_goes_to_the_first_groups(self):
        assert worker_groups(9, 2) == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]
        assert worker_groups(5, 4) == [[0, 1], [2], [3], [4]]

    def test_groups_partition_the_workers(self):
        for n_servers in (1, 2, 7, 9, 16):
            for procs in range(1, n_servers + 1):
                groups = worker_groups(n_servers, procs)
                assert len(groups) == procs
                flat = [w for group in groups for w in group]
                assert flat == list(range(n_servers))
                sizes = {len(g) for g in groups}
                assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n_servers, procs", [(3, 4), (0, 1), (3, 0), (1, -1)])
    def test_bad_shapes_rejected(self, n_servers, procs):
        with pytest.raises(ValueError):
            worker_groups(n_servers, procs)

    def test_derive_endpoints(self):
        assert derive_endpoints("h", 7411, 3) == [
            ("h", 7411),
            ("h", 7412),
            ("h", 7413),
        ]
        # Port 0 means "every process picks an ephemeral port".
        assert derive_endpoints("h", 0, 2) == [("h", 0), ("h", 0)]
        with pytest.raises(ValueError):
            derive_endpoints("h", 7411, 0)


class TestVersionInterop:
    def test_v1_only_client_against_a_v2_server(self):
        """A hand-rolled JSON client (no ``max_proto``) is refused with one
        error frame naming the fix; its connection stays JSON and open."""

        async def scenario():
            config = steady_config(n_tasks=10)
            server = LiveServer.from_config(config, time_scale=TIME_SCALE, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(encode_frame({"t": "hello", "proto": 1}))
                writer.write(encode_frame({"t": "admin", "cmd": "stats"}))
                await writer.drain()
                replies = [
                    await asyncio.wait_for(read_frame(reader), timeout=5)
                    for _ in range(2)
                ]
                writer.close()
                return replies
            finally:
                await server.stop()

        error, stats = asyncio.run(scenario())
        assert error["t"] == "error" and "send max_proto 2" in error["error"]
        assert stats["t"] == "stats"  # still JSON, still answered

    @pytest.mark.parametrize("protocol", [1, 3])
    def test_the_firehose_speaks_only_protocol_2(self, protocol):
        with pytest.raises(ValueError, match="only the binary protocol 2"):
            asyncio.run(run_firehose([("127.0.0.1", 1)], protocol=protocol))


class TestMultiProcessCluster:
    def test_supervisor_rejects_too_many_procs(self):
        config = steady_config()
        with pytest.raises(ValueError, match="cannot split"):
            ServeSupervisor(config, procs=config.cluster.n_servers + 1)

    def test_two_process_cluster_end_to_end(self):
        """Fork a 2-process cluster, then drive it through both client
        paths: the scheduling driver (pooled, binary) and the firehose."""
        config = steady_config(n_tasks=150)
        supervisor = ServeSupervisor(
            config, procs=2, time_scale=TIME_SCALE, base_port=0
        )
        endpoints = supervisor.start()
        try:
            assert len(endpoints) == 2
            assert supervisor.alive
            groups = supervisor.groups
            assert [w for g in groups for w in g] == list(
                range(config.cluster.n_servers)
            )

            result = asyncio.run(run_live(config, endpoints=endpoints, pool=2))
            assert result.tasks_completed == 150
            assert result.extras["live_protocol"] == 2.0
            assert result.extras["live_links"] == 4.0  # 2 endpoints x pool 2

            fire = asyncio.run(
                run_firehose(
                    endpoints, multigets=400, fanout=2, window=64, pool=2
                )
            )
            assert fire.multigets == 400
            assert fire.protocol == 2
            assert 0 < fire.p99_ms < float("inf")
            # Ops route by worker id; with sharded workers both server
            # processes must have answered.
            assert fire.server_io.get("completed", 0) >= 400 * 2
            # Pipelined writes coalesce across multigets: one write per op
            # reads 2.0 (the fan-out), one per multiget 1.0; a 2-vCPU VM
            # reads 0.29-0.49.  And an op costs binary frame sizes (~28
            # bytes), not JSON's ~95.
            assert fire.writes_per_multiget < 1.0
            assert fire.bytes_per_op < 45
        finally:
            supervisor.stop()
        assert not supervisor.alive

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads children from /proc")
    def test_sigterm_to_serve_procs_stops_its_children(self):
        """``kill <pid>`` of ``repro serve --procs 2`` exits 0 and takes both
        forked servers with it instead of orphaning them."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--procs", "2", "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True,
        )  # fmt: skip
        try:
            lines = [serve.stdout.readline() for _ in range(3)]
            assert sum("workers" in line for line in lines) == 2, lines
            children = children_of(serve.pid)
            assert len(children) == 2
            serve.send_signal(signal.SIGTERM)
            assert serve.wait(timeout=10) == 0
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(
                os.path.exists(f"/proc/{pid}") for pid in children
            ):
                time.sleep(0.05)
            assert not [pid for pid in children if os.path.exists(f"/proc/{pid}")]
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait(timeout=10)
            serve.stdout.close()

    def test_single_endpoint_of_a_sharded_cluster_is_rejected(self):
        """Connecting to only one process of a 2-process cluster cannot
        cover the worker space; the transport must refuse loudly."""
        from repro.loadgen import LiveTransportError

        config = steady_config(n_tasks=50)
        supervisor = ServeSupervisor(
            config, procs=2, time_scale=TIME_SCALE, base_port=0
        )
        endpoints = supervisor.start()
        try:
            with pytest.raises(LiveTransportError, match="worker"):
                asyncio.run(run_live(config, endpoints=endpoints[:1]))
        finally:
            supervisor.stop()
