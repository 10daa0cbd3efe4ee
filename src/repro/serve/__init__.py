"""Live serving: a wall-clock asyncio multiget KV service.

The real-time counterpart of the simulated backend tier: the same cluster
shape, calibrated service times and queue feedback, served over TCP with
a length-prefixed frame protocol (the binary data plane after a JSON
handshake; JSON control frames without one).  One process hosts all
workers by default; ``repro serve --procs N`` splits the cluster across
processes via :class:`~repro.serve.supervisor.ServeSupervisor`.  Drive it with
:mod:`repro.loadgen` (``repro loadgen`` / ``repro compare``) or start it
standalone with ``repro serve``.
"""

from .codec import BINARY_CODEC, JSON_CODEC, BinaryCodec, JsonCodec
from .protocol import (
    MAX_FRAME_BYTES,
    MAX_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    BatchWriter,
    FrameSink,
    FrameStream,
    ProtocolError,
    check_hello,
    encode_frame,
    error_frame,
    hello_frame,
)
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    DEFAULT_TIME_SCALE,
    LiveServer,
    run_server,
)
from .supervisor import ServeSupervisor
from .workers import DEFAULT_MAX_QUEUE, LiveJob, LiveWorker, QueueFullError

__all__ = [
    "BINARY_CODEC",
    "BatchWriter",
    "BinaryCodec",
    "DEFAULT_HOST",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_PORT",
    "DEFAULT_TIME_SCALE",
    "FrameSink",
    "FrameStream",
    "JSON_CODEC",
    "JsonCodec",
    "LiveJob",
    "LiveServer",
    "LiveWorker",
    "MAX_FRAME_BYTES",
    "MAX_PROTOCOL_VERSION",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueFullError",
    "ServeSupervisor",
    "check_hello",
    "encode_frame",
    "error_frame",
    "hello_frame",
    "run_server",
]
