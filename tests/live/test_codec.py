"""Property tests of the binary codec: round trips and hostile bytes.

Hypothesis drives full-range field values through every frame layout --
encode then decode must reproduce the frame exactly, and the general
``encode(dict)`` entry and the type-specific fast paths
(``encode_op``/``encode_res``) must emit identical bytes.  The adversarial half slices, flips and
fabricates payloads: every corruption must surface as a
:class:`ProtocolError` carrying the absolute stream offset, never an
exception from ``struct`` or ``json`` internals.
"""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st
from test_framing import Recorder

from repro.serve.codec import (
    BINARY_CODEC,
    TAG_CONGESTION,
    TAG_JSON,
    TAG_OP,
    TAG_OP_TRACE,
    TAG_RES,
    _OP_HEAD,
    _PRIO,
    _RES,
    _TRACE,
)
from repro.serve.protocol import ProtocolError

_LENGTH = struct.Struct(">I")

rids = st.integers(min_value=0, max_value=(1 << 32) - 1)
servers = st.integers(min_value=0, max_value=(1 << 16) - 1)
keys = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
sizes = st.integers(min_value=0, max_value=(1 << 32) - 1)
# Priorities are compared (heap ordering), so NaN is out of contract.
floats = st.floats(allow_nan=False, width=64)
priorities = st.lists(floats, min_size=0, max_size=255)
counts = st.integers(min_value=0, max_value=(1 << 32) - 1)
in_service = st.integers(min_value=0, max_value=(1 << 16) - 1)


def payload_of(wire: bytes) -> bytes:
    """Strip the length prefix, validating it against the actual size."""
    (length,) = _LENGTH.unpack_from(wire, 0)
    assert length == len(wire) - 4
    return wire[4:]


def decode(codec, wire: bytes, at: int = 0):
    return codec.decode(wire, 4, len(wire), at)


class TestRoundTrip:
    @given(rid=rids, server=servers, key=keys, size=sizes, prio=priorities)
    def test_op(self, rid, server, key, size, prio):
        frame = {
            "t": "op",
            "rid": rid,
            "server": server,
            "key": key,
            "size": size,
            "prio": prio,
        }
        wire = BINARY_CODEC.encode(frame)
        assert wire == BINARY_CODEC.encode_op(rid, server, key, size, prio)
        assert payload_of(wire)[0] == TAG_OP
        # The decoded priority is the tuple the worker heap orders by.
        assert decode(BINARY_CODEC, wire) == {**frame, "prio": tuple(prio)}

    @given(
        rid=rids,
        server=servers,
        queue_wait=floats,
        service=floats,
        q=counts,
        s=in_service,
        ew=floats,
    )
    def test_res(self, rid, server, queue_wait, service, q, s, ew):
        frame = {
            "t": "res",
            "rid": rid,
            "server": server,
            "queue_wait": queue_wait,
            "service": service,
            "fb": {"q": q, "s": s, "ew": ew},
        }
        wire = BINARY_CODEC.encode(frame)
        assert wire == BINARY_CODEC.encode_res(
            rid, server, queue_wait, service, q, s, ew
        )
        assert payload_of(wire)[0] == TAG_RES
        assert decode(BINARY_CODEC, wire) == frame

    @given(server=servers, ratio=floats)
    def test_congestion(self, server, ratio):
        frame = {"t": "congestion", "server": server, "ratio": ratio}
        wire = BINARY_CODEC.encode(frame)
        assert payload_of(wire)[0] == TAG_CONGESTION
        assert decode(BINARY_CODEC, wire) == frame

    @given(
        extra=st.dictionaries(
            st.text(min_size=1, max_size=8).filter(lambda k: k != "t"),
            st.one_of(st.integers(), floats, st.text(max_size=16), st.none()),
            max_size=4,
        )
    )
    def test_control_plane_stays_json(self, extra):
        """Anything that is not op/res/congestion rides behind TAG_JSON."""
        frame = {"t": "hello-ack", **extra}
        wire = BINARY_CODEC.encode(frame)
        payload = payload_of(wire)
        assert payload[0] == TAG_JSON
        assert json.loads(payload[1:]) == frame
        assert decode(BINARY_CODEC, wire) == frame


class TestEncodeBounds:
    """Out-of-layout values fail as ProtocolError, not struct.error."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(rid=1 << 32), "rid"),
            (dict(rid=-1), "rid"),
            (dict(server=1 << 16), "server"),
            (dict(key=1 << 63), "key"),
            (dict(size=-5), "size"),
            (dict(prio=[0.0] * 256), "priority"),
        ],
    )
    def test_op_bounds(self, kwargs, match):
        fields = dict(rid=1, server=2, key=3, size=4, prio=[0.5])
        fields.update(kwargs)
        with pytest.raises(ProtocolError, match=match):
            BINARY_CODEC.encode_op(
                fields["rid"],
                fields["server"],
                fields["key"],
                fields["size"],
                fields["prio"],
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(rid=1 << 32), "rid"),
            (dict(server=-1), "server"),
            (dict(q=1 << 32), "queue length"),
            (dict(s=1 << 16), "in_service"),
        ],
    )
    def test_res_bounds(self, kwargs, match):
        fields = dict(rid=1, server=2, queue_wait=0.1, service=0.2, q=3, s=4, ew=0.5)
        fields.update(kwargs)
        with pytest.raises(ProtocolError, match=match):
            BINARY_CODEC.encode_res(
                fields["rid"],
                fields["server"],
                fields["queue_wait"],
                fields["service"],
                fields["q"],
                fields["s"],
                fields["ew"],
            )

    def test_congestion_bounds(self):
        with pytest.raises(ProtocolError, match="server"):
            BINARY_CODEC.encode({"t": "congestion", "server": 1 << 16, "ratio": 1.0})

    @pytest.mark.parametrize(
        "encode, match",
        [
            (lambda: BINARY_CODEC.encode_op(1, 1, 1, 1, ("x",)), "op .*not a float"),
            (lambda: BINARY_CODEC.encode_op(1.5, 1, 1, 1, (0.0,)), "op .*integer"),
            (
                lambda: BINARY_CODEC.encode_res(1, 1, None, 0.2, 3, 4, 0.5),
                "res .*not a float",
            ),
        ],
        ids=["op-priority-type", "op-rid-type", "res-queue-wait-type"],
    )
    def test_a_value_of_the_wrong_type_is_a_protocol_error_too(self, encode, match):
        """In range but unpackable: no field to name, so the error carries
        ``struct``'s own words -- and is still a ProtocolError."""
        with pytest.raises(ProtocolError, match=match) as raised:
            encode()
        assert isinstance(raised.value.__cause__, struct.error)


# -- byte parity: the whole-frame encoders against the decode layouts ---------

_U16, _U32, _I64, _U64 = 1 << 16, 1 << 32, 1 << 63, 1 << 64


def _edges(lo, hi):
    """Both ends of ``[lo, hi)`` always in the mix, anything between."""
    return st.one_of(st.sampled_from([lo, hi - 1]), st.integers(lo, hi - 1))


arities = st.one_of(st.sampled_from([0, 1, 3, 255]), st.integers(0, 255))
edge_rids = _edges(0, _U32)
edge_servers = _edges(0, _U16)
edge_keys = _edges(-_I64, _I64)
edge_sizes = _edges(0, _U32)
edge_traces = st.none() | _edges(0, _U64)


def reference_op(rid, server, key, size, prio, trace):
    """An op assembled piecewise from the layouts ``deliver`` unpacks."""
    payload = (
        bytes((TAG_OP if trace is None else TAG_OP_TRACE,))
        + _OP_HEAD.pack(rid, server, key, size, len(prio))
        + _PRIO[len(prio)].pack(*prio)
        + (b"" if trace is None else _TRACE.pack(trace))
    )
    return _LENGTH.pack(len(payload)) + payload


def reference_res(*fields):
    payload = bytes((TAG_RES,)) + _RES.pack(*fields)
    return _LENGTH.pack(len(payload)) + payload


def delivered(wire):
    """The one typed sink call ``deliver`` makes for ``wire``."""
    sink = Recorder()
    BINARY_CODEC.deliver(sink, wire, 4, len(wire))
    (call,) = sink.calls
    return call


class TestWholeFrameEncoders:
    @settings(max_examples=300)
    @given(
        rid=edge_rids,
        server=edge_servers,
        key=edge_keys,
        size=edge_sizes,
        prio=arities.flatmap(lambda n: st.lists(floats, min_size=n, max_size=n)),
        trace=edge_traces,
    )
    def test_op_bytes_equal_the_piecewise_reference(
        self, rid, server, key, size, prio, trace
    ):
        wire = BINARY_CODEC.encode_op(rid, server, key, size, prio, trace)
        assert wire == reference_op(rid, server, key, size, prio, trace)
        assert delivered(wire) == ("op", rid, server, key, size, tuple(prio), trace)

    @settings(max_examples=300)
    @given(
        rid=edge_rids,
        server=edge_servers,
        queue_wait=floats,
        service=floats,
        q=_edges(0, _U32),
        s=_edges(0, _U16),
        ew=floats,
    )
    def test_res_bytes_equal_the_piecewise_reference(
        self, rid, server, queue_wait, service, q, s, ew
    ):
        fields = (rid, server, queue_wait, service, q, s, ew)
        wire = BINARY_CODEC.encode_res(*fields)
        assert wire == reference_res(*fields)
        assert delivered(wire) == ("res",) + fields

    OP = dict(rid=1, server=2, key=3, size=4, prio=(0.5,), trace=None)
    RES = dict(rid=1, server=2, queue_wait=0.1, service=0.2, q=3, s=4, ew=0.5)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "field, bad, named",
        [
            ("rid", -1, "rid"),
            ("rid", _U32, "rid"),
            ("server", -1, "server"),
            ("server", _U16, "server"),
            ("key", -_I64 - 1, "key"),
            ("key", _I64, "key"),
            ("size", -1, "size"),
            ("size", _U32, "size"),
            ("prio", (0.0,) * 256, "priority count 256"),
        ],
    )
    def test_an_op_field_one_past_its_bound_is_named(self, field, bad, named, traced):
        fields = dict(self.OP, trace=7 if traced else None)
        fields[field] = bad
        with pytest.raises(ProtocolError, match=f"op {named}"):
            BINARY_CODEC.encode_op(*fields.values())

    @pytest.mark.parametrize("bad", [-1, _U64])
    def test_a_trace_context_one_past_its_bound_is_named(self, bad):
        with pytest.raises(ProtocolError, match="op trace context"):
            BINARY_CODEC.encode_op(*dict(self.OP, trace=bad).values())

    @pytest.mark.parametrize(
        "field, bad, named",
        [
            ("rid", -1, "rid"),
            ("rid", _U32, "rid"),
            ("server", -1, "server"),
            ("server", _U16, "server"),
            ("q", -1, "queue length"),
            ("q", _U32, "queue length"),
            ("s", -1, "in_service"),
            ("s", _U16, "in_service"),
        ],
    )
    def test_a_res_field_one_past_its_bound_is_named(self, field, bad, named):
        fields = dict(self.RES)
        fields[field] = bad
        with pytest.raises(ProtocolError, match=f"res {named} {bad} out of range"):
            BINARY_CODEC.encode_res(*fields.values())


@st.composite
def valid_wire(draw):
    """An encoded data-plane frame (length prefix included)."""
    kind = draw(st.sampled_from(("op", "res", "congestion")))
    if kind == "op":
        frame = {
            "t": "op",
            "rid": draw(rids),
            "server": draw(servers),
            "key": draw(keys),
            "size": draw(sizes),
            "prio": draw(st.lists(floats, max_size=4)),
        }
    elif kind == "res":
        frame = {
            "t": "res",
            "rid": draw(rids),
            "server": draw(servers),
            "queue_wait": draw(floats),
            "service": draw(floats),
            "fb": {"q": draw(counts), "s": draw(in_service), "ew": draw(floats)},
        }
    else:
        frame = {"t": "congestion", "server": draw(servers), "ratio": draw(floats)}
    return BINARY_CODEC.encode(frame)


class TestHostileBytes:
    @given(wire=valid_wire(), data=st.data())
    def test_truncation_is_a_protocol_error(self, wire, data):
        """Any strict prefix of a payload decodes to ProtocolError."""
        payload = wire[4:]
        cut = data.draw(st.integers(min_value=1, max_value=len(payload) - 1))
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(payload[:cut], 0, cut, at=0)

    @given(wire=valid_wire(), junk=st.binary(min_size=1, max_size=16))
    def test_trailing_junk_is_a_protocol_error(self, wire, junk):
        payload = wire[4:] + junk
        # Appending bytes to an op can only legalize it by matching the
        # declared priority count exactly; skip that coincidence.
        if payload[0] == TAG_OP and len(junk) % 8 == 0:
            return
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(payload, 0, len(payload), at=0)

    @given(
        tag=st.integers(min_value=0, max_value=255).filter(
            lambda t: t not in (
                TAG_OP, TAG_RES, TAG_CONGESTION, TAG_OP_TRACE, TAG_JSON
            )
        ),
        body=st.binary(max_size=32),
    )
    def test_unknown_tag(self, tag, body):
        payload = bytes((tag,)) + body
        with pytest.raises(ProtocolError, match="unknown binary frame tag"):
            BINARY_CODEC.decode(payload, 0, len(payload), at=0)

    def test_empty_frame(self):
        with pytest.raises(ProtocolError, match="empty"):
            BINARY_CODEC.decode(b"", 0, 0, at=0)

    @given(body=st.binary(max_size=32))
    def test_garbage_control_json(self, body):
        payload = bytes((TAG_JSON,)) + body
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            parsed = None
        if isinstance(parsed, dict) and "t" in parsed:
            return  # accidentally valid
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(payload, 0, len(payload), at=0)

    @settings(max_examples=25)
    @given(wire=valid_wire(), at=st.integers(min_value=0, max_value=1 << 40))
    def test_errors_report_the_stream_offset(self, wire, at):
        """A corrupt frame names the absolute byte where it sat, so a
        gigabyte into a pipelined stream is still a findable position."""
        payload = wire[4:][:-1]  # truncate
        with pytest.raises(ProtocolError, match=f"at byte {at}"):
            BINARY_CODEC.decode(payload, 0, len(payload), at=at)
