"""Property tests of the binary traced-op frame (``TAG_OP_TRACE``).

The traced-op layout is the op layout plus a trailing little-endian u64
trace id, with exact-length enforcement preserved (a truncated or padded
frame is a :class:`ProtocolError`, never a silent misparse).
"""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.serve.codec import BINARY_CODEC, TAG_OP, TAG_OP_TRACE
from repro.serve.protocol import ProtocolError

_LENGTH = struct.Struct(">I")

rids = st.integers(min_value=0, max_value=(1 << 32) - 1)
servers = st.integers(min_value=0, max_value=(1 << 16) - 1)
keys = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
sizes = st.integers(min_value=0, max_value=(1 << 32) - 1)
floats = st.floats(allow_nan=False, width=64)
priorities = st.lists(floats, min_size=0, max_size=255)
trace_ids = st.integers(min_value=0, max_value=(1 << 64) - 1)


def payload_of(wire: bytes) -> bytes:
    (length,) = _LENGTH.unpack_from(wire, 0)
    assert length == len(wire) - 4
    return wire[4:]


def decode(codec, wire: bytes, at: int = 0):
    return codec.decode(wire, 4, len(wire), at)


def traced_frame(rid, server, key, size, prio, trace):
    return {
        "t": "op",
        "rid": rid,
        "server": server,
        "key": key,
        "size": size,
        "prio": prio,
        "trace": trace,
    }


class TestTracedRoundTrip:
    @given(
        rid=rids, server=servers, key=keys, size=sizes,
        prio=priorities, trace=trace_ids,
    )
    def test_binary_roundtrip(self, rid, server, key, size, prio, trace):
        frame = traced_frame(rid, server, key, size, prio, trace)
        wire = BINARY_CODEC.encode(frame)
        assert wire == BINARY_CODEC.encode_op(
            rid, server, key, size, prio, trace
        )
        assert payload_of(wire)[0] == TAG_OP_TRACE
        back = decode(BINARY_CODEC, wire)
        assert back == {**frame, "prio": tuple(prio)}
        assert back["trace"] == trace

    @given(rid=rids, server=servers, key=keys, size=sizes, prio=priorities)
    def test_untraced_op_keeps_the_plain_tag(self, rid, server, key, size, prio):
        """``trace: None`` and no trace key both take the TAG_OP path."""
        frame = {
            "t": "op", "rid": rid, "server": server,
            "key": key, "size": size, "prio": prio,
        }
        bare = BINARY_CODEC.encode(frame)
        assert payload_of(bare)[0] == TAG_OP
        assert BINARY_CODEC.encode({**frame, "trace": None}) == bare


class TestTracedEncodeBounds:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(trace=1 << 64), "trace"),
            (dict(trace=-1), "trace"),
            (dict(rid=1 << 32), "rid"),
            (dict(server=-1), "server"),
            (dict(key=1 << 63), "key"),
            (dict(size=-1), "size"),
            (dict(prio=[0.0] * 256), "priority"),
        ],
    )
    def test_bounds(self, kwargs, match):
        fields = dict(rid=1, server=2, key=3, size=4, prio=[0.5], trace=7)
        fields.update(kwargs)
        with pytest.raises(ProtocolError, match=match):
            BINARY_CODEC.encode_op(
                fields["rid"], fields["server"], fields["key"],
                fields["size"], fields["prio"], fields["trace"],
            )


@st.composite
def traced_wire(draw):
    return BINARY_CODEC.encode_op(
        draw(rids), draw(servers), draw(keys), draw(sizes),
        draw(st.lists(floats, max_size=4)), draw(trace_ids),
    )


class TestHostileTracedBytes:
    @given(wire=traced_wire(), data=st.data())
    def test_any_truncation_is_a_protocol_error(self, wire, data):
        payload = wire[4:]
        cut = data.draw(st.integers(min_value=1, max_value=len(payload) - 1))
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(payload[:cut], 0, cut, at=0)

    @given(wire=traced_wire(), junk=st.binary(min_size=1, max_size=16))
    def test_trailing_junk_is_a_protocol_error(self, wire, junk):
        payload = wire[4:] + junk
        # Appending a multiple of 8 bytes can only legalize the frame by
        # matching the declared priority count; skip that coincidence.
        if len(junk) % 8 == 0:
            return
        with pytest.raises(ProtocolError):
            BINARY_CODEC.decode(payload, 0, len(payload), at=0)

    @given(wire=traced_wire())
    def test_exact_length_is_enforced_not_inferred(self, wire):
        """Dropping exactly the 8-byte trace tail is still an error: the
        traced tag promises a trace id, so the shorter-but-aligned frame
        must not quietly decode as an untraced op."""
        payload = wire[4:][:-8]
        with pytest.raises(ProtocolError, match="traced op"):
            BINARY_CODEC.decode(payload, 0, len(payload), at=0)

    @given(wire=traced_wire(), at=st.integers(min_value=0, max_value=1 << 40))
    def test_errors_report_the_stream_offset(self, wire, at):
        payload = wire[4:][:-1]
        with pytest.raises(ProtocolError, match=f"at byte {at}"):
            BINARY_CODEC.decode(payload, 0, len(payload), at=at)
