"""Property tests for the shared CRC frame codec.

One framing implementation guards every byte boundary the runtime
crosses — journal segments on disk and the comm wire's sockets — so
its torn-write behaviour is pinned down here once, byte by byte, for
both consumption modes: the tolerant buffer scan (`iter_frames` /
`scan_records` stop at a tear) and the strict stream reader
(`read_frame` raises `FrameError` for the same bytes).
"""

import io
import socket
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.framing import (
    HEADER_BYTES,
    FrameError,
    decode_record,
    encode_record,
    frame,
    iter_frames,
    parse_header,
    read_frame,
    scan_records,
    write_frame,
)

payloads = st.binary(min_size=0, max_size=200)
payload_lists = st.lists(payloads, min_size=0, max_size=8)


# -- frame / parse_header ----------------------------------------------------


def test_frame_layout_is_the_documented_wire_format():
    data = frame(b"hello")
    assert data == b"00000005 %08x hello\n" % zlib.crc32(b"hello")
    assert parse_header(data[:HEADER_BYTES]) == (5, zlib.crc32(b"hello"))


@given(payload=payloads)
@settings(max_examples=50, deadline=None)
def test_frame_roundtrips_binary_payloads(payload):
    framed = frame(payload)
    assert len(framed) == HEADER_BYTES + len(payload) + 1
    [(got, end)] = list(iter_frames(framed))
    assert got == payload
    assert end == len(framed)


def test_parse_header_rejects_torn_and_malformed_headers():
    good = frame(b"x")[:HEADER_BYTES]
    assert parse_header(good) is not None
    assert parse_header(good[:-1]) is None  # short
    assert parse_header(b"zzzzzzzz " + good[9:]) is None  # non-hex
    assert parse_header(good.replace(b" ", b"_")) is None  # wrong separators


# -- buffer scan: longest valid prefix, never raise --------------------------


@given(items=payload_lists, cut=st.integers(min_value=0, max_value=400))
@settings(max_examples=100, deadline=None)
def test_truncated_buffer_yields_longest_whole_prefix(items, cut):
    """Cutting a concatenated log anywhere keeps exactly the frames
    that were fully committed before the cut."""
    frames = [frame(p) for p in items]
    data = b"".join(frames)
    cut = min(cut, len(data))
    got = [p for p, _ in iter_frames(data[:cut])]
    # how many whole frames fit in the first `cut` bytes
    whole, offset = 0, 0
    for f in frames:
        if offset + len(f) > cut:
            break
        offset += len(f)
        whole += 1
    assert got == items[:whole]


@given(items=payload_lists.filter(bool), data=st.data())
@settings(max_examples=60, deadline=None)
def test_corrupt_byte_stops_iteration_at_that_frame(items, data):
    frames = [frame(p) for p in items]
    buf = bytearray(b"".join(frames))
    index = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
    buf[index] ^= 0xFF
    # find which frame the flipped byte falls in
    offset, victim = 0, 0
    for i, f in enumerate(frames):
        if index < offset + len(f):
            victim = i
            break
        offset += len(f)
    got = [p for p, _ in iter_frames(bytes(buf))]
    assert got == items[:victim]


# -- record codec (journal speak) --------------------------------------------


def test_record_roundtrip_and_stable_bytes():
    record = {"b": 2, "a": [1, "x"], "c": None}
    data = encode_record(record)
    assert encode_record({"c": None, "a": [1, "x"], "b": 2}) == data  # sorted keys
    [(payload, _)] = list(iter_frames(data))
    assert decode_record(payload) == record


def test_scan_records_stops_at_non_dict_payload():
    data = encode_record({"seq": 0}) + frame(b"[1,2]") + encode_record({"seq": 1})
    records, good, torn = scan_records(data)
    assert records == [{"seq": 0}]
    assert good == len(encode_record({"seq": 0}))
    assert torn


def test_scan_records_clean_log_is_not_torn():
    data = encode_record({"seq": 0}) + encode_record({"seq": 1})
    records, good, torn = scan_records(data)
    assert records == [{"seq": 0}, {"seq": 1}]
    assert good == len(data)
    assert not torn


# -- strict stream reader (comm speak) ---------------------------------------


@given(items=payload_lists)
@settings(max_examples=50, deadline=None)
def test_read_frame_drains_a_stream_then_returns_none(items):
    stream = io.BytesIO(b"".join(frame(p) for p in items))
    got = []
    while (payload := read_frame(stream)) is not None:
        got.append(payload)
    assert got == items
    assert read_frame(stream) is None  # stays at clean EOF


@given(payload=payloads, cut=st.integers(min_value=1, max_value=220))
@settings(max_examples=60, deadline=None)
def test_read_frame_raises_on_any_mid_frame_cut(payload, cut):
    """The same torn bytes the buffer scan tolerates are a hard error
    on a live stream: a tear means the peer died mid-send."""
    data = frame(payload)
    cut = min(cut, len(data) - 1)
    with pytest.raises(FrameError):
        read_frame(io.BytesIO(data[:cut]))


def test_read_frame_raises_on_crc_mismatch_and_bad_newline():
    data = bytearray(frame(b"payload"))
    data[HEADER_BYTES] ^= 0xFF  # corrupt payload => CRC mismatch
    with pytest.raises(FrameError, match="CRC"):
        read_frame(io.BytesIO(bytes(data)))
    data = bytearray(frame(b"payload"))
    data[-1] = ord("X")  # clobber record separator
    with pytest.raises(FrameError, match="newline"):
        read_frame(io.BytesIO(bytes(data)))


def test_write_frame_speaks_both_sockets_and_files():
    left, right = socket.socketpair()
    try:
        sent = write_frame(left, b"over the wire")
        assert sent == HEADER_BYTES + len(b"over the wire") + 1
        assert read_frame(right.makefile("rb")) == b"over the wire"
    finally:
        left.close()
        right.close()
    buf = io.BytesIO()
    assert write_frame(buf, b"to disk") == HEADER_BYTES + len(b"to disk") + 1
    assert read_frame(io.BytesIO(buf.getvalue())) == b"to disk"


def test_journal_records_parse_off_the_stream_reader():
    """Journal segments and the comm wire speak the same frame: a
    record encoded for disk reads back through the socket-side path."""
    stream = io.BytesIO(encode_record({"kind": "result", "seq": 7}))
    assert decode_record(read_frame(stream)) == {"kind": "result", "seq": 7}


# -- the shared content digest -----------------------------------------------


def test_key_digest_keeps_journal_keys_and_home_nodes():
    """Journal record keys and dist home nodes both hash content keys
    through ``key_digest``; neither may move, or journals and shards
    written before would stop matching."""
    from repro.comm.dist import DistBackend
    from repro.machines.turing import binary_increment
    from repro.runtime.journal import journal_key
    from repro.runtime.workloads.machines import MACHINES

    job = (binary_increment(), "1011")
    assert journal_key(MACHINES, job, 100) == "73b8d28a88561f28af20dcbf2c70a5d8e4ab62b3"
    backend = DistBackend(MACHINES, nodes=3)
    try:
        assert backend._place(MACHINES.program_key(binary_increment())) == 2
    finally:
        backend.close()
