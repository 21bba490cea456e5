"""CRC-framed record codec shared by the journal and the comm wire.

One framing implementation for every byte boundary the runtime
crosses: the durable journal's segment files (PR 8) and the
multi-node communicator's TCP streams speak the same frame.

A frame is one length-prefixed, checksummed blob::

    {length:08x} {crc:08x} {payload}\\n

— an 18-byte ASCII header (two fixed-width hex fields, space-set so
text payloads stay eyeballable with ``less``), the payload bytes, and
a trailing newline.  The CRC (``zlib.crc32``) spans exactly the
payload, so a torn write — a frame half-flushed when a process died,
or a stream cut mid-message — is detected, never half-trusted.

Two consumption modes, matching the two media:

* :func:`iter_frames` / :func:`scan_records` walk a byte buffer (a
  journal segment read off disk) and stop at the first tear; the
  torn-write property tests pin this down byte by byte.
* :func:`read_frame` pulls one frame off a blocking binary stream (a
  socket's ``makefile("rb")``); a clean EOF between frames is ``None``,
  anything torn raises :class:`FrameError`.

The payload is opaque bytes.  :func:`encode_record` /
:func:`decode_record` specialise to the journal's compact-JSON
records; the comm layer frames pickles instead.

:func:`key_digest` is the one content digest the layers share: the
journal's record keys, a program's home node and the telemetry job
digests all hash a content key through it.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import zlib
from collections.abc import Iterator
from typing import Any, BinaryIO

__all__ = [
    "HEADER_BYTES",
    "FrameError",
    "decode_record",
    "encode_record",
    "frame",
    "iter_frames",
    "key_digest",
    "parse_header",
    "read_frame",
    "scan_records",
    "write_frame",
]

#: ``{length:08x} {crc:08x} `` — 8 hex digits, space, 8 hex digits, space.
HEADER_BYTES = 18


class FrameError(ValueError):
    """A stream delivered bytes that are not a valid frame.

    Raised only by the strict stream path (:func:`read_frame`); the
    buffer scan never raises for torn data — it stops.
    """


def key_digest(key: Any) -> bytes:
    """The sha1 of a content key's protocol-4 pickle.

    Pinning the protocol keeps the bytes, and so the digest, stable
    across processes and runs; pickling a key that embeds a whole
    transition table is also several times cheaper than rendering it
    to text with ``repr``.
    """
    return hashlib.sha1(pickle.dumps(key, protocol=4)).digest()


def frame(payload: bytes) -> bytes:
    """Wrap payload bytes in one frame: header + payload + newline.

    Binary-safe: the length prefix delimits the payload, so embedded
    newlines in ``payload`` are fine — the trailing ``\\n`` is a
    human-courtesy record separator, not the parser's delimiter.
    """
    return b"%08x %08x " % (len(payload), zlib.crc32(payload)) + payload + b"\n"


def parse_header(header: bytes) -> tuple[int, int] | None:
    """Decode one 18-byte header to ``(length, crc)``; None if torn."""
    if len(header) < HEADER_BYTES:
        return None
    if header[8:9] != b" " or header[17:18] != b" ":
        return None
    try:
        return int(header[:8], 16), int(header[9:17], 16)
    except ValueError:
        return None


def iter_frames(data: bytes) -> Iterator[tuple[bytes, int]]:
    """Yield ``(payload, end_offset)`` for each whole frame in a buffer.

    Tolerant by construction: a short header, a payload (or its
    newline) cut mid-write, or a CRC mismatch all mean "the log ends
    here" — iteration stops at the last fully committed frame.  The
    caller compares the final ``end_offset`` against ``len(data)`` to
    see whether a torn tail follows.
    """
    offset = 0
    size = len(data)
    while offset < size:
        end = offset + HEADER_BYTES
        parsed = parse_header(data[offset:end])
        if parsed is None:
            return
        length, crc = parsed
        stop = end + length
        if stop + 1 > size:
            return  # payload (or its newline) cut mid-write
        payload = data[end:stop]
        if data[stop : stop + 1] != b"\n" or zlib.crc32(payload) != crc:
            return
        offset = stop + 1
        yield payload, offset


def encode_record(record: dict) -> bytes:
    """One JSON record line: ``{len:08x} {crc:08x} {json}\\n``.

    The payload is compact JSON (no embedded newlines: JSON escapes
    them inside strings), so every frame is exactly one text line and
    the CRC spans exactly the payload bytes.  Keys are sorted so the
    bytes are stable for equal records.
    """
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return frame(payload)


def decode_record(payload: bytes) -> dict | None:
    """Payload bytes → record dict; None when not a JSON object."""
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def scan_records(data: bytes) -> tuple[list[dict], int, bool]:
    """Decode the longest valid record prefix: ``(records, good, torn)``.

    ``good`` is the offset of the first byte past the last valid
    record; ``torn`` is True when trailing bytes follow it.  A frame
    whose payload is not a JSON object ends the prefix the same way a
    CRC mismatch does: the log is only trusted up to the last frame
    that decodes completely.
    """
    records: list[dict] = []
    offset = 0
    for payload, end in iter_frames(data):
        record = decode_record(payload)
        if record is None:
            break
        records.append(record)
        offset = end
    return records, offset, offset < len(data)


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes (looping over short reads)."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        part = stream.read(n - got)
        if not part:
            break
        chunks.append(part)
        got += len(part)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> bytes | None:
    """Pull one frame's payload off a blocking binary stream.

    Returns ``None`` on a clean EOF *between* frames (the peer closed
    after a complete message) and raises :class:`FrameError` for
    anything torn — EOF mid-frame, a malformed header, a CRC mismatch
    — because on a live stream a tear means the peer is gone or
    corrupt, and the caller must treat the connection as lost.
    """
    header = _read_exact(stream, HEADER_BYTES)
    if not header:
        return None
    parsed = parse_header(header)
    if parsed is None:
        raise FrameError(f"malformed frame header: {header!r}")
    length, crc = parsed
    body = _read_exact(stream, length + 1)
    if len(body) < length + 1:
        raise FrameError(f"stream ended mid-frame ({len(body)}/{length + 1} bytes)")
    payload, newline = body[:length], body[length:]
    if newline != b"\n":
        raise FrameError("frame missing trailing newline")
    if zlib.crc32(payload) != crc:
        raise FrameError("frame CRC mismatch")
    return payload


def write_frame(stream: Any, payload: bytes) -> int:
    """Frame and send payload on a socket-like object; returns bytes sent.

    ``stream`` needs only ``sendall`` (a socket) or ``write`` (a file
    object); the frame goes out in one call so concurrent senders need
    only serialise at this boundary.
    """
    data = frame(payload)
    sendall = getattr(stream, "sendall", None)
    if sendall is not None:
        sendall(data)
    else:
        stream.write(data)
    return len(data)
