"""Length-prefixed JSON wire codec for the asyncio backend.

Every message the protocol stack puts on the wire is pure data — the
quasi-transaction dataclasses, reliable-transport envelopes, plain
dicts of primitives.  (Transaction *bodies* are generator callables,
but they never cross the network: an update executes at its agent's
home node and only its effects propagate, as
:class:`~repro.core.transaction.QuasiTransaction` objects.)

The codec serializes those payloads structurally: each registered
dataclass becomes a ``{"__wire__": "dc", "type": ..., "fields": ...}``
tagged object and is reconstructed as a *real instance* on the far
side — receivers dispatch on ``isinstance(payload, RPacket)`` /
``isinstance(payload, SeqPayload)``, so a dict lookalike would not do.
Tuples, sets, bytes, and non-string-keyed dicts get their own tags
(JSON would silently flatten them to lists/strings).  Anything else
is a loud :class:`CodecError` at encode: nothing executable is ever
decoded off a socket.

Frames on the socket are ``4-byte big-endian length + JSON body`` —
self-delimiting, so one TCP connection carries any number of messages
and a frame-aware fault proxy can drop or delay whole messages without
corrupting the stream.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any

from repro.net.message import Message

_TAG = "__wire__"
_LEN = struct.Struct(">I")

#: Refuse absurd frame lengths (corrupt prefix, stray connection).
MAX_FRAME = 64 * 1024 * 1024


class CodecError(Exception):
    """A value that cannot be encoded, or a frame that cannot be decoded."""


class WireCodec:
    """Structural JSON encoding with a registered-dataclass vocabulary."""

    def __init__(self) -> None:
        self._types: dict[str, type] = {}
        #: Always 0: the pickle path is gone; kept for existing readers.
        self.pickle_fallbacks = 0

    def register(self, cls: type) -> type:
        """Teach the codec one dataclass (field-wise round trip)."""
        self._types[cls.__name__] = cls
        return cls

    # -- frame layer -----------------------------------------------------

    def encode_frame(self, message: Message) -> bytes:
        """One network message -> length-prefixed wire frame."""
        body = json.dumps(
            {
                "src": message.src,
                "dst": message.dst,
                "kind": message.kind,
                "sent_at": message.sent_at,
                "payload": self.encode(message.payload),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        return _LEN.pack(len(body)) + body

    def decode_frame(self, body: bytes) -> Message:
        """Wire frame body (without the length prefix) -> message."""
        try:
            raw = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"undecodable frame: {exc}") from exc
        return Message(
            raw["src"],
            raw["dst"],
            raw["kind"],
            self.decode(raw["payload"]),
            sent_at=raw["sent_at"],
        )

    # -- value layer -----------------------------------------------------

    def encode(self, value: Any) -> Any:
        """Any payload value -> JSON-safe structure."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, list):
            return [self.encode(item) for item in value]
        if isinstance(value, tuple):
            return {_TAG: "tuple", "items": [self.encode(i) for i in value]}
        if isinstance(value, (set, frozenset)):
            kind = "frozenset" if isinstance(value, frozenset) else "set"
            # Sorted by repr: set iteration order must not leak onto
            # the wire (it varies with insertion history).
            items = sorted(value, key=repr)
            return {_TAG: kind, "items": [self.encode(i) for i in items]}
        if isinstance(value, bytes):
            return {_TAG: "bytes", "b64": base64.b64encode(value).decode()}
        if isinstance(value, dict):
            if all(isinstance(k, str) for k in value) and _TAG not in value:
                return {k: self.encode(v) for k, v in value.items()}
            return {
                _TAG: "dict",
                "items": [
                    [self.encode(k), self.encode(v)]
                    for k, v in value.items()
                ],
            }
        cls_name = type(value).__name__
        cls = self._types.get(cls_name)
        if cls is not None and type(value) is cls:
            fields = _dataclass_fields(value)
            return {
                _TAG: "dc",
                "type": cls_name,
                "fields": {k: self.encode(v) for k, v in fields.items()},
            }
        raise CodecError(f"unregistered wire type {cls_name!r}")

    def decode(self, value: Any) -> Any:
        """Inverse of :meth:`encode`."""
        if isinstance(value, list):
            return [self.decode(item) for item in value]
        if not isinstance(value, dict):
            return value
        tag = value.get(_TAG)
        if tag is None:
            return {k: self.decode(v) for k, v in value.items()}
        if tag == "tuple":
            return tuple(self.decode(i) for i in value["items"])
        if tag == "set":
            return {self.decode(i) for i in value["items"]}
        if tag == "frozenset":
            return frozenset(self.decode(i) for i in value["items"])
        if tag == "bytes":
            return base64.b64decode(value["b64"])
        if tag == "dict":
            return {
                self.decode(k): self.decode(v) for k, v in value["items"]
            }
        if tag == "dc":
            cls = self._types.get(value["type"])
            if cls is None:
                raise CodecError(f"unregistered wire type {value['type']!r}")
            fields = {k: self.decode(v) for k, v in value["fields"].items()}
            return cls(**fields)
        raise CodecError(f"unknown wire tag {tag!r}")


def _dataclass_fields(value: Any) -> dict[str, Any]:
    import dataclasses

    return {
        f.name: getattr(value, f.name)
        for f in dataclasses.fields(value)
    }


def default_codec() -> WireCodec:
    """A codec registered with every dataclass the protocols wire-send.

    The vocabulary is the transitive closure of what reaches
    ``Network.send``: transport envelopes (:class:`RPacket`), broadcast
    envelopes (:class:`SeqPayload`), replication cargo
    (:class:`QtBatch` of :class:`QuasiTransaction` carrying
    :class:`Version` writes and a :class:`SpanContext`), recovery
    snapshots (:class:`FragmentCheckpoint`), and the concurrency-control
    ops (:class:`Read`/:class:`Write`) some workload metadata embeds.
    """
    from repro.cc.ops import Read, Write
    from repro.core.transaction import QuasiTransaction
    from repro.net.broadcast import SeqPayload
    from repro.net.reliable import RPacket
    from repro.obs.lineage import SpanContext
    from repro.recovery.checkpoint import FragmentCheckpoint
    from repro.replication.batch import QtBatch
    from repro.storage.values import Version

    codec = WireCodec()
    for cls in (
        Read,
        Write,
        QuasiTransaction,
        SeqPayload,
        RPacket,
        SpanContext,
        FragmentCheckpoint,
        QtBatch,
        Version,
    ):
        codec.register(cls)
    return codec
