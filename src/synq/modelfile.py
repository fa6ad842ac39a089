"""The one container of every model file: Q-tables and Q-networks.

  binary:  4-byte magic | u32 version=1 | u32 header_len (little-endian)
           | header: compact JSON object with sorted keys | payload
  text:    line "<tag>/v1", line "meta <header JSON>", then the payload lines

Two formats use it: magic "QTAB" / tag "qtable", whose payload `tabular`
encodes, and magic "QNET" / tag "qnet", whose payload `neural` encodes.
`format_of` tells them apart by the magic.
Every reader reads the file once and raises any malformed content as
ValueError("malformed <what> <path>: ...").
"""

from __future__ import annotations

import json
import struct
from typing import Callable, Iterable, NamedTuple

_VERSION = 1
_FRAME = struct.Struct("<4sII")


class Format(NamedTuple):
    magic: bytes
    tag: str  # the text twin starts with the line "<tag>/v1"; names the format


QTAB = Format(b"QTAB", "qtable")
QNET = Format(b"QNET", "qnet")


def _header(meta: dict) -> str:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"))


def save(path, fmt: Format, meta: dict, payload: Iterable[bytes]) -> None:
    header = _header(meta).encode()
    with open(path, "wb") as fh:
        fh.write(_FRAME.pack(fmt.magic, _VERSION, len(header)) + header)
        fh.writelines(payload)


def save_text(path, fmt: Format, meta: dict, lines: Iterable[str]) -> None:
    with open(path, "w") as fh:
        fh.write(f"{fmt.tag}/v1\nmeta {_header(meta)}\n")
        fh.writelines(line + "\n" for line in lines)


def load(path, fmt: Format, decode: Callable[[dict, memoryview], object]):
    """decode(header, payload) of the binary file at path."""
    def frame(blob):
        magic, version, hlen = _FRAME.unpack_from(blob)
        if (magic, version) != (fmt.magic, _VERSION):
            raise ValueError(f"not a {fmt.tag} file of version {_VERSION}: "
                             f"magic {magic!r}, version {version}")
        return blob[12:12 + hlen], memoryview(blob)[12 + hlen:]
    return _read(path, f"{fmt.tag} file", frame, decode)


def load_text(path, fmt: Format, decode: Callable[[dict, list[str]], object]):
    """decode(header, non-empty payload lines) of the text twin at path."""
    def frame(blob):
        lines = blob.decode().splitlines()
        if lines[:1] != [f"{fmt.tag}/v1"]:
            raise ValueError(f"not a {fmt.tag} text export")
        if len(lines) < 2 or not lines[1].startswith("meta "):
            raise ValueError("missing meta line")
        return lines[1][5:], [line for line in lines[2:] if line]
    return _read(path, f"{fmt.tag} text export", frame, decode)


def _read(path, what: str, frame, decode):
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        header, payload = frame(blob)
        meta = json.loads(header)
        if not isinstance(meta, dict):
            raise ValueError("header is not a JSON object")
        return decode(meta, payload)
    except (ValueError, LookupError, TypeError, AttributeError, OverflowError,
            MemoryError, struct.error) as exc:  # MemoryError: absurd header sizes
        raise ValueError(f"malformed {what} {path}: {exc}") from None


def format_of(path) -> Format:
    """The binary format whose magic starts the file at path."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    for fmt in (QTAB, QNET):
        if magic == fmt.magic:
            return fmt
    raise ValueError(f"{path}: unknown model format")
