"""Wire protocol between the coarse simulator and sub-simulator wrappers.

Framing (normative): newline-delimited ASCII records, one per line:

    KIND step=<int> <key>=<value> <key>=<value>...

Kinds: INIT, ENTITY, READY, STATUS, CONTINUE, END, RESULT, BYE.
`step` always comes first; the remaining keys are sorted bytewise.
Values are percent-encoded with letters, digits and ``-_.,`` left
literal, so numbers, ids and comma-joined lists stay readable while
spaces, ``=`` and control bytes never appear raw. Floats are written
with repr so they round-trip exactly. The encoding is bit-exact:
golden transcripts under hybridsim/golden pin every byte.

Session shape: the coarse side opens with INIT (full configuration)
followed by one ENTITY per transferred entity; the wrapper answers
READY. Then once per coarse step the wrapper sends STATUS and the
coarse side replies CONTINUE or END. After END the wrapper sends
RESULT, one ENTITY per returned entity, then BYE, and closes.

A received line may hold at most MAX_LINE_BYTES bytes, newline included;
a longer one ends the session with a ProtocolError instead of growing
the reader without bound.
"""

from __future__ import annotations

import functools
import re
import socket
from urllib.parse import quote, unquote

from . import metrics

# far above the longest legitimate record: an ENTITY carrying a full
# 128-id duplicate cache is about 1 KB
MAX_LINE_BYTES = 64 * 1024

RECORD_KINDS = ("INIT", "ENTITY", "READY", "STATUS", "CONTINUE", "END",
                "RESULT", "BYE")

_VALUE_SAFE = "-_.,"
_PLAIN = re.compile(r"[A-Za-z0-9_.,-]*\Z")  # text quote leaves as it is
_KEY_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


class ProtocolError(Exception):
    pass


def format_value(v) -> str:
    """Canonical text for a field value; floats use repr exactly."""
    if v is None:
        return "none"
    if isinstance(v, bool):
        raise ProtocolError("boolean fields are not part of the protocol")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(format_value(x) for x in v)
    if isinstance(v, str):
        return v
    raise ProtocolError(f"unsupported value type {type(v).__name__}")


@functools.lru_cache(maxsize=256)
def _check_key(key: str) -> None:
    """ProtocolError unless key is a legal field key; a key that passes
    is not matched again."""
    if not _KEY_RE.match(key):
        raise ProtocolError(f"illegal field key {key!r}")


def encode_record(kind: str, step: int, /, **fields) -> bytes:
    if kind not in RECORD_KINDS:
        raise ProtocolError(f"unknown record kind {kind!r}")
    parts = [kind, f"step={int(step)}"]
    for key in sorted(fields):
        _check_key(key)
        value = format_value(fields[key])
        if not _PLAIN.match(value):
            try:  # quoting leaves only ASCII; UTF-8 has no lone surrogate
                value = quote(value, safe=_VALUE_SAFE)
            except UnicodeEncodeError as exc:
                raise ProtocolError(f"field {key!r}: {exc}") from exc
        parts.append(f"{key}={value}")
    return " ".join(parts).encode("ascii") + b"\n"


def decode_record(line) -> tuple:
    """Parse one record line -> (kind, step, fields dict of strings)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"non-ASCII record: {exc}") from exc
    line = line.rstrip("\n")
    if not line:
        raise ProtocolError("empty record line")
    parts = line.split(" ")
    kind = parts[0]
    if kind not in RECORD_KINDS:
        raise ProtocolError(f"unknown record kind {kind!r}")
    if len(parts) < 2 or not parts[1].startswith("step="):
        raise ProtocolError(f"{kind} record missing leading step field")
    try:
        step = int(parts[1][len("step="):])
    except ValueError as exc:
        raise ProtocolError(f"bad step value in {kind} record") from exc
    fields = {}
    for item in parts[2:]:
        key, sep, value = item.partition("=")
        if not sep or not _KEY_RE.match(key):
            raise ProtocolError(f"malformed field {item!r} in {kind} record")
        if key in fields:
            raise ProtocolError(f"duplicate field {key!r} in {kind} record")
        fields[key] = unquote(value)
    return kind, step, fields


_NOT_A = {int: "an integer", float: "a number"}


def field(fields: dict, key: str, kind):
    """fields[key] read as kind (int, float or str); a missing or
    unreadable value is a ProtocolError naming the key."""
    try:
        return kind(fields[key])
    except KeyError as exc:
        raise ProtocolError(f"missing field {key!r}") from exc
    except ValueError as exc:
        raise ProtocolError(f"field {key!r} is not {_NOT_A[kind]}") from exc


def read_fields(cls, kind: str, fields: dict):
    """cls, a metrics.TypedSettings, built from a kind record's fields,
    each read as its declared type; a value cls refuses is a
    ProtocolError naming the field."""
    values = {name: field(fields, name, accepts.kind)
              for name, accepts in metrics.settings_fields(cls).items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ProtocolError(f"{kind} {exc}") from None


def entity_fields(rec) -> dict:
    """ENTITY record payload for one serialized entity, both directions."""
    return {
        "id": rec.entity_id,
        "kind": rec.kind,
        "x": rec.x,
        "y": rec.y,
        "target": rec.target,
        "speed": rec.speed,
        "cache": rec.cache_ids if rec.cache_ids else "-",
        "cursor": rec.cursor,
    }


def entity_from_fields(fields: dict):
    from .territory import EntityRecord
    kind = field(fields, "kind", str)
    if kind not in ("mobile", "static"):
        raise ProtocolError(f"bad entity kind {kind!r}")
    target_s = field(fields, "target", str)
    if target_s == "none":
        target = None
    else:
        try:
            tx, ty = target_s.split(",")
            target = (float(tx), float(ty))
        except ValueError as exc:
            raise ProtocolError(f"bad target {target_s!r}") from exc
    cache_s = field(fields, "cache", str)
    try:
        cache = () if cache_s == "-" else tuple(int(c) for c in cache_s.split(","))
    except ValueError as exc:
        raise ProtocolError(f"bad cache list {cache_s!r}") from exc
    cursor = field(fields, "cursor", int)
    if cursor < 0:
        raise ProtocolError("negative stream cursor")
    return EntityRecord(field(fields, "id", int), kind,
                        field(fields, "x", float), field(fields, "y", float),
                        target, field(fields, "speed", float), cache, cursor)


class LineChannel:
    """Record-at-a-time I/O over a byte stream pair, with transcript.

    The transcript is recorded from this endpoint's perspective:
    "> " for lines sent, "< " for lines received, in wire order.
    A channel over a socket (over_socket) owns it: close closes the
    socket with its two files.
    """

    def __init__(self, rfile, wfile, transcript=None, sock=None):
        self._rfile = rfile
        self._wfile = wfile
        self.transcript = transcript
        self.sock = sock

    @classmethod
    def over_socket(cls, sock: socket.socket, transcript=None):
        return cls(sock.makefile("rb"), sock.makefile("wb"), transcript,
                   sock)

    def send(self, kind: str, step: int, /, **fields) -> None:
        raw = encode_record(kind, step, **fields)
        try:
            self._wfile.write(raw)
            self._wfile.flush()
        except (OSError, ValueError) as exc:
            raise ProtocolError(f"send failed: {exc}") from exc
        if self.transcript is not None:
            self.transcript.append("> " + raw.decode("ascii").rstrip("\n"))

    def recv(self, expect=None) -> tuple:
        """Read one record; expect may name the allowed kind(s)."""
        try:
            raw = self._rfile.readline(MAX_LINE_BYTES)
        except socket.timeout as exc:
            raise ProtocolError("timed out waiting for record") from exc
        except (OSError, ValueError) as exc:
            raise ProtocolError(f"recv failed: {exc}") from exc
        if not raw:
            raise ProtocolError("connection closed mid-session")
        if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
            raise ProtocolError(
                f"no newline within the {MAX_LINE_BYTES}-byte line limit")
        kind, step, fields = decode_record(raw)
        if self.transcript is not None:
            self.transcript.append("< " + raw.decode("ascii").rstrip("\n"))
        if expect is not None:
            allowed = (expect,) if isinstance(expect, str) else tuple(expect)
            if kind not in allowed:
                raise ProtocolError(
                    f"expected {' or '.join(allowed)}, got {kind}"
                )
        return kind, step, fields

    def close(self) -> None:
        for f in (self._wfile, self._rfile, self.sock):
            try:
                if f is not None:
                    f.close()
            except OSError:
                pass
