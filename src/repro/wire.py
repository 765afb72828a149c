"""The socket byte format: a closed, versioned, struct-packed schema.

Everything a socket fabric carries between two processes is one of a
closed set of types, and this module is the only place that turns them
into bytes and back.  Decoding builds nothing but those types, through
their constructors, so bytes from a socket can never name a class or
run code; anything that is not a frame of this format raises
:class:`~repro.errors.FrameError` with a short reason, and nothing else.

Frames
------
::

    frame := length:u32 body                 (big-endian, length <= MAX_FRAME)
    body  := [HELLO] [RESET] value
    HELLO := 0x30 version:u8 pid:u32-len utf-8   first frame of a connection
    RESET := 0x31                                empties the view table

A connection is one :class:`FrameEncoder` at the sending end and one
:class:`FrameDecoder` at the receiving end, and the two keep the same
tables.  The sender's process id and :data:`VERSION` travel once, in the
connection's first frame.  A :class:`~repro.types.View` object is
defined inline (``VIEW_DEF``) the first time the connection carries it
and takes the next table id; after that it travels as that id (``VIEW``,
three bytes).  The table is keyed by object, not by value: an end-point
sends the same view object for a whole view (every ``AppMsg`` of it
carries it as its history tag), an equal view in another object merely
costs one more definition, and no lookup ever hashes a view.  So in a
steady view an :class:`~repro.core.messages.AppMsg`
with an integer payload is a fixed 18-byte frame - tag, payload, view
id, history index - and the ghost history tags of Section 6.1.1 still
decode field-exact.

The table bound is a rule, not a setting: a frame that starts with
:data:`INTERN_CAP` or more views in the table starts with ``RESET``,
and a decoder refuses a frame that should have.  A frame the encoder
fails to produce (an unencodable value, or the size limit) leaves both
tables as they were, so the connection stays usable.  An encoder
constructed per frame produces self-contained frames (hello and
definitions inline), which a fresh decoder reads on its own.

Values
------
Every field, and every bare payload, is a tagged value::

    0x00 None   0x01 False  0x02 True
    0x03 int    i32            0x04 int   i64
    0x05 int    u32-len two's-complement bytes
    0x06 float  f64            0x07 str   u32-len utf-8
    0x08 bytes  u32-len        0x09 tuple u32-count values
    0x0a frozenset  u32-count values, sorted
    0x0b frozendict u32-count key value ..., in its own order
    0x0c ViewId counter:i64 origin:u32-len utf-8
    0x0d View   (VIEW_DEF) counter:i64 origin-length:u32 layout:u8
                count:u32 names-length:u32, the origin, the member names
                NUL-joined in utf-8, then either (layout 1: start ids
                keyed by exactly the members, names in the start-id map's
                order) one i64 start id per member, or (layout 0: names
                sorted) the start ids as a frozendict value
    0x0e View   (VIEW) table id:u16

Tuples, frozensets and frozendicts nest at most :data:`MAX_DEPTH`
deep; like the table bound this is a rule of the format, so the answer
never depends on how deep the caller's stack already is.  The encoder
refuses a value past it and a decoder refuses a frame that holds one
(``FrameError("depth")``).

Wire records are a tag and their fields as values, in constructor order
(:data:`_RECORDS` is the schema).  A value of any other type is a
``TypeError`` naming it; a value of a listed type that cannot be
represented (a lone surrogate, a counter past 64 bits, nesting past
:data:`MAX_DEPTH`) is a ``ValueError``.  An application payload meets
the same errors earlier, from :func:`check_payload`, which runs the same
value encoders when the application sends on the socket fabric: before
the sender delivers the message to itself and gives it an index, so no
indexed message of a payload outside the set can leave a gap on a live
link.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro._collections import frozendict
from repro.chaos.faults import DuplicateCopy
from repro.core.messages import AckMsg, AppMsg, FwdMsg, SyncMsg, ViewMsg
from repro.errors import FrameError
from repro.links.batch import MessageBatch
from repro.membership.protocol import (
    GroupEnvelope,
    ServerProposal,
    StartChangeNotice,
    ViewNotice,
)
from repro.scale.overlay import AggregatedSync, UpSync
from repro.types import ProcessId, View, ViewId

#: The format version a connection's hello carries; a decoder refuses others.
VERSION = 1
#: The length prefix of every frame.
HEADER = struct.Struct(">I")
#: The largest frame body either end accepts, in bytes.
MAX_FRAME = 64 * 1024 * 1024
#: Views a connection's table holds before its next frame resets it.
INTERN_CAP = 64
#: How deep tuple, frozenset and frozendict values may nest in a frame.
MAX_DEPTH = 64

# Value tags.
T_NONE, T_FALSE, T_TRUE = 0x00, 0x01, 0x02
T_I32, T_I64, T_BIGINT, T_FLOAT = 0x03, 0x04, 0x05, 0x06
T_STR, T_BYTES, T_TUPLE, T_FROZENSET, T_FROZENDICT = 0x07, 0x08, 0x09, 0x0A, 0x0B
T_VIEWID, T_VIEW_DEF, T_VIEW = 0x0C, 0x0D, 0x0E
# Record tags.
T_APP, T_VIEWMSG, T_FWD, T_SYNC, T_SYNC_COMPACT, T_ACK = 0x20, 0x21, 0x22, 0x23, 0x24, 0x25
T_BATCH, T_DUPLICATE, T_GROUP = 0x26, 0x27, 0x28
T_START_CHANGE, T_VIEW_NOTICE, T_PROPOSAL = 0x29, 0x2A, 0x2B
T_UPSYNC, T_AGGREGATED = 0x2C, 0x2D
# Control tags, at the start of a body only.
T_HELLO, T_RESET = 0x30, 0x31

_TAG_I32 = struct.Struct(">Bi")
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_TAG_LEN = struct.Struct(">BI")
_TAG_REF = struct.Struct(">BH")
_HELLO = struct.Struct(">BBI")
_TAG_VID = struct.Struct(">BqI")
# T_VIEW_DEF, ViewId counter, origin length, start-id layout, member
# count, names length.
_VIEW_DEF = struct.Struct(">BqIBII")

_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_MAX_VIEW_ID = 0xFFFF
_PREFIX = bytes(HEADER.size)
_NONE = type(None)

#: The wire records: tag, class, and the fields in constructor order,
#: each with the types a decoded value must have.  ``SyncMsg`` also has
#: a compact form (``T_SYNC_COMPACT``: the cid alone), and
#: ``MessageBatch`` is a counted run of values (``T_BATCH``).
_RECORDS: Tuple[Tuple[int, type, Tuple[Tuple[str, Any], ...]], ...] = (
    (T_APP, AppMsg, (
        ("payload", object), ("history_view", (View, _NONE)), ("history_index", (int, _NONE)),
    )),
    (T_VIEWMSG, ViewMsg, (("view", View),)),
    (T_FWD, FwdMsg, (("origin", str), ("view", View), ("index", int), ("payload", object))),
    (T_SYNC, SyncMsg, (("cid", int), ("view", (View, _NONE)), ("cut", (frozendict, _NONE)))),
    (T_ACK, AckMsg, (("view_id", ViewId), ("delivered", frozendict))),
    (T_DUPLICATE, DuplicateCopy, (("message", object),)),
    (T_GROUP, GroupEnvelope, (("group", str), ("message", object))),
    (T_START_CHANGE, StartChangeNotice, (("client", str), ("cid", int), ("members", frozenset))),
    (T_VIEW_NOTICE, ViewNotice, (("client", str), ("view", View))),
    (T_PROPOSAL, ServerProposal, (
        ("server", str), ("attempt", int), ("config", frozenset), ("local_clients", frozenset),
        ("cids", frozendict), ("estimate", frozenset), ("max_counter", int),
    )),
    (T_UPSYNC, UpSync, (("origin", str), ("sync", SyncMsg))),
    (T_AGGREGATED, AggregatedSync, (("batch", MessageBatch), ("final", bool))),
)


def body_length(header: bytes) -> int:
    """The body length a frame's header announces (refusing oversized)."""
    try:
        (length,) = HEADER.unpack(header)
    except struct.error:
        raise FrameError("truncated", "short frame header") from None
    if length > MAX_FRAME:
        raise FrameError("oversized", f"frame of {length} bytes exceeds the limit")
    return length


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------


class FrameEncoder:
    """The sending half of one connection: its tables and its frames."""

    __slots__ = ("pid", "views", "depth", "_hello")

    #: Encoders by exact type that this encoder's containers recurse
    #: through: every value and record (set below, once they exist).
    put: ClassVar[Dict[type, Callable[["FrameEncoder", Any, bytearray], None]]]

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        #: id(view) -> (table id, view), in table-id order.  Keyed by
        #: object: holding the view keeps its id unique, and a lookup
        #: never hashes a view.
        self.views: Dict[int, Tuple[int, View]] = {}
        #: Containers open around the value being encoded.
        self.depth = 0
        self._hello = False

    def frame(self, message: Any) -> bytes:
        """``message`` as one length-prefixed frame of this connection.

        Raises ``TypeError`` / ``ValueError`` for a message outside the
        schema and :class:`FrameError` (``oversized``) past
        :data:`MAX_FRAME`; either way the tables are left as they were.
        """
        views = self.views
        mark = len(views)
        out = bytearray(_PREFIX)
        if not self._hello:
            data = self.pid.encode()
            out += _HELLO.pack(T_HELLO, VERSION, len(data))
            out += data
        if mark >= INTERN_CAP:
            out.append(T_RESET)
            self.views = {}
        try:
            self._encode(message, out)
        except BaseException:
            self._rollback(views, mark)
            raise
        length = len(out) - HEADER.size
        if length > MAX_FRAME:
            self._rollback(views, mark)
            raise FrameError("oversized", f"frame of {length} bytes exceeds the limit")
        HEADER.pack_into(out, 0, length)
        self._hello = True
        return bytes(out)

    def _encode(self, value: Any, out: bytearray) -> None:
        """Append ``value`` to ``out`` through this encoder's :attr:`put`."""
        try:
            self.put[type(value)](self, value, out)
        except (RecursionError, struct.error) as exc:
            raise ValueError(f"cannot frame {type(value).__name__}: {exc}") from None

    def _rollback(self, views: Dict[int, Tuple[int, View]], mark: int) -> None:
        """Forget what a frame that never reached the wire defined."""
        self.depth = 0
        if self.views is not views:
            self.views = views  # its reset never reached the wire either
            return
        for key in list(views)[mark:]:
            del views[key]


class _Encoders(dict):
    """Encoders by exact type; a type outside the schema is a TypeError."""

    def __missing__(self, cls: type) -> None:
        raise TypeError(f"{cls.__name__} is not a wire type")


def _put_none(enc: FrameEncoder, value: None, out: bytearray) -> None:
    out.append(T_NONE)


def _put_bool(enc: FrameEncoder, value: bool, out: bytearray) -> None:
    out.append(T_TRUE if value else T_FALSE)


def _put_int(enc: FrameEncoder, value: int, out: bytearray) -> None:
    if _I32_MIN <= value <= _I32_MAX:
        out += _TAG_I32.pack(T_I32, value)
    elif _I64_MIN <= value <= _I64_MAX:
        out += _TAG_I64.pack(T_I64, value)
    else:
        data = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
        out += _TAG_LEN.pack(T_BIGINT, len(data))
        out += data


def _put_float(enc: FrameEncoder, value: float, out: bytearray) -> None:
    out += _TAG_F64.pack(T_FLOAT, value)


def _put_str(enc: FrameEncoder, value: str, out: bytearray) -> None:
    data = value.encode()
    out += _TAG_LEN.pack(T_STR, len(data))
    out += data


def _put_bytes(enc: FrameEncoder, value: bytes, out: bytearray) -> None:
    out += _TAG_LEN.pack(T_BYTES, len(value))
    out += value


def _put_items(enc: FrameEncoder, tag: int, items: Any, out: bytearray) -> None:
    out += _TAG_LEN.pack(tag, len(items))
    put = enc.put
    for item in items:
        put[type(item)](enc, item, out)


def _deeper(enc: FrameEncoder) -> None:
    """Open one more container level, refusing one past :data:`MAX_DEPTH`."""
    if enc.depth >= MAX_DEPTH:
        raise ValueError(f"values nested more than {MAX_DEPTH} deep")
    enc.depth += 1


def _put_tuple(enc: FrameEncoder, value: tuple, out: bytearray) -> None:
    _deeper(enc)
    _put_items(enc, T_TUPLE, value, out)
    enc.depth -= 1


def _put_frozenset(enc: FrameEncoder, value: frozenset, out: bytearray) -> None:
    # Sorted: a set's own order follows the interpreter's hash seed.
    try:
        items = sorted(value)
    except TypeError:
        raise TypeError("frozenset elements must sort against each other") from None
    _deeper(enc)
    _put_items(enc, T_FROZENSET, items, out)
    enc.depth -= 1


def _put_frozendict(enc: FrameEncoder, value: frozendict, out: bytearray) -> None:
    _deeper(enc)
    out += _TAG_LEN.pack(T_FROZENDICT, len(value))
    put = enc.put
    for key, item in value.items():
        put[type(key)](enc, key, out)
        put[type(item)](enc, item, out)
    enc.depth -= 1


def _put_viewid(enc: FrameEncoder, value: ViewId, out: bytearray) -> None:
    origin = value.origin.encode()
    out += _TAG_VID.pack(T_VIEWID, value.counter, len(origin))
    out += origin


def _put_view(enc: FrameEncoder, view: View, out: bytearray) -> None:
    views = enc.views
    entry = views.get(id(view))
    if entry is not None:
        out += _TAG_REF.pack(T_VIEW, entry[0])
        return
    ident = len(views)
    if ident > _MAX_VIEW_ID:
        raise ValueError("more distinct views than one frame can define")
    views[id(view)] = (ident, view)
    start_ids = view.start_ids
    # Layout 1: the start-id map names exactly the members, so its keys
    # (in its own order) and values say everything.
    aligned = start_ids.keys() == view.members
    members = start_ids.keys() if aligned else sorted(view.members)
    try:
        text = "\0".join(members)
    except TypeError:
        raise TypeError("view members must be str process ids") from None
    count = len(members)
    if text.count("\0") != max(count - 1, 0):
        raise ValueError("a process id on the wire may not contain NUL")
    names = text.encode()
    if aligned:
        try:
            cids = struct.pack(f">{count}q", *start_ids.values())
        except struct.error:
            aligned = False  # a start id that is no 64-bit integer
    vid = view.vid
    origin = vid.origin.encode()
    out += _VIEW_DEF.pack(T_VIEW_DEF, vid.counter, len(origin), aligned, count, len(names))
    out += origin
    out += names
    if aligned:
        out += cids
    else:
        _put_frozendict(enc, start_ids, out)


def _put_batch(enc: FrameEncoder, value: MessageBatch, out: bytearray) -> None:
    _put_items(enc, T_BATCH, value.copies, out)


def _record_put(tag: int, names: Tuple[str, ...]) -> Callable[[FrameEncoder, Any, bytearray], None]:
    get = attrgetter(*names)
    fields = get if len(names) > 1 else (lambda value: (get(value),))

    def put(enc: FrameEncoder, value: Any, out: bytearray) -> None:
        out.append(tag)
        for field in fields(value):
            _PUT[type(field)](enc, field, out)

    return put


#: The value encoders: everything an application payload may be.
_VALUES: Dict[type, Callable[[FrameEncoder, Any, bytearray], None]] = _Encoders({
    _NONE: _put_none,
    bool: _put_bool,
    int: _put_int,
    float: _put_float,
    str: _put_str,
    bytes: _put_bytes,
    tuple: _put_tuple,
    frozenset: _put_frozenset,
    frozendict: _put_frozendict,
    ViewId: _put_viewid,
    View: _put_view,
})
#: Every encoder: the values, the batch and the records.
_PUT: Dict[type, Callable[[FrameEncoder, Any, bytearray], None]] = _Encoders(_VALUES)
_PUT[MessageBatch] = _put_batch
_PUT.update(
    (cls, _record_put(tag, tuple(name for name, _types in fields)))
    for tag, cls, fields in _RECORDS
)
_put_full_sync = _PUT[SyncMsg]


def _put_sync(enc: FrameEncoder, value: SyncMsg, out: bytearray) -> None:
    if value.view is None and value.cut is None:
        out.append(T_SYNC_COMPACT)
        _PUT[type(value.cid)](enc, value.cid, out)
    else:
        _put_full_sync(enc, value, out)


_PUT[SyncMsg] = _put_sync


FrameEncoder.put = _PUT


class _PayloadEncoder(FrameEncoder):
    """A scratch encoder whose containers hold values only: a record or a
    batch is a message of the fabric, not part of a payload."""

    __slots__ = ()
    put = _VALUES


def check_payload(value: Any) -> None:
    """Refuse an application payload the format cannot carry.

    The value encoders run into a scratch buffer, so the answer is the
    encoder's own: ``TypeError`` names a type outside the value set (or
    says a frozenset's elements do not sort), and ``ValueError`` is a
    value the format cannot represent - a ``str`` that is not valid
    text, a counter past 64 bits, nesting past :data:`MAX_DEPTH`.  A
    payload that passes fails to frame only past :data:`MAX_FRAME`.
    """
    _PayloadEncoder("")._encode(value, bytearray())


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------


class FrameDecoder:
    """The receiving half of one connection: its tables and its reads."""

    __slots__ = ("pid", "views", "depth")

    def __init__(self) -> None:
        #: The peer's process id, once its hello has arrived.
        self.pid: Optional[ProcessId] = None
        #: Table id -> View.
        self.views: List[View] = []
        #: Containers open around the value being decoded.
        self.depth = 0

    def decode(self, body: bytes) -> Tuple[ProcessId, Any]:
        """``(sender pid, message)`` of one frame body; :class:`FrameError`
        for anything that is not one."""
        try:
            pos = 0
            self.depth = 0
            if body[0] == T_HELLO:
                pos = self._hello(body)
            if body[pos] == T_RESET:
                self.views = []
                pos += 1
            if len(self.views) >= INTERN_CAP:
                raise FrameError("intern", "a full view table was not reset")
            if self.pid is None:
                raise FrameError("hello", "the connection's first frame has no hello")
            value, pos = _GET[body[pos]](self, body, pos)
        except FrameError:
            raise
        except (IndexError, struct.error) as exc:
            raise FrameError("truncated", str(exc)) from None
        except UnicodeDecodeError as exc:
            raise FrameError("utf8", str(exc)) from None
        except RecursionError:
            raise FrameError("depth", "values nested too deeply") from None
        except (TypeError, ValueError) as exc:
            raise FrameError("value", str(exc)) from None
        if pos != len(body):
            raise FrameError("trailing", f"{len(body) - pos} bytes after the message")
        return self.pid, value

    def _hello(self, body: bytes) -> int:
        if self.pid is not None:
            raise FrameError("hello", "a second hello on one connection")
        _tag, version, length = _HELLO.unpack_from(body, 0)
        if version != VERSION:
            raise FrameError("version", f"format version {version}, expected {VERSION}")
        self.pid, pos = _text(body, _HELLO.size, length)
        return pos


def _text(body: bytes, start: int, length: int) -> Tuple[str, int]:
    end = start + length
    if end > len(body):
        raise FrameError("truncated", "text runs past the frame")
    return body[start:end].decode(), end


def _get_unknown(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    raise FrameError("tag", f"unknown tag 0x{body[pos]:02x}")


def _get_items(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[List[Any], int]:
    _tag, count = _TAG_LEN.unpack_from(body, pos)
    pos += _TAG_LEN.size
    items = []
    for _ in range(count):
        item, pos = _GET[body[pos]](dec, body, pos)
        items.append(item)
    return items, pos


def _get_none(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    return None, pos + 1


def _get_false(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    return False, pos + 1


def _get_true(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    return True, pos + 1


def _get_i32(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    return _TAG_I32.unpack_from(body, pos)[1], pos + _TAG_I32.size


def _get_i64(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    return _TAG_I64.unpack_from(body, pos)[1], pos + _TAG_I64.size


def _counted(body: bytes, pos: int) -> Tuple[bytes, int]:
    """The length-prefixed bytes of the value tagged at ``pos``."""
    _tag, length = _TAG_LEN.unpack_from(body, pos)
    start = pos + _TAG_LEN.size
    end = start + length
    if end > len(body):
        raise FrameError("truncated", "a value runs past the frame")
    return body[start:end], end


def _get_bigint(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    data, pos = _counted(body, pos)
    return int.from_bytes(data, "big", signed=True), pos


def _get_float(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    return _TAG_F64.unpack_from(body, pos)[1], pos + _TAG_F64.size


def _get_str(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    data, pos = _counted(body, pos)
    return data.decode(), pos


def _get_bytes(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    return _counted(body, pos)


def _inside(dec: FrameDecoder) -> None:
    """Open one more container level, refusing one past :data:`MAX_DEPTH`."""
    if dec.depth >= MAX_DEPTH:
        raise FrameError("depth", f"values nested more than {MAX_DEPTH} deep")
    dec.depth += 1


def _get_tuple(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    _inside(dec)
    items, pos = _get_items(dec, body, pos)
    dec.depth -= 1
    return tuple(items), pos


def _get_frozenset(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    _inside(dec)
    items, pos = _get_items(dec, body, pos)
    dec.depth -= 1
    return frozenset(items), pos


def _get_frozendict(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    _inside(dec)
    _tag, count = _TAG_LEN.unpack_from(body, pos)
    pos += _TAG_LEN.size
    data = {}
    for _ in range(count):
        key, pos = _GET[body[pos]](dec, body, pos)
        data[key], pos = _GET[body[pos]](dec, body, pos)
    dec.depth -= 1
    return frozendict(data), pos


def _get_viewid(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    _tag, counter, length = _TAG_VID.unpack_from(body, pos)
    origin, pos = _text(body, pos + _TAG_VID.size, length)
    return ViewId(counter, origin), pos


def _get_view_def(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    if len(dec.views) > _MAX_VIEW_ID:
        raise FrameError("intern", "more distinct views than one frame can define")
    _tag, counter, origin_length, aligned, count, names_length = _VIEW_DEF.unpack_from(body, pos)
    if aligned > 1:
        raise FrameError("value", f"start-id layout {aligned}")
    origin, pos = _text(body, pos + _VIEW_DEF.size, origin_length)
    text, pos = _text(body, pos, names_length)
    members = text.split("\0") if count else []
    if len(members) != count:
        raise FrameError("value", f"{len(members)} member names for {count} members")
    if aligned:
        if pos + 8 * count > len(body):
            raise FrameError("truncated", "start ids run past the frame")
        start_ids = frozendict(zip(members, struct.unpack_from(f">{count}q", body, pos)))
        pos += 8 * count
    else:
        start_ids, pos = _GET[body[pos]](dec, body, pos)
        if type(start_ids) is not frozendict:
            raise FrameError("value", "a view's start ids must be a frozendict")
    view = View(ViewId(counter, origin), frozenset(members), start_ids)
    dec.views.append(view)
    return view, pos


def _get_view(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    _tag, ident = _TAG_REF.unpack_from(body, pos)
    if ident >= len(dec.views):
        raise FrameError("intern", f"view id {ident} was never defined")
    return dec.views[ident], pos + _TAG_REF.size


def _get_batch(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    items, pos = _get_items(dec, body, pos)
    return MessageBatch(tuple(items)), pos


def _get_sync_compact(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
    cid, pos = _GET[body[pos + 1]](dec, body, pos + 1)
    if type(cid) is not int:
        raise FrameError("value", "SyncMsg.cid must be an int")
    return SyncMsg(cid, None, None), pos


def _record_get(cls: type, fields: Tuple[Tuple[str, Any], ...]) -> Callable[..., Tuple[Any, int]]:
    kinds = tuple(types for _name, types in fields)

    def get(dec: FrameDecoder, body: bytes, pos: int) -> Tuple[Any, int]:
        pos += 1
        values = []
        for types in kinds:
            value, pos = _GET[body[pos]](dec, body, pos)
            if not isinstance(value, types):
                name = fields[len(values)][0]
                raise FrameError(
                    "value", f"{cls.__name__}.{name} cannot be a {type(value).__name__}"
                )
            values.append(value)
        return cls(*values), pos

    return get


# Decoders by tag: every value starts with its tag, and each decoder
# returns the value and the position after it.
_GET: List[Callable[[FrameDecoder, bytes, int], Tuple[Any, int]]] = [_get_unknown] * 256
for _tag, _get_one in (
    (T_NONE, _get_none),
    (T_FALSE, _get_false),
    (T_TRUE, _get_true),
    (T_I32, _get_i32),
    (T_I64, _get_i64),
    (T_BIGINT, _get_bigint),
    (T_FLOAT, _get_float),
    (T_STR, _get_str),
    (T_BYTES, _get_bytes),
    (T_TUPLE, _get_tuple),
    (T_FROZENSET, _get_frozenset),
    (T_FROZENDICT, _get_frozendict),
    (T_VIEWID, _get_viewid),
    (T_VIEW_DEF, _get_view_def),
    (T_VIEW, _get_view),
    (T_BATCH, _get_batch),
    (T_SYNC_COMPACT, _get_sync_compact),
):
    _GET[_tag] = _get_one
for _tag, _cls, _fields in _RECORDS:
    _GET[_tag] = _record_get(_cls, _fields)
del _tag, _get_one, _cls, _fields


__all__ = [
    "FrameDecoder",
    "FrameEncoder",
    "HEADER",
    "INTERN_CAP",
    "MAX_DEPTH",
    "MAX_FRAME",
    "VERSION",
    "body_length",
    "check_payload",
]
