"""Small immutable / specialised collections used across the package.

Two data structures recur throughout the paper's pseudo-code:

* an immutable mapping (views carry a ``startId`` function; views must be
  hashable and compare by value), provided here as :class:`frozendict`;
* the per-sender, per-view message buffer ``msgs[q][v]`` which the paper
  indexes from 1 and which may contain *holes* when forwarded messages
  arrive out of order, provided here as :class:`MessageLog`.
"""

from __future__ import annotations

from typing import Any, ItemsView, Iterator, KeysView, Mapping, Optional, TypeVar, ValuesView

K = TypeVar("K")
V = TypeVar("V")


class frozendict(Mapping[K, V]):
    """A hashable, immutable mapping.

    Equality and hashing are by value, so two views built independently
    with the same ``startId`` bindings compare equal - exactly the paper's
    "two views are the same iff they consist of identical triples".
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._data: dict[K, V] = dict(*args, **kwargs)
        self._hash: Optional[int] = None

    def __getitem__(self, key: K) -> V:
        return self._data[key]

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    # Reads delegate to the dict: the inherited ``Mapping`` mix-ins are
    # pure Python, and cuts and ``startId`` maps are read on every
    # reconfiguration step.

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def get(self, key: K, default: Any = None) -> Any:
        return self._data.get(key, default)

    def keys(self) -> KeysView[K]:
        return self._data.keys()

    def values(self) -> ValuesView[V]:
        return self._data.values()

    def items(self) -> ItemsView[K, V]:
        return self._data.items()

    def __eq__(self, other: object) -> bool:
        # A plain dict first: a sync fold compares each cut with its dict
        # accumulator, and isinstance against these ABCs is the slow path.
        if type(other) is dict:
            return self._data == other
        if isinstance(other, frozendict):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._data.items()))
        return self._hash

    def __reduce__(self):
        # Tuple-based pickling: much cheaper than the generic slotted-class
        # protocol, and views (which embed frozendicts) are pickled on the
        # strict-mode hot path.  The cached hash is recomputed on demand.
        return (frozendict, (self._data,))

    def __repr__(self) -> str:
        items = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self._data.items(), key=repr))
        return f"frozendict({{{items}}})"

    def set(self, key: K, value: V) -> "frozendict[K, V]":
        """Return a copy with ``key`` bound to ``value``."""
        data = dict(self._data)
        data[key] = value
        return frozendict(data)

    def discard(self, key: K) -> "frozendict[K, V]":
        """Return a copy without ``key`` (no error if absent)."""
        data = dict(self._data)
        data.pop(key, None)
        return frozendict(data)


class MessageLog:
    """The paper's ``msgs[q][v]`` buffer: a 1-indexed sequence with holes.

    Original messages are appended in FIFO order; forwarded messages may be
    stored at an arbitrary index (possibly creating holes that are filled
    later).  The key derived quantity is :meth:`longest_prefix` - the paper's
    ``LongestPrefixOf(msgs[q][v])`` - the largest ``i`` such that indices
    ``1..i`` all hold messages.
    """

    __slots__ = ("_items", "_prefix", "_base")

    def __init__(self) -> None:
        self._items: list[Any] = []
        # Number of leading indices discarded by :meth:`truncate_through`
        # (acknowledgement-based garbage collection); logical index i lives
        # at physical slot i - _base - 1.
        self._base = 0
        # Cached length (logical) of the gap-free prefix; only advances.
        self._prefix = 0

    def __len__(self) -> int:
        """Highest logical index that has ever been written (holes included)."""
        return self._base + len(self._items)

    def __bool__(self) -> bool:
        return len(self) > 0

    def get(self, index: int) -> Any:
        """The message at 1-based ``index``; ``None`` for holes or truncated."""
        slot = index - self._base - 1
        if slot < 0 or slot >= len(self._items):
            return None
        return self._items[slot]

    def append(self, message: Any) -> int:
        """Append at the next index and return that index."""
        self._items.append(message)
        self._advance_prefix()
        return len(self)

    def put(self, index: int, message: Any) -> None:
        """Store ``message`` at 1-based ``index``, growing with holes if needed.

        Storing ``None`` is disallowed; re-storing an occupied slot keeps the
        existing message (forwarded copies are identical by Invariant 6.6),
        and writes at or below the truncation point are dropped (the message
        is already known to be delivered everywhere).
        """
        if message is None:
            raise ValueError("cannot store None in a MessageLog")
        if index < 1:
            raise IndexError(f"MessageLog indices start at 1, got {index}")
        slot = index - self._base - 1
        if slot < 0:
            return  # below the acknowledged floor: globally delivered
        while len(self._items) <= slot:
            self._items.append(None)
        if self._items[slot] is None:
            self._items[slot] = message
            self._advance_prefix()

    def longest_prefix(self) -> int:
        """The paper's ``LongestPrefixOf``: length of the gap-free prefix.

        Logical: truncated entries still count (they were present).
        """
        return self._prefix

    def last_index(self) -> int:
        """The paper's ``LastIndexOf``: the highest written logical index."""
        return len(self)

    def has(self, index: int) -> bool:
        """True when 1-based ``index`` currently holds a message."""
        slot = index - self._base - 1
        return 0 <= slot < len(self._items) and self._items[slot] is not None

    def prefix_items(self) -> list[Any]:
        """The *retained* messages of the gap-free prefix, in order."""
        return self._items[: max(0, self._prefix - self._base)]

    def truncate_through(self, index: int) -> int:
        """Discard entries at logical indices <= ``index``; return count.

        Only the known gap-free prefix may be truncated - callers GC
        messages proven delivered everywhere, which are necessarily below
        ``longest_prefix()``.
        """
        upto = min(index, self._prefix)
        drop = upto - self._base
        if drop <= 0:
            return 0
        del self._items[:drop]
        self._base = upto
        return drop

    @property
    def truncated_through(self) -> int:
        """The highest logical index discarded by garbage collection."""
        return self._base

    def retained(self) -> int:
        """Entries currently held in memory (the GC experiments' metric)."""
        return sum(1 for item in self._items if item is not None)

    def _advance_prefix(self) -> None:
        items = self._items
        i = max(self._prefix - self._base, 0)
        while i < len(items) and items[i] is not None:
            i += 1
        self._prefix = self._base + i

    def __getstate__(self):
        return (self._items, self._base, self._prefix)

    def __setstate__(self, state) -> None:
        self._items, self._base, self._prefix = state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageLog):
            return NotImplemented
        return self._base == other._base and self._items == other._items

    def __repr__(self) -> str:
        return f"MessageLog(base={self._base}, {self._items!r})"
