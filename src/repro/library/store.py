"""The on-disk `GraphLibrary` artifact and its signature→reward sidecar.

A graph library is the ahead-of-time enumeration of one operator spec's
canonical pGraph space (ROADMAP item: enumerate once, reuse across runs).
On disk it is a sequence of CRC-framed payloads (magic, length, CRC32,
payload), so a torn tail is detected and everything before it still loads:

* frame 0: JSON metadata (format version, spec key, options fingerprint,
  neighbour count, entry counts, content hash, enumeration statistics);
* frames 1..n: one canonical-JSON :class:`LibraryEntry` each, sorted by
  ``(depth, signature)``.

An entry frame's bytes are exactly ``json.dumps(payload, sort_keys=True,
separators=(",", ":")).encode("utf-8")`` of the entry's nine fields, with
its features and neighbours as lists.  :meth:`LibraryEntry.to_payload` writes
that fixed layout itself rather than through ``json.dumps``, since a build
encodes every entry and the encoder's generic dispatch cost more than the
value reprs; any value it does not write itself (a NaN or infinite float, a
type other than ``str``, ``int``, ``float``, ``bool`` or ``None``) goes
through ``json.dumps``, so the bytes are the reference encoder's for every
entry.

Build checkpoints use the same framing.

The **content hash** is a SHA-256 over the sorted entry payload bytes.  It is
the library's identity for the determinism contract: a serial build, a
shard-parallel build and a checkpoint-resumed build of the same spec and
options must produce byte-identical entry frames and therefore the same hash.
Entries carry no process-local state (dimension uids are relabelled away by
``PGraph.signature()``), which is what makes the hash machine-independent.

Loading is lazy and mmap-friendly: :meth:`GraphLibrary.load` maps the file
and scans frame offsets only; entry JSON is parsed on first access.

The **reward sidecar** (:func:`sidecar_filename`) sits next to the library.
It is a :class:`~repro.runtime.store.SharedCacheStore` whose ``reward``
entries are keyed ``(cache context, signature)`` like the reward cache, so
proxy-train rewards transfer across runs and scenarios by structural
signature instead of dying with each process's cache snapshot.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from typing import Iterator, Mapping, Sequence

log = logging.getLogger(__name__)

#: Version of the library artifact format *and* of the entry payload schema.
#: Bump whenever :class:`LibraryEntry` or the feature vector changes shape —
#: the loader ignores artifacts written under any other version.
LIBRARY_FORMAT_VERSION = 1

#: Frame magic of library artifacts and build checkpoints.
LIBRARY_MAGIC = b"RPLB"
#: magic (4s) | payload length (u32 BE) | CRC32 of the payload (u32 BE).
FRAME_HEADER = struct.Struct(">4sII")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def pack_frame(payload: bytes) -> bytes:
    """One CRC-framed payload: header(magic, length, crc32) + payload."""
    header = FRAME_HEADER.pack(LIBRARY_MAGIC, len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload


def scan_frames(buffer) -> list[tuple[int, int]]:
    """``(start, end)`` payload offsets of every intact frame in ``buffer``.

    Scanning stops at the first wrong-magic, wrong-CRC or torn frame — the
    state a SIGKILLed writer leaves behind — so everything before a corrupt
    tail remains loadable.
    """
    offsets: list[tuple[int, int]] = []
    position = 0
    size = len(buffer)
    while position + FRAME_HEADER.size <= size:
        found, length, crc = FRAME_HEADER.unpack_from(buffer, position)
        start = position + FRAME_HEADER.size
        end = start + length
        if found != LIBRARY_MAGIC or end > size:
            break
        if zlib.crc32(buffer[start:end]) & 0xFFFFFFFF != crc:
            break
        offsets.append((start, end))
        position = end
    return offsets


def read_frames(path: str) -> list[bytes]:
    """All intact frame payloads of ``path`` (empty for a missing file)."""
    try:
        with open(path, "rb") as handle:
            buffer = handle.read()
    except FileNotFoundError:
        return []
    except OSError as exc:
        log.warning("unreadable frame file %s: %s", path, exc)
        return []
    return [buffer[start:end] for start, end in scan_frames(buffer)]


def write_frames_atomic(path: str, payloads: Sequence[bytes]) -> None:
    """Write ``payloads`` as one framed file, atomically (tmp + fsync + replace).

    A write that raises (a full disk, say) removes its temp file and leaves
    any earlier file at ``path`` as it was.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "wb") as handle:
            for payload in payloads:
                handle.write(pack_frame(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise


# ---------------------------------------------------------------------------
# Keys and digests
# ---------------------------------------------------------------------------


def _binding_payload(bindings) -> list:
    payload = []
    for binding in bindings or ():
        payload.append(sorted((var.name, int(value)) for var, value in binding.items()))
    return payload


def spec_key(spec) -> str:
    """Stable identity of an operator spec (shapes + bindings), hex digest.

    Libraries match searches by this key: a library built for one spec never
    warm-starts a search over a different one.
    """
    payload = json.dumps(
        {
            "name": spec.name,
            "input": repr(spec.input_shape),
            "output": repr(spec.output_shape),
            "bindings": _binding_payload(spec.bindings),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def options_fingerprint(options) -> str:
    """Stable identity of the enumeration options, hex digest.

    Covers everything that changes which graphs exist in the space: depth,
    the size vocabularies, the occurrence limits, the budgets, the
    canonicalization rule set and the shape-distance guide.
    """
    canonicalizer = options.canonicalizer
    rules = (
        [getattr(rule, "__name__", repr(rule)) for rule in canonicalizer.rules]
        if canonicalizer is not None
        else None
    )
    payload = json.dumps(
        {
            "max_depth": options.max_depth,
            "reduce_sizes": sorted(repr(size) for size in options.reduce_sizes),
            "merge_blocks": sorted(repr(size) for size in options.merge_blocks),
            "strides": sorted(repr(size) for size in options.strides),
            "limits": [
                options.max_expands,
                options.max_strides,
                options.max_shifts,
                options.max_reductions,
                options.max_weights,
                options.max_weight_dims,
            ],
            "max_macs": options.max_macs,
            "max_params": options.max_params,
            "binding": sorted(
                (var.name, int(value))
                for var, value in (options.budget_binding or {}).items()
            ),
            "rules": rules,
            "use_shape_distance": options.use_shape_distance,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LibraryEntry:
    """One isomorphism bucket of the enumerated space.

    The signature is the bucket identity (every uid relabelling and commuting
    application order collapses to it); ``parent_signature``/``primitive``
    record the canonical edge the builder reached it through, which is how
    warm-starting walks an entry back to its depth-1 root action.  Its
    payload bytes are encoded once and kept on the (immutable) instance, since
    every checkpoint, the content hash and the artifact all write them.
    """

    signature: str
    depth: int
    complete: bool
    parent_signature: str | None
    primitive: str | None
    macs: int
    params: int
    features: tuple[float, ...]
    #: nearest complete entries in embedding space (nearest first).
    neighbours: tuple[str, ...] = ()

    def to_payload(self) -> bytes:
        """Canonical JSON bytes (the unit the content hash is computed over).

        The bytes of ``json.dumps`` over the fields with ``sort_keys=True`` and
        ``separators=(",", ":")``, written by :func:`_encode_entry` (see the
        module docstring), encoded once and kept on the instance.
        """
        payload = self.__dict__.get("_payload")
        if payload is None:
            payload = _encode_entry(self)
            object.__setattr__(self, "_payload", payload)
        return payload

    @classmethod
    def from_payload(cls, payload: bytes) -> "LibraryEntry":
        data = json.loads(payload.decode("utf-8"))
        return cls(
            signature=data["signature"],
            depth=int(data["depth"]),
            complete=bool(data["complete"]),
            parent_signature=data.get("parent_signature"),
            primitive=data.get("primitive"),
            macs=int(data["macs"]),
            params=int(data["params"]),
            features=tuple(float(x) for x in data["features"]),
            neighbours=tuple(data.get("neighbours") or ()),
        )

    def with_neighbours(self, neighbours: Sequence[str]) -> "LibraryEntry":
        return replace(self, neighbours=tuple(neighbours))


def _encode_entry(entry: LibraryEntry) -> bytes:
    """``entry``'s payload: its fields as ``json.dumps`` writes them, keys sorted."""
    return (
        f'{{"complete":{_json_value(entry.complete)}'
        f',"depth":{_json_value(entry.depth)}'
        f',"features":{_json_floats(entry.features)}'
        f',"macs":{_json_value(entry.macs)}'
        f',"neighbours":{_json_strings(entry.neighbours)}'
        f',"params":{_json_value(entry.params)}'
        f',"parent_signature":{_json_value(entry.parent_signature)}'
        f',"primitive":{_json_value(entry.primitive)}'
        f',"signature":{_json_value(entry.signature)}}}'
    ).encode("utf-8")


def _json_value(value) -> str:
    """``value`` as ``json.dumps`` writes it.

    A string, an int, a finite float, a bool or ``None`` is written here as
    the reference encoder writes it; anything else, NaN and the infinities
    included, goes through ``json.dumps``.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_list(values) -> str:
    return "[" + ",".join(map(_json_value, values)) + "]"


def _json_floats(values) -> str:
    """``list(values)`` as ``json.dumps`` writes it, for a list expected to hold floats."""
    try:
        text = ",".join(map(float.__repr__, values))
    except TypeError:  # an item that is no float
        return _json_list(values)
    if "n" in text:  # a repr of nan or inf, which JSON spells NaN and Infinity
        return _json_list(values)
    return "[" + text + "]"


def _json_strings(values) -> str:
    """``list(values)`` as ``json.dumps`` writes it, for a list expected to hold strings."""
    try:
        return "[" + ",".join(map(encode_basestring_ascii, values)) + "]"
    except TypeError:  # an item that is no string
        return _json_list(values)


def content_hash(entries: Sequence[LibraryEntry]) -> str:
    """SHA-256 over the sorted entry payloads — the library's identity."""
    digest = hashlib.sha256()
    for entry in sorted(entries, key=lambda e: (e.depth, e.signature)):
        digest.update(entry.to_payload())
        digest.update(b"\n")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------


def library_filename(name: str) -> str:
    """Basename of a library artifact (the format version is part of it)."""
    return f"{name}-v{LIBRARY_FORMAT_VERSION}.rplb"


def library_names(root: str) -> list[str]:
    """Names of the current-version artifacts under ``root``, sorted.

    Reward sidecars and checkpoints never end in the artifact suffix, so they
    are not listed; a missing root lists nothing.
    """
    suffix = library_filename("")
    try:
        filenames = sorted(os.listdir(root))
    except (FileNotFoundError, NotADirectoryError):
        return []
    return [name[: -len(suffix)] for name in filenames if name.endswith(suffix)]


def checkpoint_filename(name: str) -> str:
    return f"{name}-v{LIBRARY_FORMAT_VERSION}.ckpt"


def sidecar_filename(name: str) -> str:
    return f"rewards-{name}-v{LIBRARY_FORMAT_VERSION}.pkl"


class GraphLibrary:
    """A loaded (or freshly built) graph library: metadata + lazy entries."""

    def __init__(self, meta: dict, entries: Sequence[LibraryEntry]) -> None:
        self.meta = dict(meta)
        self._entries = list(entries)
        self._by_signature: dict[str, LibraryEntry] | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        spec_key_: str,
        options_fingerprint_: str,
        entries: Sequence[LibraryEntry],
        stats: Mapping | None = None,
        levels: int = 0,
        neighbour_count: int = 0,
    ) -> "GraphLibrary":
        ordered = sorted(entries, key=lambda e: (e.depth, e.signature))
        meta = {
            "version": LIBRARY_FORMAT_VERSION,
            "name": name,
            "spec_key": spec_key_,
            "options_fingerprint": options_fingerprint_,
            "neighbour_count": neighbour_count,
            "entries": len(ordered),
            "complete": sum(1 for e in ordered if e.complete),
            "max_depth": max((e.depth for e in ordered), default=0),
            "levels": levels,
            "content_hash": content_hash(ordered),
            "stats": dict(stats or {}),
        }
        return cls(meta, ordered)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        payloads = [json.dumps(self.meta, sort_keys=True).encode("utf-8")]
        payloads.extend(entry.to_payload() for entry in self._entries)
        write_frames_atomic(path, payloads)

    @classmethod
    def load(cls, path: str) -> "GraphLibrary | None":
        """Load an artifact lazily; ``None`` for missing/foreign/corrupt files.

        The file is memory-mapped and only frame offsets are scanned here;
        entry payloads are parsed on first access.  A version mismatch is
        reported (and ignored) rather than raised, like cache snapshots.
        """
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (FileNotFoundError, ValueError):
            return None
        except OSError as exc:
            log.warning("unreadable graph library %s: %s", path, exc)
            return None
        with mapped:
            offsets = scan_frames(mapped)
            if not offsets:
                log.warning("graph library %s holds no intact frames; ignoring", path)
                return None
            start, end = offsets[0]
            try:
                meta = json.loads(bytes(mapped[start:end]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                log.warning("graph library %s has a corrupt meta frame: %s", path, exc)
                return None
            if meta.get("version") != LIBRARY_FORMAT_VERSION:
                log.warning(
                    "ignoring graph library %s: format version %r != expected %d",
                    path, meta.get("version"), LIBRARY_FORMAT_VERSION,
                )
                return None
            # Lazy in spirit and in allocation: payload bytes are sliced out
            # of the map now (views die with the map), parsed on first use.
            payloads = [bytes(mapped[s:e]) for s, e in offsets[1:]]
        library = cls.__new__(cls)
        library.meta = meta
        library._entries = _LazyEntries(payloads)  # type: ignore[assignment]
        library._by_signature = None
        return library

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LibraryEntry]:
        return iter(self._entries)

    def entries(self) -> list[LibraryEntry]:
        return list(self._entries)

    def get(self, signature: str) -> LibraryEntry | None:
        if self._by_signature is None:
            self._by_signature = {entry.signature: entry for entry in self._entries}
        return self._by_signature.get(signature)

    def complete_entries(self) -> list[LibraryEntry]:
        return [entry for entry in self._entries if entry.complete]

    def content_hash(self) -> str:
        return self.meta.get("content_hash", "")

    def prefix_signature(self, entry: LibraryEntry, depth: int = 1) -> str | None:
        """The signature of ``entry``'s ancestor at ``depth`` (walking parents)."""
        current = entry
        while current is not None and current.depth > depth:
            parent = current.parent_signature
            current = self.get(parent) if parent is not None else None
        if current is not None and current.depth == depth:
            return current.signature
        return None


class _LazyEntries:
    """List-like over raw payloads, parsing each entry once on first access."""

    def __init__(self, payloads: list[bytes]) -> None:
        self._payloads = payloads
        self._parsed: dict[int, LibraryEntry] = {}

    def __len__(self) -> int:
        return len(self._payloads)

    def __getitem__(self, index: int) -> LibraryEntry:
        entry = self._parsed.get(index)
        if entry is None:
            entry = LibraryEntry.from_payload(self._payloads[index])
            self._parsed[index] = entry
        return entry

    def __iter__(self) -> Iterator[LibraryEntry]:
        for index in range(len(self._payloads)):
            yield self[index]
