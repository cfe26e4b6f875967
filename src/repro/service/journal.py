"""Segmented write-ahead journal of edge update events.

:class:`CoreService` journals every accepted batch *before* applying it
to the maintained index, so a crash between the append and the
in-memory state transition loses nothing: on restart the tail of the
journal is replayed on top of the last checkpoint
(``service/core_service.py``).

Segmentation
------------
The journal is a *directory* of segment files::

    journal.000001.log   sealed   events [0, 1024)
    journal.000002.log   sealed   events [1024, 1536)
    journal.000003.log   active   events [1536, ...)

Records append to the highest-numbered segment (the *active* one).
:meth:`rotate` seals the active segment by creating the next one --
sealing is purely logical: a segment is sealed iff a higher-numbered
segment exists, so there is no seal marker whose write could itself be
torn.  Rotation happens on every :meth:`CoreService.checkpoint` and
whenever the active segment reaches ``segment_events`` events.

Every segment header records the segment's *base offset*: the number of
events journaled before it across the whole history.  Offsets are
therefore global and survive :meth:`compact`, which unlinks sealed
segments whose events are all covered by the durable checkpoint --
the on-disk replay prefix stays bounded by the checkpoint interval
instead of growing with the lifetime of the service.  Event history is
*not* retained in memory: reads stream from the segment files
(:meth:`iter_events` / :meth:`iter_batches`), and only a fixed-size
retention window of the most recent events is kept for introspection
(:meth:`recent_events`).

Segment files are the only journal layout.  A directory still holding
the single ``journal.log`` of the pre-segmented (v1) format is refused
with a typed error naming that file: starting a fresh segment beside it
would silently drop its history.

The record format is parsed in exactly one place, :func:`_walk`:
:func:`scan_segment` builds a read-only report of one segment on it
(the open path applies its repair policy on top, and so does
``repro scrub``), and reads stream through it.

Durability model
----------------
* A record is 21 bytes: a kind byte, two 32-bit fields, the 64-bit id
  of the batch it belongs to, and a CRC32 of those fields.  Each
  :meth:`append` writes one *batch header* record (kind 2, carrying the
  event count) followed by the event records (kind 0 insert / 1
  delete), all in a single ``write`` + ``flush`` + ``fsync``.
* Batches are the unit of crash-atomicity.  A torn append -- a partial
  trailing record, or a batch header followed by fewer event records
  than it announces -- is the signature of a crash mid-append: the
  whole unacknowledged batch is silently discarded on open and
  overwritten by the next append.  Only the *active* segment can
  legitimately have a torn tail; appends never touch sealed segments,
  so a short read there is corruption and refuses to open.
* A complete record whose CRC does not match is treated as
  *corruption*, not an interrupted write, and replaying past it could
  desynchronize the index from the graph:
  :class:`~repro.errors.CorruptStorageError` is raised instead.  This
  is a deliberate trade-off: a filesystem that extends the file before
  the data blocks land could, after a crash, present a full-size
  garbage record that this policy refuses to auto-truncate -- but
  silently discarding CRC failures would also discard *actual*
  corruption, and the service's source of truth (graph tables +
  checkpoint) makes a rejected journal recoverable by reseeding,
  whereas replaying a wrong event is not.  An existing but empty
  active segment (crash between create and header write) is
  unambiguous and is re-initialized in place.
* New segments are created via write-to-temp + ``fsync`` + atomic
  rename + directory ``fsync``: a segment file either exists with a
  complete header or not at all.  Compaction unlinks oldest-first, so
  a crash mid-compaction leaves a contiguous suffix of segments;
  fully-covered stragglers are retired by the next checkpoint.

The journal counts none of its own bytes against the graph's
:class:`~repro.storage.blockio.IOStats`: it is service durability
plumbing, not part of the paper's external-memory cost model.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from collections import deque, namedtuple

from repro.errors import CorruptStorageError

_SEGMENT_MAGIC = b"RPRJRNL2"
_SEGMENT_VERSION = 2
#: magic, version, pad, sequence number, base event offset.
_SEGMENT_HEADER = struct.Struct("<8sI4xQQ")
HEADER_SIZE = _SEGMENT_HEADER.size

_PAYLOAD = struct.Struct("<BIIQ")
_CRC = struct.Struct("<I")

RECORD_SIZE = _PAYLOAD.size + _CRC.size

#: The single-file journal of pre-segmented (v1) data directories;
#: its presence is refused, never adopted or deleted.
V1_JOURNAL_NAME = "journal.log"
#: 6 digits zero-padded, but sequences outlive the padding: match more.
_SEGMENT_RE = re.compile(r"^journal\.(\d{6,})\.log$")

#: Events an active segment may hold before an append auto-rotates it
#: (rotation also happens on every checkpoint).  ``None`` disables the
#: size trigger.
DEFAULT_SEGMENT_EVENTS = 4096

#: Most recent events kept in memory for introspection -- the journal
#: never holds its full history resident.
DEFAULT_RETENTION_EVENTS = 256

#: Event kind byte <-> the public "+" / "-" operation codes.
_KIND_TO_OP = {0: "+", 1: "-"}
_OP_TO_KIND = {"+": 0, "-": 1}
#: Kind byte of the per-batch header record (u = event count, v unused).
_KIND_BATCH = 2
#: Kind byte of a standalone quarantine marker: the named batch failed
#: maintenance after every retry and replay must skip its events (while
#: still accounting for them -- the batch consumed an epoch).
_KIND_QUARANTINE = 3

#: Where and why a segment walk stopped early.  ``torn`` marks the
#: crash-mid-append signature (a short trailing record or batch);
#: everything else is corruption.
Damage = namedtuple("Damage", "problem offset torn")


def segment_name(seq):
    """File name of segment ``seq`` (``journal.000017.log``)."""
    return "journal.%06d.log" % seq


def list_segments(directory):
    """``(seq, path)`` of every segment file under ``directory``,
    oldest first."""
    found = []
    for name in os.listdir(directory):
        match = _SEGMENT_RE.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    return sorted(found)


def _pack_record(kind, u, v, batch):
    payload = _PAYLOAD.pack(kind, u, v, batch)
    return payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def _pack_header(seq, base_events):
    return _SEGMENT_HEADER.pack(_SEGMENT_MAGIC, _SEGMENT_VERSION, seq,
                                base_events)


def _damage(pos, what, torn=False):
    """:class:`Damage` of the record starting at byte ``pos``."""
    return Damage("record %d at byte offset %d %s"
                  % ((pos - HEADER_SIZE) // RECORD_SIZE, pos, what),
                  pos, torn)


def _unpack_record(record, pos):
    """``(kind, u, v, batch)`` of the record read at byte ``pos``, or
    the :class:`Damage` that makes it unreadable."""
    if len(record) < RECORD_SIZE:
        return _damage(pos, "is torn", torn=True)
    payload = record[:_PAYLOAD.size]
    if _CRC.unpack_from(record, _PAYLOAD.size)[0] \
            != zlib.crc32(payload) & 0xFFFFFFFF:
        return _damage(pos, "fails its checksum")
    return _PAYLOAD.unpack(payload)


def _walk(handle, skip=0):
    """Stream a segment body from the handle's position (just past the
    header) -- the one parser of the record format.

    Yields ``(end, batch, events)`` per complete batch, ``end`` being
    the byte offset just past it and ``events`` its ``(op, u, v)``
    list, and ``(end, batch, None)`` per quarantine marker.  The first
    ``skip`` events are dropped: whole batches among them are skipped
    by seek of their announced size, unread -- pass ``skip`` only for a
    segment a scan already proved whole.  Where the walk cannot go on
    it yields one :class:`Damage` and stops; end of file after a
    complete batch ends it cleanly.
    """
    pos = handle.tell()
    while True:
        record = handle.read(RECORD_SIZE)
        if not record:
            return
        head = _unpack_record(record, pos)
        if isinstance(head, Damage):
            yield head
            return
        kind, count, _, batch = head
        if kind not in (_KIND_BATCH, _KIND_QUARANTINE):
            yield _damage(pos, "is not a batch header (kind %d)" % kind)
            return
        pos += RECORD_SIZE
        if kind == _KIND_QUARANTINE:
            # Standalone marker: no event body, no offset moved.
            yield pos, batch, None
            continue
        if skip and count <= skip:
            skip -= count
            pos += RECORD_SIZE * count
            handle.seek(pos)
            continue
        events = []
        for _ in range(count):
            head = _unpack_record(handle.read(RECORD_SIZE), pos)
            if isinstance(head, Damage):
                yield head
                return
            kind, u, v, owner = head
            if kind not in _KIND_TO_OP or owner != batch:
                yield _damage(pos, "does not belong to batch %d" % batch)
                return
            events.append((_KIND_TO_OP[kind], u, v))
            pos += RECORD_SIZE
        if skip:
            events, skip = events[skip:], 0
        yield pos, batch, events


class SegmentScan:
    """What a read-only walk of one segment file found.

    ``base`` is the header's base offset (None for a 0-byte file or a
    damaged header), ``events`` the number of events in complete
    batches, ``good_pos`` the byte offset one past the last complete
    batch (0 when the header itself is damaged), ``damage`` None or
    the :class:`Damage` the walk stopped at, and ``quarantined`` the
    batch ids named by quarantine markers.
    """

    __slots__ = ("path", "name", "seq", "size", "base", "events",
                 "good_pos", "damage", "quarantined")

    def __init__(self, path, seq):
        self.path = path
        self.name = os.path.basename(path)
        self.seq = seq
        self.size = 0
        self.base = None
        self.events = 0
        self.good_pos = 0
        self.damage = None
        self.quarantined = []


def scan_segment(path, seq):
    """Walk segment file ``seq`` at ``path`` once, streaming.

    Validates the header, counts the events of complete batches and
    verifies every record CRC.  Damage is *reported*
    (:attr:`SegmentScan.damage`), never raised, and nothing is written:
    what to do about it is the caller's policy.
    """
    scan = SegmentScan(path, seq)
    with open(path, "rb") as handle:
        scan.size = os.fstat(handle.fileno()).st_size
        header = handle.read(HEADER_SIZE)
        if not header:
            return scan
        if len(header) < HEADER_SIZE:
            scan.damage = Damage("header truncated", 0, True)
            return scan
        magic, version, file_seq, base = _SEGMENT_HEADER.unpack(header)
        if magic != _SEGMENT_MAGIC:
            problem = "bad magic %r" % magic
        elif version != _SEGMENT_VERSION:
            problem = "unsupported version %d" % version
        elif file_seq != seq:
            problem = "header claims sequence %d" % file_seq
        else:
            problem = None
        if problem is not None:
            scan.damage = Damage(problem, 0, False)
            return scan
        scan.base = base
        scan.good_pos = HEADER_SIZE
        for item in _walk(handle):
            if isinstance(item, Damage):
                scan.damage = item
                break
            scan.good_pos, batch, events = item
            if events is None:
                scan.quarantined.append(batch)
            else:
                scan.events += len(events)
    return scan


def reset_segment(path, seq, base_events):
    """Rewrite ``path`` in place as an empty segment ``seq`` starting
    at event ``base_events``: a fresh header, nothing after it,
    fsynced."""
    with open(path, "r+b") as handle:
        handle.write(_pack_header(seq, base_events))
    truncate_segment(path, HEADER_SIZE)


def truncate_segment(path, size):
    """Cut ``path`` back to ``size`` bytes, fsynced."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


class _Segment:
    """Metadata of one live segment file."""

    __slots__ = ("path", "name", "seq", "base_events", "num_events",
                 "append_pos")

    def __init__(self, path, seq, base_events, num_events=0,
                 append_pos=HEADER_SIZE):
        self.path = path
        self.name = os.path.basename(path)
        self.seq = seq
        self.base_events = base_events
        self.num_events = num_events
        self.append_pos = append_pos

    @property
    def end_events(self):
        """Global offset one past this segment's last event."""
        return self.base_events + self.num_events

    def as_dict(self):
        """Manifest form: the per-segment event offsets."""
        return {"name": self.name, "seq": self.seq,
                "base_events": self.base_events,
                "events": self.num_events}


class EventJournal:
    """Append-only segmented journal of ``("+"|"-", u, v)`` batches."""

    def __init__(self, directory, *, segment_events=DEFAULT_SEGMENT_EVENTS,
                 retention_events=DEFAULT_RETENTION_EVENTS):
        """Open (or create) the journal living under ``directory``.

        Opening scans every live segment once, streaming: per-segment
        event counts are recovered and CRCs verified without
        materializing the history.  A torn trailing batch of the
        *active* segment is truncated away; any damage elsewhere raises
        :class:`~repro.errors.CorruptStorageError` immediately -- a
        journal that cannot be replayed must not be appended to.
        """
        if segment_events is not None and segment_events < 1:
            raise ValueError("segment_events must be positive or None")
        self.directory = os.fspath(directory)
        self.segment_events = segment_events
        self._retention = deque(maxlen=max(0, retention_events))
        self._closed = False
        self._handle = None
        self._quarantined = set()
        #: Data-file fsyncs issued (appends, segment creation, tail
        #: repair) -- the durability cost of ingest, surfaced by
        #: ``stats()`` and the metrics registry.
        self.fsyncs = 0
        self._segments = []
        found = self._discover()
        for index, (seq, path) in enumerate(found):
            self._adopt(scan_segment(path, seq),
                        active=index == len(found) - 1)
        if not self._segments:
            self._segments = [self._create_segment(1, 0)]
        if self._retention.maxlen:
            self._retention.extend(self.iter_events(max(
                self.first_retained_event,
                self.num_events - self._retention.maxlen)))
        self._open_active()

    # -- writing ------------------------------------------------------------
    def append(self, events, batch):
        """Durably append ``events`` as one crash-atomic batch.

        The header + event records hit the disk (``fsync``) before this
        returns; only then may the caller apply the batch to the index.
        Reaching ``segment_events`` rotates to a fresh segment
        afterwards.
        """
        if self._closed:
            raise CorruptStorageError(
                "journal under %s is closed" % self.directory,
                path=self.directory)
        events = list(events)
        if not events:
            return
        active = self._active
        blob = _pack_record(_KIND_BATCH, len(events), 0, batch)
        blob += b"".join(_pack_record(_OP_TO_KIND[op], u, v, batch)
                         for op, u, v in events)
        self._handle.seek(active.append_pos)
        self._handle.write(blob)
        self._handle.truncate()
        self._sync(self._handle)
        active.append_pos += len(blob)
        active.num_events += len(events)
        self._retention.extend((batch, op, u, v) for op, u, v in events)
        if (self.segment_events is not None
                and active.num_events >= self.segment_events):
            self.rotate()

    def append_quarantine(self, batch):
        """Durably mark ``batch`` as quarantined.

        Writes one standalone marker record (kind 3, no event body):
        the batch's event records stay journaled for forensics, but
        replay skips them while still counting them toward the epoch
        sequence.  The marker carries no events, so it never moves the
        event offsets and may legitimately land in a later segment than
        the batch it names (appends can rotate in between).
        """
        if self._closed:
            raise CorruptStorageError(
                "journal under %s is closed" % self.directory,
                path=self.directory)
        active = self._active
        blob = _pack_record(_KIND_QUARANTINE, 0, 0, batch)
        self._handle.seek(active.append_pos)
        self._handle.write(blob)
        self._handle.truncate()
        self._sync(self._handle)
        active.append_pos += len(blob)
        self._quarantined.add(batch)

    def quarantined_batches(self):
        """Sorted ids of batches marked quarantined (scan + this run)."""
        return sorted(self._quarantined)

    def is_quarantined(self, batch):
        """Whether ``batch`` carries a quarantine marker."""
        return batch in self._quarantined

    def rotate(self):
        """Seal the active segment by opening the next one.

        Sealing is logical -- the new segment's existence is what seals
        its predecessor -- so the only durability step is the atomic
        creation of the new file.  A no-op (returns False) when the
        active segment holds no events yet: repeated checkpoints must
        not pile up empty segments.
        """
        if self._closed:
            raise CorruptStorageError(
                "journal under %s is closed" % self.directory,
                path=self.directory)
        active = self._active
        if active.num_events == 0:
            return False
        # Create the successor and open its handle before touching the
        # active one: a failure anywhere (ENOSPC, EMFILE, ...) must
        # leave the journal exactly as it was, still able to append.
        segment = self._create_segment(active.seq + 1, active.end_events)
        try:
            handle = open(segment.path, "r+b")
        except BaseException:
            os.unlink(segment.path)
            raise
        self._handle.close()
        self._handle = handle
        self._segments.append(segment)
        return True

    def compact(self, events_covered):
        """Unlink sealed segments fully covered by ``events_covered``.

        ``events_covered`` is the checkpoint watermark: the global
        number of journaled events the durable checkpoint accounts for.
        The active segment is never removed; a sealed segment
        straddling the watermark survives.  Unlinks oldest-first so a
        crash mid-compaction leaves a contiguous segment suffix.
        Returns the removed file names.
        """
        removed = []
        while (len(self._segments) > 1
               and self._segments[0].end_events <= events_covered):
            segment = self._segments.pop(0)
            os.unlink(segment.path)
            removed.append(segment.name)
        if removed:
            fsync_path(self.directory)
        return removed

    # -- reading ------------------------------------------------------------
    @property
    def num_events(self):
        """Global number of events ever journaled (O(1))."""
        return self._segments[-1].end_events

    @property
    def first_retained_event(self):
        """Global offset of the oldest event still on disk."""
        return self._segments[0].base_events

    @property
    def num_segments(self):
        """Number of live segment files (sealed + active)."""
        return len(self._segments)

    @property
    def active_segment(self):
        """File name of the segment appends currently go to."""
        return self._active.name

    def segments(self):
        """Per-segment event offsets, oldest first (manifest form)."""
        return [segment.as_dict() for segment in self._segments]

    def stats(self):
        """One dict of journal gauges, for reports and debugging."""
        disk_bytes = 0
        for segment in self._segments:
            try:
                disk_bytes += os.path.getsize(segment.path)
            except OSError:
                pass
        return {
            "segments": len(self._segments),
            "active_segment": self._active.name,
            "total_events": self.num_events,
            "retained_events": self.num_events - self.first_retained_event,
            "first_retained_event": self.first_retained_event,
            "quarantined_batches": len(self._quarantined),
            "disk_bytes": disk_bytes,
            "fsyncs": self.fsyncs,
        }

    def recent_events(self):
        """The in-memory retention window of most recent events."""
        return list(self._retention)

    def iter_events(self, start=0, stop=None):
        """Stream ``(batch, op, u, v)`` for global indexes
        ``[start, stop)``.

        Reads from the segment files -- nothing is materialized.
        Whole batches before ``start`` are *skipped by seek*, not read,
        so positioning at a checkpoint watermark costs one batch-header
        read per skipped batch.
        """
        if stop is None:
            stop = self.num_events
        if start < self.first_retained_event:
            raise CorruptStorageError(
                "journal under %s: events before %d were compacted away "
                "(requested %d)"
                % (self.directory, self.first_retained_event, start),
                path=self.directory)
        for segment in self._segments:
            if segment.end_events <= start:
                continue
            if segment.base_events >= stop:
                break
            for event in self._iter_segment(segment, start, stop):
                yield event

    def iter_batches(self, start=0, *, include_quarantined=False):
        """Group :meth:`iter_events` into ``(batch, events)`` runs.

        Events of one batch are contiguous and within one segment by
        construction (one append per batch); the grouping keys on the
        stored batch id so a replay reproduces exactly the batch
        boundaries -- and therefore the epoch sequence -- of the
        original run.

        Quarantined batches are omitted by default.  With
        ``include_quarantined=True`` every batch is yielded as a
        3-tuple ``(batch, events, quarantined)`` so a replay can skip a
        quarantined batch's events while still advancing its epoch and
        event accounting.
        """
        current = None
        ops = []
        for batch, op, u, v in self.iter_events(start):
            if current is not None and batch != current:
                yield from self._emit_batch(current, ops,
                                            include_quarantined)
                ops = []
            current = batch
            ops.append((op, u, v))
        if current is not None:
            yield from self._emit_batch(current, ops, include_quarantined)

    def _emit_batch(self, batch, ops, include_quarantined):
        quarantined = batch in self._quarantined
        if include_quarantined:
            yield batch, ops, quarantined
        elif not quarantined:
            yield batch, ops

    def events(self, start=0):
        """The ``(batch, op, u, v)`` tuples from global index ``start``.

        Convenience list form of :meth:`iter_events`; prefer the
        iterator for anything that may be long.
        """
        return list(self.iter_events(start))

    def batches(self, start=0):
        """List form of :meth:`iter_batches`."""
        return list(self.iter_batches(start))

    # -- lifecycle ----------------------------------------------------------
    def close(self):
        """Close the active segment's backing file."""
        if not self._closed:
            self._closed = True
            if self._handle is not None and not self._handle.closed:
                self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- internals ----------------------------------------------------------
    @property
    def _active(self):
        return self._segments[-1]

    def _open_active(self):
        self._handle = open(self._active.path, "r+b")

    def _sync(self, handle):
        handle.flush()
        os.fsync(handle.fileno())
        self.fsyncs += 1

    def _discover(self):
        """Live segments under the dir, oldest first; sweeps strays."""
        if os.path.isfile(self.directory):
            raise CorruptStorageError(
                "EventJournal takes the journal *directory*, but %s is "
                "a file" % self.directory,
                path=self.directory)
        os.makedirs(self.directory, exist_ok=True)
        v1_path = os.path.join(self.directory, V1_JOURNAL_NAME)
        if os.path.exists(v1_path):
            raise CorruptStorageError(
                "journal %s: pre-segmented (v1) journal file; this "
                "version reads only journal segments -- reseed the data "
                "directory" % v1_path,
                path=v1_path)
        for name in os.listdir(self.directory):
            if name.startswith("journal.") and name.endswith(".tmp"):
                # A segment creation that never reached its rename.
                os.unlink(os.path.join(self.directory, name))
        return list_segments(self.directory)

    def _adopt(self, scan, *, active):
        """Apply the open policy to one scanned segment and append it.

        Only the active (last) segment is ever repaired: a 0-byte file
        (crash between create and header write -- nothing was
        journaled) gets its header back, a torn trailing batch is
        truncated away.  Every other kind of damage, and any damage in
        a sealed segment, which appends never touch, is corruption.
        The base offset must meet the predecessor's end.
        """
        previous = self._segments[-1] if self._segments else None
        chain_end = previous.end_events if previous is not None else 0
        damage = scan.damage
        if scan.size == 0:
            if not active:
                raise CorruptStorageError(
                    "journal segment %s: sealed segment is empty"
                    % scan.path, path=scan.path, segment=scan.seq)
            reset_segment(scan.path, scan.seq, chain_end)
            self.fsyncs += 1
            scan.base, scan.good_pos = chain_end, HEADER_SIZE
        elif damage is not None:
            if not (active and damage.torn and scan.good_pos):
                raise CorruptStorageError(
                    "journal segment %s: %s%s"
                    % (scan.path,
                       "sealed segment has a torn tail: "
                       if damage.torn and scan.good_pos else "",
                       damage.problem),
                    path=scan.path, segment=scan.seq,
                    offset=damage.offset)
            # A torn append of a batch that was never acknowledged.
            truncate_segment(scan.path, scan.good_pos)
            self.fsyncs += 1
        if previous is not None and scan.base != chain_end:
            raise CorruptStorageError(
                "journal %s: segment ends at event %d but %s starts "
                "at %d" % (previous.path, chain_end, scan.name, scan.base),
                path=previous.path, segment=previous.seq)
        self._quarantined.update(scan.quarantined)
        self._segments.append(_Segment(scan.path, scan.seq, scan.base,
                                       scan.events, scan.good_pos))

    def _create_segment(self, seq, base_events):
        """Atomically create segment ``seq`` starting at ``base_events``."""
        path = os.path.join(self.directory, segment_name(seq))
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(_pack_header(seq, base_events))
            self._sync(handle)
        os.replace(tmp, path)
        fsync_path(self.directory)
        return _Segment(path, seq, base_events)

    def _iter_segment(self, segment, start, stop):
        """Yield the segment's events overlapping ``[start, stop)``.

        Batches entirely before ``start`` are skipped with a seek of
        their announced size; the open scan already proved every batch
        complete, so the arithmetic is safe.  Reads always use their
        own handle so an append never races an iterator's position.
        """
        first = max(start, segment.base_events)
        remaining = min(stop, segment.end_events) - first
        if remaining <= 0:
            return
        with open(segment.path, "rb") as handle:
            handle.seek(HEADER_SIZE)
            for item in _walk(handle, skip=first - segment.base_events):
                if isinstance(item, Damage):
                    raise CorruptStorageError(
                        "journal segment %s: %s (changed since open)"
                        % (segment.path, item.problem),
                        path=segment.path, segment=segment.seq,
                        offset=item.offset)
                _, batch, events = item
                if events is None:
                    continue
                for op, u, v in events[:remaining]:
                    yield batch, op, u, v
                remaining -= len(events)
                if remaining <= 0:
                    return

    def __repr__(self):
        return ("EventJournal(%r, segments=%d, events=%d)"
                % (self.directory, len(self._segments), self.num_events))


def fsync_path(path):
    """fsync a file (or directory) by path, so creations and renames
    survive power loss.  Shared by the journal and the checkpoint
    writer (``service/core_service.py``)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
