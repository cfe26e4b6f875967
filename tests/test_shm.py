"""Tests for the shared-memory block devices (:mod:`repro.storage.shm`).

The contract: a segment is zero-filled, uniquely named under
``SEGMENT_PREFIX``, visible to forked children, and unlinked exactly
once by ``close()``; a :class:`SharedMemoryBlockDevice` over a range of
it behaves -- bytes *and* charged I/O -- like a
:class:`~repro.storage.blockio.MemoryBlockDevice`.
"""

import multiprocessing
import os

import pytest

from repro.errors import StorageError
from repro.storage.blockio import IOStats, MemoryBlockDevice
from repro.storage.shm import (
    SEGMENT_PREFIX,
    SharedMemoryBlockDevice,
    SharedMemorySegment,
)


def _entry(segment):
    return os.path.join("/dev/shm", segment.name)


def _child_writes(segment, offset, data):
    segment.buf[offset:offset + len(data)] = data


class TestSharedMemorySegment:
    def test_fresh_segment_is_named_sized_and_zero_filled(self):
        with SharedMemorySegment(100) as segment:
            prefix = "%s_%d_" % (SEGMENT_PREFIX, os.getpid())
            assert segment.name.startswith(prefix)
            assert segment.size == 100
            assert bytes(segment.buf[:100]) == bytes(100)

    @pytest.mark.parametrize("size", [0, -8])
    def test_non_positive_size_rejected(self, size):
        with pytest.raises(StorageError, match="positive"):
            SharedMemorySegment(size)

    def test_names_are_unique_within_a_process(self):
        with SharedMemorySegment(8) as one, SharedMemorySegment(8) as two:
            assert one.name != two.name
            one.buf[0] = 7
            assert two.buf[0] == 0

    def test_close_unlinks_and_is_idempotent(self):
        segment = SharedMemorySegment(64)
        assert os.path.exists(_entry(segment))
        segment.close()
        assert not os.path.exists(_entry(segment))
        segment.close()  # second close is a no-op
        assert not os.path.exists(_entry(segment))

    def test_buffer_access_after_close_raises(self):
        segment = SharedMemorySegment(16)
        segment.close()
        with pytest.raises(StorageError, match="closed"):
            segment.buf

    def test_context_manager_closes_on_error(self):
        with pytest.raises(RuntimeError):
            with SharedMemorySegment(16) as segment:
                raise RuntimeError("boom")
        assert not os.path.exists(_entry(segment))

    def test_repr_reports_state(self):
        segment = SharedMemorySegment(32)
        assert "32 bytes" in repr(segment)
        assert "closed" not in repr(segment)
        segment.close()
        assert repr(segment).endswith(", closed)")

    def test_forked_child_writes_are_visible(self):
        """Workers inherit the mapping through fork, not by name."""
        context = multiprocessing.get_context("fork")
        with SharedMemorySegment(32) as segment:
            child = context.Process(target=_child_writes,
                                    args=(segment, 4, b"shard"))
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            assert bytes(segment.buf[4:9]) == b"shard"
            assert bytes(segment.buf[:4]) == bytes(4)
        assert not os.path.exists(_entry(segment))


class TestSharedMemoryBlockDevice:
    @pytest.mark.parametrize("offset, capacity", [
        (-1, 8),     # negative offset
        (0, -1),     # negative capacity
        (60, 8),     # range runs past the segment end
    ])
    def test_range_must_fit_the_segment(self, offset, capacity):
        with SharedMemorySegment(64) as segment:
            with pytest.raises(StorageError, match="exceeds segment"):
                SharedMemoryBlockDevice(segment, offset, capacity)

    def test_logical_size_grows_with_writes(self):
        with SharedMemorySegment(64) as segment:
            device = SharedMemoryBlockDevice(segment, 16, 32)
            assert device.size == 0
            device.write_at(4, b"abcd")
            assert device.size == 8
            assert device.read_at(0, 8) == bytes(4) + b"abcd"
            device.append(b"ef")
            assert device.size == 10
            # The bytes live at [offset, offset + capacity) of the segment.
            assert bytes(segment.buf[20:26]) == b"abcdef"

    def test_read_past_logical_end_raises(self):
        with SharedMemorySegment(64) as segment:
            device = SharedMemoryBlockDevice(segment, 0, 64)
            device.write_at(0, b"xyz")
            with pytest.raises(StorageError, match="read past end"):
                device.read_at(2, 4)

    def test_write_past_capacity_raises(self):
        with SharedMemorySegment(64) as segment:
            device = SharedMemoryBlockDevice(segment, 0, 8)
            with pytest.raises(StorageError, match="capacity"):
                device.write_at(4, b"12345")
            # The failed write left no bytes behind in the neighbour range.
            assert bytes(segment.buf[8:16]) == bytes(8)

    def test_disjoint_ranges_do_not_overlap(self):
        with SharedMemorySegment(32) as segment:
            left = SharedMemoryBlockDevice(segment, 0, 16)
            right = SharedMemoryBlockDevice(segment, 16, 16)
            left.write_at(0, b"L" * 16)
            right.write_at(0, b"R" * 16)
            assert left.read_at(0, 16) == b"L" * 16
            assert right.read_at(0, 16) == b"R" * 16

    @pytest.mark.parametrize("block_size", [16, 64, 4096])
    def test_charges_match_memory_block_device(self, block_size):
        """Same operations, same bytes, same IOStats as MemoryBlockDevice."""
        ops = [("w", 0, bytes(range(200))), ("r", 0, 40), ("r", 8, 8),
               ("r", 30, 100), ("w", 50, b"\xff" * 30), ("r", 40, 60),
               ("drop",), ("r", 0, 200), ("r", 199, 1)]
        runs = []
        with SharedMemorySegment(512) as segment:
            for make in (
                    lambda stats: MemoryBlockDevice(block_size=block_size,
                                                    stats=stats),
                    lambda stats: SharedMemoryBlockDevice(
                        segment, 100, 300, block_size=block_size,
                        stats=stats)):
                stats = IOStats()
                device = make(stats)
                reads = []
                for op in ops:
                    if op[0] == "w":
                        device.write_at(op[1], op[2])
                    elif op[0] == "r":
                        reads.append(device.read_at(op[1], op[2]))
                    else:
                        device.drop_cache()
                runs.append((reads, stats))
        (memory_reads, memory_stats), (shm_reads, shm_stats) = runs
        assert shm_reads == memory_reads
        assert shm_stats == memory_stats
        assert shm_stats.read_ios > 0 and shm_stats.write_ios > 0

    def test_device_close_leaves_the_segment_open(self):
        with SharedMemorySegment(32) as segment:
            device = SharedMemoryBlockDevice(segment, 0, 32)
            device.write_at(0, b"keep")
            device.close()
            assert device.closed
            with pytest.raises(StorageError, match="closed"):
                device.read_at(0, 4)
            # The segment belongs to its owner, not to the device.
            assert bytes(segment.buf[:4]) == b"keep"
            assert os.path.exists(_entry(segment))
