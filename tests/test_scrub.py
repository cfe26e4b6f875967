"""``scrub_directory`` and the ``repro scrub`` CLI.

Each test seeds a real service directory, damages one artifact the way
a crash or bit-rot would, and asserts the scrub (a) reports the damage
with its location, (b) repairs exactly what is safe to repair, and
(c) leaves the directory openable (or honestly reports that it is
not).
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import pytest

from repro.cli import main
from repro.errors import CorruptStorageError, ReproError
from repro.faults import flip_bit, tear_file
from repro.service import CoreService, scrub_directory
from repro.service.journal import segment_name
from repro.storage.graphstore import GraphStorage

from tests.conftest import make_random_edges

pytestmark = pytest.mark.faults


@pytest.fixture
def seeded(tmp_path, rng):
    """A service directory with a checkpoint and a journal tail."""
    n = 30
    edges = make_random_edges(rng, n, 0.15)
    data_dir = str(tmp_path / "svc")
    os.makedirs(data_dir)
    service = CoreService.from_storage(
        GraphStorage.from_edges(edges, n), data_dir=data_dir,
        segment_events=2)
    present = {tuple(sorted(e)) for e in edges}
    applied = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present:
                applied.append((u, v))
                if len(applied) == 6:
                    break
        if len(applied) == 6:
            break
    for u, v in applied[:3]:
        service.apply([("+", u, v)])
    service.checkpoint()
    for u, v in applied[3:]:
        service.apply([("+", u, v)])
    cores = list(service.maintainer.cores)
    epoch = service.epoch
    service.close()
    return {"data_dir": data_dir, "edges": edges, "n": n,
            "cores": cores, "epoch": epoch}


def _segments(data_dir):
    return sorted(f for f in os.listdir(data_dir)
                  if f.startswith("journal."))


def _reopen(seeded):
    return CoreService.open(
        seeded["data_dir"],
        GraphStorage.from_edges(seeded["edges"], seeded["n"]))


class TestDiagnose:
    def test_clean_directory(self, seeded):
        report = scrub_directory(seeded["data_dir"], repair=False)
        assert report["openable"]
        assert report["issues"] == []
        assert report["segments"]
        assert all(s["damage"] is None for s in report["segments"])

    def test_issue_carries_file_and_offset(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=os.path.getsize(path) - 1)
        report = scrub_directory(seeded["data_dir"], repair=False)
        # A torn tail is the crash-mid-append signature the journal
        # truncates on open: reported, yet openable.
        assert report["openable"]
        (issue,) = report["issues"]
        assert issue["file"] == segments[-1]
        assert isinstance(issue["offset"], int)

    def test_missing_manifest_reported(self, seeded):
        os.unlink(os.path.join(seeded["data_dir"], "manifest.json"))
        report = scrub_directory(seeded["data_dir"], repair=False)
        assert not report["openable"]
        assert any(issue["file"] == "manifest.json"
                   for issue in report["issues"])


class TestRepairs:
    def test_torn_active_tail_truncated(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=os.path.getsize(path) - 3)
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"]
        assert any("truncated" in action for action in report["actions"])
        service = _reopen(seeded)
        assert service.epoch == seeded["epoch"] - 1
        service.close()

    def test_header_torn_active_segment_rebuilt(self, seeded):
        """A tear inside the active segment's 28-byte header must not
        truncate the file to zero bytes -- that erases the base offset
        and fails the watermark check.  The header is rebuilt from the
        chain / manifest evidence instead."""
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=10)
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"], report
        assert any("rebuilt" in action for action in report["actions"])
        service = _reopen(seeded)
        assert service.verify() is True
        service.close()

    def test_manifest_restored_from_epoch_copy(self, seeded):
        path = os.path.join(seeded["data_dir"], "manifest.json")
        flip_bit(path, offset=os.path.getsize(path) // 2, bit=1)
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"]
        assert any("restored" in action for action in report["actions"])
        service = _reopen(seeded)
        assert list(service.maintainer.cores) == seeded["cores"]
        service.close()

    def test_missing_manifest_restored_too(self, seeded):
        os.unlink(os.path.join(seeded["data_dir"], "manifest.json"))
        report = scrub_directory(seeded["data_dir"])
        assert report["openable"]
        service = _reopen(seeded)
        assert service.epoch == seeded["epoch"]
        service.close()

    def test_stray_tmp_files_removed(self, seeded):
        stray = os.path.join(seeded["data_dir"], "state.99.ckpt.tmp")
        with open(stray, "wb") as handle:
            handle.write(b"half-written")
        report = scrub_directory(seeded["data_dir"])
        assert not os.path.exists(stray)
        assert any("stray" in action for action in report["actions"])
        assert report["openable"]

    def test_stale_covered_segment_unlinked(self, seeded, rng):
        """A sealed segment the checkpoint already covers (left behind
        by a crash between manifest write and compaction unlink) is
        removed even when damaged."""
        data_dir = seeded["data_dir"]
        segments = _segments(data_dir)
        first = os.path.join(data_dir, segments[0])
        with open(first, "rb") as handle:
            blob = handle.read()
        # Fabricate the pre-compaction predecessor: same layout, one
        # sequence earlier, damaged body.
        import struct
        from repro.service.journal import _SEGMENT_HEADER
        magic, version, seq, base = _SEGMENT_HEADER.unpack(
            blob[:_SEGMENT_HEADER.size])
        stale_seq = seq - 1
        stale = os.path.join(data_dir, segment_name(stale_seq))
        with open(stale, "wb") as handle:
            handle.write(_SEGMENT_HEADER.pack(magic, version, stale_seq,
                                              max(0, base - 2)))
            handle.write(os.urandom(42))
        report = scrub_directory(data_dir)
        assert report["openable"], report
        assert not os.path.exists(stale)
        assert any("unlinked" in action for action in report["actions"])
        service = _reopen(seeded)
        assert service.epoch == seeded["epoch"]
        service.close()

    def test_corrupt_active_needs_force(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        flip_bit(path, offset=40, bit=2)
        report = scrub_directory(seeded["data_dir"])
        assert not report["openable"]
        assert any("force" in action for action in report["actions"])
        report = scrub_directory(seeded["data_dir"], force=True)
        assert report["openable"]
        service = _reopen(seeded)
        assert service.verify() is True
        service.close()

    def test_uncovered_sealed_damage_without_force_is_honest(
            self, seeded):
        segments = _segments(seeded["data_dir"])
        # The first retained segment holds post-checkpoint events.
        path = os.path.join(seeded["data_dir"], segments[0])
        flip_bit(path, offset=40, bit=0)
        report = scrub_directory(seeded["data_dir"])
        assert not report["openable"]
        assert any("not" in action and "covered" in action
                   for action in report["actions"])
        # Force truncates the journal at the damaged segment's base.
        report = scrub_directory(seeded["data_dir"], force=True)
        assert report["openable"], report
        service = _reopen(seeded)
        assert service.verify() is True
        service.close()

    def test_repair_is_idempotent(self, seeded):
        segments = _segments(seeded["data_dir"])
        path = os.path.join(seeded["data_dir"], segments[-1])
        tear_file(path, keep=os.path.getsize(path) - 3)
        first = scrub_directory(seeded["data_dir"])
        second = scrub_directory(seeded["data_dir"])
        assert first["openable"] and second["openable"]
        assert second["actions"] == []


class TestScrubCLI:
    def test_exit_codes_follow_openability(self, seeded, capsys):
        path = os.path.join(seeded["data_dir"], "manifest.json")
        flip_bit(path, offset=os.path.getsize(path) // 2, bit=1)
        assert main(["scrub", "--data-dir", seeded["data_dir"],
                     "--dry-run"]) == 1
        out = capsys.readouterr().out
        assert "openable" in out and "no" in out
        assert main(["scrub", "--data-dir", seeded["data_dir"]]) == 0
        out = capsys.readouterr().out
        assert "repair:" in out

    def test_json_report_is_machine_readable(self, seeded, capsys):
        assert main(["scrub", "--data-dir", seeded["data_dir"],
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["openable"] is True
        assert report["segments"]

    def test_serve_reports_degraded_and_quarantine_rows(
            self, seeded, capsys, tmp_path):
        edges, n = seeded["edges"], seeded["n"]
        graph_prefix = str(tmp_path / "tables")
        GraphStorage.from_edges(edges, n, path=graph_prefix).close()
        assert main(["serve", "--graph", graph_prefix,
                     "--queries", "5", "--updates", "0",
                     "--data-dir", seeded["data_dir"]]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out
        assert "quarantined batches" in out


# ----------------------------------------------------------------------
# strict manifest, v1 refusal, and scrub/open agreement
# ----------------------------------------------------------------------

MANIFEST_KEYS = ("version", "epoch", "events_applied", "checkpoint",
                 "delta", "journal")


def _manifest_path(data_dir):
    return os.path.join(data_dir, "manifest.json")


def _write_manifest(data_dir, manifest, *, checksum=True):
    """Rewrite manifest.json, checksum-valid unless told otherwise."""
    from repro.service.core_service import _manifest_body

    manifest = {k: v for k, v in manifest.items() if k != "crc32"}
    if checksum:
        manifest["crc32"] = zlib.crc32(
            _manifest_body(manifest).encode("ascii")) & 0xFFFFFFFF
    with open(_manifest_path(data_dir), "w", encoding="ascii") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


def _read_manifest(data_dir):
    with open(_manifest_path(data_dir), encoding="ascii") as handle:
        return json.load(handle)


def _drop_manifest_copies(data_dir):
    for name in os.listdir(data_dir):
        if name.startswith("manifest.") and name != "manifest.json":
            os.unlink(os.path.join(data_dir, name))


def _listing(data_dir):
    return {name: open(os.path.join(data_dir, name), "rb").read()
            for name in os.listdir(data_dir)}


def _v1_manifest(data_dir):
    """A pre-segmented manifest: version 1, no crc32, no delta."""
    _drop_manifest_copies(data_dir)
    manifest = _read_manifest(data_dir)
    _write_manifest(data_dir, {
        "version": 1, "epoch": manifest["epoch"],
        "events_applied": manifest["events_applied"],
        "checkpoint": "state.ckpt", "journal": "journal.log",
        "graph_path": None, "num_nodes": manifest["num_nodes"]},
        checksum=False)
    return "manifest.json"


def _v1_manifest_with_checksum(data_dir):
    _drop_manifest_copies(data_dir)
    manifest = _read_manifest(data_dir)
    manifest["version"] = 1
    _write_manifest(data_dir, manifest)
    return "manifest.json"


def _v1_journal(data_dir):
    from tests.test_service_journal import write_v1_journal

    write_v1_journal(data_dir, [(1, [("+", 0, 1)])])
    return "journal.log"


def _v1_checkpoint(data_dir):
    """Rewrite the current checkpoint in the CRC-less v1 format."""
    name = _read_manifest(data_dir)["checkpoint"]
    path = os.path.join(data_dir, name)
    blob = bytearray(open(path, "rb").read())
    struct.pack_into("<I", blob, 8, 1)
    with open(path, "wb") as handle:
        handle.write(bytes(blob[:-4]))
    return name


V1_ARTIFACTS = {
    "manifest-v1": _v1_manifest,
    "manifest-version-1": _v1_manifest_with_checksum,
    "journal-log": _v1_journal,
    "checkpoint-v1": _v1_checkpoint,
}


class TestStrictManifest:
    @pytest.mark.parametrize("key", MANIFEST_KEYS)
    def test_missing_key_is_typed_and_scrub_restores(self, seeded, key):
        data_dir = seeded["data_dir"]
        manifest = _read_manifest(data_dir)
        del manifest[key]
        _write_manifest(data_dir, manifest)
        with pytest.raises(CorruptStorageError, match=key) as exc_info:
            _reopen(seeded)
        assert exc_info.value.path == _manifest_path(data_dir)
        report = scrub_directory(data_dir, repair=False)
        assert not report["openable"]
        assert any(issue["file"] == "manifest.json"
                   for issue in report["issues"])
        report = scrub_directory(data_dir)
        assert report["openable"], report
        assert any("restored" in action for action in report["actions"])
        service = _reopen(seeded)
        assert list(service.maintainer.cores) == seeded["cores"]
        service.close()

    def test_missing_crc32_is_refused_even_when_tampered(self, seeded):
        data_dir = seeded["data_dir"]
        manifest = _read_manifest(data_dir)
        manifest["epoch"] = 999
        _write_manifest(data_dir, manifest, checksum=False)
        with pytest.raises(CorruptStorageError, match="crc32"):
            _reopen(seeded)
        report = scrub_directory(data_dir, repair=False)
        assert not report["openable"]
        report = scrub_directory(data_dir)
        assert report["openable"], report
        service = _reopen(seeded)
        assert service.epoch == seeded["epoch"]
        service.close()


class TestV1Refusal:
    """Every pre-segmented artifact fails by name; scrub reports it as
    unopenable and deletes nothing."""

    @pytest.mark.parametrize("artifact", sorted(V1_ARTIFACTS))
    def test_v1_artifact_refused_by_name(self, seeded, artifact):
        data_dir = seeded["data_dir"]
        name = V1_ARTIFACTS[artifact](data_dir)
        with pytest.raises(CorruptStorageError) as exc_info:
            _reopen(seeded)
        assert os.path.basename(exc_info.value.path) == name
        assert name in str(exc_info.value)
        before = _listing(data_dir)
        report = scrub_directory(data_dir, repair=False)
        assert not report["openable"]
        assert any(issue["file"] == name for issue in report["issues"])
        report = scrub_directory(data_dir)
        assert not report["openable"]
        assert _listing(data_dir) == before


def _tear_tail(path):
    tear_file(path, keep=os.path.getsize(path) - 3)


def _segment_damage(which, damage):
    def apply(data_dir):
        segments = _segments(data_dir)
        path = os.path.join(data_dir, segments[-1 if which == "active"
                                              else 0])
        damage(path)
    return apply


def _drop_key(key):
    def apply(data_dir):
        manifest = _read_manifest(data_dir)
        del manifest[key]
        _write_manifest(data_dir, manifest)
    return apply


def _drop_crc(data_dir):
    _write_manifest(data_dir, _read_manifest(data_dir), checksum=False)


def _set_key(key, value):
    def apply(data_dir):
        manifest = _read_manifest(data_dir)
        manifest[key] = value
        _write_manifest(data_dir, manifest)
    return apply


def _unlink_artifact(key):
    def apply(data_dir):
        os.unlink(os.path.join(data_dir, _read_manifest(data_dir)[key]))
    return apply


DAMAGE_MATRIX = {
    "clean": lambda data_dir: None,
    "torn-active-tail": _segment_damage("active", _tear_tail),
    "torn-active-header": _segment_damage(
        "active", lambda path: tear_file(path, keep=10)),
    "crc-active": _segment_damage(
        "active", lambda path: flip_bit(path, offset=40, bit=2)),
    "torn-sealed": _segment_damage("sealed", _tear_tail),
    "crc-sealed": _segment_damage(
        "sealed", lambda path: flip_bit(path, offset=40, bit=0)),
    "bad-header-sealed": _segment_damage(
        "sealed", lambda path: flip_bit(path, offset=3, bit=4)),
    "bad-header-active": _segment_damage(
        "active", lambda path: flip_bit(path, offset=3, bit=4)),
    "missing-crc32": _drop_crc,
    "missing-manifest": lambda data_dir: os.unlink(
        _manifest_path(data_dir)),
    "missing-checkpoint-file": _unlink_artifact("checkpoint"),
    "missing-delta-file": _unlink_artifact("delta"),
    "events_applied-not-a-count": _set_key("events_applied", "7"),
    "epoch-negative": _set_key("epoch", -1),
}
DAMAGE_MATRIX.update(("missing-" + key, _drop_key(key))
                     for key in MANIFEST_KEYS)
DAMAGE_MATRIX.update(V1_ARTIFACTS)


class TestScrubOpenAgreement:
    @pytest.mark.parametrize("case", sorted(DAMAGE_MATRIX))
    def test_scrub_verdict_matches_open(self, seeded, case):
        """``openable`` is true exactly when ``CoreService.open``
        succeeds, and neither raises anything but a ReproError."""
        DAMAGE_MATRIX[case](seeded["data_dir"])
        report = scrub_directory(seeded["data_dir"], repair=False)
        try:
            service = _reopen(seeded)
        except ReproError:
            opened = False
        else:
            opened = True
            assert service.verify() is True
            service.close()
        assert report["openable"] == opened, report
