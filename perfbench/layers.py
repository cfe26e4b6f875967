"""Outside-in layer timing for the traced benchmark run.

Two sources feed one per-thread frame stack:

* wrappers installed at run time around public functions of each layer
  (``CSRGraph.from_rows``, ``EventJournal.append``, ...);
* the spans the program already emits through ``repro.obs.trace``
  (``sharded.round``, ``service.apply``, ...), hooked by wrapping
  ``Span.__enter__`` / ``Span.__exit__`` while tracing is enabled.

Every frame records calls, inclusive time and self time (inclusive time
minus the time its child frames cover).  Frames are named
``<layer>.<what>`` so the layer of a frame is a name prefix; program
spans are mapped to layers by :data:`SPAN_LAYERS`.

``BlockDevice.read_at`` / ``write_at`` run hundreds of thousands of
times per decomposition, and a wrapper costs 1-2 us a call.  They are
therefore wrapped only in *I/O rounds* (:meth:`LayerTimer.install` with
``io=True``), which time nothing else but the CSR build around them;
*span rounds* time every other layer and leave the device calls alone,
so their time shows in the caller's self time there.

Nothing here is installed unless :meth:`LayerTimer.install` is called,
so untraced runs execute the program exactly as shipped.  Processes
forked while a timer is installed (the persistent executor's workers)
drop every patch and the tracer at fork, so they run as shipped too.
"""

from __future__ import annotations

import os
import threading
import time

from repro.core.maintenance.maintainer import CoreMaintainer
from repro.core.sharded import PersistentShardExecutor
from repro.obs import trace
from repro.service.cache import ServiceCache
from repro.service.journal import EventJournal
from repro.service.snapshot import EpochSnapshot
from repro.storage.blockio import BlockDevice
from repro.storage.csr import CSRGraph
from repro.storage.shards import ShardedGraphStorage

#: The layers a self-time table reports, named after the repo's modules.
LAYERS = (
    "storage.blockio", "storage.csr", "storage.shards", "storage.shm",
    "core.engines", "core.sharded", "core.maintenance",
    "service.core_service", "service.journal", "service.snapshot",
    "service.cache",
)

#: Program span name prefix -> layer (first match wins).
SPAN_LAYERS = (
    ("sharded.", "core.sharded"),
    ("service.journal_append", "service.journal"),
    ("service.snapshot_advance", "service.snapshot"),
    ("service.", "service.core_service"),
    ("semicore", "core.engines"),
    ("emcore", "core.engines"),
)

_perf = time.perf_counter

#: Timers whose patches are installed in this process.
_installed = []


def _restore_in_child():
    """Forked workers run the program as shipped."""
    for timer in list(_installed):
        timer.uninstall()
    trace.disable_tracing()


os.register_at_fork(after_in_child=_restore_in_child)


def _segment_size(journal):
    path = os.path.join(journal.directory, journal.active_segment)
    return path, os.path.getsize(path)


def _segment_growth(args, result, token):
    path, size = token
    return os.path.getsize(path) - size


def layer_of(name):
    """The layer a frame or span name belongs to (``"other"`` if none)."""
    for layer in LAYERS:
        if name.startswith(layer + "."):
            return layer
    for prefix, layer in SPAN_LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class LayerTimer:
    """Per-thread frame stacks with call / inclusive / self accounting."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self._saved = []

    # -- frames -------------------------------------------------------
    def _state(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            # table: name -> [calls, inclusive_s, self_s, extra]
            state = self._tls.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def enter(self, name):
        """Open a frame; pair with :meth:`leave`."""
        stack, _ = self._state()
        stack.append([name, _perf(), 0.0])

    def leave(self, extra=0):
        """Close the innermost frame of this thread."""
        now = _perf()
        stack, table = self._state()
        name, started, child = stack.pop()
        elapsed = now - started
        row = table.get(name)
        if row is None:
            row = table[name] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += elapsed
        row[2] += elapsed - child
        row[3] += extra
        if stack:
            stack[-1][2] += elapsed

    def frame(self, name):
        """Context manager form of :meth:`enter` / :meth:`leave`."""
        return _Frame(self, name)

    def snapshot(self):
        """Totals over every thread: ``name -> [calls, incl, self, extra]``."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                acc = merged.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return merged

    @staticmethod
    def delta(after, before):
        """Per-name difference of two :meth:`snapshot` results."""
        out = {}
        for name, row in after.items():
            base = before.get(name, (0, 0.0, 0.0, 0))
            diff = [row[i] - base[i] for i in range(4)]
            if diff[0]:
                out[name] = diff
        return out

    # -- installation -------------------------------------------------
    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, measure=None, before=None):
        """Replace ``owner.attr`` by a frame around the original.

        ``measure(args, result, token)`` returns the frame's ``extra``
        count, where ``token`` is ``before(args)`` taken before the call.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        timer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            timer.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                timer.leave(measure(args, result, token) if measure else 0)

        self._patch(owner, attr,
                    classmethod(wrapper) if is_classmethod else wrapper)

    def install(self, io=False):
        """Wrap the layer entry points and hook the program's spans, or
        with ``io`` only the device calls and the CSR build around them."""
        _installed.append(self)
        wrap = self._wrap
        for attr in ("from_storage", "from_rows", "from_graph"):
            wrap(CSRGraph, attr, "storage.csr.build")
        if io:
            wrap(BlockDevice, "read_at", "storage.blockio.read_at")
            wrap(BlockDevice, "write_at", "storage.blockio.write_at")
            return
        wrap(ShardedGraphStorage, "from_storage", "storage.shards.build")
        wrap(PersistentShardExecutor, "run", "core.sharded.executor_run")
        wrap(PersistentShardExecutor, "attach_plan", "storage.shm.attach",
             lambda args, result, token: args[1].total_bytes)
        wrap(CoreMaintainer, "apply_batch", "core.maintenance.apply_batch")
        # Bytes a batch adds to its segment file (a rotation inside the
        # append seals that same file, so the difference still holds).
        wrap(EventJournal, "append", "service.journal.append",
             _segment_growth, lambda args: _segment_size(args[0]))
        wrap(EpochSnapshot, "advance", "service.snapshot.advance")
        wrap(EpochSnapshot, "acquire", "service.snapshot.pin")
        wrap(EpochSnapshot, "release", "service.snapshot.unpin")
        wrap(ServiceCache, "get", "service.cache.get")
        wrap(ServiceCache, "put", "service.cache.put")
        wrap(ServiceCache, "invalidate", "service.cache.invalidate")

        span_enter = trace.Span.__dict__["__enter__"]
        span_exit = trace.Span.__dict__["__exit__"]
        timer = self

        def hooked_enter(span_obj):
            result = span_enter(span_obj)
            timer.enter(span_obj.name)
            return result

        def hooked_exit(span_obj, exc_type, exc, tb):
            timer.leave()
            return span_exit(span_obj, exc_type, exc, tb)

        self._patch(trace.Span, "__enter__", hooked_enter)
        self._patch(trace.Span, "__exit__", hooked_exit)

    def uninstall(self):
        """Restore every patched attribute (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self in _installed:
            _installed.remove(self)


class _Frame:
    __slots__ = ("_timer", "_name")

    def __init__(self, timer, name):
        self._timer = timer
        self._name = name

    def __enter__(self):
        self._timer.enter(self._name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._timer.leave()
        return False


class Tracing:
    """Switch tracing and the layer wrappers on and off together; with
    ``io`` only the device wrappers, without the tracer."""

    def __init__(self, timer, io=False):
        self.timer = timer
        self.io = io

    def __enter__(self):
        if not self.io:
            trace.enable_tracing(keep=64)
        self.timer.install(self.io)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.timer.uninstall()
        if not self.io:
            trace.disable_tracing()
        return False


def self_time_by_layer(table):
    """Fold a frame table into ``layer -> [calls, self_s]``."""
    out = {layer: [0, 0.0] for layer in LAYERS}
    for name, row in table.items():
        acc = out.setdefault(layer_of(name), [0, 0.0])
        acc[0] += row[0]
        acc[1] += row[2]
    return out


def format_table(table, title):
    """A plain-text self-time table, one row per frame, grouped by layer."""
    lines = ["", "== self time by layer: %s ==" % title,
             "%-22s %-36s %9s %11s %11s"
             % ("layer", "frame", "calls", "incl_s", "self_s")]
    rows = sorted(table.items(),
                  key=lambda item: (layer_of(item[0]), -item[1][2]))
    for name, (calls, incl, self_s, _) in rows:
        lines.append("%-22s %-36s %9d %11.4f %11.4f"
                     % (layer_of(name), name, calls, incl, self_s))
    folded = self_time_by_layer(table)
    lines.append("-- per layer --")
    for layer, (calls, self_s) in sorted(folded.items(),
                                         key=lambda item: -item[1][1]):
        lines.append("%-22s %9d calls %11.4f s self" % (layer, calls, self_s))
    return "\n".join(lines)
