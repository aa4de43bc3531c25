"""Per-layer wall-clock spans for the benchmark's traced pass.

The program itself is not changed: :class:`SpanRecorder` wraps the
public entry points listed in :data:`LAYERS` from outside, with a
stack-based recorder. Each wrapped call is one span (layer, start, end,
parent). A layer's *self* time is its spans' durations minus the time
their child spans cover; time outside every span is the root's self
time, reported as ``unattributed.share``.

Module-level functions are replaced in every ``repro`` module that
bound them by name (``from repro.core.wire import dumps``), so no
caller keeps the unwrapped function. The run's consistency checks
(span counts against ledger counts) catch a binding that still slips
through.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Layers, named after the repo's modules, with the public entry points
#: whose calls count as time spent in that layer. ``Platform.charge_*``
#: is deliberately absent: every priced operation lands there (the
#: simulator's hottest path), so a wrapper would dominate the traced
#: wall; the ledger counts its calls instead.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("traffic.harness", ("repro.traffic.harness:OpenLoopHarness.run",)),
    (
        "concurrency.scheduler",
        (
            "repro.concurrency.scheduler:SessionScheduler.spawn",
            "repro.concurrency.scheduler:SessionScheduler.step",
        ),
    ),
    (
        "core.rmi",
        (
            "repro.core.rmi:RmiRuntime.invoke",
            "repro.core.rmi:RmiRuntime.cross_batched",
        ),
    ),
    (
        "core.serialization",
        (
            "repro.core.serialization:SerializationCodec.serialize",
            "repro.core.serialization:SerializationCodec.deserialize",
            "repro.core.serialization:WireSerializationCodec.serialize",
            "repro.core.serialization:WireSerializationCodec.deserialize",
        ),
    ),
    (
        "sgx.transitions",
        (
            "repro.sgx.transitions:TransitionLayer.ecall",
            "repro.sgx.transitions:TransitionLayer.ocall",
        ),
    ),
    (
        "concurrency.sharding",
        (
            "repro.concurrency.sharding:ShardedRuntime.relay_body",
            "repro.concurrency.sharding:ShardedEnclaveGroup.create_pinned",
        ),
    ),
    (
        "core.wire",
        (
            "repro.core.wire:dumps",
            "repro.core.wire:loads",
            "repro.core.wire:dumps_into",
            "repro.core.wire:loads_inplace",
        ),
    ),
    (
        "core.arena",
        (
            "repro.core.arena:SharedBufferArena.stage",
            "repro.core.arena:SharedBufferArena.release",
        ),
    ),
    (
        "batching.coalescer",
        (
            "repro.batching.coalescer:CallCoalescer.offer",
            "repro.batching.coalescer:CallCoalescer.flush",
        ),
    ),
    (
        "traffic.admission",
        (
            "repro.traffic.admission:AdmissionController.offer",
            "repro.traffic.admission:AdmissionController.release",
            "repro.traffic.admission:AdmissionController.drain",
        ),
    ),
    (
        "concurrency.workers",
        (
            "repro.concurrency.workers:ContendedTransitionLayer.ecall",
            "repro.concurrency.workers:ContendedTransitionLayer.ocall",
        ),
    ),
    ("sgx.epc", ("repro.sgx.epc:EpcPageCache.touch",)),
    (
        "obs.tracer",
        (
            "repro.obs.tracer:SpanTracer.start_span",
            "repro.obs.tracer:SpanTracer.end_span",
            "repro.obs.tracer:SpanTracer.instant",
        ),
    ),
    ("obs.slo", ("repro.obs.slo:_Watch.evaluate",)),
    (
        "runtime.context",
        (
            "repro.runtime.context:ExecutionContext.compute",
            "repro.runtime.context:ExecutionContext.memory_traffic",
            "repro.runtime.context:ExecutionContext.allocate",
            "repro.runtime.context:ExecutionContext.syscall",
            "repro.runtime.context:ExecutionContext.file_open",
            "repro.runtime.context:ExecutionContext.mmap",
        ),
    ),
    (
        "core.shim",
        (
            "repro.core.shim:ShimLibc.fopen",
            "repro.core.shim:ShimLibc.mmap_file",
            "repro.core.shim:ShimFile.write",
            "repro.core.shim:ShimFile.read",
            "repro.core.shim:ShimFile.seek",
            "repro.core.shim:ShimFile.flush",
            "repro.core.shim:ShimFile.close",
            "repro.core.shim:MappedFile.read",
        ),
    ),
    (
        "apps.paldb",
        (
            "repro.apps.paldb.workload:WriterLogic.write_all",
            "repro.apps.paldb.workload:ReaderLogic.read_all",
            "repro.apps.paldb.writer:StoreWriter.put",
            "repro.apps.paldb.writer:StoreWriter.close",
            "repro.apps.paldb.reader:StoreReader.get",
        ),
    ),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

#: Raw spans kept for the written trace; aggregates count every span.
KEEP_SPANS = 50_000


@contextmanager
def patched(owner: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Set ``owner.attr`` for the duration of the block, then restore it
    exactly (deleting it again if ``owner`` only inherited it)."""
    own = attr in vars(owner)
    original = vars(owner)[attr] if own else None
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def resolve(spec: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> (Class, "attr"); a bare
    ``"pkg.module:func"`` -> (module, "func")."""
    module_name, _, path = spec.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _bindings(owner: Any, attr: str) -> List[Tuple[Any, str]]:
    """Every place the callable ``owner.attr`` must be replaced: the
    class attribute, or each ``repro`` module binding the function."""
    if isinstance(owner, type):
        return [(owner, attr)]
    target = getattr(owner, attr)
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is target:
                found.append((module, key))
    return found


class SpanRecorder:
    """Stack-based wall-clock span recorder over :data:`LAYERS`."""

    def __init__(self) -> None:
        self.calls = [0] * len(LAYERS)
        self.self_ns = [0] * len(LAYERS)
        #: Wall time covered by top-level spans (everything else is root).
        self.top_ns = 0
        #: Kept spans: [layer index, start ns, end ns, parent index or -1].
        self.spans: List[List[int]] = []
        #: Entry points that no longer exist in the program (skipped).
        self.missing: List[str] = []
        self._stack: List[List[int]] = []
        self._origin = 0

    def _wrap(self, layer: int, func: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # Frame: [start, ns covered by children, kept-span index].
            kept = -1
            if len(spans) < KEEP_SPANS:
                kept = len(spans)
                spans.append([layer, 0, 0, stack[-1][2] if stack else -1])
            frame = [clock(), 0, kept]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                calls[layer] += 1
                self_ns[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_ns += duration
                if kept >= 0:
                    span = spans[kept]
                    span[1] = frame[0] - self._origin
                    span[2] = end - self._origin

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every entry point for the duration of the block."""
        with ExitStack() as stack:
            for index, (_, specs) in enumerate(LAYERS):
                for spec in specs:
                    try:
                        owner, attr = resolve(spec)
                        original = getattr(owner, attr)
                    except (ImportError, AttributeError):
                        self.missing.append(spec)
                        continue
                    wrapper = self._wrap(index, original)
                    for where, name in _bindings(owner, attr):
                        stack.enter_context(patched(where, name, wrapper))
            self._origin = time.perf_counter_ns()
            yield self

    # -- views -----------------------------------------------------------------

    def layer_calls(self, name: str) -> int:
        return self.calls[LAYER_NAMES.index(name)]

    def covers(self, name: str) -> bool:
        """Whether every entry point of layer ``name`` was wrapped."""
        return not set(dict(LAYERS)[name]) & set(self.missing)

    def shares(self, wall_ns: int) -> Dict[str, float]:
        """Self time of each layer, and of the root, as a share of wall."""
        shares = {
            name: self.self_ns[index] / wall_ns
            for index, name in enumerate(LAYER_NAMES)
        }
        shares["unattributed"] = max(0, wall_ns - self.top_ns) / wall_ns
        return shares

    def write(self, path: str, **header: Any) -> None:
        """Write the kept spans and the per-layer aggregates as JSON."""
        doc = {
            **header,
            "layers": list(LAYER_NAMES),
            "calls": dict(zip(LAYER_NAMES, self.calls)),
            "self_ns": dict(zip(LAYER_NAMES, self.self_ns)),
            "missing_entry_points": self.missing,
            "span_fields": ["layer", "start_ns", "end_ns", "parent"],
            "spans_kept": len(self.spans),
            "spans_total": sum(self.calls),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
