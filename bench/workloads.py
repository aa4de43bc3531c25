"""The benchmark's four seeded workloads and their output checks.

Each workload builds its inputs from ``seed`` and drives them through
public entry points of ``repro``. :func:`run_workload` returns an
:class:`Outcome`: host seconds split into set-up and the timed phase,
the simulated latency of every completed op, the ledger charged while
the ops ran, a fingerprint of every simulated output, and the checks
that failed. ``size`` scales a workload down for the tests; the command
line always runs the full size. PalDB keys and RMI payloads are made
once per seed and reused, outside the timed set-up.

- ``traffic_plain`` / ``traffic_fixed`` — the open-loop traffic harness
  at 50k requests per simulated second, 16k requests, on the zero-cost
  ``"plain"`` deployment and on the overloaded ``"fixed"`` one;
- ``paldb_kv`` — Fig. 7/10: write then read 100k keys under NoSGX,
  NoPart, Part(RTWU), Part(RUWT) and SCONE+JVM;
- ``rmi_crossings`` — Fig. 4a at 100k invocations per scenario, then
  the Fig. 4b arena sweep of batched void pushes, classic vs arena.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import shutil
import string
import tempfile
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple

from layers import patched

from repro.apps.paldb import KvWorkload
from repro.apps.paldb.workload import (
    PALDB_RTWU_CLASSES,
    PALDB_RUWT_CLASSES,
    ReaderLogic,
    TrustedDBReader,
    TrustedDBWriter,
    UntrustedDBReader,
    UntrustedDBWriter,
    WriterLogic,
)
from repro.baselines import native_session, scone_jvm_session
from repro.batching import BatchPolicy, attach_batching
from repro.core import Partitioner, PartitionOptions, Side
from repro.core.arena import attach_arena
from repro.experiments.micro import (
    ARENA_MICRO_CLASSES,
    MICRO_CLASSES,
    TrustedCell,
    TrustedSink,
    UntrustedCell,
)
from repro.experiments.traffic_exp import DEFAULT_SLO_P95_MS, run_traffic
from repro.sgx.epc import EpcPageCache
from repro.sgx.transitions import TransitionLayer
from repro.traffic.harness import OpenLoopHarness

NAMES = ("traffic_plain", "traffic_fixed", "paldb_kv", "rmi_crossings")

#: Full sizes: requests (traffic), keys (PalDB), invocations per
#: Fig. 4a scenario (RMI).
FULL_SIZE = {
    "traffic_plain": 16_000,
    "traffic_fixed": 16_000,
    "paldb_kv": 100_000,
    "rmi_crossings": 100_000,
}

#: Seeds used when none is given: the traffic ablation's and
#: :class:`KvWorkload`'s own defaults.
DEFAULT_SEED = {
    "traffic_plain": 13_117,
    "traffic_fixed": 13_117,
    "paldb_kv": 42,
    "rmi_crossings": 13_117,
}

TRAFFIC_RATE_PER_S = 50_000.0

#: Latency limit for goodput: the traffic ablation's p95 objective.
LIMIT_NS = DEFAULT_SLO_P95_MS * 1e6

ARENA_LIST_SIZES = (1_000, 4_000, 16_000)
ARENA_PUSHES = 256
ARENA_BATCH = 16
RMI_PAYLOAD = 1_000

#: Fig. 4a scenarios: (label, class, caller side, passes a list).
RMI_SCENARIOS = (
    ("proxy-out->in", TrustedCell, Side.UNTRUSTED, False),
    ("proxy-in->out", UntrustedCell, Side.TRUSTED, False),
    ("concrete-out", UntrustedCell, Side.UNTRUSTED, False),
    ("concrete-in", TrustedCell, Side.TRUSTED, False),
    ("proxy-out->in+s", TrustedCell, Side.UNTRUSTED, True),
    ("proxy-in->out+s", UntrustedCell, Side.TRUSTED, True),
)

#: Fig. 7/10 configurations: (label, writer, reader, session factory).
PALDB_LEGS: Tuple[Tuple[str, type, type, Callable[[], Any]], ...] = (
    (
        "NoSGX",
        UntrustedDBWriter,
        UntrustedDBReader,
        lambda: native_session(name="paldb"),
    ),
    (
        "NoPart",
        UntrustedDBWriter,
        UntrustedDBReader,
        lambda: Partitioner(PartitionOptions(name="paldb_nopart"))
        .unpartitioned([WriterLogic, ReaderLogic])
        .start(),
    ),
    (
        "Part(RTWU)",
        UntrustedDBWriter,
        TrustedDBReader,
        lambda: Partitioner(PartitionOptions(name="paldb_rtwu"))
        .partition(list(PALDB_RTWU_CLASSES))
        .start(),
    ),
    (
        "Part(RUWT)",
        TrustedDBWriter,
        UntrustedDBReader,
        lambda: Partitioner(PartitionOptions(name="paldb_ruwt"))
        .partition(list(PALDB_RUWT_CLASSES))
        .start(),
    ),
    (
        "SCONE+JVM",
        UntrustedDBWriter,
        UntrustedDBReader,
        lambda: scone_jvm_session(name="paldb_scone"),
    ),
)

#: Paper ratios (EXPERIMENTS.md) the PalDB legs are compared against.
PALDB_PAPER = (
    ("RTWU/NoPart", 2.5),
    ("RUWT/NoPart", 1.04),
    ("ocalls RUWT/RTWU", 23.0),
    ("RTWU/SCONE", 6.6),
    ("RUWT/SCONE", 2.8),
    ("NoPart/SCONE", 2.6),
)

#: Fig. 4a: orders of magnitude between proxy and concrete calls.
RMI_PAPER = (
    ("proxy-out->in/concrete-out", 4.0),
    ("proxy-in->out/concrete-in", 3.0),
)


class SetupOnly(Exception):
    """Raised inside a traffic run to stop it once set-up is timed."""


@dataclass
class Outcome:
    """What one run of one workload measured."""

    ops: int = 0
    #: Ops refused by admission control (a correct, typed outcome).
    shed: int = 0
    #: Ops that raised or returned a wrong result.
    failed: int = 0
    setup_s: float = 0.0
    timed_s: float = 0.0
    #: Simulated latency (ns) -> number of completed ops.
    latency_ns: Counter = field(default_factory=Counter)
    #: Simulated ns the timed ops ran over (goodput's denominator).
    span_ns: float = 0.0
    #: Ledger charged during the timed phase: category -> [count, ns].
    timed_ledger: Dict[str, List[float]] = field(default_factory=dict)
    #: Ledger of the whole run, every leg merged.
    ledger: Dict[str, List[float]] = field(default_factory=dict)
    #: Other simulated outputs the fingerprint covers.
    outputs: List[Any] = field(default_factory=list)
    #: Layer counters (scheduler steps, EPC hits, crossings, ...).
    stats: Dict[str, float] = field(default_factory=dict)
    #: Failed checks, and exceptions by type.
    errors: List[str] = field(default_factory=list)
    #: Comparison lines printed next to the metrics.
    notes: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.ops - self.shed - self.failed

    def fingerprint(self) -> str:
        """Digest of every simulated output: equal for equal seeds."""
        blob = json.dumps(
            {"ledger": self.ledger, "outputs": self.outputs},
            sort_keys=True,
            default=str,
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def merge_ledger(into: Dict[str, List[float]], delta: Mapping[str, Any]) -> None:
    for category, (count, ns) in delta.items():
        entry = into.setdefault(category, [0, 0.0])
        entry[0] += count
        entry[1] += ns


def percentile_ns(latency_ns: Counter, q: float) -> float:
    """Nearest-rank percentile over a latency -> count histogram."""
    total = sum(latency_ns.values())
    if not total:
        return 0.0
    rank = max(1, math.ceil(q * total / 100.0))
    seen = 0
    for value in sorted(latency_ns):
        seen += latency_ns[value]
        if seen >= rank:
            return value
    raise AssertionError("unreachable: rank exceeds the histogram")


@contextmanager
def _instances(*classes: type) -> Iterator[Dict[type, List[Any]]]:
    """Collect every instance of ``classes`` constructed in the block."""
    found: Dict[type, List[Any]] = {cls: [] for cls in classes}
    with ExitStack() as stack:
        for cls in classes:
            original = cls.__init__

            def init(self, *args, _original=original, _into=found[cls], **kwargs):
                _original(self, *args, **kwargs)
                _into.append(self)

            stack.enter_context(patched(cls, "__init__", init))
        yield found


def _clear(workdir: str, prefix: str) -> None:
    for entry in os.listdir(workdir):
        if entry.startswith(prefix):
            shutil.rmtree(os.path.join(workdir, entry), ignore_errors=True)


# -- traffic -------------------------------------------------------------------


def _traffic(mode: str):
    def run(seed: int, size: int, workdir: str, setup_only: bool, out: Outcome) -> None:
        started = time.perf_counter()
        original = OpenLoopHarness.run

        def timed_run(harness: Any, requests: Any) -> Any:
            out.setup_s = time.perf_counter() - started
            if setup_only:
                raise SetupOnly()
            platform = harness.scheduler.platform
            before = platform.snapshot()
            began = time.perf_counter()
            result = original(harness, requests)
            out.timed_s = time.perf_counter() - began
            merge_ledger(out.timed_ledger, platform.ledger.diff_since(before))
            out.latency_ns.update(result.latencies_ns)
            out.span_ns = result.makespan_ns
            out.stats["steps"] = result.steps
            return result

        # run_traffic writes its PalDB stores under tempfile's directory.
        with patched(tempfile, "tempdir", workdir), patched(
            OpenLoopHarness, "run", timed_run
        ):
            try:
                result = run_traffic(mode, TRAFFIC_RATE_PER_S, size, seed=seed)
            except SetupOnly:
                return
            finally:
                _clear(workdir, "traffic_")
        out.shed = result.shed_total
        out.failed = result.lost_acked + result.dup_applied
        out.check(
            result.lost_acked == 0 and result.dup_applied == 0,
            f"acked state: lost_acked={result.lost_acked} "
            f"dup_applied={result.dup_applied}",
        )
        out.check(
            result.completed + result.shed_total == size,
            f"{size} requests offered but {result.completed} completed "
            f"and {result.shed_total} shed",
        )
        out.ledger = {k: list(v) for k, v in result.ledger.items()}
        out.outputs.extend(
            [result.trace_digest, list(result.checksum), result.shed, result.now_s]
        )
        out.stats["fallback_ratio"] = result.fallback_share

    return run


# -- PalDB ---------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _kv_inputs(seed: int, size: int) -> Tuple[List[str], List[str]]:
    return KvWorkload(size, seed=seed).generate()


def _paldb(seed: int, size: int, workdir: str, setup_only: bool, out: Outcome) -> None:
    keys, values = _kv_inputs(seed, size)
    expected = sum(len(v) for v in values) & 0xFFFFFFFF
    totals: Dict[str, Tuple[float, int]] = {}
    for index, (label, writer_cls, reader_cls, factory) in enumerate(PALDB_LEGS):
        started = time.perf_counter()
        with factory() as session:
            out.setup_s += time.perf_counter() - started
            if setup_only:
                continue
            platform = session.platform
            clock = platform.clock
            path = os.path.join(workdir, f"paldb_{index}.store")
            before = platform.snapshot()
            began = time.perf_counter()
            at = clock.now_ns
            written = writer_cls(path).write_all(keys, values)
            wrote_ns = clock.now_ns - at
            at = clock.now_ns
            found, checksum = reader_cls(path).read_all(keys)
            read_ns = clock.now_ns - at
            out.timed_s += time.perf_counter() - began
            merge_ledger(out.timed_ledger, platform.ledger.diff_since(before))
            # One RMI moves every record, so a record's latency is its
            # share of the phase that carried it.
            out.latency_ns[wrote_ns / size] += size
            out.latency_ns[read_ns / size] += size
            out.span_ns += wrote_ns + read_ns
            ocalls = platform.ledger.count("transition.ocall")
            totals[label] = (platform.now_s, ocalls)
            out.check(
                written == size and found == size and checksum == expected,
                f"{label}: wrote {written}, found {found} of {size} "
                f"(checksum {checksum}, expected {expected})",
            )
            out.failed += size - min(written, found, size)
        os.remove(path)
        merge_ledger(out.ledger, platform.snapshot())
        out.outputs.append([label, platform.now_s, written, found, checksum])
    if setup_only:
        return
    seconds = {label: total[0] for label, total in totals.items()}
    measured = {
        "RTWU/NoPart": seconds["NoPart"] / seconds["Part(RTWU)"],
        "RUWT/NoPart": seconds["NoPart"] / seconds["Part(RUWT)"],
        "ocalls RUWT/RTWU": totals["Part(RUWT)"][1] / max(1, totals["Part(RTWU)"][1]),
        "RTWU/SCONE": seconds["SCONE+JVM"] / seconds["Part(RTWU)"],
        "RUWT/SCONE": seconds["SCONE+JVM"] / seconds["Part(RUWT)"],
        "NoPart/SCONE": seconds["SCONE+JVM"] / seconds["NoPart"],
    }
    out.notes.append(_paper_note("Fig. 7/10", PALDB_PAPER, measured))


# -- RMI -----------------------------------------------------------------------


def _strings(rng: random.Random, count: int) -> List[str]:
    """``count`` random strings of 8-24 letters: 16 on average, the
    paper's 16-byte strings, with lengths drawn from the seed."""
    letters = string.ascii_lowercase
    return [
        "".join(rng.choices(letters, k=rng.randint(8, 24))) for _ in range(count)
    ]


@functools.lru_cache(maxsize=1)
def _rmi_inputs(seed: int, size: int) -> Tuple[List[str], Dict[int, List[str]]]:
    """The ``+s`` payload, and one list per arena sweep point (scaled
    down with ``size``)."""
    rng = random.Random(seed)
    payload = _strings(rng, RMI_PAYLOAD)
    scale = size / FULL_SIZE["rmi_crossings"]
    pushes = {n: _strings(rng, max(1, int(n * scale))) for n in ARENA_LIST_SIZES}
    return payload, pushes


def _rmi(seed: int, size: int, workdir: str, setup_only: bool, out: Outcome) -> None:
    payload, pushes = _rmi_inputs(seed, size)
    means: Dict[str, float] = {}
    for label, cls, side, with_payload in RMI_SCENARIOS:
        started = time.perf_counter()
        options = PartitionOptions(name=f"rmi_{label}", memoize_serialization=True)
        with Partitioner(options).partition(list(MICRO_CLASSES)).start() as session:
            with session.on_side(side):
                target = cls(0)
                out.setup_s += time.perf_counter() - started
                if setup_only:
                    continue
                platform = session.platform
                clock = platform.clock
                latency = out.latency_ns
                before = platform.snapshot()
                first = clock.now_ns
                wrong = 0
                began = time.perf_counter()
                if with_payload:
                    for _ in range(size):
                        at = clock.now_ns
                        got = target.set_payload(payload)
                        latency[round(clock.now_ns - at, 3)] += 1
                        wrong += got != RMI_PAYLOAD
                else:
                    for i in range(size):
                        at = clock.now_ns
                        target.set_value(i)
                        latency[round(clock.now_ns - at, 3)] += 1
                out.timed_s += time.perf_counter() - began
                elapsed = clock.now_ns - first
        out.span_ns += elapsed
        means[label] = elapsed / size
        out.failed += wrong
        out.check(wrong == 0, f"{label}: {wrong} set_payload calls returned a wrong length")
        merge_ledger(out.timed_ledger, platform.ledger.diff_since(before))
        merge_ledger(out.ledger, platform.snapshot())
        out.outputs.append([label, elapsed])
    for with_arena in (False, True):
        for list_size, values in pushes.items():
            label = f"{'arena' if with_arena else 'classic'}-{list_size}"
            started = time.perf_counter()
            options = PartitionOptions(name="bench_arena")
            with Partitioner(options).partition(list(ARENA_MICRO_CLASSES)).start() as session:
                attach_batching(
                    session, BatchPolicy(max_batch=ARENA_BATCH, window_ns=1e12)
                )
                if with_arena:
                    attach_arena(session, capacity=64 << 20)
                with session.on_side(Side.UNTRUSTED):
                    sink = TrustedSink()
                    out.setup_s += time.perf_counter() - started
                    if setup_only:
                        continue
                    platform = session.platform
                    clock = platform.clock
                    before = platform.snapshot()
                    first = clock.now_ns
                    began = time.perf_counter()
                    for index in range(ARENA_PUSHES):
                        at = clock.now_ns
                        sink.push(values)
                        if index == ARENA_PUSHES - 1:
                            # A trailing partial batch lands with the last push.
                            session.runtime.batcher.flush()
                        out.latency_ns[round(clock.now_ns - at, 3)] += 1
                    out.timed_s += time.perf_counter() - began
                    elapsed = clock.now_ns - first
                    merge_ledger(
                        out.timed_ledger, platform.ledger.diff_since(before)
                    )
                    pushed = sink.total_pushed()
            out.span_ns += elapsed
            expected = ARENA_PUSHES * len(values)
            out.check(
                pushed == expected,
                f"{label}: sink holds {pushed} strings, expected {expected}",
            )
            if pushed != expected:
                out.failed += ARENA_PUSHES
            merge_ledger(out.ledger, platform.snapshot())
            out.outputs.append([label, elapsed, pushed])
    if setup_only:
        return
    measured = {
        "proxy-out->in/concrete-out": math.log10(
            means["proxy-out->in"] / means["concrete-out"]
        ),
        "proxy-in->out/concrete-in": math.log10(
            means["proxy-in->out"] / means["concrete-in"]
        ),
    }
    out.notes.append(_paper_note("Fig. 4a orders of magnitude", RMI_PAPER, measured))


def _paper_note(figure: str, paper: Tuple[Tuple[str, float], ...], measured: Dict[str, float]) -> str:
    errors = [abs(measured[name] / reference - 1.0) for name, reference in paper]
    parts = ", ".join(
        f"{name} {measured[name]:.2f} (paper {reference:g})" for name, reference in paper
    )
    return (
        f"paper_err_pct {100.0 * sum(errors) / len(errors):.2f} % "
        f"mean |sim/paper - 1| over {figure}: {parts}"
    )


# -- entry point -------------------------------------------------------------------

RUNNERS: Dict[str, Callable[..., None]] = {
    "traffic_plain": _traffic("plain"),
    "traffic_fixed": _traffic("fixed"),
    "paldb_kv": _paldb,
    "rmi_crossings": _rmi,
}


def offered_ops(name: str, size: int = 0) -> int:
    """Ops one run of ``name`` offers: requests, PalDB puts and gets, or
    RMI invocations and pushes."""
    size = size or FULL_SIZE[name]
    if name == "paldb_kv":
        return 2 * size * len(PALDB_LEGS)
    if name == "rmi_crossings":
        return len(RMI_SCENARIOS) * size + 2 * len(ARENA_LIST_SIZES) * ARENA_PUSHES
    return size


def run_workload(
    name: str,
    seed: int,
    workdir: str,
    size: int = 0,
    setup_only: bool = False,
) -> Outcome:
    """Run workload ``name`` once at ``size`` (0: full size).

    With ``setup_only`` the workload stops once its set-up is timed.
    Layer counters come from the instances the run constructs.
    """
    out = Outcome(ops=0 if setup_only else offered_ops(name, size))
    with _instances(TransitionLayer, EpcPageCache) as made:
        RUNNERS[name](seed, size or FULL_SIZE[name], workdir, setup_only, out)
        # A pool-contended layer shares its base layer's stats object.
        transitions = {id(t.stats): t.stats for t in made[TransitionLayer]}.values()
        out.stats["crossings"] = sum(s.crossings for s in transitions)
        out.stats["logical_calls"] = sum(s.logical_calls for s in transitions)
        out.stats["epc_hits"] = sum(e.stats.hits for e in made[EpcPageCache])
        out.stats["epc_accesses"] = sum(e.stats.accesses for e in made[EpcPageCache])
    return out
