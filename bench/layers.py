"""Spans around the program's layers, and the per-layer metrics they give.

The traced pass installs thin wrappers over the functions the driver
(:mod:`repro.core.algorithm`) and the service (:mod:`repro.serve.service`)
call into, by swapping module and class attributes — the same patching
``benchmarks/bench_pairs.py`` uses — and removes them afterwards.  Nothing
under ``src/`` knows about the benchmark.

A span is one call: name, start, end, parent span and job.  Parents are
tracked per thread, so the service's worker thread and the client thread
each build their own tree.  A layer's self time is its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    job: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "job": self.job,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Recorder:
    """Collects spans in memory; times are seconds since the recorder began."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, job: str | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else None,
            thread=threading.get_ident(),
            start=time.perf_counter() - self._origin,
            job=job if job is not None else (parent.job if parent else None),
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._origin
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def finished(self) -> list[Span]:
        """All spans, each carrying its root's job id."""
        by_id = {span.id: span for span in self.spans}
        for span in self.spans:
            root = span
            while root.job is None and root.parent is not None:
                root = by_id[root.parent]
            span.job = root.job
        return sorted(self.spans, key=lambda span: span.start)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.seconds
    return {span.id: span.seconds - child_time.get(span.id, 0.0) for span in spans}


# -- the wraps -------------------------------------------------------------


def _arg(position: int, keyword: str):
    """Span attribute ``level`` taken from one call argument."""

    def attrs(args, kwargs):
        value = kwargs.get(keyword, args[position] if len(args) > position else None)
        return {"level": int(value)} if value is not None else {}

    return attrs


def _seed_level(args, kwargs):
    return {"level": "seed"}


def _job_of_record(args, kwargs):
    return {"job": args[1].job_id}


#: (owner, attribute, span name, attrs-from-arguments).  An owner is a
#: module path or ``"module:Class"``.
TARGETS = (
    ("repro.core.algorithm", "validate_encoded_matrix", "onehot", None),
    ("repro.core.onehot:FeatureSpace", "from_matrix", "onehot", None),
    ("repro.core.onehot:FeatureSpace", "encode", "onehot", None),
    ("repro.core.algorithm", "create_and_score_basic_slices", "basic", None),
    ("repro.core.algorithm", "get_pair_candidates", "pairs", _arg(2, "level")),
    ("repro.linalg.kernels:KernelState", "begin_level", "kernels", _arg(2, "level")),
    ("repro.core.algorithm", "evaluate_slices", "evaluate", _arg(3, "level")),
    ("repro.core.algorithm", "evaluate_slice_set", "evaluate", _seed_level),
    ("repro.core.compaction:CompactionState", "initial", "compaction", None),
    ("repro.core.compaction:CompactionState", "begin_level", "compaction", None),
    ("repro.core.compaction:CompactionState", "project_slices", "compaction", None),
    ("repro.core.algorithm", "maintain_topk", "topk", None),
    ("repro.core.algorithm", "decode_topk", "decode", None),
    ("repro.core.algorithm", "save_checkpoint", "checkpoint", None),
    ("repro.core.algorithm", "fingerprint_inputs", "checkpoint", None),
    ("repro.core.algorithm", "fingerprint_config", "checkpoint", None),
    ("repro.serve.service", "slice_line", "find", None),
    ("repro.serve.service:SliceService", "submit", "serve.submit", None),
    ("repro.serve.service:SliceService", "_execute", "serve.execute", _job_of_record),
    ("repro.serve.service", "fingerprint_inputs", "serve.fingerprint", None),
    ("repro.serve.service", "fingerprint_config", "serve.fingerprint", None),
    ("repro.serve.service", "fingerprint_digest", "serve.fingerprint", None),
    ("repro.serve.durability:JobJournal", "append", "serve.wal_append", None),
    ("repro.serve.cache:ResultCache", "put", "serve.cache_put", None),
)


def resolve_owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _wrapped(recorder: Recorder, function, name: str, describe):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        attrs = describe(args, kwargs) if describe is not None else {}
        with recorder.span(name, **attrs):
            return function(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block, then restore it.

    The raw attribute (``vars(owner)[name]``) is saved and put back, so a
    ``classmethod`` stays a ``classmethod`` and the restored attribute is
    the very object that was there before.
    """
    saved = []
    try:
        for path, attribute, name, describe in TARGETS:
            owner = resolve_owner(path)
            raw = vars(owner)[attribute]
            if isinstance(raw, classmethod):
                replacement = classmethod(
                    _wrapped(recorder, raw.__func__, name, describe)
                )
            else:
                replacement = _wrapped(recorder, raw, name, describe)
            saved.append((owner, attribute, raw))
            setattr(owner, attribute, replacement)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)


# -- per-layer metrics -------------------------------------------------------


def _median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], results, serve: dict | None = None) -> dict:
    """Per-layer metrics of one traced pass.

    *spans* are the pass's finished spans, *results* the
    :class:`~repro.core.types.SliceLineResult` of every search that ran
    (each enumerated once), and *serve* the service-side figures of a serve
    pass (``None`` for a find workload).  ``trace.overhead_frac`` is
    filled in by the caller, which knows the untraced time.
    """
    own = self_seconds(spans)

    def seconds(name: str, level=None) -> float:
        return sum(
            own[span.id]
            for span in spans
            if span.name == name
            and (level is None or span.attrs.get("level") == level)
        )

    def per_call(name: str) -> list[float]:
        return [span.seconds for span in spans if span.name == name]

    levels = [record for result in results for record in result.counters.levels]
    first = [record for record in levels if record.level == 1]
    deep = [record for record in levels if record.level >= 2]

    def total(attribute: str, records=deep) -> float:
        return sum(getattr(record, attribute) for record in records)

    # One evaluation cell is one (candidate, data row) pair the kernel
    # tested; compaction shrinks the rows a level evaluates against.
    cells = 0
    retained_rows = 0
    for result in results:
        evaluated = [r for r in result.counters.levels if r.level >= 2 and r.evaluated]
        for record in evaluated:
            cells += record.evaluated * (record.rows_alive or result.num_rows)
        if evaluated:
            retained_rows += evaluated[-1].rows_alive or result.num_rows
        else:
            retained_rows += result.num_rows
    num_rows = sum(result.num_rows for result in results)
    deep_evaluate = sum(
        own[span.id]
        for span in spans
        if span.name == "evaluate" and span.attrs.get("level") != "seed"
    )
    # One submit runs the three fingerprint helpers; report them per submit.
    submits = len(per_call("serve.submit"))
    serve = serve or {}
    return {
        "onehot.encode_s": seconds("onehot"),
        "basic.s": seconds("basic"),
        "basic.valid_frac": _share(total("valid", first), total("evaluated", first)),
        "pairs.s": seconds("pairs"),
        "pairs.l2_s": seconds("pairs", 2),
        "pairs.l3_s": seconds("pairs", 3),
        "pairs.join_s": total("join_seconds"),
        "pairs.dedup_s": total("dedup_seconds"),
        "pairs.prune_s": total("prune_seconds"),
        "pairs.keys_s": total("keys_seconds"),
        "pairs.generated": total("pairs_generated"),
        "pairs.emitted": total("candidates_emitted"),
        "pairs.emit_frac": _share(
            total("candidates_emitted"), total("pairs_generated")
        ),
        "pairs.dedup_removed": total("dedup_removed"),
        "kernels.s": seconds("kernels"),
        "evaluate.s": seconds("evaluate"),
        "evaluate.l2_s": seconds("evaluate", 2),
        "evaluate.l3_s": seconds("evaluate", 3),
        "evaluate.evaluated": total("evaluated"),
        "evaluate.memberships": total("indicator_nnz"),
        "evaluate.ns_per_cell": _share(1e9 * deep_evaluate, cells),
        "evaluate.valid_frac": _share(total("valid"), total("evaluated")),
        "evaluate.skipped_frac": _share(
            total("skipped_by_priority"), total("candidates_emitted")
        ),
        "compaction.s": seconds("compaction"),
        "compaction.rows_retained": _share(retained_rows, num_rows),
        "topk.s": seconds("topk"),
        "topk.calls": len(per_call("topk")),
        "decode.s": seconds("decode"),
        "driver.other_s": seconds("find"),
        "checkpoint.s": seconds("checkpoint"),
        "checkpoint.writes": sum(
            result.counters.events.get("checkpoint.write", 0) for result in results
        ),
        "checkpoint.mb": serve.get("checkpoint_bytes", 0) / 1e6,
        "serve.submit_ms": _median_ms(per_call("serve.submit")),
        "serve.fingerprint_ms": (
            1000.0 * sum(per_call("serve.fingerprint")) / submits if submits else 0.0
        ),
        "serve.wal_append_ms": _median_ms(per_call("serve.wal_append")),
        "serve.wal_appends": len(per_call("serve.wal_append")),
        "serve.cache_put_ms": _median_ms(per_call("serve.cache_put")),
        "serve.queue_wait_ms": _median_ms(serve.get("queue_wait_s", [])),
        "serve.run_s": (
            statistics.median(serve["run_s"]) if serve.get("run_s") else 0.0
        ),
        "serve.hit_frac": serve.get("hit_frac", 0.0),
        "serve.warm_starts": serve.get("warm_starts", 0),
        "serve.hit_ms": _median_ms(serve.get("hit_s", [])),
        "serve.hit_p90_ms": (
            1000.0 * statistics.quantiles(serve["hit_s"], n=10)[-1]
            if len(serve.get("hit_s", [])) >= 2
            else 0.0
        ),
        "trace.overhead_frac": 0.0,
    }
