"""Traced single-process replay of a workload's input, with no Ray.

The replay calls the functions the engine's workers call, in the order
they call them: ``_Router`` / ``_Prep``, ``_WorkerCore.process_shard``,
``advance_watermark``, ``snapshot``, ``restore`` and ``pq.write_table`` for
the streaming engine; ``_Prep`` and then ``_PartitionCEP`` per partition for
the batch engine.  :class:`Tracer` installs wrappers around those names that
record spans (name, start, end, parent, trace id = micro-batch or
partition).  Calls made once per event (``ConversationEvaluator.process``,
``MatchesEmitter.row``, ...) are summed into one span per parent instead, so
the trace stays small.  A wrapped name that no longer exists is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import gc
import json
import os
import time
import types
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from opencep_ray import engine as engine_mod
from opencep_ray import streaming as streaming_mod
from opencep_ray.evaluator import ConversationEvaluator

_ABSENT = object()


class Tracer:
    """Spans kept in memory.  Each span is ``[name, start_ns, end_ns,
    parent_index, trace_id, calls, dur_ns]``; summed spans have start and
    end of their first and last call."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []
        self.trace_id = None
        self.missing: dict = {}
        self.counters = defaultdict(float)
        self.paused_ns = 0
        self._stack: list = []
        self._summed: dict = {}
        self._undo: list = []

    # -- spans --------------------------------------------------------------
    @contextmanager
    def _span(self, name):
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else None, self.trace_id, 1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            rec[6] = rec[2] - rec[1]
            self._stack.pop()

    def span(self, name):
        return self._span(name) if self.enabled else nullcontext()

    def _add_summed(self, name, t0, t1):
        key = (self._stack[-1] if self._stack else None, name)
        idx = self._summed.get(key)
        if idx is None:
            self._summed[key] = len(self.spans)
            self.spans.append([name, t0, t1, key[0], self.trace_id, 1,
                               t1 - t0])
        else:
            rec = self.spans[idx]
            rec[2] = t1
            rec[5] += 1
            rec[6] += t1 - t0

    @contextmanager
    def paused(self):
        """Time spent collecting counters, excluded from the replay wall."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.paused_ns += time.perf_counter_ns() - t0

    # -- wrappers -----------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, summed: bool = False,
             count=None, count_before=None):
        """Wraps ``owner.attr``.  ``count(args, result)`` may return
        ``{counter: increment}``; it runs outside the span, after the call,
        and ``count_before(args, None)`` before it."""
        if not self.enabled:
            return
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.missing[name] = f"{attr} no longer exists"
            return
        raw = vars(owner).get(attr, _ABSENT)
        tracer = self

        if summed:
            def wrapper(*args, **kwargs):
                if count_before is not None:
                    tracer._count(count_before, args, None)
                t0 = time.perf_counter_ns()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer._add_summed(name, t0, time.perf_counter_ns())
                if count is not None:
                    tracer._count(count, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                if count_before is not None:
                    tracer._count(count_before, args, None)
                with tracer._span(name):
                    result = orig(*args, **kwargs)
                if count is not None:
                    tracer._count(count, args, result)
                return result
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def _count(self, count, args, result):
        """Adds ``count``'s increments; ``*.peak`` counters keep the max."""
        with self.paused():
            for k, v in count(args, result).items():
                if k.endswith(".peak"):
                    self.counters[k] = max(self.counters[k], v)
                else:
                    self.counters[k] += v

    def unwrap_all(self):
        for owner, attr, raw in reversed(self._undo):
            if raw is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._undo.clear()

    # -- results ------------------------------------------------------------
    def layer_times(self) -> dict:
        """``{name: {"total_s", "self_s", "calls"}}``; self time is a
        span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child[rec[3]] += rec[6]
        out: dict = {}
        for i, rec in enumerate(self.spans):
            agg = out.setdefault(rec[0], {"total_s": 0.0, "self_s": 0.0,
                                          "calls": 0})
            agg["total_s"] += rec[6] / 1e9
            agg["self_s"] += (rec[6] - child[i]) / 1e9
            agg["calls"] += rec[5]
        return out

    def dump(self, path: str):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "trace_id", "calls", "dur_ns"],
                       "spans": self.spans, "missing": self.missing}, f)


class _TableProxy(type):
    def __getattr__(cls, name):
        return getattr(pa.Table, name)


def _pyarrow_with_traced_from_pylist(tracer: Tracer):
    """A stand-in for the ``pyarrow`` module whose ``Table.from_pylist`` is
    traced; ``pa.Table`` is a C type whose methods cannot be replaced."""
    proxy = types.ModuleType("pyarrow")
    proxy.__dict__.update(vars(pa))
    proxy.Table = _TableProxy("Table", (), {"from_pylist": staticmethod(
        pa.Table.from_pylist)})
    tracer.wrap(proxy.Table, "from_pylist", "engine.emit.from_pylist")
    return proxy


@contextmanager
def installed(tracer: Tracer, batch: bool = False):
    """Installs the wrappers for the duration of the block.  With
    ``batch``, each conversation's live partial matches are counted just
    before its end-of-stream flush, since the batch evaluator lives for one
    conversation only."""
    def rows_in_out(args, result):
        return {"prep.rows_in": args[1].num_rows,
                "prep.rows_out": result.num_rows}

    def shard_rows(args, result):
        return {"shard.rows": args[1].num_rows}

    def extract_rows(args, result):
        return {"extract.rows": len(result[0])}

    def partials_before_eos(args, result):
        return {"partial_matches.peak": _live_partials([args[0]])}

    def snapshot_bytes(args, result):
        return {"snapshot.bytes": len(result)}

    S, E = streaming_mod, engine_mod
    for module, cls, attr, name, kw in [
            (S, "_Router", "__call__", "streaming.route", {}),
            (E, "_Prep", "__call__", "engine.prep", {"count": rows_in_out}),
            (S, "_WorkerCore", "process_shard", "streaming.shard",
             {"count": shard_rows}),
            (S, "_WorkerCore", "advance_watermark", "evaluator.watermark", {}),
            (S, "_WorkerCore", "snapshot", "streaming.snapshot",
             {"count": snapshot_bytes}),
            (S, "_WorkerCore", "restore", "streaming.restore", {}),
            (E, "_PartitionCEP", "__call__", "engine.partition", {}),
            (E, None, "extract_sorted_columns", "engine.extract",
             {"count": extract_rows}),
            (E, "ConversationEvaluator", "process", "evaluator.process",
             {"summed": True}),
            (E, "ConversationEvaluator", "eos", "evaluator.eos",
             {"summed": True,
              "count_before": partials_before_eos if batch else None}),
            (E, "MatchesEmitter", "row", "engine.emit.row", {"summed": True})]:
        owner = module if cls is None else getattr(module, cls, None)
        tracer.wrap(owner, attr, name, **kw)
    saved = {m: m.pa for m in (engine_mod, streaming_mod)}
    if tracer.enabled:
        proxy = _pyarrow_with_traced_from_pylist(tracer)
        for m in saved:
            m.pa = proxy
    try:
        yield tracer
    finally:
        for m, real in saved.items():
            m.pa = real
        tracer.unwrap_all()


def _ipc_bytes(table: pa.Table) -> int:
    sink = pa.MockOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.size()


def _live_partials(evaluators) -> int:
    count = getattr(ConversationEvaluator, "_live_pm_count", None)
    if count is None:
        return -1
    return sum(count(ev) for ev in evaluators
               if isinstance(ev, ConversationEvaluator))


def _write(tracer: Tracer, table: pa.Table, path: str) -> int:
    """The worker sink: tmp file + atomic rename, as ``_StreamWorker``."""
    if table.num_rows == 0:
        return 0
    with tracer.span("streaming.write"):
        pq.write_table(table, path + ".tmp")
        os.replace(path + ".tmp", path)
    with tracer.paused():
        tracer.counters["write.matches"] += table.num_rows
        tracer.counters["write.bytes"] += os.path.getsize(path)
        for pid, n in zip(*_pattern_counts(table)):
            tracer.counters[f"matches.p{pid}"] += n
    return table.num_rows


def _pattern_counts(table: pa.Table):
    vc = pc.value_counts(table["pattern_id"])
    return vc.field("values").to_pylist(), vc.field("counts").to_pylist()


def replay_streaming(tracer: Tracer, engine, files: list, out_dir: str,
                     micro_batch_rows: int, generation_ends=None) -> float:
    """Replays ``StreamingCEP.run_files`` over ``files`` in this process.
    ``generation_ends`` lists, for a live run, the number of spool files
    each ``run_live_jsonl`` generation saw; every generation starts fresh
    worker cores from the previous generation's snapshot.  Returns the
    replay's wall seconds, without counter collection.

    Automatic garbage collection is off and a full collection runs every
    eighth micro-batch, as in the engine's worker processes."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _replay_streaming(tracer, engine, files, out_dir,
                                 micro_batch_rows, generation_ends)
    finally:
        if gc_was_enabled:
            gc.enable()


def _replay_streaming(tracer, engine, files, out_dir, micro_batch_rows,
                      generation_ends):
    from opencep_ray.engine import build_type_prefilters
    from opencep_ray.streaming import _Router, _WorkerCore

    cfg, W = engine.cfg, engine.num_workers
    os.makedirs(out_dir, exist_ok=True)
    live = generation_ends is not None
    ends = generation_ends or [len(files)]
    t_start = time.perf_counter_ns()
    paused0 = tracer.paused_ns
    emitter = engine._default_emitter(files[0])
    prefilters = build_type_prefilters(engine.compiled) \
        if cfg.vector_pushdown else {}
    router = _Router(cfg, engine.types_needed, W, engine.max_window_us,
                     prefilters)
    c = tracer.counters
    blobs = None
    done = -1
    last_ck = -1
    cores = []
    for g, end in enumerate(ends):
        final = g == len(ends) - 1
        cores = [_WorkerCore(engine.compiled, cfg, emitter,
                             router.prep.slice_len_us, False, None,
                             engine.key_contiguous_input) for _ in range(W)]
        if blobs is not None:
            for core, blob in zip(cores, blobs):
                core.restore(blob)
        batch_id = done
        for batch_id, slices in engine._micro_batch_plan(
                files[:end], micro_batch_rows, file_aligned=live):
            if batch_id <= done:
                continue
            tracer.trace_id = batch_id
            with tracer.span("sources.read"):
                parts = [pq.ParquetFile(path).read_row_group(rg)
                         .slice(lo, hi - lo) for path, rg, lo, hi in slices]
                table = pa.concat_tables(parts) if len(parts) > 1 \
                    else parts[0]
                table = table.replace_schema_metadata(None)
            shards = router(table)
            if tracer.enabled:
                with tracer.paused():
                    c["read.rows"] += table.num_rows
                    c["read.bytes"] += table.nbytes
                    rows = [s.num_rows for s in shards]
                    c["route.max_rows"] += max(rows)
                    c["route.mean_rows"] += sum(rows) / W
                    c["transfer.bytes"] += sum(_ipc_bytes(s) for s in shards)
                    c["batches"] += 1
            for w in range(W):
                _write(tracer, cores[w].process_shard(shards[w]),
                       os.path.join(out_dir,
                                    f"part-b{batch_id:06d}-w{w:03d}.parquet"))
            if engine.ts_ordered_input and table.num_rows:
                ts = pc.cast(table[cfg.ts_col], pa.timestamp("us"))
                max_ts = pc.max(pc.cast(ts, pa.int64())).as_py()
                for w in range(W):
                    _write(tracer, cores[w].advance_watermark(max_ts),
                           os.path.join(out_dir, f"part-b{batch_id:06d}"
                                                 f"-wm-w{w:03d}.parquet"))
            if batch_id % 8 == 7:
                gc.collect()
            if batch_id - last_ck >= engine.checkpoint_every:
                blobs = [core.snapshot() for core in cores]
                last_ck = batch_id
            if tracer.enabled:
                with tracer.paused():
                    evs = [ev for core in cores
                           for ev in core.evaluators.values()]
                    c["live_conversations.peak"] = max(
                        c["live_conversations.peak"], len(evs))
                    c["partial_matches.peak"] = max(
                        c["partial_matches.peak"], _live_partials(evs))
        done = batch_id
        if not final:
            blobs = [core.snapshot() for core in cores]
            last_ck = done
    tracer.trace_id = "eos"
    for w in range(W):
        _write(tracer, cores[w].eos(),
               os.path.join(out_dir, f"part-eos-w{w:03d}.parquet"))
    if not live and blobs is not None:
        # restore once, so the backfill reports restore cost too
        _WorkerCore(engine.compiled, cfg, emitter, router.prep.slice_len_us,
                    False, None, engine.key_contiguous_input).restore(blobs[0])
    return (time.perf_counter_ns() - t_start
            - (tracer.paused_ns - paused0)) / 1e9


def replay_batch(tracer: Tracer, cep, files: list) -> float:
    """Replays ``CEP.run`` in this process: ``_Prep`` per input file, then
    ``_PartitionCEP`` per partition.  Returns wall seconds without counter
    collection."""
    from opencep_ray.engine import _PartitionCEP, _Prep

    t_start = time.perf_counter_ns()
    paused0 = tracer.paused_ns
    cfg = cep.cfg
    prep = _Prep(cfg, cep.types_needed, cfg.num_partitions,
                 cep.max_window_us, cep._prefilters())
    prepped = []
    for i, path in enumerate(files):
        tracer.trace_id = f"file-{i}"
        with tracer.span("sources.read"):
            table = pq.read_table(path)
        if tracer.enabled:
            with tracer.paused():
                tracer.counters["read.rows"] += table.num_rows
                tracer.counters["read.bytes"] += table.nbytes
        prepped.append(prep(table))
    prepped = pa.concat_tables(prepped)
    emitter = cep._emitter_for(pq.read_schema(files[0]))
    evaluate = _PartitionCEP(cep.compiled, cfg, emitter, prep.slice_len_us)
    for p in sorted(pc.unique(prepped["_part"]).to_pylist()):
        tracer.trace_id = f"part-{p}"
        out = evaluate(prepped.filter(pc.equal(prepped["_part"], p)))
        if tracer.enabled and out.num_rows:
            with tracer.paused():
                tracer.counters["write.matches"] += out.num_rows
                for pid, n in zip(*_pattern_counts(out)):
                    tracer.counters[f"matches.p{pid}"] += n
    return (time.perf_counter_ns() - t_start
            - (tracer.paused_ns - paused0)) / 1e9
