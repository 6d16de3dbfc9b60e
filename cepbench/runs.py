"""One workload run, in a fresh process that owns its Ray session.

    python3 cepbench/runs.py SPEC.json

``SPEC.json`` names the workload, seed, seconds, trace flag, input and work
directories and the result path.  The run writes its result JSON there:
end-to-end metrics, per-layer metrics when tracing, and the output check.
``run.py`` starts this process with a hard timeout.
"""

from __future__ import annotations

import glob
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from cepbench import check, proctree, trace  # noqa: E402
from cepbench.inputs import rng_seed  # noqa: E402
from cepbench.patterns import (batch_patterns, flagship_patterns,  # noqa: E402
                               live_patterns)

# Conversations checked against the oracle per engine pass.
SAMPLE = 40
REPLAY_BATCH_ROWS = 20_000
CHECKPOINT_EVERY = 4
# Live: spool file size and the rows between engine generations.
LIVE_FILE_ROWS = 2_000
LIVE_GENERATION_ROWS = 6_000


def median(xs):
    return statistics.median(xs) if xs else None


def tail_percentile(samples: list) -> tuple:
    """``(p50, tail, q, n)``: the tail is p99 when at least ten samples lie
    beyond it, else the highest percentile that has ten beyond it (the
    maximum below twenty samples)."""
    n = len(samples)
    if not n:
        return None, None, None, 0
    s = sorted(samples)
    q = 0.99 if n >= 1000 else (1 - 10 / n if n >= 20 else 1.0)
    return s[n // 2], s[min(n - 1, int(q * n))], q, n


def latencies_ms(out_dir: str, due_s=None) -> list:
    """One sample per committed match: the mtime of its part file minus its
    due time.  That is ``due_s`` for closed-loop runs, where all input is
    due once the engine is ready (set-up time is its own metric), and the
    ``last_ts`` of the match for the live run."""
    out = []
    for path in glob.glob(os.path.join(out_dir, "*.parquet")):
        mtime = os.stat(path).st_mtime
        if due_s is not None:
            n = pq.read_metadata(path).num_rows
            out.extend([(mtime - due_s) * 1e3] * n)
        else:
            last = pc.cast(pc.cast(pq.read_table(path, columns=["last_ts"])
                                   ["last_ts"], pa.timestamp("us")),
                           pa.int64()).to_numpy()
            out.extend((mtime * 1e3 - last / 1e3).tolist())
    return out


def read_outputs(out_dir: str, convs) -> pa.Table:
    """The committed matches of ``convs``."""
    files = sorted(glob.glob(os.path.join(out_dir, "*.parquet")))
    keep = [("conv_id", "in", list(convs))]
    return pa.concat_tables([pq.read_table(f, filters=keep) for f in files]) \
        if files else None


def pass_metrics(turns: int, wall: float, setup: float, win,
                 latencies: list) -> dict:
    """The end-to-end metrics of one pass over ``turns`` input turns."""
    p50, tail, q, n = tail_percentile(latencies)
    return {"setup_s": setup,
            "turns_per_s": turns / (wall - setup),
            "cpu_us_per_turn": win.cpu / turns * 1e6,
            "peak_rss_mb": win.peak_rss_mb,
            "match_latency_p50_ms": p50,
            "match_latency_p99_ms": tail,
            "latency_q": q, "latency_n": n}


class Window:
    """CPU time of the process tree and peak worker RSS over one timed
    window, from a running :class:`proctree.TreeMonitor`."""

    def __init__(self, monitor):
        self.monitor = monitor

    def __enter__(self):
        self.monitor.take_peak_rss_mb()
        self.cpu0 = self.monitor.cpu_sec()
        return self

    def __exit__(self, *exc):
        self.cpu = self.monitor.cpu_sec() - self.cpu0
        self.peak_rss_mb = self.monitor.take_peak_rss_mb()


def routed_rows(table: pa.Table, patterns) -> int:
    """Turns whose type some pattern uses: what the workers must ingest."""
    from opencep_ray.evaluator import compile_patterns
    types = sorted({t for cp in compile_patterns(patterns) for t in cp.routes})
    return pc.sum(pc.is_in(table["role"], value_set=pa.array(types))).as_py()


# ---------------------------------------------------------------------------
# Workloads.  Each returns ``(passes, layers, checks, traced)``: per-pass
# end-to-end metrics, per-layer metrics of the untraced run, one output
# check per engine pass, and the traced replay's result (None untraced).


def replay_contig(spec, monitor):
    from opencep_ray.engine import transcript_config
    from opencep_ray.streaming import StreamingCEP

    files = sorted(glob.glob(os.path.join(spec["input"], "*.parquet")))
    table = pa.concat_tables([pq.read_table(f) for f in files])
    patterns = flagship_patterns()
    expected = routed_rows(table, patterns)
    reference = {}

    def engine():
        return StreamingCEP(patterns, transcript_config(),
                            num_workers=spec["workers"],
                            checkpoint_every=CHECKPOINT_EVERY,
                            key_contiguous_input=True)

    out = os.path.join(spec["work"], "out")
    engine().run_files(files[:1], out + "-warmup", resume=False,
                       micro_batch_rows=REPLAY_BATCH_ROWS)
    shutil.rmtree(out + "-warmup")
    passes, checks, busy = [], [], []
    measured = 0.0
    while not passes or (measured < spec["seconds"] and not spec["trace"]):
        shutil.rmtree(out, ignore_errors=True)
        eng = engine()
        with Window(monitor) as win:
            start = time.time()
            t0 = time.perf_counter()
            st = eng.run_files(files, out, resume=False,
                               micro_batch_rows=REPLAY_BATCH_ROWS)
            wall = time.perf_counter() - t0
        measured += wall
        passes.append(pass_metrics(
            table.num_rows, wall, st["setup_sec"], win,
            latencies_ms(out, due_s=start + st["setup_sec"])))
        busy.append(st["worker_busy_sec"]
                    / (st["workers"] * st["stream_sec"]))
        sample = check.sample_conversations(
            table, rng_seed(spec["seed"], f"sample{len(passes)}"), SAMPLE)
        checks.append(check.check_run(
            patterns, table, read_outputs(out, sample), sample,
            ingested_ok=st["rows"] == expected, expected=reference))
    layers = {"streaming.worker_busy_share": median(busy)}
    return passes, layers, checks, \
        traced(spec, "streaming", engine(), files) if spec["trace"] else None


class GenerationRecorder:
    """Passed to ``run_live_jsonl`` as its engine: forwards ``run_files``
    and records each generation's wall time, set-up time and file count."""

    def __init__(self, engine):
        self.engine = engine
        self.generations = []

    def run_files(self, files, *args, **kwargs):
        t0 = time.perf_counter()
        st = self.engine.run_files(files, *args, **kwargs)
        self.generations.append({"wall_s": time.perf_counter() - t0,
                                 "setup_s": st["setup_sec"],
                                 "files": len(files)})
        return st


def live_interleaved(spec, monitor):
    from opencep_ray.engine import transcript_config
    from opencep_ray.sources.live import json_transcript_schema, run_live_jsonl
    from opencep_ray.streaming import StreamingCEP

    turns_path = os.path.join(spec["input"], "turns.parquet")
    turns = pq.read_table(turns_path)
    with open(os.path.join(spec["input"], "time_scale.json")) as f:
        patterns = live_patterns(json.load(f))

    def engine():
        return StreamingCEP(patterns, transcript_config(),
                            num_workers=spec["workers"],
                            checkpoint_every=CHECKPOINT_EVERY,
                            ts_ordered_input=True)

    work = spec["work"]
    log, spool, out = (os.path.join(work, n) for n in ("live.jsonl", "spool",
                                                       "out"))
    late_path = os.path.join(work, "generator.json")
    # warm the Ray driver and worker pool on the first spool-sized slice
    warm = os.path.join(work, "warmup")
    os.makedirs(warm)
    pq.write_table(turns.slice(0, LIVE_FILE_ROWS).drop_columns(["due_us"])
                   .append_column("ts", pc.cast(turns["due_us"].slice(
                       0, LIVE_FILE_ROWS), pa.int64())),
                   os.path.join(warm, "w.parquet"))
    engine().run_files([os.path.join(warm, "w.parquet")],
                       os.path.join(warm, "out"), resume=False)
    shutil.rmtree(warm)

    rec = GenerationRecorder(engine())
    gen = subprocess.Popen([sys.executable,
                            os.path.join(ROOT, "cepbench", "generator.py"),
                            turns_path, log, late_path])
    monitor.exclude(gen.pid)
    try:
        with Window(monitor) as win:
            st = run_live_jsonl(rec, log, spool, out,
                                json_transcript_schema(),
                                rows_per_file=LIVE_FILE_ROWS,
                                generation_rows=LIVE_GENERATION_ROWS,
                                micro_batch_rows=LIVE_FILE_ROWS,
                                poll_sec=0.01, idle_timeout_sec=30,
                                min_batch_bytes=1 << 14)
            end = time.time()
    finally:
        gen.wait(timeout=60)
    with open(late_path) as f:
        late = json.load(f)
    start_us = late["start_us"]
    wall = end - start_us / 1e6
    setup = median([g["setup_s"] for g in rec.generations])
    passes = [pass_metrics(turns.num_rows, wall, setup, win,
                           latencies_ms(out))]

    spool_files = st["spool_files"]
    spool_rows = sum(pq.read_metadata(f).num_rows for f in spool_files)
    lag = []
    for f in spool_files:
        newest = pc.max(pq.read_table(f, columns=["ts"])["ts"]).as_py()
        lag.append((os.stat(f).st_mtime - newest / 1e6) * 1e3)
    table = turns.drop_columns(["due_us"]).append_column(
        "ts", pc.add(turns["due_us"], start_us))
    ingested = spool_rows == turns.num_rows \
        and st["rows"] == routed_rows(table, patterns)
    # one pass only, so it checks as many conversations as three passes
    sample = check.sample_conversations(
        table, rng_seed(spec["seed"], "sample"), 3 * SAMPLE)
    checks = [check.check_run(patterns, table, read_outputs(out, sample),
                              sample, ingested_ok=ingested)]
    layers = {"sources.live.spool_lag_ms": median(lag),
              "sources.live.drain_s": end - late["end_us"] / 1e6,
              "generator_late_p99_ms": late["late_p99_ms"],
              "streaming.generation_s": median(
                  [g["wall_s"] for g in rec.generations]),
              "streaming.generation_setup_s": setup}
    return passes, layers, checks, \
        traced(spec, "streaming", engine(), spool_files,
               [g["files"] for g in rec.generations]) if spec["trace"] \
        else None


def _operators(summary) -> list:
    """Operator stats of a dataset, the last operator first."""
    ops = list(summary.operators_stats)
    for parent in summary.parents:
        ops.extend(_operators(parent))
    return ops


def exchange_metrics(ops, turns: int) -> dict:
    """Per-layer metrics of the sort-based exchange's two sub-operators;
    None where an operator is not in the stats."""
    by_name = {o.operator_name: o for o in ops}
    smap, sreduce = by_name.get("SortMap"), by_name.get("SortReduce")
    return {
        "engine.exchange.s": smap.wall_time["sum"] + sreduce.wall_time["sum"]
        if smap and sreduce else None,
        "engine.exchange.bytes_per_turn":
        smap.output_size_bytes["sum"] / turns if smap else None,
        "engine.partition.skew": sreduce.output_num_rows["max"]
        / sreduce.output_num_rows["mean"] if sreduce else None}


def batch_skewed(spec, monitor):
    import ray.data as rd

    from opencep_ray.engine import CEP, _Prep, transcript_config

    files = sorted(glob.glob(os.path.join(spec["input"], "*.parquet")))
    with open(os.path.join(spec["input"], "hot_keys.json")) as f:
        hot = json.load(f)
    table = pa.concat_tables([pq.read_table(f) for f in files])
    patterns = batch_patterns()
    cfg = transcript_config(num_partitions=4 * spec["cpus"], hot_keys=hot)
    cep = CEP(patterns, cfg)
    prep_rows = _Prep(cfg, cep.types_needed, cfg.num_partitions,
                      cep.max_window_us, cep._prefilters())(table).num_rows
    reference = {}
    out = os.path.join(spec["work"], "out")

    def one_pass(paths):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        t0 = time.perf_counter()
        res = CEP(patterns, cfg).run(rd.read_parquet(paths))
        setup = time.perf_counter() - t0
        ready = time.time()
        for i, block in enumerate(res.iter_batches(batch_format="pyarrow",
                                                   batch_size=None)):
            pq.write_table(block, os.path.join(out, f"m-{i:05d}.parquet"))
        return setup, time.perf_counter() - t0, ready, \
            res._get_stats_summary()

    one_pass(files)
    passes, checks, exchange = [], [], []
    measured = 0.0
    while not passes or (measured < spec["seconds"] and not spec["trace"]):
        with Window(monitor) as win:
            setup, wall, ready, summary = one_pass(files)
        measured += wall
        ops = _operators(summary)
        # the first operator is the read, fused with _Prep or not: it must
        # emit every generated turn, or exactly what _Prep keeps of them
        first_rows = ops[-1].output_num_rows["sum"]
        passes.append(pass_metrics(table.num_rows, wall, setup, win,
                                   latencies_ms(out, due_s=ready)))
        exchange.append(exchange_metrics(ops, table.num_rows))
        sample = check.sample_conversations(
            table, rng_seed(spec["seed"], f"sample{len(passes)}"), SAMPLE,
            exclude=hot)
        checks.append(check.check_run(
            patterns, table, read_outputs(out, sample + hot), sample, hot,
            ingested_ok=first_rows in (table.num_rows, prep_rows),
            expected=reference))
    layers = {k: median([e[k] for e in exchange if e[k] is not None])
              for k in exchange[0]}
    return passes, layers, checks, \
        traced(spec, "batch", cep, files) if spec["trace"] \
        else None


# ---------------------------------------------------------------------------
# Traced replay → per-layer metrics


def traced(spec, kind: str, engine, files, generation_ends=None) -> dict:
    """Runs the single-process replay with wrappers off, then on, and turns
    the traced run's spans and counters into per-layer metrics.  A replay
    that fails (an internal it calls is gone) is reported, not raised."""
    out = os.path.join(spec["work"], "replay")

    def replay(tracer):
        shutil.rmtree(out, ignore_errors=True)
        with trace.installed(tracer, batch=kind == "batch"):
            if kind == "batch":
                return trace.replay_batch(tracer, engine, files)
            return trace.replay_streaming(
                tracer, engine, files, out,
                LIVE_FILE_ROWS if generation_ends else REPLAY_BATCH_ROWS,
                generation_ends)

    try:
        off = replay(trace.Tracer(enabled=False))
        tracer = trace.Tracer()
        on = replay(tracer)
    except Exception as e:  # noqa: BLE001 - reported as a missing layer set
        import traceback
        traceback.print_exc()
        return {"layers": {}, "self_times": {},
                "missing": {"replay": f"traced replay failed: {e!r}"}}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    tracer.dump(os.path.join(spec["work"], "trace.json"))
    return layer_metrics(tracer, on / off)


def layer_metrics(tracer, overhead: float) -> dict:
    """Per-layer metrics from the traced replay's spans and counters; None
    where a span or counter is absent."""
    t = tracer.layer_times()
    c = tracer.counters

    def total(name):
        return t[name]["total_s"] if name in t else None

    def calls(name):
        return t[name]["calls"] if name in t else None

    def per(name, denom, scale=1e6):
        v = total(name)
        return v / denom * scale if v is not None and denom else None

    def ratio(num, denom):
        return c[num] / c[denom] if c[denom] else None

    emit = total("engine.emit.row")
    if emit is not None:
        emit += total("engine.emit.from_pylist") or 0.0
    matches = c["write.matches"]
    out = {
        "sources.read.us_per_turn": per("sources.read", c["read.rows"]),
        "sources.read.bytes_per_turn": ratio("read.bytes", "read.rows"),
        "engine.prep.us_per_turn": per("engine.prep", c["prep.rows_in"]),
        "engine.prep.kept_ratio": ratio("prep.rows_out", "prep.rows_in"),
        "streaming.route.us_per_turn": per("streaming.route", c["read.rows"]),
        "streaming.route.skew": ratio("route.max_rows", "route.mean_rows"),
        "streaming.transfer.bytes_per_turn":
        ratio("transfer.bytes", "read.rows") if c["transfer.bytes"] else None,
        "engine.extract.us_per_turn": per("engine.extract",
                                          c["extract.rows"]),
        "evaluator.process.us_per_turn": per("evaluator.process",
                                             calls("evaluator.process")),
        "evaluator.eos.us_per_conv": per("evaluator.eos",
                                         calls("evaluator.eos")),
        "evaluator.partial_matches.peak": c["partial_matches.peak"],
        "evaluator.watermark.us_per_batch": per("evaluator.watermark",
                                                c["batches"]),
        "engine.emit.us_per_match": emit / matches * 1e6
        if emit is not None and matches else None,
        "streaming.shard.us_per_turn": per("streaming.shard", c["shard.rows"]),
        "streaming.write.us_per_match": per("streaming.write", matches),
        "streaming.write.bytes_per_match":
        ratio("write.bytes", "write.matches") if c["write.bytes"] else None,
        "streaming.snapshot.ms": per("streaming.snapshot",
                                     calls("streaming.snapshot"), 1e3),
        "streaming.snapshot.bytes": c["snapshot.bytes"]
        / calls("streaming.snapshot") if calls("streaming.snapshot")
        else None,
        "streaming.restore.ms": per("streaming.restore",
                                    calls("streaming.restore"), 1e3),
        "streaming.live_conversations.peak": c["live_conversations.peak"]
        or None,
        "trace.overhead_ratio": overhead,
    }
    for pid in (1, 2, 3):
        out[f"evaluator.matches.p{pid}"] = c[f"matches.p{pid}"]
    return {"layers": out, "self_times": t, "missing": tracer.missing}


WORKLOADS = {"replay_contig": replay_contig,
             "live_interleaved": live_interleaved,
             "batch_skewed": batch_skewed}


def main(spec_path: str):
    with open(spec_path) as f:
        spec = json.load(f)
    import ray
    ray.init(address="local", num_cpus=spec["cpus"],
             include_dashboard=False, log_to_driver=False,
             logging_level="ERROR",
             object_store_memory=spec["object_store_mb"] << 20,
             _temp_dir=spec.get("ray_temp_dir"))
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    try:
        with proctree.TreeMonitor() as monitor:
            passes, layers, checks, traced_run = \
                WORKLOADS[spec["workload"]](spec, monitor)
    finally:
        ray.shutdown()
    result = {"passes": passes, "layers": layers, "self_times": {},
              "missing": {},
              "attempted": sum(c["attempted"] for c in checks),
              "failed": sum(c["failed"] for c in checks),
              "failures": [f for c in checks for f in c["failures"]][:5]}
    if traced_run is not None:
        result["layers"].update(traced_run["layers"])
        result["self_times"] = traced_run["self_times"]
        result["missing"] = traced_run["missing"]
    with open(spec["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
