"""Seeded workload inputs, derived from ``synth_transcripts``.

Every input is a pure function of ``(workload, seed, params)``.  Inputs are
written once under ``<checkout>/.bench_cache/<key>/`` (tmp dir + rename, so a
killed generation never leaves a half-written input behind) and reused by
later runs with the same key.  Generation is never timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from opencep_ray.sources.transcripts import synth_transcripts

# Bumped whenever a generator below changes, so stale caches are not reused.
INPUT_VERSION = 2

REPLAY = {"n_convs": 6000, "avg_turns": 20, "rows_per_file": 20_000}

# Live: turns are offered at ``rate`` per second for the run's length.
# Conversations of about ``avg_turns`` turns start within ``start_span_s``
# of the source timeline, much less than a conversation lasts, so that
# nearly all of them (thousands) are active at once; the turns are then
# due one every 1/rate seconds in global timestamp order.
LIVE = {"rate": 1000, "avg_turns": 10, "start_span_s": 60}

# Batch: a body of short conversations, a middle tail, and a few hot
# conversations of thousands of turns, shuffled across files so that no
# file is grouped by conversation.  Tail and hot conversations have exactly
# their stated length, so the skew does not vary with the seed.
BATCH = {"body_convs": 5000, "tail_convs": 20, "tail_turns": 200,
         "hot_convs": 3, "hot_turns": 2000, "files": 8}


def rng_seed(seed: int, stream: str) -> int:
    """The seed of random stream ``stream`` of run seed ``seed``, in numpy's
    legacy range ``[0, 2**32)``: any integer ``--seed`` is valid, and the
    streams of one run seed are independent of each other."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _cache_dir(root: str, workload: str, seed: int, params: dict) -> str:
    blob = json.dumps([INPUT_VERSION, workload, seed, params], sort_keys=True)
    key = hashlib.sha1(blob.encode()).hexdigest()[:12]
    return os.path.join(root, ".bench_cache", f"{workload}-{seed}-{key}")


def _materialize(root: str, workload: str, seed: int, params: dict,
                 build) -> str:
    """Returns the cache dir, building it with ``build(tmp_dir)`` first if
    it does not exist yet."""
    path = _cache_dir(root, workload, seed, params)
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    os.rename(tmp, path)
    return path


def _with_v(table: pa.Table) -> pa.Table:
    """Adds ``v``, the integer the generator embeds in ``text`` as
    ``"... v=<n>"``, so declarative ``Col`` conditions can read it."""
    v = pc.cast(pc.replace_substring_regex(table["text"], r"^.*v=", ""),
                pa.int32())
    return table.append_column("v", v)


def _exact_length(n_convs: int, turns: int, seed: int, offset: int):
    """``n_convs`` conversations of exactly ``turns`` turns: each is drawn
    long enough and cut to its first ``turns`` turns."""
    table = synth_transcripts(n_convs, 2 * turns, seed=seed,
                              conv_offset=offset)
    return table.filter(pc.less(table["turn_idx"], turns))


def replay_input(root: str, seed: int) -> str:
    """Conversation-contiguous transcript log, split into files in order."""
    p = REPLAY

    def build(tmp):
        table = synth_transcripts(p["n_convs"], p["avg_turns"],
                                  seed=rng_seed(seed, "convs"))
        rpf = p["rows_per_file"]
        for i, lo in enumerate(range(0, table.num_rows, rpf)):
            pq.write_table(table.slice(lo, rpf),
                           os.path.join(tmp, f"part-{i:04d}.parquet"))
    return _materialize(root, "replay_contig", seed, p, build)


def live_input(root: str, seed: int, seconds: int) -> str:
    """``turns.parquet``: the turns in the order the generator offers them,
    with ``due_us``, each turn's offset from the generator's start.  The
    generator stamps ``start + due_us`` into ``ts``.  ``time_scale.json``
    holds how many seconds of the source timeline one due second covers,
    by which the live patterns scale their windows down."""
    p = dict(LIVE, seconds=seconds)

    def build(tmp):
        total = p["rate"] * seconds
        n_convs = max(1, total // p["avg_turns"])
        table = synth_transcripts(n_convs, p["avg_turns"],
                                  seed=rng_seed(seed, "convs"))
        # re-spread conversation starts over start_span_s, keeping each
        # conversation's own gaps
        ts = pc.cast(pc.cast(table["ts"], pa.timestamp("us")),
                     pa.int64()).to_numpy()
        conv = pc.cast(pc.utf8_slice_codeunits(table["conv_id"], 1),
                       pa.int64()).to_numpy()
        first = np.full(n_convs, np.iinfo(np.int64).max)
        np.minimum.at(first, conv, ts)
        rng = np.random.RandomState(rng_seed(seed, "starts"))
        start = rng.randint(0, p["start_span_s"], size=n_convs) * 1_000_000
        new_ts = ts - first[conv] + start[conv]
        order = np.lexsort((table["turn_idx"].to_numpy(), conv,
                            new_ts))[:total]
        table = table.take(pa.array(order))
        span = (new_ts[order[-1]] - new_ts[order[0]]) / 1e6
        with open(os.path.join(tmp, "time_scale.json"), "w") as f:
            json.dump(span / seconds, f)
        due = np.arange(table.num_rows, dtype=np.int64) * 1_000_000 \
            // p["rate"]
        table = table.drop_columns(["ts"]).append_column(
            "due_us", pa.array(due))
        pq.write_table(table, os.path.join(tmp, "turns.parquet"))
    return _materialize(root, "live_interleaved", seed, p, build)


def batch_input(root: str, seed: int) -> str:
    """Long-tailed transcripts with a ``v`` column, rows shuffled across
    files; ``hot_keys.json`` lists the hot conversations."""
    p = BATCH

    def build(tmp):
        body = synth_transcripts(p["body_convs"], 20,
                                 seed=rng_seed(seed, "body"))
        tail = _exact_length(p["tail_convs"], p["tail_turns"],
                             rng_seed(seed, "tail"), p["body_convs"])
        hot = _exact_length(p["hot_convs"], p["hot_turns"],
                            rng_seed(seed, "hot"),
                            p["body_convs"] + p["tail_convs"])
        table = _with_v(pa.concat_tables([body, tail, hot]))
        rng = np.random.RandomState(rng_seed(seed, "layout"))
        table = table.take(pa.array(rng.permutation(table.num_rows)))
        per = -(-table.num_rows // p["files"])
        for i in range(p["files"]):
            pq.write_table(table.slice(i * per, per),
                           os.path.join(tmp, f"part-{i:04d}.parquet"))
        with open(os.path.join(tmp, "hot_keys.json"), "w") as f:
            json.dump(sorted(set(hot["conv_id"].to_pylist())), f)
    return _materialize(root, "batch_skewed", seed, p, build)
