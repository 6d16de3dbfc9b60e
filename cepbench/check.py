"""Output check: one operation is one checked conversation.

A conversation's committed matches are compared, as a multiset of
``(pattern_id, sorted turn_idx of the matched turns)``, with

* ``oracle.oracle_matches`` for conversations short enough for the
  brute-force oracle, drawn by a seeded sample, and
* an unsalted ``CEP.run_table`` of the conversation alone for each hot key.

A conversation also fails when one of its matches carries a column that
differs from the input row of the same ``turn_idx``, or a ``first_ts`` or
``last_ts`` that is not the least or greatest ``ts`` of its matched rows;
and every conversation checked fails when the run did not ingest every
turn it was given, since ingestion is only counted in total.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from opencep_ray.engine import CEP, EngineConfig
from opencep_ray.oracle import oracle_matches

# The oracle enumerates Kleene subsets exhaustively; past about 40 turns a
# conversation costs seconds instead of milliseconds.
ORACLE_MAX_TURNS = 40

_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)


def match_sets(matches: pa.Table, convs) -> dict:
    """``{conv_id: Counter((pattern_id, turn_idx tuple))}`` for ``convs``."""
    out = {c: Counter() for c in convs}
    if matches is None or matches.num_rows == 0:
        return out
    sub = matches.filter(pc.is_in(matches["conv_id"],
                                  value_set=pa.array(list(out))))
    for pid, conv, events in zip(sub["pattern_id"].to_pylist(),
                                 sub["conv_id"].to_pylist(),
                                 sub["match_events"].to_pylist()):
        out[conv][(pid, tuple(sorted(e["turn_idx"] for e in events)))] += 1
    return out


def _us(v):
    """A ``timestamp[us]`` value as int64 µs, as the input rows hold it."""
    return (v - _EPOCH) // _US if isinstance(v, datetime) else v


def wrong_payloads(matches: pa.Table, rows: dict) -> set:
    """The conversations of ``rows`` (``{conv_id: {turn_idx: input row}}``)
    with a match whose events or ``first_ts``/``last_ts`` disagree with
    the input rows of the matched turns."""
    bad = set()
    if matches is None or matches.num_rows == 0:
        return bad
    sub = matches.filter(pc.is_in(matches["conv_id"],
                                  value_set=pa.array(list(rows))))
    for conv, events, first, last in zip(
            sub["conv_id"].to_pylist(), sub["match_events"].to_pylist(),
            sub["first_ts"].to_pylist(), sub["last_ts"].to_pylist()):
        src = [rows[conv].get(e["turn_idx"]) for e in events]
        ok = None not in src and all(
            k in r and _us(v) == r[k]
            for e, r in zip(events, src) for k, v in e.items())
        ts = [r["ts"] for r in src] if ok else []
        if not ok or _us(first) != min(ts, default=None) \
                or _us(last) != max(ts, default=None):
            bad.add(conv)
    return bad


def _ts_us(table: pa.Table) -> pa.Array:
    ts = table["ts"]
    if pa.types.is_timestamp(ts.type):
        ts = pc.cast(pc.cast(ts, pa.timestamp("us")), pa.int64())
    return ts


def conversation_rows(table: pa.Table, convs) -> dict:
    """``{conv_id: rows sorted by (ts, turn_idx)}``, ts as int64 µs."""
    sub = table.filter(pc.is_in(table["conv_id"],
                                value_set=pa.array(list(convs))))
    sub = sub.set_column(sub.schema.get_field_index("ts"), "ts", _ts_us(sub))
    sub = sub.take(pc.sort_indices(sub, sort_keys=[
        ("conv_id", "ascending"), ("ts", "ascending"),
        ("turn_idx", "ascending")]))
    out = {c: [] for c in convs}
    for row in sub.to_pylist():
        out[row["conv_id"]].append(row)
    return out


def oracle_set(patterns, rows) -> Counter:
    events = [(r, r["role"], r["ts"]) for r in rows]
    got = Counter()
    for p in patterns:
        for key, pid, _prob, _binding in oracle_matches(p, events):
            idx = sorted(i for slot in key for i in slot)
            got[(pid, tuple(rows[i]["turn_idx"] for i in idx))] += 1
    return got


def unsalted_set(patterns, rows, conv: str, schema: pa.Schema) -> Counter:
    table = pa.Table.from_pylist(rows, schema=schema)
    out = CEP(patterns, EngineConfig(num_partitions=1)).run_table(table)
    return match_sets(out, [conv])[conv]


def sample_conversations(table: pa.Table, seed: int, n: int,
                         exclude=()) -> list:
    """Seeded sample of up to ``n`` conversations with at most
    ``ORACLE_MAX_TURNS`` turns, outside ``exclude``."""
    counts = pc.value_counts(table["conv_id"])
    convs = np.array(counts.field("values").to_pylist(), dtype=object)
    sizes = counts.field("counts").to_numpy()
    exclude = set(exclude)
    ok = sorted(c for c, s in zip(convs, sizes)
                if s <= ORACLE_MAX_TURNS and c not in exclude)
    rng = np.random.RandomState(seed)
    pick = rng.choice(len(ok), size=min(n, len(ok)), replace=False)
    return sorted(ok[i] for i in pick)


def check_run(patterns, table: pa.Table, matches: pa.Table, sample: list,
              hot: list = (), ingested_ok: bool = True,
              expected: dict = None) -> dict:
    """Checks ``sample`` against the oracle and ``hot`` against an unsalted
    single-conversation run, and every match's carried columns against the
    input rows.  ``expected`` caches those reference match sets and rows
    between calls on the same input.  Returns ``{"attempted",
    "failed", "failures"}``; ``failures`` names the first few failing
    conversations."""
    expected = {} if expected is None else expected
    convs = list(sample) + list(hot)
    todo = [c for c in convs if c not in expected]
    if todo:
        rows = conversation_rows(table, todo)
        schema = table.schema.set(table.schema.get_field_index("ts"),
                                  pa.field("ts", pa.int64()))
        for c in todo:
            ref = unsalted_set(patterns, rows[c], c, schema) \
                if c in hot else oracle_set(patterns, rows[c])
            expected[c] = ref, {r["turn_idx"]: r for r in rows[c]}
    got = match_sets(matches, convs)
    corrupt = wrong_payloads(matches, {c: expected[c][1] for c in convs})
    failures = [c for c in convs if not ingested_ok or c in corrupt
                or got[c] != expected[c][0]]
    return {"attempted": len(convs), "failed": len(failures),
            "failures": failures[:5]}
