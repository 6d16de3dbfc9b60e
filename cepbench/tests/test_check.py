"""The benchmark's output check must flag a corrupted match set.

Run from the repository root: ``python3 -m pytest cepbench/tests -q``.
"""

import datetime

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from cepbench import check
from cepbench.patterns import batch_patterns, flagship_patterns
from cepbench.inputs import _with_v, rng_seed
from opencep_ray.engine import CEP, transcript_config
from opencep_ray.sources.transcripts import synth_transcripts


@pytest.fixture(scope="module")
def run():
    table = _with_v(synth_transcripts(12, 12, seed=5))
    patterns = flagship_patterns()
    matches = CEP(patterns, transcript_config(num_partitions=2)) \
        .run_table(table)
    convs = sorted(set(table["conv_id"].to_pylist()))
    return patterns, table, matches, convs


def _first_conv_with_matches(matches):
    return matches["conv_id"][0].as_py()


def test_engine_output_passes(run):
    patterns, table, matches, convs = run
    assert matches.num_rows > 0
    res = check.check_run(patterns, table, matches, convs)
    assert res == {"attempted": len(convs), "failed": 0, "failures": []}


def test_dropped_match_fails(run):
    patterns, table, matches, convs = run
    dropped = matches.slice(1)
    res = check.check_run(patterns, table, dropped, convs)
    assert res["failed"] == 1
    assert res["failures"] == [_first_conv_with_matches(matches)]


def test_extra_match_fails(run):
    patterns, table, matches, convs = run
    extra = pa.concat_tables([matches, matches.slice(0, 1)])
    res = check.check_run(patterns, table, extra, convs)
    assert res["failed"] == 1
    assert res["failures"] == [_first_conv_with_matches(matches)]


def test_match_of_wrong_pattern_fails(run):
    patterns, table, matches, convs = run
    pid = matches["pattern_id"].to_pylist()
    pid[0] = 99
    relabelled = matches.set_column(
        0, "pattern_id", pa.array(pid, matches.schema.field(0).type))
    assert check.check_run(patterns, table, relabelled, convs)["failed"] == 1


def _edit_first_match(matches, edit):
    rows = matches.to_pylist()
    edit(rows[0])
    return pa.Table.from_pylist(rows, schema=matches.schema)


def test_dropped_payload_column_fails(run):
    patterns, table, matches, convs = run

    def null_text(row):
        row["match_events"][0]["text"] = None
    corrupt = _edit_first_match(matches, null_text)
    res = check.check_run(patterns, table, corrupt, convs)
    assert res["failures"] == [_first_conv_with_matches(matches)]


def test_wrong_last_ts_fails(run):
    patterns, table, matches, convs = run

    def shift(row):
        row["last_ts"] += datetime.timedelta(seconds=1)
    corrupt = _edit_first_match(matches, shift)
    res = check.check_run(patterns, table, corrupt, convs)
    assert res["failures"] == [_first_conv_with_matches(matches)]


def test_lost_turns_fail_every_conversation(run):
    patterns, table, matches, convs = run
    res = check.check_run(patterns, table, matches, convs, ingested_ok=False)
    assert res["failed"] == len(convs)


def test_hot_key_is_checked_against_unsalted_run():
    table = _with_v(pa.concat_tables([
        synth_transcripts(4, 12, seed=6),
        synth_transcripts(1, 300, seed=7, conv_offset=4)]))
    hot = ["c0000004"]
    patterns = batch_patterns()
    matches = CEP(patterns, transcript_config(num_partitions=2,
                                              hot_keys=hot)).run_table(table)
    assert check.check_run(patterns, table, matches, [], hot)["failed"] == 0
    is_hot = pc.equal(matches["conv_id"], hot[0])
    assert pc.any(is_hot).as_py()
    first_hot = pc.index(is_hot, True).as_py()
    dropped = pa.concat_tables([matches.slice(0, first_hot),
                                matches.slice(first_hot + 1)])
    assert check.check_run(patterns, table, dropped, [], hot)["failed"] == 1


def test_sample_skips_long_and_excluded_conversations():
    table = pa.concat_tables([
        synth_transcripts(30, 12, seed=8),
        synth_transcripts(2, 200, seed=9, conv_offset=30)])
    sample = check.sample_conversations(table, 1, 100, exclude=["c0000000"])
    assert len(sample) == 29
    assert "c0000000" not in sample
    assert not {"c0000030", "c0000031"} & set(sample)
    assert sample == check.sample_conversations(table, 1, 100,
                                                exclude=["c0000000"])


@pytest.mark.parametrize("seed", [0, 7, -3, 2**32, 123456789, 10**30])
def test_any_integer_seed_samples(run, seed):
    _, table, _, _ = run
    streams = {rng_seed(seed, s) for s in ("convs", "sample0", "sample1")}
    assert len(streams) == 3
    assert all(0 <= x < 2**32 for x in streams)
    assert rng_seed(seed, "convs") == rng_seed(seed, "convs")
    sample = check.sample_conversations(table, rng_seed(seed, "sample0"), 5)
    assert len(sample) == 5
