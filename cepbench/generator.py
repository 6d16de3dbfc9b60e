"""Open-loop load generator for the live workload.

Run as its own process::

    python3 cepbench/generator.py TURNS.parquet LOG.jsonl OUT.json

Once loaded, it fixes its start time ``start_us`` and appends each turn of
``TURNS.parquet`` to ``LOG.jsonl`` as one JSON line once its due time
``start_us + due_us`` has passed, on that schedule no matter how the
consumer keeps up, stamping the due time into ``ts``.  It ends the log with
the ``__EOS__`` sentinel and writes ``{"start_us", "end_us", "turns",
"late_p50_ms", "late_p99_ms", "late_max_ms"}`` to ``OUT.json``: its
schedule and how late turns were written.
"""

from __future__ import annotations

import json
import os
import sys
import time

import pyarrow.parquet as pq


def main(turns_path: str, log_path: str, out_path: str):
    table = pq.read_table(turns_path)
    heads = [json.dumps({k: r[k] for k in
                         ("conv_id", "turn_idx", "role", "text", "tool")})
             [:-1] + ', "ts": ' for r in table.to_pylist()]
    start_us = int(time.time() * 1_000_000) + 100_000
    due = [start_us + d for d in table["due_us"].to_pylist()]
    late_us = []
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        i, n = 0, len(due)
        while i < n:
            now = int(time.time() * 1_000_000)
            if due[i] > now:
                time.sleep(min(0.005, (due[i] - now) / 1e6))
                continue
            j = i
            while j < n and due[j] <= now:
                j += 1
            os.write(fd, "".join(f"{heads[k]}{due[k]}}}\n"
                                 for k in range(i, j)).encode())
            wrote = int(time.time() * 1_000_000)
            late_us.extend(wrote - due[k] for k in range(i, j))
            i = j
        os.write(fd, b"__EOS__\n")
        end_us = int(time.time() * 1_000_000)
    finally:
        os.close(fd)
    late_us.sort()

    def pct(q):
        return late_us[min(len(late_us) - 1, int(q * len(late_us)))] / 1e3

    with open(out_path, "w") as f:
        json.dump({"start_us": start_us, "end_us": end_us,
                   "turns": len(late_us),
                   "late_p50_ms": pct(0.5), "late_p99_ms": pct(0.99),
                   "late_max_ms": late_us[-1] / 1e3}, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3])
