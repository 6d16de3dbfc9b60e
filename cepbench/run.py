"""The repository benchmark: one command for every metric.

    python3 cepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It generates the workload's input from
the seed (cached under ``.bench_cache/``, never timed), runs the engine in
a fresh process that owns its Ray session under a hard timeout, checks the
committed matches against ``opencep_ray.oracle``, and prints a table of
every metric followed, as the last line, by one JSON record::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of the untraced engine;
``--trace 1`` reports the per-layer metrics of a traced single-process
replay of the same input (plus the Ray-level ones of one untraced pass).
The exit code is 0 only when every checked conversation matched.  See
``cepbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("replay_contig", "live_interleaved", "batch_skewed")

END_TO_END = [("setup_s", "s"), ("turns_per_s", "turns/s"),
              ("cpu_us_per_turn", "us"), ("peak_rss_mb", "MB"),
              ("match_latency_p50_ms", "ms"), ("match_latency_p99_ms", "ms")]

# (name, unit, workloads that exercise the layer)
_S = ("replay_contig", "live_interleaved")
_ALL = WORKLOADS
PER_LAYER = [
    ("sources.read.us_per_turn", "us", _ALL),
    ("sources.read.bytes_per_turn", "bytes", _ALL),
    ("sources.live.spool_lag_ms", "ms", ("live_interleaved",)),
    ("sources.live.drain_s", "s", ("live_interleaved",)),
    ("engine.prep.us_per_turn", "us", _ALL),
    ("engine.prep.kept_ratio", "ratio", _ALL),
    ("streaming.route.us_per_turn", "us", _S),
    ("streaming.route.skew", "ratio", _S),
    ("streaming.transfer.bytes_per_turn", "bytes", _S),
    ("engine.extract.us_per_turn", "us", _ALL),
    ("evaluator.process.us_per_turn", "us", _ALL),
    ("evaluator.eos.us_per_conv", "us", _ALL),
    ("evaluator.partial_matches.peak", "count", _ALL),
    ("evaluator.matches.p1", "count", _ALL),
    ("evaluator.matches.p2", "count", _ALL),
    ("evaluator.matches.p3", "count", _ALL),
    ("evaluator.watermark.us_per_batch", "us", ("live_interleaved",)),
    ("engine.emit.us_per_match", "us", _ALL),
    ("streaming.shard.us_per_turn", "us", _S),
    ("streaming.write.us_per_match", "us", _S),
    ("streaming.write.bytes_per_match", "bytes", _S),
    ("streaming.snapshot.ms", "ms", _S),
    ("streaming.snapshot.bytes", "bytes", _S),
    ("streaming.restore.ms", "ms", _S),
    ("streaming.live_conversations.peak", "count", _S),
    ("streaming.generation_s", "s", ("live_interleaved",)),
    ("streaming.generation_setup_s", "s", ("live_interleaved",)),
    ("streaming.worker_busy_share", "ratio", ("replay_contig",)),
    ("engine.exchange.s", "s", ("batch_skewed",)),
    ("engine.exchange.bytes_per_turn", "bytes", ("batch_skewed",)),
    ("engine.partition.skew", "ratio", ("batch_skewed",)),
    ("generator_late_p99_ms", "ms", ("live_interleaved",)),
    ("match_latency.samples", "count", _ALL),
    ("trace.overhead_ratio", "ratio", _ALL),
]

# A run must exit within 180 s; the engine process gets this long, the
# rest is input generation and clean-up.
RUN_TIMEOUT_S = 150
OBJECT_STORE_MB = 512
# Ray's session sockets live under its temp dir and a Unix socket path is
# limited to 107 bytes; a longer checkout path falls back to Ray's default.
MAX_RAY_TEMP_LEN = 40
SPIN_LOOPS = 2_000_000
# How long stopped processes get to exit after SIGTERM, then after SIGKILL.
STOP_GRACE_S = 5.0


def _stop_descendants():
    """SIGTERM, then SIGKILL, every descendant; waits until each has ended."""
    from cepbench.proctree import descendants
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = descendants(os.getpid())
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.time() + STOP_GRACE_S
        while descendants(os.getpid()) and time.time() < deadline:
            _reap()
            time.sleep(0.05)
        _reap()
        if not descendants(os.getpid()):
            return


def _spin_rate() -> float:
    """Single-thread speed of the box in million iterations per second of
    a fixed pure-Python loop, the median of three tries.  Printed before
    and after the engine runs, so that a change of the box's speed
    between runs shows beside the metrics it moves."""
    import statistics
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(SPIN_LOOPS):
            x += i
        rates.append(SPIN_LOOPS / (time.perf_counter() - t0) / 1e6)
    return statistics.median(rates)


def _reap():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _make_input(workload: str, seed: int, seconds: int) -> str:
    from cepbench import inputs
    if workload == "replay_contig":
        return inputs.replay_input(ROOT, seed)
    if workload == "live_interleaved":
        return inputs.live_input(ROOT, seed, seconds)
    return inputs.batch_input(ROOT, seed)


def _median(xs):
    import statistics
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def _run_engine(args, input_dir: str, work: str) -> tuple:
    """Runs ``runs.py`` under the hard timeout; returns (result or None,
    error text)."""
    cpus = os.cpu_count() or 1
    ray_tmp = os.path.join(ROOT, ".bench_run", f"r{os.getpid()}")
    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "input": input_dir, "work": work,
            "result": os.path.join(work, "result.json"),
            "cpus": cpus, "workers": max(1, cpus - 1),
            "object_store_mb": OBJECT_STORE_MB,
            "ray_temp_dir": ray_tmp if len(ray_tmp) <= MAX_RAY_TEMP_LEN
            else None}
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    log_path = os.path.join(work, "engine.log")
    error = ""
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "runs.py"), spec_path],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
            if code != 0:
                error = f"engine process exited with code {code}"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            error = f"engine process timed out after {RUN_TIMEOUT_S} s"
    _stop_descendants()
    if spec["ray_temp_dir"]:
        shutil.rmtree(spec["ray_temp_dir"], ignore_errors=True)
    if error:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        return None, f"{error}\n{tail}"
    with open(spec["result"]) as f:
        return json.load(f), ""


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _report(args, result, error: str, speed: list) -> dict:
    """Prints the human table; returns the JSON record."""
    out = sys.stdout
    print(f"# cepbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"cpus={os.cpu_count()}", file=out)
    print(f"# box speed (spin loop, M/s): before {speed[0]:.4g} "
          f"after {speed[1]:.4g}", file=out)
    if result is None:
        print(f"# run failed: {error}", file=out)
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}
    passes = result["passes"]
    e2e = {name: _median([p[name] for p in passes]) for name, _ in END_TO_END}
    print(f"# end to end (untraced; median of {len(passes)} pass(es))",
          file=out)
    for name, unit in END_TO_END:
        print(f"{name:40s} {_fmt(e2e[name]):>14s} {unit}", file=out)
    for i, p in enumerate(passes):
        print(f"#   pass {i}: " + ", ".join(
            f"{name}={_fmt(p[name])}" for name, _ in END_TO_END), file=out)
    q = _median([p["latency_q"] for p in passes])
    n = _median([p["latency_n"] for p in passes])
    print(f"{'match_latency tail percentile':40s} {_fmt(q):>14s} "
          f"(p99 needs >= 1000 samples; {_fmt(n)} per pass)", file=out)
    ops, bad = result["attempted"], result["failed"]
    print(f"{'error_rate':40s} {_fmt(bad / ops if ops else 1.0):>14s} "
          f"ratio ({bad} of {ops} checked conversations failed"
          f"{': ' + ', '.join(result['failures']) if bad else ''})", file=out)

    layers = dict(result["layers"])
    layers["match_latency.samples"] = n
    if args.trace:
        times = result["self_times"]
        print("# traced replay: total and self seconds per span", file=out)
        for name in sorted(times):
            t = times[name]
            print(f"{name:40s} total {t['total_s']:10.4f}  self "
                  f"{t['self_s']:10.4f}  calls {t['calls']}", file=out)
        why = "; ".join(result["missing"].values()) or "not measured"
        missing = {name: why for name, _, used in PER_LAYER
                   if args.workload in used and layers.get(name) is None}
        print("# per layer", file=out)
        for name, unit, used in PER_LAYER:
            note = "" if args.workload in used \
                else "not exercised by this workload"
            if name in missing:
                note = "missing: " + why
            print(f"{name:40s} {_fmt(layers.get(name)):>14s} {unit} {note}",
                  file=out)
        # the record needs a number for every per-layer metric, so a
        # missing one reads 0 there; this line tells it from a measured 0
        print(json.dumps({"missing": missing}), file=out)
        metrics = {name: {"value": float(layers.get(name) or 0.0),
                          "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = bad == 0 and ops > 0 and all(
        m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": ops, "failed": bad,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "opencep_ray", "__init__.py")):
        print(f"cepbench: no opencep_ray package under {ROOT}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from cepbench.proctree import become_subreaper
    become_subreaper()
    # a terminated run still stops its descendants (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    input_dir = _make_input(args.workload, args.seed, args.seconds)
    work = os.path.join(ROOT, ".bench_run",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        speed = [_spin_rate()]
        result, error = _run_engine(args, input_dir, work)
        speed.append(_spin_rate())
        record = _report(args, result, error, speed)
        trace_json = os.path.join(work, "trace.json")
        if os.path.exists(trace_json):
            shutil.copy(trace_json, os.path.join(
                ROOT, ".bench_run", f"trace-{args.workload}-{args.seed}.json"))
    finally:
        _stop_descendants()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
