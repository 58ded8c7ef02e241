"""Layered benchmark of the microblog store: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload digest --seed 1 --seconds 10 --trace 0

``--workload`` is ``digest``, ``serve`` or ``mixed`` (see
``workloads.py``).  The command generates every input from ``--seed``
before any timer starts, then repeats set-up plus a fixed-size timed
window until ``--seconds`` have passed (three repetitions at least).
After each repetition it runs the store's ``check_integrity()`` and
compares a sample of answers with a brute-force oracle (``oracle.py``).

Times are scaled to a reference host speed: every 256 calls the loop
times a fixed interpreter kernel, outside any timing, and multiplies the
durations of the calls that follow by the reference kernel time over the
measured one (``workloads.host_factor``).  The line starting with
``host speed factor`` shows the factors applied; a factor of 1 means the
host ran at the reference speed and the times are plain wall times.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced repetitions and prints the per-layer
metrics: the traced ones wrap each layer's entry points from outside
(``tracer.py``); the untraced ones give the per-mode latencies and the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it are for people.  ``PYTHONHASHSEED`` is deliberately
not pinned; the line starting with ``host`` records it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from oracle import Oracle
from tracer import LAYERS, LayerTracer

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
MIN_TRACED_REPS = 2
MODES = ("single", "or", "and")
#: AND answers count as hits only with k matches inside the capped scan,
#: which a run sees a few dozen times at most, or never: their latency is
#: printed with its sample count but is not a metric.
RARE_CLASSES = {("and", True)}


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def host_record() -> dict:
    """Host, interpreter and source identity for the result header."""
    commit = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "hash_probe": hash("perfbench") & 0xFFFFFFFF,
    }


class Checker:
    """Counts wrong answers and failed integrity checks."""

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.failed = 0

    def check(self, rep) -> None:
        try:
            rep.system.check_integrity()
        except Exception as exc:  # any failure of the check is a finding
            self.failed += 1
            print(f"check_integrity failed: {exc!r}", file=sys.stderr)
        for prefix, query, result in rep.samples:
            if not self.oracle.check(
                query, prefix, result.blog_ids, result.provably_exact
            ):
                self.failed += 1
                if self.failed <= 5:
                    print(
                        f"wrong answer: {query} after {prefix} records: "
                        f"{result.blog_ids}",
                        file=sys.stderr,
                    )


class TraceRun:
    """Installs a tracer on a repetition and reads its layer numbers."""

    def __init__(self) -> None:
        self.tracer = None
        self.disk = None

    def before_timed(self, system, rep) -> None:
        self.disk = self._disk_stats(system)
        self.tracer = LayerTracer()
        self.tracer.install(system)

    @staticmethod
    def _disk_stats(system):
        stats = getattr(getattr(system, "disk", None), "stats", None)
        if stats is None:
            return None
        return (
            stats.postings_written,
            stats.bytes_written,
            stats.simulated_io_seconds,
        )

    def finish(self, rep) -> dict:
        """Per-repetition layer values; call right after the timed loops."""
        tracer = self.tracer
        out = {"present": tracer.present, "call_time": rep.call_time}
        # Layer times are scaled like the calls that contain them.
        scale = rep.call_time / rep.call_time_raw
        for idx, (name, _, _) in enumerate(LAYERS):
            out[f"{name}.calls"] = tracer.calls[idx]
            out[f"{name}.busy_s"] = tracer.busy[idx] * scale
            out[f"{name}.self_s"] = tracer.self_time[idx] * scale
        wall = rep.timed_wall
        self_sum = sum(tracer.self_time)
        if abs(self_sum - tracer.top_busy) > 1e-6 * wall:
            raise RuntimeError(
                f"layer self times sum to {self_sum}, top-level spans to "
                f"{tracer.top_busy}"
            )
        out["residual"] = (wall - tracer.top_busy) / wall
        out["self_sum_raw"] = self_sum
        out["wall_raw"] = wall
        out["lookups"] = tracer.lookups
        out["runs"] = tracer.runs
        after = self._disk_stats(rep.system)
        if after is not None and self.disk is not None:
            out["storage.disk.postings_committed"] = after[0] - self.disk[0]
            out["written_bytes"] = after[1] - self.disk[1]
            out["storage.disk.simulated_io_s"] = after[2] - self.disk[2]
        out["reports"] = rep.system.flush_reports()[rep.flushes_before :]
        out["queries"] = len(rep.latencies)
        out["disk_lookups"] = rep.disk_lookups
        return out


def query_blocks(reps, block: int):
    """Consecutive blocks of ``block`` search latencies, per repetition."""
    return [
        rep.latencies[i : i + block]
        for rep in reps
        for i in range(0, len(rep.latencies) - block + 1, block)
    ]


def end_to_end(reps, rss_mb: float, block: int) -> tuple[dict, dict]:
    """End-to-end metrics and the sample counts behind them.

    Timings are medians over many short units -- flush cycles, flushes,
    blocks of ``block`` queries -- so that what host-speed scaling misses,
    and the odd garbage collection, moves them little.
    """
    cycles = [x for rep in reps for x in rep.cycles]
    pauses = [x for rep in reps for x in rep.pauses]
    blocks = query_blocks(reps, block)
    queries = sum(len(rep.hits) for rep in reps)
    hits = sum(sum(rep.hits) for rep in reps)
    if not cycles or not blocks:
        raise RuntimeError("a workload ran no complete flush cycle or query block")
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in reps), "s"),
        "ingest_rps": (statistics.median(cycles), "records/s"),
        "flush_pause_p50_ms": (statistics.median(pauses) * 1e3, "ms"),
        "query_qps": (statistics.median(len(b) / sum(b) for b in blocks), "queries/s"),
        "query_p50_us": (
            statistics.median(percentile(b, 50) for b in blocks) * 1e6,
            "us",
        ),
        "query_p99_us": (
            statistics.median(percentile(b, 99) for b in blocks) * 1e6,
            "us",
        ),
        "hit_ratio": (hits / queries, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    counts = {
        "setup_s": f"{len(reps)} set-ups",
        "ingest_rps": f"{len(cycles)} flush cycles",
        "flush_pause_p50_ms": f"{len(pauses)} flushes",
        "query_qps": f"{len(blocks)} blocks of {block} queries",
        "query_p50_us": f"{len(blocks)} blocks of {block} queries",
        "query_p99_us": f"{len(blocks)} blocks of {block} queries",
        "hit_ratio": f"{queries} queries",
    }
    return metrics, counts


def per_layer(
    untraced, traced, inputs, ingested_bytes: int, failed_frac: float
) -> tuple[dict, list, list]:
    """Per-layer metrics, the names of layers found absent, and lines
    stating the sample count of each query class."""
    metrics = {
        "workload.stream_gen_s": (inputs.stream_gen_s, "s"),
        "workload.query_gen_s": (inputs.query_gen_s, "s"),
    }
    absent = []
    for idx, (name, _, _) in enumerate(LAYERS):
        if not all(t["present"][idx] for t in traced):
            absent.append(name)
            continue
        for stat, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            key = f"{name}.{stat}"
            metrics[key] = (statistics.median(t[key] for t in traced), unit)

    reports = [r for t in traced for r in t["reports"]]
    target = sum(r.target_bytes for r in reports)
    freed = sum(r.freed_bytes for r in reports)
    phase1 = sum(
        v
        for r in reports
        for k, v in getattr(r, "phase_freed", {}).items()
        if k.startswith("phase1")
    )
    if target and freed:
        metrics["core.phases.freed_over_target"] = (freed / target, "ratio")
        metrics["core.phases.p1_freed_share"] = (phase1 / freed, "ratio")
    else:
        absent.append("core.phases")
    if all("written_bytes" in t for t in traced):
        metrics["storage.disk.postings_committed"] = (
            statistics.median(t["storage.disk.postings_committed"] for t in traced),
            "count",
        )
        metrics["storage.disk.bytes_per_ingested_byte"] = (
            sum(t["written_bytes"] for t in traced)
            / (ingested_bytes * len(traced)),
            "ratio",
        )
        metrics["storage.disk.simulated_io_s"] = (
            statistics.median(t["storage.disk.simulated_io_s"] for t in traced),
            "modelled_s",
        )
    else:
        absent.append("storage.disk.stats")
    lookups = sum(t["lookups"] for t in traced)
    if lookups:
        metrics["storage.disk.lookup.runs_per_lookup"] = (
            sum(t["runs"] for t in traced) / lookups,
            "ratio",
        )
    else:
        absent.append("storage.disk.lookup.runs_per_lookup")
    metrics["engine.executor.disk_lookups_per_query"] = (
        sum(t["disk_lookups"] for t in traced) / sum(t["queries"] for t in traced),
        "ratio",
    )

    by_class: dict = {}
    for rep in untraced:
        for latency, mode, hit in zip(rep.latencies, rep.modes, rep.hits):
            by_class.setdefault((mode, hit), []).append(latency)
    last = traced[-1]
    notes = [
        "last traced repetition: layer self times "
        f"{last['self_sum_raw']:.4f} s + residual "
        f"{last['residual'] * last['wall_raw']:.4f} s = traced wall "
        f"{last['wall_raw']:.4f} s (unscaled)"
    ]
    for mode in MODES:
        n_hit = len(by_class.get((mode, True), ()))
        n_miss = len(by_class.get((mode, False), ()))
        if n_hit + n_miss:
            metrics[f"engine.executor.{mode}.hit_ratio"] = (
                n_hit / (n_hit + n_miss),
                "ratio",
            )
        for hit, label in ((True, "hit"), (False, "miss")):
            samples = by_class.get((mode, hit), ())
            name = f"engine.executor.{mode}.{label}"
            summary = [f"{name}: {len(samples)} samples"]
            if samples:
                p50, p99 = (percentile(samples, q) * 1e6 for q in (50, 99))
                summary.append(f"p50 {p50:.1f} us, p99 {p99:.1f} us")
            notes.append(", ".join(summary))
            if (mode, hit) in RARE_CLASSES:
                continue
            if not samples:
                absent.append(name)
                continue
            metrics[f"{name}.p50_us"] = (p50, "us")
            metrics[f"{name}.p99_us"] = (p99, "us")

    metrics["trace.residual_frac"] = (
        statistics.median(t["residual"] for t in traced),
        "ratio",
    )
    traced_time = statistics.median(t["call_time"] for t in traced)
    untraced_time = statistics.median(rep.call_time for rep in untraced)
    metrics["trace.overhead_frac"] = (traced_time / untraced_time - 1.0, "ratio")
    metrics["failed_frac"] = (failed_frac, "ratio")
    return metrics, absent, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("digest", "serve", "mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # workloads imports the program, so it comes after the path is set.
    from workloads import CONFIG, QUERY_BLOCK, WARM_RECORDS, generate, run_rep

    inputs = generate(args.workload, args.seed)
    checker = Checker(Oracle(inputs.records, CONFIG.build_ranking()))
    model = CONFIG.memory_model
    ingested_bytes = sum(model.record_bytes(r) for r in inputs.records[WARM_RECORDS:])

    untraced, traced, factors = [], [], []
    attempted = raised = 0
    begin = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        tracing = TraceRun() if trace_this else None
        try:
            rep = run_rep(
                args.workload,
                inputs,
                before_timed=tracing.before_timed if tracing else None,
            )
        finally:
            if tracing is not None and tracing.tracer is not None:
                tracing.tracer.remove()
        if tracing is not None:
            traced.append(tracing.finish(rep))
        else:
            untraced.append(rep)
        factors.extend(rep.factors)
        attempted += rep.attempted
        raised += rep.raised
        checker.check(rep)
        rep.system = None
        rep.samples = []
        gc.collect()
        enough = len(untraced) >= (MIN_TRACED_REPS if args.trace else MIN_REPS)
        if args.trace:
            enough = enough and len(traced) >= MIN_TRACED_REPS
        if enough and time.perf_counter() - begin >= args.seconds:
            break

    failed = raised + checker.failed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"repetitions {len(untraced)} untraced, {len(traced)} traced"
    )
    print("host " + json.dumps(host_record(), sort_keys=True))
    print(
        f"host speed factor: median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}-{max(factors):.3f} over {len(factors)} "
        "measurements (times below are wall times times this factor)"
    )
    if args.trace:
        metrics, absent, notes = per_layer(
            untraced, traced, inputs, ingested_bytes, failed / attempted
        )
        counts = {}
        print("\n".join(notes))
        if absent:
            print("absent: " + ", ".join(absent))
    else:
        metrics, counts = end_to_end(untraced, rss_mb, QUERY_BLOCK)
    for name, (value, unit) in metrics.items():
        note = f"  ({counts[name]})" if name in counts else ""
        print(f"{name:48s} {value:14.6g} {unit}{note}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
