"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the repository's sources (``src/``), checks the
program's outputs, and prints one JSON line last on stdout::

    {"correct": true, "attempted": 1500, "failed": 0,
     "metrics": {"windows_per_s": {"value": 112.4, "unit": "1/s"}, ...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer (see ``layers.py``) and reports the per-layer metrics instead,
after reconciling them with the program's own phase accounting.  A
human-readable report goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("issues-campaign", "corpus-discovery", "service-openloop")
#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 3
HASH_SEED = "0"

UNITS = {
    "windows_per_s": "1/s", "findings": "count", "llm_tokens": "count",
    "window_latency_p50_ms": "ms", "window_latency_tail_ms": "ms",
    "hit_latency_p50_ms": "ms", "hit_latency_tail_ms": "ms",
    "miss_latency_p50_ms": "ms", "miss_latency_tail_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def log(text: str) -> None:
    sys.stderr.write(text + "\n")
    sys.stderr.flush()


def require_sources() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            f"run from a checkout of the repository")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


# -- set-up --------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> None:
    """What a user pays before the first window: imports, inputs, and
    for the service its pool and socket."""
    require_sources()
    if workload == "issues-campaign":
        import batch
        batch.setup_issues(seed)
    elif workload == "corpus-discovery":
        import batch
        batch.setup_corpus(seed)
    else:
        import service_load
        from repro.service.client import ServiceClient
        service_load.setup_inputs(seed)
        service, server, port = service_load.start_service()
        try:
            with ServiceClient(port) as client:
                client.status()
        finally:
            service_load.stop_service(service, server)


def time_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--setup-probe", workload, "--seed", str(seed)],
                       check=True, cwd=str(ROOT), timeout=120)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


# -- workloads -----------------------------------------------------------------
#: Layers the program does not time on a workload's path, exempt from
#: the check that a wrapped layer has its phase: run_batch's wavefront
#: driver calls complete_many outside any "llm" phase.
UNTIMED = {"issues-campaign": ("llm",)}


def run_batch_workload(args, checker) -> dict:
    import batch
    import layers
    from common import peak_rss_mb

    setup, body = {
        "issues-campaign": (batch.setup_issues, batch.run_issues),
        "corpus-discovery": (batch.setup_corpus, batch.run_corpus),
    }[args.workload]
    inputs = setup(args.seed)
    recorder = layers.install() if args.trace else None
    try:
        run = body(inputs, args.seed, args.seconds, checker)
    finally:
        layers.uninstall()
    for problem in run.problems:
        checker.problem(problem)
    # An RQ1 campaign has only about 8 slow misses, fewer than a tail
    # needs beyond it, so its misses are pooled over the run.
    values = run.end_to_end(
        pooled_misses=args.workload == "issues-campaign")
    values["peak_rss_mb"] = peak_rss_mb()
    log("make-up: " + json.dumps(run.shares(), sort_keys=True))
    out = {"attempted": run.attempted, "failed": run.failed,
           "values": values}
    if recorder is not None:
        out["layers"] = batch_layers(run, recorder)
        problems = layers.reconcile(recorder, run.phases,
                                    UNTIMED.get(args.workload, ()))
        for problem in problems:
            checker.problem("reconcile " + problem)
        layers.write_spans(recorder, HERE / "out" /
                           f"spans-{args.workload}-{args.seed}.json")
    return out


def batch_layers(run, recorder) -> dict:
    counts, seconds = recorder.counts, recorder.seconds
    windows = run.windows
    requests = counts.get("llm.requests", 0)
    values = {name: 0.0 for name in PER_LAYER}
    values.update({
        "extract.s": seconds.get("extract", 0.0),
        "extract.windows": run.extract.get("emitted", 0),
        "extract.duplicates": run.extract.get("duplicates", 0),
        "extract.still_optimizable": run.extract.get("still_optimizable",
                                                     0),
        "llm.calls": requests,
        "llm.s": seconds.get("llm", 0.0),
        "llm.tokens": counts.get("llm.tokens", 0),
        "llm.found_per_call": run.found / requests if requests else 0.0,
        "cache.opt_hits": run.cache.get("opt_hits", 0),
        "cache.opt_misses": run.cache.get("opt_misses", 0),
        "cache.verify_hits": run.cache.get("verify_hits", 0),
        "cache.verify_misses": run.cache.get("verify_misses", 0),
        "pipeline.attempts_per_window": run.attempts / windows,
        "pipeline.waves": run.waves,
    })
    for layer in ("opt", "analysis", "interesting", "verify",
                  "verify.static", "verify.testing", "verify.exhaustive",
                  "verify.sat"):
        values[layer + ".calls"] = counts.get(layer + ".calls", 0)
        values[layer + ".s"] = seconds.get(layer, 0.0)
    for name in ("analysis.rejects", "interesting.rejects", "verify.proved",
                 "verify.validated", "verify.refuted", "verify.unverified",
                 "verify.static.refuted", "verify.testing.refuted",
                 "verify.sat.conflicts"):
        values[name] = counts.get(name, 0)
    return values


def run_service_workload(args, checker) -> dict:
    import service_load
    from common import child_pids, peak_rss_mb

    inputs = service_load.setup_inputs(args.seed)
    jobs = service_load.schedule(inputs, args.seconds)
    probes: list = []
    meter = service_load.TokenMeter()
    try:
        service, server, port = service_load.start_service()
        try:
            warm = service_load.warm(port, inputs["windows"])
            before = service.status()
            meter.tokens = 0
            report = service_load.run_generator(port, jobs, args.seconds)
            tokens = meter.tokens
            after = service.status()
            if args.trace:
                probes = service_load.probe_round_trips(
                    port, inputs["windows"], args.seed)
            pool = [pid for pid in child_pids(os.getpid())
                    if pid != report["pid"]]
            rss = peak_rss_mb(pool)
        finally:
            service_load.stop_service(service, server)
    finally:
        meter.close()
    warm_results = [{"ir": ir, "round": 0, "found": result.found,
                     "candidate_text": result.candidate_text,
                     "status": result.status}
                    for ir, result in zip(inputs["windows"], warm)]
    for problem in service_load.check_answers(report, warm_results):
        checker.problem(problem)
    answers = {(result["ir"], result["round"]): result
               for result in warm_results + report["results"]}
    summary = service_load.summarize(report)
    found = 0
    for (ir, round_seed), result in sorted(answers.items(),
                                           key=lambda item: item[0][1]):
        if result["found"]:
            found += 1
            checker.found(ir, result["candidate_text"],
                          f"round {round_seed}")
    values = dict(summary["values"])
    # Distinct (window, round) jobs answered as found: the warm round
    # and the fresh rounds, the same set on every seed.
    values["findings"] = found
    values["llm_tokens"] = tokens
    values["peak_rss_mb"] = rss
    hits = sum(1 for job in jobs if job["kind"] == "hot")
    log(f"open loop: {len(jobs)} jobs in {args.seconds:g}s "
        f"({len(jobs) / args.seconds:.1f}/s): {hits} hits, "
        f"{len(jobs) - hits} misses; generator at most "
        f"{summary['lateness_max_ms']:.2f} ms late (p99 "
        f"{summary['lateness_p99_ms']:.2f} ms); backlog median "
        f"{summary['backlog_p50']:g}, max {summary['backlog_max']}, at the "
        f"end {summary['end_backlog']}; whole-run tails (not reported): "
        + json.dumps({kind: round(value, 2) for kind, value
                      in summary["whole_tail_ms"].items()}))
    out = {"attempted": len(jobs),
           "failed": sum(1 for result in report["results"]
                         if not result["ok"]),
           "values": values, "invalid": summary["invalid"]}
    if args.trace:
        phases = {name: after["phases"][name]
                  - before["phases"].get(name, 0.0)
                  for name in after["phases"]}
        counters = {name: service_load.delta(after, before, name)
                    for name in ("cache_hits", "cache_misses", "requeued")}
        out["layers"] = service_layers(report, summary, counters, phases,
                                       probes, tokens)
        top = sum(phases.get(name, 0.0) for name in
                  ("opt", "llm", "analysis", "interestingness", "verify"))
        busy = summary["busy_s"]
        share = top / busy if busy else 0.0
        log(f"reconcile: phases {top:.3f}s of {busy:.3f}s in-worker "
            f"({share:.1%})")
        low, high = service_load.PHASE_SHARE
        if not low <= share <= high:
            checker.problem(f"reconcile: status phases cover {share:.1%} "
                            f"of in-worker seconds")
    return out


def service_layers(report, summary, counters, phases, probes,
                   tokens) -> dict:
    from common import p50

    results = report["results"]
    wire = report["wire"]
    values = {name: 0.0 for name in PER_LAYER}
    first_answer = {}
    coalesced = 0
    for result in sorted(results, key=lambda r: r["received"]):
        key = (result["ir"], result["round"])
        answered = first_answer.get(key)
        if result["cached"] and result["kind"] == "fresh" and (
                answered is None or answered > result["sent"]):
            coalesced += 1
        first_answer.setdefault(key, result["received"])
    waits = [r["server_latency"] - (0.0 if r["cached"]
                                    else r["elapsed_seconds"])
             for r in results if r["ok"]]
    values.update({
        "llm.s": phases.get("llm", 0.0),
        "llm.tokens": tokens,
        "opt.s": phases.get("opt", 0.0),
        "analysis.s": phases.get("analysis", 0.0),
        "interesting.s": phases.get("interestingness", 0.0),
        "verify.s": phases.get("verify", 0.0),
        "verify.static.s": phases.get("verify.static", 0.0),
        "verify.testing.s": phases.get("verify.testing", 0.0),
        "verify.exhaustive.s": phases.get("verify.exhaustive", 0.0),
        "verify.sat.s": phases.get("verify.sat", 0.0),
        "wire.bytes_per_job": wire["bytes"] / wire["encodes"],
        "wire.encode_us": wire["encode_s"] / wire["encodes"] * 1e6,
        "wire.decode_us": wire["decode_s"] / wire["decodes"] * 1e6,
        "client.hit_round_trip_ms": p50(probes) * 1e3,
        "server.job_cache_hits": counters["cache_hits"],
        "server.job_cache_misses": counters["cache_misses"],
        "server.coalesced": coalesced,
        "server.queue_wait_ms": p50(waits) * 1e3,
        "workers.jobs": len(summary["misses"]),
        "workers.busy_s": summary["busy_s"],
        "workers.restarts": counters["requeued"],
    })
    return values


PER_LAYER = (
    "extract.s", "extract.windows", "extract.duplicates",
    "extract.still_optimizable",
    "llm.calls", "llm.s", "llm.tokens", "llm.found_per_call",
    "opt.calls", "opt.s",
    "analysis.calls", "analysis.s", "analysis.rejects",
    "interesting.calls", "interesting.s", "interesting.rejects",
    "verify.calls", "verify.s", "verify.proved", "verify.validated",
    "verify.refuted", "verify.unverified",
    "verify.static.calls", "verify.static.s", "verify.static.refuted",
    "verify.testing.calls", "verify.testing.s", "verify.testing.refuted",
    "verify.exhaustive.calls", "verify.exhaustive.s",
    "verify.sat.calls", "verify.sat.s", "verify.sat.conflicts",
    "cache.opt_hits", "cache.opt_misses", "cache.verify_hits",
    "cache.verify_misses",
    "pipeline.attempts_per_window", "pipeline.waves",
    "wire.bytes_per_job", "wire.encode_us", "wire.decode_us",
    "client.hit_round_trip_ms",
    "server.job_cache_hits", "server.job_cache_misses", "server.coalesced",
    "server.queue_wait_ms",
    "workers.jobs", "workers.busy_s", "workers.restarts",
)

def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ms", "_us")):
        return name[-2:]
    return {"wire.bytes_per_job": "bytes",
            "pipeline.attempts_per_window": "ratio",
            "llm.found_per_call": "ratio"}.get(name, "count")


def fix_hash_seed() -> None:
    """Re-run under a fixed PYTHONHASHSEED: dict and set orders then
    repeat from run to run, which steadies sub-millisecond timings."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    require_sources()
    fix_hash_seed()
    from checks import Checker

    setup_s = time_setup(args.workload, args.seed)
    checker = Checker(seed=args.seed)
    if args.workload == "service-openloop":
        out = run_service_workload(args, checker)
    else:
        out = run_batch_workload(args, checker)
    values = out["values"]
    values["setup_s"] = setup_s
    checks = checker.summary()
    log("checks: " + json.dumps(checks, sort_keys=True))
    log("end-to-end: " + json.dumps({name: round(value, 4) for name, value
                                      in sorted(values.items())}))
    correct = not checks["problems"]
    if out.get("invalid"):
        log("invalid open-loop run: " + "; ".join(out["invalid"]))
        print(json.dumps({"correct": False, "attempted": out["attempted"],
                          "failed": out["failed"], "metrics": {}}))
        return 1
    if args.trace:
        metrics = {name: {"value": float(out["layers"][name]),
                          "unit": layer_unit(name)} for name in PER_LAYER}
    else:
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
