"""The ``service-openloop`` workload.

An :class:`~repro.service.server.OptimizationService` with its default
process pool (``nproc`` workers) behind a
:class:`~repro.service.server.ServiceServer`, as ``repro serve`` runs it,
driven by one generator process (:mod:`loadgen`) that sends a seeded
open-loop stream over ``nproc`` connections.

The traffic is that of a service answering campaign rounds over the
corpus-discovery corpus (267 windows):

* *hot* jobs resubmit round 0 of a window.  Round 0 of every window is
  run before the timed phase, as a first campaign round would fill the job
  cache, so these are job-cache hits; popularity is Zipf-skewed over
  the windows in digest order.
* *fresh* jobs carry later rounds (round seeds 1, 2, ...) of every
  window, a whole number of rounds per run in seeded order; each is
  a cold LPO run whose result fills a new job-cache entry.

There are ``HITS_PER_MISS`` hot jobs per fresh one, interleaved at
random and spread over the run as a Poisson process (uniform arrival
times given the count).  The fresh-job rate is ``LOAD_SHARE`` of the
rate at which the service drains fresh jobs when saturated (see
``SATURATED_JOBS_PER_S``), so the worker pool is often busy and the
server queue, the slot semaphore and the dispatcher are exercised,
while the backlog stays bounded.

One run sends the schedule once, to a freshly started service.
The seed drives the traffic (arrival times, interleaving, popularity
draws, order of the fresh jobs); the set of jobs and the service's
configuration do not depend on it.

Every job is timed from when it was due, not from when it was sent.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import derive, p50, tail

HERE = Path(__file__).resolve().parent

SERVICE_MODEL = "sim:Gemini2.0T"
#: Hot jobs per fresh job: the 2:1 hit:miss mix of the repository's
#: service throughput benchmark (one cold pass, two warm passes).
HITS_PER_MISS = 2
#: Zipf exponent of the hot windows' popularity.  Every hot job is a
#: hit whatever its window, so the exponent only decides which cached
#: entries are read; 1 is the classic Zipf law.
ZIPF_EXPONENT = 1.0
#: Fresh jobs per second the service drains when every job is due at
#: once: 1068 fresh jobs (rounds 1-4 of every window) in 10.2 s on the
#: 2-vCPU reference machine with two workers.
SATURATED_JOBS_PER_S = 105.0
#: The offered fresh-job rate as a share of SATURATED_JOBS_PER_S.  The
#: in-worker cost is heavy-tailed (median 1.6 ms, p99 96 ms, a few jobs
#: 2 s), so both workers are often busy at this share; it leaves room
#: for the machine to run 2x slower without the backlog growing.
LOAD_SHARE = 0.4
#: The corpus the windows come from (the corpus-discovery corpus).
CORPUS_SEED = 0
MODULES_PER_PROJECT = 2
#: A run is invalid when the generator fell behind: its 99th
#: percentile of lateness (sent after due) exceeds this ...
MAX_LATENESS_S = 0.1
#: ... or when the backlog grew: its median over the second half of the
#: schedule exceeds BACKLOG_GROWTH times its median over the first half
#: plus BACKLOG_SLACK jobs.  Medians, because the backlog jumps for a
#: second or two whenever long jobs hold every worker.
BACKLOG_GROWTH = 2.0
BACKLOG_SLACK = 8
#: Traced run: the status() phases of fresh jobs must cover this share
#: of their in-worker seconds (the rest is the loop's own bookkeeping).
PHASE_SHARE = (0.9, 1.001)
#: Latency percentiles are taken within stretches of this many seconds
#: of the schedule (by due time) and the median over stretches is
#: reported; a stretch holds about 170 hot and 85 fresh jobs.
STRETCH_SECONDS = 2.0
#: Closed-loop hot round trips through ServiceClient in the traced run.
PROBE_ROUND_TRIPS = 40


def workers() -> int:
    return max(1, os.cpu_count() or 1)


def setup_inputs(seed: int) -> dict:
    """The corpus windows in digest order, and the traffic rng."""
    from repro.core.extractor import extract_from_corpus
    from repro.corpus.generator import generate_corpus
    from repro.ir.printer import print_function

    corpus = generate_corpus(seed=CORPUS_SEED,
                             modules_per_project=MODULES_PER_PROJECT)
    windows = sorted(extract_from_corpus(corpus),
                     key=lambda window: window.digest)
    return {"windows": [print_function(window.function)
                        for window in windows],
            "rng": random.Random(derive(seed, "service"))}


def fresh_rounds(windows: int, seconds: float) -> int:
    """Whole rounds of fresh jobs that come nearest the offered rate."""
    return max(1, round(LOAD_SHARE * SATURATED_JOBS_PER_S * seconds
                        / windows))


def schedule(inputs: dict, seconds: float) -> List[dict]:
    """The run's jobs: due offsets, windows, rounds, and kinds."""
    rng: random.Random = inputs["rng"]
    windows = inputs["windows"]
    fresh = [(ir, round_seed) for round_seed in
             range(1, 1 + fresh_rounds(len(windows), seconds))
             for ir in windows]
    rng.shuffle(fresh)
    kinds = ["fresh"] * len(fresh) + ["hot"] * HITS_PER_MISS * len(fresh)
    rng.shuffle(kinds)
    dues = sorted(rng.uniform(0.0, seconds) for _ in kinds)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(windows))]
    fresh_jobs = iter(fresh)
    jobs = []
    for index, (due, kind) in enumerate(zip(dues, kinds)):
        if kind == "fresh":
            ir, round_seed = next(fresh_jobs)
        else:
            ir, round_seed = rng.choices(windows, weights)[0], 0
        jobs.append({"id": f"j{index}", "due": due, "kind": kind,
                     "ir": ir, "round": round_seed})
    return jobs


class TokenMeter:
    """Token spend of the service's workers.

    The service reports spend in dollars only, so this wraps the
    per-job worker entry point to ship each job's token delta in its
    payload, and the server's payload hook to add it up.  Installed
    before the worker pool forks, so the workers inherit the wrapper.
    """

    def __init__(self):
        from repro.service import server, workers as pool

        self.tokens = 0
        self._originals = [(pool, "_run_spec", pool._run_spec),
                           (server.OptimizationService, "_note_worker",
                            server.OptimizationService._note_worker)]
        run_spec = pool._run_spec
        note_worker = server.OptimizationService._note_worker
        meter = self

        def counted_run_spec(pipeline, spec, backend_key):
            usage = getattr(getattr(pipeline.client, "stats", None),
                            "usage", None)
            before = (usage.prompt_tokens + usage.completion_tokens
                      if usage is not None else 0)
            payload = run_spec(pipeline, spec, backend_key)
            if usage is not None:
                payload["benchmark_tokens"] = (
                    usage.prompt_tokens + usage.completion_tokens - before)
            return payload

        def counted_note_worker(service, payload):
            meter.tokens += int(payload.get("benchmark_tokens", 0))
            return note_worker(service, payload)

        pool._run_spec = counted_run_spec
        server.OptimizationService._note_worker = counted_note_worker

    def close(self) -> None:
        for owner, attribute, original in self._originals:
            setattr(owner, attribute, original)


def start_service():
    from repro.service.server import OptimizationService, ServiceServer

    service = OptimizationService(jobs=workers(),
                                  default_model=SERVICE_MODEL,
                                  queue_limit=4096,
                                  slow_job_seconds=None)
    server = ServiceServer(service)
    port = server.start_background()
    return service, server, port


def stop_service(service, server) -> None:
    server.stop()
    service.close()


def warm(port: int, windows: List[str]) -> list:
    """Round 0 of every window, so that hot jobs are job-cache hits."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import JobSpec

    with ServiceClient(port) as client:
        return client.submit_many([JobSpec(ir=ir, model=SERVICE_MODEL)
                                   for ir in windows])


def probe_round_trips(port: int, windows: List[str],
                      seed: int) -> List[float]:
    """Closed-loop hot round trips through the public ServiceClient."""
    from repro.service.client import ServiceClient
    from repro.service.protocol import JobSpec

    rng = random.Random(derive(seed, "probe"))
    times = []
    with ServiceClient(port) as client:
        for _ in range(PROBE_ROUND_TRIPS):
            began = time.perf_counter()
            client.submit(JobSpec(ir=rng.choice(windows),
                                  model=SERVICE_MODEL))
            times.append(time.perf_counter() - began)
    return times


def run_generator(port: int, jobs: List[dict], seconds: float) -> dict:
    """Run :mod:`loadgen` in its own process and return its report."""
    request = {"port": port, "connections": workers(), "model": SERVICE_MODEL,
               "seconds": seconds, "jobs": jobs}
    child = subprocess.Popen([sys.executable, str(HERE / "loadgen.py")],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             cwd=str(HERE.parent))
    try:
        out, _ = child.communicate(json.dumps(request).encode(),
                                   timeout=seconds + 120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"load generator exited {child.returncode}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    report["pid"] = child.pid
    return report


def delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def check_answers(report: dict, warm_results: list) -> List[str]:
    """A cache hit must repeat the verdict of the run that filled it,
    and every hot job must be a hit."""
    problems = []
    first: Dict[tuple, dict] = {}
    for result in warm_results:
        first.setdefault((result["ir"], 0), result)
    for result in sorted(report["results"], key=lambda r: r["received"]):
        if not result["ok"]:
            continue
        key = (result["ir"], result["round"])
        filled = first.get(key)
        if filled is None:
            first[key] = result
        elif (filled["found"], filled["candidate_text"]) != (
                result["found"], result["candidate_text"]):
            problems.append(f"{result['id']}: cache hit answered "
                            f"{result['status']!r}, the run that filled the "
                            f"entry {filled['status']!r}")
        if result["kind"] == "hot" and not result["cached"]:
            problems.append(f"{result['id']}: hot window missed the job "
                            f"cache")
    return problems


def validity(report: dict) -> List[str]:
    """Why the run's figures do not describe an open loop, if they do
    not: the generator fell behind, or the backlog grew."""
    invalid = []
    lateness = statistics.quantiles(report["lateness"], n=100)[98]
    if lateness > MAX_LATENESS_S:
        invalid.append(f"generator ran {lateness * 1e3:.1f} ms late "
                       f"(99th percentile)")
    half = report["schedule_seconds"] / 2
    first = p50([due for at, due in report["backlog"] if at < half])
    second = p50([due for at, due in report["backlog"] if at >= half])
    if second > BACKLOG_GROWTH * first + BACKLOG_SLACK:
        invalid.append(f"backlog grew: median {first:g} jobs in the first "
                       f"half, {second:g} in the second")
    return invalid


def stretches(results: List[dict]) -> List[List[dict]]:
    """Jobs grouped by STRETCH_SECONDS of due time; a short last stretch
    joins the one before it."""
    groups: Dict[int, List[dict]] = {}
    for result in results:
        groups.setdefault(int(result["due"] // STRETCH_SECONDS),
                          []).append(result)
    ordered = [groups[key] for key in sorted(groups)]
    if len(ordered) > 1 and len(ordered[-1]) < len(ordered[0]) / 2:
        ordered[-2] += ordered.pop()
    return ordered


def summarize(report: dict) -> dict:
    """End-to-end figures and validity of one run."""
    results = report["results"]
    misses = [r for r in results if not r["cached"] and r["ok"]]
    figures: Dict[str, List[float]] = {}
    for group in stretches(results):
        hits = [r["latency"] for r in group if r["cached"]]
        fresh = [r["latency"] for r in group
                 if not r["cached"] and r["ok"]]
        everything = [r["latency"] for r in group]
        for name, value in (("window_latency_p50_ms", p50(everything)),
                            ("window_latency_tail_ms", tail(everything)),
                            ("hit_latency_p50_ms", p50(hits)),
                            ("hit_latency_tail_ms", tail(hits)),
                            ("miss_latency_p50_ms", p50(fresh)),
                            ("miss_latency_tail_ms", tail(fresh))):
            figures.setdefault(name, []).append(value * 1e3)
    values = {name: p50(group_values)
              for name, group_values in figures.items()}
    # The job rate the pool sustains at the median miss's in-worker
    # cost.  The few long jobs (about 1-2 s each) are left to the
    # median: which of them hit a worker's step cache depends on which
    # worker ran the earlier round, so their sum differs from run to run.
    values["windows_per_s"] = (len(results) / len(misses) * workers()
                               / p50([r["elapsed_seconds"] for r in misses]))
    whole = {"hit": [r["latency"] for r in results if r["cached"]],
             "miss": [r["latency"] for r in misses]}
    return {
        "values": values, "misses": misses,
        "busy_s": sum(r["elapsed_seconds"] for r in misses),
        "whole_tail_ms": {kind: tail(times) * 1e3
                          for kind, times in whole.items()},
        "invalid": validity(report),
        "lateness_max_ms": max(report["lateness"]) * 1e3,
        "lateness_p99_ms": statistics.quantiles(
            report["lateness"], n=100)[98] * 1e3,
        "backlog_p50": p50([due for _, due in report["backlog"]]),
        "backlog_max": max(due for _, due in report["backlog"]),
        "end_backlog": report["end_backlog"],
    }
