"""The two batch workloads: ``issues-campaign`` and ``corpus-discovery``.

Both run in the benchmark's own process on the serial path.  A run
repeats one operation (a whole RQ1 campaign, or a whole discovery pass)
a number of times chosen from ``--seconds`` by the operation's nominal
length on the reference machine; every repetition starts from a cold
cache and does exactly the same work.  Each window-round is timed in
every repetition and the fastest repetition's time is kept: the speed
of a shared machine swings by tens of percent within seconds and only
ever slows the work down, so the minimum over repetitions is the
steadiest estimate of what the program costs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

import layers
from checks import Checker
from common import derive, p50, tail

#: Nominal seconds of one operation on the reference machine.
CAMPAIGN_SECONDS = 13.0
PASS_SECONDS = 6.5

#: issues-campaign: the paper's RQ1 set-up (Table 2).
ROUNDS = 5
RQ1_MODEL_SEED = 0
#: corpus-discovery: the fixed project corpus and the one model.
CORPUS_SEED = 0
MODULES_PER_PROJECT = 2
DISCOVERY_MODEL = "Gemini2.0T"
DISCOVERY_SEED = 0
#: Every RESCAN_EVERY-th window (in extraction order) is scanned again
#: against the warm step cache after the cold scan.
RESCAN_EVERY = 4
#: extract_from_corpus's default window-size limit (instructions).
MAX_WINDOW = 24


def repetitions(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


@dataclass
class BatchRun:
    """Samples of every repetition, keyed so repetitions line up."""

    #: window-round key -> seconds in each repetition
    samples: Dict[tuple, List[float]] = field(default_factory=dict)
    #: window-round key -> all its steps came from the step cache
    hit: Dict[tuple, bool] = field(default_factory=dict)
    #: window-round key -> latency group (percentiles are per group)
    group: Dict[tuple, str] = field(default_factory=dict)
    #: throughput: chunk key -> seconds in each repetition, and the
    #: window-rounds one repetition finishes
    chunks: Dict[tuple, List[float]] = field(default_factory=dict)
    scanned: int = 0
    findings: List[float] = field(default_factory=list)
    tokens: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    phases: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)
    attempts: int = 0
    windows: int = 0
    waves: int = 0
    found: int = 0
    reached_verify: int = 0
    extract: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def record(self, key: tuple, result, seconds: float,
               group: str = "") -> None:
        self.samples.setdefault(key, []).append(seconds)
        # A window-round whose opt and verify steps were all served
        # from the step cache records no opt/verify phase.
        self.hit[key] = not ("opt" in result.phases
                             or "verify" in result.phases)
        self.group[key] = group
        for name, value in result.phases.items():
            self.phases[name] = self.phases.get(name, 0.0) + value
        self.windows += 1
        self.attempts += len(result.attempts)
        self.found += int(result.found)
        self.reached_verify += any(attempt.verification is not None
                                   for attempt in result.attempts)

    def chunk(self, key: tuple, seconds: float) -> None:
        self.chunks.setdefault(key, []).append(seconds)

    def add_cache(self, stats) -> None:
        for name in ("opt_hits", "opt_misses", "verify_hits",
                     "verify_misses"):
            self.cache[name] = self.cache.get(name, 0) + getattr(stats,
                                                                 name)

    def end_to_end(self, pooled_misses: bool = False) -> Dict[str, float]:
        """The end-to-end figures from the fastest repetition of each
        sample.  Percentiles are taken within each latency group and
        the median over groups is reported; with ``pooled_misses`` the
        misses form one group."""
        best = {key: min(times) for key, times in self.samples.items()}

        def latency(kind, statistic) -> float:
            groups: Dict[str, List[float]] = {}
            for key, seconds in best.items():
                if kind == "all" or (kind == "hit") == self.hit[key]:
                    name = ("" if kind == "miss" and pooled_misses
                            else self.group[key])
                    groups.setdefault(name, []).append(seconds)
            return p50([statistic(values)
                        for values in groups.values()]) * 1e3

        return {
            "windows_per_s": self.scanned / sum(
                min(times) for times in self.chunks.values()),
            "findings": p50(self.findings),
            "llm_tokens": p50(self.tokens),
            "window_latency_p50_ms": latency("all", p50),
            "window_latency_tail_ms": latency("all", tail),
            "hit_latency_p50_ms": latency("hit", p50),
            "hit_latency_tail_ms": latency("hit", tail),
            "miss_latency_p50_ms": latency("miss", p50),
            "miss_latency_tail_ms": latency("miss", tail),
        }

    def shares(self) -> Dict[str, object]:
        """Workload make-up, for the README and the stderr report."""
        hits = sum(1 for key in self.samples if self.hit[key])
        verify = self.phases.get("verify", 0.0) or 1.0
        steps = sum(self.cache.values()) or 1
        return {
            "samples": {"all": len(self.samples), "hit": hits,
                        "miss": len(self.samples) - hits},
            "repetitions": len(self.findings),
            "step_cache_hit_share": (self.cache.get("opt_hits", 0)
                                     + self.cache.get("verify_hits", 0))
            / steps,
            "all_hit_window_share": hits / len(self.samples),
            "reached_verify_share": self.reached_verify / self.windows,
            "verify_tier_share": {
                tier: self.phases.get("verify." + tier, 0.0) / verify
                for tier in ("static", "testing", "exhaustive", "sat")},
        }


# -- issues-campaign --------------------------------------------------------
def setup_issues(seed: int) -> dict:
    """The paper's RQ1 experiment as it stands (25 issues, six models,
    rounds 0-4, model seed 0); the seed orders the issues and models."""
    from repro.core.pipeline import window_from_text
    from repro.corpus.issues import rq1_cases
    from repro.experiments.rq1 import RQ1Config, rq1_campaign_spec
    from repro.llm.profiles import RQ1_MODELS

    rng = random.Random(derive(seed, "issues"))
    cases = list(rq1_cases())
    rng.shuffle(cases)
    models = list(RQ1_MODELS)
    rng.shuffle(models)
    return {"cases": cases,
            "windows": [window_from_text(case.src) for case in cases],
            "spec": rq1_campaign_spec(RQ1Config(rounds=ROUNDS, cases=cases,
                                                models=models))}


def run_issues(inputs: dict, seed: int, seconds: float,
               checker: Checker) -> BatchRun:
    from repro.core.cache import ResultCache
    from repro.core.pipeline import LPOPipeline, PipelineConfig
    from repro.llm.backends import resolve_client
    from repro.service.campaign import RoundOutcome, execute_campaign
    from repro.service.protocol import CampaignResult

    windows = inputs["windows"]
    run = BatchRun()
    for _ in range(repetitions(seconds, CAMPAIGN_SECONDS)):
        cache = ResultCache()
        pipelines: Dict[object, LPOPipeline] = {}
        results_by_round: List[tuple] = []
        tokens = 0

        def run_round(leg, round_index, round_seed):
            nonlocal tokens
            pipeline = pipelines.get(leg)
            if pipeline is None:
                pipeline = LPOPipeline(
                    resolve_client(leg.model, seed=RQ1_MODEL_SEED),
                    PipelineConfig(attempt_limit=leg.attempt_limit),
                    cache=cache)
                pipelines[leg] = pipeline
            if layers.RECORDER is not None:
                layers.RECORDER.request = f"{leg.key}#{round_index}"
            began = time.perf_counter()
            try:
                batch = pipeline.run_batch(windows, round_seed=round_seed,
                                           jobs=1)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                run.failed += len(windows)
                run.problems.append(f"{leg.key} round {round_index}: {exc}")
                return [RoundOutcome(found=False, ok=False, error=str(exc))
                        for _ in windows]
            run.chunk((leg.key, round_index), time.perf_counter() - began)
            run.waves += batch.stats.llm_waves
            # Window and hit percentiles are taken per leg (one model
            # and variant over all rounds: 125 window-rounds).
            for case, result in zip(inputs["cases"], batch):
                run.record((leg.key, round_index, case.issue_id), result,
                           result.elapsed_seconds, group=leg.key)
                tokens += (result.usage.prompt_tokens
                           + result.usage.completion_tokens)
            results_by_round.append((leg, round_index, list(batch)))
            return [RoundOutcome(found=result.found) for result in batch]

        campaign = execute_campaign(inputs["spec"], run_round)
        run.attempted += campaign.jobs
        run.scanned = campaign.jobs
        run.add_cache(cache.stats)
        run.tokens.append(tokens)
        # Table 2's Total row, summed over every (model, variant) leg.
        run.findings.append(sum(sum(1 for count in counts.values() if count)
                                for counts in campaign.counts.values()))

        for leg, round_index, results in results_by_round:
            for case, result in zip(inputs["cases"], results):
                checker.window_result(
                    result, f"{leg.key} round {round_index} issue "
                            f"{case.issue_id}")
        for model in inputs["spec"].models:
            lpo = campaign.counts.get(CampaignResult.leg_key(model, "LPO"),
                                      {})
            ablated = campaign.counts.get(
                CampaignResult.leg_key(model, "LPO-"), {})
            for case_id, count in ablated.items():
                if lpo.get(case_id, 0) < count:
                    checker.problem(f"{model} issue {case_id}: LPO found "
                                    f"it {lpo.get(case_id, 0)}x, LPO- "
                                    f"{count}x")
    return run


# -- corpus-discovery -------------------------------------------------------
def setup_corpus(seed: int) -> dict:
    from repro.corpus.generator import generate_corpus

    corpus = generate_corpus(seed=CORPUS_SEED,
                             modules_per_project=MODULES_PER_PROJECT)
    planted = set()
    for module in corpus:
        planted.update(getattr(module, "planted_issues", ()))
    return {"corpus": corpus, "planted": planted,
            "rng": random.Random(derive(seed, "corpus"))}


def run_corpus(inputs: dict, seed: int, seconds: float,
               checker: Checker) -> BatchRun:
    from repro.core.extractor import ExtractionStats, extract_from_corpus
    from repro.core.pipeline import LPOPipeline, PipelineConfig
    from repro.llm.backends import resolve_client
    from repro.llm.knowledge import default_knowledge_base

    knowledge = default_knowledge_base()
    run = BatchRun()
    order = None
    for index in range(repetitions(seconds, PASS_SECONDS)):
        recorder = layers.RECORDER
        stats = ExtractionStats()
        began = time.perf_counter()
        if recorder is not None:
            windows = recorder.span("extract", extract_from_corpus,
                                    (inputs["corpus"],), {"stats": stats})
        else:
            windows = extract_from_corpus(inputs["corpus"], stats=stats)
        run.chunk(("extract",), time.perf_counter() - began)
        if order is None:
            # The workload seed orders the windows, the same way in
            # every repetition.
            order = list(range(len(windows)))
            inputs["rng"].shuffle(order)
        pipeline = LPOPipeline(resolve_client(DISCOVERY_MODEL,
                                              seed=DISCOVERY_SEED),
                               PipelineConfig())
        results = [None] * len(windows)
        for position in order:
            if recorder is not None:
                recorder.request = f"pass{index}/w{position}"
            began = time.perf_counter()
            result = pipeline.optimize_window(windows[position],
                                              round_seed=DISCOVERY_SEED)
            taken = time.perf_counter() - began
            run.record(("scan", position), result, taken)
            run.chunk(("scan", position), taken)
            results[position] = result
        # A re-scan of a quarter of the unchanged corpus: its opt and
        # verify steps come from the warm step cache.
        rescanned = 0
        for position in order:
            if position % RESCAN_EVERY:
                continue
            if recorder is not None:
                recorder.request = f"pass{index}/rescan{position}"
            began = time.perf_counter()
            result = pipeline.optimize_window(windows[position],
                                              round_seed=DISCOVERY_SEED)
            run.record(("rescan", position), result,
                       time.perf_counter() - began)
            rescanned += 1
            if result.found != results[position].found:
                checker.problem(f"pass {index} window {position}: re-scan "
                                f"verdict differs from the first scan")
        # Throughput counts the discovery scan, extraction included.
        run.scanned = len(windows)
        run.attempted += len(windows) + rescanned
        run.findings.append(sum(int(result.found) for result in results))
        usage = pipeline.client.stats.usage
        run.tokens.append(usage.prompt_tokens + usage.completion_tokens)
        run.add_cache(pipeline.cache.stats)
        for name in ("emitted", "duplicates", "still_optimizable"):
            run.extract[name] = run.extract.get(name, 0) + getattr(stats,
                                                                   name)

        digests = [window.digest for window in windows]
        if len(set(digests)) != len(digests):
            checker.problem(f"pass {index}: extracted windows repeat a "
                            f"digest")
        oversized = [w for w in windows
                     if w.instruction_count > MAX_WINDOW]
        if oversized:
            checker.problem(f"pass {index}: {len(oversized)} windows exceed "
                            f"the window-size limit")
        issues = set()
        for position, (window, result) in enumerate(zip(windows, results)):
            checker.window_result(result, f"pass {index} window "
                                          f"{position}")
            if result.found:
                entry = knowledge.lookup(window.function)
                if entry is not None:
                    issues.add(entry.issue_id)
        stray = issues - inputs["planted"]
        if stray:
            checker.problem(f"pass {index}: found issues {sorted(stray)} "
                            f"that the generator did not plant")
    return run
