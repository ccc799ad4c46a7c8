"""Open-loop load generator for ``service-openloop`` (its own process).

Reads one JSON request on stdin (port, connection count, model,
seconds, and the jobs with their due offsets), sends every job at its
due time over round-robin connections whatever the replies are doing,
and prints one JSON report on stdout: per-job latency from the due
time, how late each send was, the backlog sampled through the run and
when the schedule ended, and the wire-layer costs (bytes, encode and decode microseconds).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.protocol import (  # noqa: E402
    JobSpec,
    decode_line,
    encode_line,
    result_from_wire,
    spec_to_wire,
)

#: Seconds to wait for the last answers after the schedule ends.
DRAIN_SECONDS = 90.0
#: Seconds between two samples of the backlog.
BACKLOG_EVERY = 0.1
_LINE_LIMIT = 4 * 1024 * 1024


async def _main(request: dict) -> dict:
    jobs = request["jobs"]
    by_id = {job["id"]: job for job in jobs}
    connections = [await asyncio.open_connection(
        "127.0.0.1", request["port"], limit=_LINE_LIMIT)
        for _ in range(request["connections"])]
    wire = {"bytes": 0, "encode_s": 0.0, "decode_s": 0.0, "encodes": 0,
            "decodes": 0}
    results = {}
    done = asyncio.Event()
    loop = asyncio.get_running_loop()

    async def read(reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = loop.time()
            began = time.perf_counter()
            message = decode_line(line)
            wire["decode_s"] += time.perf_counter() - began
            wire["decodes"] += 1
            wire["bytes"] += len(line)
            if message.get("type") == "result":
                answer = result_from_wire(message)
                job = by_id.get(answer.job_id)
                if job is None:
                    continue
                results[job["id"]] = {
                    "ok": answer.ok, "found": answer.found,
                    "status": answer.status,
                    "candidate_text": answer.candidate_text,
                    "cached": answer.cached,
                    "elapsed_seconds": answer.elapsed_seconds,
                    "server_latency": answer.latency_seconds,
                    "received": received - start}
            else:
                job = by_id.get(message.get("job_id", ""))
                if job is None:
                    continue
                results[job["id"]] = {
                    "ok": False, "found": False, "status": "error",
                    "candidate_text": "", "cached": False,
                    "elapsed_seconds": 0.0, "server_latency": 0.0,
                    "received": received - start,
                    "error": message.get("message", "")}
            if len(results) == len(jobs):
                done.set()

    start = loop.time() + 0.2
    readers = [asyncio.ensure_future(read(reader))
               for reader, _ in connections]
    sent = {}
    backlog = []

    async def sample() -> None:
        # Jobs due but not yet answered, every BACKLOG_EVERY seconds.
        while True:
            now = loop.time() - start
            due = sum(1 for job in jobs
                      if job["due"] <= now and job["id"] not in results)
            backlog.append([now, due])
            await asyncio.sleep(BACKLOG_EVERY)

    sampler = asyncio.ensure_future(sample())
    for index, job in enumerate(jobs):
        delay = start + job["due"] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        _, writer = connections[index % len(connections)]
        began = time.perf_counter()
        line = encode_line(spec_to_wire(JobSpec(
            ir=job["ir"], model=request["model"],
            round_seed=job["round"], job_id=job["id"])))
        wire["encode_s"] += time.perf_counter() - began
        wire["encodes"] += 1
        wire["bytes"] += len(line)
        sent[job["id"]] = loop.time() - start
        writer.write(line)
    end_of_schedule = loop.time()
    await asyncio.sleep(max(0.0, start + request["seconds"] - loop.time()))
    end_backlog = sum(1 for job in jobs if job["id"] not in results)
    sampler.cancel()
    if not done.is_set() and jobs:
        try:
            await asyncio.wait_for(done.wait(), DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass
    for reader in readers:
        reader.cancel()
    await asyncio.gather(sampler, *readers, return_exceptions=True)
    for _, writer in connections:
        writer.close()
    out = []
    for job in jobs:
        result = results.get(job["id"])
        if result is None:
            result = {"ok": False, "found": False, "status": "no answer",
                      "candidate_text": "", "cached": False,
                      "elapsed_seconds": 0.0, "server_latency": 0.0,
                      "received": loop.time() - start}
        result.update(id=job["id"], kind=job["kind"], ir=job["ir"],
                      round=job["round"],
                      due=job["due"], sent=sent[job["id"]],
                      latency=result["received"] - job["due"])
        out.append(result)
    return {"results": out,
            "lateness": [sent[job["id"]] - job["due"] for job in jobs],
            "end_backlog": end_backlog,
            "backlog": backlog,
            "schedule_seconds": end_of_schedule - start,
            "wire": wire}


def main() -> None:
    request = json.loads(sys.stdin.read())
    report = asyncio.run(_main(request))
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
