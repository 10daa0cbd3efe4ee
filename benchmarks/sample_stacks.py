#!/usr/bin/env python3
"""Stack samples and per-multiget event counts for one workload of ``bench/``.

    python benchmarks/sample_stacks.py sim|firehose|openloop [n] [--max-turns C,S]

A 1 kHz ``ITIMER_PROF`` signal records the running frame (self) and every
frame under it (cumulative) with no profiler hooks installed, while a few
counted methods say how often the *machinery* ran per multiget: event-loop
turns, socket reads, transport writes, feeder wakeups, task draws (and
how many draws a wakeup that draws makes), server passes; the summary line
gives ``next_task``'s cumulative share of the samples.
``sim`` samples ``run_experiment`` in this process (Stage F of
``docs/performance.md``); ``firehose`` and ``openloop`` fork a server that
samples itself and sample the client around ``run_firehose`` / ``run_live``
(Stages G and H).  With ``--max-turns C,S`` the exit status is non-zero
when the client's or the server's loop turns per multiget exceed the
limit -- a count, bounded above by epoll's 1,000 wakeups/s whatever the
machine's speed, that fails if a per-step hand-off to the event loop
comes back.

Reading the tables: the kernel may tick slower than 1 kHz (250 Hz here:
one sample per 4 ms of CPU), and CPython runs a pending signal handler only
at a function entry or a loop back-edge, so a tick inside a C call is
charged to the next Python function entered -- small hot functions read
high.  The sample names candidates; paired ``bench/run.py`` runs price them.
"""

import argparse
import asyncio
import collections
import multiprocessing
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

from workloads import WORKLOADS, steady_state  # noqa: E402

from repro.harness import run_experiment  # noqa: E402
from repro.loadgen import run_firehose, run_live  # noqa: E402
from repro.serve.server import run_server  # noqa: E402

#: (module, class, method, label): counted when the class has the method,
#: so one script reads this tree and its ancestors alike.
COUNTED = (
    ("asyncio.base_events", "BaseEventLoop", "_run_once", "loop turns"),
    ("asyncio.selector_events", "_SelectorSocketTransport", "_read_ready", "socket reads"),
    ("asyncio.selector_events", "_SelectorSocketTransport", "write", "writes"),
    ("repro.harness.runner", "Feeder", "step", "feeder wakeups"),
    ("repro.core.clock", "WallClock", "sleep", "feeder wakeups"),
    ("repro.workload.tasks", "TaskGenerator", "next_task", "task draws"),
    ("repro.loadgen.transport", "LiveTransport", "_deliver_local", "local deliveries"),
    ("repro.serve.workers", "WorkerPass", "run", "server passes"),
    ("repro.serve.workers", "LiveWorker", "_on_timer", "worker timers"),
)  # fmt: skip


class Sampler:
    """Self/cumulative frame hits plus the counted methods, for one process."""

    def __init__(self):
        self.self_hits = collections.Counter()
        self.cum_hits = collections.Counter()
        self.counts = collections.Counter()
        for module, owner, name, label in COUNTED:
            owner = getattr(sys.modules.get(module), owner, None)
            if owner is not None and hasattr(owner, name):
                self._count(owner, name, label)
        self._count_drawing_wakeups()

    def _count(self, owner, name, label):
        inner, counts = getattr(owner, name), self.counts

        def counted(*args, **kwargs):
            counts[label] += 1
            return inner(*args, **kwargs)

        setattr(owner, name, counted)

    def _count_drawing_wakeups(self):
        """'drawing wakeups': feeder wakeups that drew at least one task, so
        task draws per drawing wakeup is the size of a draw burst -- about
        one when every wakeup draws the next task, the block when the
        feeder draws tasks in blocks."""
        owner = sys.modules["repro.workload.tasks"].TaskGenerator
        inner, counts, last = owner.next_task, self.counts, [None]

        def counted(*args, **kwargs):
            if last[0] != counts["feeder wakeups"]:
                last[0] = counts["feeder wakeups"]
                counts["drawing wakeups"] += 1
            return inner(*args, **kwargs)

        owner.next_task = counted

    def _on_tick(self, _signum, frame):
        self.self_hits[(frame.f_code.co_filename[-28:], frame.f_code.co_name)] += 1
        stack = set()
        while frame is not None:
            stack.add((frame.f_code.co_filename[-28:], frame.f_code.co_name))
            frame = frame.f_back
        self.cum_hits.update(stack)

    def arm(self):
        self.counts.clear()
        self.cpu0 = time.process_time()
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, 0.001, 0.001)

    def stop(self):
        """Disarm; the picklable report (the server's crosses a pipe)."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        return {
            "cpu_s": time.process_time() - self.cpu0,
            "counts": dict(self.counts),
            "self": self.self_hits.most_common(25),
            "cumulative": self.cum_hits.most_common(25),
            "samples": sum(self.self_hits.values()),
            "next_task": sum(
                hits for (_, name), hits in self.cum_hits.items() if name == "next_task"
            ),
        }


def show(side, report, n):
    total = max(report["samples"], 1)
    draws = f", next_task {100 * report['next_task'] / total:.1f}% cumulative"
    print(
        f"== {side}: {report['samples']} samples, "
        f"{report['cpu_s'] / n * 1e6:.1f} us CPU per multiget"
        + (draws if report["next_task"] else "")
    )
    counts = report["counts"]
    print(
        "   per multiget: "
        + ", ".join(f"{k} {v / n:.2f}" for k, v in sorted(counts.items()))
    )
    if counts.get("task draws") and counts.get("feeder wakeups"):
        print(
            f"   task draws per feeder wakeup {counts['task draws'] / counts['feeder wakeups']:.2f}"
            f", per drawing wakeup {counts['task draws'] / counts['drawing wakeups']:.2f}"
        )
    for title in ("self", "cumulative"):
        print(f"-- {title}")
        for (path, name), hits in report[title]:
            print(f"{100 * hits / total:5.1f}%  {path}:{name}")
    sys.stdout.flush()


def sample_sim(n):
    run_experiment(steady_state("unifincr-credits", 500), 1)  # imports, warm caches
    sampler = Sampler()
    sampler.arm()
    run_experiment(steady_state("unifincr-credits", n), 1)
    return {"sim": sampler.stop()}


def _serve(pipe, config, time_scale):
    sampler = Sampler()

    def ready(server):
        pipe.send(server.port)
        sampler.arm()

    def dump(*_):
        pipe.send(sampler.stop())
        os._exit(0)

    signal.signal(signal.SIGTERM, dump)
    asyncio.run(run_server(config, ready=ready, time_scale=time_scale, seed=1, port=0))


def sample_live(kind, n):
    bench = WORKLOADS["live-firehose-fanout8" if kind == "firehose" else "live-openloop-brb"]
    config = bench.config() if kind == "firehose" else steady_state(bench.strategy, n)
    fork = multiprocessing.get_context("fork")
    parent_end, child_end = fork.Pipe()
    server = fork.Process(target=_serve, args=(child_end, config, bench.time_scale))
    server.start()
    endpoints = [("127.0.0.1", parent_end.recv())]
    sampler = Sampler()

    async def drive():
        sampler.arm()
        if kind == "firehose":
            return await run_firehose(endpoints, multigets=n, fanout=8, window=64)
        return await run_live(config, seed=1, endpoints=endpoints)

    try:
        asyncio.run(drive())
        client = sampler.stop()
    finally:
        server.terminate()
    reports = {"client": client, "server": parent_end.recv()}
    server.join()
    return reports


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=("sim", "firehose", "openloop"))
    parser.add_argument("n", nargs="?", type=int, help="multigets (tasks) to sample")
    parser.add_argument(
        "--max-turns", metavar="C,S",
        help="fail when client / server loop turns per multiget exceed these",
    )  # fmt: skip
    args = parser.parse_args(argv)
    n = args.n or {"sim": 15_000, "firehose": 100_000, "openloop": 5_000}[args.kind]
    reports = sample_sim(n) if args.kind == "sim" else sample_live(args.kind, n)
    # The firehose's own warm-up multigets are sampled too; the open loop
    # and the sim run exactly n.
    issued = n + min(100, n) if args.kind == "firehose" else n
    for side, report in reports.items():
        show(side, report, issued)
    if args.max_turns:
        limits = dict(zip(("client", "server"), map(float, args.max_turns.split(","))))
        over = {
            side: reports[side]["counts"].get("loop turns", 0) / issued
            for side, limit in limits.items()
            if reports[side]["counts"].get("loop turns", 0) / issued > limit
        }
        if over:
            print(f"FAIL: loop turns per multiget over the limit {limits}: {over}")
            return 1
        print(f"ok: loop turns per multiget within {limits}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
