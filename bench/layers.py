#!/usr/bin/env python3
"""Isolated-call microbenchmarks of public functions, one or more per layer.

    python3 bench/layers.py --seed 1

Inputs come from the steady-state trace (pinned content, see
``workloads.py``) with arrivals drawn from ``--seed``.  Each benchmark is
timed in rounds of at least ``min_time`` seconds of calls under the
concurrent calibrator (``noise.py``), and reports the median round in
calibrated time per call.  Standalone: 5 rounds of 0.5 s; behind
``run.py --trace 1`` fewer and shorter, because the driver's total time is
capped.

The last two codec lines price the v1 JSON data plane against the v2
binary one: the cost/benefit entry ROADMAP asks for.
"""

from __future__ import annotations

import statistics
import sys
import time
import typing as _t
from pathlib import Path

if __name__ == "__main__":
    _HERE = Path(__file__).resolve().parent
    sys.path.insert(0, str(_HERE))
    sys.path.insert(0, str(_HERE.parent / "src"))

from noise import Meter
from workloads import steady_state

from repro.cluster.messages import RequestMessage
from repro.core import CostModel, EqualMaxAssigner, UnifIncrAssigner, split_task
from repro.metrics import ExactSample, LatencySummary, LogHistogram
from repro.scheduling import PriorityDiscipline
from repro.serve import BINARY_CODEC, JSON_CODEC
from repro.sim import Environment
from repro.sim.rng import StreamFactory

STANDALONE = {"min_time": 0.5, "rounds": 5}
TRACED = {"min_time": 0.1, "rounds": 3}
QUICK = {"min_time": 0.01, "rounds": 1}
#: Tasks of the trace the inputs are cut from.
N_TASKS = 2000

Bench = _t.Tuple[_t.Callable[[], int], float]  # (body -> calls made, per-call unit in s)


def _timer_events() -> int:
    """100 generator processes on ``env.timeout``: the kernel micro-workload
    of ``benchmarks/conftest.py::pingpong_events``."""
    env = Environment()

    def ticker(period: float) -> _t.Generator:
        while True:
            yield env.timeout(period)

    for i in range(100):
        env.process(ticker(0.5 + 0.01 * i))
    env.run(until=100.0)
    return env.events_processed


def _callback_events() -> int:
    """The same bank as bare ``call_later`` callbacks (no generators)."""
    env = Environment()

    def make(period: float) -> _t.Callable[[_t.Any], None]:
        def tick(_arg: _t.Any = None) -> None:
            env.call_later(period, tick)

        return tick

    for i in range(100):
        env.call_later(0.0, make(0.5 + 0.01 * i))
    env.run(until=100.0)
    return env.events_processed


def build(seed: int) -> _t.Dict[str, Bench]:
    """name -> (body, unit).  A body makes its calls and returns how many."""
    config = steady_state("unifincr-credits", N_TASKS)
    workload = config.workload()
    tasks = workload.generate(seed)
    placement = config.cluster.make_placement()
    cost_model = CostModel(workload.service_model)
    split = [split_task(t, placement.partition_of, cost_model) for t in tasks]
    keys = [op.key for t in tasks for op in t.operations]
    op_groups = [st.operations for sts in split for st in sts]
    latencies = [1e-4 + 1e-6 * (k % 9973) for k in keys]
    requests = [
        RequestMessage(
            op=op, task_id=t.task_id, client_id=t.client_id, partition=0,
            priority=(float(op.value_size), t.arrival_time, float(op.op_id)),
        )
        for t in tasks[:200]
        for op in t.operations
    ]  # fmt: skip
    unifincr, equalmax = UnifIncrAssigner(), EqualMaxAssigner()
    discipline = PriorityDiscipline()

    binary_ops = [
        BINARY_CODEC.encode_op(i & 0xFFFF, i % 9, key, 1024, (0.5, 1.5, float(i)))
        for i, key in enumerate(keys[:2000])
    ]
    binary_res = [
        BINARY_CODEC.encode_res(i & 0xFFFF, i % 9, 1e-4, 2e-4, 3, 1, 2e-4)
        for i in range(2000)
    ]
    json_ops = [
        {"t": "op", "rid": i & 0xFFFF, "server": i % 9, "key": key, "size": 1024,
         "prio": [0.5, 1.5, float(i)]}
        for i, key in enumerate(keys[:2000])
    ]  # fmt: skip
    json_res = [
        JSON_CODEC.encode(
            {"t": "res", "rid": i & 0xFFFF, "server": i % 9, "qw": 1e-4, "svc": 2e-4,
             "ql": 3, "busy": 1, "ewma": 2e-4}
        )
        for i in range(2000)
    ]  # fmt: skip

    def next_task() -> int:
        generator = workload.generator(StreamFactory(seed))
        for _ in range(N_TASKS):
            generator.next_task()
        return N_TASKS

    def replicas_of_key() -> int:
        f = placement.replicas_of_key
        for key in keys:
            f(key)
        return len(keys)

    def assign(assigner: _t.Any) -> _t.Callable[[], int]:
        def body() -> int:
            f = assigner.assign
            for task, subtasks in zip(tasks, split):
                f(task, subtasks)
            return len(tasks)

        return body

    def cost_subtask() -> int:
        f = cost_model.subtask_cost
        for ops in op_groups:
            f(ops)
        return len(op_groups)

    def scheduling_key() -> int:
        f = discipline.key
        for request in requests:
            f(request, 0.0)
        return len(requests)

    def record(make: _t.Callable[[], _t.Any]) -> _t.Callable[[], int]:
        def body() -> int:
            f = make().record
            for value in latencies:
                f(value)
            return len(latencies)

        return body

    def summary() -> int:
        # A fresh sample each call: summarising a sorted one is a no-op.
        sample = ExactSample()
        sample.record_many(latencies)
        LatencySummary.from_recorder("bench", sample, (50.0, 95.0, 99.0, 99.9))
        return 1

    def encode_binary_op() -> int:
        f = BINARY_CODEC.encode_op
        prio = (0.5, 1.5, 2.5)
        for i, key in enumerate(keys[:2000]):
            f(i, 3, key, 1024, prio)
        return 2000

    def encode_binary_res() -> int:
        f = BINARY_CODEC.encode_res
        for i in range(2000):
            f(i, 3, 1e-4, 2e-4, 3, 1, 2e-4)
        return 2000

    def decode(codec: _t.Any, frames: _t.Sequence[bytes]) -> _t.Callable[[], int]:
        def body() -> int:
            f = codec.decode
            for frame in frames:
                f(frame, 4, len(frame))  # skip the length prefix
            return len(frames)

        return body

    def encode_json_op() -> int:
        f = JSON_CODEC.encode
        for frame in json_ops:
            f(frame)
        return len(json_ops)

    return {
        "sim.timer_events_per_s": (_timer_events, 1.0),
        "sim.callback_events_per_s": (_callback_events, 1.0),
        "workload.next_task_us": (next_task, 1e-6),
        "placement.replicas_of_key_ns": (replicas_of_key, 1e-9),
        "core.assign_unifincr_us": (assign(unifincr), 1e-6),
        "core.assign_equalmax_us": (assign(equalmax), 1e-6),
        "core.cost_subtask_ns": (cost_subtask, 1e-9),
        "scheduling.key_ns": (scheduling_key, 1e-9),
        "metrics.exact_record_ns": (record(ExactSample), 1e-9),
        "metrics.loghist_record_ns": (
            record(lambda: LogHistogram(min_value=1e-6, max_value=10.0, precision=0.01)),
            1e-9,
        ),
        "metrics.summary_ms": (summary, 1e-3),
        "serve.codec_bin_encode_op_ns": (encode_binary_op, 1e-9),
        "serve.codec_bin_decode_op_ns": (decode(BINARY_CODEC, binary_ops), 1e-9),
        "serve.codec_bin_encode_res_ns": (encode_binary_res, 1e-9),
        "serve.codec_bin_decode_res_ns": (decode(BINARY_CODEC, binary_res), 1e-9),
        "serve.codec_json_encode_op_ns": (encode_json_op, 1e-9),
        "serve.codec_json_decode_res_ns": (decode(JSON_CODEC, json_res), 1e-9),
    }


def _time_round(body: _t.Callable[[], int], min_time: float) -> float:
    """Calibrated seconds per call over one round of >= ``min_time`` s."""
    calls = 0
    with Meter() as meter:
        deadline = time.perf_counter() + min_time
        while True:
            calls += body()
            if time.perf_counter() >= deadline:
                break
    return meter.wall_s * meter.scale / calls


def run_layers(seed: int, min_time: float, rounds: int) -> _t.Dict[str, float]:
    out = {}
    for name, (body, unit) in build(seed).items():
        body()  # warm caches and memos outside the timed rounds
        per_call = statistics.median(_time_round(body, min_time) for _ in range(rounds))
        # "*_per_s" names are rates; the others a time per call in `unit`.
        out[name] = 1.0 / per_call if name.endswith("_per_s") else per_call / unit
    return out


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    for name, value in run_layers(parser.parse_args().seed, **STANDALONE).items():
        print(f"{name:36s} {value:14.6g}")
