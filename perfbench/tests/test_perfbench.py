"""Tests of the benchmark itself: tiny runs of every workload, the output
checks, and the tracer's span arithmetic.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import promptner  # noqa: E402
from promptner import DecodeConfig  # noqa: E402
from promptner.decoder import EntityMention  # noqa: E402

TINY = workloads.Sizes(chunk_steps=3, short_pool=4, long_pool=2, long_words=60,
                       short_guard=5, long_guard=2)


def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_times_on_hand_built_tree():
    spans = [span("a", 0.0, 10.0),      # 0: root
             span("b", 1.0, 4.0, 0),    # 1
             span("c", 5.0, 9.0, 0),    # 2
             span("d", 6.0, 8.0, 2),    # 3
             span("e", 11.0, 12.0)]     # 4: second root
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_unattributed_counts_only_spans_directly_under_the_root():
    spans = [span("fit", 0.0, 20.0),
             span("x", 1.0, 3.0, 0), span("y", 3.5, 4.0, 1),   # step 0
             span("x", 11.0, 18.0, 0)]                          # step 1
    requests = [(0.0, 10.0, 0), (10.0, 20.0, 0)]
    t = tracer.Tracer()
    t.spans.extend(spans)
    for r in requests:
        t.add_request(*r)
    assigned = t.request_of_spans()
    assert assigned == [0, 0, 0, 1]
    assert tracer.unattributed(spans, requests, assigned) == [8.0, 3.0]


def test_install_rebinds_every_reference_and_uninstall_restores():
    original = promptner.decoder.decode
    t = tracer.Tracer()
    uninstall = tracer.install(t, promptner, workloads.trace_hooks())
    try:
        assert promptner.decoder.decode is not original
        assert promptner.trainer.decode is promptner.decoder.decode
        assert promptner.decode is promptner.decoder.decode
        assert promptner.tensor.matmul.__module__ == "promptner.tensor"
    finally:
        uninstall()
    assert promptner.decoder.decode is original
    assert promptner.trainer.decode is original


def test_host_speed_scales_by_the_kernel_median_of_the_nearest_window():
    ref = workloads.REF_KERNEL_S
    hs = workloads.HostSpeed()
    hs.stamps = [0.1, 0.5, 0.9, 1.2, 3.5]      # windows 0, 0, 0, 1, 3
    hs.times = [ref, 3 * ref, 2 * ref, 4 * ref, ref]
    # window 2 has no timings: window 1 and 3 are equally near, the first wins
    assert list(hs.factors([0.0, 0.95, 1.5, 2.5, 9.0])) == [2.0, 2.0, 4.0, 4.0, 1.0]


def test_per_input_median_groups_repetitions_of_an_input():
    assert list(run.per_input_median([1.0, 5.0, 2.0, 10.0, 3.0], [0, 1, 0, 1, 0])) \
        == [2.0, 7.5, 2.0, 7.5, 2.0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload(workload):
    out = workloads.run(workload, seed=0, seconds=0.05, sizes=TINY)
    assert out.attempted >= 1 and out.failed == 0, out.failures
    guard_requests = {"train": TINY.chunk_steps, "infer_short": TINY.short_guard,
                      "infer_long": TINY.long_guard}[workload]
    assert len(out.latencies) == len(out.stamps) == len(out.keys) \
        == out.attempted - guard_requests
    assert out.speed.times and len(out.speed.factors(out.stamps)) == len(out.stamps)
    assert out.setup_s and min(out.setup_s) > 0
    assert out.guard > 0
    assert sum(out.nodes.values()) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_guard_does_not_depend_on_the_seed(workload):
    a = workloads.run(workload, seed=3, seconds=0.0, sizes=TINY)
    b = workloads.run(workload, seed=4, seconds=0.0, sizes=TINY)
    assert a.guard == b.guard


def test_traced_tiny_run_records_requests_and_counts():
    t = tracer.Tracer()
    out = workloads.run("infer_long", seed=0, seconds=2.5, sizes=TINY, tr=t)
    assert out.failed == 0 and out.traced_latencies and out.latencies
    summary = tracer.summarize(t)
    assert summary["requests"] == len(out.traced_latencies)
    assert summary["counts"]["decoder.decode"]["candidates"] > 0
    assert summary["by_parent"][("model.Model.score_table", "prompt.build_prompt")] \
        == 2 * summary["calls"]["model.Model.score_table"]


@pytest.mark.parametrize("mentions, mode, bad", [
    ([(0, 1, "person"), (3, 4, "location")], "flat", False),
    ([(0, 2, "person"), (2, 3, "location")], "flat", True),
    ([(0, 3, "person"), (1, 2, "location")], "flat", True),
    ([(0, 3, "person"), (1, 2, "location")], "nested", False),
    ([(0, 2, "person"), (1, 3, "location")], "nested", True),
    ([(1, 2, "person"), (1, 2, "location")], "nested", True),
    ([(0, 5, "person")], "flat", True),              # out of bounds
    ([(0, 1, "animal")], "flat", True),              # type not requested
])
def test_check_mentions(mentions, mode, bad):
    ms = [EntityMention(s, e, t, score=0.9) for s, e, t in mentions]
    reason = workloads.check_mentions(ms, 5, ["person", "location"], DecodeConfig(mode=mode))
    assert (reason is not None) == bad


def test_check_mentions_rejects_scores_at_threshold():
    ms = [EntityMention(0, 1, "person", score=0.5)]
    assert workloads.check_mentions(ms, 5, ["person"], DecodeConfig()) is not None


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_result_line(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "infer_short",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    spec = json.load(open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[kind])
    for m in spec[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
