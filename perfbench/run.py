"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload infer_short --seed 3 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates untraced and traced blocks and reports the per-layer metrics,
tracing overhead and unattributed time; it also writes every span to
``.perfbench-traces/`` in the checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A human-readable table and the run context go to the lines before it.

The benchmark measures the ``src/promptner`` next to this directory; without
it, it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import subprocess
import sys
from collections import defaultdict

import numpy as np

try:
    import recipe
except RuntimeError as exc:  # recipe.MissingSource: nothing to benchmark here
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)
import tracer
import workloads

TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {  # name -> (unit, meaning on train, meaning on inference)
    "setup_s": ("s", "data + vocab + fresh model", "load_checkpoint + first request"),
    "peak_rss_mb": ("MB", "peak resident memory", "peak resident memory"),
    "throughput_per_s": ("1/s", "train_examples_per_s", "sentences_per_s"),
    "latency_ms_p50": ("ms", "step_ms_p50", "latency_ms_p50"),
    "latency_ms_tail": ("ms", "step_ms_tail", "latency_ms_tail"),
    "output_error": ("1", "final_loss", "1 - f1"),
}


def percentile_tail(values):
    """(percentile, value, samples beyond): the highest ladder percentile
    with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_LADDER:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= 10 or p == TAIL_LADDER[-1]:
            return p, float(np.percentile(values, p)), beyond
    raise AssertionError("unreachable")


def per_input_median(values, keys):
    """Each value replaced by the median of the values timed on the same input."""
    groups = defaultdict(list)
    for key, value in zip(keys, values):
        groups[key].append(value)
    medians = {key: np.median(group) for key, group in groups.items()}
    return np.array([medians[key] for key in keys])


def median(values):
    return float(np.median(values)) if len(values) else math.nan


def blas_info():
    """OpenBLAS configuration and thread count, read from numpy's bundled copy."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    info = {"blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
            "blas_threads": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info["blas"] = config().decode()
                    info["blas_threads"] = threads()
                    return info
    return info


def git_sha(root):
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_context(args):
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(recipe.ROOT),
        "fixture_sha256": recipe.recorded_fixture_sha(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, **blas_info(),
        "client": "closed loop, 1 client, 1 process",
    }


def end_to_end(workload, out):
    raw = np.asarray(out.latencies)
    factors = out.speed.factors(out.stamps)
    lat = raw / factors
    setup = np.asarray(out.setup_s) / out.speed.factors(out.setup_stamps)
    # the tail is taken over inputs: each request counts with the median time of
    # its input's repetitions in the run, so that host stalls hitting a varying
    # share of single requests do not set it
    tail_p, tail, beyond = percentile_tail(per_input_median(lat, out.keys))
    guard = out.guard if workload == "train" else 1.0 - out.guard
    values = {
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": out.items / float(np.sum(lat)),
        "latency_ms_p50": median(lat) * 1e3,
        "latency_ms_tail": tail * 1e3,
        "output_error": guard,
    }
    unscaled = {
        "setup_s": median(out.setup_s),
        "throughput_per_s": out.items / float(np.sum(raw)),
        "latency_ms_p50": median(raw) * 1e3,
        "latency_ms_tail": percentile_tail(per_input_median(raw, out.keys))[1] * 1e3,
    }
    col = 1 if workload == "train" else 2
    print(f"# {workload}: {len(raw)} timed requests, tail = p{tail_p:g} "
          f"({beyond} samples beyond), setup median of {len(out.setup_s)}; "
          f"timings scaled to host speed (reference kernel {len(out.speed.times)}x, "
          f"median {median(out.speed.times) * 1e3:.4g} ms, nominal "
          f"{workloads.REF_KERNEL_S * 1e3:g} ms; request slowdown p10-p90 "
          f"{np.percentile(factors, 10):.3f}-{np.percentile(factors, 90):.3f})")
    for name, value in values.items():
        unit, alias = END_TO_END[name][0], END_TO_END[name][col]
        note = f"unscaled {unscaled[name]:.6g}" if name in unscaled else ""
        print(f"  {name:18s} {value:14.6g} {unit:4s}  ({alias}) {note}")
    print(f"  {'request_ms_tail':18s} {percentile_tail(lat)[1] * 1e3:14.6g} ms    "
          f"(same tail over single requests, stalls included)")
    if workload != "train":
        print(f"  {'f1':18s} {out.guard:14.6g} 1     (guard set)")
    return {name: {"value": v, "unit": END_TO_END[name][0]} for name, v in values.items()}


def per_layer(out, tr):
    s = tracer.summarize(tr)
    reqs = max(s["requests"], 1)
    calls, incl, self_s, counts = s["calls"], s["incl_s"], s["self_s"], s["counts"]

    def ms(table, name):
        return table[name] * 1e3 / reqs

    def ratio(a, b):
        return a / b if b else 0.0

    dec = counts["decoder.decode"]
    loads = [rec[tracer.END] - rec[tracer.START] for rec in tr.spans
             if rec[tracer.NAME] == "checkpoint.load_checkpoint"]
    overhead = median(out.traced_latencies) - median(out.latencies)
    m = {
        "tokenizer.segment_calls": (calls["tokenizer.segment"] / reqs, "count"),
        "tokenizer.segment_ms": (ms(incl, "tokenizer.segment"), "ms"),
        "prompt.build_ms": (ms(self_s, "prompt.build_prompt"), "ms"),
        "prompt.tokens": (ratio(counts["prompt.build_prompt"]["tokens"],
                                calls["prompt.build_prompt"]), "count"),
        "encoder.encode_ms": (ms(incl, "encoder.encode"), "ms"),
        "tensor.nodes_per_example": (sum(out.nodes.values()), "count"),
        "tensor.backward_ms": (ms(incl, "tensor.backward"), "ms"),
        "trainer.labels_ms": (ms(incl, "trainer.build_labels"), "ms"),
        "trainer.loss_ms": (ms(incl, "trainer.bce_loss"), "ms"),
        "trainer.adamw_ms": (ms(incl, "trainer.adamw_step"), "ms"),
        "matcher.span_embed_ms": (ms(incl, "matcher.span_embed"), "ms"),
        "matcher.match_ms": (ms(incl, "matcher.match_scores"), "ms"),
        "matcher.pairs": (counts["matcher.match_scores"]["pairs"] / reqs, "count"),
        "model.score_table_ms": (ms(incl, "model.Model.score_table"), "ms"),
        "model.prompts_per_call": (ratio(s["by_parent"][("model.Model.score_table",
                                                         "prompt.build_prompt")],
                                         calls["model.Model.score_table"]), "count"),
        "decoder.decode_ms": (ms(incl, "decoder.decode"), "ms"),
        "decoder.scan_pairs": (dec["scan_pairs"] / reqs, "count"),
        "decoder.candidates": (dec["candidates"] / reqs, "count"),
        "decoder.pops": (dec["pops"] / reqs, "count"),
        "decoder.accepted": (dec["accepted"] / reqs, "count"),
        "decoder.accept_ratio": (ratio(dec["accepted"], dec["candidates"]), "ratio"),
        "decoder.candidates_per_s": (ratio(dec["candidates"], incl["decoder.decode"]), "1/s"),
        "checkpoint.load_ms": (median(loads) * 1e3 if loads else 0.0, "ms"),
        "trace.unattributed_ms": (float(np.mean(s["unattributed_s"])) * 1e3, "ms"),
        "trace.overhead_ms": (overhead * 1e3, "ms"),
        "trace.overhead_pct": (100.0 * overhead / median(out.latencies), "%"),
        "trace.spans_per_request": (s["spans"] / reqs, "count"),
    }
    print(f"# per layer over {s['requests']} traced requests "
          f"({len(out.latencies)} untraced); accept_ratio base: "
          f"{dec['candidates']} candidates")
    for name, (value, unit) in m.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    print("# self time per request, by span (ms): "
          + ", ".join(f"{k} {v * 1e3 / reqs:.4g}"
                      for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])))
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}, s


def main(argv=None):
    ap = argparse.ArgumentParser(description="promptner benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ctx = run_context(args)
    tr = tracer.Tracer() if args.trace else None
    out = workloads.run(args.workload, args.seed, args.seconds, tr=tr)
    print(json.dumps({"context": ctx}))
    if out.failures:
        print("# failures: " + "; ".join(out.failures))
    if args.trace:
        metrics, summary = per_layer(out, tr)
        trace_dir = os.path.join(recipe.ROOT, ".perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tr.write(path, {"context": ctx, "nodes_per_example_by_op": out.nodes,
                        "metrics": metrics,
                        "self_ms_per_request": {k: v * 1e3 / max(summary["requests"], 1)
                                                for k, v in summary["self_s"].items()},
                        "calls": dict(summary["calls"])})
        print(f"# spans written to {os.path.relpath(path, recipe.ROOT)}")
    else:
        metrics = end_to_end(args.workload, out)
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": out.failed == 0 and finite, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
