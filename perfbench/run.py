#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload,
checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload lone_rerank --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout, and so do checkpoints, raw records, results
and Chrome traces. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The exit
code is 0 only when every correctness gate passed. --workload all runs every
workload in turn (one result line each). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402

ROOT = os.path.dirname(HERE)
MIB = 1024.0 * 1024.0
RUN_TIMEOUT_S = 170
# Set-up time has a level fixed per process: where its threads and heap
# arenas land. RAG's stack construction read about 0.28 or 0.37 ms in a
# process, whatever the number of repeats. So set-up is also timed in
# separate set-up-only processes, and setup_s is the mean of the per-process
# medians.
SETUP_PROCESSES = 8
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512_vnni", "amx_tile",
             "neon", "asimd", "sve")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    with open(os.path.join(out, "build.log"), "a") as build_log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT).returncode != 0:
                log("perfbench: build failed, see %s" % build_log.name)
                sys.exit(1)
    return os.path.join(out, "perfbench")


def source_digest():
    """Hash of the program's sources, standing in for a commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def host_info(record, seed):
    flags = set()
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() in ("flags", "Features"):
                    flags.update(value.split())
                elif key.strip() == "model name":
                    model = value.strip()
    except OSError:
        pass
    commit = "none"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "isa": sorted(flags.intersection(ISA_FLAGS)),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Reductions, one per workload kind. Each returns (e2e, layers, checks,
# attempted, failed, details).

def engine_requests(run, phase):
    return [r for r in run["requests"] if r["phase"] == phase]


def closed_loop_e2e(records):
    lat = [(r["end_us"] - r["start_us"]) / 1000.0 for r in records]
    span_s = (max(r["end_us"] for r in records) - min(r["start_us"] for r in records)) / 1e6
    return {
        "latency_p50_ms": analysis.percentile(lat, 50),
        "latency_p90_ms": analysis.percentile(lat, 90),
        "requests_per_s": len(records) / span_s,
    }, lat


def zero_layers(spec):
    return {m["name"]: 0.0 for m in spec["per_layer"]}


def mem_layers(layers, mem):
    for category in ("weights", "embedding", "activations", "hidden_states", "scratch"):
        layers["common.mem_peak_%s_mib" % category] = mem[category] / MIB


def engine_layers(layers, reranks, n_layers, layer_compute_ms, request_ms):
    """Counters every engine-served rerank returned, averaged per rerank."""
    n = len(reranks)
    if n == 0:
        return
    cand_layers = sum(r["candidate_layers"] for r in reranks)
    full = sum(r["candidates"] for r in reranks) * n_layers
    layers_run = sum(r["layers"] for r in reranks)
    compute_total = sum(layer_compute_ms)
    layers.update({
        "core.request_ms": analysis.mean(request_ms),
        "core.layer_compute_ms": compute_total / n,
        "core.candidate_layers": cand_layers / n,
        "core.layers_run": layers_run / n,
        "core.prune_saved_ratio": 1.0 - cand_layers / full if full else 0.0,
        "core.exited_early_ratio": sum(1 for r in reranks if r["layers"] < n_layers) / n,
        "storage.weight_wait_ms": analysis.mean([r["io_stall_ms"] for r in reranks]),
        "storage.bytes_streamed": analysis.mean([r["bytes"] for r in reranks]),
        "tensor.gflops": sum(r["flops"] for r in reranks) / max(compute_total, 1e-9) / 1e6,
        "core.queue_wait_ms_p50": analysis.percentile([r["queue_wait_ms"] for r in reranks], 50),
        "core.queue_wait_ms_p90": analysis.percentile([r["queue_wait_ms"] for r in reranks], 90),
        "core.ttfl_ms_p50": analysis.percentile(
            [r["queue_wait_ms"] + r["first_layer_ms"] for r in reranks], 50),
        "core.errors": float(sum(1 for r in reranks if not r["ok"])),
    })
    per_layer_compute = compute_total / max(layers_run, 1)
    load = layers.get("storage.layer_load_ms", 0.0)
    layers["storage.load_to_compute_ratio"] = load / per_layer_compute if per_layer_compute else 0.0


def storage_layer_load(layers, counters):
    passes = counters.get("stream_pass_ms")
    if passes:
        layers["storage.layer_load_ms"] = analysis.median(passes) / counters["stream_pass_layers"]


def reduce_engine(spec, gates, record):
    run = record["run"]
    workload = record["workload"]
    untraced = engine_requests(run, "untraced")
    e2e, lat = closed_loop_e2e(untraced)
    e2e["peak_mem_mib"] = run["counters"]["mem_peak_bytes"]["total"] / MIB
    precision = analysis.mean([r["quality"] for r in untraced])
    everything = run["requests"]
    failed = sum(1 for r in everything if not r["ok"] or not r["match"])
    checks = {
        "bit_identical_across_repeats_and_traced_path": run["checks"]["bit_mismatches"] == 0,
        "precision_at_k_floor": precision >= gates["precision_at_k_floor"][workload],
    }
    # A run serves 30-60 requests, so fewer than the ten samples beyond p90
    # that the open-loop details require; p90 here is a quantile of a fixed
    # population over whole cycles (README.md), and the count is recorded.
    details = {"precision_at_k": precision, "samples": len(lat),
               "samples_beyond_p90": analysis.samples_beyond(len(lat), 90), "cycles":
               max(r["cycle"] for r in untraced) + 1, "population": run["population"]}
    layers = zero_layers(spec)
    if record["trace"]:
        traced = engine_requests(run, "traced")
        spans = run["spans"]
        selfs = analysis.self_times(spans)
        by_req = {}
        for span, self_us in zip(spans, selfs):
            by_req.setdefault(span["req"], []).append((span, self_us))
        step_ms, request_ms, admit_ms, finalize_ms = [], [], [], []
        for r in traced:
            rows = by_req.get(r["id"], [])
            steps = sum(s["end_us"] - s["start_us"] for s, _ in rows if s["name"] == "core.step")
            step_ms.append(steps / 1000.0 - r["io_stall_ms"])
            request_ms.extend((s["end_us"] - s["start_us"]) / 1000.0
                              for s, _ in rows if s["name"] == "request")
            admit_ms.extend(u / 1000.0 for s, u in rows if s["name"] == "core.admit")
            finalize_ms.extend(u / 1000.0 for s, u in rows if s["name"] == "core.finalize")
        storage_layer_load(layers, run["counters"])
        engine_layers(layers, traced, run["n_layers"], step_ms, request_ms)
        embed = run["counters"]
        layers.update({
            "core.plan_embed_ms": analysis.mean(admit_ms),
            "core.finalize_ms": analysis.mean(finalize_ms),
            "core.admitted_per_cycle": 1.0,
            "model.embed_cache_hit_ratio":
                embed["traced_embed_hits"] / max(1, embed["traced_embed_hits"] +
                                                 embed["traced_embed_misses"]),
            "bench.trace_overhead_ms": analysis.mean(request_ms) - analysis.mean(lat),
        })
        mem_layers(layers, run["counters"]["traced_mem_peak_bytes"])
        details["traced_requests"] = len(traced)
        details["self_time"] = analysis.self_time_table(spans)
    return e2e, layers, checks, len(everything), failed, details


def rag_phase_stats(records, rates, slo_ms):
    rows = []
    for rate in rates:
        rs = [r for r in records if r["rate_hz"] == rate]
        lat = [analysis.open_loop_latency_ms(r) for r in rs if r["ok"]]
        tail_p = analysis.highest_supported_percentile(len(lat))
        tail = analysis.percentile(lat, tail_p) if tail_p else max(lat or [0.0])
        grows = analysis.backlog_grows(rs, slo_ms)
        rows.append({
            "rate_hz": rate, "sent": len(rs),
            "latency_p50_ms": analysis.percentile(lat, 50),
            "latency_p90_ms": analysis.percentile(lat, 90),
            "tail_percentile": tail_p, "tail_ms": tail,
            "slo_attainment": analysis.slo_attainment(rs, slo_ms),
            "backlog_grows": grows,
            "in_slo": (analysis.percentile(lat, 90) <= slo_ms and not grows
                       and all(r["ok"] for r in rs)),
            "gen_lateness_ms_p99": analysis.percentile([analysis.lateness_ms(r) for r in rs], 99),
        })
    return rows


def reduce_rag(spec, gates, record):
    run = record["run"]
    slo_ms = gates["rag_slo_ms"]
    untraced = [r for r in run["requests"] if r["phase"] == "untraced"]
    # Gated latency and throughput come from the closed-loop phase. At a
    # fixed open-loop rate, a host running 2x slower (seen on shared VMs)
    # turns 60% load into overload, and the pooled p90 then moved by 75%
    # between seeds; the closed loop slows smoothly instead.
    closed = [r for r in untraced if r["rate_hz"] == 0]
    lat = [analysis.open_loop_latency_ms(r) for r in closed if r["ok"]]
    closed_s = (max(r["end_us"] for r in closed) - min(r["start_us"] for r in closed)) / 1e6
    e2e = {
        "latency_p50_ms": analysis.percentile(lat, 50),
        "latency_p90_ms": analysis.percentile(lat, 90),
        "requests_per_s": sum(1 for r in closed if r["ok"]) / closed_s,
        # One selection at a time (the baseline pass). The peak under load
        # depends on which requests share a carousel cycle and moved by
        # 10-20% between seeds; it is in the details and per-layer metrics.
        "peak_mem_mib": run["serial_mem_peak_bytes"]["total"] / MIB,
    }
    everything = run["requests"]
    failed = sum(1 for r in everything if not r["ok"] or not r["match"])
    mismatches = sum(1 for r in everything if r["ok"] and not r["match"])
    # The closed loop serves whole Zipf quotas of one mix, so its mean
    # quality is the same at every seed and can be held to a fixed floor.
    precision = analysis.mean([r["quality"] for r in closed if r["ok"]])
    rates = rag_phase_stats([r for r in untraced if r["rate_hz"] > 0], run["rates_hz"], slo_ms)
    in_slo = [row["rate_hz"] for row in rates if row["in_slo"]]
    checks = {
        "zero_selection_mismatches_vs_baseline": mismatches == 0,
        "precision_at_k_floor": precision >= gates["precision_at_k_floor"]["rag_open_loop"],
    }
    details = {
        "slo_ms": slo_ms, "rates": rates, "samples": len(lat),
        "samples_beyond_p90": analysis.samples_beyond(len(lat), 90),
        "max_rate_in_slo_hz": max(in_slo) if in_slo else 0.0,
        "slo_attainment": analysis.slo_attainment(untraced, slo_ms),
        "precision_at_k": precision, "failed_fraction": failed / max(1, len(everything)),
        "selection_mismatches": mismatches, "baseline_s": run["baseline_s"],
        "concurrent_peak_mem_mib": run["phases"]["untraced"]["mem_peak_bytes"]["total"] / MIB,
        "cache_hit_ratio": run["phases"]["untraced"]["cache_hits"] /
        max(1, run["phases"]["untraced"]["cache_lookups"]),
    }
    layers = zero_layers(spec)
    if record["trace"]:
        traced = [r for r in everything if r["phase"] == "traced"]
        counters = run["phases"]["traced"]
        spans = run["spans"]
        selfs = analysis.self_times(spans)
        apps_self = [u / 1000.0 for s, u in zip(spans, selfs) if s["name"] == "apps.run"]
        service_ms = [(s["end_us"] - s["start_us"]) / 1000.0 for s in spans
                      if s["name"] == "core.service"]
        reranks = run["reranks"]
        storage_layer_load(layers, run["counters"])
        engine_layers(layers, reranks, run["n_layers"], [r["compute_ms"] for r in reranks],
                      service_ms)
        traced_lat = [analysis.open_loop_latency_ms(r) for r in traced
                      if r["ok"] and r["rate_hz"] == 0]
        layers.update({
            "core.plan_embed_ms": analysis.mean([r["embed_ms"] for r in reranks]),
            "core.admitted_per_cycle":
                counters["carousel_admitted"] / max(1, counters["carousel_cycles"]),
            "core.exited_early_ratio":
                counters["carousel_exited_early"] / max(1, counters["carousel_admitted"]),
            "core.shed": float(counters["service_shed"]),
            "core.errors": float(counters["service_errors"]),
            "model.embed_cache_hit_ratio":
                counters["embed_hits"] / max(1, counters["embed_hits"] + counters["embed_misses"]),
            "serving.cache_hit_ratio": counters["cache_hits"] / max(1, counters["cache_lookups"]),
            "serving.cache_coalesced": float(counters["cache_coalesced"]),
            "serving.gen_lateness_ms_p99":
                analysis.percentile([analysis.lateness_ms(r) for r in untraced], 99),
            "apps.self_ms_p50": analysis.percentile(apps_self, 50),
            "bench.trace_overhead_ms": analysis.mean(traced_lat) - analysis.mean(lat),
        })
        mem_layers(layers, counters["mem_peak_bytes"])
        details["self_time"] = analysis.self_time_table(spans)
    return e2e, layers, checks, len(everything), failed, details


# ---------------------------------------------------------------------------

def print_self_time(table):
    root_ms = sum(row["total_ms"] for name, row in table.items()
                  if name in ("request", "apps.run", "storage.stream_pass"))
    log("  %-24s %7s %12s %12s %7s" % ("span", "count", "total ms", "self ms", "self%"))
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        log("  %-24s %7d %12.2f %12.2f %6.1f%%" % (
            name, row["count"], row["total_ms"], row["self_ms"],
            100.0 * row["self_ms"] / root_ms if root_ms else 0.0))


def run_one(spec, gates, binary, workload, seed, seconds, trace):
    out_dir = os.path.join(build_dir(), "perfbench")
    work_dir = os.path.join(out_dir, "work")
    for sub in ("work", "records", "results", "traces"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    raw_path = os.path.join(out_dir, "records", stem + ".json")
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%g" % seconds,
           "--work_dir=" + work_dir]
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def run_binary(args, path):
        try:
            proc = subprocess.run(cmd + args + ["--out=" + path],
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
            return None
        if proc.returncode != 0:
            log("perfbench: %s exited with %d" % (workload, proc.returncode))
            return None
        return load_json(path)

    record = run_binary(["--trace=%d" % trace], raw_path)
    if record is None:
        return False
    setup_medians = [analysis.median(record["run"]["setup_s"])]
    for i in range(SETUP_PROCESSES - 1):
        setup = run_binary(["--trace=0", "--setup_only=1"],
                           os.path.join(out_dir, "records", "%s.setup%d.json" % (stem, i)))
        if setup is None:
            return False
        setup_medians.append(analysis.median(setup["run"]["setup_s"]))
    if workload == "rag_open_loop":
        e2e, layers, checks, attempted, failed, details = reduce_rag(spec, gates, record)
    else:
        e2e, layers, checks, attempted, failed, details = reduce_engine(spec, gates, record)
    e2e["setup_s"] = analysis.mean(setup_medians)
    details["setup_s_per_process"] = setup_medians
    if layers.get("core.request_ms"):
        details["layer_compute_share"] = layers["core.layer_compute_ms"] / layers["core.request_ms"]
        details["weight_wait_share"] = layers["storage.weight_wait_ms"] / layers["core.request_ms"]
    correct = all(checks.values())

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    log("== %s seed %d (%s) ==" % (workload, seed, "traced" if trace else "untraced"))
    for name, value in sorted(e2e.items()):
        log("  %-34s %14.4f %s" % (name, value, units[name]))
    for name, value in sorted(details.items()):
        if name != "self_time":
            log("  %-34s %s" % (name, json.dumps(value)))
    if trace:
        for name, value in sorted(layers.items()):
            log("  %-34s %14.4f %s" % (name, value, units[name]))
        if "self_time" in details:
            print_self_time(details["self_time"])
            trace_path = os.path.join(out_dir, "traces", stem + ".trace.json")
            with open(trace_path, "w") as f:
                json.dump(analysis.chrome_trace(record["run"]["spans"]), f)
            log("  chrome trace: %s" % os.path.relpath(trace_path, ROOT))
    for name, ok in sorted(checks.items()):
        log("  check %-44s %s" % (name, "ok" if ok else "FAIL"))

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "results", stem + ".json"), "w") as f:
        details.pop("self_time", None)
        json.dump({"workload": workload, "host": host_info(record, seed), "result": result,
                   "end_to_end": e2e, "per_layer": layers, "checks": checks, "details": details},
                  f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return correct


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    gates = load_json(os.path.join(HERE, "gates.json"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        ok = run_one(spec, gates, binary, workload, args.seed, args.seconds, args.trace) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
