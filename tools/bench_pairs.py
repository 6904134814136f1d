#!/usr/bin/env python3
"""Runs the repository benchmark as alternating parent/child pairs and writes BENCH_<pr>.json.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py --pr N --pairs 10
    python3 tools/bench_pairs.py --pr N --run slow_flash:1 --child HEAD  # parent HEAD~1
    python3 tools/bench_pairs.py --pr N --pairs 10 --run rag_open_loop:1:5 --run lone_rerank:1

Each side is exported with `git archive` into its own directory outside the
repository (`--work`, default a fresh temporary directory), so neither run
sees the other's sources or the working tree's build outputs. `--child
WORKTREE` (the default) exports the working tree's tracked files as they are
now, staged or not; new files count only once `git add`ed.

For every `--run WORKLOAD:SEED[:TRACE_PAIRS]` the script runs
`python3 perfbench/run.py --workload W --seed S --trace 0` in both exports,
`--pairs` times, swapping which side goes first on every pair so that slow
drift on the host hits both sides alike. TRACE_PAIRS more pairs (default
`--trace`, 0) run with `--trace 1` and give the per-layer rows. Each side
builds into its own CARGO_TARGET_DIR. The metrics come from the
`results/*.json` that run.py writes.

The output holds the host (cores, ISA, compiler, build type), both commits,
and per workload the number of pairs, then per metric the median and
quartiles of each side, how many pairs each side won (ties count for
neither), and a verdict. End-to-end metrics sit under "end_to_end",
per-layer ones under "per_layer", and the scalar run details (for example
rag_open_loop's concurrent_peak_mem_mib) under "details", without a verdict.
A metric is "better" only when the distance between the medians exceeds the
larger of the two interquartile ranges AND the child won at least nine tenths
of the pairs; "worse" is the mirror image (the parent won nine tenths). A
distance inside the spread is "within_spread"; one beyond it without a
nine-tenths majority is "mixed".
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                      check=True, cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()
DEFAULT_RUNS = ["lone_rerank:1", "slow_flash:1", "rag_open_loop:1", "slow_flash:7919"]
# Share of the pairs one side must win before a change is called better/worse.
WIN_SHARE = 0.9


def git(*args):
    return subprocess.run(["git", "-C", REPO] + list(args), capture_output=True, text=True,
                          check=True).stdout.strip()


def resolve(rev):
    """Returns (label, tree-ish) for a revision; WORKTREE snapshots the working tree."""
    if rev == "WORKTREE":
        snapshot = git("stash", "create")  # Empty when the tree is clean.
        head = git("rev-parse", "HEAD")
        if not snapshot:
            return head, head
        return head + "+worktree", snapshot
    commit = git("rev-parse", rev + "^{commit}")
    return commit, commit


def export(treeish, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", REPO, "archive", treeish], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("bench_pairs: git archive %s failed" % treeish)


def run_side(checkout, target, workload, seed, seconds, trace):
    """One run.py invocation; returns its results JSON (end_to_end, per_layer, host, ...)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    path = os.path.join(target, "perfbench", "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    if proc.returncode != 0 or not os.path.exists(path):
        sys.exit("bench_pairs: %s seed %d failed in %s (exit %d)" % (
            workload, seed, checkout, proc.returncode))
    with open(path) as f:
        result = json.load(f)
    os.remove(path)  # A later failure must not reuse this file.
    return result


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def spread(values):
    ordered = sorted(values)
    return {"median": quantile(ordered, 0.5), "q1": quantile(ordered, 0.25),
            "q3": quantile(ordered, 0.75), "runs": values}


def compare(metric, parent, child):
    """parent[i] and child[i] are pair i's values; see the module doc for the verdict."""
    better = metric["better"]
    p, c = spread(parent), spread(child)
    sign = -1 if better == "lower" else 1  # Positive = the child improved.
    wins = sum(1 for a, b in zip(parent, child) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(parent, child) if sign * (b - a) < 0)
    distance = c["median"] - p["median"]
    noise = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
    needed = WIN_SHARE * len(parent)
    verdict = "within_spread"
    if abs(distance) > noise:
        verdict = "mixed"
        if sign * distance > 0 and wins >= needed:
            verdict = "better"
        elif sign * distance < 0 and losses >= needed:
            verdict = "worse"
    return {
        "unit": metric["unit"],
        "better": better,
        "parent": p,
        "child": c,
        "change": distance / p["median"] if p["median"] else None,
        "child_wins": wins,
        "parent_wins": losses,
        "verdict": verdict,
    }


def parse_run(spec, trace_pairs):
    """WORKLOAD:SEED[:TRACE_PAIRS] -> (workload, seed, trace_pairs)."""
    fields = spec.split(":")
    if not 1 <= len(fields) <= 3 or not fields[0]:
        raise ValueError("bad --run %r: want WORKLOAD:SEED[:TRACE_PAIRS]" % spec)
    numbers = [int(f) for f in fields[1:]] + [None] * (3 - len(fields))
    seed = 1 if numbers[0] is None else numbers[0]
    trace_pairs = trace_pairs if numbers[1] is None else numbers[1]
    if trace_pairs < 0:
        raise ValueError("bad --run %r: want TRACE_PAIRS >= 0" % spec)
    return fields[0], seed, trace_pairs


def scalar_details(result):
    return {k: v for k, v in result["details"].items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def run_pairs(sides, workload, seed, pairs, trace, seconds):
    """Alternating pairs; returns {"parent": [results], "child": [results]}."""
    samples = {"parent": [], "child": []}
    for pair in range(pairs):
        order = ("parent", "child") if pair % 2 == 0 else ("child", "parent")
        for side in order:
            info = sides[side]
            result = run_side(info["checkout"], info["target"], workload, seed, seconds, trace)
            if not result["result"]["correct"]:
                sys.exit("bench_pairs: %s seed %d: a correctness gate failed on the %s" % (
                    workload, seed, side))
            samples[side].append(result)
        print("bench_pairs: %s seed %d trace %d pair %d/%d done" % (
            workload, seed, trace, pair + 1, pairs), file=sys.stderr, flush=True)
    return samples


def compare_all(metrics, section, samples):
    return {m["name"]: compare(m, [r[section][m["name"]] for r in samples["parent"]],
                               [r[section][m["name"]] for r in samples["child"]])
            for m in metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--parent", help="default: HEAD for a WORKTREE child, else CHILD~1")
    parser.add_argument("--child", default="WORKTREE")
    parser.add_argument("--pairs", type=int, default=5, help="end-to-end pairs per run")
    parser.add_argument("--trace", type=int, default=0,
                        help="--trace 1 pairs per run, for the per-layer rows (default 0)")
    parser.add_argument("--run", action="append", metavar="WORKLOAD:SEED[:TRACE_PAIRS]",
                        help="repeatable; default: %s" % " ".join(DEFAULT_RUNS))
    parser.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json's)")
    parser.add_argument("--work", help="export and build directory outside the repository")
    parser.add_argument("--out", help="default: BENCH_<pr>.json at the repository root")
    args = parser.parse_args()
    if args.parent is None:
        args.parent = "HEAD" if args.child == "WORKTREE" else args.child + "~1"
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        runs = [parse_run(spec, args.trace) for spec in args.run or DEFAULT_RUNS]
    except ValueError as e:
        parser.error(str(e))

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="bench_pairs_"))
    if os.path.commonpath([work, REPO]) == REPO:
        parser.error("--work must lie outside the repository")
    sides = {}
    for side, rev in (("parent", args.parent), ("child", args.child)):
        label, treeish = resolve(rev)
        checkout = os.path.join(work, side)
        export(treeish, checkout)
        sides[side] = {"commit": label, "checkout": checkout,
                       "target": os.path.join(work, side + "-target")}

    host = None
    report = {}
    for workload, seed, trace_pairs in runs:
        samples = run_pairs(sides, workload, seed, args.pairs, 0, args.seconds)
        host = host or samples["parent"][0]["host"]
        details = {}
        for name in sorted(scalar_details(samples["parent"][0])):
            details[name] = {side: spread([r["details"][name] for r in samples[side]])
                             for side in ("parent", "child")}
        entry = {"pairs": args.pairs, "trace_pairs": trace_pairs,
                 "end_to_end": compare_all(benchmark["end_to_end"], "end_to_end", samples),
                 "details": details}
        if trace_pairs:
            traced = run_pairs(sides, workload, seed, trace_pairs, 1, args.seconds)
            entry["per_layer"] = compare_all(benchmark["per_layer"], "per_layer", traced)
        report["%s-seed%d" % (workload, seed)] = entry

    out = {
        "host": {key: host[key] for key in ("cores", "cpu", "isa", "compiler", "build_type")},
        "parent_commit": sides["parent"]["commit"],
        "child_commit": sides["child"]["commit"],
        "seconds_per_run": args.seconds,
        "rule": "a metric is flagged better/worse only when the distance between the medians "
                "exceeds the larger interquartile range of the two sides and one side won at "
                "least %g of the pairs (ties count for neither); beyond the spread without "
                "that majority it is mixed" % WIN_SHARE,
        "workloads": report,
    }
    path = args.out or os.path.join(REPO, "BENCH_%s.json" % args.pr)
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    for key, entry in sorted(report.items()):
        for section, n in (("end_to_end", entry["pairs"]), ("per_layer", entry["trace_pairs"])):
            for name, row in sorted(entry.get(section, {}).items()):
                print("%-24s %-32s parent %10.3f  child %10.3f  %+7.1f%%  wins %d/%d  %s" % (
                    key, name, row["parent"]["median"], row["child"]["median"],
                    100.0 * (row["change"] or 0.0), row["child_wins"], n, row["verdict"]))
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
