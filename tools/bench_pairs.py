#!/usr/bin/env python3
"""Runs the repository benchmark as alternating parent/child pairs and writes BENCH_<pr>.json.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py --pr N --pairs 5
    python3 tools/bench_pairs.py --pr N --run slow_flash:1 --child HEAD  # parent HEAD~1

Each side is exported with `git archive` into its own directory outside the
repository (`--work`, default a fresh temporary directory), so neither run
sees the other's sources or the working tree's build outputs. `--child
WORKTREE` (the default) exports the working tree's tracked files as they are
now, staged or not; new files count only once `git add`ed.

For every `--run WORKLOAD:SEED` the script runs `python3 perfbench/run.py
--workload W --seed S --trace 0` in both exports, `--pairs` times, swapping
which side goes first on every pair so that slow drift on the host hits both
sides alike. Each side builds into its own CARGO_TARGET_DIR. The end-to-end
metrics come from the `results/*.json` that run.py writes.

The output holds the host (cores, ISA, compiler, build type), both commits,
the number of pairs, and per workload and metric the median and quartiles of
each side, how many pairs the child won, and a verdict. A change is flagged
("better" / "worse") only when the distance between the medians exceeds the
larger of the two interquartile ranges; otherwise it is "within_spread".
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


def run_side(checkout, target, workload, seed, seconds):
    """One run.py invocation; returns its results JSON (end_to_end, host, result)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    path = os.path.join(target, "perfbench", "results",
                        "%s-seed%d-trace0.json" % (workload, seed))
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
    better = metric["better"]
    p, c = spread(parent), spread(child)
    wins = sum(1 for a, b in zip(parent, child) if (b < a if better == "lower" else b > a))
    distance = c["median"] - p["median"]
    noise = max(p["q3"] - p["q1"], c["q3"] - c["q1"])
    verdict = "within_spread"
    if abs(distance) > noise:
        improved = distance < 0 if better == "lower" else distance > 0
        verdict = "better" if improved else "worse"
    return {
        "unit": metric["unit"],
        "better": better,
        "parent": p,
        "child": c,
        "change": distance / p["median"] if p["median"] else None,
        "child_wins": wins,
        "verdict": verdict,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--parent", help="default: HEAD for a WORKTREE child, else CHILD~1")
    parser.add_argument("--child", default="WORKTREE")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--run", action="append", metavar="WORKLOAD:SEED",
                        help="repeatable; default: %s" % " ".join(DEFAULT_RUNS))
    parser.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json's)")
    parser.add_argument("--work", help="export and build directory outside the repository")
    parser.add_argument("--out", help="default: BENCH_<pr>.json at the repository root")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.parent is None:
        args.parent = "HEAD" if args.child == "WORKTREE" else args.child + "~1"
    runs = []
    for spec in args.run or DEFAULT_RUNS:
        workload, _, seed = spec.partition(":")
        runs.append((workload, int(seed or 1)))

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
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
    for workload, seed in runs:
        samples = {"parent": [], "child": []}
        for pair in range(args.pairs):
            order = ("parent", "child") if pair % 2 == 0 else ("child", "parent")
            for side in order:
                info = sides[side]
                result = run_side(info["checkout"], info["target"], workload, seed,
                                  args.seconds)
                if not result["result"]["correct"]:
                    sys.exit("bench_pairs: %s seed %d: a correctness gate failed on the %s" % (
                        workload, seed, side))
                samples[side].append(result)
                host = host or result["host"]
            print("bench_pairs: %s seed %d pair %d/%d done" % (
                workload, seed, pair + 1, args.pairs), file=sys.stderr, flush=True)
        entry = {}
        for metric in metrics:
            name = metric["name"]
            entry[name] = compare(metric,
                                  [r["end_to_end"][name] for r in samples["parent"]],
                                  [r["end_to_end"][name] for r in samples["child"]])
        report["%s-seed%d" % (workload, seed)] = entry

    out = {
        "host": {key: host[key] for key in ("cores", "cpu", "isa", "compiler", "build_type")},
        "parent_commit": sides["parent"]["commit"],
        "child_commit": sides["child"]["commit"],
        "pairs": args.pairs,
        "seconds_per_run": args.seconds,
        "rule": "a metric is flagged better/worse only when the distance between the medians "
                "exceeds the larger interquartile range of the two sides",
        "workloads": report,
    }
    path = args.out or os.path.join(REPO, "BENCH_%s.json" % args.pr)
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    for key, entry in sorted(report.items()):
        for name, row in sorted(entry.items()):
            print("%-24s %-16s parent %10.3f  child %10.3f  %+7.1f%%  wins %d/%d  %s" % (
                key, name, row["parent"]["median"], row["child"]["median"],
                100.0 * (row["change"] or 0.0), row["child_wins"], args.pairs, row["verdict"]))
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
