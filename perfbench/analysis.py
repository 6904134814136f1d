"""Pure reductions of a perfbench raw record: percentiles, span self time,
open-loop lateness and the Chrome trace export. No I/O; tested by
perfbench/tests/test_analysis.py."""

import math

# A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
CANDIDATE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples. The
    epsilon keeps float error (0.999 * 10000 = 9990.000000000002) from
    moving the rank up by one."""
    return min(max(math.ceil(p / 100.0 * n - 1e-9), 1), n)


def percentile(values, p):
    """Nearest-rank percentile (the rank rule of src/common/percentile.h)."""
    if not values:
        return 0.0
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th one."""
    return n - _rank(n, p) if n else 0


def highest_supported_percentile(n, min_beyond=MIN_SAMPLES_BEYOND):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it among n samples, or None when even the median is unsupported."""
    for p in CANDIDATE_PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def median(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def mean(values):
    """Exactly rounded, so the same values in any order give the same mean."""
    return math.fsum(values) / len(values) if values else 0.0


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time (µs) of each span: its duration minus the part of it that
    its children cover. Children are clipped to the parent's interval and
    overlapping children count once."""
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start_us"], span["end_us"]
        clipped = []
        for c in children.get(i, ()):
            cs = max(spans[c]["start_us"], start)
            ce = min(spans[c]["end_us"], end)
            if ce > cs:
                clipped.append((cs, ce))
        out.append((end - start) - _covered(clipped))
    return out


def self_time_table(spans):
    """{name: {"count", "total_ms", "self_ms"}} summed over every span."""
    selfs = self_times(spans)
    table = {}
    for span, self_us in zip(spans, selfs):
        row = table.setdefault(span["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (span["end_us"] - span["start_us"]) / 1000.0
        row["self_ms"] += self_us / 1000.0
    return table


def open_loop_latency_ms(record):
    """Client-observed latency of an open-loop request, from when it was due."""
    return (record["end_us"] - record["sched_us"]) / 1000.0


def lateness_ms(record):
    """How late the generator sent a request (0 when on time)."""
    return max(0.0, (record["start_us"] - record["sched_us"]) / 1000.0)


def backlog_grows(records, slo_ms):
    """True when the generator fell behind over the phase: the median
    lateness of the last third of arrivals exceeds a tenth of the SLO."""
    ordered = sorted(records, key=lambda r: r["sched_us"])
    tail = ordered[len(ordered) - len(ordered) // 3:]
    return bool(tail) and median([lateness_ms(r) for r in tail]) > 0.1 * slo_ms


def slo_attainment(records, slo_ms):
    """Share of sent requests served within the SLO; failures count as misses."""
    if not records:
        return 0.0
    met = sum(1 for r in records if r["ok"] and open_loop_latency_ms(r) <= slo_ms)
    return met / len(records)


def chrome_trace(spans):
    """Chrome trace-event JSON (complete events), loadable in Perfetto."""
    events = []
    for span in spans:
        args = {"request": span["req"], "parent": span["parent"]}
        if span["layer"] >= 0:
            args["layer"] = span["layer"]
        name = span["name"]
        if span["layer"] >= 0:
            name = "%s[%d]" % (name, span["layer"])
        events.append({
            "name": name,
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": span["start_us"],
            "dur": max(0.0, span["end_us"] - span["start_us"]),
            "pid": 1,
            "tid": span["tid"],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
