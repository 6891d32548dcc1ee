"""Statistics for the perfbench results: percentiles and the tail rule,
run-to-run spread, open-loop latency arithmetic, the serving capacity ladder,
failure share and span self time. Standard library only."""

import math
import statistics

# Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a percentile before it may be reported.
TAIL_MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (the
    epsilon keeps 99.9% of 10000 at rank 9990 despite float rounding)."""
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n, p):
    """Samples strictly past the nearest-rank p-th percentile of n samples."""
    return n - rank(n, p)


def tail(values, ladder=TAIL_LADDER):
    """The highest percentile of `ladder` with at least TAIL_MIN_BEYOND
    samples beyond it. Returns (percentile, value, sample count); with too
    few samples for any ladder step it falls back to the median."""
    n = len(values)
    for p in ladder:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            return p, percentile(values, p), n
    return 50.0, percentile(values, 50.0), n


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles' default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def scheduled_latency(sched, start, total):
    """Open-loop latency of each request, measured from its scheduled send
    time: the gap from schedule to the start of submit() plus the server's
    RequestTiming.total_seconds (which starts inside submit())."""
    return [(s0 - sc) + t for sc, s0, t in zip(sched, start, total)]


def lateness(sched, start):
    """How late the generator called submit() for each request."""
    return [s0 - sc for sc, s0 in zip(sched, start)]


def keeps_pace(sched, start, total, ok, slack_s=0.0, min_pace=0.95):
    """True when completions kept up with the offered schedule, so no
    backlog grew over the rung: the last result arrives within slack_s (the
    latency limit) of the time the schedule's span allows at min_pace of the
    offered rate. An overloaded server finishes at capacity/offered pace and
    misses that by a margin that grows with the rung. A failed request fails
    the check."""
    if not sched:
        return True
    if not all(ok):
        return False
    done = [s0 + t for s0, t in zip(start, total)]
    sched_span = max(sched) - min(sched)
    done_span = max(done) - min(sched)
    return done_span - slack_s <= sched_span / min_pace


def rung_verdict(rung, limit_ms):
    """Whether one open-loop rung meets the serving limits: p99 latency from
    scheduled send within limit_ms (a failed request counts as missing it),
    no growing backlog, and the generator's p99 lateness within limit_ms.
    Returns (passed, p99_ms, reasons)."""
    lat = scheduled_latency(rung["sched"], rung["start"], rung["total"])
    lat_ms = [x * 1e3 if ok else math.inf for x, ok in zip(lat, rung["ok"])]
    p99 = percentile(lat_ms, 99.0)
    late_p99 = percentile([x * 1e3 for x in lateness(rung["sched"], rung["start"])], 99.0)
    reasons = []
    if p99 > limit_ms:
        reasons.append("p99 %.1f ms > %g ms" % (p99, limit_ms))
    if not keeps_pace(rung["sched"], rung["start"], rung["total"], rung["ok"],
                      slack_s=limit_ms / 1e3):
        reasons.append("backlog grew")
    if late_p99 > limit_ms:
        reasons.append("generator p99 late %.1f ms" % late_p99)
    return not reasons, p99, reasons


def max_passing_rate(verdicts):
    """Highest ladder rate that passed before the first confirmed miss, from
    (rate, passed) pairs in ladder order, where a rate may appear twice (a
    re-run after a miss; the later verdict counts). 0 when the first rate
    misses."""
    final = []
    for rate, passed in verdicts:
        if final and final[-1][0] == rate:
            final[-1] = (rate, passed)
        else:
            final.append((rate, passed))
    best = 0.0
    for rate, passed in final:
        if not passed:
            break
        best = rate
    return best


def fail_share(attempted, failed):
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def self_times(spans):
    """Self time per span name: each span's duration minus the part of it
    its children cover. `spans` holds [name, id, parent_index, t0, t1]."""
    children = {}
    for s in spans:
        if s[2] >= 0:
            children.setdefault(s[2], []).append((s[3], s[4]))
    out = {}
    for i, (name, _, _, t0, t1) in enumerate(spans):
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[name] = out.get(name, 0.0) + (t1 - t0) - covered
    return out
