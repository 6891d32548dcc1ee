#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the library under it) into .bench_build/ at the root
of the checkout, runs the measurement binary, checks its outputs, prints
every metric by name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. A full
record (host block, raw figures, spans) goes to .bench_out/. The exit code is
non-zero when an output mismatches or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

sys.dont_write_bytecode = True  # keep the benchmark's directory unchanged
import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")

OFFLINE, STREAM, SERVE = "gcn-arxiv-offline", "gin-proteins-stream", "serve-arxiv-poisson"
WORKLOADS = (OFFLINE, STREAM, SERVE)

# Open-loop serving protocol (fixed; see README.md before changing any).
REF_QPS = 500.0          # the reference rate latency is reported at
REF_SHARE = 0.25         # share of --seconds spent at the reference rate
# Capacity ladder: 5% steps from ~2x to ~8x the reference rate. Every rung
# sends the same number of requests (the rest of --seconds, were every rung
# run once). 10% steps left the capacity toggling between two rungs 10%
# apart; rungs below 2x the reference rate always passed.
LADDER = tuple(REF_QPS * 1.05 ** k for k in range(15, 44))
LATENCY_LIMIT_MS = 50.0  # p99 limit a rung must meet
# The serving tail kept under a bound. p99 at the reference rate is printed
# too, but a few ~20 ms prepare stalls per run decide it (README.md).
SERVE_TAIL_PCT = 90.0
# Epoch tails stop at p75, the highest percentile ~70 calls per run support,
# so a faster program (more calls) keeps reporting the same percentile.
EPOCH_TAIL_LADDER = (75.0, 50.0)
# Layers on each workload's timed path, for the self-time report.
TIMED_PATH = {
    OFFLINE: ("gnn",),
    STREAM: ("graph", "bittensor", "transfer", "gnn"),
    SERVE: ("core.submit", "serving.batcher", "serving.prepare", "serving.ship",
            "serving.compute"),
}
# A hung measurement is killed after this long, so the command always ends.
CHILD_TIMEOUT_S = 170.0


def build():
    """Configures and builds the measurement binary (both no-ops when up to
    date). Build output goes to stderr; stdout stays for results."""
    subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


class Child:
    """The measurement binary, spoken to in JSON lines."""

    def __init__(self, cmd):
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()

    def event(self, expect):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench exited before '%s'" % expect)
        ev = json.loads(line)
        if ev.get("event") != expect:
            raise RuntimeError("expected '%s', got '%s'" % (expect, ev.get("event")))
        return ev

    def send(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def rung(self, qps, seconds):
        self.send("rung %r %r" % (qps, seconds))
        return self.event("rung")

    def close(self):
        """Waits for the binary to end; raises if it failed."""
        self.timer.cancel()
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        code = self.proc.wait()
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError("perfbench exited with code %d" % code)

    def kill(self):
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_ladder(child, seconds):
    """The reference phase at REF_QPS, then LADDER rungs until one rate misses
    twice in a row (a single miss is re-run once: one ~20 ms stall can fail a
    short rung), then one rung past that rate lasting as long as the miss:
    under overload its p50, timed from the schedule, must not fall. Returns
    the reference rung and (rate, rung, passed, reasons) per ladder rung."""
    ref = child.rung(REF_QPS, REF_SHARE * seconds)
    requests = (1.0 - REF_SHARE) * seconds / sum(1.0 / rate for rate in LADDER)
    rungs = []
    for i, rate in enumerate(LADDER):
        for _ in range(2):
            r = child.rung(rate, requests / rate)
            passed, _, reasons = stats.rung_verdict(r, LATENCY_LIMIT_MS)
            rungs.append((rate, r, passed, reasons))
            if passed:
                break
        if not passed:
            if i + 1 < len(LADDER):
                r = child.rung(LADDER[i + 1], requests / rate)
                passed, _, reasons = stats.rung_verdict(r, LATENCY_LIMIT_MS)
                rungs.append((LADDER[i + 1], r, passed, reasons))
            break
    return ref, rungs


def describe_rung(rate, rung, passed, reasons):
    lat = stats.scheduled_latency(rung["sched"], rung["start"], rung["total"])
    lat_ms = [x * 1e3 for x in lat] or [0.0]
    return ("  rung %7.1f qps  %5d req  p50 %8.3f ms  p99 %8.3f ms  %s"
            % (rate, len(lat), stats.percentile(lat_ms, 50), stats.percentile(lat_ms, 99),
               "pass" if passed else "MISS (" + "; ".join(reasons) + ")"))


def epoch_metrics(call_s, nodes):
    p, tail_s, n = stats.tail(call_s, EPOCH_TAIL_LADDER)
    return {
        "latency_p50_ms": statistics.median(call_s) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_per_s": len(call_s) * nodes / sum(call_s),
    }, "p%g of %d calls" % (p, n)


def serving_layer_metrics(rung):
    """serving.* per-layer values from one rung's samples and stats delta."""
    m = {}
    for stage in ("batcher", "prepare", "ship", "compute"):
        m["serving.%s.busy_ms" % stage] = rung[stage + "_busy_s"] * 1e3
        m["serving.%s.stall_ms" % stage] = rung[stage + "_stall_s"] * 1e3
    queue_ms = [q * 1e3 for q, ok in zip(rung["queue"], rung["ok"]) if ok]
    m["serving.queue_ms_p50"] = stats.percentile(queue_ms, 50)
    m["serving.queue_ms_p99"] = stats.percentile(queue_ms, 99)
    m["serving.submit_us_p50"] = stats.percentile(
        [(e - s) * 1e6 for s, e in zip(rung["start"], rung["end"])], 50)
    m["serving.gen_late_ms_p99"] = stats.percentile(
        [x * 1e3 for x in stats.lateness(rung["sched"], rung["start"])], 99)
    batches = max(1.0, rung["batches_dispatched"])
    m["serving.batch_requests_mean"] = sum(rung["ok"]) / batches
    m["serving.timeout_dispatch_share"] = rung["dispatches_timeout"] / batches
    return m


def request_spans(rung, first_id):
    """The replayed requests as spans: the request from its scheduled send
    to its result, with the client's submit() call as its child."""
    spans = []
    for i, (sc, s0, e0, tot) in enumerate(zip(rung["sched"], rung["start"], rung["end"],
                                             rung["total"])):
        root = len(spans) + first_id
        spans.append(["request", i, -1, sc, s0 + tot])
        spans.append(["core.submit", i, root, s0, e0])
    return spans


def layer_of(name):
    return name if name.startswith(("core.", "serving.")) else name.split(".")[0]


def self_time_report(workload, spans, rung):
    """Self time per layer over the traced replay; serving stages add their
    busy time from ServingStats. Returns (table, top layer on the timed path)."""
    per_layer = {}
    for name, secs in stats.self_times(spans).items():
        if name in ("batch", "request"):
            continue
        per_layer[layer_of(name)] = per_layer.get(layer_of(name), 0.0) + secs
    for stage in ("batcher", "prepare", "ship", "compute"):
        per_layer["serving." + stage] = rung[stage + "_busy_s"]
    on_path = {k: v for k, v in per_layer.items() if k in TIMED_PATH[workload]}
    return per_layer, max(on_path, key=on_path.get)


def host_block(setup, seed):
    cpu = "unknown"
    flags = set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu == "unknown":
                    cpu = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    sha = "unavailable (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "isa_flags": sorted(flags & {"avx2", "avx512f", "avx512_vpopcntdq", "popcnt"}),
        "backend": setup["backend"],
        "build_type": setup["build_type"],
        "git_sha": sha,
        "seed": seed,
    }


def measure(binary, args):
    """Runs one workload. Returns (values, notes, attempted, failed, ok,
    record) where values maps metric names to numbers."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(OUT_DIR, tag + "-spans.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", spans_path]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    child = Child(cmd)
    values, notes, record = {}, [], {}
    try:
        setup = child.event("setup")
        record["host"] = host_block(setup, args.seed)
        if args.trace:
            values.update({k: v for k, v in child.event("layers").items() if k != "event"})
            child.event("ready")
            rung = child.rung(REF_QPS, REF_SHARE * args.seconds)
            child.send("finish")
            end = child.event("end")
            values.update(serving_layer_metrics(rung))
            with open(spans_path) as f:
                spans = json.load(f)
            spans += request_spans(rung, len(spans))
            with open(spans_path, "w") as f:
                json.dump(spans, f)
            table, top = self_time_report(args.workload, spans, rung)
            record["self_time_s"] = table
            notes.append("self time by layer (s): " + ", ".join(
                "%s %.3f" % kv for kv in sorted(table.items(), key=lambda kv: -kv[1])))
            notes.append("largest self time on the %s timed path: %s" % (args.workload, top))
        elif args.workload == SERVE:
            child.event("ready")
            ref, rungs = run_ladder(child, args.seconds)
            child.send("finish")
            parity = child.event("parity")
            end = child.event("end")
            lat_ms = [x * 1e3 for x in stats.scheduled_latency(ref["sched"], ref["start"],
                                                               ref["total"])]
            values["latency_p50_ms"] = stats.percentile(lat_ms, 50)
            values["latency_tail_ms"] = stats.percentile(lat_ms, SERVE_TAIL_PCT)
            values["throughput_per_s"] = stats.max_passing_rate(
                [(rate, passed) for rate, _, passed, _ in rungs])
            notes.append("serve_p99_ms %.3f ms (unbounded); reference phase: %d requests at %g qps"
                         % (stats.percentile(lat_ms, 99), len(lat_ms), REF_QPS))
            notes.extend(describe_rung(rate, r, p, why) for rate, r, p, why in rungs)
            if len(rungs) >= 2 and not rungs[-2][2] and rungs[-2][0] != rungs[-1][0]:
                p50s = [stats.percentile(stats.scheduled_latency(r["sched"], r["start"],
                                                                 r["total"]), 50) * 1e3
                        for _, r, _, _ in rungs[-2:]]
                notes.append("past saturation p50 %.3f -> %.3f ms (%s)" % (
                    p50s[0], p50s[1], "rising" if p50s[1] >= p50s[0] else "FALLING"))
            notes.append("parity: %d requests replayed, %d mismatched"
                         % (parity["requests"], parity["mismatched"]))
            record["rungs"] = [{"qps": rate, "requests": len(r["sched"]), "passed": p,
                                "why": why} for rate, r, p, why in rungs]
            record["ref_latency_ms"] = {"p%g" % p: stats.percentile(lat_ms, p)
                                        for p in (50, 90, 95, 99, 99.9)}
        else:
            epochs = child.event("epochs")
            end = child.event("end")
            em, tail_note = epoch_metrics(epochs["call_s"], setup["nodes"])
            values.update(em)
            notes.append("epoch_ms_tail is " + tail_note)
            record["call_s"] = epochs["call_s"]
        child.close()
    except BaseException:
        child.kill()
        raise
    if not args.trace:
        values["setup_s"] = statistics.median(setup["setup_s"])
        values["peak_rss_mb"] = end["vm_hwm_mb"]
    attempted, failed = int(end["attempted"]), int(end["failed"])
    ok = failed == 0 and end["counters_ok"] == 1
    if end["counters_ok"] != 1:
        notes.append("tile counters differ from the reference")
    return values, notes, attempted, failed, ok, record


# What each end-to-end metric is called on an epoch or a serving workload.
WORKLOAD_NAMES = {
    "epoch": {"latency_p50_ms": "epoch_ms_p50", "latency_tail_ms": "epoch_ms_tail"},
    "serve": {"latency_p50_ms": "serve_p50_ms", "latency_tail_ms": "serve_p90_ms",
              "throughput_per_s": "serve_max_qps"},
}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed: dataset and request stream (default 0)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="corrupt one reference logit (tests the correctness gate)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        binary = build()
        values, notes, attempted, failed, ok, record = measure(binary, args)
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    metrics, missing = {}, []
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if missing:
        notes.append("missing metrics: " + ", ".join(missing))
    correct = ok and not missing

    kind = "serve" if args.workload == SERVE else "epoch"
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("host " + json.dumps(record["host"], sort_keys=True))
    for name, m in metrics.items():
        alias = "" if args.trace else WORKLOAD_NAMES[kind].get(name, "")
        print("  %-34s %18.10g %-11s %s" % (name, m["value"], m["unit"], alias))
    print("  %-34s %18.10g %-11s" % ("fail_share", stats.fail_share(attempted, failed), "1"))
    for n in notes:
        print(n)
    record.update({"workload": args.workload, "trace": args.trace, "correct": correct,
                   "attempted": attempted, "failed": failed, "metrics": metrics})
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
