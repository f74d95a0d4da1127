#!/usr/bin/env python3
"""Repository benchmark: campaign, fleet and serve_warm workloads.

    python3 perfbench/run.py --workload campaign|fleet|serve_warm \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, Release) into the build root:
$CARGO_TARGET_DIR when set, else .bench_build. Every later call reuses it.

--trace 0 prints the end-to-end metrics of one workload; --trace 1 prints
the per-layer metrics from a traced run and keeps its Chrome traces under
<build root>/traces/. The last line of standard output is always one JSON
object: {"correct", "attempted", "failed", "metrics"}. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "fleet", "serve_warm")
# The headline of each workload under the names the notes use.
HEADLINE = {
    "campaign": ("campaign_steps_per_s", "steps/s"),
    "fleet": ("fleet_drone_steps_per_s", "steps/s"),
    "serve_warm": ("serve_req_per_s", "req/s"),
}


def binary_timeout_s(seconds, trace):
    """Time the binary may take. An untraced run measures for about
    1.25 x --seconds after a few seconds of set-up; a traced run adds the
    traced passes of every workload and the probes, about 60 s."""
    return (120.0 if trace else 60.0) + 2.0 * seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, root))


def build(broot):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    bdir = os.path.join(broot, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "uavres_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "uavres_perfbench")


# --- statistics -------------------------------------------------------------

def quantile(values, q):
    """R-7 quantile (linear interpolation), as core::Quantile computes it."""
    v = sorted(values)
    if not v:
        return float("nan")
    h = q * (len(v) - 1)
    lo = int(math.floor(h))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def median(values):
    return quantile(values, 0.5)


def tail(values):
    """Highest of p99/p95/p90/p75/p50 with at least 10 samples beyond it."""
    for q in (0.99, 0.95, 0.90, 0.75, 0.50):
        if len(values) * (1.0 - q) >= 10:
            return q, quantile(values, q)
    return None, None


# --- trace analysis -----------------------------------------------------------

def load_spans(path):
    """Closed spans of a Chrome trace: dicts with name, tid, dur_us, self_us.

    Self time is the span's duration minus its direct children on the same
    thread. The recorder keeps one timeline per thread, so a serve request
    that passes from a client thread to a worker shows up as two unlinked
    spans; the analysis never tries to join them.
    """
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    stacks, spans = {}, []
    for ev in events:
        ph, tid = ev.get("ph"), ev.get("tid")
        if ph == "B":
            stacks.setdefault(tid, []).append([ev["name"], ev["ts"], 0.0])
        elif ph == "E" and stacks.get(tid):
            name, ts, child = stacks[tid].pop()
            dur = ev["ts"] - ts
            spans.append({"name": name, "tid": tid, "dur_us": dur, "self_us": dur - child})
            if stacks[tid]:
                stacks[tid][-1][2] += dur
    return spans


def module_of(span_name):
    parts = span_name.split("/")
    if parts[0] == "probe":
        return parts[1]
    return {"campaign": "core", "cache": "core", "sim": "uav"}.get(parts[0], parts[0])


def durations(spans, name):
    return [s["dur_us"] for s in spans if s["name"] == name]


def attribution(spans):
    """Self time per module and per span name, in ms."""
    by_module, by_name = {}, {}
    for s in spans:
        m = module_of(s["name"])
        by_module[m] = by_module.get(m, 0.0) + s["self_us"] / 1e3
        entry = by_name.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += s["dur_us"] / 1e3
        entry["self_ms"] += s["self_us"] / 1e3
    return by_module, by_name


# --- metrics ------------------------------------------------------------------

def pass_rates(data):
    return [p["ops"] / p["wall_s"] for p in data["passes"]]


def job_ms(report):
    """Wall times of the jobs a user waits for: a serve request, or a whole
    pass (one mission's grid, one fleet run). A campaign's single grid runs
    are not used: crashed and completed flights differ several-fold in
    length, and the mix, so their median, moves with the seed."""
    ref = report["reference"]
    if report["workload"] == "serve_warm":
        return [ms for p in ref["passes"] for ms in p["op_ms"]]
    return [p["wall_s"] * 1e3 for p in ref["passes"]]


def end_to_end(report):
    """The gated metrics, measured on the untraced reference passes."""
    ref = report["reference"]
    return {
        "ops_per_s": (median(pass_rates(ref)), "1/s"),
        "latency_ms": (median(job_ms(report)), "ms"),
        "setup_s": (median(ref["setup_s"]), "s"),
        "peak_rss_mb": (ref["peak_rss_mb"], "MiB"),
    }


def headline(report):
    """The end-to-end numbers under the workload-specific names, with the
    latency distribution and its sample counts."""
    w = report["workload"]
    ref = report["reference"]
    name, unit = HEADLINE[w]
    samples = [ms for p in ref["passes"] for ms in p["op_ms"]]
    out = {name: {"value": median(pass_rates(ref)), "unit": unit},
           "op_samples": len(samples), "passes": len(ref["passes"]),
           "pass_wall_s": [p["wall_s"] for p in ref["passes"]]}
    if w == "campaign":
        out["campaign_runs_per_s"] = {
            "value": median([p["ledger"]["sim.runs"] / p["wall_s"] for p in ref["passes"]]),
            "unit": "runs/s"}
    q, t = tail(samples)
    if w == "serve_warm":
        out["serve_p50_ms"] = {"value": median(samples), "unit": "ms"}
        out["serve_p99_ms"] = {"value": quantile(samples, 0.99), "unit": "ms"}
    if q is not None:
        out["op_tail"] = {"q": q, "value_ms": t,
                          "samples_beyond": int(round(len(samples) * (1 - q)))}
    return out


def per_layer(report, trace_dir, checks):
    tr = report["traced"]
    pr = report["probes"]
    m = {}

    # campaign: phases, run spans, scheduler and store writes.
    camp = tr["campaign"]
    spans = load_spans(os.path.join(trace_dir, "trace_campaign.json"))
    run = sum(durations(spans, "campaign/run"))
    gold_phase = sum(durations(spans, "campaign/gold-phase"))
    faulty_phase = sum(durations(spans, "campaign/faulty-phase"))
    runs_ms = [d / 1e3 for d in durations(spans, "campaign/gold-run") +
               durations(spans, "campaign/faulty-run")]
    m["core.campaign.gold_phase_share"] = (gold_phase / run, "ratio")
    m["core.campaign.run_ms_p50"] = (median(runs_ms), "ms")
    m["core.campaign.run_ms_p90"] = (quantile(runs_ms, 0.9), "ms")
    m["core.scheduler.busy_share"] = (
        sum(durations(spans, "campaign/faulty-run")) / (camp["workers"] * faulty_phase), "ratio")
    m["core.store.write_us_p50"] = (median(durations(spans, "cache/store")), "us")
    m["core.store.entry_bytes_mean"] = (camp["entry_bytes_mean"], "B")
    ledger = camp["passes"][0]["ledger"]
    for key in ("sim.steps", "sim.runs", "sim.outcome.completed", "sim.outcome.crashed",
                "sim.outcome.failsafe", "sim.outcome.timeout"):
        m[key] = (ledger[key], "count")
    m["estimation.ekf_predicts"] = (ledger["ekf.predicts"], "count")

    # fleet: work ledger, lane occupancy, thread scaling, conflict detection.
    fl = tr["fleet"]
    spans = load_spans(os.path.join(trace_dir, "trace_fleet.json"))
    fledger = fl["passes"][0]["ledger"]
    steps, intervals = fledger["uspace.fleet.drone_steps"], fledger["uspace.fleet.intervals"]
    m["uspace.fleet.drone_steps"] = (steps, "count")
    m["uspace.fleet.intervals"] = (intervals, "count")
    m["uspace.fleet.lane_occupancy"] = (
        steps / (intervals * fl["steps_per_interval"] * fl["lanes_provisioned"]), "ratio")
    m["uspace.fleet.thread_speedup"] = (fl["thread_speedup"], "x")
    m["uspace.conflict.step_us_p50"] = (median(durations(spans, "uspace/conflict_step")), "us")
    m["uspace.conflict.pairs_evaluated"] = (fl["pairs_evaluated"], "count")
    considered = fl["pairs_evaluated"] + fl["pairs_culled"]
    m["uspace.conflict.cull_ratio"] = (fl["pairs_culled"] / considered if considered else 0.0,
                                       "ratio")

    # serve_warm: store reads, server-side work vs client latency, codec.
    sv = tr["serve_warm"]
    spans = load_spans(os.path.join(trace_dir, "trace_serve_warm.json"))
    flights = durations(spans, "serve/flight")
    client_us = [ms * 1e3 for ms in sv["passes"][0]["op_ms"]]
    m["core.store.read_us_p50"] = (median(durations(spans, "cache/load")), "us")
    m["core.store.populate_ms"] = (sv["populate_s"] * 1e3, "ms")
    m["serve.flight_us_p50"] = (median(flights), "us")
    m["serve.rtt_us_p50"] = (median(sv["rtt_us"]), "us")
    m["serve.wait_share"] = (1.0 - sum(flights) / sum(client_us), "ratio")
    m["serve.p99_ms"] = (quantile(sv["passes"][0]["op_ms"], 0.99), "ms")
    m["telemetry.result_encode_us"] = (sv["codec"]["encode_us"], "us")
    m["telemetry.result_decode_us"] = (sv["codec"]["decode_us"], "us")
    m["serve.result_bytes_mean"] = (sv["codec"]["result_bytes_mean"], "B")
    st = sv["stats"]
    m["serve.hit_ratio"] = (st["store_hits"] / st["completed"] if st["completed"] else 0.0,
                            "ratio")

    # Module probes: ns per call into each layer's public entry point.
    for key in ("uav.step_ns.cruise", "uav.step_ns.fault", "uav.batch_lane_step_ns",
                "sensors.imu_sample_ns", "math.rng_gaussian_ns", "core.fault_apply_ns",
                "estimation.ekf_predict_ns", "estimation.ekf_fuse_ns",
                "estimation.replay_ns_per_step", "control.cascade_ns", "sim.quad_step_ns",
                "core.cache_key_ns"):
        m[key] = (pr[key], "ns")
    m["uav.step_other_ns"] = (
        pr["uav.step_ns.cruise"] - (pr["sensors.imu_sample_ns"] + pr["estimation.ekf_predict_ns"] +
                                    pr["estimation.ekf_fuse_ns_per_step"] +
                                    pr["control.cascade_ns"] + pr["sim.quad_step_ns"]), "ns")

    # Validity of the trace: the traced pass of this workload vs untraced.
    w = report["workload"]
    untraced = median(pass_rates(report["reference"]))
    traced = median(pass_rates(tr[w]))
    m["telemetry.trace_overhead_pct"] = ((untraced - traced) / untraced * 100.0, "%")
    m["failed_share"] = (checks["failed"] / max(1, checks["attempted"]), "ratio")
    return m


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    broot = build_root()
    try:
        binary = build(broot)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    work = os.path.join(broot, "work", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    report_path = os.path.join(work, "report.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--report", report_path]
    timeout = binary_timeout_s(args.seconds, args.trace)
    try:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("benchmark binary did not finish within %.0f s" % timeout)
        if proc.returncode != 0:
            fail("benchmark binary exited with %d" % proc.returncode)
        with open(report_path) as f:
            report = json.load(f)

        checks = report["checks"]
        env = dict(report["environment"])
        ref = report["reference"]
        env["workers"] = ref["workers"]
        if "clients" in ref:
            env["connections"] = ref["clients"]
        result = {"environment": env, "workload": args.workload, "seed": args.seed,
                  "checks": checks}
        try:
            metrics = collect(args, report, work, broot, result)
        except (KeyError, IndexError, ValueError, ZeroDivisionError, OSError) as e:
            # Only a run whose own checks already failed can leave the report
            # without the data a metric needs; say so instead of a traceback.
            checks["failures"].append("metrics could not be computed: %r" % e)
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not checks["failures"] and checks["failed"] == 0
    print(json.dumps(result, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(checks["attempted"]), int(checks["failed"])),
        "failed": int(checks["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def collect(args, report, work, broot, result):
    """Metrics of one run; adds the run's context to `result`."""
    if args.trace:
        trace_dir = os.path.join(broot, "traces")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        for name in os.listdir(work):
            if name.startswith("trace_"):
                shutil.move(os.path.join(work, name), os.path.join(trace_dir, name))
        result["attribution_self_ms"] = {}
        for name in sorted(os.listdir(trace_dir)):
            by_module, by_name = attribution(load_spans(os.path.join(trace_dir, name)))
            result["attribution_self_ms"][name] = {"modules": by_module, "spans": by_name}
        result["traces"] = os.path.relpath(trace_dir, ROOT)
        return per_layer(report, trace_dir, report["checks"])
    result["headline"] = headline(report)
    result["work_ledger"] = [p["ledger"] for p in report["reference"]["passes"]]
    return end_to_end(report)


if __name__ == "__main__":
    sys.exit(main())
