#!/usr/bin/env python3
"""pcsim's benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py                      # every workload, both tables
    python3 perfbench/run.py --workload pcmicro-64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test          # interposition transparency

Run it from anywhere inside a source tree of the repository. It builds
perfbench/ (Release) into $CARGO_TARGET_DIR, default .bench_build, at the
root of the tree, then runs batches of the chosen workload, one fresh
pcsim_perfbench process per batch:

  --trace 0  one validation batch (coherence checker and conformance hook
             on), then untraced timed batches for --seconds; prints the
             end-to-end metrics over the timed batches.
  --trace 1  one validation batch, one traced batch, untraced batches for
             the rest of --seconds (tracing overhead, ns per event) and, on
             kvserve-256, one 2-shard batch; prints the per-layer metrics.

A batch counts as failed if its process dies or exits nonzero, or if its
simulated statistics differ from the validation batch's. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 1 when any batch failed and 2 when nothing could be
measured (no sources, a failed build, a non-Release build, a 1-core host).
See perfbench/README.md for what every metric means.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["pcmicro-64", "kvserve-256", "fig7-16"]
FIG7_BASE = "Base"
FIG7_FULL = "1K-entry deledc & 1M RAC"
MIN_TIMED_BATCHES = 3
MAX_FAILURES = 3
BATCH_TIMEOUT_S = 150
MAX_RUN_S = 170  # stop timing new batches past this, to exit within 180 s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Refused(Exception):
    """Nothing can be measured; exit 2 without printing a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build and host provenance -------------------------------------------

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Refused(f"no simulator sources under {ROOT / 'src'}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(bdir / "build.log", "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise Refused(f"cannot build: {e}")
            if rc != 0:
                raise Refused(f"build failed; see {bdir / 'build.log'}")
    exe = bdir / "pcsim_perfbench"
    if not exe.is_file():
        raise Refused(f"build produced no {exe}")
    return exe


def host_info(exe):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "machine": platform.machine(), "git_commit": commit}
    # build_type and compiler, as compiled into the driver.
    probe = subprocess.run([str(exe), "--mode", "info"],
                           capture_output=True, text=True, timeout=30)
    if probe.returncode == 0:
        info.update(json.loads(probe.stdout))
    return info


def check_host(info):
    # The ROADMAP's rule: numbers from a 1-core host or a non-Release
    # build do not count, so they are never recorded.
    if info["nproc"] < 2:
        raise Refused("refusing to measure on a 1-core host")
    if info.get("build_type") != "Release":
        raise Refused(f"refusing a {info.get('build_type')!r} build; "
                      "Release only")


# --- batches ---------------------------------------------------------------

class BatchRunner:
    """Batches of one workload; tracks attempts, failures and the
    validation batch's simulated statistics."""

    def __init__(self, exe, workload, seed):
        self.exe, self.workload, self.seed = exe, workload, seed
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None

    def batch(self, mode):
        """Run one batch; returns its document, or None if it failed."""
        self.attempted += 1
        cmd = [str(self.exe), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=BATCH_TIMEOUT_S)
            doc = json.loads(p.stdout) if p.returncode == 0 else None
        except (subprocess.TimeoutExpired, ValueError):
            p, doc = None, None
        if doc is None:
            self.failed += 1
            why = p.stderr.strip()[-400:] if p else "timeout/bad output"
            self.errors.append(f"{mode} batch failed: {why}")
            return None
        if mode == "pdes" and not doc.get("pdes_available", True):
            return doc
        stats = [r["stats"] for r in doc["batch"]["runs"]]
        if mode == "validate":
            self.reference = stats
        elif self.reference is None or stats != self.reference:
            self.failed += 1
            self.errors.append(f"{mode} batch: simulated statistics differ "
                               "from the validation batch")
            return None
        return doc

    def validate(self):
        if self.batch("validate") is None:
            self.errors.append("no validation batch; nothing is checked")
            return False
        return True

    def timed(self, seconds, started, minimum=MIN_TIMED_BATCHES):
        """Untraced batches that fit in `seconds` (at least `minimum`);
        returns their timing blocks."""
        out = []
        t0 = time.monotonic()
        last = 0.0
        while True:
            now = time.monotonic()
            if len(out) >= minimum and now - t0 + last > seconds:
                break
            if now - started > MAX_RUN_S or self.failed >= MAX_FAILURES:
                break
            doc = self.batch("plain")
            last = time.monotonic() - now
            if doc is not None:
                out.append(doc["batch"])
        return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner, batches):
    # Every batch does identical, deterministic work and host interference
    # only adds time, so wall and run time are the fastest batch's: the
    # median flips between the fast and slow modes of a shared host.
    t = [b["timing"] for b in batches]
    median = statistics.median
    cycles = sum(s["cycles"] for s in runner.reference)
    return {
        "wall_s": metric(min(x["wall_s"] for x in t), "s"),
        "setup_s": metric(median([x["build_s"] + x["construct_s"] for x in t]),
                          "s"),
        "run_s": metric(min(x["run_s"] for x in t), "s"),
        "peak_rss_mb": metric(median([x["peak_rss_mb"] for x in t]), "MiB"),
        "sim_cycles": metric(cycles, "cycles"),
        "ok_frac": metric((runner.attempted - runner.failed) /
                          max(1, runner.attempted), "ratio"),
    }


def per_layer(workload, traced, plain, pdes):
    b = traced["batch"]
    runs = [r["stats"] for r in b["runs"]]
    perf = [r["perf"] for r in b["runs"]]
    sp = b["spans"]
    cpu = b["cpu"]

    def tot(field):
        return sum(r[field] for r in runs)

    def span_s(name, key="self_ns"):
        return sp[name][key] * 1e-9

    events = sum(p["events"] for p in perf)
    plain_run_s = min(x["timing"]["run_s"] for x in plain)
    kinds = ["read", "write", "think", "barrier"]
    cpu_ticks = sum(cpu[k + "_ticks"] for k in kinds)
    sent, consumed = tot("updatesSent"), tot("updatesConsumed")

    # PDES figures exist only for kvserve-256 and only while the kernel
    # has shards; 0 marks them absent.
    pdes_speedup = pdes_windows = pdes_barriers = pdes_cross = 0
    if pdes is not None and pdes.get("pdes_available"):
        pp = [r["perf"] for r in pdes["batch"]["runs"]]
        pdes_speedup = plain_run_s / pdes["batch"]["timing"]["run_s"]
        pdes_windows = sum(p.get("windows", 0) for p in pp)
        pdes_barriers = sum(p.get("barriers", 0) for p in pp)
        pdes_cross = sum(p.get("cross_msgs", 0) for p in pp)

    rows = [
        ("workload.build_s", span_s("workload.build", "total_ns"), "s"),
        ("workload.rss_mb", b["timing"]["workload_rss_mb"], "MiB"),
        ("workload.next_s", span_s("workload.next"), "s"),
        ("system.construct_s", span_s("system.construct", "total_ns"), "s"),
        ("system.run_s", span_s("system.run", "total_ns"), "s"),
        ("system.teardown_s", span_s("system.teardown", "total_ns"), "s"),
        ("system.rss_mb", b["timing"]["system_rss_mb"], "MiB"),
        ("sim.events", events, "count"),
        ("sim.ns_per_event", plain_run_s * 1e9 / max(1, events), "ns"),
        ("sim.dispatch_s", span_s("system.run"), "s"),
        ("sim.peak_queue", max(p["peak_queue"] for p in perf), "count"),
        ("sim.pdes_speedup", pdes_speedup, "x"),
        ("sim.pdes_windows", pdes_windows, "count"),
        ("sim.pdes_barriers", pdes_barriers, "count"),
        ("sim.pdes_cross_msgs", pdes_cross, "count"),
        ("cpu.ops", cpu["ops"], "count"),
    ]
    rows += [(f"cpu.{k}_frac", cpu[k + "_ticks"] / max(1, cpu_ticks),
              "ratio") for k in kinds]
    rows += [(f"cpu.{k}_ticks", cpu[k + "_ticks"], "cycles") for k in kinds]
    rows += [
        ("cache.accesses", tot("reads") + tot("writes"), "count"),
        ("cache.l1_hits", tot("l1Hits"), "count"),
        ("cache.l2_hits", tot("l2Hits"), "count"),
        ("cache.local_misses", tot("localMisses"), "count"),
        ("cache.remote_misses", tot("remoteMisses"), "count"),
        ("cache.rac_hits", tot("racHits"), "count"),
        ("cache.two_hop", tot("twoHopMisses"), "count"),
        ("cache.three_hop", tot("threeHopMisses"), "count"),
        ("cache.retries", tot("retries"), "count"),
        ("cache.miss_p50_ticks", max(r["missLatencyP50"] for r in runs),
         "cycles"),
        ("cache.miss_p99_ticks", max(r["missLatencyP99"] for r in runs),
         "cycles"),
        ("cache.handle_s", span_s("cache.handle"), "s"),
        ("cache.msgs", sp["cache.handle"]["count"], "count"),
        ("mem.home_requests", tot("homeRequests"), "count"),
        ("mem.nacks_sent", tot("nacksSent"), "count"),
        ("mem.interventions_sent", tot("interventionsSent"), "count"),
        ("mem.dir_cache_hits", tot("dirCacheHits"), "count"),
        ("mem.dir_cache_misses", tot("dirCacheMisses"), "count"),
        ("mem.writebacks", tot("writebacks"), "count"),
        ("mem.handle_s", span_s("mem.handle"), "s"),
        ("mem.msgs", sp["mem.handle"]["count"], "count"),
        ("core.delegations", tot("delegationsGranted"), "count"),
        ("core.undelegations", tot("undelegationsCapacity") +
         tot("undelegationsFlush") + tot("undelegationsConflict"), "count"),
        ("core.forwarded_requests", tot("forwardedRequests"), "count"),
        ("core.delayed_interventions", tot("delayedInterventions"), "count"),
        ("core.updates_sent", sent, "count"),
        ("core.updates_consumed", consumed, "count"),
        ("core.update_use_frac", consumed / sent if sent else 0.0, "ratio"),
        ("core.handle_s", span_s("core.handle"), "s"),
        ("core.msgs", sp["core.handle"]["count"], "count"),
        ("core.speedup_vs_base",
         fig7_speedup(runs) if workload == "fig7-16" else 0.0, "x"),
        ("net.messages", tot("netMessages"), "count"),
        ("net.bytes", tot("netBytes"), "B"),
        ("net.nacks", tot("nackMessages"), "count"),
        ("net.updates", tot("updateMessages"), "count"),
        ("trace.overhead_s", span_s("system.run", "total_ns") - plain_run_s,
         "s"),
    ]
    return {name: metric(value, unit) for name, value, unit in rows}


def fig7_speedup(runs):
    """Geomean over apps of Base cycles / full-mechanism cycles."""
    by = {(r["workload"], r["config"]): r["cycles"] for r in runs}
    apps = sorted({w for (w, _) in by})
    logs = [math.log(by[(a, FIG7_BASE)] / by[(a, FIG7_FULL)]) for a in apps]
    return math.exp(sum(logs) / len(logs))


def self_times_add_up(traced):
    sp = traced["batch"]["spans"]
    parts = ["system.run", "workload.next", "cache.handle", "mem.handle",
             "core.handle"]
    return sum(sp[p]["self_ns"] for p in parts) == sp["system.run"]["total_ns"]


# --- one benchmark run -------------------------------------------------------

def run_once(exe, info, workload, seed, seconds, trace):
    started = time.monotonic()
    runner = BatchRunner(exe, workload, seed)
    record = {"host": info, "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace}
    metrics = {}
    correct = runner.validate()
    if correct and trace == 0:
        batches = runner.timed(seconds, started)
        correct = bool(batches)
        if batches:
            metrics = end_to_end(runner, batches)
            record["timed_batches"] = [b["timing"] for b in batches]
    elif correct:
        traced = runner.batch("traced")
        plain = runner.timed(seconds, started)
        pdes = runner.batch("pdes") if workload == "kvserve-256" else None
        if traced is not None and plain:
            metrics = per_layer(workload, traced, plain, pdes)
            record["spans"] = traced["batch"]["spans"]
            record["timed_batches"] = [b["timing"] for b in plain]
            if not self_times_add_up(traced):
                runner.errors.append("traced self times do not sum to the "
                                   "system.run span")
                correct = False
        else:
            correct = False
    correct = correct and runner.failed == 0
    record.update(metrics=metrics, errors=runner.errors,
                  attempted=runner.attempted, failed=runner.failed)
    out = build_dir() / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for e in runner.errors:
        log(f"{workload}: {e}")
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}, out


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        v = m["value"]
        shown = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"  {name:<28} {shown:>16} {m['unit']}")


def self_test():
    """The benchmark's own tests, as registered in its CMakeLists.txt."""
    return subprocess.run(["ctest", "--test-dir", str(build_dir()),
                           "--output-on-failure"], timeout=600).returncode


def main():
    # Exit through Python on SIGTERM so subprocess.run kills and reaps the
    # batch in flight instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1,
                    help="1 reproduces the committed statistics; 2 is the "
                    "held-out seed for claims")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None)
    ap.add_argument("--self-test", action="store_true",
                    help="run the interposition transparency test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        exe = build()
        info = host_info(exe)
        check_host(info)
    except Refused as e:
        log(f"perfbench: {e}")
        return 2

    if args.self_test:
        return self_test()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    host = (f"host: {info['nproc']} cores, {info['cpu_model']}, "
            f"{info.get('compiler')}, {info.get('build_type')}, "
            f"commit {info['git_commit']}")
    print(host)
    results = []
    for trace in traces:
        for w in workloads:
            res, path = run_once(exe, info, w, args.seed, args.seconds, trace)
            title = ("end-to-end" if trace == 0 else "per-layer (traced)")
            print_table(f"{w} seed {args.seed} {title}: "
                        f"{res['attempted']} batches, {res['failed']} failed "
                        f"({path})", res["metrics"])
            results.append(res)

    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
