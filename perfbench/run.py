#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of npfsim.

Builds perfbench/npfbench from the checkout's sources, runs one
workload repeatedly for about --seconds seconds, checks every repeat
and prints every metric by name with its unit. The last line of stdout
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host-time medians
over the repeats plus the deterministic sim_* figures); with --trace 1
they are the per-layer ones, taken from extra untraced repeats, one
traced repeat (event-loop profiler + flow tracing; its Chrome traces
are validated) and, on sharded_kv, the same worlds on one shard.

    python3 perfbench/run.py --workload eth_memcached --seed 1 \\
        --seconds 20 --trace 0

Run it from the root of a checkout. Build files go to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), run
outputs to .bench_out/. perfbench/README.md describes the workloads,
the metrics and the checks.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"

WORKLOADS = ("eth_memcached", "ib_kv_overcommit", "ib_kv_incast",
             "sharded_kv")
MIN_REPEATS = 3        # determinism needs at least two to compare
MAX_REPEATS = 64
REPEAT_TIMEOUT_S = 120


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


# --- build -------------------------------------------------------------

def build():
    """Configure (once) and build npfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ not found next to perfbench/: run from a full checkout")
    bdir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "npfbench",
                  "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "npfbench")


# --- one repeat ----------------------------------------------------------

def steal_ticks():
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def repeat(binary, workload, seed, shards=None, trace_stem=None):
    """Run npfbench once; returns its JSON plus process-level figures."""
    tag = f"{workload}.seed{seed}"
    out_path = os.path.join(OUT_DIR, tag + ".stdout")
    err_path = os.path.join(OUT_DIR, tag + ".stderr")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}"]
    if shards is not None:
        cmd.append(f"--shards={shards}")
    if trace_stem is not None:
        cmd.append(f"--trace-out={trace_stem}")
    steal0 = steal_ticks()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        # Block in wait4 (a polling loop would preempt the child); the
        # timer kills a hung repeat.
        timer = threading.Timer(REPEAT_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    try:
        r = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{' '.join(cmd)} printed no result")
    r["proc"] = {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "minflt": ru.ru_minflt,
        "majflt": ru.ru_majflt,
        "nivcsw": ru.ru_nivcsw,
        "nvcsw": ru.ru_nvcsw,
        "steal_ticks": steal_ticks() - steal0,
    }
    return r


# --- checks ------------------------------------------------------------

class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok


def sim_block(r):
    """Everything that must repeat exactly for a fixed seed."""
    return {"sim": r["sim"], "executed": r["events"]["executed"],
            "scheduled": r["events"]["scheduled"], "digest": r["digest"]}


def check_repeats(reps, checks, label):
    first = sim_block(reps[0])
    for i, r in enumerate(reps[1:], 1):
        checks.expect(sim_block(r) == first,
                      f"{label}: repeat {i} differs from repeat 0 "
                      f"(digest {r['digest']} vs {first['digest']})")


def check_outcome(workload, r, checks):
    s, win, total = r["sim"], r["window"], r["total"]
    checks.expect(
        s["inflight_start"] + s["issued"] ==
        s["completed"] + s["timeouts"] + s["inflight_end"],
        f"request conservation: {s['inflight_start']} in flight + "
        f"{s['issued']} issued != {s['completed']} completed + "
        f"{s['timeouts']} timed out + {s['inflight_end']} in flight")
    checks.expect(s["timeouts"] == 0 and s["shed"] == 0
                  and s["stranded"] == 0,
                  f"failed requests: {s['timeouts']} timeouts, "
                  f"{s['shed']} shed, {s['stranded']} stranded")
    checks.expect(s["samples"] == s["completed"],
                  f"recorded {s['samples']} latencies for "
                  f"{s['completed']} completions")
    checks.expect(s["beyond_p9999"] >= 10,
                  f"only {s['beyond_p9999']} samples beyond p99.99")
    if workload == "ib_kv_overcommit":
        checks.expect(win.get("mem.mm.major_faults", 0) > 0,
                      "ib_kv_overcommit: no major faults in the window")
        checks.expect(win.get("ib.qp.send_npfs", 0) > 0,
                      "ib_kv_overcommit: no send NPFs in the window")
    elif workload == "ib_kv_incast":
        congestion = (win.get("net.switch.pause_tx", 0) +
                      win.get("net.switch.ecn_marked", 0))
        checks.expect(congestion > 0,
                      "ib_kv_incast: no PFC pauses or ECN marks in the "
                      "window")
        checks.expect(win.get("core.npf.npfs", 0) == 0,
                      "ib_kv_incast: NPFs in the window")
    elif workload == "eth_memcached":
        checks.expect(total.get("eth.backup.parked", 0) > 0,
                      "eth_memcached: no backup-ring parks")
    elif workload == "sharded_kv":
        checks.expect(all(e > 0 for e in r["events"]["per_shard"]),
                      "sharded_kv: a shard executed no events")


# --- manifest --------------------------------------------------------------

def source_digest():
    """sha256 over the sources the binary is built from."""
    h = hashlib.sha256()
    files = []
    for pattern in ("src/**/*.cc", "src/**/*.hh", "src/**/CMakeLists.txt",
                    "perfbench/*"):
        files += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    for path in sorted(set(files)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(args, first):
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": first["build_type"],
        "compiler": first["compiler"],
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "argv": sys.argv,
        "workload": args.workload,
        "seed": args.seed,
    }


# --- metrics ---------------------------------------------------------------

def requests(s):
    """(attempted, failed) requests of one repeat's measure window."""
    return (s["inflight_start"] + s["issued"] + s["shed"],
            s["timeouts"] + s["shed"] + s["stranded"])


def end_to_end(reps):
    s = reps[0]["sim"]
    attempted, failed = requests(s)
    proc = [r["proc"] for r in reps]
    return {
        "wall_s": (median([p["wall_s"] for p in proc]), "s"),
        "setup_s": (median([r["setup_s"] for r in reps]), "s"),
        "run_s": (median([r["run_s"] for r in reps]), "s"),
        "cpu_s": (median([p["cpu_s"] for p in proc]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in proc]), "MB"),
        "sim_ops_per_s": (s["completed"] / s["window_s"], "1/s"),
        "sim_mean_us": (s["mean_us"], "us"),
        "sim_p99_us": (s["p99_us"], "us"),
        "sim_p9999_us": (s["p9999_us"], "us"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(reps, traced, one_shard):
    r0 = reps[0]
    win, total = r0["window"], r0["total"]
    s, ev = r0["sim"], r0["events"]
    run_s = median([r["run_s"] for r in reps])

    def setup(layer):
        return median([r["setup"].get(layer, 0.0) for r in reps])

    def incl(layer):
        return traced["run_incl"].get(layer, 0.0)

    def w(name):
        return win.get(name, 0)

    hits, misses = w("iommu.mmu.tlb_hits"), w("iommu.mmu.tlb_misses")
    shard_events = ev["per_shard"] + [0] * (2 - len(ev["per_shard"]))
    if one_shard:
        speedup = median([r["run_s"] for r in one_shard]) / run_s
    else:
        speedup = 1.0  # the workload runs on one shard
    cpu_over_wall = median([r["proc"]["cpu_s"] / r["proc"]["wall_s"]
                            for r in reps])
    return {
        "sim.events": (ev["executed"], "count"),
        "sim.scheduled": (ev["scheduled"], "count"),
        "sim.cancelled": (ev["cancelled"], "count"),
        "sim.host_ns_per_event": (run_s * 1e9 / ev["executed"], "ns"),
        "shard.events.0": (shard_events[0], "count"),
        "shard.events.1": (shard_events[1], "count"),
        "shard.speedup_vs_1": (speedup, "ratio"),
        "shard.cpu_over_wall": (cpu_over_wall, "ratio"),
        "mem.setup_s": (setup("mem"), "s"),
        "mem.major_faults": (w("mem.mm.major_faults"), "count"),
        "mem.minor_faults": (w("mem.mm.minor_faults"), "count"),
        "mem.evictions": (w("mem.mm.evictions"), "count"),
        "mem.swap_ins": (w("mem.mm.swap_ins"), "count"),
        "mem.swap_outs": (w("mem.mm.swap_outs"), "count"),
        "iommu.translations": (w("iommu.mmu.translations"), "count"),
        "iommu.tlb_lookups": (hits + misses, "count"),
        "iommu.tlb_hit_ratio": (hits / (hits + misses)
                                if hits + misses else 0.0, "ratio"),
        "iommu.tlb_invalidations": (w("iommu.mmu.tlb_invalidations"),
                                    "count"),
        "core.setup_s": (setup("core"), "s"),
        "core.npfs": (w("core.npf.npfs"), "count"),
        "core.major_faults": (w("core.npf.major_faults"), "count"),
        "core.merged_npfs": (w("core.npf.merged_npfs"), "count"),
        "core.run_incl_s": (incl("core"), "s"),
        "eth.backup_parks": (total.get("eth.backup.parked", 0), "count"),
        "eth.run_incl_s": (incl("eth"), "s"),
        "tcp.setup_s": (setup("tcp"), "s"),
        "tcp.retransmits": (w("tcp.conn.retransmissions"), "count"),
        "tcp.rtos": (w("tcp.conn.timeouts"), "count"),
        "tcp.run_incl_s": (incl("tcp"), "s"),
        "ib.setup_s": (setup("ib"), "s"),
        "ib.data_packets_sent": (w("ib.qp.data_packets_sent"), "count"),
        "ib.retransmitted": (w("ib.qp.retransmitted"), "count"),
        "ib.rnr_nacks_sent": (w("ib.qp.rnr_nacks_sent"), "count"),
        "ib.send_npfs": (w("ib.qp.send_npfs"), "count"),
        "ib.run_incl_s": (incl("ib"), "s"),
        "net.setup_s": (setup("net"), "s"),
        "net.link_packets": (w("net.link.packets"), "count"),
        "net.switch_rx_packets": (w("net.switch.rx_packets"), "count"),
        "net.pfc_pauses": (w("net.switch.pause_tx"), "count"),
        "net.ecn_marks": (w("net.switch.ecn_marked"), "count"),
        "net.queue_hwm_bytes": (total.get("net.switch.queue_hwm_bytes", 0),
                                "bytes"),
        "net.run_incl_s": (incl("net"), "s"),
        "load.setup_s": (setup("load"), "s"),
        "load.issued": (s["issued"], "count"),
        "load.completions": (s["completed"], "count"),
        "load.shed": (s["shed"], "count"),
        "load.timeouts": (s["timeouts"], "count"),
        "load.run_incl_s": (incl("load"), "s"),
        "app.setup_s": (setup("app"), "s"),
        "phase.teardown_s": (median([r["teardown_s"] for r in reps]), "s"),
        "unlabeled.run_incl_s": (incl("unlabeled"), "s"),
        "obs.trace_overhead": (traced["run_s"] / run_s, "ratio"),
    }


def print_table(title, metrics, notes=None):
    log(f"-- {title} --")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        log(f"  {name:26s} {value:>18.6g} {unit}{note}")


def print_repeats(reps):
    log("  repeat  wall_s   setup_s  run_s    cpu_s   rss_mb  "
        "steal  nivcsw  minflt")
    for i, r in enumerate(reps):
        p = r["proc"]
        log(f"  {i:6d}  {p['wall_s']:.3f}   {r['setup_s']:.3f}    "
            f"{r['run_s']:.3f}   {p['cpu_s']:.3f}   "
            f"{p['peak_rss_mb']:6.0f}  {p['steal_ticks']:5d}  "
            f"{p['nivcsw']:6d}  {p['minflt']:7d}")


# --- main --------------------------------------------------------------------

def validate_trace(path, checks):
    res = subprocess.run([sys.executable,
                          os.path.join(ROOT, "scripts", "validate_trace.py"),
                          path], stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    log("  " + res.stdout.strip())
    checks.expect(res.returncode == 0, f"trace {path} does not validate")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    checks = Checks()
    t_start = time.perf_counter()
    until = t_start + args.seconds
    label = f"{args.workload} seed {args.seed}"

    if args.trace == 0:
        reps = []
        while len(reps) < MAX_REPEATS and (
                len(reps) < MIN_REPEATS or time.perf_counter() < until):
            reps.append(repeat(binary, args.workload, args.seed))
    else:
        # Untraced repeats for the counts and host-time baselines, the
        # 1-shard twin on sharded_kv, then one traced repeat.
        sharded = args.workload == "sharded_kv"
        share = until - args.seconds / 3
        reps, one_shard = [], []
        while True:
            reps.append(repeat(binary, args.workload, args.seed))
            if sharded:
                one_shard.append(repeat(binary, args.workload, args.seed,
                                        shards=1))
            if len(reps) >= 2 and time.perf_counter() >= share:
                break
        stem = os.path.join(OUT_DIR, f"{args.workload}.seed{args.seed}")
        traced = repeat(binary, args.workload, args.seed, trace_stem=stem)
        check_repeats(reps + [traced], checks, label + " (traced)")
        if sharded:
            check_repeats(one_shard, checks, label + " (1 shard)")
            a, b = one_shard[0], reps[0]
            checks.expect(
                a["digest"] == b["digest"] and
                a["events"]["executed"] == b["events"]["executed"],
                f"1-shard run differs from 2-shard run: digest "
                f"{a['digest']} vs {b['digest']}, events "
                f"{a['events']['executed']} vs {b['events']['executed']}")

    check_repeats(reps, checks, label)
    for r in reps:
        check_outcome(args.workload, r, checks)

    man = manifest(args, reps[0])
    log(f"== perfbench {args.workload} seed={args.seed} "
        f"trace={args.trace} repeats={len(reps)} ==")
    for k, v in man.items():
        log(f"  {k:14s} {v}")
    print_repeats(reps)
    steal = sum(r["proc"]["steal_ticks"] for r in reps)
    log(f"  noise: steal {steal} ticks, involuntary switches "
        f"{sum(r['proc']['nivcsw'] for r in reps)}, minor faults "
        f"{sum(r['proc']['minflt'] for r in reps)} over all repeats")

    s = reps[0]["sim"]
    if args.trace == 0:
        metrics = end_to_end(reps)
        notes = {
            "sim_mean_us": f"n={s['samples']}, p50 {s['p50_us']} us",
            "sim_p99_us": f"n={s['samples']}",
            "sim_p9999_us": f"n={s['samples']}, "
                            f"{s['beyond_p9999']} beyond",
            "success_ratio": f"base {s['inflight_start'] + s['issued']}"
                             f" requests",
        }
        print_table("end to end (host-time medians over "
                    f"{len(reps)} repeats; sim_* exact)", metrics, notes)
    else:
        host_trace = stem + ".host.json"
        with open(host_trace) as f:
            doc = json.load(f)
        doc["otherData"] = man
        with open(host_trace, "w") as f:
            json.dump(doc, f)
        validate_trace(host_trace, checks)
        flow_trace = stem + ".flow.json"
        if os.path.exists(flow_trace):
            validate_trace(flow_trace, checks)
        metrics = per_layer(reps, traced, one_shard)
        hits = metrics["iommu.tlb_lookups"][0]
        notes = {
            "iommu.tlb_hit_ratio": f"base {hits} lookups",
            "shard.speedup_vs_1": (
                f"base 1-shard run_s over {len(one_shard)} repeats"
                if one_shard else "single-shard workload"),
            "shard.cpu_over_wall": "base process wall_s",
            "obs.trace_overhead": "base untraced run_s",
            "sim.host_ns_per_event": f"base {reps[0]['events']['executed']}"
                                     " events",
        }
        print_table("per layer (counts over the measure window; "
                    "host times are medians, run_incl from the traced "
                    "repeat)", metrics, notes)

    for f in checks.failures:
        log(f"  CHECK FAILED: {f}")
    log(f"  checks: {'all passed' if not checks.failures else 'FAILED'}"
        f" ({time.perf_counter() - t_start:.1f} s)")

    attempted, failed = requests(s)
    result = {
        "correct": not checks.failures,
        "attempted": len(reps) * attempted,
        "failed": len(reps) * failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}.seed{args.seed}."
                           f"trace{args.trace}.json"), "w") as f:
        json.dump({"manifest": man, "checks": checks.failures,
                   "repeats": reps, "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
