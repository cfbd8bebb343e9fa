#!/usr/bin/env python3
"""Campaign benchmark of the DMDC simulator.

    python3 campaign_bench/run.py --workload fig4-cold --seed 1 \
        --seconds 35 --trace 0

Builds the simulator and the benchmark driver from the sources of this
checkout, runs one workload (see README.md), checks every result, and
prints a report whose last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.

    python3 campaign_bench/run.py --compare A.json B.json
    python3 campaign_bench/run.py --record-expected

--compare diffs two saved results (refused when their host
fingerprints differ); --record-expected rewrites expected.json, the
digests of every run's simulated results.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import plan as plans  # noqa: E402
import stats  # noqa: E402

BUILD_DIR = ".bench_build/campaign"
WORK_DIR = ".bench_build/work"
RESULT_DIR = ".bench_build/results"
EXPECTED = os.path.relpath(os.path.join(HERE, "expected.json"), ROOT)
DRIVER = os.path.join(BUILD_DIR, "campaign_driver")
SERVE_BIN = os.path.join(BUILD_DIR, "dmdc_serve")
BUILD_TYPE = "Release"
SETUP_PROBES = 21
DRIVER_TIMEOUT_S = 170

# Each of these changes the program being measured.
REFUSED_ENV = ["DMDC_NO_FSYNC", "DMDC_FAULT", "DMDC_TRACE",
               "DMDC_DEBUG_VIOLATIONS"]

# Fig. 4 of the paper, for the dmdc_* figures of fig4-cold.
PAPER_FIG4 = {
    "dmdc_lq_energy_savings_pct": "paper: 95-97% (rising with config)",
    "dmdc_slowdown_pct": "paper: ~0.3% average, worst 1.3% INT / 3.5% FP",
    "dmdc_total_energy_savings_pct": "paper: 3-8%",
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
# (name, unit) of every metric, in BENCHMARK.json order.
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def jobs():
    return len(os.sched_getaffinity(0))


# ---- build and fingerprint -------------------------------------------


def build():
    """Configure and build; stdout stays clean for the report."""
    cmds = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B",
                     BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    cmds.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs()),
                 "--target", "campaign_driver", "dmdc_serve"])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("build failed: " + " ".join(cmd))


def cmake_cache(key):
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def fingerprint():
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    flags = " ".join(filter(None, [
        cmake_cache("CMAKE_CXX_FLAGS"),
        cmake_cache(f"CMAKE_CXX_FLAGS_{BUILD_TYPE.upper()}"),
        "-Wall -Wextra"]))
    return {"cpu": cpu, "nproc": jobs(),
            "compiler": version[0] if version else compiler,
            "flags": flags, "build_type": BUILD_TYPE,
            "commit": source_commit()}


# ---- running the driver ----------------------------------------------


def write_plan(workload, seed):
    p = plans.make_plan(workload, seed, jobs())
    work = os.path.join(WORK_DIR, workload)
    p.update({"work_dir": work, "expected": EXPECTED,
              "serve_bin": SERVE_BIN})
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, "plan.json")
    with open(path, "w") as f:
        json.dump(p, f)
    return p, path


def setup_probes(plan_path):
    """Process start until the runner would accept its first run,
    without the driver's own plan reading, in several fresh
    processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        out = subprocess.run([DRIVER, "setup", plan_path],
                             capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S, check=True)
        accepted_ns, plan_ns = map(int, out.stdout.split())
        times.append((accepted_ns - t0 - plan_ns) / 1e9)
    return times


def run_driver(plan_path, pass_index, seconds, trace):
    out = plan_path.replace("plan.json", f"samples{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    log_path = plan_path.replace("plan.json", "driver.log")
    with open(log_path, "w") as log_file:
        # Own process group, so a timeout also stops the daemons the
        # driver started.
        proc = subprocess.Popen(
            [DRIVER, "run", plan_path, str(pass_index), str(seconds),
             str(trace), out],
            stdout=log_file, stderr=log_file, start_new_session=True)
        try:
            rc = proc.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit(f"driver timed out after {DRIVER_TIMEOUT_S} s")
    if rc != 0 or not os.path.exists(out):
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        raise SystemExit(f"driver failed (exit {rc})")
    with open(out) as f:
        return json.load(f)


def run_passes(p, plan_path, seconds, trace):
    """Run the workload: serve-mixed and traced runs in one driver
    process; untraced in-process workloads one process per pass, while
    the next pass fits in the time budget."""
    if p["serve"] or trace:
        return run_driver(plan_path, 0, seconds, trace)
    start = time.monotonic()
    merged = None
    while True:
        s = run_driver(plan_path, 0 if merged is None else
                       len(merged["samples"]["passes"]), seconds, trace)
        s["samples"]["peak_rss_mb"] = [s["samples"]["peak_rss_mb"]]
        if merged is None:
            merged = s
        else:
            merged["attempted"] += s["attempted"]
            merged["failed"] += s["failed"]
            merged["failures"] += s["failures"]
            merged["samples"]["passes"] += s["samples"]["passes"]
            merged["samples"]["peak_rss_mb"] += s["samples"]["peak_rss_mb"]
        elapsed = time.monotonic() - start
        done = len(merged["samples"]["passes"])
        if elapsed + elapsed / done > seconds:
            return merged


# ---- metrics ----------------------------------------------------------


def end_to_end(samples, setup):
    """Per-pass figures of the measured phase (medians are taken by
    report()) plus every pooled sample."""
    passes = samples["passes"]
    serve = "fresh_insts" in samples
    if serve:
        pass_kips = [samples["fresh_insts"] / p["wall_s"] / 1000.0
                     for p in passes]
        setup = [p["setup_s"] for p in passes]
        rss = [p["daemon_rss_mb"] for p in passes]
        runs_ms = []
    else:
        pass_kips = [stats.kips(p["runs"], p["wall_s"]) for p in passes]
        rss = samples["peak_rss_mb"]
        runs_ms = [r["wall_ms"] for p in passes for r in p["runs"]
                   if not r["cached"]]
    return {
        "wall_s": [p["wall_s"] for p in passes],
        "kips": pass_kips,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "campaign_ms": [ms for p in passes for ms in p["campaign_ms"]],
        "run_ms": runs_ms,
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(samples):
    """Per-layer metrics of a traced run: ratios of the replica's
    deterministic counts and of the times taken around each call."""
    passes = samples["passes"]
    traced = samples["traced"]
    c = traced["counts"]
    inst, kinst = c["committed_total"], c["insts"] / 1000.0
    per_pass = lambda key, scale: stats.median(  # noqa: E731
        [t[key] / scale for t in traced["times"]])
    runs = c["runs"]
    serve = "fresh_insts" in samples
    m = {
        "trace.build_ms": per_pass("build_ns", runs * 1e6),
        "trace.op_calls_per_inst": c["op_calls"] / inst,
        "trace.wrong_path_ops_per_inst": c["wrong_path_ops"] / inst,
        "trace.gen_ns_per_inst": per_pass("gen_ns", inst),
        "core.tick_ns_per_inst": per_pass("tick_self_ns", inst),
        "core.ticks_per_inst": c["ticks"] / inst,
        "core.skip_frac": c["skipped_cycles"] / c["cycles_total"],
        "core.skip_ns_per_inst": per_pass("skip_ns", inst),
        "core.dispatched_per_inst": c["dispatched"] / inst,
        "core.issued_per_inst": c["issued"] / inst,
        "core.squash_frac": 1.0 - ratio(inst, c["dispatched"]),
        "branch.mispredicts_per_kinst": c["mispredicts"] / kinst,
        "lsq.lq_searches_per_kinst": c["lq_searches"] / kinst,
        "lsq.lq_filtered_frac": ratio(
            c["lq_searches_filtered"],
            c["lq_searches"] + c["lq_searches_filtered"]),
        "lsq.sq_searches_per_kinst": c["sq_searches"] / kinst,
        "lsq.replays_per_kinst": c["replays"] / kinst,
        "lsq.false_replay_frac": ratio(c["false_replays"], c["replays"]),
        "lsq.load_rejections_per_kinst": c["load_rejections"] / kinst,
        "mem.l1d_accesses_per_inst": c["l1d_accesses"] / c["insts"],
        "mem.l1d_miss_frac": ratio(c["l1d_misses"], c["l1d_accesses"]),
        "mem.l2_miss_frac": ratio(c["l2_misses"], c["l2_accesses"]),
        "energy.compute_us_per_run": per_pass("energy_ns", runs * 1e3),
        "sim.simulator_ctor_ms": per_pass("simulator_ctor_ns", runs * 1e6),
        "sim.cache.open_ms": stats.median([p["open_ms"] for p in passes]),
        "sim.cache.load_us": stats.median(
            [u for p in passes for u in p["load_us"]]),
    }
    m["bench.traced_overhead_frac"] = samples["traced_overhead_frac"]
    if serve:
        last = passes[-1]
        m.update({
            "sim.runner.worker_idle_frac": 0.0,
            "sim.cache.store_us": stats.median(
                [u for p in passes for u in p["store_us"]]),
            "sim.cache.hit_frac": ratio(last["executed"] - last["simulated"],
                                        last["executed"]),
            "sim.journal.flush_ms": stats.median(samples["flush_ms"]),
            "sim.service.rtt_us": stats.median(
                [u for p in passes for u in p["rtt_us"]]),
            "sim.service.submit_ms": stats.median(
                [u for p in passes for u in p["submit_ms"]]),
            "sim.service.dedup_frac": ratio(last["dedup_hits"],
                                            last["submitted"]),
            "sim.service.simulated_per_unique": ratio(
                last["simulated"], samples["fresh_runs"]),
            "sim.service.ticket_log_bytes_per_run": stats.median(
                [ratio(p["ticket_log_bytes"], p["submitted"])
                 for p in passes]),
            "common.fsyncs_per_run": 0.0,
        })
    else:
        jobs_ = samples["jobs"]
        m.update({
            "sim.runner.worker_idle_frac": stats.median(
                [1.0 - p["run_wall_ms"] / (jobs_ * sum(p["campaign_ms"]))
                 for p in passes]),
            "sim.cache.store_us": 0.0,
            "sim.cache.hit_frac": ratio(
                sum(r["cached"] for p in passes for r in p["runs"]),
                sum(len(p["runs"]) for p in passes)),
            "sim.journal.flush_ms": 0.0,
            "sim.service.rtt_us": 0.0,
            "sim.service.submit_ms": 0.0,
            "sim.service.dedup_frac": 0.0,
            "sim.service.simulated_per_unique": 0.0,
            "sim.service.ticket_log_bytes_per_run": 0.0,
            "common.fsyncs_per_run": stats.median(
                [p["fsyncs"] / len(p["runs"]) for p in passes]),
        })
    return m


def describe(name, values, unit):
    q1, q2, q3 = stats.quartiles(values)
    return (f"  {name:<34} {q2:>14.6g} {unit:<11} median of "
            f"{len(values)}, quartiles [{q1:.6g}, {q3:.6g}], spread "
            f"{stats.spread(values):.1%}")


def report(workload, seed, trace, samples, setup, fp):
    """Print the human-readable report; return the metrics dict."""
    print(f"campaign benchmark: workload {workload}, seed {seed}, "
          f"trace {trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    attempted, failed = samples["attempted"], samples["failed"]
    print(f"  runs attempted {attempted}, failed {failed} "
          f"(failed_frac {ratio(failed, attempted):.4g})")
    for msg in samples["failures"]:
        print("  FAILED: " + msg)
    if trace:
        metrics = per_layer(samples)
        for name, unit in PER_LAYER:
            print(f"  {name:<38} {metrics[name]:>14.6g} {unit}")
        return {name: {"value": metrics[name], "unit": unit}
                for name, unit in PER_LAYER}

    e2e = end_to_end(samples, setup)
    for name, unit in [("wall_s", "s"), ("kips", "kinst/s"),
                       ("setup_s", "s"), ("peak_rss_mb", "MB")]:
        print(describe(name, e2e[name], unit))
    for label, key in (("campaign", "campaign_ms"), ("run", "run_ms")):
        values = e2e[key]
        if not values:
            print(f"  {label}_p50_ms: not measured on this workload")
            continue
        print(describe(f"{label}_p50_ms", values, "ms"))
        p90 = stats.tail_percentile(values, 90)
        print(f"  {label}_p90_ms" + (
            f"{'':<26} {p90:>14.6g} ms          of {len(values)} samples"
            if p90 is not None else
            f": not reported, fewer than 10 of {len(values)} samples "
            "lie beyond it"))
    fig4 = samples.get("fig4")
    if fig4:
        print(f"  simulated, over {fig4['pairs']} (benchmark, config) "
              "pairs; an unvalidated synthetic stand-in for SPEC, so no "
              "error figure:")
        for name, ref in PAPER_FIG4.items():
            print(f"  {name:<38} {fig4[name]:>10.4f} %   ({ref})")
    medians = {name: stats.median(e2e[key]) for name, key in (
        ("wall_s", "wall_s"), ("kips", "kips"), ("setup_s", "setup_s"),
        ("peak_rss_mb", "peak_rss_mb"), ("campaign_p50_ms", "campaign_ms"))}
    return {name: {"value": medians[name], "unit": unit}
            for name, unit in END_TO_END}


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["fingerprint"] != b["fingerprint"]:
        print("incomparable: host fingerprints differ")
        for k in sorted(set(a["fingerprint"]) | set(b["fingerprint"])):
            if a["fingerprint"].get(k) != b["fingerprint"].get(k):
                print(f"  {k}: {a['fingerprint'].get(k)!r} vs "
                      f"{b['fingerprint'].get(k)!r}")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("incomparable: different workload or trace mode")
        return 3
    for name in a["metrics"]:
        va = a["metrics"][name]["value"]
        vb = b["metrics"].get(name, {}).get("value")
        change = f"{(vb - va) / va:+.2%}" if vb is not None and va else ""
        print(f"  {name:<38} {va:>14.6g} {vb!s:>14} {change}")
    return 0


def record_expected():
    build()
    p = plans.record_plan(jobs())
    p.update({"work_dir": WORK_DIR, "expected": EXPECTED})
    path = os.path.join(WORK_DIR, "record_plan.json")
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(path, "w") as f:
        json.dump(p, f)
    subprocess.run([DRIVER, "record", path, EXPECTED], check=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=plans.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    refused = [v for v in REFUSED_ENV if os.environ.get(v) is not None]
    if refused:
        log("refusing to run: " + ", ".join(refused) + " set; each "
            "changes the program being measured")
        return 2
    os.chdir(ROOT)
    if args.compare:
        return compare(*args.compare)
    if args.record_expected:
        return record_expected()
    if not args.workload:
        ap.error("--workload is required")

    build()
    fp = fingerprint()
    p, plan_path = write_plan(args.workload, args.seed)
    setup = [] if p["serve"] else setup_probes(plan_path)
    samples = run_passes(p, plan_path, args.seconds, args.trace)
    metrics = report(args.workload, args.seed, args.trace, samples["samples"]
                     | {k: samples[k] for k in
                        ("attempted", "failed", "failures")}, setup, fp)
    result = {"correct": samples["failed"] == 0 and not samples["failures"],
              "attempted": samples["attempted"],
              "failed": samples["failed"], "metrics": metrics}
    os.makedirs(RESULT_DIR, exist_ok=True)
    with open(os.path.join(RESULT_DIR, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(result | {"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "fingerprint": fp}, f,
                  indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
