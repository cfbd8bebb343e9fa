"""Workloads of the campaign benchmark and their seeded plans.

A plan fixes what one benchmark run submits: the runs, how they are
grouped into campaigns, their submission order and, for serve-mixed,
which runs are in the daemon's cache before it starts. In-process
workloads get a different order for each pass, so a run's medians
average over orders instead of resting on one. The seed
permutes order, composition and the precached set; it cannot change
the synthetic instruction streams, which the simulator derives from
the benchmark name alone.
"""

import random

# specAllNames() order: INT first, then FP.
BENCHMARKS = [
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk",
    "gap", "vortex", "bzip2", "twolf",
    "wupwise", "swim", "mgrid", "applu", "mesa", "galgel", "art",
    "equake", "facerec", "ammp", "lucas", "fma3d", "sixtrack", "apsi",
]

SCHEMES = ["baseline", "dmdc-global"]

WORKLOADS = ["fig4-cold", "suite-long", "serve-mixed"]

# Bench-binary default lengths (bench/bench_common.hh).
FIG4_WARMUP, FIG4_INSTS = 30000, 200000
# Long enough for steady state on config 3's windows; short enough for
# several passes per run.
LONG_WARMUP, LONG_INSTS = 50000, 500000
# Short runs, so the daemon's platform layers dominate.
SHORT_WARMUP, SHORT_INSTS = 2000, 10000
SERVE_SHARED_RUNS = (3, 7)
# Distinct orders per in-process run; pass i uses order i mod this.
PASS_ORDERS = 16


def run(benchmark, config, scheme, warmup, insts):
    return {"benchmark": benchmark, "config": config, "scheme": scheme,
            "warmup": warmup, "insts": insts}


def fig4_grid():
    """The Fig. 4 grid as six campaigns, one per (config, scheme), as
    the fig4_dmdc_main binary submits it."""
    return [[run(b, c, s, FIG4_WARMUP, FIG4_INSTS) for b in BENCHMARKS]
            for c in (1, 2, 3) for s in SCHEMES]


def serve_pool():
    """One unique short run per benchmark; configs and schemes rotate
    so every (config, scheme) pair appears."""
    return [run(b, 1 + i % 3, SCHEMES[i % 2], SHORT_WARMUP, SHORT_INSTS)
            for i, b in enumerate(BENCHMARKS)]


def make_plan(workload, seed, jobs):
    """The plan of one run of @p workload; the same seed gives the
    same plan."""
    rng = random.Random(f"{workload}/{seed}")
    plan = {"workload": workload, "seed": seed, "jobs": jobs,
            "serve": workload == "serve-mixed"}
    if workload in ("fig4-cold", "suite-long"):
        passes = []
        for _ in range(PASS_ORDERS):
            campaigns = fig4_grid() if workload == "fig4-cold" else [
                [run(b, 3, "dmdc-global", LONG_WARMUP, LONG_INSTS)
                 for b in BENCHMARKS]]
            rng.shuffle(campaigns)
            for c in campaigns:
                rng.shuffle(c)
            passes.append(campaigns)
    elif workload == "serve-mixed":
        # One campaign per fresh run: each campaign waits for exactly
        # one simulation plus cache reads and dedup hits on shared
        # precached runs, so campaign latencies are alike.
        pool = serve_pool()
        rng.shuffle(pool)
        half = len(pool) // 2
        plan["pool"] = pool
        plan["precached"] = pool[:half]
        campaigns = []
        for fresh in pool[half:]:
            c = [fresh] + rng.sample(pool[:half],
                                     rng.randint(*SERVE_SHARED_RUNS))
            rng.shuffle(c)
            campaigns.append(c)
        passes = [campaigns]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan["passes"] = passes
    return plan


def record_plan(jobs):
    """Every unique run of every workload, for recording digests."""
    runs = [r for c in fig4_grid() for r in c]
    runs += make_plan("suite-long", 0, jobs)["passes"][0][0]
    runs += serve_pool()
    return {"workload": "record", "seed": 0, "jobs": jobs, "serve": False,
            "passes": [[runs]]}
