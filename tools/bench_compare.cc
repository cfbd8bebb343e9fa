/**
 * @file
 * Compares two bench journals (the JSON files the campaign engine
 * writes via --json= / setCampaignJournal) and fails when the newer
 * one regresses.
 *
 * Records are matched by (benchmark, scheme, config). IPC is
 * deterministic, so any drop beyond a small relative threshold is a
 * real simulator change; wall-clock is noisy, so the default
 * threshold is generous and we take the fastest non-cached
 * measurement per key (cached replays report 0 ms and are skipped).
 *
 * Journals from degraded campaigns are handled, not trusted: records
 * whose status is not "ok" (the failure manifest) and records without
 * a numeric IPC are reported and excluded from the comparison instead
 * of crashing it or silently passing. Two
 * journals with no comparable key in common are "incomparable".
 *
 * Journals are read with the strict common/json parser, the same one
 * journal_merge uses: a journal that is not valid JSON (a torn file,
 * or a non-finite "nan"/"inf" number) is malformed as a whole.
 *
 * Exit codes: 0 no regressions, 1 regression found, 2 usage or
 * parse error, 3 incomparable (no overlapping comparable records).
 * CI runs this as an advisory step (continue-on-error), so a red
 * result annotates the PR without blocking it.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/cli_options.hh"

using namespace dmdc;

namespace
{

// ---- journal model ---------------------------------------------------

struct BenchPoint
{
    double ipc = 0.0;
    double wallMs = -1.0;   ///< fastest non-cached run; <0 if none
    double simKhz = -1.0;   ///< best non-cached sim-kHz; <0 if none
};

struct Journal
{
    std::string commit = "unknown";
    std::string generated = "unknown";
    // key: "benchmark|scheme|config"
    std::map<std::string, BenchPoint> points;
    std::size_t notOk = 0;      ///< failure-manifest records excluded
    std::size_t unusable = 0;   ///< records without a numeric IPC
};

bool
parseJournal(const std::string &text, Journal &out, std::string &err)
{
    JsonValue root;
    if (!parseJson(text, root, err)) {
        err = "malformed JSON: " + err;
        return false;
    }
    fieldString(root, "commit", out.commit);
    fieldString(root, "generated_utc", out.generated);
    const JsonValue *results = root.find("results");
    if (!results || results->kind != JsonValue::Kind::Array) {
        err = "no \"results\" array";
        return false;
    }
    for (const JsonValue &rec : results->items) {
        std::string bench, scheme, status;
        unsigned config = 0;
        if (!fieldString(rec, "benchmark", bench) ||
            !fieldString(rec, "scheme", scheme) ||
            !fieldUnsigned(rec, "config", config)) {
            err = "result record missing benchmark/scheme/config";
            return false;
        }
        // Failure-manifest records (degraded campaigns) carry no
        // metrics; exclude them rather than comparing zeros.
        if (rec.find("status") &&
            (!fieldString(rec, "status", status) || status != "ok")) {
            ++out.notOk;
            continue;
        }
        double ipc = 0.0;
        if (!fieldDouble(rec, "ipc", ipc)) {
            ++out.unusable;
            continue;
        }
        BenchPoint &p = out.points[bench + '|' + scheme + '|' +
                                   std::to_string(config)];
        p.ipc = ipc;   // deterministic; any record will do
        bool cached = false;
        fieldBool(rec, "cached", cached);
        double wall = 0.0;
        const bool have_wall = fieldDouble(rec, "wall_ms", wall);
        if (have_wall && !cached && (p.wallMs < 0.0 || wall < p.wallMs))
            p.wallMs = wall;
        // Simulation throughput: prefer the recorded sim_khz; derive
        // it from cycles/wall_ms for journals predating the field.
        double khz = -1.0, sim_khz = 0.0, cycles = 0.0;
        if (fieldDouble(rec, "sim_khz", sim_khz) && sim_khz > 0.0)
            khz = sim_khz;
        else if (!cached && have_wall && wall > 0.0 &&
                 fieldDouble(rec, "cycles", cycles) && cycles > 0.0)
            khz = cycles / wall;
        if (khz > p.simKhz)
            p.simKhz = khz;
    }
    return true;
}

bool
loadJournal(const std::string &path, Journal &out)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench_compare: cannot read '%s'\n",
                     path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string err;
    if (!parseJournal(buf.str(), out, err)) {
        std::fprintf(stderr, "bench_compare: '%s': %s\n",
                     path.c_str(), err.c_str());
        return false;
    }
    return true;
}

// ---- comparison ------------------------------------------------------

struct CompareOptions
{
    double maxIpcDrop = 0.02;       ///< relative, e.g. 0.02 = -2%
    double maxWallIncrease = 0.50;  ///< relative, e.g. 0.50 = +50%
    /**
     * Advisory sim-kHz drop threshold (relative, e.g. 0.25 = -25%).
     * Throughput deltas are always reported; when this is set, drops
     * beyond it are flagged in the output — but they never change the
     * exit code (sim-kHz is machine- and load-dependent).
     */
    double perfThreshold = -1.0;    ///< disabled when < 0
};

/**
 * Returns the number of regressions (0 = clean); @p compared reports
 * how many keys both journals could actually be diffed on.
 */
int
compareJournals(const Journal &base, const Journal &cur,
                const CompareOptions &opt, bool verbose,
                std::size_t &compared)
{
    int regressions = 0;
    compared = 0;
    std::printf("baseline: commit %s (%s)\n", base.commit.c_str(),
                base.generated.c_str());
    std::printf("current:  commit %s (%s)\n", cur.commit.c_str(),
                cur.generated.c_str());
    if (base.notOk + base.unusable + cur.notOk + cur.unusable) {
        std::printf("excluded records: baseline %zu failed + %zu "
                    "without metrics, current %zu failed + %zu "
                    "without metrics\n",
                    base.notOk, base.unusable, cur.notOk,
                    cur.unusable);
    }
    std::size_t perf_flags = 0;
    std::printf("\n%-34s %10s %10s %9s %9s %9s\n",
                "benchmark|scheme|cfg", "base ipc", "cur ipc",
                "d(ipc)", "d(wall)", "d(khz)");
    for (const auto &[key, b] : base.points) {
        auto it = cur.points.find(key);
        if (it == cur.points.end()) {
            std::printf("%-34s  missing from current journal\n",
                        key.c_str());
            continue;
        }
        const BenchPoint &c = it->second;
        ++compared;
        const double ipc_delta =
            b.ipc > 0.0 ? (c.ipc - b.ipc) / b.ipc : 0.0;
        const bool have_wall = b.wallMs > 0.0 && c.wallMs > 0.0;
        const double wall_delta =
            have_wall ? (c.wallMs - b.wallMs) / b.wallMs : 0.0;

        const bool have_khz = b.simKhz > 0.0 && c.simKhz > 0.0;
        const double khz_delta =
            have_khz ? (c.simKhz - b.simKhz) / b.simKhz : 0.0;

        const bool ipc_bad = ipc_delta < -opt.maxIpcDrop;
        const bool wall_bad = have_wall &&
            wall_delta > opt.maxWallIncrease;
        if (ipc_bad || wall_bad)
            ++regressions;
        // Advisory only: throughput is machine-dependent, so a flag
        // here annotates the report without failing the comparison.
        const bool khz_slow = opt.perfThreshold >= 0.0 && have_khz &&
            khz_delta < -opt.perfThreshold;
        if (khz_slow)
            ++perf_flags;

        char wall_text[32];
        if (have_wall)
            std::snprintf(wall_text, sizeof(wall_text), "%+8.1f%%",
                          100.0 * wall_delta);
        else
            std::snprintf(wall_text, sizeof(wall_text), "%9s", "-");
        char khz_text[32];
        if (have_khz)
            std::snprintf(khz_text, sizeof(khz_text), "%+8.1f%%",
                          100.0 * khz_delta);
        else
            std::snprintf(khz_text, sizeof(khz_text), "%9s", "-");
        std::printf("%-34s %10.4f %10.4f %+8.2f%% %s %s%s\n",
                    key.c_str(), b.ipc, c.ipc, 100.0 * ipc_delta,
                    wall_text, khz_text,
                    ipc_bad ? "  << IPC REGRESSION"
                            : (wall_bad ? "  << WALL REGRESSION"
                               : (khz_slow ? "  << slow (advisory)"
                                           : "")));
    }
    for (const auto &[key, c] : cur.points) {
        (void)c;
        if (!base.points.count(key) && verbose)
            std::printf("%-34s  new (not in baseline)\n",
                        key.c_str());
    }
    if (!compared)
        std::printf("\nincomparable: the journals share no "
                    "comparable record\n");
    else if (regressions)
        std::printf("\n%d regression(s) beyond thresholds "
                    "(ipc drop > %.1f%%, wall increase > %.1f%%)\n",
                    regressions, 100.0 * opt.maxIpcDrop,
                    100.0 * opt.maxWallIncrease);
    else
        std::printf("\nno regressions beyond thresholds "
                    "(%zu record(s) compared)\n", compared);
    if (perf_flags)
        std::printf("advisory: %zu record(s) lost more than %.1f%% "
                    "sim-kHz (does not affect the exit code)\n",
                    perf_flags, 100.0 * opt.perfThreshold);
    return regressions;
}

// ---- self test -------------------------------------------------------

/**
 * Built-in check used by ctest: exercises the parser and the
 * regression verdicts without needing journal files on disk.
 */
int
selfTest()
{
    const std::string base_text =
        "{\"version\":2,\"commit\":\"aaaa\",\"generated_utc\":"
        "\"2026-01-01T00:00:00Z\",\"results\":[\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"baseline\","
        "\"config\":2,\"ipc\":0.664,\"cycles\":90253,"
        "\"wall_ms\":120.0,\"sim_khz\":752.1,\"cached\":false},\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"dmdc-global\","
        "\"config\":2,\"ipc\":0.665,\"cycles\":90171,"
        "\"wall_ms\":0.0,\"sim_khz\":0.0,\"cached\":true}\n]}\n";

    auto variant = [&](double ipc, double wall, double khz = -1.0) {
        std::ostringstream os;
        os << "{\"version\":2,\"commit\":\"bbbb\",\"generated_utc\":"
              "\"2026-01-02T00:00:00Z\",\"results\":["
              "{\"benchmark\":\"gzip\",\"scheme\":\"baseline\","
              "\"config\":2,\"ipc\":"
           << ipc << ",\"cycles\":90253,\"wall_ms\":" << wall;
        if (khz >= 0.0)
            os << ",\"sim_khz\":" << khz;
        os << ",\"cached\":false},"
              "{\"benchmark\":\"gzip\",\"scheme\":\"dmdc-global\","
              "\"config\":2,\"ipc\":0.665,\"cycles\":90171,"
              "\"wall_ms\":0.0,\"cached\":true}]}";
        return os.str();
    };

    int failures = 0;
    auto expect = [&failures](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest FAILED: %s\n", what);
            ++failures;
        }
    };

    Journal base;
    std::string err;
    expect(parseJournal(base_text, base, err), "parse baseline");
    expect(base.commit == "aaaa", "commit field");
    expect(base.points.size() == 2, "two keys");
    expect(base.points.count("gzip|baseline|2") == 1, "key format");
    // Cached record must not contribute a wall-clock measurement.
    expect(base.points["gzip|dmdc-global|2"].wallMs < 0.0,
           "cached wall skipped");
    expect(base.points["gzip|baseline|2"].simKhz == 752.1,
           "recorded sim_khz wins");
    expect(base.points["gzip|dmdc-global|2"].simKhz < 0.0,
           "cached zero sim_khz skipped");

    const CompareOptions opt;
    std::size_t compared = 0;
    Journal same, slow, worse;
    expect(parseJournal(variant(0.664, 121.0), same, err),
           "parse identical");
    expect(parseJournal(variant(0.664, 400.0), slow, err),
           "parse slow");
    expect(parseJournal(variant(0.600, 121.0), worse, err),
           "parse worse");
    expect(compareJournals(base, same, opt, false, compared) == 0,
           "identical journals are clean");
    expect(compared == 2, "both keys compared");
    expect(compareJournals(base, slow, opt, false, compared) == 1,
           "wall-clock blowup is a regression");
    expect(compareJournals(base, worse, opt, false, compared) == 1,
           "ipc drop is a regression");

    // sim-kHz is derived from cycles/wall_ms when the field is
    // missing, and a drop past --perf-threshold is advisory: flagged
    // in the report, never counted as a regression.
    Journal derived;
    expect(parseJournal(variant(0.664, 130.0), derived, err),
           "parse khz-less journal");
    const double want_khz = 90253.0 / 130.0;
    const double got_khz = derived.points["gzip|baseline|2"].simKhz;
    expect(std::fabs(got_khz - want_khz) < 1e-9,
           "sim_khz derived from cycles/wall_ms");
    CompareOptions perf_opt;
    perf_opt.maxWallIncrease = 100.0;   // isolate the advisory path
    perf_opt.perfThreshold = 0.25;
    Journal crawl;
    expect(parseJournal(variant(0.664, 121.0, 100.0), crawl, err),
           "parse slow-khz journal");
    expect(compareJournals(base, crawl, perf_opt, false,
                           compared) == 0,
           "sim-khz drop past --perf-threshold stays advisory");

    Journal bad;
    expect(!parseJournal("{\"results\":42}", bad, err),
           "reject non-array results");
    expect(!parseJournal("not json", bad, err), "reject non-json");
    // No writer emits a non-finite IPC, so one is not JSON: the whole
    // journal is malformed (exit 2), as it is for journal_merge.
    expect(!parseJournal("{\"results\":[{\"benchmark\":\"vpr\","
                         "\"scheme\":\"yla\",\"config\":2,"
                         "\"ipc\":nan}]}", bad, err),
           "reject nan ipc");
    expect(!parseJournal("{\"results\":[{\"benchmark\":\"vpr\","
                         "\"scheme\":\"yla\",\"config\":-2}]}",
                         bad, err),
           "reject negative config");

    // Failure-manifest records and records without an IPC are
    // excluded, never compared as zeros.
    const std::string degraded_text =
        "{\"version\":3,\"commit\":\"cccc\",\"results\":[\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"baseline\","
        "\"config\":2,\"status\":\"failed\",\"category\":"
        "\"sim-invariant\",\"error\":\"injected fault: run-throw\","
        "\"attempts\":3,\"wall_ms\":1.0,\"cached\":false},\n"
        "  {\"benchmark\":\"gzip\",\"scheme\":\"dmdc-global\","
        "\"config\":2,\"status\":\"ok\",\"ipc\":0.665,"
        "\"cycles\":90171,\"wall_ms\":50.0,\"cached\":false},\n"
        "  {\"benchmark\":\"vpr\",\"scheme\":\"yla\",\"config\":2,"
        "\"status\":\"ok\",\"cycles\":1}\n]}\n";
    Journal degraded;
    expect(parseJournal(degraded_text, degraded, err),
           "parse degraded journal");
    expect(degraded.points.size() == 1, "only ok records kept");
    expect(degraded.notOk == 1, "failed record counted");
    expect(degraded.unusable == 1, "ipc-less record counted");
    expect(compareJournals(base, degraded, opt, false, compared) == 0,
           "degraded journal compares clean on the overlap");
    expect(compared == 1, "overlap is the single surviving key");

    // Disjoint run sets are incomparable, not silently passing.
    const std::string disjoint_text =
        "{\"version\":3,\"commit\":\"dddd\",\"results\":["
        "{\"benchmark\":\"mcf\",\"scheme\":\"baseline\",\"config\":1,"
        "\"status\":\"ok\",\"ipc\":0.3,\"cycles\":5}]}";
    Journal disjoint;
    expect(parseJournal(disjoint_text, disjoint, err),
           "parse disjoint journal");
    expect(compareJournals(base, disjoint, opt, false, compared) == 0,
           "disjoint journals report no regressions");
    expect(compared == 0, "disjoint journals are incomparable");

    std::printf("selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CompareOptions opt;
    bool verbose = false;
    bool run_selftest = false;
    std::vector<std::string> paths;

    CliParser cli(
        argv[0],
        "Diffs two bench journals produced by --json= and exits 1\n"
        "when the current one regresses IPC or wall clock beyond\n"
        "the thresholds. Simulation throughput (sim-kHz) deltas are\n"
        "always reported; --perf-threshold flags drops beyond FRAC\n"
        "in the report without affecting the exit code. Failed-run\n"
        "records and records without an IPC are excluded; journals\n"
        "sharing no comparable record exit 3 (incomparable), and a\n"
        "malformed journal exits 2.");
    cli.value("max-ipc-drop", &opt.maxIpcDrop,
              "relative IPC drop that regresses (default 0.02)");
    cli.value("max-wall-increase", &opt.maxWallIncrease,
              "relative wall-clock rise that regresses (default 0.50)");
    cli.value("perf-threshold", &opt.perfThreshold,
              "advisory sim-kHz drop to flag (off by default)");
    cli.flag("verbose", &verbose, "also list keys new in current");
    cli.flag("selftest", &run_selftest,
             "run the built-in validation suite and exit");
    cli.positional(&paths, "<baseline.json> <current.json>");
    cli.parseOrExit(argc, argv);

    if (run_selftest)
        return selfTest();
    if (paths.size() != 2)
        cli.failUsage("expected a baseline and a current journal");

    Journal base, cur;
    if (!loadJournal(paths[0], base) || !loadJournal(paths[1], cur))
        return kExitUsage;
    std::size_t compared = 0;
    const int regressions =
        compareJournals(base, cur, opt, verbose, compared);
    if (regressions)
        return 1;
    return compared ? 0 : 3;
}
