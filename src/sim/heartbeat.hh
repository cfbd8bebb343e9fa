/**
 * @file
 * Worker heartbeats for supervised shard campaigns.
 *
 * A shard worker publishes a tiny JSON heartbeat file after every run
 * it completes (write-to-temp + rename, one file per shard, derived
 * from the base path with shardFilePath()). The record carries a
 * monotonic counter plus progress coordinates; the supervisor polls
 * the file and declares the worker hung when the counter stops
 * advancing for longer than the hang deadline.
 *
 * The heartbeat is deliberately progress-based, not timer-based: a
 * background "I'm alive" timer would keep beating from a process whose
 * simulation threads are wedged, which is exactly the failure the
 * supervisor exists to catch. Per-run watchdogs (stall-cycle limit,
 * wall-clock deadline) bound how long a single run can stay silent, so
 * any staleness beyond `max run time + slack` means the worker is
 * stuck outside the watchdogs' reach.
 *
 * HeartbeatMonitor holds the supervisor-side staleness logic as a pure
 * function of observed (counter, now) pairs so tests can drive it with
 * a fake clock.
 */

#ifndef DMDC_SIM_HEARTBEAT_HH
#define DMDC_SIM_HEARTBEAT_HH

#include <cstdint>
#include <string>
#include <unordered_map>

namespace dmdc
{

/** Worker liveness phases, as spelled in the heartbeat file. */
enum class HeartbeatPhase
{
    Starting,    ///< process up, campaign not yet classifying runs
    Running,     ///< executing its slice
    Interrupted, ///< saw SIGINT/SIGTERM, flushing state before exit
    Done,        ///< slice complete (possibly with degraded runs)
};

const char *heartbeatPhaseName(HeartbeatPhase phase);
bool parseHeartbeatPhase(const std::string &text, HeartbeatPhase &out);

/** One published heartbeat. */
struct HeartbeatRecord
{
    /** Strictly increasing within one worker process; restarts reset
     *  it, which the monitor treats as a change (progress). */
    std::uint64_t counter = 0;
    /** In-shard runs that reached a terminal status so far. */
    std::uint64_t completed = 0;
    /** Full campaign run count (all shards). */
    std::uint64_t runsTotal = 0;
    int pid = 0;
    HeartbeatPhase phase = HeartbeatPhase::Starting;
};

/** Atomically publish @p record at @p path. Best-effort: returns
 *  false (no throw) when the file cannot be written. */
bool writeHeartbeat(const std::string &path,
                    const HeartbeatRecord &record);

/** Load @p path. False + @p err when absent or unparsable. */
bool readHeartbeat(const std::string &path, HeartbeatRecord &out,
                   std::string &err);

/**
 * Supervisor-side staleness detector. Time is an opaque
 * milliseconds-since-whenever double supplied by the caller, so the
 * logic is clock-agnostic (tests use a fake clock, the supervisor a
 * steady_clock).
 */
class HeartbeatMonitor
{
  public:
    explicit HeartbeatMonitor(double hangDeadlineMs)
        : deadlineMs_(hangDeadlineMs)
    {
    }

    /**
     * (Re)arm tracking for @p shard as of @p nowMs: the staleness
     * window restarts from here. Call at every (re)spawn so a worker
     * isn't judged by its predecessor's heartbeat.
     */
    void track(unsigned shard, double nowMs);

    /**
     * Feed one observation of the shard's heartbeat counter. Any
     * counter change — including a reset to a smaller value after a
     * restart — counts as progress.
     */
    void observe(unsigned shard, std::uint64_t counter, double nowMs);

    /** Stop tracking @p shard (it exited). */
    void forget(unsigned shard);

    /** Milliseconds since the last observed change (or track()). */
    double silentMs(unsigned shard, double nowMs) const;

    /** True when the shard has been silent beyond the hang deadline.
     *  Never true for untracked shards or a non-positive deadline. */
    bool hung(unsigned shard, double nowMs) const;

    double deadlineMs() const { return deadlineMs_; }

  private:
    struct State
    {
        std::uint64_t counter = 0;
        bool observed = false;   ///< a counter value has been seen
        double lastChangeMs = 0; ///< time of track() or last change
    };

    double deadlineMs_;
    std::unordered_map<unsigned, State> shards_;
};

} // namespace dmdc

#endif // DMDC_SIM_HEARTBEAT_HH
