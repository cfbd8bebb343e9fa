/**
 * @file
 * Durable ticket log for the dmdc_serve daemon.
 *
 * Service-mode tickets (one per deduplicated run) used to live only
 * in daemon memory: a SIGKILL forgot every queued and in-flight run.
 * The ticket log persists each ticket's lifecycle next to the cache
 * index (`<cache-dir>/tickets.log`) using the same crash-safety
 * idiom (`common/append_log.hh`): newline-terminated, CRC-framed
 * JSON records appended under a shared flock, compaction under the
 * exclusive flock.
 *
 * Records (one JSON object per line):
 *
 *   {"v":1,"op":"submit","key":K,"spec":S,"crc":C}   ticket created;
 *       S is the serviceRunSpecJson() of the run, embedded as an
 *       escaped string so a restarted daemon can re-queue it
 *   {"v":1,"op":"finish","key":K,"status":T,"crc":C} terminal state
 *
 * Replay classifies every key by its latest record: a submit without
 * a finish is *pending* — a restarted daemon re-queues it (the run
 * cache already holds the results of finished tickets, so replaying
 * pending work is exactly what makes exactly-once dedup survive
 * SIGKILL: finished runs are served from the cache, unfinished runs
 * re-simulate once). A torn final line (crash mid-append) fails its
 * CRC and is skipped; the worst case is one in-flight run replayed.
 *
 * The log is compacted at daemon start (finished history is dropped;
 * the cache is the durable result store) and whenever finish records
 * dominate pending ones, so a long-running daemon's log stays
 * proportional to its in-flight work, not its lifetime.
 *
 * Several daemons may share one cache directory: appends interleave
 * whole records and compaction is exclusive, so the log never
 * corrupts; a daemon restarting over a shared log simply adopts its
 * siblings' pending tickets too, which is harmless (results land in
 * the shared cache either way).
 */

#ifndef DMDC_SIM_TICKET_LOG_HH
#define DMDC_SIM_TICKET_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dmdc
{

/** Ticket log record schema version. */
constexpr unsigned kTicketLogVersion = 1;

/** One unfinished ticket reconstructed by replay(). */
struct PendingTicket
{
    std::string key;  ///< cacheKey() of the run
    std::string spec; ///< serviceRunSpecJson() payload
};

/** Aggregate of one replay() pass. */
struct TicketLogReplay
{
    std::vector<PendingTicket> pending; ///< submit without finish
    std::size_t finished = 0;           ///< tickets with a finish
    std::size_t corrupt = 0;            ///< CRC-failed lines skipped
};

/**
 * The daemon-side handle. All methods are crash-safe but not
 * thread-safe: the daemon serializes access behind its state mutex.
 */
class TicketLog
{
  public:
    /** A log rooted at @p dir (empty disables every operation). */
    explicit TicketLog(std::string dir);

    bool enabled() const { return !dir_.empty(); }
    std::string logPath() const;
    std::string lockPath() const;

    /** Append one lifecycle record (creates the directory and log on
     *  demand). Best-effort: a failed append costs recovery coverage
     *  for that ticket, never correctness. */
    void appendSubmit(const std::string &key, const std::string &spec);
    void appendFinish(const std::string &key, const std::string &status);

    /** Scan the whole log, CRC-checking every record. Unparsable or
     *  damaged lines are counted and skipped. */
    TicketLogReplay replay() const;

    /**
     * Rewrite the log to exactly one submit per pending ticket, under
     * the exclusive flock. Drops finished history. False when the
     * lock is contended or the rewrite fails.
     */
    bool compact(const std::vector<PendingTicket> &pending);

    /**
     * Compact when finish records have accumulated well past the
     * pending population (same shape as the cache index's policy).
     * @p appendedSinceCompact is maintained by the caller.
     */
    bool shouldCompact(std::uint64_t appendedSinceCompact,
                       std::size_t pendingCount) const;

  private:
    void append(const char *op, const std::string &key,
                const std::string &spec, const std::string &status);

    std::string dir_;
};

} // namespace dmdc

#endif // DMDC_SIM_TICKET_LOG_HH
