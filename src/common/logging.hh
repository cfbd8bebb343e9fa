/**
 * @file
 * gem5-style status/error reporting: panic(), fatal(), warn(),
 * inform(), and the channelled trace() facility.
 *
 * panic() is for simulator bugs (assert-like, aborts); fatal() is for
 * user errors such as invalid configurations (clean exit); warn() and
 * inform() print to stderr and continue. trace() emits high-volume
 * debug events gated by named channels, configured with
 * setTraceChannels() — normally from the --trace=<channels|all> flag
 * (see common/trace_sink.hh for the structured sink sharing the same
 * channel set). Every channel is off until the first such call.
 *
 * Thread-safety: each message is formatted into a private buffer and
 * emitted with a single stdio call, so concurrent campaign workers
 * never interleave partial lines; the message counters are atomic.
 */

#ifndef DMDC_COMMON_LOGGING_HH
#define DMDC_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <string>

namespace dmdc
{

/** Severity of a log message. */
enum class LogLevel { Inform, Warn, Fatal, Panic, Trace };

namespace detail
{
/** Format and dispatch one message; exits/aborts for Fatal/Panic. */
[[gnu::format(printf, 2, 3)]]
void logMessage(LogLevel level, const char *fmt, ...);

/** Format and emit one trace line for an already-enabled channel. */
[[gnu::format(printf, 2, 3)]]
void traceMessage(const char *channel, const char *fmt, ...);
} // namespace detail

/**
 * Whether @p channel is enabled by the last setTraceChannels() call
 * (false before any such call).
 */
bool traceEnabled(const char *channel);

/**
 * Replace the active trace-channel set with @p spec (comma-separated
 * channel names, or "all"; empty disables every channel). Callable
 * any number of times from any thread — tests and the dmdc_serve
 * daemon reconfigure channels without re-exec.
 */
void setTraceChannels(const std::string &spec);

/** Report a simulator bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Panic, fmt, args...);
    __builtin_unreachable();
}

/** Report an unrecoverable user/configuration error and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Fatal, fmt, args...);
    __builtin_unreachable();
}

/** Report a suspicious condition and continue. */
template <typename... Args>
void
warn(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Warn, fmt, args...);
}

/** Report normal operating status. */
template <typename... Args>
void
inform(const char *fmt, Args... args)
{
    detail::logMessage(LogLevel::Inform, fmt, args...);
}

/**
 * Emit a per-event trace line on @p channel when the channel is
 * enabled (see traceEnabled()); no-cost no-op otherwise. Each line is
 * written with a single stdio call, like every other message.
 */
template <typename... Args>
void
trace(const char *channel, const char *fmt, Args... args)
{
    if (!traceEnabled(channel))
        return;
    detail::traceMessage(channel, fmt, args...);
}

/**
 * Number of Warn/Fatal/Panic messages emitted so far (testing hook;
 * Fatal/Panic normally terminate but tests stub the terminate step).
 */
std::uint64_t loggedMessageCount(LogLevel level);

} // namespace dmdc

#endif // DMDC_COMMON_LOGGING_HH
