#ifndef MVROB_COMMON_LOG_H_
#define MVROB_COMMON_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "common/status.h"

namespace mvrob {

/// Severity of a log record. The numeric order matters: a logger emits a
/// record iff its level is >= the configured minimum, and kOff silences
/// everything.
enum class LogLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// "debug", "info", "warn", "error" or "off".
std::string_view LogLevelToString(LogLevel level);

/// Parses a level name (case-insensitive). "warning" is accepted as an
/// alias for "warn".
StatusOr<LogLevel> ParseLogLevel(std::string_view text);

/// One key/value pair attached to a log record. Values are rendered as
/// JSON strings unless constructed from a numeric or boolean type.
struct LogField {
  LogField(std::string_view k, std::string_view v)
      : key(k), value(v), quoted(true) {}
  LogField(std::string_view k, const char* v)
      : key(k), value(v), quoted(true) {}
  LogField(std::string_view k, const std::string& v)
      : key(k), value(v), quoted(true) {}
  LogField(std::string_view k, int64_t v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, uint64_t v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, int v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, bool v)
      : key(k), value(v ? "true" : "false"), quoted(false) {}

  std::string key;
  std::string value;
  bool quoted;  // false: value is emitted verbatim (number/bool).
};

/// A leveled, thread-safe, JSON-lines structured logger with per-site rate
/// limiting. Every record is one line of JSON on the sink:
///
///   {"ts_us":1712345678901234,"level":"info","site":"serve.listen",
///    "msg":"telemetry server up","fields":{"host":"127.0.0.1","port":8080}}
///
/// `site` is a stable dotted tag naming the emitting code location
/// (e.g. "serve.listen", "watchdog.stall"); the rate limiter operates per
/// site so one noisy loop cannot drown the log. When records were
/// suppressed, the site's next emitted record carries a top-level
/// `"suppressed":<n>` count. See docs/formats.md for the full schema.
class Logger {
 public:
  struct Options {
    LogLevel min_level = LogLevel::kInfo;
    /// Per-site rate limit: at most `burst` records per site within any
    /// `window`; the rest are dropped (and surfaced via "suppressed").
    /// burst <= 0 disables rate limiting.
    int burst = 20;
    std::chrono::steady_clock::duration window = std::chrono::seconds(60);
  };

  /// `sink` may be null (drops everything); not owned.
  explicit Logger(std::ostream* sink) : Logger(sink, Options()) {}
  Logger(std::ostream* sink, Options options);

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Cheap enough to guard call sites: one relaxed atomic load.
  bool enabled(LogLevel level) const {
    return level >= min_level_.load(std::memory_order_relaxed) &&
           level != LogLevel::kOff;
  }
  void set_min_level(LogLevel level) {
    min_level_.store(level, std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return min_level_.load(std::memory_order_relaxed);
  }

  void Log(LogLevel level, std::string_view site, std::string_view message,
           std::initializer_list<LogField> fields = {});

  /// Fake-clock variant for deterministic rate-limiter tests: `now` drives
  /// only the rate-limit window (the rendered ts_us is still wall time).
  void LogAt(std::chrono::steady_clock::time_point now, LogLevel level,
             std::string_view site, std::string_view message,
             std::initializer_list<LogField> fields = {});

  /// Total records dropped by the rate limiter so far.
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct SiteState {
    std::chrono::steady_clock::time_point window_start{};
    int in_window = 0;
    uint64_t suppressed = 0;  // Dropped since the last emitted record.
  };

  std::ostream* const sink_;
  const Options options_;
  std::atomic<LogLevel> min_level_;
  std::atomic<uint64_t> dropped_{0};
  std::mutex mu_;  // Serializes sink writes and guards sites_.
  std::map<std::string, SiteState, std::less<>> sites_;
};

/// The process-wide logger: stderr sink, minimum level taken from the
/// MVROB_LOG_LEVEL environment variable at first use (default "info";
/// invalid values fall back to "info" with a warning record). The CLI's
/// --log-level flag overrides it via set_min_level.
Logger& GlobalLogger();

}  // namespace mvrob

#endif  // MVROB_COMMON_LOG_H_
