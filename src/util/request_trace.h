#ifndef LCAKNAP_UTIL_REQUEST_TRACE_H
#define LCAKNAP_UTIL_REQUEST_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

/// \file request_trace.h
/// Recorded request logs: the trace vocabulary shared by the workload
/// generator (`core::generate_workload`'s `trace` shape) and the network
/// load generator (`lcaknap_loadgen --trace-record / --trace-replay`).
///
/// A trace is the replayable ground truth of real traffic: synthetic shapes
/// (uniform/zipf/hotspot) approximate popularity, but a recorded log carries
/// the exact item sequence, tenant attribution, and timing an incident or a
/// capacity test actually saw.  Replaying it makes performance work
/// falsifiable — the same byte sequence drives the serving stack before and
/// after a change (experiment E22 replays traces through the batch answer
/// path).
///
/// Format (versioned, line-oriented, append-friendly):
///
///     lcaknap-trace 1
///     <timestamp_us> <item> <tenant>
///     ...
///
/// Timestamps are microseconds relative to the recording's start and must be
/// non-decreasing; `tenant` is an instance id (`util::valid_id`: 1-64 bytes
/// of `[A-Za-z0-9._-]`, the rule the wire protocol and the store enforce).
/// Parsing is strict: any malformed line is a typed `TraceParseError`
/// carrying the 1-based line number, never a silently skipped record.

namespace lcaknap::util {

/// One recorded request.
struct TraceRecord {
  std::uint64_t timestamp_us = 0;  ///< microseconds since recording start
  std::uint64_t item = 0;          ///< queried item index
  std::string tenant = "default";  ///< tenant id (util::valid_id)

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Malformed trace input; `line()` is the 1-based offending line.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(std::size_t line, const std::string& what)
      : std::runtime_error("trace line " + std::to_string(line) + ": " + what),
        line_(line) {}
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Serializes `records` in the versioned text format.
void write_trace(const std::vector<TraceRecord>& records, std::ostream& os);

/// Parses a trace; throws `TraceParseError` on any malformed header or
/// record (bad field count, non-numeric fields, a tenant that fails
/// `util::valid_id`, or a timestamp going backwards).
[[nodiscard]] std::vector<TraceRecord> read_trace(std::istream& is);

/// File wrappers; throw `std::runtime_error` when the file cannot be
/// opened, `TraceParseError` on malformed content.
void save_trace_file(const std::vector<TraceRecord>& records,
                     const std::string& path);
[[nodiscard]] std::vector<TraceRecord> load_trace_file(const std::string& path);

}  // namespace lcaknap::util

#endif  // LCAKNAP_UTIL_REQUEST_TRACE_H
