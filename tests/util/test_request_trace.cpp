#include "util/request_trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

/// \file test_request_trace.cpp
/// The recorded-request-log vocabulary: exact round-trips, strict typed
/// parse errors with 1-based line numbers, and the file wrappers.

namespace lcaknap::util {
namespace {

std::vector<TraceRecord> sample_records() {
  return {
      TraceRecord{0, 17, "default"},
      TraceRecord{5, 3, "tenant-a"},
      TraceRecord{5, 3, "tenant-a"},  // duplicates and ties are legal
      TraceRecord{120, 999'999, "A.b_c-9"},
  };
}

TEST(RequestTrace, StreamRoundTripIsExact) {
  const auto records = sample_records();
  std::stringstream ss;
  write_trace(records, ss);
  EXPECT_EQ(read_trace(ss), records);
}

TEST(RequestTrace, EmptyTraceRoundTrips) {
  std::stringstream ss;
  write_trace({}, ss);
  EXPECT_TRUE(read_trace(ss).empty());
}

TEST(RequestTrace, FileRoundTripIsExact) {
  const auto path =
      (std::filesystem::temp_directory_path() / "lcaknap_trace_rt.trace")
          .string();
  const auto records = sample_records();
  save_trace_file(records, path);
  EXPECT_EQ(load_trace_file(path), records);
  std::remove(path.c_str());
}

TEST(RequestTrace, MissingHeaderIsLineOne) {
  std::stringstream ss("");
  try {
    (void)read_trace(ss);
    FAIL() << "want TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 1u);
  }
}

TEST(RequestTrace, BadMagicRejected) {
  std::stringstream ss("not-a-trace 1\n");
  EXPECT_THROW((void)read_trace(ss), TraceParseError);
}

TEST(RequestTrace, UnsupportedVersionRejected) {
  std::stringstream ss("lcaknap-trace 2\n");
  EXPECT_THROW((void)read_trace(ss), TraceParseError);
}

TEST(RequestTrace, MalformedRecordCarriesLineNumber) {
  std::stringstream ss("lcaknap-trace 1\n0 1 default\nnot numbers here?\n");
  try {
    (void)read_trace(ss);
    FAIL() << "want TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(RequestTrace, TrailingFieldRejected) {
  std::stringstream ss("lcaknap-trace 1\n0 1 default extra\n");
  EXPECT_THROW((void)read_trace(ss), TraceParseError);
}

TEST(RequestTrace, TenantAlphabetEnforced) {
  std::stringstream ss("lcaknap-trace 1\n0 1 bad/tenant\n");
  EXPECT_THROW((void)read_trace(ss), TraceParseError);
}

TEST(RequestTrace, OverlongTenantIsATypedErrorNamingItsLine) {
  // The one id rule (util::valid_id) caps ids at 64 bytes, as the wire and
  // the store do, so a trace cannot carry a tenant the wire refuses.
  const std::string longest(64, 't');
  std::stringstream ok("lcaknap-trace 1\n0 1 " + longest + "\n");
  EXPECT_EQ(read_trace(ok).front().tenant, longest);
  std::stringstream ss("lcaknap-trace 1\n0 1 default\n1 2 " + longest +
                       "u\n");
  try {
    (void)read_trace(ss);
    FAIL() << "want TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(RequestTrace, BackwardsTimestampRejected) {
  std::stringstream ss("lcaknap-trace 1\n10 1 default\n9 2 default\n");
  try {
    (void)read_trace(ss);
    FAIL() << "want TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(RequestTrace, MissingFileThrowsRuntimeError) {
  EXPECT_THROW((void)load_trace_file("/nonexistent/lcaknap.trace"),
               std::runtime_error);
}

}  // namespace
}  // namespace lcaknap::util
