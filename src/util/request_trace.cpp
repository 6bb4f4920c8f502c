#include "util/request_trace.h"

#include <fstream>
#include <ostream>
#include <sstream>

#include "util/bytes.h"

namespace lcaknap::util {

namespace {

constexpr const char* kMagic = "lcaknap-trace";
constexpr int kVersion = 1;

}  // namespace

void write_trace(const std::vector<TraceRecord>& records, std::ostream& os) {
  os << kMagic << " " << kVersion << "\n";
  for (const auto& record : records) {
    os << record.timestamp_us << " " << record.item << " " << record.tenant
       << "\n";
  }
}

std::vector<TraceRecord> read_trace(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(is, line)) {
    throw TraceParseError(1, "missing header");
  }
  ++line_no;
  {
    std::istringstream header(line);
    std::string magic;
    int version = 0;
    if (!(header >> magic >> version) || magic != kMagic) {
      throw TraceParseError(line_no, "bad magic (want \"" +
                                         std::string(kMagic) + " 1\")");
    }
    if (version != kVersion) {
      throw TraceParseError(line_no,
                            "unsupported version " + std::to_string(version));
    }
  }
  std::vector<TraceRecord> records;
  std::uint64_t previous_ts = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;  // trailing newline tolerance
    std::istringstream fields(line);
    TraceRecord record;
    std::string trailing;
    if (!(fields >> record.timestamp_us >> record.item >> record.tenant)) {
      throw TraceParseError(line_no, "want <timestamp_us> <item> <tenant>");
    }
    if (fields >> trailing) {
      throw TraceParseError(line_no, "trailing field: " + trailing);
    }
    if (!valid_id(record.tenant)) {
      throw TraceParseError(line_no, "bad tenant id: " + record.tenant);
    }
    if (record.timestamp_us < previous_ts) {
      throw TraceParseError(line_no, "timestamp goes backwards");
    }
    previous_ts = record.timestamp_us;
    records.push_back(std::move(record));
  }
  return records;
}

void save_trace_file(const std::vector<TraceRecord>& records,
                     const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open trace file: " + path);
  write_trace(records, os);
  if (!os.good()) throw std::runtime_error("short write to trace: " + path);
}

std::vector<TraceRecord> load_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(is);
}

}  // namespace lcaknap::util
