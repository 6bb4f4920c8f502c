#include "store/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/bytes.h"

namespace lcaknap::store {

namespace {

using util::ByteReader;
using util::put_le;

void put_fingerprint(std::string& out, const SnapshotFingerprint& fp) {
  put_le(out, fp.n);
  put_le(out, fp.capacity);
  put_le(out, fp.total_profit);
  put_le(out, fp.total_weight);
  put_le(out, fp.eps);
  put_le(out, fp.seed);
  put_le(out, fp.domain_bits);
  put_le(out, fp.branching);
  put_le(out, fp.tau);
  put_le(out, fp.rho);
  put_le(out, fp.beta);
  put_le(out, fp.large_samples);
  put_le(out, fp.quantile_samples);
  put_le(out, fp.tape_seed);
  put_le(out, fp.warmup_shards);
  put_le<std::uint32_t>(out, (fp.reproducible_quantiles ? 1u : 0u) |
                                 (fp.paper_constants ? 2u : 0u));
  put_le(out, fp.epoch_id);
}

/// Reads a fingerprint block; a short block leaves `in.ok()` false for the
/// caller to report.
SnapshotFingerprint get_fingerprint(ByteReader& in) {
  SnapshotFingerprint fp;
  fp.n = in.get<std::uint64_t>();
  fp.capacity = in.get<std::int64_t>();
  fp.total_profit = in.get<std::int64_t>();
  fp.total_weight = in.get<std::int64_t>();
  fp.eps = in.get<double>();
  fp.seed = in.get<std::uint64_t>();
  fp.domain_bits = in.get<std::uint32_t>();
  fp.branching = in.get<std::uint32_t>();
  fp.tau = in.get<double>();
  fp.rho = in.get<double>();
  fp.beta = in.get<double>();
  fp.large_samples = in.get<std::uint64_t>();
  fp.quantile_samples = in.get<std::uint64_t>();
  fp.tape_seed = in.get<std::uint64_t>();
  fp.warmup_shards = in.get<std::uint32_t>();
  const auto flags = in.get<std::uint32_t>();
  fp.reproducible_quantiles = (flags & 1u) != 0;
  fp.paper_constants = (flags & 2u) != 0;
  if ((flags & ~3u) != 0) {
    throw SnapshotCorrupt("snapshot: unknown fingerprint flags");
  }
  fp.epoch_id = in.get<std::uint64_t>();
  return fp;
}

/// magic + version + total_size: the prefix needed before anything else can
/// be trusted.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8;
constexpr std::size_t kTrailerBytes = 8;  // CRC64

[[nodiscard]] bool bits_equal(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

bool SnapshotFingerprint::equals(const SnapshotFingerprint& other) const noexcept {
  return n == other.n && capacity == other.capacity &&
         total_profit == other.total_profit &&
         total_weight == other.total_weight && bits_equal(eps, other.eps) &&
         seed == other.seed && domain_bits == other.domain_bits &&
         branching == other.branching && bits_equal(tau, other.tau) &&
         bits_equal(rho, other.rho) && bits_equal(beta, other.beta) &&
         large_samples == other.large_samples &&
         quantile_samples == other.quantile_samples &&
         tape_seed == other.tape_seed && warmup_shards == other.warmup_shards &&
         reproducible_quantiles == other.reproducible_quantiles &&
         paper_constants == other.paper_constants && epoch_id == other.epoch_id;
}

SnapshotFingerprint fingerprint_of(const core::LcaKp& lca,
                                   std::uint64_t tape_seed,
                                   std::uint64_t epoch_id) {
  const auto& access = lca.access();
  const auto& config = lca.config();
  const auto& params = lca.params();
  SnapshotFingerprint fp;
  fp.n = access.size();
  fp.capacity = access.capacity();
  fp.total_profit = access.total_profit();
  fp.total_weight = access.total_weight();
  fp.eps = config.eps;
  fp.seed = config.seed;
  fp.domain_bits = static_cast<std::uint32_t>(config.domain_bits);
  fp.branching = static_cast<std::uint32_t>(config.branching);
  fp.tau = params.tau;
  fp.rho = params.rho;
  fp.beta = params.beta;
  fp.large_samples = params.large_samples;
  fp.quantile_samples = params.quantile_samples;
  fp.tape_seed = tape_seed;
  fp.warmup_shards = static_cast<std::uint32_t>(core::LcaKp::kWarmupShards);
  fp.reproducible_quantiles = config.reproducible_quantiles;
  fp.paper_constants = config.paper_constants;
  fp.epoch_id = epoch_id;
  return fp;
}

void encode_fingerprint(std::string& out, const SnapshotFingerprint& fp) {
  const std::size_t before = out.size();
  put_fingerprint(out, fp);
  // The block size is part of the on-disk contract (the certificate log
  // header slices exactly kFingerprintBytes); drift here is a format bug.
  if (out.size() - before != kFingerprintBytes) {
    throw SnapshotCorrupt("snapshot: fingerprint encoding size drifted");
  }
}

SnapshotFingerprint decode_fingerprint(std::string_view bytes) {
  if (bytes.size() < kFingerprintBytes) {
    throw SnapshotTruncated("snapshot: fingerprint block too short");
  }
  ByteReader in(bytes);
  const SnapshotFingerprint fp = get_fingerprint(in);
  if (in.remaining() != 0) {
    throw SnapshotCorrupt("snapshot: trailing bytes after fingerprint block");
  }
  return fp;
}

std::string encode_snapshot(const SnapshotFingerprint& fingerprint,
                            const core::LcaKpRun& run) {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_le(out, kSnapshotVersion);
  const std::size_t size_field_at = out.size();
  put_le<std::uint64_t>(out, 0);  // total_size backpatched below
  put_fingerprint(out, fingerprint);

  // Payload.  The large-item set is written sorted so equal states always
  // encode to equal bytes (the in-memory set iterates in hash order).
  std::vector<std::uint64_t> sorted(run.index_large.begin(),
                                    run.index_large.end());
  std::sort(sorted.begin(), sorted.end());
  put_le<std::uint64_t>(out, sorted.size());
  for (const auto index : sorted) put_le(out, index);
  put_le(out, run.e_small_grid);
  put_le<std::uint8_t>(out, run.singleton ? 1 : 0);
  put_le<std::uint8_t>(out, run.degenerate ? 1 : 0);
  put_le(out, static_cast<std::uint32_t>(run.thresholds_grid.size()));
  for (const auto g : run.thresholds_grid) put_le(out, g);
  for (const auto e : run.thresholds) put_le(out, e);
  put_le(out, run.large_mass);
  put_le(out, run.q);
  put_le(out, static_cast<std::uint32_t>(run.t));
  put_le(out, run.samples_used);
  put_le<std::uint64_t>(out, run.tilde_size);

  // Backpatch the total size, then seal with the CRC over everything so far.
  util::store_le<std::uint64_t>(out.data() + size_field_at,
                                out.size() + kTrailerBytes);
  util::seal(out);
  return out;
}

core::LcaKpRun decode_snapshot(std::string_view bytes,
                               const SnapshotFingerprint* expected,
                               SnapshotFingerprint* actual) {
  // 1. Shape: enough bytes for the self-describing header, and exactly as
  //    many bytes as that header promises.
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    throw SnapshotTruncated("snapshot: shorter than any valid header");
  }
  const auto declared = ByteReader(bytes.substr(8 + 4)).get<std::uint64_t>();
  if (bytes.size() < declared) {
    throw SnapshotTruncated("snapshot: file shorter than declared size");
  }
  if (bytes.size() > declared) {
    throw SnapshotCorrupt("snapshot: trailing bytes beyond declared size");
  }
  // 2. Integrity: the trailing CRC covers every preceding byte, so from here
  //    on every field is exactly what the writer produced.
  if (!util::seal_holds(bytes)) {
    throw SnapshotCorrupt("snapshot: CRC64 mismatch");
  }
  // A sealed buffer can still be shorter than its fields when the writer
  // was wrong; that reads as truncation, never served.
  const auto truncated = [] {
    return SnapshotTruncated("snapshot: payload shorter than declared");
  };
  ByteReader in(bytes.substr(0, bytes.size() - kTrailerBytes));
  // 3. Format identity.
  if (in.take(sizeof(kSnapshotMagic)) !=
      std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic))) {
    throw SnapshotCorrupt("snapshot: bad magic");
  }
  if (const auto version = in.get<std::uint32_t>(); version != kSnapshotVersion) {
    throw SnapshotCorrupt("snapshot: unsupported format version " +
                          std::to_string(version));
  }
  (void)in.get<std::uint64_t>();  // total_size, already validated
  // 4. Fingerprint.
  const SnapshotFingerprint fp = get_fingerprint(in);
  if (!in.ok()) throw truncated();
  if (actual != nullptr) *actual = fp;
  if (expected != nullptr && !fp.equals(*expected)) {
    throw SnapshotMismatch(
        "snapshot: fingerprint mismatch (snapshot was taken of a different "
        "instance, config, or warm-up tape)");
  }
  // 5. Payload.  Element counts are sanity-bounded by the remaining bytes
  //    before any allocation, so a hostile size field cannot balloon memory.
  core::LcaKpRun run;
  const auto large_count = in.get<std::uint64_t>();
  if (large_count > in.remaining() / 8) {
    throw SnapshotCorrupt("snapshot: large-item count exceeds payload");
  }
  run.index_large.reserve(static_cast<std::size_t>(large_count));
  std::uint64_t previous = 0;
  for (std::uint64_t k = 0; k < large_count; ++k) {
    const auto index = in.get<std::uint64_t>();
    if (k > 0 && index <= previous) {
      throw SnapshotCorrupt("snapshot: large-item indices not canonical");
    }
    previous = index;
    run.index_large.insert(static_cast<std::size_t>(index));
  }
  run.e_small_grid = in.get<std::int64_t>();
  run.singleton = in.get<std::uint8_t>() != 0;
  run.degenerate = in.get<std::uint8_t>() != 0;
  const auto threshold_count = in.get<std::uint32_t>();
  if (threshold_count > in.remaining() / 16) {
    throw SnapshotCorrupt("snapshot: threshold count exceeds payload");
  }
  run.thresholds_grid.reserve(threshold_count);
  for (std::uint32_t k = 0; k < threshold_count; ++k) {
    run.thresholds_grid.push_back(in.get<std::int64_t>());
  }
  run.thresholds.reserve(threshold_count);
  for (std::uint32_t k = 0; k < threshold_count; ++k) {
    run.thresholds.push_back(in.get<double>());
  }
  run.large_mass = in.get<double>();
  run.q = in.get<double>();
  run.t = static_cast<int>(in.get<std::uint32_t>());
  run.samples_used = in.get<std::uint64_t>();
  run.tilde_size = in.get<std::uint64_t>();
  if (!in.ok()) throw truncated();
  if (in.remaining() != 0) {
    throw SnapshotCorrupt("snapshot: unparsed bytes before trailer");
  }
  return run;
}

void publish_file(const std::string& path, std::string_view bytes) {
  const std::string temp = path + ".tmp";
  {
    std::ofstream os(temp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SnapshotIoError("snapshot: cannot open temp file " + temp);
    }
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(temp.c_str());
      throw SnapshotIoError("snapshot: short write to " + temp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::remove(temp.c_str());
    throw SnapshotIoError("snapshot: rename " + temp + " -> " + path +
                          " failed: " + ec.message());
  }
}

void write_snapshot(const std::string& path,
                    const SnapshotFingerprint& fingerprint,
                    const core::LcaKpRun& run) {
  publish_file(path, encode_snapshot(fingerprint, run));
}

std::string snapshot_path(const std::string& dir, const std::string& id) {
  if (!util::valid_id(id)) {
    throw std::invalid_argument(
        "snapshot: instance id must be 1-64 bytes of [A-Za-z0-9._-]: '" + id +
        "'");
  }
  return (dir.empty() ? std::string(".") : dir) + "/" + id + ".snap";
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw SnapshotIoError("snapshot: cannot open " + path);
  }
  std::string bytes;
  is.seekg(0, std::ios::end);
  const auto size = is.tellg();
  if (size < 0) throw SnapshotIoError("snapshot: cannot stat " + path);
  bytes.resize(static_cast<std::size_t>(size));
  is.seekg(0, std::ios::beg);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is.good() && !is.eof()) {
    throw SnapshotIoError("snapshot: read error on " + path);
  }
  return bytes;
}

}  // namespace

core::LcaKpRun read_snapshot(const std::string& path,
                             const SnapshotFingerprint* expected,
                             SnapshotFingerprint* actual) {
  return decode_snapshot(read_file(path), expected, actual);
}

SnapshotFingerprint read_snapshot_fingerprint(const std::string& path) {
  SnapshotFingerprint fp;
  (void)decode_snapshot(read_file(path), nullptr, &fp);
  return fp;
}

}  // namespace lcaknap::store
