#ifndef LCAKNAP_FLEET_BOOTSTRAP_H
#define LCAKNAP_FLEET_BOOTSTRAP_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/virtual_clock.h"

/// \file bootstrap.h
/// Snapshot-shipped replica bootstrap.
///
/// A joining replica should not pay the one-time Theorem 4.1 warm-up when a
/// sibling already holds the resulting `(L(I~), EPS)` state: the fleet ships
/// a verified `.snap` into the newcomer's store directory and the existing
/// `StateStore` hydration path does the rest — fingerprint-checked restore,
/// with *typed rejection* of anything stale, truncated, or corrupted, which
/// falls back to a live warm-up.  A rejected snapshot is never served; the
/// worst outcome of a corrupted shipment is the cold-start cost (E21 pins
/// the good case at <= 10x a local snapshot restore).
///
/// `ship_snapshot` follows the store's own write discipline: write the copy
/// to a temp file in the destination directory, flush it, then atomically
/// rename it into place.  A reader that races the shipment sees the
/// complete old file or the complete new file, never a torn prefix — the
/// atomic-rename race test in tests/store pins the reader side.  Neither
/// this nor `store::write_snapshot` fsyncs, so a crash of the host can
/// still lose a shipment that was renamed into place.
///
/// `wait_ready` polls the wire-level health frame (`RequestFrame::kFlagHealth`,
/// docs/NETWORKING.md) until every named tenant reports warm.  A restoring
/// replica warms every tenant before it listens, so until then the probe
/// finds no listener, which counts as "not ready yet".

namespace lcaknap::fleet {

struct ShipResult {
  std::string path;         ///< final `.snap` path in the destination store
  std::uint64_t bytes = 0;  ///< snapshot size shipped
};

/// Copies `source_path` into `dest_dir` as `<tenant_id>.snap` (the
/// StateStore's snapshot naming) via temp file + atomic rename.
/// Throws std::system_error / std::runtime_error on I/O failure; performs
/// no content verification — that is deliberately left to the restoring
/// replica's fingerprint check, which is the trust boundary.
ShipResult ship_snapshot(const std::string& source_path,
                         const std::string& dest_dir,
                         const std::string& tenant_id);

/// Flips one byte of `path` in place (XOR 0xFF at `offset`, clamped to the
/// file).  The chaos driver's snapshot-corruption fault: exercises the
/// restoring replica's typed-rejection path.  Throws on I/O failure or an
/// empty file.
void corrupt_snapshot_byte(const std::string& path, std::uint64_t offset);

/// Polls health frames against `host:port` until every tenant in `tenants`
/// reports warm, the deadline passes, or the port stays unreachable.
/// Returns true when warm.  Connection failures are expected early (the
/// replica may not be listening yet) and count as "not ready yet".
bool wait_ready(const std::string& host, std::uint16_t port,
                const std::vector<std::string>& tenants,
                std::uint64_t timeout_us, util::Clock& clock,
                std::uint64_t poll_interval_us = 20'000);

}  // namespace lcaknap::fleet

#endif  // LCAKNAP_FLEET_BOOTSTRAP_H
