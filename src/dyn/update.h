#ifndef LCAKNAP_DYN_UPDATE_H
#define LCAKNAP_DYN_UPDATE_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "knapsack/instance.h"

/// \file update.h
/// The epoch log: an ordered, CRC64-sealed batch format of item mutations.
/// Production knapsack instances mutate — items arrive, disappear, and
/// reprice — and every downstream conclusion (warm state, cached answers,
/// snapshots, certificates) is scoped to the instance version it was derived
/// from.  The epoch log makes that version explicit: each batch carries a
/// monotone `epoch_id`, and applying batch N to the epoch-(N-1) instance
/// yields the epoch-N instance, deterministically, on every replica that
/// consumes the same log.
///
/// Text grammar (one directive per line; `#` starts a comment line):
///
///   batch  := 'epoch' ID mutation* 'seal' (CRC64HEX | 'auto')
///   mutation := 'insert' PROFIT WEIGHT
///             | 'delete' INDEX
///             | 'profit' INDEX VALUE
///             | 'weight' INDEX VALUE
///
/// The seal is CRC-64/XZ over the batch's canonical serialization
/// (`serialize_batch`), so a log survives hand edits only when resealed —
/// `auto` is the documented hand-authoring escape hatch (accept the computed
/// CRC; see docs/DYNAMIC.md).  Epoch ids must be strictly increasing within
/// a log.  Parse failures throw `EpochLogParseError` with the 1-based
/// line:column and the offending token, mirroring `FaultPlanParseError`.
///
/// Delete semantics are tombstones: the item becomes (profit 0, weight 0),
/// preserving every other item's index.  A tombstone is never drawn by
/// weighted sampling (profit 0) and including it in a solution is feasible
/// and value-neutral, so answers about live items are unaffected.

namespace lcaknap::dyn {

enum class MutationKind : std::uint8_t {
  kInsert = 0,
  kDelete = 1,
  kProfitUpdate = 2,
  kWeightUpdate = 3,
};

[[nodiscard]] const char* mutation_kind_name(MutationKind kind) noexcept;

struct Mutation {
  MutationKind kind = MutationKind::kWeightUpdate;
  std::size_t index = 0;    ///< target item (delete / profit / weight)
  std::int64_t profit = 0;  ///< insert: item profit; profit: new value
  std::int64_t weight = 0;  ///< insert: item weight; weight: new value
};

/// One sealed unit of the log: all mutations advancing to `epoch_id`.
struct UpdateBatch {
  std::uint64_t epoch_id = 0;
  std::vector<Mutation> mutations;
};

/// Typed parse failure carrying the 1-based location and offending token
/// (same shape as fault::FaultPlanParseError).
class EpochLogParseError : public std::invalid_argument {
 public:
  EpochLogParseError(std::string reason, std::size_t line, std::size_t column,
                     std::string token)
      : std::invalid_argument("epoch log:" + std::to_string(line) + ":" +
                              std::to_string(column) + ": " + reason + ": '" +
                              token + "'"),
        line_(line),
        column_(column),
        token_(std::move(token)) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }
  [[nodiscard]] const std::string& token() const noexcept { return token_; }

 private:
  std::size_t line_;
  std::size_t column_;
  std::string token_;
};

/// Canonical serialization of one batch *without* its seal line — exactly
/// the bytes the seal CRC covers.
[[nodiscard]] std::string serialize_batch(const UpdateBatch& batch);

/// CRC-64/XZ of `serialize_batch(batch)`.
[[nodiscard]] std::uint64_t batch_crc(const UpdateBatch& batch);

/// Full log serialization: every batch in order, each followed by its
/// computed `seal` line.  `parse_epoch_log` round-trips this byte-exactly.
[[nodiscard]] std::string serialize_epoch_log(std::span<const UpdateBatch> batches);

/// Parses a full epoch log; throws EpochLogParseError on malformed input,
/// seal mismatch, or non-monotone epoch ids.
[[nodiscard]] std::vector<UpdateBatch> parse_epoch_log(std::string_view text);

/// Reads and parses an epoch log file; IO failures throw std::runtime_error,
/// format failures EpochLogParseError.
[[nodiscard]] std::vector<UpdateBatch> load_epoch_log(const std::string& path);

/// Applies a batch, returning the mutated instance (the input is untouched).
/// The result shares every storage chunk of `base` that the batch does not
/// touch (`knapsack::Instance::with_changes`).  Out-of-range indices,
/// negative values, or mutations that violate the Instance invariants (e.g. a
/// weight above the capacity, or tombstoning the last positive-profit item)
/// throw std::invalid_argument.
[[nodiscard]] knapsack::Instance apply_batch(const knapsack::Instance& base,
                                             const UpdateBatch& batch);

}  // namespace lcaknap::dyn

#endif  // LCAKNAP_DYN_UPDATE_H
