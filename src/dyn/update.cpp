#include "dyn/update.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "store/snapshot.h"

namespace lcaknap::dyn {

namespace {

/// One whitespace-delimited token with its 1-based start column.
struct Token {
  std::string text;
  std::size_t column = 0;
};

std::vector<Token> tokenize(std::string_view line) {
  std::vector<Token> tokens;
  std::size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) ++at;
    if (at >= line.size()) break;
    const std::size_t start = at;
    while (at < line.size() && line[at] != ' ' && line[at] != '\t') ++at;
    tokens.push_back({std::string(line.substr(start, at - start)), start + 1});
  }
  return tokens;
}

template <typename Int>
Int parse_int(const Token& token, std::size_t line, const char* what) {
  Int value{};
  const char* first = token.text.data();
  const char* last = first + token.text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    throw EpochLogParseError(std::string("expected ") + what, line,
                             token.column, token.text);
  }
  return value;
}

std::string crc_hex(std::uint64_t crc) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(crc));
  return std::string(buf);
}

}  // namespace

const char* mutation_kind_name(MutationKind kind) noexcept {
  switch (kind) {
    case MutationKind::kInsert: return "insert";
    case MutationKind::kDelete: return "delete";
    case MutationKind::kProfitUpdate: return "profit";
    case MutationKind::kWeightUpdate: return "weight";
  }
  return "unknown";
}

std::string serialize_batch(const UpdateBatch& batch) {
  std::ostringstream os;
  os << "epoch " << batch.epoch_id << "\n";
  for (const auto& m : batch.mutations) {
    switch (m.kind) {
      case MutationKind::kInsert:
        os << "insert " << m.profit << " " << m.weight << "\n";
        break;
      case MutationKind::kDelete:
        os << "delete " << m.index << "\n";
        break;
      case MutationKind::kProfitUpdate:
        os << "profit " << m.index << " " << m.profit << "\n";
        break;
      case MutationKind::kWeightUpdate:
        os << "weight " << m.index << " " << m.weight << "\n";
        break;
    }
  }
  return std::move(os).str();
}

std::uint64_t batch_crc(const UpdateBatch& batch) {
  return store::crc64(serialize_batch(batch));
}

std::string serialize_epoch_log(std::span<const UpdateBatch> batches) {
  std::string out;
  for (const auto& batch : batches) {
    out += serialize_batch(batch);
    out += "seal " + crc_hex(batch_crc(batch)) + "\n";
  }
  return out;
}

std::vector<UpdateBatch> parse_epoch_log(std::string_view text) {
  std::vector<UpdateBatch> batches;
  UpdateBatch open;          // the batch being accumulated, valid iff in_batch
  bool in_batch = false;
  bool have_previous = false;
  std::uint64_t previous_epoch = 0;
  std::size_t line_no = 0;
  std::size_t at = 0;
  std::size_t last_line_no = 1;
  while (at <= text.size()) {
    const std::size_t eol = text.find('\n', at);
    const std::string_view line =
        text.substr(at, eol == std::string_view::npos ? text.size() - at
                                                      : eol - at);
    ++line_no;
    last_line_no = line_no;
    at = eol == std::string_view::npos ? text.size() + 1 : eol + 1;

    const auto tokens = tokenize(line);
    if (tokens.empty() || tokens.front().text.front() == '#') continue;
    const Token& head = tokens.front();

    if (head.text == "epoch") {
      if (in_batch) {
        throw EpochLogParseError("unsealed batch before new epoch", line_no,
                                 head.column, head.text);
      }
      if (tokens.size() != 2) {
        throw EpochLogParseError("epoch takes exactly one id", line_no,
                                 head.column, head.text);
      }
      open = UpdateBatch{};
      open.epoch_id = parse_int<std::uint64_t>(tokens[1], line_no, "epoch id");
      if (have_previous && open.epoch_id <= previous_epoch) {
        throw EpochLogParseError("epoch ids must be strictly increasing",
                                 line_no, tokens[1].column, tokens[1].text);
      }
      in_batch = true;
      continue;
    }
    if (head.text == "seal") {
      if (!in_batch) {
        throw EpochLogParseError("seal outside a batch", line_no, head.column,
                                 head.text);
      }
      if (tokens.size() != 2) {
        throw EpochLogParseError("seal takes exactly one crc", line_no,
                                 head.column, head.text);
      }
      const std::uint64_t want = batch_crc(open);
      if (tokens[1].text != "auto") {
        std::uint64_t got = 0;
        const char* first = tokens[1].text.data();
        const char* last = first + tokens[1].text.size();
        const auto [ptr, ec] = std::from_chars(first, last, got, 16);
        if (ec != std::errc{} || ptr != last) {
          throw EpochLogParseError("expected crc64 hex or 'auto'", line_no,
                                   tokens[1].column, tokens[1].text);
        }
        if (got != want) {
          throw EpochLogParseError(
              "seal mismatch (batch bytes changed; want " + crc_hex(want) + ")",
              line_no, tokens[1].column, tokens[1].text);
        }
      }
      have_previous = true;
      previous_epoch = open.epoch_id;
      batches.push_back(std::move(open));
      in_batch = false;
      continue;
    }

    if (!in_batch) {
      throw EpochLogParseError("mutation outside a batch (missing 'epoch')",
                               line_no, head.column, head.text);
    }
    Mutation m;
    if (head.text == "insert") {
      if (tokens.size() != 3) {
        throw EpochLogParseError("insert takes profit and weight", line_no,
                                 head.column, head.text);
      }
      m.kind = MutationKind::kInsert;
      m.profit = parse_int<std::int64_t>(tokens[1], line_no, "profit");
      m.weight = parse_int<std::int64_t>(tokens[2], line_no, "weight");
    } else if (head.text == "delete") {
      if (tokens.size() != 2) {
        throw EpochLogParseError("delete takes an index", line_no, head.column,
                                 head.text);
      }
      m.kind = MutationKind::kDelete;
      m.index = parse_int<std::size_t>(tokens[1], line_no, "index");
    } else if (head.text == "profit") {
      if (tokens.size() != 3) {
        throw EpochLogParseError("profit takes index and value", line_no,
                                 head.column, head.text);
      }
      m.kind = MutationKind::kProfitUpdate;
      m.index = parse_int<std::size_t>(tokens[1], line_no, "index");
      m.profit = parse_int<std::int64_t>(tokens[2], line_no, "value");
    } else if (head.text == "weight") {
      if (tokens.size() != 3) {
        throw EpochLogParseError("weight takes index and value", line_no,
                                 head.column, head.text);
      }
      m.kind = MutationKind::kWeightUpdate;
      m.index = parse_int<std::size_t>(tokens[1], line_no, "index");
      m.weight = parse_int<std::int64_t>(tokens[2], line_no, "value");
    } else {
      throw EpochLogParseError("unknown directive", line_no, head.column,
                               head.text);
    }
    open.mutations.push_back(m);
  }
  if (in_batch) {
    throw EpochLogParseError("log ends inside an unsealed batch", last_line_no,
                             1, "epoch " + std::to_string(open.epoch_id));
  }
  return batches;
}

std::vector<UpdateBatch> load_epoch_log(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    throw std::runtime_error("load_epoch_log: cannot open " + path);
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) {
    throw std::runtime_error("load_epoch_log: read failed on " + path);
  }
  return parse_epoch_log(buffer.str());
}

knapsack::Instance apply_batch(const knapsack::Instance& base,
                               const UpdateBatch& batch) {
  // The batch folds into one write per touched base item plus the appended
  // tail, so the next instance clones only the chunks the batch touches.
  std::vector<knapsack::Instance::ItemWrite> writes;
  std::unordered_map<std::size_t, std::size_t> write_slot;  // index -> writes
  std::vector<knapsack::Item> appended;
  const auto target = [&](std::size_t index) -> knapsack::Item& {
    if (index >= base.size()) return appended[index - base.size()];
    const auto [it, fresh] = write_slot.try_emplace(index, writes.size());
    if (fresh) writes.push_back({index, base.item(index)});
    return writes[it->second].item;
  };
  const auto check_index = [&](const Mutation& m) {
    const std::size_t n = base.size() + appended.size();
    if (m.index >= n) {
      throw std::invalid_argument(
          "apply_batch: epoch " + std::to_string(batch.epoch_id) + " " +
          mutation_kind_name(m.kind) + " index " + std::to_string(m.index) +
          " out of range (n=" + std::to_string(n) + ")");
    }
  };
  const auto check_value = [&](const Mutation& m, std::int64_t value,
                               const char* what) {
    if (value < 0) {
      throw std::invalid_argument(
          "apply_batch: epoch " + std::to_string(batch.epoch_id) + " " +
          mutation_kind_name(m.kind) + ": negative " + what);
    }
  };
  for (const auto& m : batch.mutations) {
    switch (m.kind) {
      case MutationKind::kInsert:
        check_value(m, m.profit, "profit");
        check_value(m, m.weight, "weight");
        appended.push_back(knapsack::Item{m.profit, m.weight});
        break;
      case MutationKind::kDelete:
        check_index(m);
        target(m.index) = knapsack::Item{0, 0};  // tombstone, indices stable
        break;
      case MutationKind::kProfitUpdate:
        check_index(m);
        check_value(m, m.profit, "profit");
        target(m.index).profit = m.profit;
        break;
      case MutationKind::kWeightUpdate:
        check_index(m);
        check_value(m, m.weight, "weight");
        target(m.index).weight = m.weight;
        break;
    }
  }
  try {
    return base.with_changes(writes, appended);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(
        "apply_batch: epoch " + std::to_string(batch.epoch_id) +
        " violates instance invariants: " + e.what());
  }
}

}  // namespace lcaknap::dyn
