#ifndef LCAKNAP_UTIL_BYTES_H
#define LCAKNAP_UTIL_BYTES_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

/// \file bytes.h
/// The one codec behind every sealed format (snapshots, certificate logs,
/// wire frames, epoch logs): the CRC-64, fixed-width little-endian fields,
/// a bounds-checked reader, the trailing-CRC seal and the instance-id rule.

namespace lcaknap::util {

/// CRC-64/XZ: the reflected ECMA-182 polynomial, all-ones init and final XOR.
[[nodiscard]] std::uint64_t crc64(std::string_view bytes) noexcept;

/// The field types a format may hold; f64 travels as its bit pattern.
template <typename T>
concept LeField = std::is_same_v<T, std::uint8_t> || std::is_same_v<T, std::uint16_t> ||
                  std::is_same_v<T, std::uint32_t> || std::is_same_v<T, std::uint64_t> ||
                  std::is_same_v<T, std::int64_t> || std::is_same_v<T, double>;

/// Writes `value` as sizeof(T) little-endian bytes at `at` (no allocation).
template <LeField T>
void store_le(char* at, T value) noexcept {
  std::uint64_t bits = 0;
  if constexpr (std::is_same_v<T, double>) bits = std::bit_cast<std::uint64_t>(value);
  else bits = static_cast<std::make_unsigned_t<T>>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) at[i] = static_cast<char>(bits >> (8 * i));
}

/// Appends `value` to `out` as sizeof(T) little-endian bytes.
template <LeField T>
void put_le(std::string& out, T value) {
  char bytes[sizeof(T)] = {};
  store_le(bytes, value);
  out.append(bytes, sizeof(T));
}

/// Little-endian cursor over `bytes`.  A read past the end returns 0 (an
/// empty view from `take`) and clears `ok()` for good, so each format checks
/// `ok()` where it must and throws its own typed error.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) noexcept : bytes_(bytes) {}

  template <LeField T>
  [[nodiscard]] T get() noexcept {
    std::uint64_t bits = 0;
    const std::string_view field = take(sizeof(T));
    for (std::size_t i = 0; i < field.size(); ++i) {
      bits |= std::uint64_t{static_cast<std::uint8_t>(field[i])} << (8 * i);
    }
    if constexpr (std::is_same_v<T, double>) return std::bit_cast<double>(bits);
    else return static_cast<T>(bits);
  }
  [[nodiscard]] std::string_view take(std::size_t count) noexcept {
    if (remaining() < count) {
      ok_ = false;
      pos_ = bytes_.size();
      return {};
    }
    pos_ += count;
    return bytes_.substr(pos_ - count, count);
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Writes the CRC-64 of frame[0, body) at frame + body (no allocation).
void seal_to(char* frame, std::size_t body) noexcept;
/// Appends the CRC-64 of out[from, end) as a trailing little-endian u64.
void seal(std::string& out, std::size_t from = 0);
/// True iff `sealed` ends in the little-endian CRC-64 of every byte before it.
[[nodiscard]] bool seal_holds(std::string_view sealed) noexcept;

/// Instance ids name snapshot files, trace records and wire tenants:
/// 1 to kMaxIdBytes characters from [A-Za-z0-9._-].
inline constexpr std::size_t kMaxIdBytes = 64;
[[nodiscard]] bool valid_id(std::string_view id) noexcept;

}  // namespace lcaknap::util

#endif  // LCAKNAP_UTIL_BYTES_H
