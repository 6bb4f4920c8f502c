#include "util/bytes.h"

#include <algorithm>
#include <array>

namespace lcaknap::util {

namespace {

constexpr auto kCrc64Table = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xC96C5795D7870F42ULL : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}();

}  // namespace

std::uint64_t crc64(std::string_view bytes) noexcept {
  std::uint64_t crc = ~0ULL;
  for (const char c : bytes) {
    crc = kCrc64Table[(crc ^ static_cast<std::uint8_t>(c)) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

void seal_to(char* frame, std::size_t body) noexcept {
  store_le(frame + body, crc64(std::string_view(frame, body)));
}

void seal(std::string& out, std::size_t from) {
  put_le(out, crc64(std::string_view(out).substr(from)));
}

bool seal_holds(std::string_view sealed) noexcept {
  if (sealed.size() < 8) return false;
  const std::string_view body = sealed.substr(0, sealed.size() - 8);
  return ByteReader(sealed.substr(body.size())).get<std::uint64_t>() == crc64(body);
}

bool valid_id(std::string_view id) noexcept {
  return !id.empty() && id.size() <= kMaxIdBytes &&
         std::all_of(id.begin(), id.end(), [](char c) {
           return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
         });
}

}  // namespace lcaknap::util
