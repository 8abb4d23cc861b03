#include "util/strings.hpp"

#include <array>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace qnn::util {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

namespace {
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: non-hex character");
}
}  // namespace

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd length");
  }
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(hex_nibble(hex[2 * i]) << 4 |
                                       hex_nibble(hex[2 * i + 1]));
  }
  return out;
}

std::string numbered_name(std::string_view prefix, std::uint64_t n,
                          std::string_view suffix) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%010llu",
                static_cast<unsigned long long>(n));
  return std::string(prefix).append(digits).append(suffix);
}

std::optional<std::uint64_t> parse_numbered_name(std::string_view name,
                                                 std::string_view prefix,
                                                 std::string_view suffix) {
  constexpr std::size_t kDigits = 10;
  if (name.size() != prefix.size() + kDigits + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  std::uint64_t n = 0;
  for (const char c : name.substr(prefix.size(), kDigits)) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return n;
}

std::string human_bytes(std::uint64_t bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KiB", "MiB",
                                                        "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  std::size_t unit = 0;
  while (v >= 1024.0 && unit + 1 < kUnits.size()) {
    v /= 1024.0;
    ++unit;
  }
  std::ostringstream os;
  os.precision(unit == 0 ? 0 : 1);
  os << std::fixed << v << " " << kUnits[unit];
  return os.str();
}

}  // namespace qnn::util
