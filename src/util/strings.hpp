// Small string utilities shared by the manifest parser and CLI tools.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace qnn::util {

/// Splits on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(const std::string& s, char sep);

/// Strips leading/trailing ASCII whitespace.
std::string trim(const std::string& s);

/// Lower-case hex rendering of a byte span ("deadbeef").
std::string to_hex(std::span<const std::uint8_t> data);

/// Inverse of to_hex. Throws std::invalid_argument on odd length or
/// non-hex characters.
std::vector<std::uint8_t> from_hex(const std::string& hex);

/// `prefix`, then `n` as 10 zero-padded digits, then `suffix`: the
/// numbered file names of a checkpoint directory ("ckpt-0000000042.qckp").
std::string numbered_name(std::string_view prefix, std::uint64_t n,
                          std::string_view suffix);

/// numbered_name's inverse: the number, or nullopt unless `name` is
/// exactly `prefix`, 10 digits and `suffix`.
std::optional<std::uint64_t> parse_numbered_name(std::string_view name,
                                                 std::string_view prefix,
                                                 std::string_view suffix);

/// Formats a byte count with binary units ("1.5 MiB").
std::string human_bytes(std::uint64_t bytes);

}  // namespace qnn::util
