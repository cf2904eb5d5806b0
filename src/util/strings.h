// Small string utilities shared across the library.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace provmark::util {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on a delimiter and drop empty fields after trimming each piece.
std::vector<std::string> split_nonempty(std::string_view s, char delim);

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Join pieces with a separator.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// `text` as a user-supplied whole number in min..max: decimal digits
/// only — no sign, space, exponent or trailing characters. Throws
/// std::invalid_argument naming `what` and the accepted range otherwise.
/// The one parser behind every numeric command-line value.
std::uint64_t parse_count(std::string_view text, std::string_view what,
                          std::uint64_t min, std::uint64_t max);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace provmark::util
