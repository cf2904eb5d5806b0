#include "util/strings.h"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace provmark::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_nonempty(std::string_view s, char delim) {
  std::vector<std::string> out;
  for (const std::string& piece : split(s, delim)) {
    std::string_view t = trim(piece);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\n' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out += s.substr(start);
      return out;
    }
    out += s.substr(start, pos - start);
    out += to;
    start = pos + from.size();
  }
}

std::uint64_t parse_count(std::string_view text, std::string_view what,
                          std::uint64_t min, std::uint64_t max) {
  bool valid = !text.empty();
  std::uint64_t value = 0;
  for (char c : text) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    // Stop before value * 10 + digit would pass max (or overflow).
    if (c < '0' || c > '9' || digit > max || value > (max - digit) / 10) {
      valid = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!valid || value < min) {
    throw std::invalid_argument(
        std::string(what) + " must be a whole number from " +
        std::to_string(min) + " to " + std::to_string(max) + ", got '" +
        std::string(text) + "'");
  }
  return value;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace provmark::util
