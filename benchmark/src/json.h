// The two JSON spellings the benchmark writes: escaped strings and numbers
// with every digit (so two measurements never round to the same text).
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <string_view>

namespace bilbench {

[[nodiscard]] inline std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Round-trip precision, locale-independent; non-finite values become 0
/// (JSON has no spelling for them).
[[nodiscard]] inline std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

}  // namespace bilbench
