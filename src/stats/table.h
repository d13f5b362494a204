// Aligned text tables for CLI output (the "rows the paper reports").
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace bil::stats {

/// Builds and prints a column-aligned table. Cells are preformatted strings;
/// numeric helpers below format common cases consistently across tools.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> row);

  /// Pretty-prints with a header rule, right-aligning numeric-looking cells.
  void print(std::ostream& os) const;

  /// Comma-separated form for machine consumption.
  void print_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-point with `digits` decimals (e.g. fmt_fixed(3.14159, 2) == "3.14").
[[nodiscard]] std::string fmt_fixed(double value, int digits);

/// Integer with no decoration.
[[nodiscard]] std::string fmt_int(std::uint64_t value);

}  // namespace bil::stats
