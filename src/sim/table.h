#pragma once
/// \file table.h
/// \brief Fixed-width console tables: the benches and examples print their
///        measurements through this, so outputs are uniform and diffable.

#include <iosfwd>
#include <string>
#include <vector>

namespace uwb::sim {

/// Column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row (cells are pre-formatted strings).
  void add_row(std::vector<std::string> cells);

  /// Renders with column padding and a header rule.
  [[nodiscard]] std::string to_string() const;

  /// Convenience printers for cell values.
  static std::string num(double v, int precision = 3);
  static std::string sci(double v, int precision = 2);
  static std::string integer(long long v);
  static std::string db(double v, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner ("=== E5: ADC resolution ===").
std::string banner(const std::string& title);

}  // namespace uwb::sim
