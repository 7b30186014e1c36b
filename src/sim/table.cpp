#include "sim/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/error.h"

namespace uwb::sim {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  detail::require(!headers_.empty(), "Table: need at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  detail::require(cells.size() == headers_.size(), "Table: cell count mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "  " << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

std::string Table::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

std::string Table::db(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f dB", precision, v);
  return buf;
}

std::string banner(const std::string& title) {
  return "\n=== " + title + " ===\n";
}

}  // namespace uwb::sim
