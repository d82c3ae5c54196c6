#include "util/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/status.h"

namespace tasti {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  TASTI_CHECK(!headers_.empty(), "table requires at least one column");
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  TASTI_CHECK(cells.size() == headers_.size(), "row arity must match headers");
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << "  " << row[c];
      if (c + 1 < row.size()) {
        out << std::string(widths[c] - row[c].size(), ' ');
      }
    }
    out << "\n";
  };
  emit_row(headers_);
  size_t rule = 0;
  for (size_t w : widths) rule += w + 2;
  out << "  " << std::string(rule, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string Fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FmtCount(long long value) {
  const bool neg = value < 0;
  unsigned long long mag = neg ? static_cast<unsigned long long>(-value)
                               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(mag);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string FmtK(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fk", value / 1000.0);
  return buf;
}

std::string FmtPercent(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

std::string FmtDollars(double dollars) {
  return "$" + FmtCount(static_cast<long long>(std::llround(dollars)));
}

}  // namespace tasti
