#include "util/table.h"

#include <algorithm>
#include <cinttypes>

#include "util/check.h"

namespace fgm {

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  FGM_CHECK(!columns_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  FGM_CHECK_EQ(cells.size(), columns_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Cell(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string TablePrinter::Cell(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

void TablePrinter::Print(std::FILE* out) const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::fputs("|", out);
    for (size_t c = 0; c < cells.size(); ++c) {
      std::fprintf(out, " %-*s |", static_cast<int>(widths[c]),
                   cells[c].c_str());
    }
    std::fputs("\n", out);
  };
  auto print_rule = [&]() {
    std::fputs("+", out);
    for (size_t c = 0; c < widths.size(); ++c) {
      for (size_t i = 0; i < widths[c] + 2; ++i) std::fputc('-', out);
      std::fputc('+', out);
    }
    std::fputs("\n", out);
  };
  print_rule();
  print_row(columns_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

void PrintBanner(const std::string& title, std::FILE* out) {
  std::fprintf(out, "\n== %s ==\n", title.c_str());
}

}  // namespace fgm
