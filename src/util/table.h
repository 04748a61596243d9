// Fixed-width table printing for experiment output.
//
// Every benchmark binary prints the rows/series of the paper table or
// figure it reproduces; TablePrinter keeps that output aligned and easy to
// diff or paste into plotting tools (also emits CSV on request).

#ifndef FGM_UTIL_TABLE_H_
#define FGM_UTIL_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace fgm {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns);

  /// Appends a row; the number of cells must match the header.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with %.4g and ints with %lld.
  static std::string Cell(double v);
  static std::string Cell(int64_t v);
  static std::string Cell(const std::string& v) { return v; }

  /// Prints an aligned, boxed table to `out` (default stdout).
  void Print(std::FILE* out = stdout) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner, e.g. "== Figure 2: ... ==".
void PrintBanner(const std::string& title, std::FILE* out = stdout);

}  // namespace fgm

#endif  // FGM_UTIL_TABLE_H_
