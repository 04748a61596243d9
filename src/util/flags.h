// Minimal command-line flag parsing for examples and benchmark binaries.
//
// Accepts `--name=value` and `--name value` forms plus bare `--name` for
// booleans. Unknown flags are collected and reported by Unparsed() so
// binaries can reject typos. A numeric value must parse completely
// ("14400s", "0.1x" and "abc" are errors, not 14400, 0.1 and 0), and
// count-like options read through GetCount() also reject negative
// values; Validate() turns any of these problems into a usage message on
// stderr.

#ifndef FGM_UTIL_FLAGS_H_
#define FGM_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fgm {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  /// Numeric getters. A value that does not parse completely is recorded
  /// for Validate() and the default is returned in its place.
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Like GetInt, but for count-like options where a negative value is
  /// also a usage error.
  int64_t GetCount(const std::string& name, int64_t default_value) const;

  /// True when every provided flag was consumed by a getter and every
  /// numeric value was valid. Otherwise prints one line per problem
  /// (unknown flag / bad value) followed by `usage` to stderr and
  /// returns false; callers exit with a usage error.
  bool Validate(const char* usage) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names that were provided but never read through a getter.
  std::vector<std::string> Unparsed() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  mutable std::vector<std::string> errors_;
  std::vector<std::string> positional_;
};

}  // namespace fgm

#endif  // FGM_UTIL_FLAGS_H_
