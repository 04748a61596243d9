#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/check.h"

namespace fgm {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + name + " expects an integer, got \"" +
                      it->second + "\"");
    return default_value;
  }
  return value;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + name + " expects a number, got \"" +
                      it->second + "\"");
    return default_value;
  }
  return value;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  read_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

int64_t Flags::GetCount(const std::string& name,
                        int64_t default_value) const {
  const int64_t value = GetInt(name, default_value);
  if (value >= 0 || !Has(name)) return value;
  errors_.push_back("--" + name + " must be non-negative, got " +
                    values_.at(name));
  return default_value;
}

bool Flags::Validate(const char* usage) const {
  std::vector<std::string> problems = errors_;
  for (const std::string& name : Unparsed()) {
    problems.push_back("unknown flag --" + name);
  }
  if (problems.empty()) return true;
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s\n", p.c_str());
  }
  if (usage != nullptr && usage[0] != '\0') {
    std::fprintf(stderr, "usage: %s\n", usage);
  }
  return false;
}

std::vector<std::string> Flags::Unparsed() const {
  std::vector<std::string> result;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!read_.count(name)) result.push_back(name);
  }
  return result;
}

}  // namespace fgm
