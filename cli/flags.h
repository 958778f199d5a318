// Minimal --flag=value / --flag value command-line parsing for the cloudgen
// CLI. Each command declares the flags it reads; unknown flags and numeric
// flags whose value is not a whole number of the declared type are errors,
// reported before the command runs.
#ifndef CLI_FLAGS_H_
#define CLI_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace cloudgen {

// kBool and kString values are taken as given; kLong and kDouble values must
// parse completely (no empty value, no trailing characters) and be in range.
enum class FlagType { kBool, kString, kLong, kDouble };

struct FlagSpec {
  const char* name;  // Without the leading "--".
  FlagType type;
};

class Flags {
 public:
  // Parses argv[first..argc) against `specs`; returns false (with a message
  // naming the offending flag to stderr) on a stray argument, an unknown
  // flag, or a malformed numeric value.
  bool Parse(int argc, char** argv, int first, const std::vector<FlagSpec>& specs);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  std::string GetString(const std::string& name, const std::string& fallback) const;
  long GetLong(const std::string& name, long fallback) const;
  double GetDouble(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

namespace flags_internal {

inline bool ParseLong(const std::string& text, long* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtol(text.c_str(), &end, 10);
  return !text.empty() && *end == '\0' && errno != ERANGE;
}

inline bool ParseDouble(const std::string& text, double* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && errno != ERANGE && std::isfinite(*value);
}

}  // namespace flags_internal

inline bool Flags::Parse(int argc, char** argv, int first,
                         const std::vector<FlagSpec>& specs) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";  // Boolean flag.
    }
  }
  for (const auto& [name, value] : values_) {
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : specs) {
      if (name == candidate.name) {
        spec = &candidate;
        break;
      }
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      return false;
    }
    long as_long = 0;
    double as_double = 0.0;
    if ((spec->type == FlagType::kLong && !flags_internal::ParseLong(value, &as_long)) ||
        (spec->type == FlagType::kDouble &&
         !flags_internal::ParseDouble(value, &as_double))) {
      std::fprintf(stderr, "--%s: malformed or out-of-range number: '%s'\n",
                   name.c_str(), value.c_str());
      return false;
    }
  }
  return true;
}

inline std::string Flags::GetString(const std::string& name,
                                    const std::string& fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? it->second : fallback;
}

inline long Flags::GetLong(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? std::strtol(it->second.c_str(), nullptr, 10) : fallback;
}

inline double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it != values_.end() ? std::strtod(it->second.c_str(), nullptr) : fallback;
}

}  // namespace cloudgen

#endif  // CLI_FLAGS_H_
