#include "common/flags.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"

namespace omg::common {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // bare boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";
    }
  }
  return flags;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw CheckError("flag --" + name + " is not an integer: " + it->second);
  }
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw std::invalid_argument(it->second);
    return value;
  } catch (const std::exception&) {
    throw CheckError("flag --" + name + " is not a number: " + it->second);
  }
}

std::vector<std::int64_t> Flags::GetIntList(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> values;
  const std::string& text = it->second;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    const std::string item = text.substr(begin, comma - begin);
    try {
      std::size_t used = 0;
      values.push_back(std::stoll(item, &used));
      if (used != item.size()) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      throw CheckError("flag --" + name +
                       " is not a comma-separated integer list: " + text);
    }
    begin = comma + 1;
  }
  return values;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw CheckError("flag --" + name + " is not a boolean: " + v);
}

bool Flags::Has(const std::string& name) const {
  return values_.contains(name);
}

void Flags::CheckAllowed(const std::vector<std::string>& allowed) const {
  for (const auto& [name, _] : values_) {
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw CheckError("unknown flag --" + name);
    }
  }
}

}  // namespace omg::common
