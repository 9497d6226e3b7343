#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/bytes.hpp"

namespace mns::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& key) const {
  queried_[key] = true;
  return values_.count(key) > 0;
}

std::string Flags::get(const std::string& key, const std::string& def) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  const auto text = get(key, "");
  if (text.empty()) return def;
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(text, &used);
    // Full-string parse: "8x" or "8 " must not silently read as 8.
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " expects an integer, got '" +
                                text + "'");
  }
}

std::uint64_t Flags::get_uint(const std::string& key,
                              std::uint64_t def) const {
  const auto text = get(key, "");
  if (text.empty()) return def;
  try {
    if (text[0] == '-') throw std::invalid_argument(text);
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key +
                                " expects a non-negative integer, got '" +
                                text + "'");
  }
}

double Flags::get_double(const std::string& key, double def) const {
  const auto text = get(key, "");
  if (text.empty()) return def;
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " expects a number, got '" +
                                text + "'");
  }
}

bool Flags::get_bool(const std::string& key, bool def) const {
  const auto text = get(key, "");
  if (text.empty()) return def;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw std::invalid_argument("flag --" + key + " expects a boolean, got '" +
                              text + "'");
}

std::uint64_t Flags::get_size(const std::string& key, std::uint64_t def) const {
  const auto text = get(key, "");
  if (text.empty()) return def;
  return parse_size(text);
}

void Flags::reject_unknown() const {
  for (const auto& [key, value] : values_) {
    if (!queried_.count(key)) {
      throw std::invalid_argument("unknown flag --" + key + "=" + value);
    }
  }
}

int run_cli_thunk(int (*fn)(void*), void* ctx) {
  try {
    return fn(ctx);
  } catch (const std::invalid_argument& e) {
    // Malformed flag values (--seed=abc, --faults=drop:x) are user error,
    // not a crash: print the message and exit with a distinct code
    // instead of letting the exception escape main into std::terminate.
    std::fprintf(stderr, "error: %s\n", e.what());  // simcheck-allow: stdout
    return 2;
  }
}

}  // namespace mns::util
