// Minimal `--key value` / `--flag` argument parsing for psd_bench.
#pragma once

#include <cstdlib>
#include <map>
#include <string>

namespace psdbench {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      key = key.substr(2);
      const bool has_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      kv_[key] = has_value ? argv[++i] : "1";
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return kv_.count(key) != 0;
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace psdbench
