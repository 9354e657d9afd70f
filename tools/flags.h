// Minimal `--key value` flag parser shared by the sgnn_run and sgnn_serve
// CLIs. Arguments are read in pairs from argv[1]; a pair whose first word
// starts with "--" sets that key (a later pair wins), any other pair is
// ignored, and a trailing unpaired word is dropped. Numeric getters parse
// with atof/atoi and do no error checking.

#ifndef SGNN_TOOLS_FLAGS_H_
#define SGNN_TOOLS_FLAGS_H_

#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

namespace sgnn::tools {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        values_[argv[i] + 2] = argv[i + 1];
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  int GetInt(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace sgnn::tools

#endif  // SGNN_TOOLS_FLAGS_H_
