#include "runtime/journal.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>

namespace sgnn::runtime {

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string FmtDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal parser for the flat (depth-1) JSON objects this journal writes.
/// Unknown keys are kept, nested values rejected — the format is ours.
class FlatParser {
 public:
  bool Parse(const std::string& line) {
    size_t i = 0;
    SkipWs(line, &i);
    if (i >= line.size() || line[i] != '{') return false;
    ++i;
    SkipWs(line, &i);
    if (i < line.size() && line[i] == '}') return true;  // empty object
    while (i < line.size()) {
      std::string key;
      if (!ParseString(line, &i, &key)) return false;
      SkipWs(line, &i);
      if (i >= line.size() || line[i] != ':') return false;
      ++i;
      SkipWs(line, &i);
      if (i < line.size() && line[i] == '"') {
        std::string value;
        if (!ParseString(line, &i, &value)) return false;
        strings_[key] = value;
      } else {
        const size_t start = i;
        while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
        std::string token = line.substr(start, i - start);
        while (!token.empty() && std::isspace(
                   static_cast<unsigned char>(token.back()))) {
          token.pop_back();
        }
        if (token.empty() || token.front() == '{' || token.front() == '[') {
          return false;
        }
        scalars_[key] = token;
      }
      SkipWs(line, &i);
      if (i >= line.size()) return false;
      if (line[i] == '}') return true;
      if (line[i] != ',') return false;
      ++i;
      SkipWs(line, &i);
    }
    return false;
  }

  const std::string* GetString(const std::string& key) const {
    const auto it = strings_.find(key);
    return it == strings_.end() ? nullptr : &it->second;
  }

  bool GetDouble(const std::string& key, double* out) const {
    const auto it = scalars_.find(key);
    if (it == scalars_.end()) return false;
    *out = std::atof(it->second.c_str());
    return true;
  }

  bool GetBool(const std::string& key, bool* out) const {
    const auto it = scalars_.find(key);
    if (it == scalars_.end()) return false;
    *out = it->second == "true";
    return true;
  }

  const std::map<std::string, std::string>& scalars() const {
    return scalars_;
  }

 private:
  static void SkipWs(const std::string& s, size_t* i) {
    while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i]))) {
      ++*i;
    }
  }

  static bool ParseString(const std::string& s, size_t* i, std::string* out) {
    if (*i >= s.size() || s[*i] != '"') return false;
    ++*i;
    out->clear();
    while (*i < s.size()) {
      const char c = s[*i];
      if (c == '"') {
        ++*i;
        return true;
      }
      if (c == '\\') {
        ++*i;
        if (*i >= s.size()) return false;
        switch (s[*i]) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (*i + 4 >= s.size()) return false;
            const long code = std::strtol(s.substr(*i + 1, 4).c_str(),
                                          nullptr, 16);
            out->push_back(static_cast<char>(code));
            *i += 4;
            break;
          }
          default: return false;
        }
        ++*i;
      } else {
        out->push_back(c);
        ++*i;
      }
    }
    return false;
  }

  std::map<std::string, std::string> strings_;
  std::map<std::string, std::string> scalars_;
};

/// Reads numeric field `key` into the integer *out when present. A value
/// that is not finite or whose integer part lies outside T would make the
/// cast undefined behaviour, so it is InvalidArgument instead.
template <typename T>
Status GetInteger(const FlatParser& parser, const std::string& key, T* out) {
  double num = 0.0;
  if (!parser.GetDouble(key, &num)) return Status::OK();
  // min() is exact in double; max() + 1 rounds to the power of two just
  // past T's range.
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  if (!std::isfinite(num) || num < lo || num >= hi) {
    return Status::InvalidArgument("journal field out of range: " + key);
  }
  *out = static_cast<T>(num);
  return Status::OK();
}

}  // namespace

const char* CellStatusName(CellStatus status) {
  switch (status) {
    case CellStatus::kOk: return "OK";
    case CellStatus::kOom: return "OOM";
    case CellStatus::kTimeout: return "TIMEOUT";
    case CellStatus::kDiverged: return "DIVERGED";
    case CellStatus::kSkipped: return "SKIPPED";
    case CellStatus::kFailed: return "FAILED";
  }
  return "FAILED";
}

CellStatus CellStatusFromName(const std::string& name) {
  if (name == "OK") return CellStatus::kOk;
  if (name == "OOM") return CellStatus::kOom;
  if (name == "TIMEOUT") return CellStatus::kTimeout;
  if (name == "DIVERGED") return CellStatus::kDiverged;
  if (name == "SKIPPED") return CellStatus::kSkipped;
  return CellStatus::kFailed;
}

std::string CellKey::Id() const {
  return dataset + "/" + filter + "/" + scheme + "/" + std::to_string(seed) +
         "/" + variant;
}

double CellRecord::Extra(const std::string& name, double fallback) const {
  for (const auto& [key, value] : extras) {
    if (key == name) return value;
  }
  return fallback;
}

std::string EncodeRecord(const std::string& bench, const CellRecord& record) {
  std::string out = "{\"bench\":";
  AppendEscaped(bench, &out);
  out += ",\"dataset\":";
  AppendEscaped(record.key.dataset, &out);
  out += ",\"filter\":";
  AppendEscaped(record.key.filter, &out);
  out += ",\"scheme\":";
  AppendEscaped(record.key.scheme, &out);
  out += ",\"seed\":" + std::to_string(record.key.seed);
  out += ",\"variant\":";
  AppendEscaped(record.key.variant, &out);
  out += ",\"terminal\":";
  out += record.terminal ? "true" : "false";
  out += ",\"status\":";
  AppendEscaped(CellStatusName(record.status), &out);
  out += ",\"final_scheme\":";
  AppendEscaped(record.final_scheme, &out);
  out += ",\"fell_back\":";
  out += record.fell_back ? "true" : "false";
  out += ",\"attempts\":" + std::to_string(record.attempts);
  out += ",\"detail\":";
  AppendEscaped(record.detail, &out);
  out += ",\"val\":" + FmtDouble(record.val_metric);
  out += ",\"test\":" + FmtDouble(record.test_metric);
  out += ",\"loss\":" + FmtDouble(record.train_loss);
  out += ",\"pre_ms\":" + FmtDouble(record.stats.precompute_ms);
  out += ",\"train_ms\":" + FmtDouble(record.stats.train_ms_per_epoch);
  out += ",\"infer_ms\":" + FmtDouble(record.stats.infer_ms);
  out += ",\"ram_bytes\":" + std::to_string(record.stats.peak_ram_bytes);
  out += ",\"accel_bytes\":" + std::to_string(record.stats.peak_accel_bytes);
  out += ",\"threads\":" + std::to_string(record.stats.threads);
  out += ",\"shards\":" + std::to_string(record.stats.shards);
  out += ",\"shard_spills\":" + std::to_string(record.stats.shard_spills);
  out += ",\"wall_ms\":" + FmtDouble(record.wall_ms);
  for (const auto& [name, value] : record.extras) {
    out += ",";
    AppendEscaped("x_" + name, &out);
    out += ':';
    out += FmtDouble(value);
  }
  out += "}";
  return out;
}

Result<CellRecord> DecodeRecord(const std::string& line) {
  FlatParser parser;
  if (!parser.Parse(line)) {
    return Status::InvalidArgument("malformed journal line");
  }
  const std::string* dataset = parser.GetString("dataset");
  const std::string* filter = parser.GetString("filter");
  const std::string* scheme = parser.GetString("scheme");
  if (dataset == nullptr || filter == nullptr || scheme == nullptr) {
    return Status::InvalidArgument("journal line missing cell key");
  }
  CellRecord r;
  r.key.dataset = *dataset;
  r.key.filter = *filter;
  r.key.scheme = *scheme;
  SGNN_RETURN_IF_ERROR(GetInteger(parser, "seed", &r.key.seed));
  if (const std::string* s = parser.GetString("variant")) r.key.variant = *s;
  parser.GetBool("terminal", &r.terminal);
  if (const std::string* s = parser.GetString("status")) {
    r.status = CellStatusFromName(*s);
  }
  if (const std::string* s = parser.GetString("final_scheme")) {
    r.final_scheme = *s;
  }
  parser.GetBool("fell_back", &r.fell_back);
  SGNN_RETURN_IF_ERROR(GetInteger(parser, "attempts", &r.attempts));
  if (const std::string* s = parser.GetString("detail")) r.detail = *s;
  parser.GetDouble("val", &r.val_metric);
  parser.GetDouble("test", &r.test_metric);
  parser.GetDouble("loss", &r.train_loss);
  parser.GetDouble("pre_ms", &r.stats.precompute_ms);
  parser.GetDouble("train_ms", &r.stats.train_ms_per_epoch);
  parser.GetDouble("infer_ms", &r.stats.infer_ms);
  SGNN_RETURN_IF_ERROR(
      GetInteger(parser, "ram_bytes", &r.stats.peak_ram_bytes));
  SGNN_RETURN_IF_ERROR(
      GetInteger(parser, "accel_bytes", &r.stats.peak_accel_bytes));
  SGNN_RETURN_IF_ERROR(GetInteger(parser, "threads", &r.stats.threads));
  SGNN_RETURN_IF_ERROR(GetInteger(parser, "shards", &r.stats.shards));
  SGNN_RETURN_IF_ERROR(
      GetInteger(parser, "shard_spills", &r.stats.shard_spills));
  parser.GetDouble("wall_ms", &r.wall_ms);
  for (const auto& [key, raw] : parser.scalars()) {
    if (key.rfind("x_", 0) == 0) {
      r.extras.emplace_back(key.substr(2), std::atof(raw.c_str()));
    }
  }
  return r;
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  // Replay completed cells, tolerating a torn final line from a crash.
  if (std::FILE* f = std::fopen(path_.c_str(), "r")) {
    std::string line;
    int c = 0;
    while ((c = std::fgetc(f)) != EOF) {
      if (c != '\n') {
        line.push_back(static_cast<char>(c));
        continue;
      }
      if (!line.empty()) {
        auto record = DecodeRecord(line);
        if (record.ok() && record.value().terminal) {
          terminal_[record.value().key.Id()] = record.MoveValue();
          ++replayed_;
        }
      }
      line.clear();
    }
    std::fclose(f);
  }
  file_ = std::fopen(path_.c_str(), "a");
  if (file_ == nullptr) {
    std::fprintf(stderr, "journal: cannot append to %s; journaling disabled\n",
                 path_.c_str());
    path_.clear();
  }
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

void Journal::Append(const std::string& bench, const CellRecord& record) {
  if (file_ == nullptr) return;
  if (record.terminal) terminal_[record.key.Id()] = record;
  const std::string line = EncodeRecord(bench, record);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  std::fflush(file_);
}

const CellRecord* Journal::Find(const CellKey& key) const {
  const auto it = terminal_.find(key.Id());
  return it == terminal_.end() ? nullptr : &it->second;
}

}  // namespace sgnn::runtime
