// Shared helpers for the table/figure benchmark binaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

namespace lls::bench {

/// printf into a std::string.
inline std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Fixed-width text table: add_row cells, print() aligns columns.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> width(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size() && i < width.size(); ++i) {
        width[i] = std::max(width[i], row[i].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);

    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < width.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(width[i]),
                    i < row.size() ? row[i].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(header_);
    std::size_t total = 0;
    for (std::size_t w : width) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline void banner(const char* id, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", id);
  std::printf("Claim: %s\n", claim);
  std::printf("================================================================\n\n");
}

/// Streaming JSON writer: explicit begin/end structure calls, automatic
/// commas, minimal string escaping. Small enough that the bench binaries
/// can emit machine-readable results (BENCH_*.json) with no dependency.
class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  /// Key inside an object; follow with exactly one value or begin_*.
  Json& key(const std::string& name) {
    comma();
    escape(name);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  Json& value(const std::string& v) { comma(); escape(v); return *this; }
  Json& value(const char* v) { return value(std::string(v)); }
  Json& value(double v) {
    comma();
    // JSON has no NaN/Inf; clamp to null.
    if (std::isfinite(v)) {
      out_ += format("%.6g", v);
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& value(std::uint64_t v) { comma(); out_ += format("%llu", (unsigned long long)v); return *this; }
  Json& value(std::int64_t v) { comma(); out_ += format("%lld", (long long)v); return *this; }
  Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(bool v) { comma(); out_ += v ? "true" : "false"; return *this; }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    need_comma_.push_back(false);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    if (!need_comma_.empty()) need_comma_.pop_back();
    return *this;
  }
  void comma() {
    if (pending_value_) {
      pending_value_ = false;  // value right after key: no comma
      return;
    }
    if (!need_comma_.empty()) {
      if (need_comma_.back()) out_ += ',';
      need_comma_.back() = true;
    }
  }
  void escape(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out_ += format("\\u%04x", c);
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> need_comma_;
  bool pending_value_ = false;
};

/// Writes a JSON document to `path` (with trailing newline); returns false
/// and prints to stderr on I/O failure.
inline bool write_json_file(const std::string& path, const Json& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

/// The git revision of the source tree at `source_dir` (`git describe
/// --always --dirty`), or "unknown" outside a checkout.
inline std::string git_revision(const std::string& source_dir) {
  const std::string cmd = "git -C '" + source_dir +
                          "' describe --always --dirty --abbrev=12 2>/dev/null";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buf[128] = {};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  pclose(pipe);
  std::string rev = got ? buf : "";
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

/// Stamps the machine a result was measured on, as perfbench's `host` line
/// does: online cores, the build type and the source revision. Call inside
/// an object; it adds one "machine" member.
inline void machine_stamp(Json& json, const std::string& build_type,
                          const std::string& source_dir) {
  json.key("machine").begin_object();
  json.key("nproc").value(
      static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.key("build_type").value(build_type);
  json.key("git_sha").value(git_revision(source_dir));
  json.end_object();
}

}  // namespace lls::bench
