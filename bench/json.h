// Minimal JSON emitter for committed bench result files (BENCH_*.json).
//
// A JsonDoc is one bench run: a top-level object with the bench name and
// a "rows" array of flat objects. The writer emits one row per line so a
// re-run produces a clean, line-oriented git diff — the committed file's
// history IS the perf trajectory (see ROADMAP.md item 2). No parsing, no
// nesting: benches only ever append flat rows.
//
// Correctness contract (tests/json_test.cc pins it):
//   * output is valid JSON for EVERY double — NaN and +-Inf, which JSON
//     has no literal for, are emitted as null rather than the bare
//     `nan`/`inf` tokens printf produces;
//   * number formatting goes through std::to_chars, which is
//     locale-independent by definition (a global LC_NUMERIC with a comma
//     decimal separator must not corrupt the file) and produces the
//     shortest representation that round-trips the exact double, so a
//     re-run that computes the same value diffs clean at full precision;
//   * row handles returned by AddRow() stay valid for the lifetime of
//     the document (rows live in a deque — no reallocation moves them).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

namespace kcore::bench {

namespace internal {

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// Locale-independent shortest-round-trip rendering; null for values JSON
// cannot represent.
inline std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "null";  // cannot happen with a 64B buffer
  return std::string(buf, ptr);
}

}  // namespace internal

class JsonRow {
 public:
  JsonRow& Str(const std::string& key, const std::string& value) {
    // Built with append: GCC 12's -Wrestrict misfires on
    // "literal" + std::string&& (a false positive in <bits/char_traits.h>).
    std::string quoted = "\"";
    quoted += internal::JsonEscape(value);
    quoted += '"';
    fields_.emplace_back(key, std::move(quoted));
    return *this;
  }
  JsonRow& Num(const std::string& key, double value) {
    fields_.emplace_back(key, internal::JsonNumber(value));
    return *this;
  }
  JsonRow& Int(const std::string& key, long long value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRow& Bool(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  std::string Render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += internal::JsonEscape(fields_[i].first);
      out += "\": ";
      out += fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

class JsonDoc {
 public:
  explicit JsonDoc(std::string bench_name) : name_(std::move(bench_name)) {}

  // The reference stays valid until the document is destroyed (deque
  // storage): callers may hold several row handles and fill them
  // interleaved.
  JsonRow& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  std::string Render() const {
    std::string out =
        "{\"bench\": \"" + internal::JsonEscape(name_) + "\", \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += "  " + rows_[i].Render();
      if (i + 1 < rows_.size()) out += ",";
      out += "\n";
    }
    out += "]}\n";
    return out;
  }

  // Overwrites `path` with the full document. False on I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = Render();
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::string name_;
  std::deque<JsonRow> rows_;
};

}  // namespace kcore::bench
