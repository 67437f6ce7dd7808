#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace lakebench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  char buf[64];
  // %.17g keeps every digit, so run-to-run comparisons see all of it.
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, long long value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + bauplan::EscapeJson(value) + "\"");
  return *this;
}

JsonObject& JsonObject::AddRaw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + bauplan::EscapeJson(fields_[i].first) + "\": ";
    out += fields_[i].second;
  }
  return out + "}";
}

}  // namespace lakebench
