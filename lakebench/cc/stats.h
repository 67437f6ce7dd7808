// Percentiles and a minimal JSON writer for the benchmark's output.
#ifndef LAKEBENCH_STATS_H_
#define LAKEBENCH_STATS_H_

#include <string>
#include <utility>
#include <vector>

namespace lakebench {

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty set.
double Percentile(std::vector<double> values, double p);

/// An ordered JSON object built field by field (values are rendered when
/// added; nested objects go in through AddRaw).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, long long value);
  JsonObject& Add(const std::string& key, bool value);
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonObject& AddRaw(const std::string& key, std::string json);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace lakebench

#endif  // LAKEBENCH_STATS_H_
