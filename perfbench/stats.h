// Sample sets, the shared result-row schema, and the run report every
// workload fills in.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A set of measurements with nearest-rank percentiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  double Stddev() const;
  /// Nearest-rank percentile, \p p in [0, 100]; 0 for an empty set.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }

 private:
  std::vector<double> values_;
};

/// One result row: the one schema every workload and layer reports in.
struct Row {
  std::string name;
  std::string layer;
  std::string workload;
  std::string unit;
  size_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;
};

/// What one run measured and checked.
struct Report {
  std::string workload;
  uint64_t attempted = 0;  ///< operations and gate checks attempted
  uint64_t failed = 0;     ///< failed or wrong among them
  std::vector<std::string> failures;  ///< first few failure messages
  /// The metrics of the result line: name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Deterministic work counters (traced run): equal across runs of one
  /// seed, which check_determinism.py verifies.
  std::map<std::string, double> counters;
  std::vector<Row> rows;

  /// Counts one checked operation; a false \p ok is a failure.
  void Check(bool ok, const std::string& what);
  /// Records a scalar metric of the result line and its row.
  void Metric(const std::string& name, const std::string& layer,
              double value, const std::string& unit);
  /// Like Metric, and also records it as a deterministic counter.
  void Counter(const std::string& name, const std::string& layer,
               double value, const std::string& unit);
  /// Adds a distribution row (p50/p99/... of \p samples).
  void AddRow(const std::string& name, const std::string& layer,
              const std::string& unit, const Samples& samples);
};

/// Renders \p rows as a JSON array of row objects, one per line.
std::string RowsJson(const std::vector<Row>& rows);

/// Escapes \p text for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& text);

/// Formats a double with all significant digits as a JSON number.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
