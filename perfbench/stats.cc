#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Min() const {
  return values_.empty() ? 0
                         : *std::min_element(values_.begin(), values_.end());
}

double Samples::Max() const {
  return values_.empty() ? 0
                         : *std::max_element(values_.begin(), values_.end());
}

double Samples::Stddev() const {
  if (values_.size() < 2) return 0;
  const double mean = Mean();
  double sum = 0;
  for (double value : values_) sum += (value - mean) * (value - mean);
  return std::sqrt(sum / static_cast<double>(values_.size() - 1));
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

void Report::Metric(const std::string& name, const std::string& layer,
                    double value, const std::string& unit) {
  metrics[name] = {value, unit};
  rows.push_back({name, layer, workload, unit, 1, value, value, value, value,
                  value, 0});
}

void Report::Counter(const std::string& name, const std::string& layer,
                     double value, const std::string& unit) {
  Metric(name, layer, value, unit);
  counters[name] = value;
}

void Report::AddRow(const std::string& name, const std::string& layer,
                    const std::string& unit, const Samples& samples) {
  rows.push_back({name, layer, workload, unit, samples.count(), samples.Mean(),
                  samples.Percentile(50), samples.Percentile(99),
                  samples.Min(), samples.Max(), samples.Stddev()});
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string RowsJson(const std::vector<Row>& rows) {
  std::string out = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += "  {\"name\": \"" + JsonEscape(r.name) + "\", \"layer\": \"" +
           JsonEscape(r.layer) + "\", \"workload\": \"" +
           JsonEscape(r.workload) + "\", \"unit\": \"" + JsonEscape(r.unit) +
           "\", \"count\": " + std::to_string(r.count) +
           ", \"mean\": " + JsonNumber(r.mean) +
           ", \"p50\": " + JsonNumber(r.p50) +
           ", \"p99\": " + JsonNumber(r.p99) +
           ", \"min\": " + JsonNumber(r.min) +
           ", \"max\": " + JsonNumber(r.max) +
           ", \"stddev\": " + JsonNumber(r.stddev) + "}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

}  // namespace perfbench
