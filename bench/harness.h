// Shared support for the reproduction benches: builds the paper-scale
// pipeline (generate → register → index) once per binary and provides the
// Table 4 query set and formatting helpers.

#ifndef IDM_BENCH_HARNESS_H_
#define IDM_BENCH_HARNESS_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "iql/dataspace.h"
#include "workload/generator.h"

namespace idm::bench {

/// The generated-and-indexed PDSMS used by the table/figure benches.
struct Pipeline {
  std::unique_ptr<iql::Dataspace> ds;
  workload::BuiltDataspace built;
  rvm::SourceIndexStats fs_stats;
  rvm::SourceIndexStats mail_stats;
  double generate_seconds = 0;
};

/// Builds the pipeline. Prints progress to stderr.
Pipeline BuildPipeline(const workload::DataspaceSpec& spec,
                       iql::Dataspace::Config config = {});

/// One evaluation query: our analog of a Table 4 row, with the numbers the
/// paper reports for comparison (times read off Figure 6, approximate).
struct PaperQuery {
  const char* id;
  const char* iql;
  size_t paper_results;
  double paper_seconds;
};

/// The eight Table 4 queries (analog expressions over the synthetic
/// dataspace; identical shapes and operators).
const std::vector<PaperQuery>& Table4Queries();

/// Structured run metadata stamped into every BENCH_*.json so a result
/// file is self-describing: which bench produced it, from which generator
/// seed, at which scale, and (when the bench is phased) which phase.
struct BenchMeta {
  std::string bench;            ///< bench id ("parallel_scaling", …)
  uint64_t seed = 0;            ///< workload::DataspaceSpec seed
  std::string scale = "small";  ///< "small" | "paper"
  std::string phase;            ///< phase/scenario label ("" = unphased)
};

/// Fills bench/seed/scale from \p spec (scale inferred from the folder
/// count: PaperScale() ⇔ >= PaperScale().folders).
BenchMeta MetaFor(const std::string& bench,
                  const workload::DataspaceSpec& spec);

/// Renders \p meta as a JSON object: {"bench": ..., "seed": N, "scale":
/// ...} with "phase" included only when non-empty.
std::string MetaJson(const BenchMeta& meta);

/// One row of the machine-readable parallel-execution report: a
/// (scenario, configuration) measurement from the scaling/fig6 benches.
struct ParallelBenchRow {
  std::string name;        ///< query / scenario id (e.g. "Q8")
  std::string mode;        ///< "serial" | "threads" | "cache"
  size_t threads = 1;
  double serial_ms = 0;    ///< baseline mean
  double mean_ms = 0;      ///< this configuration's mean time
  double p50_ms = 0;       ///< this configuration's median time (0 = n/a)
  double speedup = 0;      ///< serial_ms / mean_ms
  double ops_per_sec = 0;  ///< 1000 / mean_ms
  double cache_hit_rate = 0;        ///< hits / lookups while measuring
  bool identical_to_serial = true;  ///< differential check outcome
};

/// Median of \p samples (by copy; empty -> 0).
double Median(std::vector<double> samples);

/// Writes \p rows as `{"bench": ..., "meta": {...}, "rows": [...]}` to
/// \p path (the driver's BENCH_parallel.json). Returns false and complains
/// on stderr when the file cannot be written.
bool WriteParallelJson(const std::string& path, const BenchMeta& meta,
                       const std::vector<ParallelBenchRow>& rows);

/// Bytes → "12.5" MB string.
std::string Mb(uint64_t bytes);

/// Microseconds → seconds/minutes strings.
std::string Sec(Micros micros);
std::string Min(Micros micros);

/// Prints a horizontal rule of width \p n.
void Rule(int n);

}  // namespace idm::bench

#endif  // IDM_BENCH_HARNESS_H_
