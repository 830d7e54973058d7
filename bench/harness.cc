#include "bench/harness.h"

#include <algorithm>
#include <chrono>

#include "util/string_util.h"

namespace idm::bench {

Pipeline BuildPipeline(const workload::DataspaceSpec& spec,
                       iql::Dataspace::Config config) {
  Pipeline pipeline;
  pipeline.ds = std::make_unique<iql::Dataspace>(config);
  auto t0 = std::chrono::steady_clock::now();
  std::fprintf(stderr, "[harness] generating synthetic dataspace (seed %llu)...\n",
               static_cast<unsigned long long>(spec.seed));
  pipeline.built = workload::Generate(spec, pipeline.ds->clock());
  pipeline.generate_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fprintf(stderr, "[harness] indexing Filesystem source...\n");
  auto fs_stats = pipeline.ds->AddFileSystem("Filesystem", pipeline.built.fs);
  if (!fs_stats.ok()) {
    std::fprintf(stderr, "[harness] FATAL: %s\n",
                 fs_stats.status().ToString().c_str());
    std::abort();
  }
  pipeline.fs_stats = *fs_stats;
  std::fprintf(stderr, "[harness] indexing Email / IMAP source...\n");
  auto mail_stats = pipeline.ds->AddImap("Email / IMAP", pipeline.built.imap);
  if (!mail_stats.ok()) {
    std::fprintf(stderr, "[harness] FATAL: %s\n",
                 mail_stats.status().ToString().c_str());
    std::abort();
  }
  pipeline.mail_stats = *mail_stats;
  return pipeline;
}

const std::vector<PaperQuery>& Table4Queries() {
  // paper_seconds are read off Figure 6 (approximate bar heights).
  static const std::vector<PaperQuery> kQueries = {
      {"Q1", "\"database\"", 941, 0.09},
      {"Q2", "\"database tuning\"", 39, 0.05},
      {"Q3", "[size > 420000 and lastmodified < @12.06.2005]", 88, 0.07},
      {"Q4", "//papers//*Vision/*[\"Franklin\"]", 2, 0.05},
      {"Q5", "//VLDB200?//?onclusion*/*[\"systems\"]", 2, 0.05},
      {"Q6",
       "union( //VLDB2005//*[\"documents\"], //VLDB2006//*[\"documents\"])",
       31, 0.10},
      {"Q7",
       "join( //VLDB2006//*[class=\"texref\"] as A, "
       "//VLDB2006//*[class=\"environment\"]//figure* as B, "
       "A.name=B.tuple.label)",
       21, 0.15},
      {"Q8",
       "join ( //*[class = \"emailmessage\"]//*.tex as A, "
       "//papers//*.tex as B, A.name = B.name )",
       16, 0.50},
  };
  return kQueries;
}

BenchMeta MetaFor(const std::string& bench,
                  const workload::DataspaceSpec& spec) {
  BenchMeta meta;
  meta.bench = bench;
  meta.seed = spec.seed;
  meta.scale = spec.fs_folders >= workload::DataspaceSpec::PaperScale()
                                      .fs_folders
                   ? "paper"
                   : "small";
  return meta;
}

std::string MetaJson(const BenchMeta& meta) {
  // All fields are bench-controlled identifiers; no JSON escaping needed.
  std::string json = "{\"bench\": \"" + meta.bench +
                     "\", \"seed\": " + std::to_string(meta.seed) +
                     ", \"scale\": \"" + meta.scale + "\"";
  if (!meta.phase.empty()) json += ", \"phase\": \"" + meta.phase + "\"";
  json += "}";
  return json;
}

bool WriteParallelJson(const std::string& path, const BenchMeta& meta,
                       const std::vector<ParallelBenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[harness] cannot write %s\n", path.c_str());
    return false;
  }
  // Row names are bench-controlled identifiers (Q1..Q8 etc.); no JSON
  // string escaping is needed beyond what they already satisfy.
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"meta\": %s,\n  \"rows\": [\n",
               meta.bench.c_str(), MetaJson(meta).c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ParallelBenchRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"mode\": \"%s\", "
                 "\"threads\": %zu, "
                 "\"serial_ms\": %.4f, \"mean_ms\": %.4f, \"p50_ms\": %.4f, "
                 "\"speedup\": %.3f, "
                 "\"ops_per_sec\": %.2f, \"cache_hit_rate\": %.3f, "
                 "\"identical_to_serial\": %s}%s\n",
                 r.name.c_str(), r.mode.c_str(), r.threads,
                 r.serial_ms, r.mean_ms, r.p50_ms, r.speedup, r.ops_per_sec,
                 r.cache_hit_rate, r.identical_to_serial ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[harness] wrote %s (%zu rows)\n", path.c_str(),
               rows.size());
  return true;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

std::string Mb(uint64_t bytes) { return BytesToMb(bytes); }

std::string Sec(Micros micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", micros / 1e6);
  return buf;
}

std::string Min(Micros micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", micros / 6e7);
  return buf;
}

void Rule(int n) {
  for (int i = 0; i < n; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace idm::bench
