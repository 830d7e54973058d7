// Microbenchmarks of the index substrate (google-benchmark): inverted
// index build/lookup, tuple-index range scans, name-index wildcard lookups,
// group-store reachability. These are the primitives behind Fig. 5/6.
//
// After the google-benchmark tables, main() times the block-compressed
// postings reads (DESIGN.md §16) at 10x the micro scale and writes the
// rows to BENCH_micro_parallel.json in the BENCH_parallel.json row schema.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

#include "bench/harness.h"
#include "core/view_class.h"
#include "index/catalog.h"
#include "index/group_store.h"
#include "index/inverted_index.h"
#include "index/name_index.h"
#include "index/tuple_index.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace idm;
using index::DocId;

std::vector<std::string> MakeDocs(size_t n, size_t words) {
  Rng rng(99);
  workload::TextGenerator text(&rng);
  std::vector<std::string> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) docs.push_back(text.Words(words));
  return docs;
}

void BM_InvertedIndexAdd(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  for (auto _ : state) {
    index::InvertedIndex idx;
    for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
    benchmark::DoNotOptimize(idx.term_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InvertedIndexAdd)->Arg(100)->Arg(1000)->Arg(4000);

// Blocked decoders (the VM's postings reads).
void BM_InvertedIndexPhraseBlocked(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
  benchmark::DoNotOptimize(idx.PhraseDocs("the data"));  // build blocks
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.PhraseDocs("the data"));
  }
}
BENCHMARK(BM_InvertedIndexPhraseBlocked)->Arg(1000)->Arg(10000);

void BM_InvertedIndexTermBlocked(benchmark::State& state) {
  auto docs = MakeDocs(static_cast<size_t>(state.range(0)), 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);
  benchmark::DoNotOptimize(idx.TermDocs("database"));  // build blocks
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.TermDocs("database"));
  }
}
BENCHMARK(BM_InvertedIndexTermBlocked)->Arg(1000)->Arg(10000);

void BM_TupleIndexScan(benchmark::State& state) {
  index::TupleIndex idx;
  Rng rng(7);
  for (DocId id = 0; id < static_cast<DocId>(state.range(0)); ++id) {
    idx.Add(id, core::TupleComponent::MakeUnchecked(
                    core::FileSystemSchema(),
                    {core::Value::Int(rng.UniformRange(0, 1 << 20)),
                     core::Value::Date(rng.UniformRange(0, 1 << 30)),
                     core::Value::Date(rng.UniformRange(0, 1 << 30))}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.Scan("size", index::CompareOp::kGt,
                                      core::Value::Int(1 << 19)));
  }
}
BENCHMARK(BM_TupleIndexScan)->Arg(1000)->Arg(100000);

void BM_NameIndexWildcard(benchmark::State& state) {
  index::NameIndex idx;
  Rng rng(13);
  workload::TextGenerator text(&rng);
  for (DocId id = 0; id < static_cast<DocId>(state.range(0)); ++id) {
    idx.Add(id, text.Words(2) + (id % 7 == 0 ? ".tex" : ".txt"));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.LookupPattern("*.tex"));
  }
}
BENCHMARK(BM_NameIndexWildcard)->Arg(1000)->Arg(100000);

void BM_GroupStoreDescendants(benchmark::State& state) {
  // A wide tree: fanout 10, as deep as the node budget allows.
  index::GroupStore store;
  size_t n = static_cast<size_t>(state.range(0));
  for (DocId id = 0; id * 10 + 10 < n; ++id) {
    std::vector<DocId> children;
    for (int c = 1; c <= 10; ++c) children.push_back(id * 10 + c);
    store.SetChildren(id, std::move(children));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Descendants({0}));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GroupStoreDescendants)->Arg(1000)->Arg(100000);

void BM_CatalogRegister(benchmark::State& state) {
  for (auto _ : state) {
    index::Catalog catalog;
    uint32_t src = catalog.InternSource("fs");
    for (int i = 0; i < state.range(0); ++i) {
      catalog.Register("vfs:/folder/file" + std::to_string(i), "file", src,
                       false);
    }
    benchmark::DoNotOptimize(catalog.live_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CatalogRegister)->Arg(1000)->Arg(10000);

double MsNow() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The blocked postings reads at 10x the micro scale, p50 over repeated
// runs, each run checked to give the first run's answer.
int EmitBlockedTimings() {
  constexpr size_t kDocs = 100000;  // 10x the largest google-benchmark arg
  constexpr int kRuns = 9;
  auto docs = MakeDocs(kDocs, 120);
  index::InvertedIndex idx;
  for (DocId id = 0; id < docs.size(); ++id) idx.AddDocument(id, docs[id]);

  struct Scenario {
    const char* name;
    std::function<std::vector<DocId>()> read;
  };
  const std::vector<Scenario> kScenarios = {
      {"term", [&] { return idx.TermDocs("database"); }},
      {"and2", [&] { return idx.AndDocs({"database", "data"}); }},
      {"and3", [&] { return idx.AndDocs({"database", "data", "the"}); }},
      {"phrase2", [&] { return idx.PhraseDocs("the data"); }},
  };

  std::printf("\nBlocked postings reads at %zu docs (p50 of %d runs)\n", kDocs,
              kRuns);
  bench::Rule(40);
  std::printf("%-8s %14s %6s\n", "", "p50 [ms]", "same");
  bench::Rule(40);
  std::vector<bench::ParallelBenchRow> rows;
  bool all_same = true;
  for (const Scenario& scenario : kScenarios) {
    std::vector<DocId> expect = scenario.read();  // also builds the blocks
    bool same = true;
    std::vector<double> times;
    for (int run = 0; run < kRuns; ++run) {
      double t0 = MsNow();
      std::vector<DocId> got = scenario.read();
      times.push_back(MsNow() - t0);
      same = same && got == expect;
    }
    all_same = all_same && same;
    const double p50 = bench::Median(times);
    std::printf("%-8s %14.4f %6s\n", scenario.name, p50, same ? "YES" : "NO");
    bench::ParallelBenchRow row;
    row.name = scenario.name;
    row.mode = "serial";
    row.threads = 1;
    row.serial_ms = p50;
    row.mean_ms = p50;
    row.p50_ms = p50;
    row.speedup = 1.0;
    row.ops_per_sec = p50 > 0 ? 1000.0 / p50 : 0;
    row.identical_to_serial = same;
    rows.push_back(row);
  }
  bench::Rule(40);
  std::printf("postings memory: blocked %s MB <= uncompressed %s MB: %s\n",
              bench::Mb(idx.CompressedPostingsBytes()).c_str(),
              bench::Mb(idx.UncompressedPostingsBytes()).c_str(),
              idx.CompressedPostingsBytes() <= idx.UncompressedPostingsBytes()
                  ? "YES"
                  : "NO");

  bench::BenchMeta meta;
  meta.bench = "micro_index";
  meta.seed = 99;
  meta.scale = "10x";
  bench::WriteParallelJson("BENCH_micro_parallel.json", meta, rows);
  return all_same &&
                 idx.CompressedPostingsBytes() <= idx.UncompressedPostingsBytes()
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return EmitBlockedTimings();
}
