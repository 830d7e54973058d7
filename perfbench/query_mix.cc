// query_mix: read-only queries on the in-memory paper-scale dataspace.
//
// One client in a closed loop over a query family: the eight Table 4
// queries verbatim, then the same shapes with their literals replaced by
// seeded draws (keywords, phrases, content terms, Q3's size and date
// bounds). The loop runs in passes. Every pass holds the same multiset of
// texts, each text as often as a Zipf over the family gives it in one
// pass, in a new seeded order, and starts with an empty result cache: the
// first run of each distinct text misses (parse/plan, VM, postings,
// expansion) and its repeats hit. A fixed multiset on an emptied cache,
// rather than independent Zipf draws on a cache whose evictions depend on
// the order of the draws, keeps the misses the same texts on every seed
// and pass, so the throughput and percentiles measure the code and not
// the luck of the draw. Note creates between the passes, a save to a
// checkpoint, and a cold reopen give this workload's write and restart
// figures without disturbing the read-only passes.

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "common.h"
#include "storage/env.h"

namespace perfbench {
namespace {

using idm::iql::Dataspace;
using idm::iql::QueryResult;

constexpr size_t kVariantsPerShape = 60;
constexpr size_t kCommonWords = 50;
constexpr size_t kWordSample = 20000;  // words counted to find the common ones
// Skewed enough that a pass holds about 100 distinct texts in 400 queries,
// so the hits are three quarters of a pass and the median lies among them
// rather than on the edge between hits and misses.
constexpr double kZipfExponent = 1.3;
constexpr size_t kQueriesPerPass = 400;
constexpr size_t kMinPasses = 8;  // 3200 measured queries, 32 beyond p99
constexpr size_t kChurnWrites = 300;
constexpr size_t kGateSamples = 16;

std::string Concat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) out += part;
  return out;
}

/// The kCommonWords most frequent words of generated text. Each occurs in
/// a large share of all documents, so nobody searches for one.
std::set<std::string> CommonWords() {
  idm::Rng rng(0x434F4D4D4F4E5744ULL);
  idm::workload::TextGenerator text(&rng);
  std::map<std::string, size_t> counts;
  std::istringstream words(text.Words(kWordSample));
  for (std::string word; words >> word;) ++counts[word];
  std::vector<std::pair<size_t, std::string>> by_count;
  for (auto& [word, count] : counts) by_count.emplace_back(count, word);
  std::sort(by_count.rbegin(), by_count.rend());
  std::set<std::string> common;
  for (size_t i = 0; i < kCommonWords && i < by_count.size(); ++i) {
    common.insert(by_count[i].second);
  }
  return common;
}

/// The query family: Table 4 verbatim first (the most popular ranks), then
/// variants of the shapes that have literals, interleaved by shape. The
/// literals come from one fixed seed, so every run draws from the same
/// family and --seed varies the dataspace and the draw sequence: seeded
/// literals would let the seed pick which heavy keyword lands on a popular
/// rank, and with it the latency percentiles. Literals skip the common
/// words: their results run to megabytes, past the cache's limit for one
/// entry, so a few of them would set every figure of the run.
std::vector<std::string> QueryFamily() {
  const std::set<std::string> common = CommonWords();
  idm::Rng rng(0x51554552594D4958ULL);
  idm::workload::TextGenerator text(&rng);
  auto word = [&] {
    std::string drawn;
    do {
      drawn = text.Words(1);
    } while (common.count(drawn) != 0);
    return drawn;
  };
  std::vector<std::string> family;
  std::set<std::string> seen;
  auto add = [&](std::string query) {
    if (seen.insert(query).second) family.push_back(std::move(query));
  };
  for (const Table4Query& query : Table4()) add(query.iql);
  for (size_t i = 0; i < kVariantsPerShape; ++i) {
    add(Concat({"\"", word(), "\""}));
    add(Concat({"\"", word(), " ", word(), "\""}));
    char q3[96];
    std::snprintf(q3, sizeof(q3),
                  "[size > %d and lastmodified < @%02d.%02d.2005]",
                  static_cast<int>(rng.UniformRange(50, 800)) * 1000,
                  static_cast<int>(rng.UniformRange(1, 28)),
                  static_cast<int>(rng.UniformRange(1, 12)));
    add(q3);
    add(Concat({"//papers//*Vision/*[\"", word(), "\"]"}));
    add(Concat({"//VLDB200?//?onclusion*/*[\"", word(), "\"]"}));
    const std::string term = word();
    add(Concat({"union( //VLDB2005//*[\"", term, "\"], //VLDB2006//*[\"", term,
                "\"])"}));
  }
  return family;
}

/// One pass's multiset of family ranks: the i-th of \p n queries takes the
/// rank at Zipf quantile (i + 0.5) / n, so every rank appears as often as
/// its Zipf share of \p n queries, rounded, and the rarest ranks appear
/// once at even spacing.
std::vector<size_t> PassMultiset(size_t family_size, size_t n) {
  std::vector<double> cdf(family_size);
  double total = 0;
  for (size_t rank = 0; rank < family_size; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
    cdf[rank] = total;
  }
  std::vector<size_t> ranks;
  ranks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double quantile = (static_cast<double>(i) + 0.5) / n * total;
    ranks.push_back(std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), quantile) - cdf.begin(),
        family_size - 1));
  }
  return ranks;
}

/// \p ranks in a seeded order.
void Shuffle(std::vector<size_t>* ranks, idm::Rng* rng) {
  for (size_t i = ranks->size(); i > 1; --i) {
    std::swap((*ranks)[i - 1], (*ranks)[rng->Uniform(i)]);
  }
}

/// Gate: sampled cache hits equal a re-evaluation after ClearQueryCache().
void CheckCacheHits(Dataspace& ds, const std::vector<std::string>& family,
                    uint64_t seed, Report* report) {
  idm::Rng rng(seed ^ 0x4741544548495453ULL);
  std::vector<std::string> texts;
  std::vector<QueryResult> cached;
  for (size_t attempt = 0; attempt < 4 * kGateSamples &&
                           texts.size() < kGateSamples;
       ++attempt) {
    const std::string& text = family[rng.Zipf(family.size(), kZipfExponent)];
    // The second run hits unless the result is too large to cache.
    for (int run = 0; run < 2; ++run) {
      const uint64_t hits = ds.Stats().cache.hits;
      auto result = ds.Query(text);
      if (!result.ok()) {
        report->Check(false, "gate query " + text + ": " +
                                 result.status().ToString());
        break;
      }
      if (ds.Stats().cache.hits > hits) {
        texts.push_back(text);
        cached.push_back(std::move(result.value()));
        break;
      }
    }
  }
  report->Check(!texts.empty(), "no cache hit to sample");
  ds.ClearQueryCache();
  for (size_t i = 0; i < texts.size(); ++i) {
    auto fresh = ds.Query(texts[i]);
    report->Check(fresh.ok() && fresh->rows == cached[i].rows &&
                      fresh->scores == cached[i].scores,
                  "cache hit differs from re-evaluation: " + texts[i]);
  }
}

}  // namespace

int RunQueryMix(const Options& options, Report* report) {
  Tracer tracer(options.trace);
  RunLogs logs;
  auto fail = [&](const std::string& what) {
    report->Check(false, what);
    return 1;
  };

  // --- set-up: generate and index in memory --------------------------------
  idm::SimClock clock;
  Stopwatch setup;
  idm::workload::BuiltDataspace sources =
      GenerateSources(options.seed, &clock);
  auto ingested = Ingest(Dataspace::Config(), sources);
  if (!ingested.ok()) return fail("ingest: " + ingested.status().ToString());
  logs.setup_s.Add(setup.Seconds());
  logs.index_bytes_per_input_byte = IndexBytesPerInputByte(*ingested);
  std::unique_ptr<Dataspace> ds = std::move(ingested->ds);
  logs.ingest_fs = ingested->fs;
  logs.ingest_mail = ingested->mail;
  logs.ingest_views_per_s.Add(ds->module().catalog().live_count() /
                              ingested->seconds);

  std::vector<QueryResult> results;
  QueryLog unmeasured;
  if (!RunTable4(*ds, nullptr, false, &tracer, &unmeasured, &results,
                 report)) {
    return 1;
  }
  CheckPinnedCounts(options.seed, results, report);

  // --- measured cycles --------------------------------------------------------
  // Each cycle: a group of note creates, an unmeasured pass that warms the
  // cache again after the creates made it stale, and a measured pass,
  // which is read-only. One last group of creates follows the cycles.
  // Spreading the creates over the run, rather than timing them in one
  // burst, keeps one slow spell of the machine from moving every write
  // sample at once. Throughput and the query median are medians over the
  // measured passes for the same reason; the p99 is over all of them.
  Mutator mutator(options.seed, sources, &clock, {.create = 1});
  idm::Status ready = mutator.Prepare();
  if (!ready.ok()) return fail("churn: " + ready.ToString());
  if (!ds->sync().ProcessNotifications().ok()) return fail("churn sync");
  const size_t cycles =
      std::max(kMinPasses, static_cast<size_t>(options.seconds));
  auto churn = [&] {
    for (size_t i = 0; i < kChurnWrites / (cycles + 1); ++i) {
      RunWrite(*ds, mutator, &tracer, &logs.writes, report);
    }
  };

  const std::vector<std::string> family = QueryFamily();
  idm::Rng order(options.seed ^ 0x44524157535F5145ULL);
  std::vector<size_t> pass = PassMultiset(family.size(), kQueriesPerPass);
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    churn();
    ds->ClearQueryCache();
    Shuffle(&pass, &order);
    const idm::iql::QueryCache::Stats cache_before = ds->Stats().cache;
    QueryLog pass_log;
    Stopwatch window;
    for (size_t rank : pass) {
      RunQuery(*ds, family[rank], nullptr, true, &tracer, &pass_log, nullptr,
               report);
    }
    logs.ops_per_s.Add(static_cast<double>(pass.size()) / window.Seconds());
    logs.pass_query_p50_ms.Add(pass_log.latency_ms.Median());
    logs.queries.Merge(pass_log);
    AddCacheDelta(cache_before, ds->Stats().cache, &logs.cache_window);
  }
  churn();
  if (options.trace) Table4Breakdown(*ds, report);
  CheckCacheHits(*ds, family, options.seed, report);

  // --- epilogue: save, cold reopen -------------------------------------------
  logs.sizes = ds->module().Sizes();
  logs.postings_block_bytes = ds->module().content().block_stats().block_bytes;

  idm::storage::MemEnv env;
  const Dataspace::Config durable = DurableConfig(&env);
  {
    tracer.set_active(true);
    Stopwatch checkpoint;
    Tracer::Span span(&tracer, "storage.checkpoint");
    auto store = idm::storage::StorageEngine::Open(
        &env, durable.storage_dir, durable.storage, &clock);
    if (!store.ok()) return fail("save: " + store.status().ToString());
    idm::Status saved =
        store->engine->Checkpoint(ds->module().ExportSnapshot());
    span.End();
    logs.checkpoint_s.Add(checkpoint.Seconds());
    if (!saved.ok()) return fail("save: " + saved.ToString());
    if (options.trace) logs.checkpoint_bytes = CheckpointBytes(*store->engine);
    logs.storage_commits += store->engine->stats().commits;
    logs.storage_fsyncs += store->engine->stats().fsyncs;
  }
  if (!RestartCycle(&ds, durable, sources, &tracer, &logs, report)) return 1;
  AccountStorage(*ds, &logs);
  logs.peak_rss_mb = PeakRssMb();

  Emit(options, logs, tracer, report);
  return WriteTrace(options, tracer, report);
}

}  // namespace perfbench
