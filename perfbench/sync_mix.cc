// sync_mix: ingest, writes beside reads, and restarts of a durable
// paper-scale dataspace.
//
// The dataspace is durable on a hermetic in-memory storage environment
// (storage::MemEnv) with the default fsync policy, fsync at every commit.
// Set-up only generates the sources. The run indexes both with the WAL on
// and opens three standing subscriptions on Table 4 shapes. Then one
// client in a closed loop runs rounds: one seeded substrate mutation plus
// the ProcessNotifications() that makes it query-visible (a write), one
// Table 4 pass (eight queries), and one re-read of an answer (a cache hit).
// After the rounds it writes a
// checkpoint and runs restart cycles: a few note creates, close, cold
// restart from the checkpoint plus the WAL suffix, one Table 4 pass. The
// traced run also indexes the mutated substrates afresh, in memory, and
// checks that the answers are the same.
//
// The write kinds cost very different amounts: a create appends
// postings, a mail append re-syncs its folder, and a removal or an
// overwrite decodes and re-encodes every posting list the document
// touched. Every 125 rounds hold exactly 98 creates, 8 mail appends, 18
// removals and one overwrite in a seeded order, so the write p50 always
// falls among the creates and the p90 among the removals.

#include <set>

#include "common.h"
#include "storage/env.h"

namespace perfbench {
namespace {

using idm::iql::Dataspace;
using idm::iql::QueryResult;
using Rows = std::set<std::vector<idm::index::DocId>>;

constexpr size_t kRoundsPerSecond = 10;
constexpr size_t kMinRounds = 125;  // 1000 queries, 125 writes
constexpr int kSubscribed[] = {1, 4, 5};  // Q2, Q5, Q6
constexpr size_t kRestartCycles = 2;
constexpr size_t kChurnPerCycle = 20;

/// A standing query and the rows its deltas add up to.
struct Standing {
  std::string query;
  std::shared_ptr<idm::sub::Subscription> subscription;
  Rows rows;
};

void Drain(Standing* standing) {
  for (const idm::sub::ResultDelta& delta : standing->subscription->Drain()) {
    if (delta.snapshot) standing->rows.clear();
    for (const auto& row : delta.removed) standing->rows.erase(row);
    for (const auto& row : delta.added) standing->rows.insert(row);
  }
}

}  // namespace

int RunSyncMix(const Options& options, Report* report) {
  Tracer tracer(options.trace);
  RunLogs logs;
  auto fail = [&](const std::string& what) {
    report->Check(false, what);
    return 1;
  };

  // --- set-up: generate the sources ------------------------------------------
  idm::SimClock clock;
  Stopwatch setup;
  idm::workload::BuiltDataspace sources =
      GenerateSources(options.seed, &clock);
  logs.setup_s.Add(setup.Seconds());

  // --- ingest with the WAL on, subscribe, prepare ----------------------------
  idm::storage::MemEnv env;
  const Dataspace::Config durable = DurableConfig(&env);
  tracer.set_active(true);
  Tracer::Span ingest_span(&tracer, "rvm.ingest");
  auto ingested = Ingest(durable, sources);
  ingest_span.End();
  if (!ingested.ok()) return fail("ingest: " + ingested.status().ToString());
  logs.ingest_fs = ingested->fs;
  logs.ingest_mail = ingested->mail;
  logs.ingest_views_per_s.Add(
      ingested->ds->module().catalog().live_count() / ingested->seconds);
  logs.index_bytes_per_input_byte = IndexBytesPerInputByte(*ingested);
  std::unique_ptr<Dataspace> ds = std::move(ingested->ds);

  std::vector<Standing> standing;
  for (int index : kSubscribed) {
    auto subscription = ds->Subscribe(Table4()[index].iql);
    if (!subscription.ok()) {
      return fail("subscribe: " + subscription.status().ToString());
    }
    standing.push_back({Table4()[index].iql, *subscription, {}});
  }
  auto prepared = PrepareTable4(*ds);
  if (!prepared.ok()) return fail("prepare: " + prepared.status().ToString());
  for (Standing& s : standing) Drain(&s);

  std::vector<QueryResult> results;
  QueryLog unmeasured;
  if (!RunTable4(*ds, &*prepared, false, &tracer, &unmeasured, &results,
                 report)) {
    return 1;
  }
  CheckPinnedCounts(options.seed, results, report);

  Mutator mutator(options.seed, sources, &clock,
                  {.create = 98, .overwrite = 1, .remove = 18, .mail = 8});
  idm::Status ready = mutator.Prepare();
  if (!ready.ok()) return fail("mutator: " + ready.ToString());
  if (!ds->sync().ProcessNotifications().ok()) return fail("mutator sync");
  for (Standing& s : standing) Drain(&s);

  // --- measured rounds ------------------------------------------------------
  const size_t rounds = std::max(
      kMinRounds, kRoundsPerSecond * static_cast<size_t>(options.seconds));
  const idm::iql::QueryCache::Stats cache_before = ds->Stats().cache;
  Stopwatch window;
  for (size_t round = 0; round < rounds; ++round) {
    RunWrite(*ds, mutator, &tracer, &logs.writes, report);
    for (Standing& s : standing) Drain(&s);
    RunTable4(*ds, &*prepared, true, &tracer, &logs.queries, &results,
              report);
    // Re-read one answer (a cache hit), round-robin over the eight. With
    // only the eight equally weighted queries, the median would fall
    // exactly between the fourth and fifth cheapest query and read one
    // query's slowest sample; the re-read moves it inside a query's mode.
    const size_t reread = round % Table4().size();
    RunQuery(*ds, Table4()[reread].iql, &(*prepared)[reread], true, &tracer,
             &logs.queries, nullptr, report);
  }
  logs.ops_per_s.Add(static_cast<double>(rounds * (2 + Table4().size())) /
                     window.Seconds());
  AddCacheDelta(cache_before, ds->Stats().cache, &logs.cache_window);
  if (options.trace) Table4Breakdown(*ds, report);

  // Gate: each subscription's accumulated rows equal a fresh evaluation.
  ds->ClearQueryCache();
  for (const Standing& s : standing) {
    auto fresh = ds->Query(s.query);
    const auto rows = fresh.ok() ? SortedRows(*fresh)
                                 : std::vector<std::vector<uint64_t>>();
    report->Check(fresh.ok() && Rows(rows.begin(), rows.end()) == s.rows,
                  "subscription rows differ from evaluation: " + s.query);
  }
  standing.clear();
  prepared = std::vector<idm::iql::PreparedQuery>();
  logs.sizes = ds->module().Sizes();
  logs.postings_block_bytes = ds->module().content().block_stats().block_bytes;

  // --- checkpoint, then restart cycles -----------------------------------------
  tracer.set_active(true);
  {
    Stopwatch checkpoint;
    Tracer::Span span(&tracer, "storage.checkpoint");
    idm::Status status = ds->Checkpoint();
    span.End();
    logs.checkpoint_s.Add(checkpoint.Seconds());
    if (!status.ok()) return fail("checkpoint: " + status.ToString());
  }
  if (options.trace) {
    logs.checkpoint_bytes = CheckpointBytes(*ds->storage_engine());
  }

  mutator.Reschedule({.create = 1});
  WriteLog churn_log;
  for (size_t cycle = 0; cycle < kRestartCycles; ++cycle) {
    for (size_t i = 0; i < kChurnPerCycle; ++i) {
      RunWrite(*ds, mutator, &tracer, &churn_log, report);
    }
    if (!RestartCycle(&ds, durable, sources, &tracer, &logs, report)) {
      return 1;
    }
  }
  AccountStorage(*ds, &logs);
  logs.peak_rss_mb = PeakRssMb();

  if (options.trace) {
    // Gate: a fresh index of the mutated substrates answers the same.
    if (!RunTable4(*ds, nullptr, false, &tracer, &unmeasured, &results,
                   report)) {
      return 1;
    }
    const std::vector<Answer> live = Answers(*ds, results);
    const size_t live_views = ds->module().catalog().live_count();
    ds.reset();
    auto fresh = Ingest(Dataspace::Config(), sources);
    if (!fresh.ok()) return fail("fresh index: " + fresh.status().ToString());
    if (!RunTable4(*fresh->ds, nullptr, false, &tracer, &unmeasured, &results,
                   report)) {
      return 1;
    }
    report->Check(Answers(*fresh->ds, results) == live,
                  "incrementally maintained answers differ from a fresh index");
    report->Check(fresh->ds->module().catalog().live_count() == live_views,
                  "live views differ from a fresh index");
  }

  Emit(options, logs, tracer, report);
  return WriteTrace(options, tracer, report);
}

}  // namespace perfbench
