// Shared pieces of the three workloads: run options, timers, the Table 4
// queries, building a dataspace over generated sources, seeded substrate
// mutations, timed query and write operations with their traced-run
// probes, and answer comparison.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "iql/dataspace.h"
#include "stats.h"
#include "tracer.h"
#include "util/clock.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of the traced run
};

/// Wall-clock stopwatch on the steady clock.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Millis() const { return Seconds() * 1e3; }
  double Micros() const { return Seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// One of the paper's eight Table 4 queries, with its result count on the
/// paper-scale dataspace generated at seed 42.
struct Table4Query {
  const char* id;
  const char* iql;
  size_t count_at_seed_42;
};
const std::vector<Table4Query>& Table4();

/// The paper-scale dataspace's substrates at \p seed. \p clock drives the
/// file timestamps and must outlive the returned sources.
idm::workload::BuiltDataspace GenerateSources(uint64_t seed,
                                              idm::SimClock* clock);

/// A dataspace that has indexed both generated sources.
struct Ingested {
  std::unique_ptr<idm::iql::Dataspace> ds;
  idm::rvm::SourceIndexStats fs;
  idm::rvm::SourceIndexStats mail;
  double seconds = 0;  ///< wall time of the two registrations
};

/// Opens a dataspace with \p config and registers (indexes) both sources.
idm::Result<Ingested> Ingest(const idm::iql::Dataspace::Config& config,
                             const idm::workload::BuiltDataspace& sources);

/// Re-attaches both sources to a dataspace recovered from storage.
void AttachSources(idm::iql::Dataspace& ds,
                   const idm::workload::BuiltDataspace& sources);

/// A durable dataspace configuration on \p env: WAL on, default fsync
/// policy (fsync at every commit).
idm::iql::Dataspace::Config DurableConfig(idm::storage::Env* env);

/// Index bytes (Table 3 total) over the net input bytes of \p ingested.
double IndexBytesPerInputByte(const Ingested& ingested);

/// A query answer in a form comparable across dataspaces: each row's view
/// ids mapped to uris, rows sorted.
using Answer = std::vector<std::vector<std::string>>;
Answer UriAnswer(const idm::iql::Dataspace& ds,
                 const idm::iql::QueryResult& result);
/// Rows of \p result as a sorted id set (same dataspace comparisons).
std::vector<std::vector<idm::index::DocId>> SortedRows(
    const idm::iql::QueryResult& result);

/// Deterministic work counters of query operations (traced run).
struct QueryCounters {
  uint64_t queries = 0;
  idm::index::ProbeCounts probes;  ///< over misses
  uint64_t expanded_views = 0;     ///< over misses
  uint64_t blocks_built = 0;
  uint64_t blocks_skipped = 0;
};

/// Everything a workload accumulates about its query operations.
struct QueryLog {
  Samples latency_ms;  ///< every measured query
  QueryCounters counters;
  // Traced run: latencies of the traced and of the untraced operations.
  Samples traced_op_us;
  Samples untraced_op_us;

  /// Adds \p other's samples and counters to this log.
  void Merge(const QueryLog& other);
};

/// Runs one query operation: Prepare (unless \p prepared is given) plus
/// Execute. Records the latency in \p log when \p measure is set. In the
/// traced run, classifies the operation as a cache hit or miss, collects
/// its counters, and after the timed part probes the VM and the postings
/// for the same query. Counts the operation in \p report; returns false
/// when it failed.
bool RunQuery(idm::iql::Dataspace& ds, const std::string& text,
              const idm::iql::PreparedQuery* prepared, bool measure,
              Tracer* tracer, QueryLog* log, idm::iql::QueryResult* out,
              Report* report);

/// The four kinds of substrate mutation.
enum class WriteKind { kCreate, kOverwrite, kRemove, kMail };
const char* WriteKindName(WriteKind kind);

/// How many mutations of each kind one cycle of the schedule holds.
struct WriteMix {
  size_t create = 0;
  size_t overwrite = 0;
  size_t remove = 0;
  size_t mail = 0;
};

/// Seeded mutations of the generated substrates: new notes in a churn
/// folder, overwrites of generated notes, removals of churn notes, and new
/// mail. Kinds come from a seeded shuffle of the mix, so a run of one
/// schedule cycle holds exactly the mix's counts and the write
/// percentiles always fall in the same kind's mode.
class Mutator {
 public:
  Mutator(uint64_t seed, const idm::workload::BuiltDataspace& sources,
          idm::SimClock* clock, WriteMix mix);
  /// Replaces the schedule with a seeded shuffle of \p mix.
  void Reschedule(WriteMix mix);
  // text_ points at rng_.
  Mutator(const Mutator&) = delete;
  Mutator& operator=(const Mutator&) = delete;

  /// Lists the overwrite targets, and creates the churn folder with as
  /// many notes as one cycle removes, so removals never run dry. The
  /// caller syncs afterwards.
  idm::Status Prepare();
  WriteKind Draw();
  /// Applies one mutation of \p kind to the substrates.
  idm::Status Apply(WriteKind kind);

 private:
  void Shuffle();

  idm::Rng rng_;
  idm::workload::TextGenerator text_;
  idm::workload::BuiltDataspace sources_;
  idm::SimClock* clock_;
  size_t prepared_notes_;  ///< notes Prepare() creates
  std::vector<WriteKind> schedule_;
  size_t next_ = 0;
  std::vector<std::string> targets_;  ///< generated notes to overwrite
  std::vector<std::string> churn_;    ///< live notes in the churn folder
  std::vector<std::string> mail_folders_;
  uint64_t next_note_ = 0;
};

/// Deterministic work counters of write operations (traced run).
struct WriteCounters {
  uint64_t writes = 0;
  uint64_t added = 0;
  uint64_t updated = 0;
  uint64_t removed = 0;
  uint64_t sub_pumps = 0;
  uint64_t sub_skipped = 0;
  uint64_t sub_fastpath = 0;
  uint64_t sub_recomputes = 0;
  uint64_t sub_deltas = 0;
  uint64_t wal_bytes = 0;
  uint64_t mutations_logged = 0;
};

struct WriteLog {
  Samples latency_ms;
  Samples kind_us[4];  ///< by WriteKind (traced run)
  WriteCounters counters;
  Samples traced_op_us;
  Samples untraced_op_us;
};

/// One write operation: a mutation drawn from \p mutator plus the
/// ProcessNotifications round that makes it query-visible. Counts the
/// operation in \p report; returns false when it failed.
bool RunWrite(idm::iql::Dataspace& ds, Mutator& mutator, Tracer* tracer,
              WriteLog* log, Report* report);

/// Runs the eight Table 4 queries, each one query operation (prepared now
/// when \p prepared is null, else from its handles).
bool RunTable4(idm::iql::Dataspace& ds,
               const std::vector<idm::iql::PreparedQuery>* prepared,
               bool measure, Tracer* tracer, QueryLog* log,
               std::vector<idm::iql::QueryResult>* results,
               Report* report);

/// Prepared handles of the eight Table 4 queries.
idm::Result<std::vector<idm::iql::PreparedQuery>> PrepareTable4(
    const idm::iql::Dataspace& ds);

/// \p results by uri, for comparison with another dataspace.
std::vector<Answer> Answers(const idm::iql::Dataspace& ds,
                            const std::vector<idm::iql::QueryResult>& results);

/// Checks the pinned Table 4 counts (seed 42 only).
void CheckPinnedCounts(uint64_t seed,
                       const std::vector<idm::iql::QueryResult>& results,
                       Report* report);

/// The result of probing recovery layer by layer on a copy of a store.
struct RecoveryProbe {
  double open_ms = 0;
  double restore_ms = 0;
  double replay_ms = 0;
  uint64_t replayed = 0;
};

/// Copies the store in \p dir to a scratch directory of \p env and times
/// StorageEngine::Open, RestoreSnapshot, and ReplayMutations on the copy.
/// Counts the probe as one check in \p report.
bool ProbeRecovery(idm::storage::Env* env, const std::string& dir,
                   Tracer* tracer, RecoveryProbe* probe, Report* report);

/// Size of \p engine's live checkpoint image (0 when none).
uint64_t CheckpointBytes(const idm::storage::StorageEngine& engine);

/// Shared end-to-end and per-layer reporting.
struct RunLogs {
  QueryLog queries;
  WriteLog writes;
  Samples setup_s;
  Samples ingest_views_per_s;
  Samples checkpoint_s;
  Samples restart_s;
  Samples restart_to_answer_s;
  Samples ops_per_s;  ///< one per measured window; the metric is the median
  /// Query median of each measured pass (query_mix); when present, the
  /// query_p50_ms metric is their median instead of the pooled median.
  Samples pass_query_p50_ms;
  double index_bytes_per_input_byte = 0;
  double peak_rss_mb = 0;
  // Per-layer inputs.
  idm::rvm::SourceIndexStats ingest_fs;
  idm::rvm::SourceIndexStats ingest_mail;
  idm::rvm::IndexSizes sizes;
  uint64_t postings_block_bytes = 0;
  uint64_t checkpoint_bytes = 0;
  std::vector<RecoveryProbe> recovery_probes;
  idm::iql::QueryCache::Stats cache_window;  ///< cache activity while measured
  uint64_t storage_commits = 0;  ///< after set-up, every engine
  uint64_t storage_fsyncs = 0;
};

/// Adds the cache activity between two snapshots of the cache statistics
/// to \p total.
void AddCacheDelta(const idm::iql::QueryCache::Stats& before,
                   const idm::iql::QueryCache::Stats& after,
                   idm::iql::QueryCache::Stats* total);

/// One restart cycle: answers Table 4 on \p *ds, closes it, reopens it
/// from storage with \p durable, re-attaches the sources, and answers
/// again. Records restart_s (open plus attach) and restart_to_answer_s
/// (plus the pass) in \p logs, and checks that the answers and the live
/// view count survived. The traced run also probes recovery layer by
/// layer on a copy of the store. Returns false when a query failed or the
/// dataspace could not be reopened.
bool RestartCycle(std::unique_ptr<idm::iql::Dataspace>* ds,
                  const idm::iql::Dataspace::Config& durable,
                  const idm::workload::BuiltDataspace& sources,
                  Tracer* tracer, RunLogs* logs, Report* report);

/// Adds the commits and fsyncs of \p ds's engine since it opened.
void AccountStorage(const idm::iql::Dataspace& ds, RunLogs* logs);

/// Emits every end-to-end metric (untraced run) or every per-layer metric
/// (traced run) from \p logs into \p report.
void Emit(const Options& options, const RunLogs& logs, const Tracer& tracer,
          Report* report);

/// Writes the traced run's spans to --trace-out, when given. Returns the
/// workload's exit status (non-zero when the file cannot be written).
int WriteTrace(const Options& options, const Tracer& tracer, Report* report);

/// Per-query breakdown of the Table 4 queries for the traced run:
/// Prepare and VM timings (median of a few), expanded views and probes.
void Table4Breakdown(idm::iql::Dataspace& ds, Report* report);

// The workloads.
int RunQueryMix(const Options& options, Report* report);
int RunSyncMix(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
