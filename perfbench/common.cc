#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <optional>

#include "rvm/data_source.h"
#include "storage/env.h"

namespace perfbench {

using idm::Result;
using idm::Status;
using idm::iql::Dataspace;
using idm::iql::PreparedQuery;
using idm::iql::QueryResult;

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

const std::vector<Table4Query>& Table4() {
  static const std::vector<Table4Query> kQueries = {
      {"Q1", "\"database\"", 4247},
      {"Q2", "\"database tuning\"", 53},
      {"Q3", "[size > 420000 and lastmodified < @12.06.2005]", 402},
      {"Q4", "//papers//*Vision/*[\"Franklin\"]", 2},
      {"Q5", "//VLDB200?//?onclusion*/*[\"systems\"]", 2},
      {"Q6",
       "union( //VLDB2005//*[\"documents\"], //VLDB2006//*[\"documents\"])",
       6},
      {"Q7",
       "join( //VLDB2006//*[class=\"texref\"] as A, "
       "//VLDB2006//*[class=\"environment\"]//figure* as B, "
       "A.name=B.tuple.label)",
       21},
      {"Q8",
       "join ( //*[class = \"emailmessage\"]//*.tex as A, "
       "//papers//*.tex as B, A.name = B.name )",
       16},
  };
  return kQueries;
}

idm::workload::BuiltDataspace GenerateSources(uint64_t seed,
                                              idm::SimClock* clock) {
  idm::workload::DataspaceSpec spec =
      idm::workload::DataspaceSpec::PaperScale();
  spec.seed = seed;
  return idm::workload::Generate(spec, clock);
}

Result<Ingested> Ingest(const Dataspace::Config& config,
                        const idm::workload::BuiltDataspace& sources) {
  Ingested out;
  IDM_ASSIGN_OR_RETURN(out.ds, Dataspace::Open(config));
  Stopwatch watch;
  IDM_ASSIGN_OR_RETURN(out.fs, out.ds->AddFileSystem("Filesystem", sources.fs));
  IDM_ASSIGN_OR_RETURN(out.mail,
                       out.ds->AddImap("Email / IMAP", sources.imap));
  out.seconds = watch.Seconds();
  return out;
}

void AttachSources(Dataspace& ds,
                   const idm::workload::BuiltDataspace& sources) {
  ds.AttachSource(
      std::make_shared<idm::rvm::FileSystemSource>("Filesystem", sources.fs));
  ds.AttachSource(
      std::make_shared<idm::rvm::ImapSource>("Email / IMAP", sources.imap));
}

Dataspace::Config DurableConfig(idm::storage::Env* env) {
  Dataspace::Config config;
  config.storage_dir = "perfbench";
  config.env = env;
  return config;
}

double IndexBytesPerInputByte(const Ingested& ingested) {
  const double input = static_cast<double>(ingested.fs.net_input_bytes +
                                           ingested.mail.net_input_bytes);
  return input == 0 ? 0
                    : static_cast<double>(
                          ingested.ds->module().Sizes().total()) /
                          input;
}

Answer UriAnswer(const Dataspace& ds, const QueryResult& result) {
  Answer answer;
  answer.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::vector<std::string> uris;
    uris.reserve(row.size());
    for (idm::index::DocId id : row) uris.push_back(ds.UriOf(id));
    answer.push_back(std::move(uris));
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

std::vector<std::vector<idm::index::DocId>> SortedRows(
    const QueryResult& result) {
  std::vector<std::vector<idm::index::DocId>> rows = result.rows;
  std::sort(rows.begin(), rows.end());
  return rows;
}

namespace {

/// Content predicates of \p pred, as the postings calls the VM makes for
/// them: an AND of single terms is one AndDocs, a lone term one TermDocs,
/// a multi-word phrase one PhraseDocs.
void CollectPostingCalls(const idm::iql::PredNode* pred,
                         std::vector<std::vector<std::string>>* and_terms,
                         std::vector<std::string>* terms,
                         std::vector<std::string>* phrases) {
  using Kind = idm::iql::PredNode::Kind;
  if (pred == nullptr) return;
  if (pred->kind == Kind::kPhrase) {
    if (pred->text.find(' ') == std::string::npos) {
      terms->push_back(pred->text);
    } else {
      phrases->push_back(pred->text);
    }
    return;
  }
  if (pred->kind == Kind::kAnd && !pred->children.empty() &&
      std::all_of(pred->children.begin(), pred->children.end(),
                  [](const auto& child) {
                    return child->kind == Kind::kPhrase &&
                           child->text.find(' ') == std::string::npos;
                  })) {
    std::vector<std::string> group;
    for (const auto& child : pred->children) group.push_back(child->text);
    and_terms->push_back(std::move(group));
    return;
  }
  for (const auto& child : pred->children) {
    CollectPostingCalls(child.get(), and_terms, terms, phrases);
  }
}

void CollectPostingCalls(const idm::iql::Query& query,
                         std::vector<std::vector<std::string>>* and_terms,
                         std::vector<std::string>* terms,
                         std::vector<std::string>* phrases) {
  CollectPostingCalls(query.filter.get(), and_terms, terms, phrases);
  for (const auto& step : query.steps) {
    CollectPostingCalls(step.predicate.get(), and_terms, terms, phrases);
  }
  for (const auto& arm : query.arms) {
    CollectPostingCalls(*arm, and_terms, terms, phrases);
  }
  if (query.join != nullptr) {
    CollectPostingCalls(*query.join->left, and_terms, terms, phrases);
    CollectPostingCalls(*query.join->right, and_terms, terms, phrases);
  }
}

/// Traced-run probes of one query, run after its own Execute so they
/// never warm state the operation would have paid for: the VM alone
/// (no cache, no admission), then the postings calls of its content
/// predicates.
void ProbeQuery(const Dataspace& ds, const PreparedQuery& prepared,
                Tracer* tracer) {
  {
    Tracer::Span span(tracer, "iql.vm");
    auto result = ds.processor().Evaluate(prepared.query(), prepared.plan(),
                                          nullptr, nullptr);
    (void)result;
  }
  std::vector<std::vector<std::string>> and_terms;
  std::vector<std::string> terms;
  std::vector<std::string> phrases;
  CollectPostingCalls(prepared.query(), &and_terms, &terms, &phrases);
  const idm::index::InvertedIndex& content = ds.module().content();
  for (const auto& group : and_terms) {
    Tracer::Span span(tracer, "index.postings");
    (void)content.AndDocs(group);
  }
  for (const std::string& term : terms) {
    Tracer::Span span(tracer, "index.postings");
    (void)content.TermDocs(term);
  }
  for (const std::string& phrase : phrases) {
    Tracer::Span span(tracer, "index.postings");
    (void)content.PhraseDocs(phrase);
  }
}

}  // namespace

void QueryLog::Merge(const QueryLog& other) {
  latency_ms.Append(other.latency_ms);
  counters.queries += other.counters.queries;
  counters.probes.Merge(other.counters.probes);
  counters.expanded_views += other.counters.expanded_views;
  counters.blocks_built += other.counters.blocks_built;
  counters.blocks_skipped += other.counters.blocks_skipped;
  traced_op_us.Append(other.traced_op_us);
  untraced_op_us.Append(other.untraced_op_us);
}

bool RunQuery(Dataspace& ds, const std::string& text,
              const PreparedQuery* prepared, bool measure, Tracer* tracer,
              QueryLog* log, QueryResult* out, Report* report) {
  const bool traced_run = tracer->enabled();
  idm::iql::QueryCache::Stats cache_before;
  idm::index::InvertedIndex::BlockStats blocks_before;
  if (traced_run) {
    cache_before = ds.Stats().cache;
    blocks_before = ds.module().content().block_stats();
  }
  const bool traced = tracer->NextOp();

  std::optional<Result<PreparedQuery>> local;
  std::optional<Result<QueryResult>> result;
  Stopwatch watch;
  Tracer::Span op(tracer, "iql.query");
  if (prepared == nullptr) {
    Tracer::Span span(tracer, "iql.prepare");
    local.emplace(ds.Prepare(text));
    span.End();
    if (local->ok()) prepared = &local->value();
  }
  Tracer::Span execute(tracer, "iql.execute");
  if (prepared != nullptr) result.emplace(ds.Execute(*prepared));
  execute.End();
  op.End();
  const double micros = watch.Micros();

  if (prepared == nullptr) {
    report->Check(false, "prepare " + text + ": " + local->status().ToString());
    return false;
  }
  if (!result->ok()) {
    report->Check(false,
                  "execute " + text + ": " + result->status().ToString());
    return false;
  }
  report->Check(true, text);
  if (measure) log->latency_ms.Add(micros / 1e3);
  if (traced_run) {
    (traced ? log->traced_op_us : log->untraced_op_us).Add(micros);
    const idm::iql::QueryCache::Stats cache_after = ds.Stats().cache;
    const idm::index::InvertedIndex::BlockStats blocks_after =
        ds.module().content().block_stats();
    const bool hit = cache_after.hits > cache_before.hits;
    execute.set_name(hit ? "iql.execute_hit" : "iql.execute_miss");
    QueryCounters& c = log->counters;
    ++c.queries;
    c.blocks_built += blocks_after.built_lists - blocks_before.built_lists;
    c.blocks_skipped +=
        blocks_after.skipped_blocks - blocks_before.skipped_blocks;
    if (!hit) {
      c.probes.Merge((*result)->probes);
      c.expanded_views += (*result)->expanded_views;
      if (traced) ProbeQuery(ds, *prepared, tracer);
    }
  }
  if (out != nullptr) *out = std::move(result->value());
  return true;
}

const char* WriteKindName(WriteKind kind) {
  switch (kind) {
    case WriteKind::kCreate:
      return "create";
    case WriteKind::kOverwrite:
      return "overwrite";
    case WriteKind::kRemove:
      return "remove";
    case WriteKind::kMail:
      return "mail";
  }
  return "?";
}

namespace {

constexpr const char* kChurnFolder = "/perfbench-churn";
constexpr size_t kNoteWords = 60;  ///< words of a created or rewritten note

void CollectNotes(const idm::vfs::VirtualFileSystem& fs,
                  const std::string& folder, std::vector<std::string>* out) {
  auto children = fs.List(folder);
  if (!children.ok()) return;
  for (const std::string& name : *children) {
    const std::string path = folder == "/" ? "/" + name : folder + "/" + name;
    auto info = fs.Stat(path);
    if (!info.ok()) continue;
    if (info->type == idm::vfs::NodeType::kFolder) {
      CollectNotes(fs, path, out);
    } else if (info->type == idm::vfs::NodeType::kFile &&
               path.ends_with(".txt")) {
      out->push_back(path);
    }
  }
}

/// Span names of write operations, by WriteKind.
constexpr const char* kWriteSpans[] = {"rvm.write.create", "rvm.write.overwrite",
                                       "rvm.write.remove", "rvm.write.mail"};

}  // namespace

Mutator::Mutator(uint64_t seed, const idm::workload::BuiltDataspace& sources,
                 idm::SimClock* clock, WriteMix mix)
    : rng_(seed ^ 0x5045524642454E43ULL),
      text_(&rng_),
      sources_(sources),
      clock_(clock),
      prepared_notes_(mix.remove) {
  Reschedule(mix);
}

void Mutator::Reschedule(WriteMix mix) {
  schedule_.clear();
  schedule_.insert(schedule_.end(), mix.create, WriteKind::kCreate);
  schedule_.insert(schedule_.end(), mix.overwrite, WriteKind::kOverwrite);
  schedule_.insert(schedule_.end(), mix.remove, WriteKind::kRemove);
  schedule_.insert(schedule_.end(), mix.mail, WriteKind::kMail);
  Shuffle();
}

void Mutator::Shuffle() {
  for (size_t i = schedule_.size(); i > 1; --i) {
    std::swap(schedule_[i - 1], schedule_[rng_.Uniform(i)]);
  }
  next_ = 0;
}

Status Mutator::Prepare() {
  CollectNotes(*sources_.fs, "/", &targets_);
  if (targets_.empty()) return Status::FailedPrecondition("no notes to edit");
  auto folders = sources_.imap->ListFolders();
  if (!folders.ok()) return folders.status();
  mail_folders_ = *folders;
  if (mail_folders_.empty()) return Status::FailedPrecondition("no folders");
  Status status = sources_.fs->CreateFolder(kChurnFolder);
  for (size_t i = 0; status.ok() && i < prepared_notes_; ++i) {
    status = Apply(WriteKind::kCreate);
  }
  return status;
}

WriteKind Mutator::Draw() {
  if (schedule_.empty()) return WriteKind::kCreate;
  if (next_ == schedule_.size()) Shuffle();
  WriteKind kind = schedule_[next_++];
  // Nothing to remove: create instead, so no mutation fails.
  if (kind == WriteKind::kRemove && churn_.empty()) kind = WriteKind::kCreate;
  return kind;
}

Status Mutator::Apply(WriteKind kind) {
  clock_->AdvanceSeconds(60);
  switch (kind) {
    case WriteKind::kCreate: {
      std::string path = std::string(kChurnFolder) + "/note-" +
                         std::to_string(next_note_++) + ".txt";
      Status status = sources_.fs->WriteFile(path, text_.Words(kNoteWords));
      if (status.ok()) churn_.push_back(std::move(path));
      return status;
    }
    case WriteKind::kOverwrite:
      return sources_.fs->WriteFile(targets_[rng_.Uniform(targets_.size())],
                                    text_.Words(kNoteWords));
    case WriteKind::kRemove: {
      const size_t index = rng_.Uniform(churn_.size());
      std::string path = std::move(churn_[index]);
      churn_[index] = std::move(churn_.back());
      churn_.pop_back();
      return sources_.fs->Remove(path);
    }
    case WriteKind::kMail: {
      idm::email::Message message;
      message.from = "colleague@example.org";
      message.to = {"me@example.org"};
      message.subject = text_.Words(4);
      message.date = clock_->NowMicros();
      message.body = text_.Words(200);
      auto uid = sources_.imap->Append(
          mail_folders_[rng_.Uniform(mail_folders_.size())],
          std::move(message));
      return uid.ok() ? Status::OK() : uid.status();
    }
  }
  return Status::Internal("unknown write kind");
}

bool RunWrite(Dataspace& ds, Mutator& mutator, Tracer* tracer, WriteLog* log,
              Report* report) {
  const WriteKind kind = mutator.Draw();
  const bool traced_run = tracer->enabled();
  idm::iql::DataspaceStats before;
  if (traced_run) before = ds.Stats();
  const bool traced = tracer->NextOp();

  std::optional<Result<idm::rvm::SyncStats>> sync;
  Stopwatch watch;
  Tracer::Span op(tracer, kWriteSpans[static_cast<int>(kind)]);
  Tracer::Span mutate(tracer, "substrate.mutate");
  const Status status = mutator.Apply(kind);
  mutate.End();
  if (status.ok()) {
    Tracer::Span span(tracer, "rvm.sync");
    sync.emplace(ds.sync().ProcessNotifications());
  }
  op.End();
  const double micros = watch.Micros();

  if (!status.ok()) {
    report->Check(false,
                  std::string(WriteKindName(kind)) + ": " + status.ToString());
    return false;
  }
  if (!sync->ok()) {
    report->Check(false, "sync after " + std::string(WriteKindName(kind)) +
                             ": " + sync->status().ToString());
    return false;
  }
  report->Check(true, WriteKindName(kind));
  log->latency_ms.Add(micros / 1e3);
  if (traced_run) {
    (traced ? log->traced_op_us : log->untraced_op_us).Add(micros);
    log->kind_us[static_cast<int>(kind)].Add(micros);
    const idm::iql::DataspaceStats after = ds.Stats();
    WriteCounters& c = log->counters;
    ++c.writes;
    c.added += (*sync)->added;
    c.updated += (*sync)->updated;
    c.removed += (*sync)->removed;
    c.sub_pumps += after.subscriptions.pumps - before.subscriptions.pumps;
    c.sub_skipped += after.subscriptions.skipped - before.subscriptions.skipped;
    c.sub_fastpath +=
        after.subscriptions.fastpath - before.subscriptions.fastpath;
    c.sub_recomputes +=
        after.subscriptions.recomputes - before.subscriptions.recomputes;
    c.sub_deltas += after.subscriptions.deltas - before.subscriptions.deltas;
    c.wal_bytes += after.storage.wal_bytes - before.storage.wal_bytes;
    c.mutations_logged +=
        after.storage.mutations_logged - before.storage.mutations_logged;
  }
  return true;
}

bool RunTable4(Dataspace& ds, const std::vector<PreparedQuery>* prepared,
               bool measure, Tracer* tracer, QueryLog* log,
               std::vector<QueryResult>* results, Report* report) {
  const std::vector<Table4Query>& queries = Table4();
  results->assign(queries.size(), QueryResult());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!RunQuery(ds, queries[i].iql,
                  prepared == nullptr ? nullptr : &(*prepared)[i], measure,
                  tracer, log, &(*results)[i], report)) {
      return false;
    }
  }
  return true;
}

std::vector<Answer> Answers(const Dataspace& ds,
                            const std::vector<QueryResult>& results) {
  std::vector<Answer> answers;
  for (const QueryResult& result : results) {
    answers.push_back(UriAnswer(ds, result));
  }
  return answers;
}

Result<std::vector<PreparedQuery>> PrepareTable4(const Dataspace& ds) {
  std::vector<PreparedQuery> prepared;
  for (const Table4Query& query : Table4()) {
    IDM_ASSIGN_OR_RETURN(PreparedQuery handle, ds.Prepare(query.iql));
    prepared.push_back(std::move(handle));
  }
  return prepared;
}

void CheckPinnedCounts(uint64_t seed, const std::vector<QueryResult>& results,
                       Report* report) {
  if (seed != 42) return;
  for (size_t i = 0; i < Table4().size(); ++i) {
    const Table4Query& query = Table4()[i];
    report->Check(results[i].size() == query.count_at_seed_42,
                  std::string(query.id) + " returned " +
                      std::to_string(results[i].size()) + " rows, pinned " +
                      std::to_string(query.count_at_seed_42));
  }
}

bool ProbeRecovery(idm::storage::Env* env, const std::string& dir,
                   Tracer* tracer, RecoveryProbe* probe, Report* report) {
  const std::string copy = dir + "-probe";
  auto wipe = [&] {
    auto names = env->ListDir(copy);
    if (!names.ok()) return;
    for (const std::string& name : *names) (void)env->Delete(copy + "/" + name);
  };
  wipe();
  Status status = env->CreateDir(copy);
  auto names = env->ListDir(dir);
  if (!status.ok() || !names.ok()) {
    report->Check(false, "recovery probe: cannot copy " + dir);
    return false;
  }
  for (const std::string& name : *names) {
    auto data = env->ReadFile(dir + "/" + name);
    if (!data.ok()) continue;  // e.g. a directory
    if (!env->Append(copy + "/" + name, *data).ok() ||
        !env->Sync(copy + "/" + name).ok()) {
      report->Check(false, "recovery probe: cannot copy " + name);
      return false;
    }
  }

  tracer->set_active(true);
  idm::SimClock clock;
  Stopwatch open_watch;
  Tracer::Span open_span(tracer, "storage.open");
  auto recovered = idm::storage::StorageEngine::Open(
      env, copy, idm::storage::StorageOptions{}, &clock);
  open_span.End();
  probe->open_ms = open_watch.Millis();
  if (!recovered.ok()) {
    report->Check(false,
                  "recovery probe: open: " + recovered.status().ToString());
    return false;
  }
  idm::rvm::ReplicaIndexesModule module;
  module.SetClock(&clock);
  Status restored;
  Stopwatch restore_watch;
  if (recovered->snapshot.has_value()) {
    Tracer::Span span(tracer, "rvm.restore_snapshot");
    restored = module.RestoreSnapshot(*recovered->snapshot);
  }
  probe->restore_ms = restore_watch.Millis();
  Stopwatch replay_watch;
  Status replayed;
  {
    Tracer::Span span(tracer, "rvm.replay");
    replayed = module.ReplayMutations(recovered->mutations);
  }
  probe->replay_ms = replay_watch.Millis();
  probe->replayed = recovered->mutations.size();
  recovered->engine.reset();
  wipe();
  report->Check(restored.ok() && replayed.ok(),
                "recovery probe: " +
                    (restored.ok() ? replayed : restored).ToString());
  return restored.ok() && replayed.ok();
}

uint64_t CheckpointBytes(const idm::storage::StorageEngine& engine) {
  if (engine.generation() == 0) return 0;
  auto image = engine.env()->ReadFile(engine.LiveCheckpointPath());
  return image.ok() ? image->size() : 0;
}

bool RestartCycle(std::unique_ptr<Dataspace>* ds,
                  const Dataspace::Config& durable,
                  const idm::workload::BuiltDataspace& sources,
                  Tracer* tracer, RunLogs* logs, Report* report) {
  QueryLog unmeasured;
  std::vector<QueryResult> results;
  if (!RunTable4(**ds, nullptr, false, tracer, &unmeasured, &results,
                 report)) {
    return false;
  }
  const std::vector<Answer> before = Answers(**ds, results);
  const size_t live_before = (*ds)->module().catalog().live_count();
  AccountStorage(**ds, logs);
  ds->reset();

  tracer->set_active(true);
  Stopwatch restart;
  Tracer::Span span(tracer, "storage.restart");
  auto reopened = Dataspace::Open(durable);
  if (!reopened.ok()) {
    report->Check(false, "restart: " + reopened.status().ToString());
    return false;
  }
  *ds = std::move(reopened.value());
  AttachSources(**ds, sources);
  span.End();
  logs->restart_s.Add(restart.Seconds());
  if (!RunTable4(**ds, nullptr, false, tracer, &unmeasured, &results,
                 report)) {
    return false;
  }
  logs->restart_to_answer_s.Add(restart.Seconds());
  report->Check(Answers(**ds, results) == before,
                "answers changed across a restart");
  report->Check((*ds)->module().catalog().live_count() == live_before,
                "live views changed across a restart");
  if (tracer->enabled()) {
    RecoveryProbe probe;
    if (ProbeRecovery(durable.env, durable.storage_dir, tracer, &probe,
                      report)) {
      logs->recovery_probes.push_back(probe);
    }
  }
  return true;
}

void AddCacheDelta(const idm::iql::QueryCache::Stats& before,
                   const idm::iql::QueryCache::Stats& after,
                   idm::iql::QueryCache::Stats* total) {
  total->hits += after.hits - before.hits;
  total->misses += after.misses - before.misses;
  total->evictions += after.evictions - before.evictions;
  total->footprint_survived +=
      after.footprint_survived - before.footprint_survived;
  total->stale_skipped += after.stale_skipped - before.stale_skipped;
}

void AccountStorage(const Dataspace& ds, RunLogs* logs) {
  const idm::iql::DataspaceStats stats = ds.Stats();
  logs->storage_commits += stats.storage.commits;
  logs->storage_fsyncs += stats.storage.fsyncs;
}

namespace {

double Ratio(double numerator, double denominator) {
  return denominator == 0 ? 0 : numerator / denominator;
}

}  // namespace

int WriteTrace(const Options& options, const Tracer& tracer, Report* report) {
  if (!options.trace || options.trace_path.empty()) return 0;
  const bool written = tracer.WriteChromeTrace(options.trace_path);
  report->Check(written, "cannot write " + options.trace_path);
  return written ? 0 : 1;
}

void Table4Breakdown(Dataspace& ds, Report* report) {
  constexpr int kRepeats = 5;
  for (const Table4Query& query : Table4()) {
    Samples prepare_us;
    Samples vm_us;
    std::optional<Result<PreparedQuery>> prepared;
    for (int i = 0; i < kRepeats; ++i) {
      Stopwatch watch;
      prepared.emplace(ds.Prepare(query.iql));
      prepare_us.Add(watch.Micros());
    }
    std::string prefix = std::string("iql.table4.") + query.id + ".";
    report->Check(prepared->ok(), prefix + "prepare");
    if (!prepared->ok()) continue;
    const PreparedQuery& handle = prepared->value();
    std::optional<Result<QueryResult>> result;
    for (int i = 0; i < kRepeats; ++i) {
      Stopwatch watch;
      result.emplace(ds.processor().Evaluate(handle.query(), handle.plan(),
                                             nullptr, nullptr));
      vm_us.Add(watch.Micros());
    }
    report->Check(result->ok(), prefix + "evaluate");
    if (!result->ok()) continue;
    report->Metric(prefix + "prepare_us", "iql", prepare_us.Median(), "us");
    report->Metric(prefix + "vm_us", "iql", vm_us.Median(), "us");
    report->Counter(prefix + "expanded_views", "index",
                    static_cast<double>((*result)->expanded_views), "count");
    report->Counter(prefix + "probes", "index",
                    static_cast<double>((*result)->probes.total()), "count");
  }
}

void Emit(const Options& options, const RunLogs& logs, const Tracer& tracer,
          Report* report) {
  const QueryLog& q = logs.queries;
  const WriteLog& w = logs.writes;
  if (!options.trace) {
    report->Metric("setup_s", "bench", logs.setup_s.Median(), "s");
    report->Metric("ops_per_s", "bench", logs.ops_per_s.Median(), "1/s");
    report->Metric("query_p50_ms", "iql",
                   logs.pass_query_p50_ms.empty()
                       ? q.latency_ms.Median()
                       : logs.pass_query_p50_ms.Median(),
                   "ms");
    report->Metric("query_p99_ms", "iql", q.latency_ms.Percentile(99), "ms");
    report->Metric("write_p50_ms", "rvm", w.latency_ms.Percentile(50), "ms");
    report->Metric("write_p90_ms", "rvm", w.latency_ms.Percentile(90), "ms");
    report->Metric("ingest_views_per_s", "rvm",
                   logs.ingest_views_per_s.Median(), "1/s");
    report->Metric("checkpoint_s", "storage", logs.checkpoint_s.Median(),
                   "s");
    report->Metric("restart_s", "storage", logs.restart_s.Median(), "s");
    report->Metric("restart_to_answer_s", "storage",
                   logs.restart_to_answer_s.Median(), "s");
    report->Metric("index_bytes_per_input_byte", "index",
                   logs.index_bytes_per_input_byte, "ratio");
    report->Metric("peak_rss_mb", "bench", logs.peak_rss_mb, "MB");
    report->AddRow("ops_per_s_by_window", "bench", "1/s", logs.ops_per_s);
    report->AddRow("query_latency", "iql", "ms", q.latency_ms);
    report->AddRow("write_latency", "rvm", "ms", w.latency_ms);
    report->AddRow("restart", "storage", "s", logs.restart_s);
    report->AddRow("restart_to_answer", "storage", "s",
                   logs.restart_to_answer_s);
    return;
  }

  auto percentile = [&](const char* span, double p) {
    return tracer.Durations(span).Percentile(p);
  };
  report->Metric("iql.prepare_us.p50", "iql", percentile("iql.prepare", 50),
                 "us");
  report->Metric("iql.prepare_us.p99", "iql", percentile("iql.prepare", 99),
                 "us");
  report->Metric("iql.execute_hit_us.p50", "iql",
                 percentile("iql.execute_hit", 50), "us");
  report->Metric("iql.execute_miss_us.p50", "iql",
                 percentile("iql.execute_miss", 50), "us");
  report->Metric("iql.execute_miss_us.p99", "iql",
                 percentile("iql.execute_miss", 99), "us");
  report->Metric("iql.vm_us.p50", "iql", percentile("iql.vm", 50), "us");
  report->Metric("iql.vm_us.p99", "iql", percentile("iql.vm", 99), "us");
  const idm::iql::QueryCache::Stats& cache = logs.cache_window;
  report->Counter("iql.cache.hit_rate", "iql", cache.hit_rate(), "frac");
  report->Counter("iql.cache.evictions", "iql",
                  static_cast<double>(cache.evictions), "count");
  report->Counter("iql.cache.survival_rate", "iql", cache.survival_rate(),
                  "frac");

  const QueryCounters& qc = q.counters;
  const double queries = static_cast<double>(qc.queries);
  report->Metric("index.postings_us.p50", "index",
                 percentile("index.postings", 50), "us");
  report->Metric("index.postings_us.p99", "index",
                 percentile("index.postings", 99), "us");
  report->Counter("index.blocks_skipped_per_query", "index",
                  Ratio(qc.blocks_skipped, queries), "count");
  report->Counter("index.blocks_built_per_query", "index",
                  Ratio(qc.blocks_built, queries), "count");
  report->Counter("index.probes_per_query.name", "index",
                  Ratio(qc.probes.name_lookups, queries), "count");
  report->Counter("index.probes_per_query.content", "index",
                  Ratio(qc.probes.content_phrases, queries), "count");
  report->Counter("index.probes_per_query.tuple", "index",
                  Ratio(qc.probes.tuple_scans, queries), "count");
  report->Counter("index.probes_per_query.graph", "index",
                  Ratio(qc.probes.graph_walks, queries), "count");
  report->Counter("index.expanded_views_per_query", "index",
                  Ratio(qc.expanded_views, queries), "count");
  report->Counter("index.bytes.name", "index",
                  static_cast<double>(logs.sizes.name_bytes), "bytes");
  report->Counter("index.bytes.tuple", "index",
                  static_cast<double>(logs.sizes.tuple_bytes), "bytes");
  report->Counter("index.bytes.content", "index",
                  static_cast<double>(logs.sizes.content_bytes), "bytes");
  report->Counter("index.bytes.group", "index",
                  static_cast<double>(logs.sizes.group_bytes), "bytes");
  report->Counter("index.bytes.catalog", "index",
                  static_cast<double>(logs.sizes.catalog_bytes), "bytes");
  report->Counter("index.bytes.postings_blocks", "index",
                  static_cast<double>(logs.postings_block_bytes), "bytes");

  for (int kind = 0; kind < 4; ++kind) {
    report->Metric(std::string("rvm.write_us.") +
                       WriteKindName(static_cast<WriteKind>(kind)) + ".p50",
                   "rvm", w.kind_us[kind].Percentile(50), "us");
  }
  const WriteCounters& wc = w.counters;
  const double rounds = static_cast<double>(wc.writes);
  report->Counter("rvm.sync.added_per_round", "rvm", Ratio(wc.added, rounds),
                  "count");
  report->Counter("rvm.sync.updated_per_round", "rvm",
                  Ratio(wc.updated, rounds), "count");
  report->Counter("rvm.sync.removed_per_round", "rvm",
                  Ratio(wc.removed, rounds), "count");
  report->Counter("sub.pumps_per_round", "sub", Ratio(wc.sub_pumps, rounds),
                  "count");
  report->Counter(
      "sub.skipped_frac_per_round", "sub",
      Ratio(wc.sub_skipped,
            wc.sub_skipped + wc.sub_fastpath + wc.sub_recomputes),
      "frac");
  report->Counter("sub.fastpath_per_round", "sub",
                  Ratio(wc.sub_fastpath, rounds), "count");
  report->Counter("sub.recomputes_per_round", "sub",
                  Ratio(wc.sub_recomputes, rounds), "count");
  report->Counter("sub.deltas_per_round", "sub", Ratio(wc.sub_deltas, rounds),
                  "count");
  report->Counter("storage.wal_bytes_per_mutation", "storage",
                  Ratio(wc.wal_bytes, wc.mutations_logged), "bytes");
  report->Counter("storage.mutations_per_write", "storage",
                  Ratio(wc.mutations_logged, rounds), "count");
  report->Counter("storage.commits", "storage",
                  static_cast<double>(logs.storage_commits), "count");
  report->Counter("storage.fsyncs", "storage",
                  static_cast<double>(logs.storage_fsyncs), "count");

  report->Metric("rvm.ingest.catalog_insert_s", "rvm",
                 (logs.ingest_fs.times.catalog_insert +
                  logs.ingest_mail.times.catalog_insert) /
                     1e6,
                 "s");
  report->Metric("rvm.ingest.component_indexing_s", "rvm",
                 (logs.ingest_fs.times.component_indexing +
                  logs.ingest_mail.times.component_indexing) /
                     1e6,
                 "s");
  report->Counter("rvm.ingest.views", "rvm",
                  static_cast<double>(logs.ingest_fs.views_total +
                                      logs.ingest_mail.views_total),
                  "count");
  report->Counter("storage.checkpoint_bytes", "storage",
                  static_cast<double>(logs.checkpoint_bytes), "bytes");

  Samples open_ms;
  Samples restore_ms;
  Samples replay_ms;
  Samples replayed;
  for (const RecoveryProbe& probe : logs.recovery_probes) {
    open_ms.Add(probe.open_ms);
    restore_ms.Add(probe.restore_ms);
    replay_ms.Add(probe.replay_ms);
    replayed.Add(static_cast<double>(probe.replayed));
  }
  report->Metric("storage.open_ms", "storage", open_ms.Median(), "ms");
  report->Metric("rvm.restore_snapshot_ms", "rvm", restore_ms.Median(), "ms");
  report->Metric("rvm.replay_ms", "rvm", replay_ms.Median(), "ms");
  report->Counter("storage.replayed_mutations", "storage", replayed.Median(),
                  "count");

  // Tracing overhead on the operations' own path: traced operations
  // against the untraced ones they alternate with in this run, by median
  // latency (a few very slow writes would swamp a ratio of means).
  Samples traced = q.traced_op_us;
  traced.Append(w.traced_op_us);
  Samples untraced = q.untraced_op_us;
  untraced.Append(w.untraced_op_us);
  report->Metric("bench.trace_overhead_frac", "bench",
                 traced.empty() ? 0
                                : 1 - Ratio(untraced.Median(), traced.Median()),
                 "frac");
  report->AddRow("iql.prepare_us", "iql", "us", tracer.Durations("iql.prepare"));
  report->AddRow("iql.execute_hit_us", "iql", "us",
                 tracer.Durations("iql.execute_hit"));
  report->AddRow("iql.execute_miss_us", "iql", "us",
                 tracer.Durations("iql.execute_miss"));
  report->AddRow("iql.query_self_us", "iql", "us",
                 tracer.SelfTimes("iql.query"));
  report->AddRow("iql.vm_us", "iql", "us", tracer.Durations("iql.vm"));
  report->AddRow("index.postings_us", "index", "us",
                 tracer.Durations("index.postings"));
  report->AddRow("rvm.sync_us", "rvm", "us", tracer.Durations("rvm.sync"));
  report->AddRow("substrate.mutate_us", "substrate", "us",
                 tracer.Durations("substrate.mutate"));
}

}  // namespace perfbench
