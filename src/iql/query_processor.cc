#include "iql/query_processor.h"

#include <chrono>

#include "iql/parser.h"
#include "iql/plan.h"
#include "iql/planner.h"
#include "iql/vm.h"
#include "util/string_util.h"

namespace idm::iql {

namespace {

Micros WallNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

QueryProcessor::QueryProcessor(const rvm::ReplicaIndexesModule* module,
                               const core::ClassRegistry* classes,
                               Clock* clock, Options options)
    : module_(module), classes_(classes), clock_(clock), options_(options) {
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

QueryProcessor::~QueryProcessor() = default;

bool QueryProcessor::IsRankedQuery(const Query& query) {
  return query.kind == Query::Kind::kFilter && query.filter != nullptr &&
         Planner::IsRankable(*query.filter);
}

bool QueryProcessor::SupportsMatchesDoc(const Query& query) {
  switch (query.kind) {
    case Query::Kind::kFilter:
      // Un-ranked filters test only the view's own name/tuple/content/
      // class components. Ranked (pure keyword) results are ordered by
      // corpus-wide idf, so a single view cannot be judged in isolation.
      return query.filter != nullptr && !Planner::IsRankable(*query.filter);
    case Query::Kind::kPath:
      // `//name[pred]` — one descendant step has no ancestry constraint:
      // membership is name-match plus the step predicate on the view.
      return query.steps.size() == 1 && query.steps[0].descendant;
    default:
      return false;
  }
}

Result<bool> QueryProcessor::MatchesDoc(const Query& query,
                                        index::DocId id) const {
  if (!SupportsMatchesDoc(query)) {
    return Status::InvalidArgument(
        "MatchesDoc: query shape is not per-view maintainable");
  }
  const index::CatalogEntry* entry = module_->catalog().Entry(id);
  if (entry == nullptr || entry->deleted) return false;
  const PredNode* predicate = nullptr;
  if (query.kind == Query::Kind::kFilter) {
    predicate = query.filter.get();
  } else {
    const PathStep& step = query.steps[0];
    const std::string& pattern = step.name_pattern;
    if (!pattern.empty() && pattern != "*" &&
        !WildcardMatch(pattern, module_->names().NameOf(id))) {
      return false;
    }
    predicate = step.predicate.get();
  }
  if (predicate == nullptr) return true;
  // Every predicate op is intersective — pred(X) == X ∩ pred(U) for
  // X ⊆ U — so the live singleton universe answers membership exactly.
  std::unique_ptr<PlanProgram> program =
      Planner(/*parallel=*/false).LowerPredicate(*predicate);
  Vm::Env env{module_, classes_, clock_, &options_, pool_.get()};
  return Vm::Member(env, *program, id);
}

Result<QueryResult> QueryProcessor::Execute(const std::string& iql) const {
  return Execute(iql, nullptr);
}

Result<QueryResult> QueryProcessor::Execute(const std::string& iql,
                                            util::ExecContext* ctx) const {
  IDM_ASSIGN_OR_RETURN(Query query, ParseQuery(iql));
  return Evaluate(query, ctx);
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& query) const {
  return Evaluate(query, nullptr);
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& query,
                                             util::ExecContext* ctx) const {
  return Evaluate(query, ctx, nullptr);
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& query,
                                             util::ExecContext* ctx,
                                             obs::TraceSpan* span) const {
  const Micros start = WallNow();
  std::unique_ptr<PlanProgram> program = Plan(query);
  return Run(*program, start, ctx, span);
}

Result<QueryResult> QueryProcessor::Evaluate(const Query& /*query*/,
                                             const PlanProgram& program,
                                             util::ExecContext* ctx,
                                             obs::TraceSpan* span) const {
  return Run(program, WallNow(), ctx, span);
}

std::unique_ptr<PlanProgram> QueryProcessor::Plan(const Query& query) const {
  return Planner(pool_ != nullptr && pool_->size() > 0).Lower(query);
}

Result<QueryResult> QueryProcessor::Run(const PlanProgram& program,
                                        Micros start, util::ExecContext* ctx,
                                        obs::TraceSpan* span) const {
  Vm::Env env{module_, classes_, clock_, &options_, pool_.get()};
  Result<QueryResult> run = Vm::Run(env, program, ctx, span);
  if (!run.ok()) {
    // A genuine evaluation error while the family was doomed is still an
    // error; governance never hides real failures.
    return run.status();
  }
  QueryResult result = std::move(*run);
  result.elapsed_micros = WallNow() - start;
  if (ctx != nullptr) {
    result.meta.steps_used = ctx->steps_used();
    result.meta.bytes_peak = ctx->bytes_peak();
    if (ctx->doomed()) {
      result.meta.complete = false;
      result.meta.degraded_reason = ctx->status().ToString();
    }
  }
  if (span != nullptr) {
    span->SetAttr("rows", static_cast<int64_t>(result.rows.size()));
    span->SetAttr("expanded", static_cast<int64_t>(result.expanded_views));
    span->SetAttr("probes", static_cast<int64_t>(result.probes.total()));
    if (!result.meta.complete) span->SetAttr("degraded", "true");
  }
  return result;
}

}  // namespace idm::iql
