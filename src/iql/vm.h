// Bytecode VM (DESIGN.md §16): the one iQL evaluator. It executes the
// PlanPrograms the Planner lowers, vector-at-a-time — every register
// holds one batch of sorted candidate view ids, shared (not copied)
// between ops that merely forward it. Phrase predicates are answered from
// the inverted index's block-compressed postings (skip-pointer
// intersection, positions decoded only for survivors). Governed runs
// thread their ExecContext through every loop and postings read, so a
// doomed run stops early and keeps only a §10 prefix. Parallel
// sub-programs fan out over the processor's pool and merge in input
// order, so rows, scores, rule firings and probe counts do not depend on
// the thread count.

#ifndef IDM_IQL_VM_H_
#define IDM_IQL_VM_H_

#include "iql/plan.h"
#include "iql/query_processor.h"
#include "obs/trace.h"
#include "util/exec_context.h"

namespace idm::iql {

class Vm {
 public:
  /// Everything a program needs to execute; all pointers must outlive the
  /// call (they are the owning QueryProcessor's own members).
  struct Env {
    const rvm::ReplicaIndexesModule* module;
    const core::ClassRegistry* classes;
    Clock* clock;
    const QueryProcessor::Options* options;
    util::ThreadPool* pool;  ///< null when threads <= 1
  };

  /// Runs the root \p program. Returns the raw result — elapsed time,
  /// governance meta and root span attributes are filled in by
  /// QueryProcessor's epilogue.
  static Result<QueryResult> Run(const Env& env, const PlanProgram& program,
                                 util::ExecContext* ctx,
                                 obs::TraceSpan* span);

  /// Runs the pred-flavored \p program (Planner::LowerPredicate) over the
  /// one-view universe {id}, ungoverned: true iff \p id survives.
  static Result<bool> Member(const Env& env, const PlanProgram& program,
                             index::DocId id);
};

}  // namespace idm::iql

#endif  // IDM_IQL_VM_H_
