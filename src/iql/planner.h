// Lowers parsed + rule-optimized iQL (the logical algebra of ast.h) into
// flat PlanPrograms (plan.h) for the VM. Serial and/or chains become
// accumulator register chains with short-circuit jumps (a conjunct runs
// only while the accumulator is non-empty); pool-backed processors lower
// multi-child and/or nodes and set-operator arms to parallel
// sub-programs whose results the VM folds in input order, so a program's
// rows and scores do not depend on the thread count.

#ifndef IDM_IQL_PLANNER_H_
#define IDM_IQL_PLANNER_H_

#include <memory>

#include "iql/ast.h"
#include "iql/plan.h"

namespace idm::iql {

class Planner {
 public:
  /// \p parallel: whether the executing processor owns a thread pool
  /// (QueryProcessor::Options::threads > 1). The flag is static per
  /// processor, so it is compiled into the program shape.
  explicit Planner(bool parallel) : parallel_(parallel) {}

  /// Compiles \p query into a root program (normalized text, canonical
  /// cache key and fingerprint filled in). Never fails: shapes the VM
  /// rejects (nested join inputs, set ops over joins) lower fine and
  /// produce their error when executed.
  std::unique_ptr<PlanProgram> Lower(const Query& query) const;

  /// Compiles a predicate into a pred-flavored program: the executor
  /// seeds r0 with the universe and reads the surviving ids from out_reg
  /// (parallel and/or arms, and Vm::Member's one-view membership test).
  std::unique_ptr<PlanProgram> LowerPredicate(const PredNode& pred) const;

  /// True when \p filter is a pure keyword/phrase predicate — the filters
  /// that get tf-idf relevance ranking (§5.1).
  static bool IsRankable(const PredNode& filter);

 private:
  std::unique_ptr<PlanProgram> LowerQueryProgram(const Query& query) const;
  uint16_t LowerPred(const PredNode& pred, uint16_t universe,
                     PlanProgram* program) const;

  bool parallel_;
};

}  // namespace idm::iql

#endif  // IDM_IQL_PLANNER_H_
