// Lowers parsed + rule-optimized iQL (the logical algebra of ast.h) into
// flat PlanPrograms (plan.h) for the VM. And/or chains become
// accumulator register chains with short-circuit jumps (a conjunct runs
// only while the accumulator is non-empty); set-operator arms become
// sub-programs, which a pool-backed VM runs in parallel and folds in input
// order. Plans do not depend on the thread count.

#ifndef IDM_IQL_PLANNER_H_
#define IDM_IQL_PLANNER_H_

#include <memory>

#include "iql/ast.h"
#include "iql/plan.h"

namespace idm::iql {

class Planner {
 public:
  /// Compiles \p query into a root program (normalized text, canonical
  /// cache key and fingerprint filled in). Never fails: shapes the VM
  /// rejects (nested join inputs, set ops over joins) lower fine and
  /// produce their error when executed.
  std::unique_ptr<PlanProgram> Lower(const Query& query) const;

  /// Compiles a predicate into a pred-flavored program: the executor
  /// seeds r0 with the universe and reads the surviving ids from out_reg
  /// (Vm::Member's one-view membership test).
  std::unique_ptr<PlanProgram> LowerPredicate(const PredNode& pred) const;

  /// True when \p filter is a pure keyword/phrase predicate — the filters
  /// that get tf-idf relevance ranking (§5.1).
  static bool IsRankable(const PredNode& filter);

 private:
  std::unique_ptr<PlanProgram> LowerQueryProgram(const Query& query) const;
  uint16_t LowerPred(const PredNode& pred, uint16_t universe,
                     PlanProgram* program) const;
};

}  // namespace idm::iql

#endif  // IDM_IQL_PLANNER_H_
