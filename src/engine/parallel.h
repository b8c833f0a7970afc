// The parallel spine (paper §4.5): the root pipeline's path from its
// aggregation sink down the probe sides of joins to the source scan. A
// spine is a plan *occurrence*, not a plan node: BuildOp applies the rule
// below as it walks the root's probe path, so a subplan shared with a join
// build side or a scalar subquery (TPC-H Q17, Q22) is claim-driven only
// where it sits on that path. On the spine the source scan claims morsels
// from the shared dispenser — on one thread, or on every worker of a
// pthread region — stateless operators and read-only join probes run
// unchanged inside workers, and the sink keeps one lane per thread, merged
// after the loop (see hashmap.h / ops.h). Everything off the spine (build
// sides, scalar subqueries, the operators above the sink) runs
// sequentially over its full range.
#ifndef LB2_ENGINE_PARALLEL_H_
#define LB2_ENGINE_PARALLEL_H_

#include "plan/plan.h"

namespace lb2::engine {

/// The child through which the root pipeline continues below `n` (the
/// probe side of a join), or -1 at the source scan.
inline int SpineChild(const plan::PlanNode& n) {
  switch (n.type) {
    case plan::OpType::kScan:
      return -1;
    case plan::OpType::kHashJoin:
      return 1;  // builds run sequentially before the loop; probes are
                 // read-only
    default:
      return 0;
  }
}

/// True when `root` has a spine: peeling Sort/Limit/Project/Select reaches
/// an aggregation sink (only aggregates have a merge-safe sink to fold
/// per-thread lanes or an interpreted prefix into), and its input follows
/// Select/Project/join-probe edges down to a base Scan. This is the one
/// spine walker: BuildOp follows SpineChild from the root only when it
/// returns true, and it is also the precondition for a mid-query
/// interpreted→compiled switch (MorselEligible).
inline bool HasSpine(const plan::PlanRef& root) {
  using plan::OpType;
  const plan::PlanNode* p = root.get();
  while (p->type == OpType::kSort || p->type == OpType::kLimit ||
         p->type == OpType::kProject || p->type == OpType::kSelect) {
    p = p->children[0].get();
  }
  if (p->type != OpType::kGroupAgg && p->type != OpType::kScalarAgg) {
    return false;
  }
  for (p = p->children[0].get(); p->type != OpType::kScan;
       p = p->children[static_cast<size_t>(SpineChild(*p))].get()) {
    switch (p->type) {
      case OpType::kSelect:
      case OpType::kProject:
      case OpType::kHashJoin:
      case OpType::kSemiJoin:
      case OpType::kAntiJoin:
      case OpType::kLeftCountJoin:
        break;
      default:
        return false;  // aggregates/sorts cannot source a claim loop
    }
  }
  return true;
}

/// True when `q` can run morsel-driven end to end — the precondition for a
/// mid-query interpreted→compiled switch.
inline bool MorselEligible(const plan::Query& q) { return HasSpine(q.root); }

}  // namespace lb2::engine

#endif  // LB2_ENGINE_PARALLEL_H_
