#ifndef SC_RUNTIME_STAGE_SCHEDULER_H_
#define SC_RUNTIME_STAGE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "graph/graph.h"
#include "graph/topo.h"

namespace sc::runtime {

/// Ready-queue scheduling state for one refresh run: turns the optimizer's
/// total order into a dependency-aware dispatch sequence. A node becomes
/// *ready* once every DAG parent is *available* — its output readable
/// from the Memory Catalog (flagged parents, after their in-order publish)
/// or from external storage (unflagged parents, after their write
/// completes). Ready nodes
/// are handed out by ascending order position, so whenever lanes are
/// scarce the runtime degrades toward the optimized sequential order; with
/// one lane the dispatch sequence is exactly the optimizer's order.
///
/// Not internally synchronized: the Controller serializes every call under
/// its run mutex (lanes only touch the scheduler while holding it).
class StageScheduler {
 public:
  StageScheduler(const graph::Graph& g, const graph::Order& order);

  bool HasReady() const { return !ready_.empty(); }
  /// Lowest-order-position ready node, or kInvalidNode when none.
  graph::NodeId PeekReady() const;
  /// Removes and returns the lowest-order-position ready node.
  graph::NodeId PopReady();

  /// Marks `v`'s output readable, unlocking children whose parents are
  /// now all available.
  void MarkAvailable(graph::NodeId v);

  bool AllDispatched() const {
    return dispatched_ ==
           static_cast<std::size_t>(order_.sequence.size());
  }

 private:
  const graph::Graph& g_;
  const graph::Order& order_;
  std::vector<std::int32_t> waiting_parents_;
  // Order positions of ready, undispatched nodes (min-heap).
  std::priority_queue<std::int32_t, std::vector<std::int32_t>,
                      std::greater<std::int32_t>>
      ready_;
  std::size_t dispatched_ = 0;
};

}  // namespace sc::runtime

#endif  // SC_RUNTIME_STAGE_SCHEDULER_H_
