#include "runtime/stage_scheduler.h"

namespace sc::runtime {

StageScheduler::StageScheduler(const graph::Graph& g,
                               const graph::Order& order)
    : g_(g), order_(order) {
  const std::int32_t n = g.num_nodes();
  waiting_parents_.resize(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    waiting_parents_[static_cast<std::size_t>(v)] =
        static_cast<std::int32_t>(g.parents(v).size());
    if (waiting_parents_[static_cast<std::size_t>(v)] == 0) {
      ready_.push(order.position[static_cast<std::size_t>(v)]);
    }
  }
}

graph::NodeId StageScheduler::PeekReady() const {
  if (ready_.empty()) return graph::kInvalidNode;
  return order_.sequence[static_cast<std::size_t>(ready_.top())];
}

graph::NodeId StageScheduler::PopReady() {
  const graph::NodeId v = PeekReady();
  if (v != graph::kInvalidNode) {
    ready_.pop();
    ++dispatched_;
  }
  return v;
}

void StageScheduler::MarkAvailable(graph::NodeId v) {
  for (const graph::NodeId c : g_.children(v)) {
    if (--waiting_parents_[static_cast<std::size_t>(c)] == 0) {
      ready_.push(order_.position[static_cast<std::size_t>(c)]);
    }
  }
}

}  // namespace sc::runtime
