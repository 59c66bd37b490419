#include "topology/rings.h"

#include <algorithm>

#include "util/check.h"

namespace td {

namespace {

// The upstream CSR: edge v -> w for every neighbor w one ring closer whose
// link w -> v (the direction the rings propagate) `keep` accepts. Two
// passes, count then fill, so the edge array is sized exactly: every
// Scenario copy carries it. Most neighbors are rejected at random, so both
// passes avoid a data-dependent branch when `keep` is constant: the fill
// writes every neighbor and advances past the kept ones only; once a node
// has all its edges, the rest of its neighbors are rejected.
template <typename Keep>
void BuildUpstreamCsr(const Connectivity& connectivity,
                      const std::vector<int>& level, const Keep& keep,
                      std::vector<uint32_t>* begin,
                      std::vector<NodeId>* target) {
  const size_t n = level.size();
  auto upstream = [&](NodeId v, NodeId w, int up_level) -> uint32_t {
    return level[w] == up_level && keep(w, v);
  };
  begin->assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const int up_level = level[v] - 1;
    uint32_t count = 0;
    if (up_level >= 0) {
      for (NodeId w : connectivity.Neighbors(v)) {
        count += upstream(v, w, up_level);
      }
    }
    (*begin)[v + 1] = (*begin)[v] + count;
  }
  target->resize((*begin)[n]);
  for (NodeId v = 0; v < n; ++v) {
    const int up_level = level[v] - 1;
    if (up_level < 0) continue;
    uint32_t e = (*begin)[v];
    const uint32_t end = (*begin)[v + 1];
    for (NodeId w : connectivity.Neighbors(v)) {
      if (e < end) (*target)[e] = w;
      e += upstream(v, w, up_level);
    }
  }
}

}  // namespace

Rings Rings::Build(const Connectivity& connectivity, NodeId base) {
  return Build(connectivity, base,
               std::vector<bool>(connectivity.num_nodes(), true));
}

Rings Rings::Build(const Connectivity& connectivity, NodeId base,
                   const std::vector<bool>& active) {
  return Build(connectivity, base, active, nullptr);
}

Rings Rings::Build(const Connectivity& connectivity, NodeId base,
                   const std::vector<bool>& active,
                   const LinkFilter& link_ok) {
  TD_CHECK_LT(base, connectivity.num_nodes());
  TD_CHECK_EQ(active.size(), connectivity.num_nodes());
  TD_CHECK(active[base]);
  Rings r;
  r.base_ = base;
  r.level_.assign(connectivity.num_nodes(), kUnreachable);
  r.level_[base] = 0;
  // BFS with the visit order itself as the queue.
  std::vector<NodeId> queue{base};
  queue.reserve(connectivity.num_nodes());
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (NodeId w : connectivity.Neighbors(v)) {
      if (r.level_[w] == kUnreachable && active[w] &&
          (!link_ok || link_ok(v, w))) {
        r.level_[w] = r.level_[v] + 1;
        queue.push_back(w);
      }
    }
  }
  r.max_level_ = 0;
  for (int lv : r.level_) r.max_level_ = std::max(r.max_level_, lv);
  r.by_level_.assign(static_cast<size_t>(r.max_level_) + 1, {});
  for (NodeId id = 0; id < r.level_.size(); ++id) {
    if (r.level_[id] >= 0) {
      r.by_level_[static_cast<size_t>(r.level_[id])].push_back(id);
    }
  }

  if (link_ok) {
    BuildUpstreamCsr(connectivity, r.level_, link_ok, &r.up_begin_,
                     &r.up_target_);
  } else {
    BuildUpstreamCsr(connectivity, r.level_,
                     [](NodeId, NodeId) { return true; }, &r.up_begin_,
                     &r.up_target_);
  }
  return r;
}

int Rings::level(NodeId id) const {
  TD_CHECK_LT(id, level_.size());
  return level_[id];
}

const std::vector<NodeId>& Rings::NodesAtLevel(int level) const {
  TD_CHECK_GE(level, 0);
  TD_CHECK_LE(level, max_level_);
  return by_level_[static_cast<size_t>(level)];
}

std::span<const NodeId> Rings::UpstreamNeighbors(
    const Connectivity& connectivity, NodeId id) const {
  TD_CHECK_EQ(connectivity.num_nodes(), num_nodes());
  TD_CHECK_LT(id, num_nodes());
  return {up_target_.data() + up_begin_[id],
          up_target_.data() + up_begin_[id + 1]};
}

size_t Rings::num_reachable() const {
  size_t n = 0;
  for (int lv : level_) {
    if (lv >= 0) ++n;
  }
  return n;
}

}  // namespace td
