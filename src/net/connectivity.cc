#include "net/connectivity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/check.h"

namespace td {

Connectivity Connectivity::FromRadioRange(const Deployment& deployment,
                                          double range) {
  TD_CHECK_GT(range, 0.0);
  const std::vector<Point>& pos = deployment.positions();
  const size_t n = pos.size();

  // Uniform grid of cells at least `range` wide over the bounding box: a
  // node's neighbors can only sit in its own or the eight surrounding
  // cells, so the all-pairs scan becomes O(n * local density). The cell is
  // widened by a relative 2^-20 (plus a term for coordinates far from the
  // origin) so that rounding in (x - min) / cell can never put two nodes
  // within range two cells apart.
  double min_x = pos[0].x, max_x = pos[0].x;
  double min_y = pos[0].y, max_y = pos[0].y;
  for (const Point& p : pos) {
    TD_CHECK(std::isfinite(p.x) && std::isfinite(p.y));
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double magnitude = std::max({std::abs(min_x), std::abs(max_x),
                                     std::abs(min_y), std::abs(max_y)});
  double cell = range * (1.0 + 0x1p-20) + magnitude * 0x1p-40;
  auto cells_along = [&](double span) { return std::floor(span / cell) + 1.0; };
  // Wider cells only add candidates; doubling them keeps a sparse field in
  // a large box from allocating cells by area.
  while (cells_along(max_x - min_x) * cells_along(max_y - min_y) >
         2.0 * static_cast<double>(n)) {
    cell *= 2.0;
  }
  const uint32_t gx = static_cast<uint32_t>(cells_along(max_x - min_x));
  const uint32_t gy = static_cast<uint32_t>(cells_along(max_y - min_y));

  // Counting sort into row-major cells, ids ascending within a cell, with
  // the coordinates copied alongside: a node's neighborhood is then three
  // contiguous runs of slots, one per cell row.
  std::vector<uint32_t> cell_of(n);
  std::vector<uint32_t> cell_begin(static_cast<size_t>(gx) * gy + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t cx = std::min(
        static_cast<uint32_t>((pos[v].x - min_x) / cell), gx - 1);
    const uint32_t cy = std::min(
        static_cast<uint32_t>((pos[v].y - min_y) / cell), gy - 1);
    cell_of[v] = cy * gx + cx;
    ++cell_begin[cell_of[v] + 1];
  }
  std::partial_sum(cell_begin.begin(), cell_begin.end(), cell_begin.begin());
  std::vector<uint32_t> slot_of(n);
  std::vector<NodeId> ids(n);
  std::vector<double> xs(n), ys(n);
  {
    std::vector<uint32_t> fill(cell_begin.begin(), cell_begin.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      const uint32_t s = fill[cell_of[v]]++;
      slot_of[v] = s;
      ids[s] = v;
      xs[s] = pos[v].x;
      ys[s] = pos[v].y;
    }
  }

  // The link decision is exactly Distance(a, b) <= range. The squared
  // distance settles it outside a relative 1e-9 band around range^2, where
  // rounding cannot flip it; inside the band Distance itself decides. Both
  // tests are symmetric in (a, b), so the graph is too.
  const double r2 = range * range;
  const double band = r2 * 1e-9;
  // Gathers into `out` the ids of every node within range of node `a`,
  // itself included, in slot order. A node hears about a third of its
  // candidates, at random, so the loop has no branch on the outcome; the
  // band test is one rarely taken branch.
  std::vector<NodeId> out;
  auto gather = [&, r2, band](NodeId a) -> uint32_t {
    const uint32_t cx = cell_of[a] % gx;
    const uint32_t cy = cell_of[a] / gx;
    const uint32_t x0 = cx > 0 ? cx - 1 : 0;
    const uint32_t x1 = std::min(cx + 1, gx - 1);
    const uint32_t y0 = cy > 0 ? cy - 1 : 0;
    const uint32_t y1 = std::min(cy + 1, gy - 1);
    size_t candidates = 0;
    for (uint32_t y = y0; y <= y1; ++y) {
      const size_t row = static_cast<size_t>(y) * gx;
      candidates += cell_begin[row + x1 + 1] - cell_begin[row + x0];
    }
    if (out.size() < candidates) out.resize(candidates);
    // Plain pointers, so the compiler keeps them in registers across the
    // stores into `out`.
    const double* const px = xs.data();
    const double* const py = ys.data();
    const NodeId* const pid = ids.data();
    NodeId* const dst = out.data();
    const double x = px[slot_of[a]];
    const double y = py[slot_of[a]];
    uint32_t k = 0;
    for (uint32_t row_y = y0; row_y <= y1; ++row_y) {
      const size_t row = static_cast<size_t>(row_y) * gx;
      const uint32_t end = cell_begin[row + x1 + 1];
      for (uint32_t s = cell_begin[row + x0]; s < end; ++s) {
        const double dx = x - px[s];
        const double dy = y - py[s];
        const double d2 = dx * dx + dy * dy;
        bool hit = d2 <= r2;
        if (std::abs(d2 - r2) <= band) [[unlikely]] {
          hit = Distance({x, y}, {px[s], py[s]}) <= range;
        }
        dst[k] = pid[s];
        k += hit;
      }
    }
    return k;
  };

  // Degrees, visiting the nodes in cell order for locality (each count
  // includes the node itself).
  Connectivity c;
  c.begin_.assign(n + 1, 0);
  for (uint32_t s = 0; s < n; ++s) c.begin_[ids[s] + 1] = gather(ids[s]) - 1;
  uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    total += c.begin_[v + 1];
    TD_CHECK_LE(total, UINT32_MAX);
    c.begin_[v + 1] = static_cast<uint32_t>(total);
  }
  // The transposing scatter: visiting a in ascending order and appending it
  // to each neighbor's list leaves every list ascending.
  c.target_.resize(total);
  std::vector<uint32_t> fill(c.begin_.begin(), c.begin_.end() - 1);
  for (NodeId a = 0; a < n; ++a) {
    const uint32_t k = gather(a);
    for (uint32_t j = 0; j < k; ++j) {
      const NodeId b = out[j];
      if (b != a) c.target_[fill[b]++] = a;
    }
  }
  for (NodeId v = 0; v < n; ++v) TD_CHECK_EQ(fill[v], c.begin_[v + 1]);
  return c;
}

Connectivity Connectivity::FromLinks(
    size_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& links) {
  std::vector<std::pair<NodeId, NodeId>> arcs;
  arcs.reserve(2 * links.size());
  for (const auto& [a, b] : links) {
    TD_CHECK_LT(a, num_nodes);
    TD_CHECK_LT(b, num_nodes);
    TD_CHECK_NE(a, b);
    arcs.emplace_back(a, b);
    arcs.emplace_back(b, a);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  Connectivity c;
  c.begin_.assign(num_nodes + 1, 0);
  c.target_.reserve(arcs.size());
  for (const auto& [a, b] : arcs) {
    ++c.begin_[a + 1];
    c.target_.push_back(b);
  }
  std::partial_sum(c.begin_.begin(), c.begin_.end(), c.begin_.begin());
  return c;
}

std::span<const NodeId> Connectivity::Neighbors(NodeId id) const {
  TD_CHECK_LT(id, num_nodes());
  return {target_.data() + begin_[id], target_.data() + begin_[id + 1]};
}

bool Connectivity::AreNeighbors(NodeId a, NodeId b) const {
  const auto nbrs = Neighbors(a);
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

double Connectivity::AverageDegree() const {
  if (num_nodes() == 0) return 0.0;
  return static_cast<double>(target_.size()) /
         static_cast<double>(num_nodes());
}

bool Connectivity::IsConnected(NodeId root) const {
  std::vector<bool> seen(num_nodes(), false);
  std::vector<NodeId> stack{root};
  seen[root] = true;
  size_t count = 0;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    ++count;
    for (NodeId w : Neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return count == num_nodes();
}

}  // namespace td
