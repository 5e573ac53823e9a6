#include "src/forest/flat_forest.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "src/common/check.hpp"
#include "src/common/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace hpcp {

namespace {

/// Node-count bound that keeps every 32-bit traversal index (node, slot
/// offset) from overflowing.
constexpr std::size_t kMaxNodes =
    static_cast<std::size_t>((std::numeric_limits<std::int32_t>::max)()) / 16;

/// Advances one row through one tree to its leaf (GBM's per-tree row
/// prediction). The traversal step is shared verbatim by every kernel: go
/// left iff x <= threshold, where a NaN threshold or NaN feature value
/// compares false and sends the row right.
inline std::int32_t walk_one(const FlatForest::Node* nodes, std::int32_t nd,
                             const double* xd, std::int32_t xbase) {
  while (nodes[nd].feature >= 0) {
    const FlatForest::Node& node = nodes[nd];
    nd = node.left + (xd[xbase + node.feature] <= node.threshold ? 0 : 1);
  }
  return nd;
}

/// Reference kernel: level-synchronous over the whole slot block. Slot
/// s = j * n + r is tree roots[j] walking row r, whose features sit at
/// xd + xbase[s]. Every sweep advances every slot one level, so upper
/// tree levels stay cache-resident while the rows stream through.
void walk_scalar(const FlatForest::Node* nodes, const std::int32_t* roots,
                 std::size_t trees, std::size_t n, const double* xd,
                 const std::int32_t* xbase, std::int32_t* cur) {
  for (std::size_t j = 0; j < trees; ++j) {
    std::fill(cur + j * n, cur + (j + 1) * n, roots[j]);
  }
  const std::size_t slots = trees * n;
  for (bool active = true; active;) {
    active = false;
    for (std::size_t k = 0; k < slots; ++k) {
      const FlatForest::Node& nd = nodes[cur[k]];
      if (nd.feature < 0) continue;
      cur[k] = nd.left + (xd[xbase[k] + nd.feature] <= nd.threshold ? 0 : 1);
      active = true;
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)

/// Vector tiers: active-list compaction over slots. The scalar reference
/// revisits every parked slot on every sweep, so an unbalanced tree
/// (unlimited depth — the production configuration) costs n * max_depth
/// visits even though only n * mean_depth of them do work; on measured
/// fitted forests max_depth is roughly twice mean_depth, i.e. half the
/// scalar sweeps' visits are wasted. The compaction walk keeps a packed
/// list of still-active (node, slot) entries — node index in the high 32
/// bits, slot in the low 32 — steps every entry one level per sweep, and
/// writes survivors back densely, so parked slots are never touched
/// again and each sweep is a straight streaming pass with branch-free
/// bookkeeping. The eager survivor test (an entry is appended only while
/// its next node is internal) keeps the step itself clamp-free: entries
/// are never leaves.
///
/// The compare runs two entries at a time through _mm_cmpnle_pd, whose
/// predicate is exactly the scalar `!(x <= thr)` including the NaN
/// case (unordered compares true, so NaN features and NaN thresholds
/// send the row right) — that is what keeps the parity contract bitwise.
/// Wider compares were measured and rejected: 4-wide _mm256_cmp_pd needs
/// lane-crossing vector builds that cost more than the compare saves,
/// and the AVX2 hardware-gather formulation loses outright because each
/// step's gather depends on the previous level's result — a dependent
/// gather chain serialises at memory latency while independent scalar
/// loads overlap. The walk is memory-level-parallelism bound, so the
/// four-entry unroll exists to keep many independent node loads in
/// flight, not to fill vector lanes; a block of several trees (the
/// small-window case, see FlatForest::kInterleaveSlots) gives the list
/// trees * n independent chains instead of n.
///
/// Slot offsets: a one-tree block over contiguous rows folds the offset
/// multiply into the step (kContiguous, xb = slot * d, since slot == row)
/// instead of loading a table; multi-tree blocks and the out-of-bag row
/// subset pass a per-slot offset table.
template <bool kContiguous>
__attribute__((always_inline)) inline void walk_compact(
    const FlatForest::Node* nodes, const std::int32_t* roots,
    std::size_t trees, std::size_t n, const double* xd,
    const std::int32_t* xbase, std::int32_t d, std::int32_t* cur,
    std::int64_t* act) {
  // Seed the active list from each slot's own root. A single-leaf tree
  // parks its slots at once (cur must still report the root); slots
  // that leave the list later have had their final leaf written to cur
  // by the step below, so no caller prefill of cur is needed — batched
  // callers reuse one scratch list across blocks.
  std::size_t m = 0;
  for (std::size_t j = 0; j < trees; ++j) {
    const std::int32_t root = roots[j];
    const std::size_t s0 = j * n;
    if (nodes[root].feature < 0) {
      std::fill(cur + s0, cur + s0 + n, root);
      continue;
    }
    for (std::size_t s = s0; s < s0 + n; ++s) {
      act[m++] = static_cast<std::int64_t>(root) << 32 |
                 static_cast<std::uint32_t>(s);
    }
  }
  while (m) {
    std::size_t w = 0;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const std::int64_t e0 = act[i];
      const std::int64_t e1 = act[i + 1];
      const std::int64_t e2 = act[i + 2];
      const std::int64_t e3 = act[i + 3];
      const auto k0 = static_cast<std::int32_t>(e0);
      const auto k1 = static_cast<std::int32_t>(e1);
      const auto k2 = static_cast<std::int32_t>(e2);
      const auto k3 = static_cast<std::int32_t>(e3);
      const auto c0 = static_cast<std::int32_t>(e0 >> 32);
      const auto c1 = static_cast<std::int32_t>(e1 >> 32);
      const auto c2 = static_cast<std::int32_t>(e2 >> 32);
      const auto c3 = static_cast<std::int32_t>(e3 >> 32);
      const FlatForest::Node& n0 = nodes[c0];
      const FlatForest::Node& n1 = nodes[c1];
      const FlatForest::Node& n2 = nodes[c2];
      const FlatForest::Node& n3 = nodes[c3];
      const std::int32_t xb0 = kContiguous ? k0 * d : xbase[k0];
      const std::int32_t xb1 = kContiguous ? k1 * d : xbase[k1];
      const std::int32_t xb2 = kContiguous ? k2 * d : xbase[k2];
      const std::int32_t xb3 = kContiguous ? k3 * d : xbase[k3];
      const __m128d vx01 =
          _mm_set_pd(xd[xb1 + n1.feature], xd[xb0 + n0.feature]);
      const __m128d vt01 = _mm_set_pd(n1.threshold, n0.threshold);
      const __m128d vx23 =
          _mm_set_pd(xd[xb3 + n3.feature], xd[xb2 + n2.feature]);
      const __m128d vt23 = _mm_set_pd(n3.threshold, n2.threshold);
      const int g01 = _mm_movemask_pd(_mm_cmpnle_pd(vx01, vt01));
      const int g23 = _mm_movemask_pd(_mm_cmpnle_pd(vx23, vt23));
      const std::int32_t x0 = n0.left + (g01 & 1);
      const std::int32_t x1 = n1.left + ((g01 >> 1) & 1);
      const std::int32_t x2 = n2.left + (g23 & 1);
      const std::int32_t x3 = n3.left + ((g23 >> 1) & 1);
      cur[k0] = x0;
      cur[k1] = x1;
      cur[k2] = x2;
      cur[k3] = x3;
      act[w] = static_cast<std::int64_t>(x0) << 32 |
               static_cast<std::uint32_t>(k0);
      w += nodes[x0].feature >= 0 ? 1 : 0;
      act[w] = static_cast<std::int64_t>(x1) << 32 |
               static_cast<std::uint32_t>(k1);
      w += nodes[x1].feature >= 0 ? 1 : 0;
      act[w] = static_cast<std::int64_t>(x2) << 32 |
               static_cast<std::uint32_t>(k2);
      w += nodes[x2].feature >= 0 ? 1 : 0;
      act[w] = static_cast<std::int64_t>(x3) << 32 |
               static_cast<std::uint32_t>(k3);
      w += nodes[x3].feature >= 0 ? 1 : 0;
    }
    for (; i < m; ++i) {
      const std::int64_t e = act[i];
      const auto k = static_cast<std::int32_t>(e);
      const auto c = static_cast<std::int32_t>(e >> 32);
      const FlatForest::Node& nd = nodes[c];
      const std::int32_t xb = kContiguous ? k * d : xbase[k];
      const std::int32_t nxt =
          nd.left + (xd[xb + nd.feature] <= nd.threshold ? 0 : 1);
      cur[k] = nxt;
      act[w] = static_cast<std::int64_t>(nxt) << 32 |
               static_cast<std::uint32_t>(k);
      w += nodes[nxt].feature >= 0 ? 1 : 0;
    }
    m = w;
  }
}

/// Baseline x86-64 tier (SSE2 is architectural there).
__attribute__((target("sse2"))) void walk_sse2(
    const FlatForest::Node* nodes, const std::int32_t* roots,
    std::size_t trees, std::size_t n, const double* xd,
    const std::int32_t* xbase, std::int32_t d, std::int32_t* cur,
    std::int64_t* act) {
  if (xbase == nullptr) {
    walk_compact<true>(nodes, roots, trees, n, xd, nullptr, d, cur, act);
  } else {
    walk_compact<false>(nodes, roots, trees, n, xd, xbase, d, cur, act);
  }
}

/// AVX2 tier: the same compaction walk force-inlined under an AVX2
/// target, so the compare/bookkeeping lower to VEX three-operand forms.
/// It shares the 128-bit pairwise compare deliberately — see the
/// walk_compact comment for why wider formulations measured slower.
__attribute__((target("avx2"))) void walk_avx2(
    const FlatForest::Node* nodes, const std::int32_t* roots,
    std::size_t trees, std::size_t n, const double* xd,
    const std::int32_t* xbase, std::int32_t d, std::int32_t* cur,
    std::int64_t* act) {
  if (xbase == nullptr) {
    walk_compact<true>(nodes, roots, trees, n, xd, nullptr, d, cur, act);
  } else {
    walk_compact<false>(nodes, roots, trees, n, xd, xbase, d, cur, act);
  }
}

#endif  // x86

/// Per-slot row offsets for a block of `trees` trees over n contiguous
/// rows of width d: slot j * n + r reads row r. int32 indices; the size
/// guard in check_matrix bounds rows*cols, so the cast cannot truncate.
std::vector<std::int32_t> make_xbase(std::size_t trees, std::size_t n,
                                     std::size_t d) {
  std::vector<std::int32_t> xbase(trees * n);
  for (std::size_t j = 0; j < trees; ++j) {
    for (std::size_t r = 0; r < n; ++r) {
      xbase[j * n + r] = static_cast<std::int32_t>(r * d);
    }
  }
  return xbase;
}

/// The scalar reference takes a precomputed offset table; the vector
/// tiers compute contiguous offsets themselves on one-tree blocks
/// (walk_compact's kContiguous path), so batched callers skip building
/// the table when a vector tier resolved and the block is one tree.
bool kernel_needs_xbase(ForestIsa isa) {
#if defined(__x86_64__) || defined(__i386__)
  return isa == ForestIsa::kScalar;
#else
  (void)isa;
  return true;
#endif
}

}  // namespace

void FlatForest::append_tree(std::span<const RegressionTree::Node> tree) {
  // Renumber breadth-first with sibling children adjacent: right ==
  // left + 1 (the branchless step relies on it) and each level is one
  // contiguous run. The queue pairs (source index, packed index); both
  // child slots are claimed when the parent is written.
  const auto base = static_cast<std::int32_t>(nodes_.size());
  const auto size = static_cast<std::int32_t>(tree.size());
  nodes_.resize(nodes_.size() + tree.size());
  std::vector<std::pair<std::int32_t, std::int32_t>> queue;
  queue.reserve(tree.size());
  queue.emplace_back(0, base);
  std::int32_t next = base + 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [src, dst] = queue[head];
    const RegressionTree::Node& node = tree[static_cast<std::size_t>(src)];
    Node packed;
    if (node.left < 0) {
      packed.threshold = node.value;  // leaf: prediction rides here
    } else {
      // Corrupt legacy archives reach this path; reject malformed
      // links (out-of-range children, shared subtrees / cycles that
      // would claim more slots than the tree has nodes) instead of
      // scribbling past the packed array.
      HPCP_REQUIRE(node.left < size && node.right >= 0 &&
                       node.right < size && node.feature >= 0,
                   "malformed tree: child link out of range");
      HPCP_REQUIRE(next + 2 <= base + size,
                   "malformed tree: node linked more than once");
      packed.threshold = node.threshold;
      packed.feature = node.feature;
      packed.left = next;
      queue.emplace_back(node.left, next);
      queue.emplace_back(node.right, next + 1);
      next += 2;
      min_width_ = std::max(min_width_,
                            static_cast<std::size_t>(node.feature) + 1);
    }
    nodes_[static_cast<std::size_t>(dst)] = packed;
  }
  roots_.push_back(static_cast<std::int32_t>(nodes_.size()));
}

FlatForest FlatForest::build(
    std::span<const std::vector<RegressionTree::Node>> trees) {
  FlatForest flat;
  std::size_t total = 0;
  for (const auto& tree : trees) {
    HPCP_REQUIRE(!tree.empty(), "cannot flatten an empty node list");
    total += tree.size();
  }
  HPCP_REQUIRE(total < kMaxNodes,
               "ensemble too large for 32-bit traversal indices");
  flat.nodes_.reserve(total);
  flat.roots_.reserve(trees.size() + 1);
  flat.roots_.push_back(0);
  for (const auto& tree : trees) flat.append_tree(tree);
  return flat;
}

FlatForest FlatForest::from_packed(std::vector<Node> nodes,
                                   std::vector<std::int32_t> roots,
                                   std::size_t num_features) {
  HPCP_REQUIRE(nodes.size() < kMaxNodes,
               "ensemble too large for 32-bit traversal indices");
  HPCP_REQUIRE(roots.size() >= 2 && roots.front() == 0 &&
                   static_cast<std::size_t>(roots.back()) == nodes.size(),
               "packed forest: roots must run from 0 to the node count");
  FlatForest flat;
  for (std::size_t t = 0; t + 1 < roots.size(); ++t) {
    const std::int32_t end = roots[t + 1];
    HPCP_REQUIRE(roots[t] < end && end <= roots.back(),
                 "packed forest: roots must ascend");
    for (std::int32_t i = roots[t]; i < end; ++i) {
      const Node& node = nodes[static_cast<std::size_t>(i)];
      if (node.feature < 0) continue;  // leaf
      // Every step moves strictly forward and stays inside the tree, so
      // each walk ends at a leaf of its own tree.
      HPCP_REQUIRE(node.left > i && node.left < end - 1,
                   "packed forest: child link out of range");
      HPCP_REQUIRE(static_cast<std::size_t>(node.feature) < num_features,
                   "packed forest: split feature out of range");
      flat.min_width_ = std::max(
          flat.min_width_, static_cast<std::size_t>(node.feature) + 1);
    }
  }
  flat.nodes_ = std::move(nodes);
  flat.roots_ = std::move(roots);
  return flat;
}

void FlatForest::save(Serializer& out) const {
  std::vector<double> thresholds(nodes_.size());
  std::vector<std::size_t> links(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    thresholds[i] = nodes_[i].threshold;
    links[i] = std::uint64_t{static_cast<std::uint32_t>(nodes_[i].left)}
                   << 32 |
               static_cast<std::uint32_t>(nodes_[i].feature);
  }
  out.write(std::vector<std::size_t>(roots_.begin(), roots_.end()));
  out.write(thresholds);
  out.write(links);
}

FlatForest FlatForest::load(Deserializer& in, std::size_t num_features) {
  const std::vector<std::size_t> starts = in.read_sizes();
  const std::vector<double> thresholds = in.read_doubles();
  const std::vector<std::size_t> links = in.read_sizes();
  HPCP_REQUIRE(links.size() == thresholds.size(),
               "packed forest: node blocks differ in length");
  std::vector<std::int32_t> roots(starts.size());
  for (std::size_t t = 0; t < starts.size(); ++t) {
    HPCP_REQUIRE(starts[t] < kMaxNodes, "packed forest: root out of range");
    roots[t] = static_cast<std::int32_t>(starts[t]);
  }
  std::vector<Node> nodes(thresholds.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = {thresholds[i],
                static_cast<std::int32_t>(static_cast<std::uint32_t>(links[i])),
                static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(links[i] >> 32))};
  }
  return from_packed(std::move(nodes), std::move(roots), num_features);
}

std::optional<FlatForest> FlatForest::refit_leaves(const Matrix& x,
                                                   std::span<const double> y,
                                                   ThreadPool* pool) const {
  HPCP_REQUIRE(!empty(), "refit before build");
  HPCP_REQUIRE(x.rows() == y.size(), "row count must match target length");
  FlatForest out = *this;
  // Trees own disjoint node ranges, so each item writes only its own.
  const auto covered = parallel_map(
      num_trees(),
      [&](std::size_t t) -> char {
        const std::int32_t root = roots_[t];
        const auto size = static_cast<std::size_t>(roots_[t + 1] - root);
        std::vector<std::int32_t> leaf(x.rows());
        tree_leaves(t, x, leaf);
        std::vector<double> sum(size, 0.0);
        std::vector<std::size_t> count(size, 0);
        for (std::size_t r = 0; r < x.rows(); ++r) {
          const auto k = static_cast<std::size_t>(leaf[r] - root);
          sum[k] += y[r];
          ++count[k];
        }
        Node* nodes = out.nodes_.data() + root;
        for (std::size_t k = 0; k < size; ++k) {
          if (nodes[k].feature >= 0) continue;
          if (count[k] == 0) return 0;
          nodes[k].threshold = sum[k] / static_cast<double>(count[k]);
        }
        return 1;
      },
      pool);
  for (const char ok : covered) {
    if (!ok) return std::nullopt;
  }
  return out;
}

void FlatForest::check_matrix(const Matrix& x) const {
  HPCP_REQUIRE(x.cols() >= min_width_, "feature width mismatch");
  HPCP_REQUIRE(x.data().size() <=
                   static_cast<std::size_t>(
                       (std::numeric_limits<std::int32_t>::max)()),
               "matrix too large for flat traversal");
}

void FlatForest::walk_block(std::size_t t0, std::size_t trees, std::size_t n,
                            const double* xd, const std::int32_t* xbase,
                            std::int32_t d, std::int32_t* cur, ForestIsa isa,
                            std::int64_t* act) const {
  const Node* nodes = nodes_.data();
  const std::int32_t* roots = roots_.data() + t0;
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case ForestIsa::kAvx2:
      walk_avx2(nodes, roots, trees, n, xd, xbase, d, cur, act);
      return;
    case ForestIsa::kSse2:
      walk_sse2(nodes, roots, trees, n, xd, xbase, d, cur, act);
      return;
#else
    case ForestIsa::kAvx2:
    case ForestIsa::kSse2:
#endif
    case ForestIsa::kScalar:
      break;
  }
  // kernel_needs_xbase guarantees xbase is populated on this path.
  walk_scalar(nodes, roots, trees, n, xd, xbase, cur);
  (void)d;
  (void)act;
}

template <class Sink>
void FlatForest::walk_rows(const Matrix& x, Sink&& sink) const {
  const std::size_t n = x.rows();
  const std::size_t trees = num_trees();
  // The block rule: a small window walks the whole forest as one block,
  // a large batch one tree at a time (see kInterleaveSlots).
  const std::size_t block = n * trees <= kInterleaveSlots ? trees : 1;
  const ForestIsa isa = resolve_forest_isa();
  std::vector<std::int32_t> xbase;
  if (block > 1 || kernel_needs_xbase(isa)) {
    xbase = make_xbase(block, n, x.cols());
  }
  // One active-list scratch buffer shared by every block's walk; the
  // vector kernels seed it (and cur) themselves, so there is no
  // per-block refill here.
  std::vector<std::int64_t> act(kernel_needs_xbase(isa) ? 0 : block * n);
  std::vector<std::int32_t> cur(block * n);
  for (std::size_t t = 0; t < trees; t += block) {
    walk_block(t, block, n, x.data().data(),
               xbase.empty() ? nullptr : xbase.data(),
               static_cast<std::int32_t>(x.cols()), cur.data(), isa,
               act.empty() ? nullptr : act.data());
    for (std::size_t j = 0; j < block; ++j) sink(cur.data() + j * n);
  }
}

std::vector<double> FlatForest::predict_mean(const Matrix& x) const {
  HPCP_REQUIRE(!empty(), "predict before build");
  check_matrix(x);
  std::vector<double> acc(x.rows(), 0.0);
  walk_rows(x, [&](const std::int32_t* leaves) {
    for (std::size_t r = 0; r < acc.size(); ++r) {
      acc[r] += nodes_[leaves[r]].threshold;
    }
  });
  // Divide (don't multiply by a reciprocal): bitwise identical to the
  // per-tree reference walk, which the parity tests require.
  const auto trees = static_cast<double>(num_trees());
  for (auto& v : acc) v /= trees;
  return acc;
}

void FlatForest::predict_moments(const Matrix& x, std::span<double> sum,
                                 std::span<double> sum_sq) const {
  HPCP_REQUIRE(!empty(), "predict before build");
  check_matrix(x);
  HPCP_REQUIRE(sum.size() == x.rows() && sum_sq.size() == x.rows(),
               "moment spans must match row count");
  std::fill(sum.begin(), sum.end(), 0.0);
  std::fill(sum_sq.begin(), sum_sq.end(), 0.0);
  walk_rows(x, [&](const std::int32_t* leaves) {
    for (std::size_t r = 0; r < sum.size(); ++r) {
      const double p = nodes_[leaves[r]].threshold;
      sum[r] += p;
      sum_sq[r] += p * p;
    }
  });
}

double FlatForest::predict_tree_row(std::size_t t,
                                    std::span<const double> features) const {
  HPCP_REQUIRE(t < num_trees(), "tree index out of range");
  HPCP_REQUIRE(features.size() >= min_width_, "feature width mismatch");
  const std::int32_t nd =
      walk_one(nodes_.data(), roots_[t], features.data(), 0);
  return nodes_[static_cast<std::size_t>(nd)].threshold;
}

void FlatForest::predict_tree_rows(std::size_t t, const Matrix& x,
                                   std::span<const std::size_t> rows,
                                   std::span<double> out) const {
  HPCP_REQUIRE(t < num_trees(), "tree index out of range");
  check_matrix(x);
  HPCP_REQUIRE(out.size() == rows.size(), "output span must match row list");
  const std::size_t d = x.cols();
  // Non-contiguous row subset: every kernel takes the offset table here.
  std::vector<std::int32_t> xbase(rows.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    xbase[k] = static_cast<std::int32_t>(rows[k] * d);
  }
  const ForestIsa isa = resolve_forest_isa();
  std::vector<std::int64_t> act(kernel_needs_xbase(isa) ? 0 : rows.size());
  std::vector<std::int32_t> cur(rows.size());
  walk_block(t, 1, rows.size(), x.data().data(), xbase.data(),
             static_cast<std::int32_t>(d), cur.data(), isa,
             act.empty() ? nullptr : act.data());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    out[k] = nodes_[static_cast<std::size_t>(cur[k])].threshold;
  }
}

void FlatForest::tree_leaves(std::size_t t, const Matrix& x,
                             std::span<std::int32_t> cur) const {
  HPCP_REQUIRE(t < num_trees(), "tree index out of range");
  check_matrix(x);
  const std::size_t n = x.rows();
  HPCP_REQUIRE(cur.size() == n, "leaf span must match row count");
  const ForestIsa isa = resolve_forest_isa();
  std::vector<std::int32_t> xbase;
  if (kernel_needs_xbase(isa)) xbase = make_xbase(1, n, x.cols());
  std::vector<std::int64_t> act(kernel_needs_xbase(isa) ? 0 : n);
  walk_block(t, 1, n, x.data().data(), xbase.empty() ? nullptr : xbase.data(),
             static_cast<std::int32_t>(x.cols()), cur.data(), isa,
             act.empty() ? nullptr : act.data());
}

void FlatForest::accumulate_tree(std::size_t t, const Matrix& x, double scale,
                                 std::span<double> acc) const {
  HPCP_REQUIRE(acc.size() == x.rows(), "accumulator must match row count");
  std::vector<std::int32_t> cur(x.rows());
  tree_leaves(t, x, cur);
  for (std::size_t r = 0; r < cur.size(); ++r) {
    acc[r] += scale * nodes_[cur[r]].threshold;
  }
}

}  // namespace hpcp
