#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/serialize.hpp"
#include "src/common/thread_pool.hpp"
#include "src/forest/forest_isa.hpp"
#include "src/forest/tree.hpp"
#include "src/linear/matrix.hpp"

/// \file flat_forest.hpp
/// Cache-blocked tree ensemble for batched inference.
///
/// FlatForest packs any number of fitted RegressionTrees into one
/// contiguous array of 16-byte nodes (threshold + feature + left-child
/// index; four nodes per cache line) with per-tree root offsets. Nodes
/// are renumbered breadth-first with sibling children adjacent, so
///   - `right == left + 1` always: the traversal step is branchless
///     index arithmetic (`left + (x > threshold)`), and
///   - one tree level occupies one contiguous run, which is exactly the
///     access pattern of the level-synchronous walk below.
/// A leaf stores its prediction in the threshold slot (feature < 0), so
/// the hot loop touches a single array.
///
/// Prediction walks *slots*: a slot is one (tree, row) pair, and one
/// kernel advances every still-active slot of a block by one level per
/// sweep. The block rule (kInterleaveSlots):
///   - a small window (n_rows * num_trees <= 4096 — a serving window of
///     1-8 rows over a 100-tree forest) walks the whole forest as one
///     block, so all of a row's trees are in flight together;
///   - a large batch (training's predict_curves, the OOB pass, the
///     forest micro-bench) walks one tree at a time over the row block,
///     so the upper tree levels, shared by all rows, stay cache-resident
///     while the rows stream through.
/// Why the small-window block pays: each tree walk is a chain of
/// dependent node loads, and a fitted 5-scale, 100-tree, unlimited-depth
/// model on a history of a thousand configurations packs to many times
/// the L2, so every level of a lone chain waits out a cache miss. A
/// row's trees are independent chains; interleaving them keeps many
/// misses in flight at once (memory-level parallelism). DESIGN.md
/// §Performance records the measured layer and end-to-end gains.
/// Leaf values are summed per row in tree order whatever the block, so
/// every prediction is bitwise identical to the per-tree reference walk.
///
/// The walk ships as three bitwise-identical kernels selected at
/// runtime per batch (forest_isa.hpp; `HPCP_FOREST_ISA` forces a tier):
/// a scalar reference that sweeps the whole block, and SSE2/AVX2 tiers
/// that keep a compacted active list of (node, slot) entries so slots
/// already parked at a leaf are never revisited — on unbalanced
/// unlimited-depth trees that halves the visit count (see
/// flat_forest.cpp for the kernel anatomy and the rejected alternatives,
/// hardware gathers included). Parity is a contract, not an aspiration:
/// the parity suite and bench compare scalar vs SIMD predictions bit for
/// bit, NaN thresholds included.
///
/// It is the only fitted form of RandomForest and GradientBoostedTrees:
/// they pack their grown trees with build(), drop them, and route predict
/// / predict_stats / OOB / staged prediction / warm refits through it (a
/// single-row predict is a 1-row batch of the same kernel); the archive
/// stores its packed arrays (save/load).

namespace hpcp {

class FlatForest {
 public:
  /// One packed traversal node. Internal: feature >= 0, `threshold` is the
  /// split, children live at `left` and `left + 1` (rows with
  /// x[feature] <= threshold go left; a NaN threshold or NaN feature value
  /// goes right, matching IEEE `<=`). Leaf: feature < 0, `threshold`
  /// holds the prediction, `left` is unused (-1).
  struct alignas(16) Node {
    double threshold = 0.0;
    std::int32_t feature = -1;
    std::int32_t left = -1;
  };
  static_assert(sizeof(Node) == 16, "traversal node must pack to 16 bytes");

  /// Block rule: a batch of n rows walks all trees as one block when
  /// n * num_trees() is at most this many slots, else one tree at a time.
  static constexpr std::size_t kInterleaveSlots = 4096;

  FlatForest() = default;

  /// Packs per-tree node lists (RegressionTree::nodes(), root at index 0):
  /// grown trees, legacy archive records, or test shapes a fit cannot
  /// produce. Malformed links throw std::invalid_argument.
  [[nodiscard]] static FlatForest build(
      std::span<const std::vector<RegressionTree::Node>> trees);

  /// Adopts packed arrays from outside (tree t: [roots[t], roots[t+1])),
  /// validated before anything walks them: roots ascend from 0 to the node
  /// count; every internal node has `left` past its own index, `left + 1`
  /// inside its tree (no cycles) and `0 <= feature < num_features`.
  /// A violation throws std::invalid_argument.
  [[nodiscard]] static FlatForest from_packed(
      std::vector<Node> nodes, std::vector<std::int32_t> roots,
      std::size_t num_features);

  /// Three blocks: roots, thresholds, one link word per node
  /// (left << 32 | feature). load() adopts them through from_packed().
  void save(Serializer& out) const;
  [[nodiscard]] static FlatForest load(Deserializer& in,
                                       std::size_t num_features);

  [[nodiscard]] std::size_t num_trees() const noexcept {
    return roots_.empty() ? 0 : roots_.size() - 1;
  }
  [[nodiscard]] bool empty() const noexcept { return num_trees() == 0; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }
  /// Minimum feature-vector width accepted by predict calls.
  [[nodiscard]] std::size_t min_feature_width() const noexcept {
    return min_width_;
  }

  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& roots() const noexcept {
    return roots_;
  }

  /// Warm refit: a copy whose leaves hold the mean target of the (x, y)
  /// rows reaching them, summed in row order; trees refit in parallel on
  /// `pool`, identically at any width. nullopt when a leaf gets no rows.
  [[nodiscard]] std::optional<FlatForest> refit_leaves(
      const Matrix& x, std::span<const double> y,
      ThreadPool* pool = nullptr) const;

  /// Mean per-tree prediction for every row of x (the ensemble average).
  [[nodiscard]] std::vector<double> predict_mean(const Matrix& x) const;

  /// Per-row sum and sum-of-squares of the per-tree predictions, in tree
  /// order (for ensemble-spread statistics). Both spans must have x.rows()
  /// elements.
  void predict_moments(const Matrix& x, std::span<double> sum,
                       std::span<double> sum_sq) const;

  /// Prediction of tree t for one feature vector (GBM's scalar path).
  [[nodiscard]] double predict_tree_row(std::size_t t,
                                        std::span<const double> features) const;

  /// Batched prediction of tree t over a row subset: out[k] = tree t's
  /// prediction for x.row(rows[k]). Used by the out-of-bag pass.
  void predict_tree_rows(std::size_t t, const Matrix& x,
                         std::span<const std::size_t> rows,
                         std::span<double> out) const;

  /// acc[r] += scale * (tree t's prediction for row r), for every row of x.
  /// Used by GBM's staged residual updates and staged prediction.
  void accumulate_tree(std::size_t t, const Matrix& x, double scale,
                       std::span<double> acc) const;

 private:
  /// Width and size guards shared by the batched entry points.
  void check_matrix(const Matrix& x) const;
  void append_tree(std::span<const RegressionTree::Node> nodes);
  /// Leaf node index tree t reaches for every row of x (cur: x.rows()).
  void tree_leaves(std::size_t t, const Matrix& x,
                   std::span<std::int32_t> cur) const;

  /// Walks the slots of trees [t0, t0 + trees) over n rows, leaving
  /// cur[j * n + r] at the leaf tree t0 + j reaches for row r; the
  /// kernels seed every slot from its own tree's root, so cur needs no
  /// prefill by the caller. Slot s's features sit at xd + xbase[s] when
  /// an offset table is given; a null xbase means a one-tree block over
  /// contiguous rows (offset s * d) and is only valid for the vector
  /// tiers — the scalar reference always takes the table
  /// (kernel_needs_xbase in flat_forest.cpp). `act` is the vector tiers'
  /// active-list scratch (>= trees * n entries, reusable across blocks);
  /// it may be null for the scalar tier.
  void walk_block(std::size_t t0, std::size_t trees, std::size_t n,
                  const double* xd, const std::int32_t* xbase,
                  std::int32_t d, std::int32_t* cur, ForestIsa isa,
                  std::int64_t* act) const;

  /// Walks every (tree, row) slot of x in blocks chosen by the block
  /// rule and calls sink(leaves) once per tree, in tree order, with that
  /// tree's x.rows() leaf node indices.
  template <class Sink>
  void walk_rows(const Matrix& x, Sink&& sink) const;

  std::vector<Node> nodes_;
  std::vector<std::int32_t> roots_;  ///< tree t's nodes: [roots_[t], roots_[t+1])
  std::size_t min_width_ = 0;
};

}  // namespace hpcp
