// Adam over a Module's parameter list, plus global-norm gradient
// clipping. The paper tunes learning rate over {0.1, 0.01, 0.001, 0.0005}
// and trains with Adam; every trainer in the repo uses this one optimizer.
//
// SparseStep() is a deterministic *row-sparse* step: each rank-2
// (embedding-style [rows, cols]) parameter updates only the rows the step
// actually touched plus the tracked "hot" rows whose moments still hold
// nonzero bits; every other parameter updates densely. Every skipped row
// is a provable bitwise no-op of the dense update (zero-bit gradient row,
// all-+0 moments, no weight decay), so SparseStep() is bit-identical to
// Step() — see DESIGN.md §8 — and, unlike a deferred-replay design,
// parameter values are always current: a forward pass may read any row
// between steps.
//
// Both steps are *fused multi-tensor* passes: each step first resolves
// every parameter (and in sparse mode every touched-or-hot row run) into a
// list of contiguous element spans, then applies the update to all spans
// in one lane-vectorized sweep (tensor/lanes.h loop shape). Updates are
// per-element independent, so the fusion is bit-identical to the
// historical per-parameter loops; the checkpoint wire format is unchanged.
#ifndef DEKG_NN_OPTIMIZER_H_
#define DEKG_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace dekg::nn {

// Scales all gradients so their global L2 norm is at most max_norm.
// Returns the pre-clip norm. Parameters without gradients are skipped.
double ClipGradNorm(Module* module, double max_norm);

class Adam {
 public:
  struct Options {
    double lr = 0.01;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
  };

  Adam(Module* module, Options options);

  // Applies one update using the gradients currently stored on the
  // parameters. Parameters whose gradient was never touched this step are
  // skipped (sparse-friendly).
  void Step();
  // The row-sparse step described above; bit-identical to Step().
  void SparseStep();

  // Serializes the moment tensors and step counter for checkpointing, and
  // restores them. RestoreState returns false on malformed bytes or a
  // parameter-count mismatch, leaving the state unspecified; callers treat
  // that as a corrupt checkpoint. Hot-row bookkeeping is derived state
  // (recomputed from the restored tensors), so the wire format is
  // identical to the all-dense one.
  void SerializeState(std::vector<uint8_t>* out) const;
  bool RestoreState(const std::vector<uint8_t>& payload);

 private:
  // Hot-row tracking for one parameter under sparse steps. Invariant
  // while `valid`: every row NOT listed in `rows` has exclusively +0.0f
  // bit patterns in both moments, which makes its zero-gradient dense
  // update a bitwise no-op. Dense steps and state restores invalidate the
  // set; the next sparse step rebuilds it by scanning the moments.
  struct HotRowState {
    std::vector<int64_t> rows;  // ascending
    bool valid = false;
  };

  void StepImpl(bool sparse);

  Module* module_;
  Options options_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  std::vector<HotRowState> hot_;
  int64_t t_ = 0;
};

}  // namespace dekg::nn

#endif  // DEKG_NN_OPTIMIZER_H_
