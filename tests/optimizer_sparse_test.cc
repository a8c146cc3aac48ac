// Sparse-update semantics: optimizers must skip parameters whose gradient
// was never populated in a step, and embedding rows that were not gathered
// must keep exactly their previous values (modulo weight decay choices).
// These semantics are what keeps unseen-entity rows frozen at their random
// initialization during baseline training — the paper's OpenKE extension.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/optimizer.h"

namespace dekg::nn {
namespace {

// Asserts every element of the two tables is bitwise equal (EXPECT_EQ on
// floats is exact; NaN-free by construction here).
void ExpectTablesBitIdentical(const Embedding& a, const Embedding& b,
                              const std::string& label) {
  const Tensor& ta = a.table().value();
  const Tensor& tb = b.table().value();
  ASSERT_EQ(ta.numel(), tb.numel()) << label;
  for (int64_t i = 0; i < ta.numel(); ++i) {
    ASSERT_EQ(ta.Data()[i], tb.Data()[i]) << label << " element " << i;
  }
}

// Populates gradients on `table`: gather `rows`, square-sum loss, backward.
void BackwardGather(Embedding* table, const std::vector<int64_t>& rows) {
  table->ZeroGrad();
  ag::SumAll(ag::Square(table->Forward(rows))).Backward();
}

// The touch schedule used by the equivalence tests: rows revisited after
// idle stretches, rows never touched, and one step touching nothing new —
// the shapes that distinguish true dense semantics (hot rows keep moving
// through moment decay while idle) from approximate sparse updates.
const std::vector<std::vector<int64_t>> kTouchSchedule = {
    {0, 3}, {3, 5}, {1}, {3}, {0, 1, 5}, {2}, {2}, {0}, {5}, {1, 2, 3},
};

TEST(SparseOptimizerTest, AdamSparseStepsAreBitIdenticalToDense) {
  Rng rng_a(21), rng_b(21);
  Embedding dense_table(8, 4, &rng_a);
  Embedding sparse_table(8, 4, &rng_b);
  ExpectTablesBitIdentical(dense_table, sparse_table, "init");
  Adam dense_opt(&dense_table, {.lr = 0.05});
  Adam sparse_opt(&sparse_table, {.lr = 0.05});
  for (size_t s = 0; s < kTouchSchedule.size(); ++s) {
    BackwardGather(&dense_table, kTouchSchedule[s]);
    dense_opt.Step();
    BackwardGather(&sparse_table, kTouchSchedule[s]);
    sparse_opt.SparseStep();
    // Values must match after EVERY step — the next forward pass may read
    // any row, so sparse updates cannot defer work across steps.
    ExpectTablesBitIdentical(dense_table, sparse_table,
                             "step " + std::to_string(s));
  }
}

TEST(SparseOptimizerTest, IdleHotRowsKeepDecayingLikeDense) {
  // Dense-Adam semantics: once a row has nonzero moments, it moves at
  // every subsequent step the parameter has a gradient — even steps where
  // its own gradient row is all zeros. The sparse path must reproduce
  // those "decay" moves immediately (not defer them), because forward
  // passes read rows between steps.
  Rng rng(24);
  Embedding table(4, 2, &rng);
  Adam optimizer(&table, {.lr = 0.1});
  BackwardGather(&table, {1});
  optimizer.SparseStep();
  Tensor after_touch = table.table().value().Clone();
  // Row 1 idle, row 2 touched: row 1 must still move (moment decay).
  BackwardGather(&table, {2});
  optimizer.SparseStep();
  bool row1_moved = false;
  for (int64_t c = 0; c < 2; ++c) {
    row1_moved =
        row1_moved || table.table().value().At(1, c) != after_touch.At(1, c);
  }
  EXPECT_TRUE(row1_moved) << "idle hot row skipped its decay step";
  // Row 0 has never been touched: bitwise frozen.
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_EQ(table.table().value().At(0, c), after_touch.At(0, c));
  }
}

TEST(SparseOptimizerTest, RestoreMidSparseContinuesBitIdentically) {
  // Serialize after a few sparse steps, restore into a fresh optimizer,
  // and continue both — the hot-row set is derived state, so the restored
  // run must track the original bit-for-bit. Also checks the wire format
  // is the same one a dense-only run produces.
  Rng rng_a(25), rng_b(25);
  Embedding table(8, 4, &rng_a);
  Embedding restored_table(8, 4, &rng_b);
  Adam optimizer(&table, {.lr = 0.05});
  for (size_t s = 0; s < 4; ++s) {
    BackwardGather(&table, kTouchSchedule[s]);
    optimizer.SparseStep();
  }
  std::vector<uint8_t> state;
  optimizer.SerializeState(&state);

  // Mirror the parameter values, then restore the optimizer state.
  for (int64_t i = 0; i < table.table().value().numel(); ++i) {
    restored_table.table().mutable_value().Data()[i] =
        table.table().value().Data()[i];
  }
  Adam restored_opt(&restored_table, {.lr = 0.05});
  ASSERT_TRUE(restored_opt.RestoreState(state));

  for (size_t s = 4; s < kTouchSchedule.size(); ++s) {
    BackwardGather(&table, kTouchSchedule[s]);
    optimizer.SparseStep();
    BackwardGather(&restored_table, kTouchSchedule[s]);
    restored_opt.SparseStep();
    ExpectTablesBitIdentical(table, restored_table,
                             "step " + std::to_string(s));
  }
}

TEST(SparseOptimizerTest, MixedDenseAndSparseStepsStayBitIdentical) {
  // Alternating Step() and SparseStep() on the same optimizer must match
  // an all-dense run: a dense pass invalidates the hot-row set, and the
  // next sparse step rebuilds it from the moment tensors.
  Rng rng_a(26), rng_b(26);
  Embedding dense_table(8, 4, &rng_a);
  Embedding mixed_table(8, 4, &rng_b);
  Adam dense_opt(&dense_table, {.lr = 0.05});
  Adam mixed_opt(&mixed_table, {.lr = 0.05});
  for (size_t s = 0; s < kTouchSchedule.size(); ++s) {
    BackwardGather(&dense_table, kTouchSchedule[s]);
    dense_opt.Step();
    BackwardGather(&mixed_table, kTouchSchedule[s]);
    if (s % 2 == 0) {
      mixed_opt.SparseStep();
    } else {
      mixed_opt.Step();
    }
    ExpectTablesBitIdentical(dense_table, mixed_table,
                             "step " + std::to_string(s));
  }
}

TEST(SparseOptimizerTest, ParametersWithoutGradAreSkipped) {
  Rng rng(1);
  Linear a(3, 3, false, &rng);
  Linear b(3, 3, false, &rng);
  // One module owning both layers' parameters.
  struct Pair : Module {
    Pair(Linear* x, Linear* y) {
      RegisterChild("a", x);
      RegisterChild("b", y);
    }
  } pair(&a, &b);

  Adam optimizer(&pair, {.lr = 0.1});
  Tensor b_before = b.weight().value().Clone();
  // Only a's weight participates in the loss.
  pair.ZeroGrad();
  ag::Var loss = ag::SumAll(ag::Square(a.weight()));
  loss.Backward();
  optimizer.Step();
  EXPECT_TRUE(AllClose(b.weight().value(), b_before, 0.0f))
      << "untouched parameter was modified";
  EXPECT_FALSE(AllClose(a.weight().value(),
                        a.weight().value().Clone().Reshape({3, 3}), -1.0f))
      << "sanity";
}

TEST(SparseOptimizerTest, UngatheredEmbeddingRowsUnchangedByAdam) {
  Rng rng(2);
  Embedding table(6, 4, &rng);
  Adam optimizer(&table, {.lr = 0.5});
  Tensor before = table.table().value().Clone();
  table.ZeroGrad();
  // Touch rows 1 and 3 only.
  ag::Var loss = ag::SumAll(ag::Square(table.Forward({1, 3})));
  loss.Backward();
  optimizer.Step();
  const Tensor& after = table.table().value();
  for (int64_t r : {0, 2, 4, 5}) {
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_EQ(after.At(r, c), before.At(r, c)) << "row " << r;
    }
  }
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_NE(after.At(1, c), before.At(1, c));
    EXPECT_NE(after.At(3, c), before.At(3, c));
  }
}

TEST(SparseOptimizerTest, AdamMomentsOnlyAdvanceOnTouchedSteps) {
  // A parameter trained, skipped for several steps, then trained again
  // must not receive "ghost" momentum updates during the skipped steps.
  Rng rng(3);
  Embedding table(2, 2, &rng);
  Adam optimizer(&table, {.lr = 0.1});

  auto step_touching_row0 = [&]() {
    table.ZeroGrad();
    ag::SumAll(ag::Square(table.Forward({0}))).Backward();
    optimizer.Step();
  };
  auto step_touching_row1 = [&]() {
    table.ZeroGrad();
    ag::SumAll(ag::Square(table.Forward({1}))).Backward();
    optimizer.Step();
  };

  step_touching_row0();
  Tensor row1_snapshot = table.table().value().Clone();
  // Row 1 untouched across these steps...
  step_touching_row0();
  step_touching_row0();
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_EQ(table.table().value().At(1, c), row1_snapshot.At(1, c));
  }
  // ...but still trainable afterwards.
  Tensor before_row1 = table.table().value().Clone();
  step_touching_row1();
  bool changed = false;
  for (int64_t c = 0; c < 2; ++c) {
    changed = changed ||
              table.table().value().At(1, c) != before_row1.At(1, c);
  }
  EXPECT_TRUE(changed);
}

TEST(SparseOptimizerTest, GatherGradIsZeroNotMissingForTouchedTable) {
  // When any row of a table is gathered, scatter-backward materializes a
  // full-size gradient with zeros elsewhere; Adam then *does* update its
  // moments for all rows of that tensor. This documents the exact
  // granularity of sparsity: per-parameter, not per-row.
  Rng rng(4);
  Embedding table(4, 2, &rng);
  table.ZeroGrad();
  ag::SumAll(ag::Square(table.Forward({2}))).Backward();
  const Tensor& grad = table.table().grad();
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_EQ(grad.At(0, c), 0.0f);
    EXPECT_NE(grad.At(2, c), 0.0f);
  }
}

}  // namespace
}  // namespace dekg::nn
