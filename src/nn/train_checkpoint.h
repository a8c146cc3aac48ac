// Whole-training-run checkpointing: one atomic, versioned, CRC-checked
// file (common/checkpoint.h) holding everything a trainer needs to resume
// a bit-identical trajectory after process death —
//
//   "params"     every nn::Parameter tensor (name/shape validated)
//   "optimizer"  Adam's moment tensors and step counter
//   "rng"        the trainer's full random stream state
//   "trainer"    epochs completed + the per-epoch loss curve so far
//
// Every trainer in the repo (core::Trainer, which DekgIlpTrainer, TACT
// and Neural LP train through, and the batched KGE loop behind
// TrainKgeModel and TrainGen) runs its epochs through RunEpochLoop below;
// a run resumed from epoch k produces the same parameters, losses, and
// Evaluate() metrics as one that ran straight through.
#ifndef DEKG_NN_TRAIN_CHECKPOINT_H_
#define DEKG_NN_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace dekg::nn {

// Epoch-loop progress carried across a crash.
struct TrainLoopState {
  int64_t epochs_completed = 0;
  std::vector<double> epoch_losses;  // one entry per completed epoch
};

// Atomically writes the full training state to `path`. Returns false on
// I/O failure (disk full, unwritable directory, injected fault); the
// previous checkpoint at `path`, if any, is left intact.
bool SaveTrainState(const std::string& path, const Module& module,
                    const Adam& optimizer, const Rng& rng,
                    const TrainLoopState& loop);

// Restores all four sections from `path`. Returns false when the file is
// missing (fresh start); aborts on corruption or architecture mismatch —
// a checkpoint that passed its CRC but doesn't fit the model is operator
// error, not crash damage.
bool LoadTrainState(const std::string& path, Module* module,
                    Adam* optimizer, Rng* rng, TrainLoopState* loop);

// Restores only the "params" section — what a frozen inference server
// needs from a training checkpoint (optimizer moments and RNG state are
// training-only). Accepts both full train checkpoints and bare
// Module::SaveCheckpoint files. Unlike LoadTrainState this never aborts
// on a bad file: missing files and corruption are reported through the
// return value and *error so a long-lived server can refuse to start (or
// to hot-reload) gracefully. Architecture mismatch still aborts inside
// RestoreParameters — wiring the wrong checkpoint to the wrong model is
// operator error.
bool LoadParamsOnly(const std::string& path, Module* module,
                    std::string* error);

// The checkpointed epoch loop every trainer shares. `config` is a train
// config with epochs / checkpoint_path / checkpoint_every / verbose
// fields. With a checkpoint path, it resumes from an existing checkpoint
// there and atomically rewrites it every checkpoint_every epochs and after
// the final one; a failed save logs a warning and training continues on
// the previous checkpoint. `epoch()` trains one epoch and returns its mean
// loss. Returns the loss curve over every epoch, those recovered from the
// checkpoint included.
template <typename Config, typename EpochFn>
std::vector<double> RunEpochLoop(const Config& config, const std::string& name,
                                 Module* module, Adam* optimizer, Rng* rng,
                                 TrainLoopState* loop, EpochFn&& epoch) {
  const std::string& path = config.checkpoint_path;
  if (!path.empty() && LoadTrainState(path, module, optimizer, rng, loop) &&
      config.verbose) {
    DEKG_INFO() << name << " resumed from " << path << " at epoch "
                << loop->epochs_completed;
  }
  for (int64_t done = loop->epochs_completed; done < config.epochs;) {
    loop->epoch_losses.push_back(epoch());
    loop->epochs_completed = ++done;
    if (config.verbose) {
      DEKG_INFO() << name << " epoch " << done << "/" << config.epochs
                  << " loss " << loop->epoch_losses.back();
    }
    if (!path.empty() && config.checkpoint_every > 0 &&
        (done % config.checkpoint_every == 0 || done == config.epochs) &&
        !SaveTrainState(path, *module, *optimizer, *rng, *loop)) {
      DEKG_WARN() << "checkpoint save failed at epoch " << done << ": "
                  << path;
    }
  }
  return loop->epoch_losses;
}

}  // namespace dekg::nn

#endif  // DEKG_NN_TRAIN_CHECKPOINT_H_
