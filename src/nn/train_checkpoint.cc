#include "nn/train_checkpoint.h"

#include "common/checkpoint.h"

namespace dekg::nn {

namespace {

void SerializeRng(const Rng& rng, std::vector<uint8_t>* out) {
  const Rng::Snapshot snapshot = rng.SaveState();
  for (uint64_t word : snapshot.state) ckpt::AppendPod(out, word);
  ckpt::AppendPod(out, snapshot.cached_gaussian);
  ckpt::AppendPod(out, static_cast<uint8_t>(snapshot.has_cached_gaussian));
}

bool RestoreRng(const std::vector<uint8_t>& payload, Rng* rng) {
  ckpt::ByteReader reader(payload);
  Rng::Snapshot snapshot;
  for (uint64_t& word : snapshot.state) {
    if (!reader.ReadPod(&word)) return false;
  }
  uint8_t has_cached = 0;
  if (!reader.ReadPod(&snapshot.cached_gaussian) ||
      !reader.ReadPod(&has_cached) || !reader.AtEnd()) {
    return false;
  }
  snapshot.has_cached_gaussian = has_cached != 0;
  rng->RestoreState(snapshot);
  return true;
}

void SerializeLoop(const TrainLoopState& loop, std::vector<uint8_t>* out) {
  ckpt::AppendPod(out, loop.epochs_completed);
  ckpt::AppendPod(out, static_cast<uint64_t>(loop.epoch_losses.size()));
  for (double loss : loop.epoch_losses) ckpt::AppendPod(out, loss);
}

bool RestoreLoop(const std::vector<uint8_t>& payload, TrainLoopState* loop) {
  ckpt::ByteReader reader(payload);
  uint64_t count = 0;
  if (!reader.ReadPod(&loop->epochs_completed) || !reader.ReadPod(&count)) {
    return false;
  }
  loop->epoch_losses.assign(static_cast<size_t>(count), 0.0);
  for (double& loss : loop->epoch_losses) {
    if (!reader.ReadPod(&loss)) return false;
  }
  return reader.AtEnd();
}

}  // namespace

bool SaveTrainState(const std::string& path, const Module& module,
                    const Adam& optimizer, const Rng& rng,
                    const TrainLoopState& loop) {
  std::vector<ckpt::Section> sections(4);
  sections[0].name = "params";
  module.SerializeParameters(&sections[0].payload);
  sections[1].name = "optimizer";
  optimizer.SerializeState(&sections[1].payload);
  sections[2].name = "rng";
  SerializeRng(rng, &sections[2].payload);
  sections[3].name = "trainer";
  SerializeLoop(loop, &sections[3].payload);
  return ckpt::WriteCheckpointFile(path, sections);
}

bool LoadTrainState(const std::string& path, Module* module,
                    Adam* optimizer, Rng* rng, TrainLoopState* loop) {
  std::vector<ckpt::Section> sections;
  std::string error;
  switch (ckpt::ReadCheckpointFile(path, &sections, &error)) {
    case ckpt::ReadStatus::kNotFound:
      return false;
    case ckpt::ReadStatus::kCorrupt:
      DEKG_FATAL() << error;
      return false;
    case ckpt::ReadStatus::kOk:
      break;
  }
  const ckpt::Section* params = ckpt::FindSection(sections, "params");
  const ckpt::Section* opt = ckpt::FindSection(sections, "optimizer");
  const ckpt::Section* rng_section = ckpt::FindSection(sections, "rng");
  const ckpt::Section* trainer = ckpt::FindSection(sections, "trainer");
  DEKG_CHECK(params != nullptr && opt != nullptr && rng_section != nullptr &&
             trainer != nullptr)
      << "train checkpoint is missing a section: " << path;
  module->RestoreParameters(params->payload, path);
  DEKG_CHECK(optimizer->RestoreState(opt->payload))
      << "optimizer state mismatch in " << path;
  DEKG_CHECK(RestoreRng(rng_section->payload, rng))
      << "malformed rng section in " << path;
  DEKG_CHECK(RestoreLoop(trainer->payload, loop))
      << "malformed trainer section in " << path;
  return true;
}

bool LoadParamsOnly(const std::string& path, Module* module,
                    std::string* error) {
  std::vector<ckpt::Section> sections;
  std::string read_error;
  switch (ckpt::ReadCheckpointFile(path, &sections, &read_error)) {
    case ckpt::ReadStatus::kNotFound:
      if (error != nullptr) *error = "checkpoint not found: " + path;
      return false;
    case ckpt::ReadStatus::kCorrupt:
      if (error != nullptr) *error = "corrupt checkpoint " + path + ": " + read_error;
      return false;
    case ckpt::ReadStatus::kOk:
      break;
  }
  const ckpt::Section* params = ckpt::FindSection(sections, "params");
  if (params == nullptr) {
    if (error != nullptr) *error = "checkpoint has no params section: " + path;
    return false;
  }
  module->RestoreParameters(params->payload, path);
  return true;
}

}  // namespace dekg::nn
