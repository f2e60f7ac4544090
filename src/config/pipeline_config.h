// SAND task configuration schema (paper §5.1, Fig. 9).
//
// A task configuration has two sections:
//   dataset      - input source, dataset path, and frame-sampling policy
//   augmentation - an ordered list of stages forming a DAG over named
//                  streams, with five branch types: single, conditional,
//                  random, multi, merge.

#ifndef SAND_CONFIG_PIPELINE_CONFIG_H_
#define SAND_CONFIG_PIPELINE_CONFIG_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/config/yaml.h"
#include "src/tensor/image_ops.h"

namespace sand {

enum class InputSource {
  kFile,
  kStreaming,
};

// Frame-selection policy (paper: "Video handling").
struct SamplingConfig {
  int videos_per_batch = 8;
  int frames_per_video = 8;
  int frame_stride = 4;
  int samples_per_video = 1;
};

// Augmentation operation kinds. Deterministic ops produce shareable objects
// without coordination; stochastic ops go through the shared-window /
// shared-choice mechanisms in the planner.
enum class OpKind {
  kResize,       // deterministic
  kCenterCrop,   // deterministic
  kRandomCrop,   // stochastic (spatial)
  kFlip,         // stochastic (choice)
  kColorJitter,  // stochastic (choice)
  kBlur,         // deterministic
  kRotate90,     // deterministic
  kInvert,       // deterministic
  kCustom,       // user-registered function (§5.5 extensibility)
};

struct AugOp {
  OpKind kind = OpKind::kResize;
  std::string custom_name;  // set for kCustom
  int out_h = 0;            // resize / crops
  int out_w = 0;
  Interpolation interp = Interpolation::kBilinear;
  double prob = 0.5;         // flip probability
  int max_delta = 20;        // color jitter brightness
  double max_contrast = 0.2;  // color jitter contrast
  int kernel = 3;            // blur

  bool IsDeterministic() const {
    return kind == OpKind::kResize || kind == OpKind::kCenterCrop || kind == OpKind::kBlur ||
           kind == OpKind::kRotate90 || kind == OpKind::kInvert;
  }

  // Stable textual identity used for cross-task node merging: two ops with
  // equal signatures produce identical outputs for identical inputs (given
  // the same coordinated random draws).
  std::string Signature() const;
};

enum class BranchType {
  kSingle,       // sequential op list
  kConditional,  // pick branch by a condition on iteration/epoch
  kRandom,       // pick branch probabilistically
  kMulti,        // fan out to parallel output streams
  kMerge,        // join parallel streams
};

const char* BranchTypeName(BranchType type);

// "iteration > 10000", "epoch <= 5", or "else".
struct Condition {
  enum class Variable { kIteration, kEpoch };
  enum class Comparison { kLess, kLessEqual, kGreater, kGreaterEqual, kEqual };

  bool is_else = false;
  Variable variable = Variable::kIteration;
  Comparison comparison = Comparison::kGreater;
  int64_t threshold = 0;

  bool Evaluate(int64_t iteration, int64_t epoch) const;
};

Result<Condition> ParseCondition(std::string_view text);

// One arm of a conditional/random stage.
struct BranchOption {
  Condition condition;    // conditional stages
  double prob = 0.0;      // random stages
  std::vector<AugOp> ops;  // may be empty (pass-through, "config: None")
};

// One stage of the augmentation DAG.
struct AugStage {
  std::string name;
  BranchType type = BranchType::kSingle;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<AugOp> ops;              // kSingle / per-output for kMulti
  std::vector<BranchOption> branches;  // kConditional / kRandom
};

// A complete task configuration.
struct TaskConfig {
  std::string tag;
  InputSource input_source = InputSource::kFile;
  std::string dataset_path;
  SamplingConfig sampling;
  std::vector<AugStage> augmentation;

  // Validates structural invariants: stream names connect, probabilities
  // of random branches sum to ~1, sampling values positive, etc.
  Status Validate() const;
};

// Parses the "dataset:" document of Fig. 9.
Result<TaskConfig> ParseTaskConfig(const YamlNode& root);
Result<TaskConfig> ParseTaskConfigText(std::string_view yaml_text);

}  // namespace sand

#endif  // SAND_CONFIG_PIPELINE_CONFIG_H_
