#include "src/config/pipeline_config.h"

#include <cmath>
#include <set>

#include "src/common/strings.h"

namespace sand {
namespace {

// Largest accepted resize/crop side. Every pipeline in the repository uses
// at most 320; 16384 leaves room for 8K video.
constexpr int kMaxShapeSide = 16384;

Result<std::vector<std::string>> ParseStringList(const YamlNode* node, const char* what) {
  std::vector<std::string> out;
  if (node == nullptr || node->IsNull()) {
    return out;
  }
  if (node->IsScalar()) {
    out.push_back(node->scalar());
    return out;
  }
  if (!node->IsList()) {
    return InvalidArgument(StrFormat("config: %s must be a list", what));
  }
  for (const YamlNode& item : node->items()) {
    SAND_ASSIGN_OR_RETURN(std::string value, item.AsString());
    out.push_back(std::move(value));
  }
  return out;
}

Result<AugOp> ParseOp(const std::string& op_name, const YamlNode& params) {
  AugOp op;
  if (op_name == "resize" || op_name == "random_crop" || op_name == "center_crop") {
    op.kind = op_name == "resize"
                  ? OpKind::kResize
                  : (op_name == "random_crop" ? OpKind::kRandomCrop : OpKind::kCenterCrop);
    const YamlNode* shape = params.IsMap() ? params.Find("shape") : nullptr;
    if (shape == nullptr || !shape->IsList() || shape->items().size() != 2) {
      return InvalidArgument("config: " + op_name + " requires shape: [h, w]");
    }
    SAND_ASSIGN_OR_RETURN(int64_t h, shape->items()[0].AsInt());
    SAND_ASSIGN_OR_RETURN(int64_t w, shape->items()[1].AsInt());
    // Checked before narrowing to int: a wrapped value would pass, and an
    // accepted huge side would size a multi-GB frame in the resize kernel.
    if (h < 1 || h > kMaxShapeSide || w < 1 || w > kMaxShapeSide) {
      return InvalidArgument(StrFormat("config: %s shape sides must be in [1, %d]",
                                       op_name.c_str(), kMaxShapeSide));
    }
    op.out_h = static_cast<int>(h);
    op.out_w = static_cast<int>(w);
    if (params.IsMap()) {
      const YamlNode* interp = params.Find("interpolation");
      if (interp != nullptr) {
        std::string mode;
        if (interp->IsList() && !interp->items().empty()) {
          SAND_ASSIGN_OR_RETURN(mode, interp->items()[0].AsString());
        } else if (interp->IsScalar()) {
          mode = interp->scalar();
        }
        if (mode == "nearest") {
          op.interp = Interpolation::kNearest;
        } else if (mode == "bilinear" || mode.empty()) {
          op.interp = Interpolation::kBilinear;
        } else {
          return InvalidArgument("config: unknown interpolation: " + mode);
        }
      }
    }
    return op;
  }
  if (op_name == "flip") {
    op.kind = OpKind::kFlip;
    op.prob = params.IsMap() ? params.GetDoubleOr("flip_prob", 0.5) : 0.5;
    if (op.prob < 0.0 || op.prob > 1.0) {
      return InvalidArgument("config: flip_prob must be in [0, 1]");
    }
    return op;
  }
  if (op_name == "color_jitter") {
    op.kind = OpKind::kColorJitter;
    if (params.IsMap()) {
      // Checked before narrowing, like shape sides. A negative bound would
      // also leave the jitter draw an empty range.
      int64_t max_delta = params.GetIntOr("max_delta", 20);
      if (max_delta < 0 || max_delta > 255) {
        return InvalidArgument("config: color_jitter max_delta must be in [0, 255]");
      }
      op.max_delta = static_cast<int>(max_delta);
      op.max_contrast = params.GetDoubleOr("max_contrast", 0.2);
    }
    return op;
  }
  if (op_name == "blur") {
    op.kind = OpKind::kBlur;
    int64_t kernel = params.IsMap() ? params.GetIntOr("kernel", 3) : 3;
    if (kernel < 1 || kernel > kMaxShapeSide || kernel % 2 == 0) {
      return InvalidArgument(
          StrFormat("config: blur kernel must be odd and in [1, %d]", kMaxShapeSide));
    }
    op.kernel = static_cast<int>(kernel);
    return op;
  }
  if (op_name == "rotate90") {
    op.kind = OpKind::kRotate90;
    return op;
  }
  if (op_name == "inv_sample" || op_name == "invert") {
    op.kind = OpKind::kInvert;
    return op;
  }
  // Anything else is a user-registered custom op (§5.5).
  op.kind = OpKind::kCustom;
  op.custom_name = op_name;
  return op;
}

// Parses a "config:" node — a list of single-key maps, each an op.
Result<std::vector<AugOp>> ParseOpList(const YamlNode* node) {
  std::vector<AugOp> ops;
  if (node == nullptr || node->IsNull()) {
    return ops;  // pass-through branch ("config: None")
  }
  if (!node->IsList()) {
    return InvalidArgument("config: op list must be a list");
  }
  for (const YamlNode& item : node->items()) {
    if (!item.IsMap() || item.entries().size() != 1) {
      return InvalidArgument("config: each op must be a single-key map");
    }
    const auto& [op_name, params] = item.entries()[0];
    SAND_ASSIGN_OR_RETURN(AugOp op, ParseOp(op_name, params));
    ops.push_back(std::move(op));
  }
  return ops;
}

Result<AugStage> ParseStage(const YamlNode& node) {
  if (!node.IsMap()) {
    return InvalidArgument("config: augmentation stage must be a map");
  }
  AugStage stage;
  stage.name = node.GetStringOr("name", "stage");
  std::string type_name = node.GetStringOr("branch_type", "single");
  if (type_name == "single") {
    stage.type = BranchType::kSingle;
  } else if (type_name == "conditional") {
    stage.type = BranchType::kConditional;
  } else if (type_name == "random") {
    stage.type = BranchType::kRandom;
  } else if (type_name == "multi") {
    stage.type = BranchType::kMulti;
  } else if (type_name == "merge") {
    stage.type = BranchType::kMerge;
  } else {
    return InvalidArgument("config: unknown branch_type: " + type_name);
  }
  SAND_ASSIGN_OR_RETURN(stage.inputs, ParseStringList(node.Find("inputs"), "inputs"));
  SAND_ASSIGN_OR_RETURN(stage.outputs, ParseStringList(node.Find("outputs"), "outputs"));

  if (stage.type == BranchType::kSingle || stage.type == BranchType::kMulti) {
    SAND_ASSIGN_OR_RETURN(stage.ops, ParseOpList(node.Find("config")));
  }
  if (stage.type == BranchType::kConditional || stage.type == BranchType::kRandom) {
    const YamlNode* branches = node.Find("branches");
    if (branches == nullptr || !branches->IsList() || branches->items().empty()) {
      return InvalidArgument("config: " + type_name + " stage requires branches");
    }
    for (const YamlNode& branch_node : branches->items()) {
      if (!branch_node.IsMap()) {
        return InvalidArgument("config: branch must be a map");
      }
      BranchOption option;
      if (stage.type == BranchType::kConditional) {
        SAND_ASSIGN_OR_RETURN(std::string cond_text, branch_node.GetString("condition"));
        SAND_ASSIGN_OR_RETURN(option.condition, ParseCondition(cond_text));
      } else {
        SAND_ASSIGN_OR_RETURN(option.prob, branch_node.GetDouble("prob"));
        if (option.prob < 0.0 || option.prob > 1.0) {
          return InvalidArgument("config: branch prob must be in [0, 1]");
        }
      }
      SAND_ASSIGN_OR_RETURN(option.ops, ParseOpList(branch_node.Find("config")));
      stage.branches.push_back(std::move(option));
    }
  }
  return stage;
}

}  // namespace

const char* BranchTypeName(BranchType type) {
  switch (type) {
    case BranchType::kSingle:
      return "single";
    case BranchType::kConditional:
      return "conditional";
    case BranchType::kRandom:
      return "random";
    case BranchType::kMulti:
      return "multi";
    case BranchType::kMerge:
      return "merge";
  }
  return "unknown";
}

std::string AugOp::Signature() const {
  switch (kind) {
    case OpKind::kResize:
      return StrFormat("resize(%dx%d,%s)", out_h, out_w,
                       interp == Interpolation::kBilinear ? "bilinear" : "nearest");
    case OpKind::kCenterCrop:
      return StrFormat("center_crop(%dx%d)", out_h, out_w);
    case OpKind::kRandomCrop:
      return StrFormat("random_crop(%dx%d)", out_h, out_w);
    case OpKind::kFlip:
      return StrFormat("flip(%.3f)", prob);
    case OpKind::kColorJitter:
      return StrFormat("color_jitter(%d,%.3f)", max_delta, max_contrast);
    case OpKind::kBlur:
      return StrFormat("blur(%d)", kernel);
    case OpKind::kRotate90:
      return "rotate90";
    case OpKind::kInvert:
      return "invert";
    case OpKind::kCustom:
      return "custom(" + custom_name + ")";
  }
  return "unknown";
}

bool Condition::Evaluate(int64_t iteration, int64_t epoch) const {
  if (is_else) {
    return true;
  }
  int64_t lhs = variable == Variable::kIteration ? iteration : epoch;
  switch (comparison) {
    case Comparison::kLess:
      return lhs < threshold;
    case Comparison::kLessEqual:
      return lhs <= threshold;
    case Comparison::kGreater:
      return lhs > threshold;
    case Comparison::kGreaterEqual:
      return lhs >= threshold;
    case Comparison::kEqual:
      return lhs == threshold;
  }
  return false;
}

Result<Condition> ParseCondition(std::string_view text) {
  Condition cond;
  std::string_view t = Trim(text);
  if (t == "else") {
    cond.is_else = true;
    return cond;
  }
  // Grammar: <variable> <op> <integer>
  std::vector<std::string> tokens;
  for (const std::string& token : Split(t, ' ')) {
    if (!token.empty()) {
      tokens.push_back(token);
    }
  }
  if (tokens.size() != 3) {
    return InvalidArgument("config: cannot parse condition: " + std::string(text));
  }
  if (tokens[0] == "iteration") {
    cond.variable = Condition::Variable::kIteration;
  } else if (tokens[0] == "epoch") {
    cond.variable = Condition::Variable::kEpoch;
  } else {
    return InvalidArgument("config: unknown condition variable: " + tokens[0]);
  }
  if (tokens[1] == "<") {
    cond.comparison = Condition::Comparison::kLess;
  } else if (tokens[1] == "<=") {
    cond.comparison = Condition::Comparison::kLessEqual;
  } else if (tokens[1] == ">") {
    cond.comparison = Condition::Comparison::kGreater;
  } else if (tokens[1] == ">=") {
    cond.comparison = Condition::Comparison::kGreaterEqual;
  } else if (tokens[1] == "==") {
    cond.comparison = Condition::Comparison::kEqual;
  } else {
    return InvalidArgument("config: unknown comparison: " + tokens[1]);
  }
  auto threshold = ParseInt(tokens[2]);
  if (!threshold) {
    return InvalidArgument("config: condition threshold must be an integer: " + tokens[2]);
  }
  cond.threshold = *threshold;
  return cond;
}

Status TaskConfig::Validate() const {
  if (tag.empty()) {
    return InvalidArgument("config: task tag must not be empty");
  }
  if (dataset_path.empty()) {
    return InvalidArgument("config: video_dataset_path must not be empty");
  }
  if (sampling.videos_per_batch <= 0 || sampling.frames_per_video <= 0 ||
      sampling.frame_stride <= 0 || sampling.samples_per_video <= 0) {
    return InvalidArgument("config: sampling values must be positive");
  }
  // Stream connectivity: every stage input must be "frame" (the decode
  // output) or a prior stage's output.
  std::set<std::string> available = {"frame"};
  for (const AugStage& stage : augmentation) {
    if (stage.inputs.empty()) {
      return InvalidArgument("config: stage '" + stage.name + "' has no inputs");
    }
    for (const std::string& input : stage.inputs) {
      if (available.count(input) == 0) {
        return InvalidArgument("config: stage '" + stage.name + "' consumes unknown stream '" +
                               input + "'");
      }
    }
    if (stage.outputs.empty()) {
      return InvalidArgument("config: stage '" + stage.name + "' has no outputs");
    }
    if (stage.type == BranchType::kMerge && stage.inputs.size() < 2) {
      return InvalidArgument("config: merge stage '" + stage.name + "' needs >= 2 inputs");
    }
    if (stage.type == BranchType::kMulti && stage.outputs.size() < 2) {
      return InvalidArgument("config: multi stage '" + stage.name + "' needs >= 2 outputs");
    }
    if (stage.type != BranchType::kMulti && stage.type != BranchType::kMerge &&
        (stage.inputs.size() != 1 || stage.outputs.size() != 1)) {
      return InvalidArgument("config: stage '" + stage.name +
                             "' must have exactly one input and one output");
    }
    if (stage.type == BranchType::kRandom) {
      double total = 0.0;
      for (const BranchOption& option : stage.branches) {
        total += option.prob;
      }
      if (std::abs(total - 1.0) > 1e-6) {
        return InvalidArgument("config: random stage '" + stage.name +
                               "' branch probabilities must sum to 1");
      }
    }
    if (stage.type == BranchType::kConditional) {
      for (size_t i = 0; i + 1 < stage.branches.size(); ++i) {
        if (stage.branches[i].condition.is_else) {
          return InvalidArgument("config: 'else' must be the last branch in stage '" +
                                 stage.name + "'");
        }
      }
    }
    for (const std::string& output : stage.outputs) {
      available.insert(output);
    }
  }
  return Status::Ok();
}

Result<TaskConfig> ParseTaskConfig(const YamlNode& root) {
  const YamlNode* dataset = root.Find("dataset");
  if (dataset == nullptr) {
    // Allow the dataset map to be the document root itself.
    dataset = &root;
  }
  if (!dataset->IsMap()) {
    return InvalidArgument("config: expected a 'dataset:' map");
  }
  TaskConfig config;
  config.tag = dataset->GetStringOr("tag", "task");
  std::string source = dataset->GetStringOr("input_source", "file");
  if (source == "file") {
    config.input_source = InputSource::kFile;
  } else if (source == "streaming") {
    config.input_source = InputSource::kStreaming;
  } else {
    return InvalidArgument("config: unknown input_source: " + source);
  }
  SAND_ASSIGN_OR_RETURN(config.dataset_path, dataset->GetString("video_dataset_path"));

  const YamlNode* sampling = dataset->Find("sampling");
  if (sampling != nullptr && sampling->IsMap()) {
    config.sampling.videos_per_batch =
        static_cast<int>(sampling->GetIntOr("videos_per_batch", 8));
    config.sampling.frames_per_video =
        static_cast<int>(sampling->GetIntOr("frames_per_video", 8));
    config.sampling.frame_stride = static_cast<int>(sampling->GetIntOr("frame_stride", 4));
    config.sampling.samples_per_video =
        static_cast<int>(sampling->GetIntOr("samples_per_video", 1));
  }

  const YamlNode* augmentation = dataset->Find("augmentation");
  if (augmentation != nullptr && augmentation->IsList()) {
    for (const YamlNode& stage_node : augmentation->items()) {
      SAND_ASSIGN_OR_RETURN(AugStage stage, ParseStage(stage_node));
      config.augmentation.push_back(std::move(stage));
    }
  }
  SAND_RETURN_IF_ERROR(config.Validate());
  return config;
}

Result<TaskConfig> ParseTaskConfigText(std::string_view yaml_text) {
  SAND_ASSIGN_OR_RETURN(YamlNode root, ParseYaml(yaml_text));
  return ParseTaskConfig(root);
}

}  // namespace sand
