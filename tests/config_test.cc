// Unit tests for src/config: the mini-YAML parser and the pipeline schema.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/config/pipeline_config.h"
#include "src/config/yaml.h"

namespace sand {
namespace {

TEST(YamlTest, ScalarTypes) {
  auto root = ParseYaml("count: 42\nratio: 0.5\nflag: true\nname: \"hello world\"\n");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root->GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(*root->GetDouble("ratio"), 0.5);
  EXPECT_EQ(*root->GetBool("flag"), true);
  EXPECT_EQ(*root->GetString("name"), "hello world");
}

TEST(YamlTest, NestedMaps) {
  auto root = ParseYaml(
      "outer:\n"
      "  inner:\n"
      "    value: 7\n"
      "  other: x\n");
  ASSERT_TRUE(root.ok());
  const YamlNode* outer = root->Find("outer");
  ASSERT_NE(outer, nullptr);
  const YamlNode* inner = outer->Find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(*inner->GetInt("value"), 7);
  EXPECT_EQ(outer->GetStringOr("other", ""), "x");
}

TEST(YamlTest, BlockLists) {
  auto root = ParseYaml(
      "items:\n"
      "- alpha\n"
      "- beta\n"
      "- 3\n");
  ASSERT_TRUE(root.ok());
  const YamlNode* items = root->Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_TRUE(items->IsList());
  ASSERT_EQ(items->items().size(), 3u);
  EXPECT_EQ(items->items()[0].scalar(), "alpha");
  EXPECT_EQ(*items->items()[2].AsInt(), 3);
}

TEST(YamlTest, ListOfMaps) {
  auto root = ParseYaml(
      "stages:\n"
      "- name: one\n"
      "  value: 1\n"
      "- name: two\n"
      "  value: 2\n");
  ASSERT_TRUE(root.ok());
  const YamlNode* stages = root->Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->items().size(), 2u);
  EXPECT_EQ(*stages->items()[0].GetString("name"), "one");
  EXPECT_EQ(*stages->items()[1].GetInt("value"), 2);
}

TEST(YamlTest, FlowLists) {
  auto root = ParseYaml("shape: [256, 320]\nmodes: [\"a\", \"b\"]\n");
  ASSERT_TRUE(root.ok());
  const YamlNode* shape = root->Find("shape");
  ASSERT_TRUE(shape->IsList());
  EXPECT_EQ(*shape->items()[0].AsInt(), 256);
  EXPECT_EQ(*shape->items()[1].AsInt(), 320);
  EXPECT_EQ(root->Find("modes")->items()[1].scalar(), "b");
}

TEST(YamlTest, CommentsAndBlanks) {
  auto root = ParseYaml(
      "# leading comment\n"
      "\n"
      "key: value  # trailing comment\n"
      "quoted: \"has # inside\"\n");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root->GetString("key"), "value");
  EXPECT_EQ(*root->GetString("quoted"), "has # inside");
}

TEST(YamlTest, NullValues) {
  auto root = ParseYaml("a: None\nb: null\nc:\n");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->Find("a")->IsNull());
  EXPECT_TRUE(root->Find("b")->IsNull());
  EXPECT_TRUE(root->Find("c")->IsNull());
}

TEST(YamlTest, NestedOpConfig) {
  // The exact shape used by Fig. 9 op lists.
  auto root = ParseYaml(
      "config:\n"
      "- resize:\n"
      "    shape: [256, 320]\n"
      "    interpolation: [\"bilinear\"]\n"
      "- flip:\n"
      "    flip_prob: 0.5\n");
  ASSERT_TRUE(root.ok());
  const YamlNode* config = root->Find("config");
  ASSERT_NE(config, nullptr);
  ASSERT_EQ(config->items().size(), 2u);
  const YamlNode* resize = config->items()[0].Find("resize");
  ASSERT_NE(resize, nullptr);
  EXPECT_EQ(*resize->Find("shape")->items()[1].AsInt(), 320);
  EXPECT_DOUBLE_EQ(*config->items()[1].Find("flip")->GetDouble("flip_prob"), 0.5);
}

TEST(YamlTest, QuotedKeysAndColonValues) {
  auto root = ParseYaml("\"my key\": value\npath: /a/b:c\n");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root->GetString("my key"), "value");
  EXPECT_EQ(*root->GetString("path"), "/a/b:c");
}

TEST(YamlTest, NestedFlowLists) {
  auto root = ParseYaml("grid: [[1, 2], [3, 4]]\n");
  ASSERT_TRUE(root.ok());
  const YamlNode* grid = root->Find("grid");
  ASSERT_TRUE(grid->IsList());
  ASSERT_EQ(grid->items().size(), 2u);
  ASSERT_TRUE(grid->items()[0].IsList());
  EXPECT_EQ(*grid->items()[1].items()[0].AsInt(), 3);
}

TEST(YamlTest, EmptyFlowList) {
  auto root = ParseYaml("items: []\n");
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root->Find("items")->IsList());
  EXPECT_TRUE(root->Find("items")->items().empty());
}

TEST(YamlTest, ListAtDocumentRoot) {
  auto root = ParseYaml("- 1\n- 2\n");
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root->IsList());
  EXPECT_EQ(root->items().size(), 2u);
}

TEST(YamlTest, DashWithNestedBlock) {
  auto root = ParseYaml("- \n  a: 1\n- \n  b: 2\n");
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(root->IsList());
  ASSERT_EQ(root->items().size(), 2u);
  EXPECT_EQ(*root->items()[1].GetInt("b"), 2);
}

TEST(YamlTest, TypeErrorsAreReported) {
  auto root = ParseYaml("num: 5\nlist: [1]\n");
  ASSERT_TRUE(root.ok());
  EXPECT_FALSE(root->Find("list")->AsInt().ok());
  EXPECT_FALSE(root->Find("num")->AsBool().ok());
  EXPECT_FALSE(root->GetInt("missing").ok());
  EXPECT_EQ(root->GetIntOr("missing", 9), 9);
}

TEST(YamlTest, RejectsTabs) { EXPECT_FALSE(ParseYaml("a:\n\tb: 1\n").ok()); }

TEST(YamlTest, RejectsKeylessLine) { EXPECT_FALSE(ParseYaml("just a scalar line\nmore\n").ok()); }

TEST(YamlTest, EmptyDocumentIsNull) {
  auto root = ParseYaml("  \n# only a comment\n");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->IsNull());
}

TEST(ConditionTest, ParseAndEvaluate) {
  auto cond = ParseCondition("iteration > 10000");
  ASSERT_TRUE(cond.ok());
  EXPECT_FALSE(cond->Evaluate(10000, 0));
  EXPECT_TRUE(cond->Evaluate(10001, 0));

  auto epoch_cond = ParseCondition("epoch <= 5");
  ASSERT_TRUE(epoch_cond.ok());
  EXPECT_TRUE(epoch_cond->Evaluate(0, 5));
  EXPECT_FALSE(epoch_cond->Evaluate(0, 6));

  auto else_cond = ParseCondition("else");
  ASSERT_TRUE(else_cond.ok());
  EXPECT_TRUE(else_cond->Evaluate(0, 0));
}

TEST(ConditionTest, RejectsMalformed) {
  EXPECT_FALSE(ParseCondition("iteration >").ok());
  EXPECT_FALSE(ParseCondition("banana > 3").ok());
  EXPECT_FALSE(ParseCondition("iteration >> 3").ok());
  EXPECT_FALSE(ParseCondition("iteration > many").ok());
}

constexpr const char* kFig9Config = R"(
# dataset configuration in YAML format
dataset:
  tag: "train"
  input_source: file
  video_dataset_path: /dataset/train
  sampling:
    videos_per_batch: 8
    frames_per_video: 8
    frame_stride: 4
    samples_per_video: 2
  augmentation:
  - name: "augment_resize"
    branch_type: "single"
    inputs: ["frame"]
    outputs: ["augmented_frame_0"]
    config:
    - resize:
        shape: [256, 320]
        interpolation: ["bilinear"]
  - name: "conditional branch"
    branch_type: "conditional"
    inputs: ["augmented_frame_0"]
    outputs: ["augmented_frame_1"]
    branches:
    - condition: "iteration > 10000"
      config:
      - inv_sample:
          true
    - condition: "else"
      config: None
  - name: "random_branch"
    branch_type: "random"
    inputs: ["augmented_frame_1"]
    outputs: ["augmented_frame_2"]
    branches:
    - prob: 0.5
      config:
      - flip:
          flip_prob: 0.5
    - prob: 0.5
      config: None
)";

TEST(PipelineConfigTest, ParsesFig9Document) {
  auto config = ParseTaskConfigText(kFig9Config);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->tag, "train");
  EXPECT_EQ(config->input_source, InputSource::kFile);
  EXPECT_EQ(config->dataset_path, "/dataset/train");
  EXPECT_EQ(config->sampling.videos_per_batch, 8);
  EXPECT_EQ(config->sampling.frames_per_video, 8);
  EXPECT_EQ(config->sampling.frame_stride, 4);
  EXPECT_EQ(config->sampling.samples_per_video, 2);
  ASSERT_EQ(config->augmentation.size(), 3u);

  const AugStage& resize = config->augmentation[0];
  EXPECT_EQ(resize.type, BranchType::kSingle);
  ASSERT_EQ(resize.ops.size(), 1u);
  EXPECT_EQ(resize.ops[0].kind, OpKind::kResize);
  EXPECT_EQ(resize.ops[0].out_h, 256);
  EXPECT_EQ(resize.ops[0].out_w, 320);

  const AugStage& conditional = config->augmentation[1];
  EXPECT_EQ(conditional.type, BranchType::kConditional);
  ASSERT_EQ(conditional.branches.size(), 2u);
  EXPECT_FALSE(conditional.branches[0].condition.is_else);
  EXPECT_TRUE(conditional.branches[1].condition.is_else);
  ASSERT_EQ(conditional.branches[0].ops.size(), 1u);
  EXPECT_EQ(conditional.branches[0].ops[0].kind, OpKind::kInvert);
  EXPECT_TRUE(conditional.branches[1].ops.empty());

  const AugStage& random = config->augmentation[2];
  EXPECT_EQ(random.type, BranchType::kRandom);
  ASSERT_EQ(random.branches.size(), 2u);
  EXPECT_DOUBLE_EQ(random.branches[0].prob, 0.5);
  EXPECT_EQ(random.branches[0].ops[0].kind, OpKind::kFlip);
}

TEST(PipelineConfigTest, ValidationCatchesBadStreams) {
  TaskConfig config;
  config.tag = "t";
  config.dataset_path = "/d";
  AugStage stage;
  stage.name = "s";
  stage.inputs = {"nonexistent"};
  stage.outputs = {"out"};
  config.augmentation.push_back(stage);
  EXPECT_FALSE(config.Validate().ok());
}

TEST(PipelineConfigTest, ValidationCatchesBadProbabilities) {
  auto bad = ParseTaskConfigText(
      "dataset:\n"
      "  tag: t\n"
      "  video_dataset_path: /d\n"
      "  augmentation:\n"
      "  - name: r\n"
      "    branch_type: random\n"
      "    inputs: [\"frame\"]\n"
      "    outputs: [\"o\"]\n"
      "    branches:\n"
      "    - prob: 0.5\n"
      "      config: None\n"
      "    - prob: 0.2\n"
      "      config: None\n");
  EXPECT_FALSE(bad.ok()) << "probabilities sum to 0.7, must be rejected";
}

TEST(PipelineConfigTest, ValidationCatchesElseNotLast) {
  auto bad = ParseTaskConfigText(
      "dataset:\n"
      "  tag: t\n"
      "  video_dataset_path: /d\n"
      "  augmentation:\n"
      "  - name: c\n"
      "    branch_type: conditional\n"
      "    inputs: [\"frame\"]\n"
      "    outputs: [\"o\"]\n"
      "    branches:\n"
      "    - condition: \"else\"\n"
      "      config: None\n"
      "    - condition: \"iteration > 5\"\n"
      "      config: None\n");
  EXPECT_FALSE(bad.ok());
}

TEST(PipelineConfigTest, ValidationCatchesNegativeSampling) {
  auto bad = ParseTaskConfigText(
      "dataset:\n"
      "  tag: t\n"
      "  video_dataset_path: /d\n"
      "  sampling:\n"
      "    frame_stride: -1\n");
  EXPECT_FALSE(bad.ok());
}

// One `op: {shape: [h, w]}` stage, for the shape range checks.
// A one-op pipeline whose op carries the single parameter line `param`.
std::string OpConfig(const std::string& op, const std::string& param) {
  return "dataset:\n"
         "  tag: t\n"
         "  video_dataset_path: /d\n"
         "  augmentation:\n"
         "  - name: s\n"
         "    branch_type: single\n"
         "    inputs: [\"frame\"]\n"
         "    outputs: [\"o\"]\n"
         "    config:\n"
         "    - " + op + ":\n"
         "        " + param + "\n";
}

std::string ShapeConfig(const std::string& op, const std::string& h, const std::string& w) {
  return OpConfig(op, "shape: [" + h + ", " + w + "]");
}

TEST(PipelineConfigTest, ShapeSidesAreRangeCheckedBeforeNarrowing) {
  // 4294967297 = 2^32 + 1 narrows to 1; 2147483648 = 2^31 narrows to a
  // negative int; 100000 is in int range but would size a ~30 GB frame.
  for (const char* op : {"resize", "random_crop", "center_crop"}) {
    for (auto [h, w] : std::vector<std::pair<std::string, std::string>>{
             {"4294967297", "40"}, {"40", "4294967297"}, {"2147483648", "40"},
             {"100000", "100000"}, {"16385", "40"}, {"0", "40"}, {"40", "-1"}}) {
      auto bad = ParseTaskConfigText(ShapeConfig(op, h, w));
      ASSERT_FALSE(bad.ok()) << op << " [" << h << ", " << w << "] must be rejected";
      EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument) << bad.status().ToString();
    }
  }
  auto largest = ParseTaskConfigText(ShapeConfig("resize", "16384", "1"));
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->augmentation[0].ops[0].out_h, 16384);
  EXPECT_EQ(largest->augmentation[0].ops[0].out_w, 1);
}

TEST(PipelineConfigTest, IntParamsAreRangeCheckedBeforeNarrowing) {
  // 4294967299 = 2^32 + 3 narrows to a valid kernel of 3, and 4294967312 =
  // 2^32 + 16 to a max_delta of 16; a negative max_delta empties the draw.
  for (const char* kernel : {"4294967299", "2147483649", "16385", "0", "-3", "4"}) {
    auto bad = ParseTaskConfigText(OpConfig("blur", std::string("kernel: ") + kernel));
    ASSERT_FALSE(bad.ok()) << "blur kernel " << kernel << " must be rejected";
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument) << bad.status().ToString();
  }
  for (const char* delta : {"4294967312", "2147483648", "256", "-1"}) {
    auto bad = ParseTaskConfigText(OpConfig("color_jitter", std::string("max_delta: ") + delta));
    ASSERT_FALSE(bad.ok()) << "max_delta " << delta << " must be rejected";
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument) << bad.status().ToString();
  }
  auto blur = ParseTaskConfigText(OpConfig("blur", "kernel: 16383"));
  ASSERT_TRUE(blur.ok()) << blur.status().ToString();
  EXPECT_EQ(blur->augmentation[0].ops[0].kernel, 16383);
  for (int delta : {0, 255}) {
    auto jitter =
        ParseTaskConfigText(OpConfig("color_jitter", "max_delta: " + std::to_string(delta)));
    ASSERT_TRUE(jitter.ok()) << jitter.status().ToString();
    EXPECT_EQ(jitter->augmentation[0].ops[0].max_delta, delta);
  }
}

TEST(PipelineConfigTest, MergeNeedsTwoInputs) {
  auto bad = ParseTaskConfigText(
      "dataset:\n"
      "  tag: t\n"
      "  video_dataset_path: /d\n"
      "  augmentation:\n"
      "  - name: m\n"
      "    branch_type: merge\n"
      "    inputs: [\"frame\"]\n"
      "    outputs: [\"o\"]\n");
  EXPECT_FALSE(bad.ok());
}

TEST(PipelineConfigTest, UnknownOpBecomesCustom) {
  auto config = ParseTaskConfigText(
      "dataset:\n"
      "  tag: t\n"
      "  video_dataset_path: /d\n"
      "  augmentation:\n"
      "  - name: c\n"
      "    branch_type: single\n"
      "    inputs: [\"frame\"]\n"
      "    outputs: [\"o\"]\n"
      "    config:\n"
      "    - my_special_op:\n"
      "        level: 3\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->augmentation[0].ops.size(), 1u);
  EXPECT_EQ(config->augmentation[0].ops[0].kind, OpKind::kCustom);
  EXPECT_EQ(config->augmentation[0].ops[0].custom_name, "my_special_op");
}

TEST(PipelineConfigTest, OpSignaturesAreStable) {
  AugOp resize;
  resize.kind = OpKind::kResize;
  resize.out_h = 10;
  resize.out_w = 20;
  EXPECT_EQ(resize.Signature(), "resize(10x20,bilinear)");
  AugOp crop;
  crop.kind = OpKind::kRandomCrop;
  crop.out_h = 4;
  crop.out_w = 4;
  EXPECT_EQ(crop.Signature(), "random_crop(4x4)");
  EXPECT_TRUE(resize.IsDeterministic());
  EXPECT_FALSE(crop.IsDeterministic());
}

}  // namespace
}  // namespace sand
