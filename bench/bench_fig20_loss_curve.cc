// Fig. 20 — loss curves with and without materialization planning.
//
// Paper: the curves overlap — coordinated randomization preserves the
// statistical properties training needs. Here a real MLP regresses each
// video's synthetic label from clip pixels under both regimes.

#include "bench/bench_common.h"

#include "src/workloads/mlp.h"

using namespace sand;

namespace {

std::vector<double> TrainLossCurve(const BenchEnv& env, bool coordinate, uint64_t seed) {
  TaskConfig task = MakeTaskConfig(SlowFastProfile(), env.meta.path, "train");
  PlannerOptions options;
  options.k_epochs = 10;
  options.coordinate = coordinate;
  options.seed = seed;
  std::vector<TaskConfig> tasks = {task};
  auto plan = BuildMaterializationPlan(env.meta, tasks, 0, options);
  if (!plan.ok()) {
    std::abort();
  }
  ContainerCache containers(env.dataset_store, 8);
  MlpRegressor model(kClipFeatureDim, 16, 7);
  std::vector<double> losses;
  for (const BatchPlan& batch : plan->batches) {
    std::vector<std::vector<double>> features;
    std::vector<double> labels;
    for (const ClipRef& ref : batch.clips) {
      const VideoObjectGraph& graph = plan->videos[static_cast<size_t>(ref.video_index)];
      ExecCounters counters;
      SubtreeExecutor executor(graph, &containers, nullptr, nullptr, counters);
      Clip clip;
      for (int leaf : ref.leaf_ids) {
        auto frame = executor.Produce(leaf, false);
        if (!frame.ok()) {
          std::abort();
        }
        clip.frames.push_back(frame.TakeValue());
      }
      features.push_back(ClipFeatures(clip));
      labels.push_back(SyntheticLabel(VideoSeed(env.dataset_options.seed, ref.video_index)));
    }
    losses.push_back(model.TrainBatch(features, labels, 0.1));
  }
  return losses;
}

}  // namespace

int main(int argc, char** argv) {
  sand::ParseBenchFlags(argc, argv);
  BenchEnv env = MakeBenchEnv(/*videos=*/8, /*frames=*/48, /*height=*/48, /*width=*/64);
  PrintBenchHeader("Fig. 20: loss curve with vs without planning",
                   "Fig. 20: MLP regression loss under coordinated vs fresh randomness");

  std::vector<double> with = TrainLossCurve(env, true, 42);
  std::vector<double> without = TrainLossCurve(env, false, 43);

  std::printf("%-12s %-16s %-16s\n", "iteration", "w/ planning", "w/o planning");
  PrintRule();
  size_t steps = std::min(with.size(), without.size());
  for (size_t i = 0; i < steps; i += std::max<size_t>(steps / 10, 1)) {
    std::printf("%-12zu %-16.5f %-16.5f\n", i, with[i], without[i]);
  }
  auto tail = [](const std::vector<double>& losses) {
    double sum = 0;
    size_t n = std::max<size_t>(losses.size() / 5, 1);
    for (size_t i = losses.size() - n; i < losses.size(); ++i) {
      sum += losses[i];
    }
    return sum / static_cast<double>(n);
  };
  std::printf("\nfinal loss (tail mean): %.5f with planning vs %.5f without (start: %.5f)\n",
              tail(with), tail(without), with.front());
  std::printf("paper shape: the two curves overlap — planning preserves randomness.\n");
  return 0;
}
