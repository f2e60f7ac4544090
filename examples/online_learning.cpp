// Online learning over a live video stream (paper §5.1,
// input_source: streaming; motivated by neural-enhanced live streaming).
//
// Videos keep arriving through a LiveIngestStore; the SAND service refreshes
// its dataset view before planning each chunk, so every training epoch sees
// everything ingested so far, while the per-chunk plan/prune/materialize
// machinery works unchanged.

#include <cstdio>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/units.h"

#include "src/core/batch_format.h"
#include "src/core/sand_service.h"
#include "src/storage/live_ingest.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

using namespace sand;

int main() {
  SetLogLevel(LogLevel::kWarning);

  // The stream starts with 4 videos; more arrive while training runs.
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 4;
  dataset.frames_per_video = 32;
  dataset.height = 40;
  dataset.width = 56;
  auto backing = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*backing, dataset);
  if (!meta.ok()) {
    std::fprintf(stderr, "%s\n", meta.status().ToString().c_str());
    return 1;
  }
  auto live = std::make_shared<LiveIngestStore>(backing);
  for (const std::string& name : meta->video_names) {
    auto bytes = backing->GetShared(meta->path + "/" + name + ".svc");
    (void)live->Put(meta->path + "/" + name + ".svc", **bytes);
  }
  auto live_meta = std::make_shared<DatasetMeta>(*meta);

  ModelProfile profile = MaeProfile();
  profile.videos_per_batch = 2;
  TaskConfig task = MakeTaskConfig(profile, meta->path, "online");
  task.input_source = InputSource::kStreaming;

  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(256ULL * kMiB),
                                             std::make_shared<MemoryStore>(1024ULL * kMiB));
  ServiceOptions options;
  options.k_epochs = 1;  // re-plan (and re-scan the stream) every epoch
  options.total_epochs = 3;
  options.num_threads = 2;
  options.dataset_refresh = [live_meta]() -> Result<DatasetMeta> { return *live_meta; };
  SandService service(live, *meta, cache, {task}, options);
  if (auto status = service.Start(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  for (int64_t epoch = 0; epoch < 3; ++epoch) {
    int64_t videos_now = static_cast<int64_t>(live_meta->video_names.size());
    int64_t iterations = videos_now / task.sampling.videos_per_batch;
    std::printf("epoch %lld: %lld videos ingested -> %lld iterations\n",
                static_cast<long long>(epoch), static_cast<long long>(videos_now),
                static_cast<long long>(iterations));
    for (int64_t iter = 0; iter < iterations; ++iter) {
      auto fd = service.fs().Open(ViewPath::Batch("online", epoch, iter).Format());
      auto bytes = service.fs().ReadAllShared(*fd);
      if (!bytes.ok()) {
        std::fprintf(stderr, "  %s\n", bytes.status().ToString().c_str());
        return 1;
      }
      std::printf("  iter %lld: %zu-byte batch\n", static_cast<long long>(iter),
                  (*bytes)->size());
      (void)service.fs().Close(*fd);
    }
    // Two more videos arrive between epochs.
    for (int i = 0; i < 2; ++i) {
      if (auto status = AppendSyntheticVideo(*live, dataset, *live_meta); !status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
  }
  std::printf("\nfinal stream size: %zu videos; frames decoded: %llu\n",
              live_meta->video_names.size(),
              static_cast<unsigned long long>(service.stats().exec.frames_decoded));
  std::printf("each epoch's plan covered everything ingested so far.\n");
  return 0;
}
