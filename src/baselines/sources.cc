#include "src/baselines/sources.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/core/batch_format.h"

namespace sand {

int64_t IterationsPerEpochFor(const DatasetMeta& meta, const SamplingConfig& sampling) {
  int vpb = std::min(sampling.videos_per_batch, meta.num_videos());
  return std::max<int64_t>(1, meta.num_videos() / std::max(vpb, 1));
}

// --- SandBatchSource ---------------------------------------------------------

SandBatchSource::SandBatchSource(SandFs& fs, std::string task_tag,
                                 int64_t iterations_per_epoch, bool prefetch)
    : fs_(fs),
      task_tag_(std::move(task_tag)),
      iterations_per_epoch_(iterations_per_epoch),
      prefetch_(prefetch) {
  // Task-start signal (§7.3): an open() on the task path.
  Result<int> fd = fs_.Open("/" + task_tag_);
  if (fd.ok()) {
    session_fd_ = *fd;
  }
}

SandBatchSource::~SandBatchSource() {
  if (pending_.valid()) {
    pending_.wait();
  }
}

Result<SharedBytes> SandBatchSource::FetchView(int64_t epoch, int64_t iteration) {
  // The paper's Fig. 6 loop: open -> read -> close on the batch view path.
  // ReadAllShared pins the provider's view buffer instead of copying it —
  // the fd may close, but the batch stays alive while the trainer holds it.
  std::string path = ViewPath::Batch(task_tag_, epoch, iteration).Format();
  SAND_ASSIGN_OR_RETURN(int fd, fs_.Open(path));
  Result<SharedBytes> bytes = fs_.ReadAllShared(fd);
  Status close_status = fs_.Close(fd);
  if (!bytes.ok()) {
    return bytes.status();
  }
  SAND_RETURN_IF_ERROR(close_status);
  return bytes;
}

Result<SharedBytes> SandBatchSource::NextBatch(int64_t epoch, int64_t iteration) {
  Result<SharedBytes> bytes = Internal("unset");
  if (pending_.valid() && pending_epoch_ == epoch && pending_iteration_ == iteration) {
    bytes = pending_.get();
  } else {
    if (pending_.valid()) {
      (void)pending_.get();  // discard an out-of-sequence prefetch
    }
    bytes = FetchView(epoch, iteration);
  }
  if (prefetch_) {
    int64_t next_epoch = iteration + 1 < iterations_per_epoch_ ? epoch : epoch + 1;
    int64_t next_iter = iteration + 1 < iterations_per_epoch_ ? iteration + 1 : 0;
    pending_epoch_ = next_epoch;
    pending_iteration_ = next_iter;
    pending_ = std::async(std::launch::async, [this, next_epoch, next_iter] {
      return FetchView(next_epoch, next_iter);
    });
  }
  return bytes;
}

void SandBatchSource::Finish() {
  if (pending_.valid()) {
    (void)pending_.get();
  }
  if (session_fd_ >= 0) {
    (void)fs_.Close(session_fd_);
    session_fd_ = -1;
  }
}

// --- OnDemandCpuSource -------------------------------------------------------

OnDemandCpuSource::OnDemandCpuSource(std::shared_ptr<ObjectStore> dataset_store,
                                     DatasetMeta meta, TaskConfig task, Options options,
                                     CpuMeter* meter)
    : meta_(std::move(meta)),
      task_(std::move(task)),
      options_(std::move(options)),
      meter_(meter),
      containers_(std::move(dataset_store), options_.container_cache_entries) {
  MaterializationScheduler::Options pool_options;
  pool_options.num_threads = options_.num_threads;
  pool_options.disable_priorities = true;  // plain FIFO dataloader workers
  pool_ = std::make_unique<MaterializationScheduler>(std::move(pool_options));
}

OnDemandCpuSource::~OnDemandCpuSource() { pool_->Shutdown(); }

int64_t OnDemandCpuSource::IterationsPerEpoch() const {
  return IterationsPerEpochFor(meta_, task_.sampling);
}

Result<const MaterializationPlan*> OnDemandCpuSource::PlanForEpoch(int64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = plans_.find(epoch);
  if (it != plans_.end()) {
    return const_cast<const MaterializationPlan*>(&it->second);
  }
  PlannerOptions planner;
  planner.k_epochs = 1;
  planner.coordinate = false;  // fresh randomness every epoch: no reuse
  planner.seed = options_.seed;
  std::vector<TaskConfig> tasks = {task_};
  SAND_ASSIGN_OR_RETURN(MaterializationPlan plan,
                        BuildMaterializationPlan(meta_, tasks, epoch, planner));
  if (options_.naive_cache != nullptr) {
    // Naive strategy: cache decoded frames (and only those) until the
    // store fills; Puts silently fail afterwards.
    for (VideoObjectGraph& graph : plan.videos) {
      for (ConcreteNode& node : graph.nodes) {
        node.cache = node.op.type == ConcreteOpType::kDecode;
      }
    }
  } else {
    for (VideoObjectGraph& graph : plan.videos) {
      for (ConcreteNode& node : graph.nodes) {
        node.cache = false;  // pure on-demand: nothing persists
      }
    }
  }
  auto [inserted, _] = plans_.emplace(epoch, std::move(plan));
  return const_cast<const MaterializationPlan*>(&inserted->second);
}

Result<std::shared_ptr<OnDemandCpuSource::Build>> OnDemandCpuSource::StartBuild(
    int64_t epoch, int64_t iteration) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find({epoch, iteration});
    if (it != inflight_.end()) {
      return it->second;
    }
  }
  SAND_ASSIGN_OR_RETURN(const MaterializationPlan* plan, PlanForEpoch(epoch));
  const BatchPlan* batch = plan->FindBatch(/*task=*/0, epoch, iteration);
  if (batch == nullptr) {
    return NotFound("no batch planned for this iteration");
  }

  auto build = std::make_shared<Build>();
  build->clips.resize(batch->clips.size());

  // One job per source video, writing into disjoint clip slots.
  std::map<int, std::vector<size_t>> by_video;
  for (size_t c = 0; c < batch->clips.size(); ++c) {
    by_video[batch->clips[c].video_index].push_back(c);
  }
  for (const auto& [video_index, slots] : by_video) {
    auto promise = std::make_shared<std::promise<Status>>();
    build->parts.push_back(promise->get_future());
    MaterializationJob job;
    job.demand_feeding = false;
    job.run = [this, plan, batch, build, video_index = video_index, slots, promise] {
      const VideoObjectGraph& graph = plan->videos[static_cast<size_t>(video_index)];
      SubtreeExecutor executor(graph, &containers_, options_.naive_cache.get(), meter_,
                               exec_counters_);
      Status status = Status::Ok();
      for (size_t slot : slots) {
        const ClipRef& ref = batch->clips[slot];
        for (int leaf : ref.leaf_ids) {
          Result<Frame> frame = executor.Produce(leaf, /*allow_cache_store=*/true);
          if (!frame.ok()) {
            status = frame.status();
            break;
          }
          build->clips[slot].frames.push_back(frame.TakeValue());
          build->clips[slot].frame_indices.push_back(graph.node(leaf).source_frame);
        }
        if (!status.ok()) {
          break;
        }
      }
      promise->set_value(std::move(status));
    };
    if (!pool_->Submit(std::move(job))) {
      promise->set_value(Unavailable("dataloader workers shut down"));
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  inflight_[{epoch, iteration}] = build;
  return build;
}

Result<SharedBytes> OnDemandCpuSource::NextBatch(int64_t epoch, int64_t iteration) {
  SAND_ASSIGN_OR_RETURN(std::shared_ptr<Build> build, StartBuild(epoch, iteration));

  // Dataloader-style prefetch: begin the next batch before blocking.
  if (options_.prefetch) {
    int64_t ipe = IterationsPerEpoch();
    int64_t next_epoch = iteration + 1 < ipe ? epoch : epoch + 1;
    int64_t next_iter = iteration + 1 < ipe ? iteration + 1 : 0;
    (void)StartBuild(next_epoch, next_iter);
  }

  for (std::future<Status>& part : build->parts) {
    SAND_RETURN_IF_ERROR(part.get());
  }
  Result<std::vector<uint8_t>> bytes = SerializeBatch(build->clips);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase({epoch, iteration});
    // Epoch plans are only needed while their batches are in flight.
    if (iteration + 1 >= IterationsPerEpoch() && plans_.size() > 2) {
      plans_.erase(plans_.begin());
    }
  }
  if (!bytes.ok()) {
    return bytes.status();
  }
  return MakeSharedBytes(bytes.TakeValue());
}

void OnDemandCpuSource::Finish() { pool_->WaitIdle(); }

// --- OnDemandGpuSource -------------------------------------------------------

OnDemandGpuSource::OnDemandGpuSource(std::shared_ptr<ObjectStore> dataset_store,
                                     DatasetMeta meta, ModelProfile profile, GpuModel* gpu)
    : dataset_store_(std::move(dataset_store)),
      meta_(std::move(meta)),
      profile_(std::move(profile)),
      gpu_(gpu) {}

int64_t OnDemandGpuSource::IterationsPerEpoch() const {
  SamplingConfig sampling;
  sampling.videos_per_batch = profile_.videos_per_batch;
  sampling.frames_per_video = profile_.frames_per_video;
  sampling.frame_stride = profile_.frame_stride;
  sampling.samples_per_video = profile_.samples_per_video;
  return IterationsPerEpochFor(meta_, sampling);
}

int OnDemandGpuSource::MaxFeasibleClips(const GpuModel& gpu, const ModelProfile& profile,
                                        uint64_t frame_bytes, bool gpu_decode) {
  uint64_t budget = gpu.spec().memory_bytes;
  uint64_t fixed = profile.model_memory_bytes;
  if (gpu_decode) {
    // NVDEC pins a decode session plus reference/bitstream buffers scaled
    // to the frame size (two reference frames and an output surface).
    fixed += gpu.spec().nvdec_session_bytes + 3 * frame_bytes;
  }
  if (fixed >= budget) {
    return 0;
  }
  uint64_t per_clip = profile.memory_per_clip_bytes +
                      static_cast<uint64_t>(profile.frames_per_video) * frame_bytes / 4;
  return static_cast<int>((budget - fixed) / std::max<uint64_t>(per_clip, 1));
}

Status OnDemandGpuSource::Reserve() {
  uint64_t frame_bytes = meta_.RawFrameBytes();
  uint64_t clips = static_cast<uint64_t>(profile_.videos_per_batch) *
                   profile_.samples_per_video;
  uint64_t wanted = profile_.model_memory_bytes + gpu_->spec().nvdec_session_bytes +
                    3 * frame_bytes +
                    clips * (profile_.memory_per_clip_bytes +
                             static_cast<uint64_t>(profile_.frames_per_video) * frame_bytes / 4);
  SAND_RETURN_IF_ERROR(gpu_->AllocateMemory(wanted));
  reserved_bytes_ = wanted;
  return Status::Ok();
}

void OnDemandGpuSource::Release() {
  if (reserved_bytes_ > 0) {
    gpu_->FreeMemory(reserved_bytes_);
    reserved_bytes_ = 0;
  }
}

Result<SharedBytes> OnDemandGpuSource::NextBatch(int64_t epoch, int64_t iteration) {
  (void)epoch;
  (void)iteration;
  // Compressed bytes the hardware decoder must chew through: the codec's
  // GOP dependency forces decoding roughly half a GOP per requested frame.
  uint64_t frames_used = static_cast<uint64_t>(profile_.videos_per_batch) *
                         profile_.samples_per_video * profile_.frames_per_video;
  double amplification =
      std::min<double>((meta_.gop_size + 1) / 2.0,
                       static_cast<double>(meta_.frames_per_video));
  uint64_t frames_decoded = static_cast<uint64_t>(
      static_cast<double>(frames_used) * std::max(amplification, 1.0));
  uint64_t bytes_per_frame =
      meta_.encoded_bytes_per_video / std::max<uint64_t>(meta_.frames_per_video, 1);
  gpu_->DecodeOnGpu(frames_decoded * bytes_per_frame, frames_decoded);

  // Shape-correct zero batch: the modeled trainer never reads pixels.
  std::vector<Clip> clips(static_cast<size_t>(profile_.videos_per_batch) *
                          profile_.samples_per_video);
  for (Clip& clip : clips) {
    for (int f = 0; f < profile_.frames_per_video; ++f) {
      clip.frames.emplace_back(profile_.crop_h, profile_.crop_w, meta_.channels);
      clip.frame_indices.push_back(f);
    }
  }
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, SerializeBatch(clips));
  return MakeSharedBytes(std::move(bytes));
}

}  // namespace sand
