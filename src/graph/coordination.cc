#include "src/graph/coordination.h"

#include <algorithm>
#include <numeric>

namespace sand {

uint64_t HashCombine(uint64_t seed, std::string_view text) {
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashCombine(uint64_t seed, int64_t value) {
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint8_t>(value >> (i * 8));
    h *= 0x100000001b3ULL;
  }
  return h;
}

int64_t CommonGridStride(std::span<const SamplingConfig> tasks) {
  int64_t g = 0;
  for (const SamplingConfig& task : tasks) {
    g = std::gcd(g, static_cast<int64_t>(task.frame_stride));
  }
  return g == 0 ? 1 : g;
}

int64_t MaxClipSpan(std::span<const SamplingConfig> tasks) {
  int64_t span = 1;
  for (const SamplingConfig& task : tasks) {
    span = std::max<int64_t>(
        span, static_cast<int64_t>(task.frames_per_video - 1) * task.frame_stride + 1);
  }
  return span;
}

FramePool PlanFramePool(uint64_t seed, int64_t video_frames,
                        std::span<const SamplingConfig> tasks, int span_slack) {
  FramePool pool;
  pool.grid_stride = CommonGridStride(tasks);
  pool.span = std::min<int64_t>(MaxClipSpan(tasks) * std::max(span_slack, 1), video_frames);
  pool.video_frames = video_frames;
  Rng rng(seed);
  int64_t max_start = std::max<int64_t>(video_frames - pool.span, 0);
  pool.start = max_start == 0 ? 0 : rng.NextInRange(0, max_start);
  return pool;
}

std::vector<int64_t> DrawTaskFrames(const FramePool& pool, const SamplingConfig& sampling) {
  std::vector<int64_t> out;
  out.reserve(sampling.frames_per_video);
  for (int j = 0; j < sampling.frames_per_video; ++j) {
    int64_t index =
        pool.start + static_cast<int64_t>(j) * sampling.frame_stride;
    out.push_back(index % pool.video_frames);
  }
  return out;
}

std::vector<int64_t> DrawTaskFramesWithPhase(const FramePool& pool,
                                             const SamplingConfig& sampling,
                                             uint64_t phase_seed) {
  int64_t task_span =
      static_cast<int64_t>(sampling.frames_per_video - 1) * sampling.frame_stride + 1;
  int64_t phases = (pool.span - std::min(task_span, pool.span)) / pool.grid_stride + 1;
  Rng rng(phase_seed);
  int64_t phase = phases <= 1 ? 0 : rng.NextInRange(0, phases - 1);
  std::vector<int64_t> out;
  out.reserve(sampling.frames_per_video);
  for (int j = 0; j < sampling.frames_per_video; ++j) {
    int64_t index = pool.start + phase * pool.grid_stride +
                    static_cast<int64_t>(j) * sampling.frame_stride;
    out.push_back(index % pool.video_frames);
  }
  return out;
}

std::vector<int64_t> DrawIndependentFrames(uint64_t seed, int64_t video_frames,
                                           const SamplingConfig& sampling) {
  Rng rng(seed);
  int64_t span =
      std::min<int64_t>(static_cast<int64_t>(sampling.frames_per_video - 1) *
                                sampling.frame_stride + 1,
                        video_frames);
  int64_t max_start = std::max<int64_t>(video_frames - span, 0);
  int64_t start = max_start == 0 ? 0 : rng.NextInRange(0, max_start);
  std::vector<int64_t> out;
  out.reserve(sampling.frames_per_video);
  for (int j = 0; j < sampling.frames_per_video; ++j) {
    out.push_back((start + static_cast<int64_t>(j) * sampling.frame_stride) % video_frames);
  }
  return out;
}

CropWindow PlanSharedWindow(uint64_t seed, int parent_h, int parent_w, int max_h, int max_w) {
  CropWindow window;
  window.h = std::min(max_h, parent_h);
  window.w = std::min(max_w, parent_w);
  Rng rng(seed);
  int max_y = parent_h - window.h;
  int max_x = parent_w - window.w;
  window.y = max_y <= 0 ? 0 : static_cast<int>(rng.NextInRange(0, max_y));
  window.x = max_x <= 0 ? 0 : static_cast<int>(rng.NextInRange(0, max_x));
  return window;
}

CropWindow SubCrop(const CropWindow& window, int h, int w) {
  CropWindow crop;
  crop.h = std::min(h, window.h);
  crop.w = std::min(w, window.w);
  crop.y = window.y + (window.h - crop.h) / 2;
  crop.x = window.x + (window.w - crop.w) / 2;
  return crop;
}

MaxCropDims MaxRandomCropDims(std::span<const TaskConfig> tasks) {
  MaxCropDims dims;
  for (const TaskConfig& task : tasks) {
    for (const AugStage& stage : task.augmentation) {
      auto scan = [&dims](const std::vector<AugOp>& ops) {
        for (const AugOp& op : ops) {
          if (op.kind == OpKind::kRandomCrop) {
            dims.h = std::max(dims.h, op.out_h);
            dims.w = std::max(dims.w, op.out_w);
          }
        }
      };
      scan(stage.ops);
      for (const BranchOption& option : stage.branches) {
        scan(option.ops);
      }
    }
  }
  return dims;
}

}  // namespace sand
