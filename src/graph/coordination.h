// Coordinated randomization (paper §5.2).
//
// SAND must preserve each task's randomness (temporal frame selection,
// spatial crops, stochastic branch choices) while steering tasks toward
// the *same* random draws so their intermediate objects collide and merge.
//
//   Temporal: a shared frame pool on a grid whose pitch is the GCD of all
//   task strides; the pool's random start is drawn from a seed that hashes
//   (video, epoch, sample) but NOT the task, so all tasks land on the same
//   grid and overlap wherever their strides align.
//
//   Spatial: a shared crop window sized to the largest crop any task
//   requests; each task takes a centered sub-rectangle, so equal-size crops
//   are bit-identical (mergeable) and smaller crops nest inside.
//
//   Choices: flips / jitter / random branches draw from the same
//   task-agnostic seed stream.
//
// Uncoordinated mode (the ablation baseline) mixes the task id into every
// seed, which restores fully independent draws and eliminates merging.

#ifndef SAND_GRAPH_COORDINATION_H_
#define SAND_GRAPH_COORDINATION_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/config/pipeline_config.h"

namespace sand {

// FNV-1a over an arbitrary field tuple; the seed for all coordinated draws.
uint64_t HashCombine(uint64_t seed, std::string_view text);
uint64_t HashCombine(uint64_t seed, int64_t value);

// GCD over all task strides (paper step 2); 1 when tasks is empty.
int64_t CommonGridStride(std::span<const SamplingConfig> tasks);

// Largest clip span any task needs: max over tasks of
// (frames_per_video - 1) * stride + 1 (paper step 3's "maximum clip length").
int64_t MaxClipSpan(std::span<const SamplingConfig> tasks);

// The shared pool for one (video, epoch, sample): a random start position
// plus the common grid.
struct FramePool {
  int64_t start = 0;        // first grid frame (absolute index)
  int64_t grid_stride = 1;  // GCD of task strides
  int64_t span = 1;         // frames covered (<= video length when possible)
  int64_t video_frames = 0;
};

// Plans the pool. `seed` must be task-agnostic for coordination. The pool
// is drawn once per k-epoch chunk and spans `span_slack` times the largest
// clip (clamped to the video), so the epochs of a chunk can each take a
// different phase inside one pool — concentrating decode reuse while
// keeping per-epoch temporal randomness.
FramePool PlanFramePool(uint64_t seed, int64_t video_frames,
                        std::span<const SamplingConfig> tasks, int span_slack = 2);

// Frames task `sampling` draws from the pool: start + j*stride for
// j in [0, frames_per_video), wrapped into the video. The task's stride is
// a multiple of the grid pitch, so every index is a pool slot.
std::vector<int64_t> DrawTaskFrames(const FramePool& pool, const SamplingConfig& sampling);

// Per-epoch draw: a random phase (grid-aligned offset) inside the pool,
// derived from `phase_seed` (task-agnostic), then the task's strided clip
// starting there. Different epochs get different phases of one pool.
std::vector<int64_t> DrawTaskFramesWithPhase(const FramePool& pool,
                                             const SamplingConfig& sampling,
                                             uint64_t phase_seed);

// Uncoordinated baseline: an independent random clip for one task.
std::vector<int64_t> DrawIndependentFrames(uint64_t seed, int64_t video_frames,
                                           const SamplingConfig& sampling);

// A crop rectangle in parent-frame coordinates.
struct CropWindow {
  int y = 0;
  int x = 0;
  int h = 0;
  int w = 0;

  bool operator==(const CropWindow&) const = default;
};

// Plans the shared window: dims (max_h, max_w) placed uniformly at random
// inside parent_h x parent_w (clamped if the parent is smaller).
CropWindow PlanSharedWindow(uint64_t seed, int parent_h, int parent_w, int max_h, int max_w);

// A task's crop inside the shared window: the centered h x w sub-rectangle.
// Equal sizes yield identical rectangles (mergeable objects).
CropWindow SubCrop(const CropWindow& window, int h, int w);

// Largest random-crop dimensions requested by any task at any stage whose
// operation signature matches `signature`. The paper's "maximum spatial
// dimensions needed" (step 1 of the shared-window mechanism is run per
// stochastic operation class).
struct MaxCropDims {
  int h = 0;
  int w = 0;
};
MaxCropDims MaxRandomCropDims(std::span<const TaskConfig> tasks);

}  // namespace sand

#endif  // SAND_GRAPH_COORDINATION_H_
