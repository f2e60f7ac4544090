// Microbenchmark: ObjectCodec encode/decode throughput (DESIGN.md §11).
// Answers "what do the cheap cycles cost": MB/s on the encode (demotion)
// side, MB/s on the decode (GetShared hit) side, and the ratio the codec
// buys on synthetic-but-video-shaped frames.
//
// It then decodes the lossless corpus (src/workloads/lossless_corpus.h)
// with the table-driven decoder and its bit-serial reference, and fails on
// any byte difference. --smoke runs only that check, on a small corpus
// (tools/check_build.sh runs it).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/compress/lossless.h"
#include "src/compress/lossy.h"
#include "src/workloads/lossless_corpus.h"

using namespace sand;

namespace {

std::vector<uint8_t> SerializedFrame(uint32_t h, uint32_t w, uint32_t c, uint64_t seed) {
  std::vector<uint8_t> out(12 + static_cast<size_t>(h) * w * c);
  auto put_u32 = [&](size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) out[at + i] = static_cast<uint8_t>(v >> (8 * i));
  };
  put_u32(0, h);
  put_u32(4, w);
  put_u32(8, c);
  Rng rng(seed);
  size_t at = 12;
  for (uint32_t y = 0; y < h; ++y) {
    for (uint32_t x = 0; x < w; ++x) {
      for (uint32_t ch = 0; ch < c; ++ch) {
        double v = 40.0 + y * 1.1 + x * 0.9 + ch * 15 + (rng.NextDouble() - 0.5) * 6.0;
        out[at++] = static_cast<uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    }
  }
  return out;
}

Nanos Quantile(std::vector<Nanos>& samples, double q) {
  if (samples.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

// Decodes the corpus with both lossless decoders; returns the number of
// streams on which they disagree (or fail).
int CheckLosslessDecoder() {
  SyntheticDatasetOptions options;  // the data-path benchmark's geometry
  options.num_videos = SmokeMode() ? 2 : 8;
  options.frames_per_video = SmokeMode() ? 16 : 48;
  auto corpus = BuildLosslessCorpus(options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "lossless corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  Nanos fast_ns = 0;
  Nanos reference_ns = 0;
  uint64_t raw_bytes = 0;
  int failures = 0;
  for (const LosslessCorpusEntry& entry : *corpus) {
    Stopwatch reference_watch;
    auto reference = lossless_reference::LosslessDecompress(entry.stream);
    reference_ns += reference_watch.Elapsed();
    Stopwatch fast_watch;
    auto fast = LosslessDecompress(entry.stream);
    fast_ns += fast_watch.Elapsed();
    if (!reference.ok() || !fast.ok() || *fast != *reference) {
      std::fprintf(stderr, "FAIL: %s: table-driven %s, reference %s%s\n", entry.name.c_str(),
                   fast.status().ToString().c_str(), reference.status().ToString().c_str(),
                   fast.ok() && reference.ok() ? ", bytes differ" : "");
      ++failures;
      continue;
    }
    raw_bytes += fast->size();
  }
  const double raw_mb = static_cast<double>(raw_bytes) / (1024.0 * 1024.0);
  std::printf("\nlossless decoder over %zu corpus streams (%.1f MB decoded): table-driven "
              "%.1f MB/s, reference %.1f MB/s, %.2fx; %d mismatches\n",
              corpus->size(), raw_mb, raw_mb / ToSeconds(fast_ns),
              raw_mb / ToSeconds(reference_ns),
              static_cast<double>(reference_ns) / static_cast<double>(fast_ns), failures);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  sand::ParseBenchFlags(argc, argv);
  if (SmokeMode()) {
    return CheckLosslessDecoder() == 0 ? 0 : 1;
  }
  PrintBenchHeader("micro: ObjectCodec encode/decode throughput",
                   "compressed cache tier cost model (DESIGN.md §11)");

  constexpr int kFrames = 256;
  constexpr uint32_t kH = 64, kW = 96, kC = 3;
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(kFrames);
  for (int i = 0; i < kFrames; ++i) {
    frames.push_back(SerializedFrame(kH, kW, kC, 1000 + static_cast<uint64_t>(i)));
  }
  const double raw_mb = static_cast<double>(frames[0].size()) * kFrames / (1024.0 * 1024.0);

  std::printf("%-10s %-12s %-12s %-10s %-12s %-12s\n", "codec", "enc MB/s", "dec MB/s",
              "ratio", "enc p95 us", "dec p95 us");
  PrintRule();

  const char* codec = "lossless";
  CompressionPolicy policy;
  policy.enabled = true;
  policy.min_object_bytes = 64;
  ObjectCodec object_codec(policy);

  std::vector<std::vector<uint8_t>> encoded(kFrames);
  std::vector<Nanos> enc_samples, dec_samples;
  Stopwatch enc_watch;
  for (int i = 0; i < kFrames; ++i) {
    Stopwatch op;
    auto result = object_codec.Encode("cache/v/f" + std::to_string(i) + "/nbench",
                                      std::span<const uint8_t>(frames[static_cast<size_t>(i)]));
    enc_samples.push_back(op.Elapsed());
    if (!result.ok() || !result->has_value()) {
      std::fprintf(stderr, "encode failed for codec %s\n", codec);
      return 1;
    }
    encoded[static_cast<size_t>(i)] = std::move(**result);
  }
  Nanos enc_ns = enc_watch.Elapsed();

  uint64_t encoded_bytes = 0;
  Stopwatch dec_watch;
  for (int i = 0; i < kFrames; ++i) {
    Stopwatch op;
    auto decoded =
        object_codec.Decode(std::span<const uint8_t>(encoded[static_cast<size_t>(i)]));
    dec_samples.push_back(op.Elapsed());
    if (!decoded.ok() || decoded->size() != frames[static_cast<size_t>(i)].size()) {
      std::fprintf(stderr, "decode failed for codec %s\n", codec);
      return 1;
    }
    encoded_bytes += encoded[static_cast<size_t>(i)].size();
  }
  Nanos dec_ns = dec_watch.Elapsed();

  double ratio = static_cast<double>(frames[0].size()) * kFrames /
                 static_cast<double>(encoded_bytes);
  double enc_mbs = raw_mb / ToSeconds(enc_ns);
  double dec_mbs = raw_mb / ToSeconds(dec_ns);
  std::printf("%-10s %-12.1f %-12.1f %-10.2f %-12.1f %-12.1f\n", codec,
              enc_mbs, dec_mbs, ratio, ToMillis(Quantile(enc_samples, 0.95)) * 1000.0,
              ToMillis(Quantile(dec_samples, 0.95)) * 1000.0);

  for (const char* op : {"encode", "decode"}) {
    const bool is_enc = op[0] == 'e';
    PipelineRun run;
    run.metrics.wall_ns = is_enc ? enc_ns : dec_ns;
    run.metrics.batches = kFrames;
    run.metrics.bytes_consumed = static_cast<uint64_t>(frames[0].size()) * kFrames;
    auto& samples = is_enc ? enc_samples : dec_samples;
    run.metrics.iter_p50_ns = Quantile(samples, 0.50);
    run.metrics.iter_p95_ns = Quantile(samples, 0.95);
    RecordBenchResult(StrFormat("micro_compress/%s/%s", codec, op),
                      {{"codec", codec},
                       {"op", op},
                       {"frame_bytes", std::to_string(frames[0].size())},
                       {"compression_ratio", StrFormat("%.3f", ratio)},
                       {"mb_per_s", StrFormat("%.1f", is_enc ? enc_mbs : dec_mbs)}},
                      run);
  }
  std::printf("\nencode runs on the service worker pool (async demotion), so only the\n"
              "dec column sits on the demand path — and only on a cold hit.\n");
  return CheckLosslessDecoder() == 0 ? 0 : 1;
}
