// Tests for the benchmark's own code: the decorators forward every verb
// unchanged, decorated seams still work inside the program (TieredCache,
// SandServer), and the report arithmetic gives known answers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "ledger.h"
#include "probes.h"
#include "src/net/sand_client.h"
#include "src/net/sand_server.h"
#include "src/storage/object_store.h"
#include "src/vfs/sand_fs.h"

namespace perfbench {
namespace {

using sand::MakeSharedBytes;
using sand::MemoryStore;
using sand::SharedBytes;

std::vector<uint8_t> Bytes(size_t n, uint8_t fill) { return std::vector<uint8_t>(n, fill); }

size_t CountSpans(const std::vector<Span>& spans, Layer layer, Verb verb) {
  size_t n = 0;
  for (const Span& span : spans) {
    n += span.layer == layer && span.verb == verb ? 1 : 0;
  }
  return n;
}

TEST(TimedStoreTest, ForwardsEveryVerbUnchanged) {
  auto inner = std::make_shared<MemoryStore>(1 << 20);
  SpanLog log(64);
  TimedStore store(inner, Layer::kMem, &log);

  ASSERT_TRUE(store.Put("a", Bytes(10, 1)).ok());
  SharedBytes shared = MakeSharedBytes(Bytes(20, 2));
  ASSERT_TRUE(store.PutShared("b", shared).ok());
  EXPECT_TRUE(*store.PutIfAbsent("c", Bytes(5, 3)));
  EXPECT_FALSE(*store.PutIfAbsent("c", Bytes(7, 4)));

  // PutShared must reach the inner store's zero-copy path, not a copy.
  EXPECT_EQ(store.GetShared("b")->get(), shared.get());
  EXPECT_EQ(**store.GetShared("a"), Bytes(10, 1));
  EXPECT_EQ(**store.GetShared("c"), Bytes(5, 3));
  EXPECT_FALSE(store.GetShared("missing").ok());
  EXPECT_TRUE(store.Contains("a"));
  EXPECT_FALSE(store.Contains("missing"));
  EXPECT_EQ(*store.SizeOf("b"), 20u);
  EXPECT_EQ(store.UsedBytes(), inner->UsedBytes());
  EXPECT_EQ(store.CapacityBytes(), inner->CapacityBytes());
  EXPECT_EQ(store.ListKeys(), inner->ListKeys());
  EXPECT_TRUE(store.Rescan().ok());
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_FALSE(inner->Contains("a"));
  EXPECT_FALSE(store.Delete("a").ok());

  std::vector<Span> spans = log.Take();
  EXPECT_EQ(CountSpans(spans, Layer::kMem, Verb::kPut), 4u);
  EXPECT_EQ(CountSpans(spans, Layer::kMem, Verb::kGet), 4u);
  EXPECT_EQ(CountSpans(spans, Layer::kMem, Verb::kContains), 2u);
  EXPECT_EQ(CountSpans(spans, Layer::kMem, Verb::kSize), 1u);
  EXPECT_EQ(CountSpans(spans, Layer::kMem, Verb::kDelete), 2u);
  // Gets record their outcome and the bytes they returned.
  size_t hits = 0;
  uint64_t bytes = 0;
  for (const Span& span : spans) {
    if (span.verb == Verb::kGet && span.ok) {
      ++hits;
      bytes += span.bytes;
    }
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  EXPECT_EQ(hits, 3u);
  EXPECT_EQ(bytes, 35u);
}

TEST(TimedStoreTest, DecoratedTieredCacheRoundTripsPutGetAndDemote) {
  SpanLog log(256);
  auto memory = std::make_shared<TimedStore>(std::make_shared<MemoryStore>(1 << 20),
                                             Layer::kMem, &log);
  auto disk = std::make_shared<TimedStore>(std::make_shared<MemoryStore>(1 << 20),
                                           Layer::kDisk, &log);
  sand::TieredCache cache(memory, disk);

  std::vector<uint8_t> payload = Bytes(4096, 7);
  ASSERT_TRUE(cache.Put("obj", payload, sand::Tier::kMemory).ok());
  EXPECT_EQ(**cache.GetShared("obj"), payload);
  ASSERT_TRUE(cache.Demote("obj").ok());
  EXPECT_FALSE(memory->Contains("obj"));
  EXPECT_TRUE(disk->Contains("obj"));
  EXPECT_EQ(**cache.GetShared("obj"), payload);

  std::vector<Span> spans = log.Take();
  EXPECT_GE(CountSpans(spans, Layer::kMem, Verb::kPut), 1u);
  EXPECT_GE(CountSpans(spans, Layer::kDisk, Verb::kPut), 1u);
  EXPECT_GE(CountSpans(spans, Layer::kDisk, Verb::kGet), 1u);
}

// Serves every batch view as a fixed byte string.
class FixedProvider : public sand::ViewProvider {
 public:
  sand::Result<SharedBytes> Materialize(const sand::ViewPath& path) override {
    if (path.type != sand::ViewType::kBatchView) {
      return sand::NotFound("no view " + path.Format());
    }
    return MakeSharedBytes(Bytes(64, static_cast<uint8_t>(path.iteration)));
  }
  sand::Result<std::string> GetMetadata(const sand::ViewPath& path,
                                        const std::string& name) override {
    if (name == "path") {
      return path.Format();
    }
    return sand::NotFound("no xattr " + name);
  }
  sand::Status OnSessionOpen(const std::string&) override { return sand::Status::Ok(); }
  sand::Status OnSessionClose(const std::string&) override { return sand::Status::Ok(); }
};

TEST(TimedApiTest, ForwardsEveryVerbUnchanged) {
  FixedProvider provider;
  sand::SandFs fs(&provider);
  SpanLog log(64);
  TimedApi api(&fs, Layer::kVfs, &log);
  const std::string path = sand::ViewPath::Batch("t", 0, 3).Format();

  sand::Result<int> fd = api.Open(path);
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> buffer(16);
  EXPECT_EQ(*api.Read(*fd, buffer), 16u);
  EXPECT_EQ(buffer, Bytes(16, 3));
  EXPECT_EQ(*api.PRead(*fd, buffer, 60), 4u);
  EXPECT_EQ(**api.ReadAllShared(*fd), Bytes(64, 3));
  EXPECT_EQ(**api.ReadAllSharedAsync(*fd).Get(), Bytes(64, 3));
  EXPECT_EQ(*api.SizeOf(*fd), 64u);
  EXPECT_EQ(*api.GetXattr(*fd, "path"), path);
  EXPECT_FALSE(api.GetXattr(*fd, "nope").ok());
  EXPECT_EQ(api.ListDir("/.sand").ok(), fs.ListDir("/.sand").ok());
  ASSERT_TRUE(api.Close(*fd).ok());
  EXPECT_FALSE(api.Close(*fd).ok());
  EXPECT_FALSE(api.Open("/not/a/view/path/at/all").ok());

  std::vector<Span> spans = log.Take();
  EXPECT_EQ(CountSpans(spans, Layer::kVfs, Verb::kOpen), 2u);
  EXPECT_EQ(CountSpans(spans, Layer::kVfs, Verb::kRead), 4u);
  EXPECT_EQ(CountSpans(spans, Layer::kVfs, Verb::kMeta), 4u);
  EXPECT_EQ(CountSpans(spans, Layer::kVfs, Verb::kClose), 2u);
}

TEST(TimedApiTest, DecoratedBackendServesASandServer) {
  FixedProvider provider;
  sand::SandFs fs(&provider);
  SpanLog log(64);
  TimedApi backend(&fs, Layer::kVfs, &log);
  sand::net::SandServer::Options options;
  options.unix_path = "pbtest-" + std::to_string(::getpid()) + ".sock";
  options.request_threads = 2;
  sand::net::SandServer server(&backend, options);
  ASSERT_TRUE(server.Start().ok());

  sand::net::SandClient::Options client_options;
  client_options.unix_path = options.unix_path;
  client_options.tenant = "test";
  auto client = sand::net::SandClient::Connect(client_options);
  ASSERT_TRUE(client.ok());
  SpanLog client_log(64);
  TimedApi api(client->get(), Layer::kClient, &client_log);
  sand::Result<int> fd = api.Open(sand::ViewPath::Batch("t", 1, 5).Format());
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(**api.ReadAllSharedAsync(*fd).Get(), Bytes(64, 5));
  ASSERT_TRUE(api.Close(*fd).ok());
  client->reset();
  server.Stop();

  std::vector<Span> spans = log.Take();
  EXPECT_EQ(CountSpans(spans, Layer::kVfs, Verb::kOpen), 1u);
  EXPECT_EQ(CountSpans(spans, Layer::kVfs, Verb::kRead), 1u);
  EXPECT_EQ(CountSpans(spans, Layer::kVfs, Verb::kClose), 1u);
  std::vector<Span> client_spans = client_log.Take();
  ASSERT_EQ(CountSpans(client_spans, Layer::kClient, Verb::kRead), 1u);
  for (const Span& span : client_spans) {
    if (span.verb == Verb::kRead) {
      EXPECT_EQ(span.bytes, 64u);  // recorded when the async read resolved
    }
  }
}

TEST(SpanLogTest, DropsAndCountsPastCapacity) {
  SpanLog log(8);
  for (int i = 0; i < 10; ++i) {
    log.Record(Span{});
  }
  EXPECT_TRUE(log.NearlyFull());
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.Take().size(), 8u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(LedgerTest, PercentilesInterpolateBetweenRanks) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 1.0), 4.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  EXPECT_DOUBLE_EQ(Percentile(hundred, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 0.9), 90.1);
}

TEST(LedgerTest, PerBatchAndRatios) {
  EXPECT_DOUBLE_EQ(PerBatch(100.0, 4), 25.0);
  EXPECT_DOUBLE_EQ(PerBatch(100.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(SafeRatio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(SafeRatio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(UnattributedPercent(200.0, 150.0), 25.0);
  EXPECT_DOUBLE_EQ(UnattributedPercent(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(OverheadPercent(1000.0, 900.0), 10.0);
  EXPECT_DOUBLE_EQ(OverheadPercent(0.0, 900.0), 0.0);
}

Span MakeSpan(uint64_t trace, Layer layer, Verb verb, int64_t start, int64_t end) {
  Span span;
  span.trace_id = trace;
  span.layer = layer;
  span.verb = verb;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(LedgerTest, SelfTimeSubtractsTheUnionOfChildren) {
  const uint64_t t1 = BatchTraceId(1);
  const uint64_t t2 = BatchTraceId(2);
  std::vector<Span> spans = {
      MakeSpan(t1, Layer::kTrainer, Verb::kBatch, 0, 100),
      MakeSpan(t1, Layer::kVfs, Verb::kRead, 10, 90),
      // Two overlapping memory gets cover [20, 40); a disk get [50, 60).
      MakeSpan(t1, Layer::kMem, Verb::kGet, 20, 30),
      MakeSpan(t1, Layer::kMem, Verb::kGet, 25, 40),
      MakeSpan(t1, Layer::kDisk, Verb::kGet, 50, 60),
      // Another trace: its get does not shorten trace 1's spans.
      MakeSpan(t2, Layer::kTrainer, Verb::kBatch, 0, 50),
      MakeSpan(t2, Layer::kMem, Verb::kGet, 60, 70),
      // Outside any trace: its own root.
      MakeSpan(0, Layer::kVfs, Verb::kOpen, 0, 5),
  };
  Ledger ledger = BuildLedger(spans);
  EXPECT_EQ(ledger.layer(Layer::kTrainer).self_ns, 20 + 50);
  EXPECT_EQ(ledger.layer(Layer::kVfs).self_ns, (80 - 30) + 5);
  EXPECT_EQ(ledger.layer(Layer::kMem).self_ns, 10 + 15 + 10);
  EXPECT_EQ(ledger.layer(Layer::kDisk).self_ns, 10);
  EXPECT_EQ(ledger.layer(Layer::kMem).time_ns, 35);

  const VerbTotals& gets = ledger.verb(Layer::kMem, Verb::kGet);
  EXPECT_EQ(gets.calls, 3u);
  EXPECT_DOUBLE_EQ(Percentile(gets.durations_ns, 0.5), 10.0);
}

TEST(LedgerTest, ChildOnAnotherThreadOutlivingItsParentIsClipped) {
  const uint64_t t = BatchTraceId(9);
  std::vector<Span> spans = {
      MakeSpan(t, Layer::kVfs, Verb::kRead, 0, 10),
      MakeSpan(t, Layer::kCluster, Verb::kGet, 5, 20),
  };
  Ledger ledger = BuildLedger(spans);
  EXPECT_EQ(ledger.layer(Layer::kVfs).self_ns, 5);
  EXPECT_EQ(ledger.layer(Layer::kCluster).self_ns, 15);
}

}  // namespace
}  // namespace perfbench
