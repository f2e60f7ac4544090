// Tests for SandFs: the POSIX view surface over a fake provider.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/vfs/sand_fs.h"

namespace sand {
namespace {

// In-memory provider serving canned objects and recording lifecycle calls.
class FakeProvider : public ViewProvider {
 public:
  Result<SharedBytes> Materialize(const ViewPath& path) override {
    ++materialize_calls;
    auto it = objects.find(path.Format());
    if (it == objects.end()) {
      return NotFound("no object " + path.Format());
    }
    return std::make_shared<const std::vector<uint8_t>>(it->second);
  }

  Result<std::string> GetMetadata(const ViewPath& path, const std::string& name) override {
    if (name == "path") {
      return path.Format();
    }
    return NotFound("unknown xattr " + name);
  }

  Status OnSessionOpen(const std::string& task) override {
    sessions[task] += 1;
    return Status::Ok();
  }
  Status OnSessionClose(const std::string& task) override {
    sessions[task] -= 1;
    return Status::Ok();
  }
  void OnViewClose(const ViewPath& path) override { closed.push_back(path.Format()); }

  std::map<std::string, std::vector<uint8_t>> objects;
  std::map<std::string, int> sessions;
  std::vector<std::string> closed;
  int materialize_calls = 0;
};

class SandFsTest : public ::testing::Test {
 protected:
  SandFsTest() : fs_(&provider_) {
    provider_.objects["/train/0/0/view"] = {1, 2, 3, 4, 5, 6, 7, 8};
    provider_.objects["/train/vid0/frame3"] = {9, 9};
  }
  FakeProvider provider_;
  SandFs fs_;
};

TEST_F(SandFsTest, OpenReadClose) {
  auto fd = fs_.Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> buffer(4);
  auto n = fs_.Read(*fd, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(buffer, (std::vector<uint8_t>{1, 2, 3, 4}));
  // Cursor advances.
  n = fs_.Read(*fd, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buffer, (std::vector<uint8_t>{5, 6, 7, 8}));
  // EOF.
  n = fs_.Read(*fd, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_TRUE(fs_.Close(*fd).ok());
  EXPECT_EQ(provider_.closed, (std::vector<std::string>{"/train/0/0/view"}));
}

TEST_F(SandFsTest, MaterializeIsLazyAndOnce) {
  auto fd = fs_.Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(provider_.materialize_calls, 0) << "open must not materialize";
  std::vector<uint8_t> buffer(2);
  ASSERT_TRUE(fs_.Read(*fd, buffer).ok());
  ASSERT_TRUE(fs_.Read(*fd, buffer).ok());
  EXPECT_EQ(provider_.materialize_calls, 1) << "subsequent reads reuse the buffer";
}

TEST_F(SandFsTest, PReadDoesNotMoveCursor) {
  auto fd = fs_.Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> buffer(3);
  auto n = fs_.PRead(*fd, buffer, 5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buffer, (std::vector<uint8_t>{6, 7, 8}));
  std::vector<uint8_t> first(1);
  ASSERT_TRUE(fs_.Read(*fd, first).ok());
  EXPECT_EQ(first[0], 1) << "cursor still at origin";
  // Past-end pread returns 0.
  EXPECT_EQ(*fs_.PRead(*fd, buffer, 100), 0u);
}

TEST_F(SandFsTest, ReadAllAndSize) {
  auto fd = fs_.Open("/train/vid0/frame3");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs_.SizeOf(*fd), 2u);
  auto all = fs_.ReadAllShared(*fd);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(**all, (std::vector<uint8_t>{9, 9}));
}

TEST_F(SandFsTest, GetXattrDelegates) {
  auto fd = fs_.Open("/train/vid0/frame3");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs_.GetXattr(*fd, "path"), "/train/vid0/frame3");
  EXPECT_FALSE(fs_.GetXattr(*fd, "bogus").ok());
}

TEST_F(SandFsTest, SessionLifecycle) {
  auto fd = fs_.Open("/train");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(provider_.sessions["train"], 1);
  // Reads on session fds are invalid.
  std::vector<uint8_t> buffer(1);
  EXPECT_FALSE(fs_.Read(*fd, buffer).ok());
  EXPECT_FALSE(fs_.GetXattr(*fd, "path").ok());
  ASSERT_TRUE(fs_.Close(*fd).ok());
  EXPECT_EQ(provider_.sessions["train"], 0);
}

TEST_F(SandFsTest, ErrorsOnBadPathsAndFds) {
  EXPECT_FALSE(fs_.Open("relative").ok());
  EXPECT_FALSE(fs_.Open("/t/v/frameX").ok());
  std::vector<uint8_t> buffer(1);
  EXPECT_FALSE(fs_.Read(12345, buffer).ok());
  EXPECT_FALSE(fs_.Close(12345).ok());
}

TEST_F(SandFsTest, MissingObjectSurfacesError) {
  auto fd = fs_.Open("/train/9/9/view");
  ASSERT_TRUE(fd.ok()) << "open succeeds; materialization happens at read";
  std::vector<uint8_t> buffer(1);
  EXPECT_FALSE(fs_.Read(*fd, buffer).ok());
}

TEST_F(SandFsTest, DistinctFdsIndependentCursors) {
  auto fd1 = fs_.Open("/train/0/0/view");
  auto fd2 = fs_.Open("/train/0/0/view");
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(fd2.ok());
  EXPECT_NE(*fd1, *fd2);
  std::vector<uint8_t> buffer(3);
  ASSERT_TRUE(fs_.Read(*fd1, buffer).ok());
  std::vector<uint8_t> other(1);
  ASSERT_TRUE(fs_.Read(*fd2, other).ok());
  EXPECT_EQ(other[0], 1) << "second fd has its own cursor";
}

TEST_F(SandFsTest, StatsAccumulate) {
  auto fd = fs_.Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> buffer(8);
  ASSERT_TRUE(fs_.Read(*fd, buffer).ok());
  ASSERT_TRUE(fs_.Close(*fd).ok());
  SandFsStats stats = fs_.stats();
  EXPECT_EQ(stats.opens, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_EQ(stats.bytes_read, 8u);
}

// ---------------------------------------------------------------------------
// OpenOptions: the versioned wire form (DESIGN.md §13).

// One wire field: u8 tag | u64 LE value.
void AppendField(std::vector<uint8_t>& bytes, uint8_t tag, uint64_t value) {
  bytes.push_back(tag);
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<uint8_t>(value >> shift));
  }
}

TEST(OpenOptionsTest, WireRoundTrip) {
  OpenOptions options;
  std::vector<uint8_t> bytes = options.Serialize();
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 0})) << "version 1, no fields";
  auto decoded = OpenOptions::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == options);
}

TEST(OpenOptionsTest, OldClientsRetiredFieldsAreSkipped) {
  // The 3-field form older clients send: readahead window (tag 1) = -1,
  // result pinning (tag 2) = 0, nonblock (tag 3) = 1. All three are retired.
  std::vector<uint8_t> bytes = {1, 3};
  AppendField(bytes, 1, static_cast<uint64_t>(int64_t{-1}));
  AppendField(bytes, 2, 0);
  AppendField(bytes, 3, 1);
  auto decoded = OpenOptions::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == OpenOptions{});
}

TEST(OpenOptionsTest, UnknownFieldsFromNewerPeerAreSkipped) {
  OpenOptions options;
  std::vector<uint8_t> bytes = options.Serialize();
  // Append a field with an unassigned tag, as a newer client would.
  AppendField(bytes, 99, 0xABABABABABABABABULL);
  bytes[1] += 1;  // field count
  auto decoded = OpenOptions::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == options);
}

TEST(OpenOptionsTest, RejectsMalformedWireForm) {
  EXPECT_EQ(OpenOptions::Deserialize({}).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(OpenOptions::Deserialize({0, 0}).status().code(),
            ErrorCode::kInvalidArgument);  // version 0
  std::vector<uint8_t> truncated = OpenOptions{}.Serialize();
  truncated.pop_back();
  EXPECT_EQ(OpenOptions::Deserialize(truncated).status().code(),
            ErrorCode::kInvalidArgument);  // header
  std::vector<uint8_t> short_field = {1, 1};
  AppendField(short_field, 99, 0);
  short_field.pop_back();
  EXPECT_EQ(OpenOptions::Deserialize(short_field).status().code(),
            ErrorCode::kInvalidArgument);  // field list
}

}  // namespace
}  // namespace sand
