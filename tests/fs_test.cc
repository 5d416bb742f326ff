// Tests for the filesystem substrate and the rsync-style sync engine —
// pairing's correctness (hard links, deltas, up-to-date detection) lives or
// dies here.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/compress.h"
#include "src/base/synthetic_content.h"
#include "src/fs/sim_filesystem.h"
#include "src/fs/sync_engine.h"

namespace flux {
namespace {

TEST(SimFilesystemTest, WriteAndReadBack) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/a/b/c.txt", "hello").ok());
  auto content = fs.ReadFile("/a/b/c.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(std::string(content.value()->begin(), content.value()->end()),
            "hello");
  EXPECT_TRUE(fs.IsFile("/a/b/c.txt"));
  EXPECT_TRUE(fs.IsDirectory("/a/b"));
  EXPECT_FALSE(fs.IsDirectory("/a/b/c.txt"));
}

TEST(SimFilesystemTest, RelativePathsRejected) {
  SimFilesystem fs;
  EXPECT_FALSE(fs.WriteFile("relative.txt", "x").ok());
  EXPECT_FALSE(fs.Mkdirs("a/b").ok());
  EXPECT_FALSE(fs.WriteFile("/a/../b", "x").ok());
}

TEST(SimFilesystemTest, MissingFileIsNotFound) {
  SimFilesystem fs;
  auto content = fs.ReadFile("/nope");
  EXPECT_EQ(content.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs.Exists("/nope"));
}

TEST(SimFilesystemTest, OverwriteReplacesContent) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/f", "one").ok());
  const uint64_t hash_before = fs.FileHash("/f").value();
  ASSERT_TRUE(fs.WriteFile("/f", "two").ok());
  EXPECT_NE(fs.FileHash("/f").value(), hash_before);
  EXPECT_EQ(fs.FileSize("/f").value(), 3u);
}

TEST(SimFilesystemTest, WriteOverDirectoryFails) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.Mkdirs("/dir").ok());
  EXPECT_FALSE(fs.WriteFile("/dir", "x").ok());
}

TEST(SimFilesystemTest, HardLinkSharesInode) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/orig", "payload").ok());
  ASSERT_TRUE(fs.Link("/orig", "/links/copy").ok());
  EXPECT_TRUE(fs.SameInode("/orig", "/links/copy"));
  EXPECT_EQ(fs.FileHash("/orig").value(), fs.FileHash("/links/copy").value());

  // Rewriting one breaks the link (copy-on-write).
  ASSERT_TRUE(fs.WriteFile("/links/copy", "different").ok());
  EXPECT_FALSE(fs.SameInode("/orig", "/links/copy"));
  EXPECT_EQ(std::string(fs.ReadFile("/orig").value()->begin(),
                        fs.ReadFile("/orig").value()->end()),
            "payload");
}

TEST(SimFilesystemTest, LinkToMissingSourceFails) {
  SimFilesystem fs;
  EXPECT_FALSE(fs.Link("/missing", "/copy").ok());
}

TEST(SimFilesystemTest, LinkOverExistingFails) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/a", "1").ok());
  ASSERT_TRUE(fs.WriteFile("/b", "2").ok());
  EXPECT_EQ(fs.Link("/a", "/b").code(), StatusCode::kAlreadyExists);
}

TEST(SimFilesystemTest, RemoveDropsLinkCount) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/a", "x").ok());
  ASSERT_TRUE(fs.Link("/a", "/b").ok());
  ASSERT_TRUE(fs.Remove("/a").ok());
  EXPECT_FALSE(fs.Exists("/a"));
  EXPECT_TRUE(fs.IsFile("/b"));  // inode survives via the other link
}

TEST(SimFilesystemTest, RemoveNonEmptyDirectoryFails) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/d/f", "x").ok());
  EXPECT_FALSE(fs.Remove("/d").ok());
  ASSERT_TRUE(fs.RemoveTree("/d").ok());
  EXPECT_FALSE(fs.Exists("/d"));
}

TEST(SimFilesystemTest, RemoveTreeMissingIsOk) {
  SimFilesystem fs;
  EXPECT_TRUE(fs.RemoveTree("/ghost").ok());
}

TEST(SimFilesystemTest, ListSorted) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/d/zebra", "z").ok());
  ASSERT_TRUE(fs.WriteFile("/d/alpha", "a").ok());
  ASSERT_TRUE(fs.Mkdirs("/d/mid").ok());
  auto names = fs.List("/d");
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 3u);
  EXPECT_EQ((*names)[0], "alpha");
  EXPECT_EQ((*names)[1], "mid");
  EXPECT_EQ((*names)[2], "zebra");
}

TEST(SimFilesystemTest, WalkFilesRecursive) {
  SimFilesystem fs;
  ASSERT_TRUE(fs.WriteFile("/r/a.txt", "aa").ok());
  ASSERT_TRUE(fs.WriteFile("/r/sub/b.txt", "bbb").ok());
  ASSERT_TRUE(fs.WriteFile("/other/c.txt", "c").ok());
  auto files = fs.WalkFiles("/r");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  EXPECT_EQ((*files)[0].path, "/r/a.txt");
  EXPECT_EQ((*files)[0].size, 2u);
  EXPECT_EQ((*files)[1].path, "/r/sub/b.txt");
}

TEST(SimFilesystemTest, TreeSizeCountsLinksOnce) {
  SimFilesystem fs;
  Bytes big = GenerateContent(1, 1000, 0.5);
  ASSERT_TRUE(fs.WriteFile("/t/a", big).ok());
  ASSERT_TRUE(fs.Link("/t/a", "/t/b").ok());
  EXPECT_EQ(fs.TreeSize("/t", /*unique_inodes=*/false).value(), 2000u);
  EXPECT_EQ(fs.TreeSize("/t", /*unique_inodes=*/true).value(), 1000u);
  EXPECT_EQ(fs.TreeFileCount("/t").value(), 2u);
}

// ----- SyncEngine -----

class SyncEngineTest : public ::testing::Test {
 protected:
  void FillSource() {
    ASSERT_TRUE(src_.WriteFile("/tree/one.bin",
                               GenerateContent(1, 5000, 0.5)).ok());
    ASSERT_TRUE(src_.WriteFile("/tree/sub/two.bin",
                               GenerateContent(2, 3000, 0.5)).ok());
    ASSERT_TRUE(src_.WriteFile("/tree/three.bin",
                               GenerateContent(3, 1000, 0.9)).ok());
  }

  SimFilesystem src_;
  SimFilesystem dst_;
};

TEST_F(SyncEngineTest, FreshCopyTransfersEverything) {
  FillSource();
  auto stats = SyncTree(src_, "/tree", dst_, "/mirror");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_total, 3u);
  EXPECT_EQ(stats->files_copied, 3u);
  EXPECT_EQ(stats->bytes_total, 9000u);
  EXPECT_GT(stats->bytes_transferred, 0u);
  // Compression means wire bytes below raw bytes for compressible content.
  EXPECT_LT(stats->bytes_transferred, stats->bytes_copied_raw);
  EXPECT_EQ(dst_.FileHash("/mirror/one.bin").value(),
            src_.FileHash("/tree/one.bin").value());
  EXPECT_EQ(dst_.FileHash("/mirror/sub/two.bin").value(),
            src_.FileHash("/tree/sub/two.bin").value());
}

TEST_F(SyncEngineTest, SecondSyncIsUpToDate) {
  FillSource();
  ASSERT_TRUE(SyncTree(src_, "/tree", dst_, "/mirror").ok());
  auto stats = SyncTree(src_, "/tree", dst_, "/mirror");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_up_to_date, 3u);
  EXPECT_EQ(stats->files_copied, 0u);
  EXPECT_EQ(stats->bytes_transferred, 0u);
  EXPECT_GT(stats->metadata_bytes, 0u);  // checksum exchange still happens
}

TEST_F(SyncEngineTest, ChangedFileTransfersDeltaOnly) {
  FillSource();
  ASSERT_TRUE(SyncTree(src_, "/tree", dst_, "/mirror").ok());
  ASSERT_TRUE(src_.WriteFile("/tree/one.bin",
                             GenerateContent(99, 5000, 0.5)).ok());
  auto stats = SyncTree(src_, "/tree", dst_, "/mirror");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_copied, 1u);
  EXPECT_EQ(stats->files_up_to_date, 2u);
}

TEST_F(SyncEngineTest, LinkDestHardLinksIdenticalFiles) {
  FillSource();
  // The destination has identical content at the link-dest root (the guest's
  // own /system in pairing).
  ASSERT_TRUE(dst_.WriteFile("/system/one.bin",
                             GenerateContent(1, 5000, 0.5)).ok());
  ASSERT_TRUE(dst_.WriteFile("/system/sub/two.bin",
                             GenerateContent(222, 3000, 0.5)).ok());

  SyncOptions options;
  options.link_dest = "/system";
  auto stats = SyncTree(src_, "/tree", dst_, "/pair", options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_linked, 1u);  // one.bin matches
  EXPECT_EQ(stats->files_copied, 2u);  // two.bin differs, three.bin missing
  EXPECT_EQ(stats->bytes_linked, 5000u);
  EXPECT_TRUE(dst_.SameInode("/system/one.bin", "/pair/one.bin"));
}

TEST_F(SyncEngineTest, CopySharesBytesUntilRewritten) {
  FillSource();
  const uint64_t source_hash = src_.FileHash("/tree/one.bin").value();
  auto copy = SyncTree(src_, "/tree", src_, "/copy");
  ASSERT_TRUE(copy.ok());
  // The copy reads the source's bytes in memory, yet is a file of its own.
  EXPECT_EQ(src_.ReadFile("/tree/one.bin").value()->data(),
            src_.ReadFile("/copy/one.bin").value()->data());
  EXPECT_FALSE(src_.SameInode("/tree/one.bin", "/copy/one.bin"));

  // Rewriting the copy reaches neither the source's bytes nor its hash.
  ASSERT_TRUE(src_.WriteFile("/copy/one.bin",
                             GenerateContent(99, 5000, 0.5)).ok());
  EXPECT_EQ(src_.FileHash("/tree/one.bin").value(), source_hash);
  EXPECT_NE(src_.FileHash("/copy/one.bin").value(), source_hash);
  const Bytes original = GenerateContent(1, 5000, 0.5);
  auto source = src_.ReadFile("/tree/one.bin");
  ASSERT_TRUE(source.ok());
  EXPECT_TRUE(std::equal(source.value()->begin(), source.value()->end(),
                         original.begin(), original.end()));

  // Link-dest against the partly rewritten copy: the two untouched files
  // link, and one.bin is sent at its compressed size.
  const uint64_t one_wire =
      LzCompressedSize(ByteSpan(original.data(), original.size()));
  SyncOptions options;
  options.link_dest = "/copy";
  auto linked = SyncTree(src_, "/tree", src_, "/pair", options);
  ASSERT_TRUE(linked.ok());
  EXPECT_EQ(linked->files_linked, 2u);
  EXPECT_EQ(linked->bytes_linked, 4000u);
  EXPECT_EQ(linked->files_copied, 1u);
  EXPECT_EQ(linked->bytes_transferred, one_wire);
  EXPECT_TRUE(src_.SameInode("/copy/sub/two.bin", "/pair/sub/two.bin"));

  // Up to date except the rewritten file, which is sent again.
  auto resync = SyncTree(src_, "/tree", src_, "/copy");
  ASSERT_TRUE(resync.ok());
  EXPECT_EQ(resync->files_up_to_date, 2u);
  EXPECT_EQ(resync->bytes_up_to_date, 4000u);
  EXPECT_EQ(resync->files_copied, 1u);
  EXPECT_EQ(resync->bytes_transferred, one_wire);
  EXPECT_EQ(src_.FileHash("/copy/one.bin").value(), source_hash);
}

TEST_F(SyncEngineTest, SingleFileSource) {
  FillSource();
  auto stats = SyncTree(src_, "/tree/one.bin", dst_, "/apps");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files_copied, 1u);
  EXPECT_TRUE(dst_.IsFile("/apps/one.bin"));
}

TEST_F(SyncEngineTest, MissingSourceFails) {
  auto stats = SyncTree(src_, "/ghost", dst_, "/out");
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(SyncEngineTest, NoCompressionCountsRawBytes) {
  FillSource();
  SyncOptions options;
  options.compress = false;
  auto stats = SyncTree(src_, "/tree", dst_, "/mirror", options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->bytes_transferred, stats->bytes_copied_raw);
}

}  // namespace
}  // namespace flux
