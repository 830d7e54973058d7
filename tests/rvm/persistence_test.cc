// PDSMS metadata persistence: export the catalog + version log, restart
// into a fresh module, re-register the sources, and verify ids and history
// survive (the Derby-style durable state of the paper's prototype).

#include <gtest/gtest.h>

#include "rvm/rvm.h"

namespace idm::rvm {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>();
    fs_ = std::make_shared<vfs::VirtualFileSystem>(clock_.get());
    ASSERT_TRUE(fs_->CreateFolder("/d").ok());
    ASSERT_TRUE(fs_->WriteFile("/d/a.txt", "alpha content").ok());
    ASSERT_TRUE(fs_->WriteFile("/d/b.tex",
                               "\\section{S}database tuning").ok());
  }

  std::shared_ptr<SimClock> clock_;
  std::shared_ptr<vfs::VirtualFileSystem> fs_;
};

TEST_F(PersistenceTest, ExportImportRoundTrip) {
  ReplicaIndexesModule module;
  module.SetClock(clock_.get());
  FileSystemSource source("Filesystem", fs_);
  ASSERT_TRUE(module.IndexSource(source, ConverterRegistry::Standard()).ok());
  auto a_id = module.catalog().Find("vfs:/d/a.txt");
  ASSERT_TRUE(a_id.has_value());
  index::Version version = module.versions().current();

  std::string image = module.ExportMetadata();

  ReplicaIndexesModule restored;
  ASSERT_TRUE(restored.ImportMetadata(image).ok());
  // Ids and history survive the restart.
  EXPECT_EQ(restored.catalog().Find("vfs:/d/a.txt"), a_id);
  EXPECT_EQ(restored.catalog().live_count(), module.catalog().live_count());
  EXPECT_EQ(restored.versions().current(), version);
  // Indexes are not part of the image...
  EXPECT_TRUE(restored.content().PhraseDocs("database tuning").empty());

  // ...but a re-sync rebuilds them against the *same* ids.
  FileSystemSource again("Filesystem", fs_);
  auto stats = restored.SyncSource(again, ConverterRegistry::Standard());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->added, 0u);  // nothing new: catalog already knew it all
  EXPECT_EQ(restored.catalog().Find("vfs:/d/a.txt"), a_id);
  EXPECT_FALSE(restored.content().PhraseDocs("database tuning").empty());
}

TEST_F(PersistenceTest, ImportRejectsGarbage) {
  ReplicaIndexesModule module;
  EXPECT_EQ(module.ImportMetadata("junk").code(), StatusCode::kParseError);
  EXPECT_EQ(module.ImportMetadata("").code(), StatusCode::kParseError);
  ReplicaIndexesModule donor;
  std::string image = donor.ExportMetadata();
  image += "trailing";
  EXPECT_EQ(module.ImportMetadata(image).code(), StatusCode::kParseError);
}

TEST_F(PersistenceTest, ChangesAfterRestartExtendTheSameHistory) {
  ReplicaIndexesModule module;
  module.SetClock(clock_.get());
  FileSystemSource source("Filesystem", fs_);
  ASSERT_TRUE(module.IndexSource(source, ConverterRegistry::Standard()).ok());
  index::Version before = module.versions().current();

  ReplicaIndexesModule restored;
  ASSERT_TRUE(restored.ImportMetadata(module.ExportMetadata()).ok());
  ASSERT_TRUE(fs_->WriteFile("/d/post-restart.txt", "new after restart").ok());
  FileSystemSource again("Filesystem", fs_);
  ASSERT_TRUE(restored.SyncSource(again, ConverterRegistry::Standard()).ok());
  EXPECT_GT(restored.versions().current(), before);
  auto diff = restored.versions().DiffBetween(before,
                                              restored.versions().current());
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(restored.catalog().Entry(diff.added[0])->uri,
            "vfs:/d/post-restart.txt");
}

}  // namespace
}  // namespace idm::rvm
