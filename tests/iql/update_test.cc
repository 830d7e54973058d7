// iQL update support (§5.1: "iQL will include features important for a
// PDSMS, such as support for updates"): delete <query> writes through to
// the data sources and repairs every index.

#include <gtest/gtest.h>

#include "iql/dataspace.h"

namespace idm::iql {
namespace {

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::make_unique<Dataspace>();
    fs_ = std::make_shared<vfs::VirtualFileSystem>(ds_->clock());
    ASSERT_TRUE(fs_->CreateFolder("/work").ok());
    ASSERT_TRUE(fs_->WriteFile("/work/keep.txt", "keep me around").ok());
    ASSERT_TRUE(fs_->WriteFile("/work/old1.tmp", "obsolete scratch one").ok());
    ASSERT_TRUE(fs_->WriteFile("/work/old2.tmp", "obsolete scratch two").ok());
    ASSERT_TRUE(fs_->WriteFile("/work/notes.tex",
                               "\\section{Scratch}obsolete but structured")
                    .ok());
    imap_ = std::make_shared<email::ImapServer>(ds_->clock());
    email::Message m;
    m.from = "spam@example.com";
    m.subject = "obsolete offer";
    m.date = ds_->clock()->NowMicros();
    m.body = "buy obsolete things";
    ASSERT_TRUE(imap_->Append("INBOX", std::move(m)).ok());
    ASSERT_TRUE(ds_->AddFileSystem("Filesystem", fs_).ok());
    ASSERT_TRUE(ds_->AddImap("Email", imap_).ok());
  }

  std::unique_ptr<Dataspace> ds_;
  std::shared_ptr<vfs::VirtualFileSystem> fs_;
  std::shared_ptr<email::ImapServer> imap_;
};

TEST_F(UpdateTest, DeleteByNamePatternWritesThrough) {
  auto result = ds_->ExecuteUpdate("delete //work//*.tmp");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->deleted, 2u);
  EXPECT_EQ(result->failed, 0u);
  // Write-through: the files are gone from the source itself.
  EXPECT_FALSE(fs_->Exists("/work/old1.tmp"));
  EXPECT_FALSE(fs_->Exists("/work/old2.tmp"));
  EXPECT_TRUE(fs_->Exists("/work/keep.txt"));
  // And from every index.
  EXPECT_EQ(ds_->Query("//*.tmp")->size(), 0u);
  EXPECT_TRUE(ds_->module().content().PhraseDocs("obsolete scratch").empty());
}

TEST_F(UpdateTest, DeleteDropsDerivedViewsWithTheirBase) {
  size_t before = ds_->module().catalog().live_count();
  auto result = ds_->ExecuteUpdate("delete //work/notes.tex");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->deleted, 1u);
  EXPECT_GT(result->views_removed, 1u);  // the file + its latex subgraph
  EXPECT_EQ(ds_->module().catalog().live_count(),
            before - result->views_removed);
  EXPECT_EQ(ds_->Query("//Scratch")->size(), 0u);
}

TEST_F(UpdateTest, DeleteSkipsDerivedMatches) {
  // Sections have no independent existence; deleting them is a no-op that
  // is reported, not an error.
  auto result =
      ds_->ExecuteUpdate("delete //Scratch[class=\"latex_section\"]");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->deleted, 0u);
  EXPECT_EQ(result->skipped_derived, 1u);
  EXPECT_TRUE(fs_->Exists("/work/notes.tex"));
}

TEST_F(UpdateTest, DeleteEmailMessages) {
  ASSERT_EQ(imap_->MessageCount(), 1u);
  auto result = ds_->ExecuteUpdate(
      "delete //*[class=\"emailmessage\" and \"buy obsolete things\"]");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->deleted, 1u);
  EXPECT_EQ(imap_->MessageCount(), 0u);
  EXPECT_EQ(ds_->Query("\"buy obsolete things\"")->size(), 0u);
}

TEST_F(UpdateTest, DeleteAdvancesTheDataspaceVersion) {
  index::Version before = ds_->module().versions().current();
  ASSERT_TRUE(ds_->ExecuteUpdate("delete //work//*.tmp").ok());
  EXPECT_GT(ds_->module().versions().current(), before);
  auto diff = ds_->module().versions().DiffBetween(
      before, ds_->module().versions().current());
  EXPECT_EQ(diff.removed.size(), 2u);
}

TEST_F(UpdateTest, MalformedStatementsRejected) {
  EXPECT_EQ(ds_->ExecuteUpdate("drop table x").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ds_->ExecuteUpdate("delete ").status().code(),
            StatusCode::kParseError);
  EXPECT_FALSE(ds_->ExecuteUpdate("delete //a[").ok());
  EXPECT_EQ(ds_->ExecuteUpdate(
                   "delete join(//a as A, //b as B, A.name=B.name)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(UpdateTest, DeleteNothingIsOk) {
  auto result = ds_->ExecuteUpdate("delete //nonexistent-name-xyz");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->deleted, 0u);
}

TEST_F(UpdateTest, QueriesStillWorkAfterUpdates) {
  ASSERT_TRUE(ds_->ExecuteUpdate("delete //work//*.tmp").ok());
  ASSERT_TRUE(fs_->WriteFile("/work/replacement.txt", "fresh scratch").ok());
  ASSERT_TRUE(ds_->sync().ProcessNotifications().ok());
  EXPECT_EQ(ds_->Query("\"fresh scratch\"")->size(), 1u);
  EXPECT_EQ(ds_->Query("\"keep me around\"")->size(), 1u);
}

}  // namespace
}  // namespace idm::iql
