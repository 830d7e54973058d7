// Integration tests of the Replica&Indexes module and the Synchronization
// Manager over real substrates.

#include "rvm/rvm.h"

#include <gtest/gtest.h>

namespace idm::rvm {
namespace {

class RvmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_ = std::make_shared<SimClock>();
    fs_ = std::make_shared<vfs::VirtualFileSystem>(clock_.get());
    ASSERT_TRUE(fs_->CreateFolder("/Projects/PIM").ok());
    ASSERT_TRUE(fs_->WriteFile("/Projects/PIM/paper.tex",
                               "\\documentclass{article}\\begin{document}"
                               "\\section{Introduction}Mike Franklin here."
                               "\\end{document}")
                    .ok());
    ASSERT_TRUE(fs_->WriteFile("/Projects/PIM/notes.txt",
                               "database tuning notes").ok());
    std::string binary(10000, '\0');
    for (size_t i = 0; i < binary.size(); ++i) {
      binary[i] = static_cast<char>(i * 7 % 29);
    }
    binary += "garbage";
    ASSERT_TRUE(fs_->WriteFile("/Projects/binary.jpg", binary).ok());

    imap_ = std::make_shared<email::ImapServer>(clock_.get());
    email::Message m;
    m.from = "jens@ethz.ch";
    m.subject = "OLAP figures";
    m.date = clock_->NowMicros();
    m.body = "see the Indexing Time attachment";
    m.attachments.push_back(
        {"olap.tex", "application/x-tex",
         "\\begin{figure}\\caption{Indexing Time}\\end{figure}"});
    ASSERT_TRUE(imap_->Append("INBOX", std::move(m)).ok());
  }

  std::shared_ptr<SimClock> clock_;
  std::shared_ptr<vfs::VirtualFileSystem> fs_;
  std::shared_ptr<email::ImapServer> imap_;
  ReplicaIndexesModule module_;
};

TEST_F(RvmTest, IndexSourceRegistersEverything) {
  FileSystemSource source("Filesystem", fs_);
  auto stats = module_.IndexSource(source, ConverterRegistry::Standard());
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Base items: /, Projects, PIM, paper.tex, notes.txt, binary.jpg.
  EXPECT_EQ(stats->views_base, 6u);
  EXPECT_GT(stats->views_derived_latex, 0u);
  EXPECT_EQ(stats->views_derived_xml, 0u);
  EXPECT_EQ(stats->views_total, module_.catalog().live_count());
  EXPECT_EQ(stats->source_name, "Filesystem");
  EXPECT_EQ(stats->source_bytes, fs_->TotalContentBytes());
}

TEST_F(RvmTest, ContentIndexFindsPhrasesInDerivedViews) {
  FileSystemSource source("Filesystem", fs_);
  ASSERT_TRUE(module_.IndexSource(source, ConverterRegistry::Standard()).ok());
  // The phrase lives in the Introduction *section* view (derived), and in
  // the raw .tex file content.
  auto ids = module_.content().PhraseDocs("Mike Franklin");
  ASSERT_GE(ids.size(), 2u);
  bool found_section = false;
  for (auto id : ids) {
    if (module_.catalog().Entry(id)->class_name == "latex_section") {
      found_section = true;
    }
  }
  EXPECT_TRUE(found_section);
}

TEST_F(RvmTest, BinaryContentExcludedFromNetInput) {
  FileSystemSource source("Filesystem", fs_);
  auto stats = module_.IndexSource(source, ConverterRegistry::Standard());
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->net_input_bytes, fs_->TotalContentBytes());
  // The jpg is registered in the catalog but absent from the content index.
  auto id = module_.catalog().Find("vfs:/Projects/binary.jpg");
  ASSERT_TRUE(id.has_value());
  EXPECT_TRUE(module_.content().PhraseDocs("garbage").empty());
}

TEST_F(RvmTest, GroupReplicaMirrorsHierarchy) {
  FileSystemSource source("Filesystem", fs_);
  ASSERT_TRUE(module_.IndexSource(source, ConverterRegistry::Standard()).ok());
  auto root = module_.catalog().Find("vfs:/");
  auto projects = module_.catalog().Find("vfs:/Projects");
  auto pim = module_.catalog().Find("vfs:/Projects/PIM");
  ASSERT_TRUE(root && projects && pim);
  EXPECT_EQ(module_.groups().Children(*root).size(), 1u);     // Projects
  EXPECT_EQ(module_.groups().Children(*projects).size(), 2u); // PIM, binary.jpg
  auto desc = module_.groups().Descendants({*projects});
  EXPECT_TRUE(desc.count(*pim) > 0);
}

TEST_F(RvmTest, PhaseTimesArePopulated) {
  ImapSource source("Email / IMAP", imap_);
  auto stats = module_.IndexSource(source, ConverterRegistry::Standard());
  ASSERT_TRUE(stats.ok());
  // The simulated IMAP latency dominates (paper Fig. 5's email bar).
  EXPECT_GT(stats->times.data_source_access, 0);
  EXPECT_GT(stats->times.data_source_access, stats->times.catalog_insert);
  EXPECT_GT(stats->times.total(), 0);
}

TEST_F(RvmTest, EmailAttachmentsConverted) {
  ImapSource source("Email / IMAP", imap_);
  auto stats = module_.IndexSource(source, ConverterRegistry::Standard());
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->views_derived_latex, 0u);
  // Q2's figure is findable.
  auto ids = module_.content().PhraseDocs("Indexing Time");
  EXPECT_FALSE(ids.empty());
}

TEST_F(RvmTest, SizesAccountAllStructures) {
  FileSystemSource source("Filesystem", fs_);
  ASSERT_TRUE(module_.IndexSource(source, ConverterRegistry::Standard()).ok());
  IndexSizes sizes = module_.Sizes();
  EXPECT_GT(sizes.name_bytes, 0u);
  EXPECT_GT(sizes.tuple_bytes, 0u);
  EXPECT_GT(sizes.content_bytes, 0u);
  EXPECT_GT(sizes.group_bytes, 0u);
  EXPECT_GT(sizes.catalog_bytes, 0u);
  EXPECT_EQ(sizes.total(), sizes.name_bytes + sizes.tuple_bytes +
                               sizes.content_bytes + sizes.group_bytes +
                               sizes.catalog_bytes);
}

TEST_F(RvmTest, LazyIndexingSkipsConversion) {
  FileSystemSource source("Filesystem", fs_);
  IndexingOptions options;
  options.apply_converters = false;
  auto stats = module_.IndexSource(source, ConverterRegistry::Standard(), options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->views_derived_latex, 0u);
  EXPECT_EQ(stats->views_total, stats->views_base);
}

TEST_F(RvmTest, RemoveSubtreeDropsDerivedViews) {
  FileSystemSource source("Filesystem", fs_);
  ASSERT_TRUE(module_.IndexSource(source, ConverterRegistry::Standard()).ok());
  size_t before = module_.catalog().live_count();
  SyncStats removed =
      module_.RemoveSubtree("vfs:/Projects/PIM/paper.tex").value();
  EXPECT_GT(removed.removed, 1u);  // the file + its latex subgraph
  EXPECT_EQ(module_.catalog().live_count(), before - removed.removed);
  EXPECT_FALSE(module_.catalog().Find("vfs:/Projects/PIM/paper.tex").has_value());
  EXPECT_TRUE(module_.content().PhraseDocs("Mike Franklin").empty());
}

class SyncTest : public RvmTest {};

TEST_F(SyncTest, InitialRegistrationIndexes) {
  SynchronizationManager sync(&module_, ConverterRegistry::Standard());
  auto stats = sync.RegisterSource(
      std::make_shared<FileSystemSource>("Filesystem", fs_));
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(module_.catalog().live_count(), 0u);
  EXPECT_NE(sync.FindSource("Filesystem"), nullptr);
  EXPECT_EQ(sync.FindSource("nope"), nullptr);
}

TEST_F(SyncTest, NotificationsDriveIncrementalIndexing) {
  SynchronizationManager sync(&module_, ConverterRegistry::Standard());
  ASSERT_TRUE(
      sync.RegisterSource(std::make_shared<FileSystemSource>("Filesystem", fs_))
          .ok());
  EXPECT_EQ(sync.pending_notifications(), 0u);

  ASSERT_TRUE(fs_->WriteFile("/Projects/new.txt", "fresh dataspace entry").ok());
  EXPECT_EQ(sync.pending_notifications(), 1u);
  auto stats = sync.ProcessNotifications();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->added, 1u);
  EXPECT_TRUE(module_.catalog().Find("vfs:/Projects/new.txt").has_value());
  auto hits = module_.content().PhraseDocs("fresh dataspace entry");
  EXPECT_EQ(hits.size(), 1u);
}

TEST_F(SyncTest, RemovalNotificationsCleanIndexes) {
  SynchronizationManager sync(&module_, ConverterRegistry::Standard());
  ASSERT_TRUE(
      sync.RegisterSource(std::make_shared<FileSystemSource>("Filesystem", fs_))
          .ok());
  ASSERT_TRUE(fs_->Remove("/Projects/PIM/notes.txt").ok());
  auto stats = sync.ProcessNotifications();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->removed, 1u);
  EXPECT_TRUE(module_.content().PhraseDocs("database tuning").empty());
}

TEST_F(SyncTest, PollRepairsBypassedChanges) {
  SynchronizationManager sync(&module_, ConverterRegistry::Standard());
  auto source = std::make_shared<FileSystemSource>("Filesystem", fs_);
  // Note: we register WITHOUT notifications by mutating after clearing...
  ASSERT_TRUE(sync.RegisterSource(source).ok());
  // Simulate "updates done bypassing the RVM layer": mutate, drop the
  // queued notifications, then poll.
  ASSERT_TRUE(fs_->WriteFile("/Projects/polled.txt", "found by polling").ok());
  ASSERT_TRUE(fs_->Remove("/Projects/PIM/notes.txt").ok());
  auto stats = sync.Poll();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->added, 1u);
  EXPECT_GE(stats->removed, 1u);
  EXPECT_TRUE(module_.catalog().Find("vfs:/Projects/polled.txt").has_value());
  EXPECT_FALSE(module_.catalog().Find("vfs:/Projects/PIM/notes.txt").has_value());
  EXPECT_EQ(sync.pending_notifications(), 0u);
}

TEST_F(SyncTest, PollDetectsModifications) {
  SynchronizationManager sync(&module_, ConverterRegistry::Standard());
  ASSERT_TRUE(
      sync.RegisterSource(std::make_shared<FileSystemSource>("Filesystem", fs_))
          .ok());
  clock_->AdvanceSeconds(60);
  ASSERT_TRUE(fs_->WriteFile("/Projects/PIM/notes.txt",
                             "completely different words").ok());
  auto stats = sync.Poll();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->updated, 1u);
  EXPECT_TRUE(module_.content().PhraseDocs("database tuning").empty());
  EXPECT_FALSE(module_.content().PhraseDocs("completely different words").empty());
}

}  // namespace
}  // namespace idm::rvm
