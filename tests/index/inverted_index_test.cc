#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include <map>

#include "index/analyzer.h"
#include "util/exec_context.h"
#include "util/rng.h"

namespace idm::index {
namespace {

TEST(AnalyzerTest, TokenizesLowercaseWithPositions) {
  auto tokens = Tokenize("The Quick, brown FOX!");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].term, "the");
  EXPECT_EQ(tokens[3].term, "fox");
  EXPECT_EQ(tokens[3].position, 3u);
}

TEST(AnalyzerTest, NumbersAndUnderscores) {
  auto tokens = Tokenize("VLDB2006 latex_section");
  ASSERT_EQ(tokens.size(), 3u);  // '_' separates
  EXPECT_EQ(tokens[0].term, "vldb2006");
}

TEST(AnalyzerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("... --- !!!").empty());
}

TEST(AnalyzerTest, LooksLikeText) {
  EXPECT_TRUE(LooksLikeText("plain old text\nwith lines"));
  EXPECT_TRUE(LooksLikeText(""));
  EXPECT_FALSE(LooksLikeText(std::string("\x00\x01\x02\x03", 4)));
  std::string mostly_binary;
  for (int i = 0; i < 256; ++i) mostly_binary += static_cast<char>(i % 32);
  EXPECT_FALSE(LooksLikeText(mostly_binary));
}

class InvertedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    index_.AddDocument(1, "the quick brown fox");
    index_.AddDocument(2, "the lazy dog sleeps");
    index_.AddDocument(3, "quick quick slow");
    index_.AddDocument(5, "Mike Franklin wrote about dataspaces");
  }
  InvertedIndex index_;
};

TEST_F(InvertedIndexTest, TermQuery) {
  EXPECT_EQ(index_.TermDocs("quick"), (std::vector<DocId>{1, 3}));
  EXPECT_EQ(index_.TermDocs("THE"), (std::vector<DocId>{1, 2}));
  EXPECT_TRUE(index_.TermDocs("missing").empty());
}

TEST_F(InvertedIndexTest, AndOrQueries) {
  EXPECT_EQ(index_.AndDocs({"the", "quick"}), (std::vector<DocId>{1}));
  EXPECT_TRUE(index_.AndDocs({"fox", "dog"}).empty());
  EXPECT_TRUE(index_.AndDocs({}).empty());
}

TEST_F(InvertedIndexTest, PhraseQueryRequiresAdjacency) {
  EXPECT_EQ(index_.PhraseDocs("quick brown"), (std::vector<DocId>{1}));
  EXPECT_EQ(index_.PhraseDocs("Mike Franklin"), (std::vector<DocId>{5}));
  EXPECT_TRUE(index_.PhraseDocs("brown quick").empty());
  EXPECT_TRUE(index_.PhraseDocs("the dog").empty());  // not adjacent
  EXPECT_EQ(index_.PhraseDocs("the lazy dog sleeps"), (std::vector<DocId>{2}));
}

TEST_F(InvertedIndexTest, PhraseNormalizesCaseAndPunctuation) {
  EXPECT_EQ(index_.PhraseDocs("MIKE, franklin!"), (std::vector<DocId>{5}));
}

TEST_F(InvertedIndexTest, SingleTermPhraseDegrades) {
  EXPECT_EQ(index_.PhraseDocs("quick"), (std::vector<DocId>{1, 3}));
  EXPECT_TRUE(index_.PhraseDocs("").empty());
}

TEST_F(InvertedIndexTest, RepeatedTermPhrase) {
  EXPECT_EQ(index_.PhraseDocs("quick quick"), (std::vector<DocId>{3}));
}

TEST_F(InvertedIndexTest, RemoveDocument) {
  index_.RemoveDocument(1);
  EXPECT_EQ(index_.TermDocs("quick"), (std::vector<DocId>{3}));
  EXPECT_TRUE(index_.TermDocs("fox").empty());
  EXPECT_EQ(index_.doc_count(), 3u);
  index_.RemoveDocument(99);  // no-op
  EXPECT_EQ(index_.doc_count(), 3u);
}

TEST_F(InvertedIndexTest, ReAddReplaces) {
  index_.AddDocument(1, "entirely new words");
  EXPECT_TRUE(index_.TermDocs("fox").empty());
  EXPECT_EQ(index_.TermDocs("entirely"), (std::vector<DocId>{1}));
}

TEST_F(InvertedIndexTest, OutOfOrderDocIdsStaySorted) {
  InvertedIndex index;
  index.AddDocument(9, "alpha");
  index.AddDocument(3, "alpha");
  index.AddDocument(6, "alpha");
  EXPECT_EQ(index.TermDocs("alpha"), (std::vector<DocId>{3, 6, 9}));
}

TEST_F(InvertedIndexTest, MemoryUsageGrowsWithContent) {
  size_t before = index_.MemoryUsage();
  index_.AddDocument(100, std::string("filler words here and more ") +
                              std::string(5000, 'x'));
  EXPECT_GT(index_.MemoryUsage(), before);
}

/// Ids whose text holds the space-separated \p words contiguously —
/// a scan of the texts that shares no code with the index.
std::vector<DocId> ScanPhrase(const std::map<DocId, std::string>& texts,
                              const std::string& words) {
  std::vector<DocId> out;
  for (const auto& [id, text] : texts) {
    if ((" " + text + " ").find(" " + words + " ") != std::string::npos) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(InvertedIndexBlocksTest, BlocksSurviveWrites) {
  // Four blocks per list, with id gaps for inserts below the last doc.
  InvertedIndex index;
  std::map<DocId, std::string> texts;
  auto add = [&](DocId id, const std::string& text) {
    index.AddDocument(id, text);
    texts[id] = text;
  };
  auto remove = [&](DocId id) {
    index.RemoveDocument(id);
    texts.erase(id);
  };
  for (DocId id = 0; id < 800; id += 2) {
    add(id, id % 3 == 0 ? "alpha beta alpha" : "beta alpha");
  }
  ASSERT_FALSE(index.PhraseDocs("alpha beta").empty());

  add(1001, "alpha beta");        // in-order append
  add(301, "beta alpha beta");    // insert below last_doc
  add(256, "alpha alpha beta");   // re-add
  remove(254);                    // remove
  remove(0);                      // remove a list's first
  remove(1001);                   // ... and its last

  // The blocks kept current by the writes answer like blocks built from
  // scratch over the final texts, and like a scan of those texts.
  InvertedIndex fresh;
  for (const auto& [id, text] : texts) fresh.AddDocument(id, text);
  for (const char* term : {"alpha", "beta"}) {
    EXPECT_EQ(index.TermDocs(term), ScanPhrase(texts, term)) << term;
    EXPECT_EQ(index.TermTfDocs(term), fresh.TermTfDocs(term)) << term;
  }
  for (const char* phrase : {"alpha beta", "beta alpha", "alpha alpha"}) {
    EXPECT_EQ(index.PhraseDocs(phrase), ScanPhrase(texts, phrase)) << phrase;
  }
}

TEST(InvertedIndexBlocksTest, OversizedBlocksSplitAndFullTailsSeal) {
  InvertedIndex index;
  std::map<DocId, std::string> texts;
  auto add = [&](DocId id, const std::string& text) {
    index.AddDocument(id, text);
    texts[id] = text;
  };
  // "omega" is in one doc above every other, so AND-ing it with "alpha"
  // skips exactly the "alpha" blocks below that doc.
  auto blocks_below_omega = [&] {
    const uint64_t before = index.block_stats().skipped_blocks;
    EXPECT_EQ(index.AndDocs({"omega", "alpha"}).size(), 1u);
    return index.block_stats().skipped_blocks - before;
  };
  for (DocId id = 0; id < 3 * 128; id += 3) add(id, "alpha beta");
  add(1000, "alpha omega");
  EXPECT_EQ(blocks_below_omega(), 1u);

  // Filling the first block's gaps grows it past 2 * 128 postings at the
  // 257th, where it splits in two; later inserts land in either half.
  for (DocId id = 1; id < 3 * 128; id += 3) add(id, "alpha beta alpha");
  for (DocId id = 2; id < 3 * 128; id += 3) add(id, "beta alpha");
  EXPECT_EQ(blocks_below_omega(), 2u);

  // Removing the top doc erases its block and leaves a full bitset block
  // as the tail, which an append seals rather than extends.
  index.RemoveDocument(1000);
  texts.erase(1000);
  add(2000, "alpha omega");
  EXPECT_EQ(blocks_below_omega(), 2u);

  InvertedIndex fresh;
  for (const auto& [id, text] : texts) fresh.AddDocument(id, text);
  for (const char* term : {"alpha", "beta", "omega"}) {
    EXPECT_EQ(index.TermDocs(term), ScanPhrase(texts, term)) << term;
    EXPECT_EQ(index.TermTfDocs(term), fresh.TermTfDocs(term)) << term;
  }
  for (const char* phrase : {"alpha beta", "beta alpha", "alpha omega"}) {
    EXPECT_EQ(index.PhraseDocs(phrase), ScanPhrase(texts, phrase)) << phrase;
  }
}

TEST(InvertedIndexBlocksTest, ChurnAtTheTailKeepsBlocksFull) {
  // Writes that keep hitting a list's newest docs, like a sync loop that
  // creates, overwrites and removes recent notes, leave no small blocks
  // behind: only full blocks are sealed, so N appends make at most
  // ceil(N / 128) + 1 blocks.
  InvertedIndex index;
  std::map<DocId, std::string> texts;
  size_t appends = 0;
  auto add = [&](DocId id, const std::string& text) {
    index.AddDocument(id, text);
    texts[id] = text;
    ++appends;
  };
  auto remove = [&](DocId id) {
    index.RemoveDocument(id);
    texts.erase(id);
  };
  // Block structs are what CompressedPostingsBytes() adds to the payload.
  auto blocks = [&] {
    return (index.CompressedPostingsBytes() -
            index.block_stats().block_bytes) /
           sizeof(PostingBlock);
  };
  auto bound = [&] { return (appends + 127) / 128 + 1; };

  // Create each doc, then overwrite it: ids close enough for a bitset.
  DocId next = 0;
  for (int i = 0; i < 600; ++i, ++next) {
    add(next, "needle");
    add(next, "needle needle");
  }
  EXPECT_LE(blocks(), bound());

  // Mixed: appends, and removes or overwrites of a recent doc.
  Rng rng(3);
  for (int step = 0; step < 3000; ++step) {
    add(next++, "needle");
    const DocId recent = texts.rbegin()->first - rng.Uniform(4);
    if (texts.count(recent) == 0) continue;
    switch (rng.Uniform(3)) {
      case 0: remove(recent); break;
      case 1: add(recent, "needle needle needle"); break;
      default: break;
    }
  }
  EXPECT_LE(blocks(), bound());

  InvertedIndex fresh;
  for (const auto& [id, text] : texts) fresh.AddDocument(id, text);
  EXPECT_EQ(index.TermDocs("needle"), fresh.TermDocs("needle"));
  EXPECT_EQ(index.TermTfDocs("needle"), fresh.TermTfDocs("needle"));
  EXPECT_EQ(index.PhraseDocs("needle needle"),
            ScanPhrase(texts, "needle needle"));
  const std::string image = index.Serialize();
  auto restored = InvertedIndex::Deserialize(image);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->Serialize(), image);
}

TEST(InvertedIndexBlocksTest, GovernedReadsChargePerBlock) {
  InvertedIndex index;
  for (DocId id = 0; id < 1000; ++id) index.AddDocument(id, "needle");
  const std::vector<DocId> all = index.TermDocs("needle");
  ASSERT_EQ(all.size(), 1000u);

  // Blocks of 128 postings, each charged before its ids are used: the
  // third block's charge (256 + 128 > 300) dooms the read, so it returns
  // the first two blocks — a prefix of the answer.
  util::ExecContext::Limits limits;
  limits.max_steps = 300;
  util::ExecContext governed(nullptr, limits);
  EXPECT_EQ(index.TermDocs("needle", &governed),
            std::vector<DocId>(all.begin(), all.begin() + 256));
  EXPECT_TRUE(governed.doomed());
  EXPECT_EQ(governed.steps_used(), 384u);

  util::ExecContext unlimited(nullptr, util::ExecContext::Limits());
  EXPECT_EQ(index.TermDocs("needle", &unlimited), all);
  EXPECT_FALSE(unlimited.doomed());
  EXPECT_EQ(unlimited.steps_used(), 1000u);
}

TEST(InvertedIndexBlocksTest, GovernedPhraseVerificationCharges) {
  InvertedIndex index;
  for (DocId id = 0; id < 1000; ++id) index.AddDocument(id, "needle thread");
  const std::vector<DocId> all = index.PhraseDocs("needle thread");
  ASSERT_EQ(all.size(), 1000u);

  // AndDocs charges the 1000 postings of each list's blocks; verification
  // then walks one record per term per candidate, so a budget of 3000
  // steps verifies 500 candidates and dooms the read at the 501st.
  util::ExecContext::Limits limits;
  limits.max_steps = 3000;
  util::ExecContext governed(nullptr, limits);
  EXPECT_EQ(index.PhraseDocs("needle thread", &governed),
            std::vector<DocId>(all.begin(), all.begin() + 500));
  EXPECT_TRUE(governed.doomed());
}

TEST(InvertedIndexBlocksTest, CancelledPhraseReadChargesNothing) {
  InvertedIndex index;
  for (DocId id = 0; id < 1000; ++id) index.AddDocument(id, "needle thread");
  util::ExecContext cancelled(nullptr, util::ExecContext::Limits());
  cancelled.Cancel(Status::Cancelled("cancelled before the read"));
  EXPECT_TRUE(index.PhraseDocs("needle thread", &cancelled).empty());
  EXPECT_EQ(cancelled.steps_used(), 0u);
}

TEST(InvertedIndexPropertyTest, MatchesNaiveScanOnRandomCorpus) {
  // Property: index results == naive substring-of-token-sequence scan.
  Rng rng(1234);
  const char* kWords[] = {"red", "green", "blue", "fox", "dog", "idm"};
  std::vector<std::string> docs;
  InvertedIndex index;
  for (DocId id = 0; id < 60; ++id) {
    std::string doc;
    size_t n = 3 + rng.Uniform(12);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) doc += ' ';
      doc += kWords[rng.Uniform(std::size(kWords))];
    }
    docs.push_back(doc);
    index.AddDocument(id, doc);
  }
  for (int trial = 0; trial < 40; ++trial) {
    std::string phrase = std::string(kWords[rng.Uniform(std::size(kWords))]) +
                         " " + kWords[rng.Uniform(std::size(kWords))];
    std::vector<DocId> expected;
    for (DocId id = 0; id < docs.size(); ++id) {
      std::string padded = " " + docs[id] + " ";
      if (padded.find(" " + phrase + " ") != std::string::npos) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(index.PhraseDocs(phrase), expected) << phrase;
  }
}

}  // namespace
}  // namespace idm::index
