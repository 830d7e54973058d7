#include "index/inverted_index.h"

#include <gtest/gtest.h>

#include "index/analyzer.h"
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
  EXPECT_EQ(index_.TermQuery("quick"), (std::vector<DocId>{1, 3}));
  EXPECT_EQ(index_.TermQuery("THE"), (std::vector<DocId>{1, 2}));
  EXPECT_TRUE(index_.TermQuery("missing").empty());
}

TEST_F(InvertedIndexTest, AndOrQueries) {
  EXPECT_EQ(index_.AndQuery({"the", "quick"}), (std::vector<DocId>{1}));
  EXPECT_EQ(index_.OrQuery({"fox", "dog"}), (std::vector<DocId>{1, 2}));
  EXPECT_TRUE(index_.AndQuery({"fox", "dog"}).empty());
  EXPECT_TRUE(index_.AndQuery({}).empty());
}

TEST_F(InvertedIndexTest, PhraseQueryRequiresAdjacency) {
  EXPECT_EQ(index_.PhraseQuery("quick brown"), (std::vector<DocId>{1}));
  EXPECT_EQ(index_.PhraseQuery("Mike Franklin"), (std::vector<DocId>{5}));
  EXPECT_TRUE(index_.PhraseQuery("brown quick").empty());
  EXPECT_TRUE(index_.PhraseQuery("the dog").empty());  // not adjacent
  EXPECT_EQ(index_.PhraseQuery("the lazy dog sleeps"), (std::vector<DocId>{2}));
}

TEST_F(InvertedIndexTest, PhraseNormalizesCaseAndPunctuation) {
  EXPECT_EQ(index_.PhraseQuery("MIKE, franklin!"), (std::vector<DocId>{5}));
}

TEST_F(InvertedIndexTest, SingleTermPhraseDegrades) {
  EXPECT_EQ(index_.PhraseQuery("quick"), (std::vector<DocId>{1, 3}));
  EXPECT_TRUE(index_.PhraseQuery("").empty());
}

TEST_F(InvertedIndexTest, RepeatedTermPhrase) {
  EXPECT_EQ(index_.PhraseQuery("quick quick"), (std::vector<DocId>{3}));
}

TEST_F(InvertedIndexTest, RemoveDocument) {
  index_.RemoveDocument(1);
  EXPECT_EQ(index_.TermQuery("quick"), (std::vector<DocId>{3}));
  EXPECT_TRUE(index_.TermQuery("fox").empty());
  EXPECT_EQ(index_.doc_count(), 3u);
  index_.RemoveDocument(99);  // no-op
  EXPECT_EQ(index_.doc_count(), 3u);
}

TEST_F(InvertedIndexTest, ReAddReplaces) {
  index_.AddDocument(1, "entirely new words");
  EXPECT_TRUE(index_.TermQuery("fox").empty());
  EXPECT_EQ(index_.TermQuery("entirely"), (std::vector<DocId>{1}));
}

TEST_F(InvertedIndexTest, OutOfOrderDocIdsStaySorted) {
  InvertedIndex index;
  index.AddDocument(9, "alpha");
  index.AddDocument(3, "alpha");
  index.AddDocument(6, "alpha");
  EXPECT_EQ(index.TermQuery("alpha"), (std::vector<DocId>{3, 6, 9}));
}

TEST_F(InvertedIndexTest, MemoryUsageGrowsWithContent) {
  size_t before = index_.MemoryUsage();
  index_.AddDocument(100, std::string("filler words here and more ") +
                              std::string(5000, 'x'));
  EXPECT_GT(index_.MemoryUsage(), before);
}

TEST(InvertedIndexBlocksTest, BlocksSurviveWrites) {
  // Four blocks per list, with id gaps for inserts below the last doc.
  InvertedIndex index;
  for (DocId id = 0; id < 800; id += 2) {
    index.AddDocument(id, id % 3 == 0 ? "alpha beta alpha" : "beta alpha");
  }
  // Builds both lists' block indexes.
  ASSERT_FALSE(index.PhraseDocs("alpha beta").empty());
  const uint64_t built = index.block_stats().built_lists;

  index.AddDocument(1001, "alpha beta");        // in-order append
  index.AddDocument(301, "beta alpha beta");    // insert below last_doc
  index.AddDocument(256, "alpha alpha beta");   // re-add
  index.RemoveDocument(254);                    // remove
  index.RemoveDocument(0);                      // remove a list's first
  index.RemoveDocument(1001);                   // ... and its last

  EXPECT_EQ(index.block_stats().built_lists, built);
  for (const char* term : {"alpha", "beta"}) {
    EXPECT_EQ(index.TermDocs(term), index.TermQuery(term)) << term;
    EXPECT_EQ(index.TermTfDocs(term), index.TermQueryWithTf(term)) << term;
  }
  for (const char* phrase : {"alpha beta", "beta alpha", "alpha alpha"}) {
    EXPECT_EQ(index.PhraseDocs(phrase), index.PhraseQuery(phrase)) << phrase;
  }
  EXPECT_EQ(index.block_stats().built_lists, built);
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
    EXPECT_EQ(index.PhraseQuery(phrase), expected) << phrase;
  }
}

}  // namespace
}  // namespace idm::index
