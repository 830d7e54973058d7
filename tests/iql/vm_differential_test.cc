// Differential tests for the query engine (DESIGN.md §16).
//
// Contract under test: the bytecode VM answers every query exactly like
// the index-free reference evaluator (reference_evaluator.h) — columns,
// rows (order included) and tf-idf scores (bitwise) — at thread counts
// 1/2/4/8, over the Table 4 analog catalog, extra operator shapes and a
// seeded random query generator over the workload vocabulary (the fuzz
// corpus). Governed runs must keep §10's contract: a complete result is
// the ungoverned one, an incomplete one a prefix of it (empty for ranked
// and join queries), and both are deterministic. The §14 per-view
// membership path (MatchesDoc) must agree with the reference too.
//
// The suite also pins the Prepare/Explain handle API: golden Explain()
// listings for the Table 4 shapes, plan-keyed result-cache sharing across
// reordered conjuncts (the §16 cache-key fix), and the PreparedQuery
// lifecycle.

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "iql/dataspace.h"
#include "iql/parser.h"
#include "iql/plan.h"
#include "iql/prepared_query.h"
#include "iql/query_processor.h"
#include "reference_evaluator.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace idm::iql {
namespace {

/// The Table 4 analog queries (same strings as bench/harness.cc and
/// loadgen's QueryCatalog).
const std::vector<std::string>& Table4Queries() {
  static const std::vector<std::string> kQueries = {
      "\"database\"",
      "\"database tuning\"",
      "[size > 420000 and lastmodified < @12.06.2005]",
      "//papers//*Vision/*[\"Franklin\"]",
      "//VLDB200?//?onclusion*/*[\"systems\"]",
      "union( //VLDB2005//*[\"documents\"], //VLDB2006//*[\"documents\"])",
      "join( //VLDB2006//*[class=\"texref\"] as A, "
      "//VLDB2006//*[class=\"environment\"]//figure* as B, "
      "A.name=B.tuple.label)",
      "join ( //*[class = \"emailmessage\"]//*.tex as A, "
      "//papers//*.tex as B, A.name = B.name )",
  };
  return kQueries;
}

/// Extra shapes that reach operators the Table 4 mix misses.
const std::vector<std::string>& ExtraQueries() {
  static const std::vector<std::string> kQueries = {
      "\"systems\"",
      "//papers//*.tex",
      "//*[class=\"latex_section\"]",
      "[size > 1000 and size < 40000]",
      "//*[name=\"*.tex\" and not \"Franklin\"]",
      "//*[\"database\" or \"systems\"]",
      "//*[\"database\" and \"tuning\" and \"systems\"]",
      "intersect(\"database\", \"systems\")",
      "except(\"database\", \"tuning\")",
      "intersect(//papers//*, union(\"database\", \"systems\"))",
      "//INBOX//*",
  };
  return kQueries;
}

// --- seeded random query generator (the fuzz grammar) ----------------------
// Vocabulary drawn from the workload generator's corpus so predicates hit
// real postings, names, classes, and attributes.

std::string RandomWord(Rng* rng) {
  static const char* kWords[] = {"database", "systems",   "tuning",
                                 "indexing", "documents", "Franklin",
                                 "vision",   "query",     "processing"};
  return kWords[rng->Uniform(sizeof(kWords) / sizeof(kWords[0]))];
}

std::string RandomPhrase(Rng* rng) {
  std::string out = RandomWord(rng);
  if (rng->Uniform(3) == 0) out += " " + RandomWord(rng);
  return "\"" + out + "\"";
}

std::string RandomName(Rng* rng) {
  static const char* kNames[] = {"*",         "papers",   "*.tex",
                                 "VLDB200?",  "figure*",  "INBOX",
                                 "*Vision",   "?onclusion*"};
  return kNames[rng->Uniform(sizeof(kNames) / sizeof(kNames[0]))];
}

std::string RandomClass(Rng* rng) {
  static const char* kClasses[] = {"latex_section", "emailmessage", "texref",
                                   "environment", "file"};
  return kClasses[rng->Uniform(sizeof(kClasses) / sizeof(kClasses[0]))];
}

std::string RandomPred(Rng* rng, int depth) {
  switch (rng->Uniform(depth >= 2 ? 5 : 7)) {
    case 0:
      return RandomPhrase(rng);
    case 1:
      return "size > " + std::to_string(100 + rng->Uniform(50000));
    case 2:
      return "class=\"" + RandomClass(rng) + "\"";
    case 3:
      return "name=\"" + RandomName(rng) + "\"";
    case 4:
      return "lastmodified < @12.06.2005";
    case 5: {
      const char* op = rng->Uniform(2) == 0 ? " and " : " or ";
      std::string out = RandomPred(rng, depth + 1);
      size_t n = 1 + rng->Uniform(2);
      for (size_t i = 0; i < n; ++i) out += op + RandomPred(rng, depth + 1);
      return out;
    }
    default:
      return "not " + RandomPred(rng, depth + 1);
  }
}

std::string RandomPath(Rng* rng) {
  std::string out;
  size_t steps = 1 + rng->Uniform(3);
  for (size_t i = 0; i < steps; ++i) {
    out += (i == 0 || rng->Uniform(2) == 0) ? "//" : "/";
    out += RandomName(rng);
    if (rng->Uniform(3) == 0) out += "[" + RandomPred(rng, 1) + "]";
  }
  return out;
}

std::string RandomQuery(Rng* rng, int depth) {
  switch (rng->Uniform(depth >= 1 ? 2 : 4)) {
    case 0:
      return "[" + RandomPred(rng, 0) + "]";
    case 1:
      return RandomPath(rng);
    case 2: {
      static const char* kOps[] = {"union", "intersect", "except"};
      return std::string(kOps[rng->Uniform(3)]) + "(" +
             RandomQuery(rng, depth + 1) + ", " + RandomQuery(rng, depth + 1) +
             ")";
    }
    default:
      return "join(" + RandomPath(rng) + " as A, " + RandomPath(rng) +
             " as B, A.name=B.name)";
  }
}

/// The fuzz corpus: 150 generated query texts (some may not parse).
const std::vector<std::string>& FuzzQueries() {
  static const std::vector<std::string> kQueries = [] {
    Rng rng(0xC0FFEE);
    std::vector<std::string> out;
    for (int i = 0; i < 150; ++i) out.push_back(RandomQuery(&rng, 0));
    return out;
  }();
  return kQueries;
}

/// Table 4, the extra shapes and the fuzz corpus.
std::vector<std::string> AllQueries() {
  std::vector<std::string> out = Table4Queries();
  out.insert(out.end(), ExtraQueries().begin(), ExtraQueries().end());
  out.insert(out.end(), FuzzQueries().begin(), FuzzQueries().end());
  return out;
}

// ---------------------------------------------------------------------------

class VmDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataspace();
    workload::BuiltDataspace built =
        workload::Generate(workload::DataspaceSpec::Small(), ds_->clock());
    built_ = new workload::BuiltDataspace(std::move(built));
    ASSERT_TRUE(ds_->AddFileSystem("Filesystem", built_->fs).ok());
    ASSERT_TRUE(ds_->AddImap("Email / IMAP", built_->imap).ok());
    reference_ = new ReferenceEvaluator(ds_);
  }

  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete built_;
    built_ = nullptr;
    delete ds_;
    ds_ = nullptr;
  }

  static std::unique_ptr<QueryProcessor> MakeProcessor(size_t threads) {
    QueryProcessor::Options options;
    options.threads = threads;
    // Force chunked scans onto the pool even at Small scale.
    options.min_parallel_chunk = threads > 1 ? 8 : 256;
    return std::make_unique<QueryProcessor>(&ds_->module(), &ds_->classes(),
                                            ds_->clock(), options);
  }

  static Dataspace* ds_;
  static workload::BuiltDataspace* built_;
  static ReferenceEvaluator* reference_;
};

Dataspace* VmDifferentialTest::ds_ = nullptr;
workload::BuiltDataspace* VmDifferentialTest::built_ = nullptr;
ReferenceEvaluator* VmDifferentialTest::reference_ = nullptr;

// --- VM vs. the reference evaluator ------------------------------------------

TEST_F(VmDifferentialTest, VmMatchesReferenceEvaluator) {
  std::vector<std::unique_ptr<QueryProcessor>> processors;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    processors.push_back(MakeProcessor(threads));
  }
  size_t parsed = 0, compared = 0, non_empty = 0;
  for (const std::string& text : AllQueries()) {
    Result<Query> query = ParseQuery(text);
    if (!query.ok()) continue;  // the generator can overrun parser limits
    ++parsed;
    Result<QueryResult> expected = reference_->Evaluate(*query);
    for (const auto& processor : processors) {
      SCOPED_TRACE("query=" + text + " threads=" +
                   std::to_string(processor->options().threads));
      Result<QueryResult> actual = processor->Evaluate(*query);
      ASSERT_EQ(actual.ok(), expected.ok());
      ++compared;
      if (!expected.ok()) {
        EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
        continue;
      }
      EXPECT_EQ(actual->columns, expected->columns);
      EXPECT_EQ(actual->rows, expected->rows);  // order included
      EXPECT_EQ(actual->scores, expected->scores);  // bitwise
      non_empty += !expected->rows.empty();
    }
  }
  EXPECT_GT(parsed, 140u);  // the grammar must mostly parse
  // The oracle is not comparing empties: a real share of answers has rows.
  EXPECT_GT(non_empty * 4, compared);
}

TEST_F(VmDifferentialTest, GovernedRunsArePrefixesOfTheAnswer) {
  std::unique_ptr<QueryProcessor> processor = MakeProcessor(1);
  bool degraded = false;
  for (const std::string& text : Table4Queries()) {
    Result<Query> query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    Result<QueryResult> full = processor->Evaluate(*query);
    ASSERT_TRUE(full.ok()) << text;
    // Score order and the join's final sort are not materialization
    // orders: their only safe prefix is the empty one.
    const bool empty_prefix_only = QueryProcessor::IsRankedQuery(*query) ||
                                   query->kind == Query::Kind::kJoin;
    for (uint64_t budget : {1u, 7u, 33u, 250u, 5000u}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) + " query=" + text);
      auto run = [&] {
        util::ExecContext::Limits limits;
        limits.max_steps = budget;
        util::ExecContext ctx(ds_->clock(), limits);
        return processor->Evaluate(*query, &ctx);
      };
      Result<QueryResult> a = run();
      Result<QueryResult> b = run();
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->rows, b->rows);
      EXPECT_EQ(a->meta.steps_used, b->meta.steps_used);
      EXPECT_EQ(a->meta.complete, b->meta.complete);
      if (a->meta.complete) {
        EXPECT_EQ(a->rows, full->rows);
        EXPECT_EQ(a->scores, full->scores);
        continue;
      }
      degraded = true;
      if (empty_prefix_only) {
        EXPECT_TRUE(a->rows.empty());
      } else {
        ASSERT_LE(a->rows.size(), full->rows.size());
        EXPECT_TRUE(
            std::equal(a->rows.begin(), a->rows.end(), full->rows.begin()));
      }
    }
  }
  EXPECT_TRUE(degraded);
}

TEST_F(VmDifferentialTest, MatchesDocAgreesWithReference) {
  const QueryProcessor& processor = ds_->processor();
  const std::vector<index::DocId> live = ds_->module().catalog().LiveIds();
  size_t shapes = 0, checked = 0;
  for (const std::string& text : AllQueries()) {
    Result<Query> query = ParseQuery(text);
    if (!query.ok() || !QueryProcessor::SupportsMatchesDoc(*query)) continue;
    ++shapes;
    Result<QueryResult> expected = reference_->Evaluate(*query);
    ASSERT_TRUE(expected.ok()) << text;
    std::set<index::DocId> members;
    for (const auto& row : expected->rows) members.insert(row[0]);
    auto check = [&](index::DocId id) {
      Result<bool> hit = processor.MatchesDoc(*query, id);
      ASSERT_TRUE(hit.ok()) << text;
      EXPECT_EQ(*hit, members.count(id) > 0) << text << " id=" << id;
      ++checked;
    };
    for (index::DocId id : members) check(id);
    for (size_t i = shapes % 7; i < live.size(); i += 7) check(live[i]);
    // Unknown ids are simply not members.
    Result<bool> unknown = processor.MatchesDoc(*query, live.back() + 1000);
    ASSERT_TRUE(unknown.ok());
    EXPECT_FALSE(*unknown) << text;
  }
  EXPECT_GT(shapes, 10u);
  EXPECT_GT(checked, 1000u);
  // Ranked filters depend on corpus-wide statistics: not per-view shapes.
  Result<Query> ranked = ParseQuery("\"database\"");
  ASSERT_TRUE(ranked.ok());
  EXPECT_FALSE(processor.MatchesDoc(*ranked, live.front()).ok());
}

// --- block-compressed postings ---------------------------------------------

TEST_F(VmDifferentialTest, BlockedPostingsMatchGovernedScans) {
  // Every blocked read, ungoverned and under an unlimited governed context
  // (which charges every block it decodes), answers like a scan of the
  // views' own texts.
  const index::InvertedIndex& content = ds_->module().content();
  util::ExecContext unlimited(ds_->clock(), util::ExecContext::Limits());
  for (const char* term : {"database", "systems", "tuning", "nosuchterm"}) {
    SCOPED_TRACE(term);
    const std::vector<index::DocId> expected = reference_->PhraseDocs(term);
    EXPECT_EQ(content.TermDocs(term), expected);
    EXPECT_EQ(content.TermDocs(term, &unlimited), expected);
    EXPECT_EQ(content.TermTfDocs(term), reference_->TermTf(term));
  }
  for (const std::vector<std::string>& terms :
       std::vector<std::vector<std::string>>{
           {"database", "tuning"}, {"database", "systems", "tuning"}}) {
    std::vector<index::DocId> expected = reference_->PhraseDocs(terms[0]);
    for (size_t i = 1; i < terms.size(); ++i) {
      const std::vector<index::DocId> next = reference_->PhraseDocs(terms[i]);
      std::vector<index::DocId> both;
      std::set_intersection(expected.begin(), expected.end(), next.begin(),
                            next.end(), std::back_inserter(both));
      expected = std::move(both);
    }
    EXPECT_EQ(content.AndDocs(terms), expected);
    EXPECT_EQ(content.AndDocs(terms, &unlimited), expected);
  }
  for (const char* phrase :
       {"database tuning", "database systems", "the", "no such phrase here"}) {
    SCOPED_TRACE(phrase);
    const std::vector<index::DocId> expected = reference_->PhraseDocs(phrase);
    EXPECT_EQ(content.PhraseDocs(phrase), expected);
    EXPECT_EQ(content.PhraseDocs(phrase, &unlimited), expected);
  }
  EXPECT_FALSE(unlimited.doomed());
  EXPECT_GT(unlimited.steps_used(), 0u);
  index::InvertedIndex::BlockStats stats = content.block_stats();
  EXPECT_GT(stats.built_lists, 0u);
  // The acceptance bound: block-accelerated postings must not cost more
  // memory than the uncompressed (docid + position arrays) baseline.
  EXPECT_LE(content.CompressedPostingsBytes(),
            content.UncompressedPostingsBytes());
}

// --- plan-keyed result cache (the §16 cache-key fix) -----------------------

TEST_F(VmDifferentialTest, ReorderedConjunctsShareOneCacheEntry) {
  // Two spellings of the Table 4 Q3 analog: same conjunction, reordered.
  const std::string spelling_a =
      "[size > 420001 and lastmodified < @12.06.2005]";
  const std::string spelling_b =
      "[lastmodified < @12.06.2005 and size > 420001]";
  QueryCache::Stats before = ds_->Stats().cache;
  Result<QueryResult> a = ds_->Query(spelling_a);
  Result<QueryResult> b = ds_->Query(spelling_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows, b->rows);
  QueryCache::Stats after = ds_->Stats().cache;
  EXPECT_EQ(after.misses, before.misses + 1);  // only the first evaluated
  EXPECT_EQ(after.hits, before.hits + 1);      // the reordering hit
  EXPECT_EQ(b->elapsed_micros, 0);             // served from cache
}

TEST_F(VmDifferentialTest, ReorderedSetOpArmsShareOneCacheEntry) {
  const std::string spelling_a =
      "union(//VLDB2005//*[\"documents\"], //VLDB2006//*[\"documents\"])";
  const std::string spelling_b =
      "union(//VLDB2006//*[\"documents\"], //VLDB2005//*[\"documents\"])";
  QueryCache::Stats before = ds_->Stats().cache;
  Result<QueryResult> a = ds_->Query(spelling_a);
  Result<QueryResult> b = ds_->Query(spelling_b);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->rows, b->rows);
  QueryCache::Stats after = ds_->Stats().cache;
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST_F(VmDifferentialTest, CanonicalKeysDistinguishNonEquivalentQueries) {
  auto key = [](const std::string& text) {
    Result<Query> query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << text;
    return CanonicalQueryKey(*query);
  };
  // Commutative reorderings collapse...
  EXPECT_EQ(key("[\"database\" and \"tuning\"]"),
            key("[\"tuning\" and \"database\"]"));
  EXPECT_EQ(key("intersect(\"a b\", \"c\")"), key("intersect(\"c\", \"a b\")"));
  // ...but except arms beyond the first, and join input order, must not.
  EXPECT_NE(key("except(\"database\", \"tuning\")"),
            key("except(\"tuning\", \"database\")"));
  EXPECT_NE(key("[\"database\" or \"tuning\"]"),
            key("[\"database\" and \"tuning\"]"));
}

// --- PreparedQuery lifecycle -----------------------------------------------

TEST_F(VmDifferentialTest, PreparedQueryExecutesLikeQuery) {
  Result<PreparedQuery> prepared = ds_->Prepare("//papers//*.tex");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->valid());
  Result<QueryResult> via_handle = prepared->Execute();
  Result<QueryResult> via_text = ds_->Query("//papers//*.tex");
  ASSERT_TRUE(via_handle.ok() && via_text.ok());
  EXPECT_EQ(via_handle->rows, via_text->rows);
  EXPECT_EQ(prepared->fingerprint(), Fingerprint64(prepared->cache_key()));
  EXPECT_EQ(prepared->normalized(), "//papers//*.tex");
  // Prepared and ad-hoc executions share cache entries (plan-keyed).
  QueryCache::Stats before = ds_->Stats().cache;
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(ds_->Stats().cache.hits, before.hits + 1);
  // The footprint names what the query reads (scoped: name patterns).
  sub::Footprint footprint = prepared->Footprint();
  EXPECT_TRUE(footprint.scoped());
  EXPECT_FALSE(footprint.patterns.empty());
}

TEST_F(VmDifferentialTest, PreparedQueryRejectsMisuse) {
  PreparedQuery empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.Execute().ok());
  EXPECT_FALSE(ds_->Execute(empty).ok());
  // A handle from one dataspace cannot execute against another.
  Dataspace other;
  Result<PreparedQuery> prepared = other.Prepare("\"database\"");
  ASSERT_TRUE(prepared.ok());
  Result<QueryResult> cross = ds_->Execute(*prepared);
  EXPECT_FALSE(cross.ok());
  // Parse errors surface at Prepare, not Execute.
  EXPECT_FALSE(ds_->Prepare("union(").ok());
}

TEST_F(VmDifferentialTest, SubscribeAcceptsPreparedQuery) {
  Dataspace local;
  Result<PreparedQuery> prepared = local.Prepare("\"database\"");
  ASSERT_TRUE(prepared.ok());
  auto subscription = local.Subscribe(*prepared);
  ASSERT_TRUE(subscription.ok());
  EXPECT_TRUE(local.Unsubscribe((*subscription)->id()));
}

// --- Explain goldens --------------------------------------------------------

// Golden Explain() listings for every Table 4 shape. The dataspace
// processor is serial (threads = 1), so the plan shape — and the FNV-1a
// fingerprint of the canonical key — is stable across platforms. Goldens
// index into Table4Queries() by position.
TEST_F(VmDifferentialTest, ExplainGoldensForTable4Shapes) {
  const std::vector<std::string> kGoldens = {
      // Q1: ranked keyword.
      R"(query: "database"
key: filter:"database"
fingerprint: 0x6f7df765cda280be
program: filter regs=2 ranked
  0: r0 = live
  1: r1 = phrase "database" & r0
  2: materialize r1 governed
  3: rank-or-clear
)",
      // Q2: ranked phrase.
      R"(query: "database tuning"
key: filter:"database tuning"
fingerprint: 0x83b36aafeff805d9
program: filter regs=2 ranked
  0: r0 = live
  1: r1 = phrase "database tuning" & r0
  2: materialize r1 governed
  3: rank-or-clear
)",
      // Q3: attribute conjunction — note the canonical key sorts the
      // conjuncts, and the program short-circuits via if-empty.
      R"(query: (size > 420000 and lastmodified < @12.06.2005)
key: filter:and(lastmodified < @12.06.2005, size > 420000)
fingerprint: 0xc0a6c0eff7924f5f
program: filter regs=4
  0: r0 = live
  1: r1 = r0
  2: r2 = tuple-scan size > 420000 & r1
  3: r1 = r2
  4: if-empty r1 goto 7
  5: r3 = tuple-scan lastmodified < 12/06/2005 00:00 & r1
  6: r1 = r3
  7: materialize r1 governed
)",
      // Q4: path with descendant, child step, and phrase predicate.
      R"(query: //papers//*Vision/*["Franklin"]
key: path://papers//*Vision/*["Franklin"]
fingerprint: 0x9b4cd29a39c5c62b
program: path regs=5
  0: r1 = name-match "papers"
  1: r0 = r1
  2: if-empty r0 goto 10
  3: r2 = name-match "*Vision"
  4: r0 = expand frontier=r0 names=r2
  5: if-empty r0 goto 10
  6: r3 = name-match "*"
  7: r0 = step-child frontier=r0 names=r3
  8: r4 = phrase "Franklin" & r0
  9: r0 = r4
  10: materialize r0 governed
)",
      // Q5: wildcard-heavy path.
      R"(query: //VLDB200?//?onclusion*/*["systems"]
key: path://VLDB200?//?onclusion*/*["systems"]
fingerprint: 0x9fe03a5213cef88f
program: path regs=5
  0: r1 = name-match "VLDB200?"
  1: r0 = r1
  2: if-empty r0 goto 10
  3: r2 = name-match "?onclusion*"
  4: r0 = expand frontier=r0 names=r2
  5: if-empty r0 goto 10
  6: r3 = name-match "*"
  7: r0 = step-child frontier=r0 names=r3
  8: r4 = phrase "systems" & r0
  9: r0 = r4
  10: materialize r0 governed
)",
      // Q6: union of two paths (sub-programs).
      R"(query: union(//VLDB2005//*["documents"], //VLDB2006//*["documents"])
key: union(path://VLDB2005//*["documents"], path://VLDB2006//*["documents"])
fingerprint: 0x11b6b046055cff7e
program: union regs=1
  0: r0 = union subs[0..2)
  1: materialize r0 governed
  sub[0]: path regs=4
    0: r1 = name-match "VLDB2005"
    1: r0 = r1
    2: if-empty r0 goto 7
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = phrase "documents" & r0
    6: r0 = r3
    7: materialize r0
  sub[1]: path regs=4
    0: r1 = name-match "VLDB2006"
    1: r0 = r1
    2: if-empty r0 goto 7
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = phrase "documents" & r0
    6: r0 = r3
    7: materialize r0
)",
      // Q7: join on name = tuple attribute.
      R"(query: join(//VLDB2006//*[class="texref"] as A, //VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)
key: join(path://VLDB2006//*[class="texref"] as A, path://VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)
fingerprint: 0xfff64da5b60b56cb
program: join regs=0
  0: hash-join A.name = B.tuple.label
  left (A): path regs=4
    0: r1 = name-match "VLDB2006"
    1: r0 = r1
    2: if-empty r0 goto 7
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = class-filter "texref" over r0
    6: r0 = r3
    7: materialize r0
  right (B): path regs=5
    0: r1 = name-match "VLDB2006"
    1: r0 = r1
    2: if-empty r0 goto 10
    3: r2 = name-match "*"
    4: r0 = expand frontier=r0 names=r2
    5: r3 = class-filter "environment" over r0
    6: r0 = r3
    7: if-empty r0 goto 10
    8: r4 = name-match "figure*"
    9: r0 = expand frontier=r0 names=r4
    10: materialize r0
)",
      // Q8: join on name = name.
      R"(query: join(//*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name=B.name)
key: join(path://*[class="emailmessage"]//*.tex as A, path://papers//*.tex as B, A.name=B.name)
fingerprint: 0xdb81c60c67b22b16
program: join regs=0
  0: hash-join A.name = B.name
  left (A): path regs=4
    0: r1 = name-match "*"
    1: r0 = r1
    2: r2 = class-filter "emailmessage" over r0
    3: r0 = r2
    4: if-empty r0 goto 7
    5: r3 = name-match "*.tex"
    6: r0 = expand frontier=r0 names=r3
    7: materialize r0
  right (B): path regs=3
    0: r1 = name-match "papers"
    1: r0 = r1
    2: if-empty r0 goto 5
    3: r2 = name-match "*.tex"
    4: r0 = expand frontier=r0 names=r2
    5: materialize r0
)",
  };
  ASSERT_EQ(kGoldens.size(), Table4Queries().size());
  for (size_t i = 0; i < kGoldens.size(); ++i) {
    SCOPED_TRACE("Q" + std::to_string(i + 1));
    Result<PreparedQuery> prepared = ds_->Prepare(Table4Queries()[i]);
    ASSERT_TRUE(prepared.ok());
    EXPECT_EQ(prepared->Explain(), kGoldens[i]);
  }
}

}  // namespace
}  // namespace idm::iql
