// Property tests: index structures behave identically to naive reference
// models under random operation sequences.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "index/catalog.h"
#include "index/group_store.h"
#include "index/inverted_index.h"
#include "index/name_index.h"
#include "index/tuple_index.h"
#include "index/version_log.h"
#include "util/codec.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace idm::index {
namespace {

class ModelSweep : public ::testing::TestWithParam<uint64_t> {};

// --- InvertedIndex vs. model -------------------------------------------------

/// One posting as the image stores it.
struct Record {
  DocId doc = 0;
  uint64_t tf = 0;
  std::vector<uint64_t> positions;
  bool operator==(const Record&) const = default;
};

uint64_t ReadVarint(const std::string& in, size_t* pos) {
  uint64_t value = 0;
  for (int shift = 0; *pos < in.size() && shift < 64; shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(in[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
  }
  return value;
}

/// Every non-empty posting list of \p index, decoded record by record from
/// its Serialize() image (content-image format 2: per term, blocks of doc
/// ids as delta varints or a bitset over [first, last] followed by one tf
/// varint per doc, then each doc's position deltas). Block boundaries
/// depend on the order of writes; the records do not.
void DecodePostings(const InvertedIndex& index,
                    std::map<std::string, std::vector<Record>>* lists) {
  const std::string data = index.Serialize();
  size_t pos = 0;
  uint64_t magic = 0, tokens = 0, n_terms = 0;
  uint32_t version = 0;
  EXPECT_TRUE(codec::GetU64(data, &pos, &magic) &&
              codec::GetU32(data, &pos, &version) &&
              codec::GetU64(data, &pos, &tokens) &&
              codec::GetU64(data, &pos, &n_terms));
  EXPECT_EQ(version, 2u);
  for (uint64_t i = 0; i < n_terms; ++i) {
    std::string term;
    uint32_t term_id = 0, doc_count = 0;
    uint64_t n_blocks = 0;
    ASSERT_TRUE(codec::GetString(data, &pos, &term) &&
                codec::GetU32(data, &pos, &term_id) &&
                codec::GetU32(data, &pos, &doc_count) &&
                codec::GetU64(data, &pos, &n_blocks));
    std::vector<Record> records;
    for (uint64_t b = 0; b < n_blocks; ++b) {
      uint64_t first = 0, last = 0;
      uint32_t count = 0, dense = 0, tf_start = 0;
      std::string bytes, positions;
      ASSERT_TRUE(codec::GetU64(data, &pos, &first) &&
                  codec::GetU64(data, &pos, &last) &&
                  codec::GetU32(data, &pos, &count) &&
                  codec::GetU32(data, &pos, &dense) &&
                  codec::GetU32(data, &pos, &tf_start) &&
                  codec::GetString(data, &pos, &bytes) &&
                  codec::GetString(data, &pos, &positions) &&
                  count > 0 && tf_start <= bytes.size());
      const std::string docs = bytes.substr(0, tf_start);
      const std::string tf = bytes.substr(tf_start);
      std::vector<DocId> ids;
      if (dense != 0) {
        for (size_t bit = 0; bit < docs.size() * 8; ++bit) {
          if ((docs[bit / 8] >> (bit % 8)) & 1) ids.push_back(first + bit);
        }
      } else {
        size_t at = 0;
        ids.push_back(first);
        while (ids.size() < count) {
          ids.push_back(ids.back() + ReadVarint(docs, &at));
        }
        EXPECT_EQ(at, docs.size()) << term;
      }
      EXPECT_EQ(ids.size(), count) << term;
      EXPECT_EQ(ids.back(), last) << term;
      size_t tf_at = 0, pos_at = 0;
      for (DocId id : ids) {
        Record record{id, ReadVarint(tf, &tf_at), {}};
        uint64_t position = 0;
        for (uint64_t k = 0; k < record.tf; ++k) {
          position += ReadVarint(positions, &pos_at);
          record.positions.push_back(position);
        }
        records.push_back(std::move(record));
      }
      EXPECT_EQ(tf_at, tf.size()) << term;
      EXPECT_EQ(pos_at, positions.size()) << term;
    }
    EXPECT_EQ(records.size(), doc_count) << term;
    // A term whose every document was removed keeps an empty list.
    if (!records.empty()) (*lists)[term] = std::move(records);
  }
}

std::map<std::string, std::vector<Record>> PostingRecords(
    const InvertedIndex& index) {
  std::map<std::string, std::vector<Record>> lists;
  DecodePostings(index, &lists);
  return lists;
}

// Writes at block scale: ids spread over more than ten 128-doc blocks,
// reads interleaved with the writes, and every kind of splice — re-adds,
// inserts below a list's last doc, removal of a list's first and last
// record and of a block's last record, whole blocks and whole lists
// emptied. At each checkpoint, every query method must answer exactly like
// a scan of the model's texts, every posting list must hold the same
// (doc, tf, positions) records as a fresh index built from them, and the
// image must survive a Deserialize/Serialize round trip byte for byte.
TEST_P(ModelSweep, InvertedIndexMatchesModelUnderChurn) {
  Rng rng(GetParam());
  const std::vector<std::string> kCommon = {"red", "blue", "fox",
                                            "dog", "idm", "vldb"};
  std::vector<std::string> words = kCommon;
  words.push_back("the");   // in every generated doc
  words.push_back("rare");  // in about one in thirty
  // Id slot i is doc id i * kStride: a one-byte doc delta that grows to two
  // bytes when the record in between goes, so a splice changes a varint doc
  // payload by something other than one delta's length.
  constexpr DocId kSlots = 2048;
  constexpr DocId kLoaded = kSlots * 7 / 8;
  constexpr DocId kStride = 97;
  InvertedIndex index;
  std::map<DocId, std::string> model;

  auto add = [&](DocId id, std::string text = "") {
    if (text.empty()) {
      text = "the";
      for (size_t i = 0, n = 1 + rng.Uniform(8); i < n; ++i) {
        text += " " + kCommon[rng.Uniform(kCommon.size())];
      }
      if (rng.Chance(1.0 / 30)) text += " rare";
    }
    index.AddDocument(id, text);
    model[id] = text;
  };
  auto remove = [&](DocId id) {
    index.RemoveDocument(id);
    model.erase(id);
  };
  // Model scans of the live texts (single-space-separated lowercase words):
  // the ids whose text holds \p words contiguously, ascending — for one
  // word, its posting list.
  auto list_of = [&](const std::string& words_run) {
    std::vector<DocId> ids;
    for (const auto& [id, text] : model) {
      if ((" " + text + " ").find(" " + words_run + " ") != std::string::npos) {
        ids.push_back(id);
      }
    }
    return ids;
  };
  // Each live id holding \p word with its occurrence count.
  auto tf_of = [&](const std::string& word) {
    std::vector<std::pair<DocId, uint32_t>> out;
    for (const auto& [id, text] : model) {
      uint32_t tf = 0;
      for (const std::string& token : Split(text, ' ')) tf += token == word;
      if (tf > 0) out.emplace_back(id, tf);
    }
    return out;
  };

  auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    InvertedIndex fresh;
    for (const auto& [id, text] : model) fresh.AddDocument(id, text);
    EXPECT_EQ(index.doc_count(), model.size());
    EXPECT_EQ(index.total_tokens(), fresh.total_tokens());
    for (const std::string& word : words) {
      const std::vector<DocId> list = list_of(word);
      EXPECT_EQ(index.TermDocs(word), list) << word;
      EXPECT_EQ(index.TermTfDocs(word), tf_of(word)) << word;
      for (const std::string& other : words) {
        const std::string phrase = word + " " + other;
        const std::vector<DocId> other_list = list_of(other);
        std::vector<DocId> both;
        std::set_intersection(list.begin(), list.end(), other_list.begin(),
                              other_list.end(), std::back_inserter(both));
        EXPECT_EQ(index.AndDocs({word, other}), both) << phrase;
        EXPECT_EQ(index.PhraseDocs(phrase), list_of(phrase)) << phrase;
      }
    }
    EXPECT_EQ(PostingRecords(index), PostingRecords(fresh));
    const std::string image = index.Serialize();
    Result<InvertedIndex> restored = InvertedIndex::Deserialize(image);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(restored->Serialize(), image);
  };

  // Bulk load in id order over most slots, leaving gaps for inserts and
  // room above for appends.
  for (DocId slot = 0; slot < kLoaded; ++slot) {
    if (rng.Chance(0.85)) add(slot * kStride);
  }
  ASSERT_GE(list_of("the").size(), 10u * 128u);
  ASSERT_GE(list_of("red").size(), 400u);
  check("bulk load");

  // Scripted splices on freshly sealed blocks of 128 postings: remove the
  // last record of the first blocks of "the", whose successors open the
  // next blocks; empty whole blocks of "red"; empty "rare", then refill it
  // by appends and an insert below its last doc.
  const std::vector<DocId> the = list_of("the");
  for (size_t block = 1; block <= 4; ++block) remove(the[block * 128 - 1]);
  const std::vector<DocId> red = list_of("red");
  for (size_t i = 100; i < 400; ++i) remove(red[i]);
  for (DocId id : list_of("rare")) remove(id);
  EXPECT_TRUE(index.TermDocs("rare").empty());
  const DocId top = model.rbegin()->first;
  add(top + kStride, "the rare");
  add(top + 3 * kStride, "rare the rare");
  add(top + 2 * kStride, "the rare red");
  check("scripted splices");

  for (int step = 0; step < 600; ++step) {
    const std::string& word = words[rng.Uniform(words.size())];
    const double op = rng.NextDouble();
    if (op < 0.15) {
      // Reads between the writes.
      const std::string phrase =
          word + " " + words[rng.Uniform(words.size())];
      EXPECT_EQ(index.TermDocs(word), list_of(word)) << step;
      EXPECT_EQ(index.PhraseDocs(phrase), list_of(phrase)) << step;
    } else if (op < 0.35) {
      // A re-add of a live id, or an insert into a gap below the lists'
      // last docs.
      add(rng.Uniform(kLoaded) * kStride);
    } else if (op < 0.45) {
      // An append above every list's last doc.
      add(model.empty() ? 0 : model.rbegin()->first + kStride);
    } else if (op < 0.65) {
      if (!model.empty()) {
        auto it = model.lower_bound(rng.Uniform(kSlots) * kStride);
        remove(it == model.end() ? model.begin()->first : it->first);
      }
    } else if (op < 0.85) {
      // Removal of the word's first or last record.
      const std::vector<DocId> ids = list_of(word);
      if (!ids.empty()) remove(rng.Chance(0.5) ? ids.front() : ids.back());
    } else {
      remove(rng.Uniform(kSlots * 2) * kStride);  // often not indexed
    }
    if (step % 100 == 99) check("step " + std::to_string(step));
  }
}

TEST_P(ModelSweep, InvertedIndexTfMatchesModel) {
  Rng rng(GetParam());
  InvertedIndex index;
  std::map<DocId, size_t> expected_tf;
  for (DocId id = 0; id < 30; ++id) {
    size_t tf = 1 + rng.Uniform(6);
    std::string doc;
    for (size_t i = 0; i < tf; ++i) doc += "needle ";
    for (size_t i = 0; i < rng.Uniform(5); ++i) doc += "hay ";
    index.AddDocument(id, doc);
    expected_tf[id] = tf;
  }
  auto with_tf = index.TermTfDocs("needle");
  ASSERT_EQ(with_tf.size(), expected_tf.size());
  for (const auto& [id, tf] : with_tf) {
    EXPECT_EQ(tf, expected_tf[id]) << id;
  }
  EXPECT_EQ(index.DocumentFrequency("needle"), 30u);
  EXPECT_EQ(index.DocumentFrequency("missing"), 0u);
}

// --- TupleIndex vs. naive scan -----------------------------------------------

TEST_P(ModelSweep, TupleIndexMatchesNaiveScan) {
  Rng rng(GetParam());
  TupleIndex index;
  std::map<DocId, int64_t> model;  // one int attribute "v"
  core::Schema schema = core::Schema().Add("v", core::Domain::kInt);

  for (int step = 0; step < 200; ++step) {
    DocId id = rng.Uniform(50);
    if (rng.Chance(0.75)) {
      int64_t value = rng.UniformRange(-20, 20);
      index.Add(id, core::TupleComponent::MakeUnchecked(
                        schema, {core::Value::Int(value)}));
      model[id] = value;
    } else {
      index.Remove(id);
      model.erase(id);
    }
    if (step % 25 != 0) continue;
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                     CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe};
    for (CompareOp op : kOps) {
      int64_t pivot = rng.UniformRange(-20, 20);
      std::vector<DocId> expected;
      for (const auto& [doc_id, value] : model) {
        bool match = false;
        switch (op) {
          case CompareOp::kEq: match = value == pivot; break;
          case CompareOp::kNe: match = value != pivot; break;
          case CompareOp::kLt: match = value < pivot; break;
          case CompareOp::kLe: match = value <= pivot; break;
          case CompareOp::kGt: match = value > pivot; break;
          case CompareOp::kGe: match = value >= pivot; break;
        }
        if (match) expected.push_back(doc_id);
      }
      EXPECT_EQ(index.Scan("v", op, core::Value::Int(pivot)), expected)
          << "op " << static_cast<int>(op) << " pivot " << pivot;
    }
  }
}

// --- GroupStore invariants -----------------------------------------------------

TEST_P(ModelSweep, GroupStoreParentChildDuality) {
  Rng rng(GetParam());
  GroupStore store;
  for (int step = 0; step < 300; ++step) {
    DocId parent = rng.Uniform(30);
    if (rng.Chance(0.8)) {
      std::vector<DocId> children;
      std::set<DocId> used;
      size_t n = rng.Uniform(6);
      for (size_t i = 0; i < n; ++i) {
        DocId child = rng.Uniform(30);
        if (used.insert(child).second) children.push_back(child);
      }
      store.SetChildren(parent, children);
    } else {
      store.RemoveAllEdgesOf(parent);
    }

    // Invariant: (p -> c) in children iff (c -> p) in parents; edge_count
    // equals the total child-list length.
    size_t edges = 0;
    for (DocId p = 0; p < 30; ++p) {
      for (DocId c : store.Children(p)) {
        auto parents = store.Parents(c);
        EXPECT_TRUE(std::binary_search(parents.begin(), parents.end(), p))
            << p << "->" << c;
        ++edges;
      }
    }
    EXPECT_EQ(store.edge_count(), edges);
    for (DocId c = 0; c < 30; ++c) {
      for (DocId p : store.Parents(c)) {
        const auto& children = store.Children(p);
        EXPECT_NE(std::find(children.begin(), children.end(), c),
                  children.end())
            << c << "<-" << p;
      }
    }
  }
}

TEST_P(ModelSweep, GroupStoreDescendantsMatchNaiveClosure) {
  Rng rng(GetParam());
  GroupStore store;
  constexpr DocId kNodes = 20;
  for (DocId p = 0; p < kNodes; ++p) {
    std::vector<DocId> children;
    std::set<DocId> used;
    for (size_t i = 0; i < rng.Uniform(4); ++i) {
      DocId c = rng.Uniform(kNodes);
      if (used.insert(c).second) children.push_back(c);
    }
    store.SetChildren(p, children);
  }
  for (DocId root = 0; root < kNodes; ++root) {
    // Naive closure.
    std::set<DocId> expected;
    std::vector<DocId> frontier{root};
    while (!frontier.empty()) {
      DocId node = frontier.back();
      frontier.pop_back();
      for (DocId c : store.Children(node)) {
        if (expected.insert(c).second) frontier.push_back(c);
      }
    }
    auto actual = store.Descendants({root});
    EXPECT_EQ(std::set<DocId>(actual.begin(), actual.end()), expected)
        << "root " << root;
  }
}

// --- NameIndex wildcard vs. reference matcher --------------------------------

bool ReferenceMatch(const std::string& pattern, const std::string& text,
                    size_t pi = 0, size_t ti = 0) {
  if (pi == pattern.size()) return ti == text.size();
  if (pattern[pi] == '*') {
    for (size_t skip = 0; ti + skip <= text.size(); ++skip) {
      if (ReferenceMatch(pattern, text, pi + 1, ti + skip)) return true;
    }
    return false;
  }
  if (ti == text.size()) return false;
  char p = static_cast<char>(std::tolower(pattern[pi]));
  char t = static_cast<char>(std::tolower(text[ti]));
  if (pattern[pi] != '?' && p != t) return false;
  return ReferenceMatch(pattern, text, pi + 1, ti + 1);
}

TEST_P(ModelSweep, WildcardMatchAgreesWithReference) {
  Rng rng(GetParam());
  static const char kPatternChars[] = "ab?*.X";
  static const char kTextChars[] = "ab.Xx";
  for (int i = 0; i < 2000; ++i) {
    std::string pattern, text;
    for (size_t j = 0; j < rng.Uniform(8); ++j) {
      pattern += kPatternChars[rng.Uniform(6)];
    }
    for (size_t j = 0; j < rng.Uniform(8); ++j) {
      text += kTextChars[rng.Uniform(5)];  // no metacharacters in text
    }
    EXPECT_EQ(WildcardMatch(pattern, text), ReferenceMatch(pattern, text))
        << "'" << pattern << "' vs '" << text << "'";
  }
}

// --- Catalog + VersionLog serialization under churn ---------------------------

TEST_P(ModelSweep, CatalogSerializationIsLossless) {
  Rng rng(GetParam());
  Catalog catalog;
  uint32_t src = catalog.InternSource("s");
  for (int step = 0; step < 150; ++step) {
    DocId id = catalog.Register("uri" + std::to_string(rng.Uniform(40)),
                                rng.Chance(0.5) ? "file" : "", src,
                                rng.Chance(0.3));
    if (rng.Chance(0.25)) catalog.Remove(id);
  }
  auto restored = Catalog::Deserialize(catalog.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->live_count(), catalog.live_count());
  EXPECT_EQ(restored->total_count(), catalog.total_count());
  for (DocId id = 0; id < catalog.total_count(); ++id) {
    const CatalogEntry* a = catalog.Entry(id);
    const CatalogEntry* b = restored->Entry(id);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->uri, b->uri);
    EXPECT_EQ(a->class_name, b->class_name);
    EXPECT_EQ(a->derived, b->derived);
    EXPECT_EQ(a->deleted, b->deleted);
  }
}

TEST_P(ModelSweep, VersionLogLiveAtMatchesModel) {
  Rng rng(GetParam());
  VersionLog log;
  std::set<DocId> model;
  std::vector<std::set<DocId>> history{model};  // history[v] = live at v
  for (int step = 0; step < 120; ++step) {
    DocId id = rng.Uniform(25);
    if (model.count(id) == 0) {
      log.Append(ChangeRecord::Op::kAdded, id);
      model.insert(id);
    } else if (rng.Chance(0.5)) {
      log.Append(ChangeRecord::Op::kUpdated, id);
    } else {
      log.Append(ChangeRecord::Op::kRemoved, id);
      model.erase(id);
    }
    history.push_back(model);
  }
  for (Version v = 0; v < history.size(); ++v) {
    auto live = log.LiveAt(v);
    EXPECT_EQ(std::set<DocId>(live.begin(), live.end()), history[v])
        << "version " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace idm::index
