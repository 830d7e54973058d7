// Round trips for the checkpointable index structures, plus the hardened
// catalog loader (satellite 2): a format-version header is validated and
// truncated or internally inconsistent images are rejected with a Status
// instead of being silently half-accepted.

#include <gtest/gtest.h>

#include "core/tuple.h"
#include "core/value.h"
#include "index/catalog.h"
#include "index/group_store.h"
#include "index/inverted_index.h"
#include "index/lineage.h"
#include "index/name_index.h"
#include "index/tuple_index.h"
#include "util/rng.h"

namespace idm::index {
namespace {

using core::Domain;
using core::Schema;
using core::TupleComponent;
using core::Value;

TEST(NameIndexRoundTrip, PreservesEntriesAndLookups) {
  NameIndex index;
  index.Add(3, "paper.tex");
  index.Add(1, "INBOX");
  index.Add(9, "Paper.TEX");
  auto restored = NameIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->NameOf(3), "paper.tex");
  EXPECT_EQ(restored->Lookup("paper.tex"), (std::vector<DocId>{3, 9}));
  EXPECT_EQ(index.Serialize(), restored->Serialize());
  EXPECT_FALSE(NameIndex::Deserialize("nope").ok());
}

TEST(TupleIndexRoundTrip, PreservesReplicaAndScans) {
  TupleIndex index;
  index.Add(1, TupleComponent::MakeUnchecked(
                   Schema().Add("size", Domain::kInt).Add("name", Domain::kString),
                   {Value::Int(4096), Value::String("a.txt")}));
  index.Add(2, TupleComponent::MakeUnchecked(Schema().Add("size", Domain::kInt),
                                             {Value::Int(100)}));
  TupleIndex restored;
  ASSERT_TRUE(TupleIndex::DeserializeInto(index.Serialize(), &restored).ok());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_TRUE(restored.TupleOf(1) == index.TupleOf(1));
  EXPECT_EQ(restored.Scan("size", CompareOp::kGt, Value::Int(1000)),
            (std::vector<DocId>{1}));
  EXPECT_EQ(index.Serialize(), restored.Serialize());
  TupleIndex reject;
  EXPECT_FALSE(TupleIndex::DeserializeInto("nope", &reject).ok());
}

TEST(GroupStoreRoundTrip, PreservesEdgesInOrder) {
  GroupStore store;
  store.SetChildren(1, {3, 2, 5});
  store.SetChildren(2, {5});
  auto restored = GroupStore::Deserialize(store.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->Children(1), (std::vector<DocId>{3, 2, 5}));
  EXPECT_EQ(restored->Parents(5), (std::vector<DocId>{1, 2}));
  EXPECT_EQ(store.Serialize(), restored->Serialize());
}

TEST(LineageRoundTrip, PreservesProvenance) {
  LineageStore store;
  store.Record(10, 1, "convert:latex");
  store.Record(10, 2, "merge");
  store.Record(11, 10, "convert:xml");
  auto restored = LineageStore::Deserialize(store.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->edge_count(), 3u);
  ASSERT_EQ(restored->OriginsOf(10).size(), 2u);
  EXPECT_EQ(restored->OriginsOf(10)[0].transformation, "convert:latex");
  EXPECT_EQ(restored->DerivedFrom(10), (std::vector<DocId>{11}));
  EXPECT_EQ(store.Serialize(), restored->Serialize());
}

TEST(InvertedIndexRoundTrip, PreservesPostingsAndPositions) {
  InvertedIndex index;
  index.AddDocument(1, "personal dataspace management with iDM");
  index.AddDocument(2, "dataspace management systems");
  index.RemoveDocument(2);
  index.AddDocument(3, "personal information management");
  auto restored = InvertedIndex::Deserialize(index.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->TermDocs("dataspace"), (std::vector<DocId>{1}));
  EXPECT_EQ(restored->PhraseDocs("personal information management"),
            (std::vector<DocId>{3}));
  EXPECT_EQ(restored->doc_count(), index.doc_count());
  EXPECT_EQ(index.Serialize(), restored->Serialize());
}

// --- Content-image decoder sweep -----------------------------------------

/// A churned index whose image holds varint and bitset blocks, spliced,
/// emptied and sealed ones, and terms whose every document went.
InvertedIndex ChurnedIndex() {
  InvertedIndex index;
  Rng rng(7);
  const char* kWords[] = {"alpha", "beta", "gamma", "delta"};
  for (DocId id = 0; id < 300; ++id) {
    std::string text = "the";
    for (size_t i = 0, n = rng.Uniform(4); i < n; ++i) {
      text += std::string(" ") + kWords[rng.Uniform(4)];
    }
    index.AddDocument(id * (id % 7 == 0 ? 5 : 1), text);
  }
  for (DocId id = 0; id < 300; id += 3) index.RemoveDocument(id);
  for (DocId id = 1; id < 200; id += 4) index.AddDocument(id, "the rare beta");
  index.AddDocument(5000, "gone");
  index.RemoveDocument(5000);
  return index;
}

/// Every read on every term of \p index; each must return without
/// crashing, hanging or allocating beyond what the image holds.
void ReadEverything(const InvertedIndex& index, size_t image_size) {
  for (const char* term :
       {"the", "alpha", "beta", "gamma", "delta", "rare", "gone"}) {
    EXPECT_LE(index.TermDocs(term).size(), image_size * 8);
    EXPECT_LE(index.TermTfDocs(term).size(), image_size * 8);
    EXPECT_LE(index.AndDocs({term, "the"}).size(), image_size * 8);
    EXPECT_LE(index.PhraseDocs(std::string("the ") + term).size(),
              image_size * 8);
  }
}

TEST(InvertedIndexHardening, TruncationsAndByteFlipsFailOrReadSafely) {
  const std::string image = ChurnedIndex().Serialize();
  Result<InvertedIndex> whole = InvertedIndex::Deserialize(image);
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(whole->Serialize(), image);
  for (size_t cut = 0; cut < image.size(); ++cut) {
    Result<InvertedIndex> truncated =
        InvertedIndex::Deserialize(image.substr(0, cut));
    ASSERT_FALSE(truncated.ok()) << "accepted a " << cut << "-byte prefix";
    EXPECT_EQ(truncated.status().code(), StatusCode::kParseError);
  }
  Rng rng(2006);
  size_t accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutant = image;
    mutant[rng.Uniform(mutant.size())] ^=
        static_cast<char>(1u << rng.Uniform(8));
    Result<InvertedIndex> restored = InvertedIndex::Deserialize(mutant);
    if (!restored.ok()) continue;
    ++accepted;
    ReadEverything(*restored, mutant.size());
    // Writes on a loaded mutant stay within its blocks too, and its token
    // count, checked against the tf counts on load, cannot wrap.
    restored->RemoveDocument(1);
    restored->RemoveDocument(3);
    restored->AddDocument(2, "the beta beta");
    restored->AddDocument(9000, "the gamma");
    EXPECT_LE(restored->total_tokens(), mutant.size() + 5);
    ReadEverything(*restored, mutant.size());
  }
  // Flips in position bytes, doc ids of the doc->terms map and the like
  // load; the sweep must have read some such mutants.
  EXPECT_GT(accepted, 0u);
}

TEST(InvertedIndexHardening, RejectsInconsistentBlocks) {
  InvertedIndex index;
  for (DocId id = 0; id < 10; ++id) index.AddDocument(id * 3, "needle");
  const std::string image = index.Serialize();
  // Header (8 + 4 + 8 + 8), then "needle": 8 + 6 name bytes, term id,
  // doc count and the block count; the block's count field follows its
  // two 8-byte bounds.
  const size_t block_at = 28 + 14 + 4 + 4 + 8;
  auto with_u32 = [&](size_t at, uint32_t value) {
    std::string mutant = image;
    for (int i = 0; i < 4; ++i) mutant[at + i] = static_cast<char>(value >> (8 * i));
    return mutant;
  };
  ASSERT_TRUE(InvertedIndex::Deserialize(image).ok());
  for (uint32_t count : {0u, 9u, 11u}) {
    EXPECT_FALSE(InvertedIndex::Deserialize(with_u32(block_at + 16, count)).ok())
        << count;
  }
  // first > last.
  std::string swapped = image;
  swapped[block_at] = static_cast<char>(100);
  EXPECT_FALSE(InvertedIndex::Deserialize(swapped).ok());
  // A varint payload read as a bitset.
  EXPECT_FALSE(InvertedIndex::Deserialize(with_u32(block_at + 20, 1)).ok());
  // The list's doc count disagrees with its blocks.
  EXPECT_FALSE(InvertedIndex::Deserialize(with_u32(28 + 14 + 4, 11)).ok());

  // The block's `ids` string (length, then 9 delta varints and 10 tf
  // varints of 1) and its `positions` string (length, then 10 zero
  // deltas) follow its three u32 fields.
  const size_t tf_at = block_at + 28 + 8 + 9;
  const size_t positions_at = tf_at + 10 + 8;
  auto with_byte = [&](size_t at, uint8_t value) {
    std::string mutant = image;
    mutant[at] = static_cast<char>(value);
    return mutant;
  };
  ASSERT_EQ(image[tf_at], 1);
  ASSERT_EQ(image[positions_at], 0);
  // A tf varint running into the next: 9 tf counts for 10 docs.
  EXPECT_FALSE(InvertedIndex::Deserialize(with_byte(tf_at + 3, 0x81)).ok());
  // A tf count of 2 claims 11 positions where 10 are stored.
  EXPECT_FALSE(InvertedIndex::Deserialize(with_byte(tf_at + 3, 2)).ok());
  // A position varint running into the next: 9 positions for 10.
  EXPECT_FALSE(
      InvertedIndex::Deserialize(with_byte(positions_at + 4, 0x80)).ok());
  // The last position cut short.
  EXPECT_FALSE(
      InvertedIndex::Deserialize(with_byte(positions_at + 9, 0x80)).ok());
  // The header's token count disagrees with the tf counts.
  EXPECT_FALSE(InvertedIndex::Deserialize(with_byte(12, 11)).ok());
  ASSERT_EQ(image[12], 10);
}

// --- Catalog hardening (satellite 2) ---------------------------------------

Catalog SampleCatalog() {
  Catalog catalog;
  uint32_t fs = catalog.InternSource("Filesystem");
  uint32_t mail = catalog.InternSource("Email");
  catalog.Register("vfs:/docs/paper.tex", "file", fs, false);
  catalog.Register("vfs:/docs/paper.tex#tex", "latex_document", fs, true);
  catalog.Register("imap://INBOX/1", "email_message", mail, false);
  catalog.Remove(*catalog.Find("imap://INBOX/1"));
  return catalog;
}

TEST(CatalogRoundTrip, PreservesEntriesTombstonesAndSources) {
  Catalog catalog = SampleCatalog();
  auto restored = Catalog::Deserialize(catalog.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->live_count(), catalog.live_count());
  EXPECT_EQ(restored->total_count(), catalog.total_count());
  EXPECT_EQ(restored->Find("vfs:/docs/paper.tex"),
            catalog.Find("vfs:/docs/paper.tex"));
  EXPECT_FALSE(restored->Find("imap://INBOX/1").has_value());  // tombstone
  EXPECT_EQ(restored->SourceName(0), "Filesystem");
  EXPECT_EQ(catalog.Serialize(), restored->Serialize());
}

TEST(CatalogHardening, RejectsEveryTruncationPoint) {
  std::string image = SampleCatalog().Serialize();
  // A prefix of a valid image must never be silently accepted: cut at every
  // length and require a ParseError (full length must still load).
  for (size_t cut = 0; cut < image.size(); ++cut) {
    auto truncated = Catalog::Deserialize(image.substr(0, cut));
    ASSERT_FALSE(truncated.ok()) << "accepted a " << cut << "-byte prefix";
    EXPECT_EQ(truncated.status().code(), StatusCode::kParseError);
  }
  EXPECT_TRUE(Catalog::Deserialize(image).ok());
}

TEST(CatalogHardening, RejectsWrongFormatVersion) {
  std::string image = SampleCatalog().Serialize();
  // The u32 format version sits right after the 8-byte magic.
  image[8] = static_cast<char>(image[8] + 1);
  auto restored = Catalog::Deserialize(image);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kParseError);
  EXPECT_NE(restored.status().message().find("format version"),
            std::string::npos);
}

TEST(CatalogHardening, RejectsTrailingGarbage) {
  std::string image = SampleCatalog().Serialize();
  EXPECT_FALSE(Catalog::Deserialize(image + std::string("\0x", 2)).ok());
  EXPECT_FALSE(Catalog::Deserialize(image + "x").ok());
}

}  // namespace
}  // namespace idm::index
