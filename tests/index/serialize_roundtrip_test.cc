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
