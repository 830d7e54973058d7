// Inverted full-text index with positional postings: the from-scratch
// replacement for the Apache Lucene indexes of the paper's prototype
// (§7.2: the Name Index&Replica and the Content Index). Supports term,
// boolean AND and exact phrase queries. Not a replica: original text is
// not retained (paper: "that index is not able to return the original
// content component").
//
// Storage (DESIGN.md §16) is one list of blocks per term, each holding
// about kBlockDocs consecutive postings: its [first, last] doc range (the
// skip pointer), its doc ids as delta varints or a bitset over the range
// (whichever is smaller) followed by one tf varint per doc, and each doc's
// position deltas as varints. Blocks are the only postings store: reads
// decode them, writes edit them and checkpoints copy them.
//
// The tail block stays in varint form, so an append extends it; only a
// full tail (kBlockDocs postings) is sealed in its smaller form as a new
// one opens. A removal, a re-add or an insert below a list's last doc
// re-encodes only its own block (a tail again as varints): an emptied
// block is erased and one grown past 2 * kBlockDocs splits. Block bounds
// thus follow the order of writes, and so does the Serialize() image,
// which carries the blocks verbatim: Serialize(Deserialize(image)) ==
// image, and equal write histories give equal images.

#ifndef IDM_INDEX_INVERTED_INDEX_H_
#define IDM_INDEX_INVERTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/exec_context.h"
#include "util/result.h"

namespace idm::index {

/// Catalog-assigned view identifier (see catalog.h).
using DocId = uint64_t;

/// One block of consecutive postings of a term (see the file comment).
struct PostingBlock {
  DocId first = 0;
  DocId last = 0;
  uint32_t count = 0;
  uint32_t tf_at = 0;  ///< where the tf varints start in `ids`
  bool dense = false;  ///< the doc payload is a bitset over [first, last]
  /// The doc payload (ids after `first` as delta varints, or the bitset),
  /// then one tf varint (position count) per doc.
  std::string ids;
  std::string positions;  ///< per doc, its tf position deltas from 0
};

class InvertedIndex {
 public:
  /// Indexes \p text under \p id. Re-adding an id replaces its old text.
  void AddDocument(DocId id, const std::string& text);

  /// Removes a document from all posting lists. Unknown ids are a no-op.
  void RemoveDocument(DocId id);

  /// Documents containing \p term (document frequency), for idf weights.
  size_t DocumentFrequency(const std::string& term) const;

  /// --- queries ---------------------------------------------------------
  /// All answers are sorted ascending and decoded from the blocks. The
  /// optional ExecContext governs the read: each block a query decodes is
  /// charged its posting count, and phrase verification is charged the
  /// position records it walks per candidate (one step per posting,
  /// checked once per block or candidate). A doomed context stops the
  /// read before the refused work is used, so the truncated answer is a
  /// prefix of the complete one; callers must check ctx->status() before
  /// treating it as complete. Reads change nothing but the relaxed
  /// skipped-block counter, so they are thread-safe against each other;
  /// not against concurrent mutation.
  ///
  /// Ids whose text contains \p term (normalized); a multi-token \p term
  /// is an AndDocs over its tokens.
  std::vector<DocId> TermDocs(const std::string& term,
                              util::ExecContext* ctx = nullptr) const;
  /// Ids containing *all* terms.
  std::vector<DocId> AndDocs(const std::vector<std::string>& terms,
                             util::ExecContext* ctx = nullptr) const;
  /// Ids containing the terms of \p phrase at consecutive positions. A
  /// single-term phrase degenerates to TermDocs; an empty phrase matches
  /// nothing.
  std::vector<DocId> PhraseDocs(const std::string& phrase,
                                util::ExecContext* ctx = nullptr) const;
  /// Each document containing the single term \p term with its term
  /// frequency (occurrence count), from the blocks' tf varints — the raw
  /// material for tf-idf ranking. Ranking never ticks, so this read is
  /// ungoverned.
  std::vector<std::pair<DocId, uint32_t>> TermTfDocs(
      const std::string& term) const;

  /// Block counters (Dataspace::Stats().postings).
  struct BlockStats {
    uint64_t built_lists = 0;    ///< posting lists holding at least one block
    uint64_t block_bytes = 0;    ///< block payload: docs, tf and positions
    uint64_t skipped_blocks = 0; ///< blocks skipped by range disjointness
  };
  BlockStats block_stats() const;

  /// Bytes of the compressed postings representation: block payloads
  /// plus the block structs.
  size_t CompressedPostingsBytes() const;

  /// Bytes a raw uncompressed postings layout would occupy (8 bytes per
  /// posting doc id + 4 bytes per position) — the Table 3 style baseline
  /// the compressed representation is measured against.
  size_t UncompressedPostingsBytes() const;

  size_t doc_count() const { return doc_terms_.size(); }
  size_t term_count() const { return lists_.size(); }
  uint64_t total_tokens() const { return total_tokens_; }

  /// Resident footprint in bytes (dictionary, block structs and payload
  /// heap capacity, doc->terms map); the paper's Table 3 index size.
  size_t MemoryUsage() const;

  /// Binary checkpoint image (content-image format 2): the term
  /// dictionary sorted by term with each list's blocks verbatim, then the
  /// doc->terms map sorted by doc. Deserialize rejects truncated or
  /// inconsistent images with a Status (a block stream that does not
  /// decode to its counts, tf counts not summing to total_tokens()).
  std::string Serialize() const;
  static Result<InvertedIndex> Deserialize(const std::string& data);

 private:
  struct TermList {
    uint32_t doc_count = 0;
    std::vector<PostingBlock> blocks;  ///< ascending and disjoint
  };
  /// A relaxed statistics counter that reads bump; copies carry the value.
  struct Counter {
    mutable std::atomic<uint64_t> value{0};
    Counter() = default;
    Counter(const Counter& other) : value(other.value.load()) {}
    Counter& operator=(const Counter& other) {
      value.store(other.value.load());
      return *this;
    }
  };

  uint32_t InternTerm(const std::string& term);
  const TermList* FindList(const std::string& raw_term) const;
  /// Adds \p doc, above the list's last doc, to the tail block.
  void Append(TermList* list, DocId doc,
              const std::vector<uint32_t>& positions);
  /// Removes \p doc's record from \p list (\p positions null) or inserts
  /// it with \p positions below the list's last doc, re-encoding only the
  /// block that holds it. Returns the removed record's position count (0
  /// for an insert or an absent doc).
  uint64_t Splice(TermList* list, DocId doc,
                  const std::vector<uint32_t>* positions);

  /// acc ∩ term-docs via block-range skipping; counts skipped blocks and
  /// charges \p ctx for the blocks it decodes.
  std::vector<DocId> IntersectWithBlocks(const std::vector<DocId>& acc,
                                         const TermList& list,
                                         util::ExecContext* ctx) const;

  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<TermList> lists_;
  // doc -> term ids it contributed (for removal/replacement).
  std::unordered_map<DocId, std::vector<uint32_t>> doc_terms_;
  uint64_t total_tokens_ = 0;
  uint64_t payload_bytes_ = 0;  ///< sum of every block's payload sizes
  uint64_t held_lists_ = 0;     ///< lists with at least one block
  Counter blocks_skipped_;
};

}  // namespace idm::index

#endif  // IDM_INDEX_INVERTED_INDEX_H_
