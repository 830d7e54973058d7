// Inverted full-text index with positional postings: the from-scratch
// replacement for the Apache Lucene indexes of the paper's prototype
// (§7.2: the Name Index&Replica and the Content Index). Supports term,
// boolean AND and exact phrase queries. Not a replica: original text is
// not retained (paper: "that index is not able to return the original
// content component").
//
// Storage is Lucene-style: one compressed posting list per term, a byte
// blob of varint-encoded [doc-id delta, position count, position deltas...]
// records. Appending documents in increasing id order extends blobs in
// place. Removals, re-adds and inserts below a list's last doc splice the
// blob in place: only the one record changes, plus the doc delta of the
// record after it. The blob stays byte-for-byte the ascending-order
// encoding of its postings, so Serialize() images do not depend on the
// order of writes.
//
// Reads go through blocks (DESIGN.md §16): each term lazily gets a block
// index — runs of about kBlockDocs doc ids, each block encoded as delta
// varints or a bitset (whichever is smaller) with its [first, last] doc
// range acting as a skip pointer and the byte offset of its first blob
// record kept for targeted position decoding. TermDocs/AndDocs/PhraseDocs
// answer with block-wise range-skipping intersection and decode positions
// only for intersection survivors. A splice finds its record through the
// term's block index (building it on first touch). Writes keep a resident
// block index current instead of dropping it: an append extends or opens
// the tail block, and a splice re-encodes only its own block, so block
// sizes drift from kBlockDocs until the index is rebuilt (copy or
// restart). Nothing about Serialize()'s format depends on blocks.

#ifndef IDM_INDEX_INVERTED_INDEX_H_
#define IDM_INDEX_INVERTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/exec_context.h"
#include "util/result.h"

namespace idm::index {

/// Catalog-assigned view identifier (see catalog.h).
using DocId = uint64_t;

class InvertedIndex {
 public:
  InvertedIndex() = default;
  // Copies and moves carry the postings but not the lazily built block
  // cache (mutex/atomic members are not copyable; blocks rebuild on demand).
  InvertedIndex(const InvertedIndex& other);
  InvertedIndex& operator=(const InvertedIndex& other);
  InvertedIndex(InvertedIndex&& other) noexcept;
  InvertedIndex& operator=(InvertedIndex&& other) noexcept;

  /// Indexes \p text under \p id. Re-adding an id replaces its old text.
  void AddDocument(DocId id, const std::string& text);

  /// Removes a document from all posting lists. Unknown ids are a no-op.
  void RemoveDocument(DocId id);

  /// Documents containing \p term (document frequency), for idf weights.
  size_t DocumentFrequency(const std::string& term) const;

  /// --- queries ---------------------------------------------------------
  /// All answers are sorted ascending and served from the per-term block
  /// indexes. The optional ExecContext governs the read: each block a
  /// query decodes is charged its posting count (one step per posting,
  /// checked once per block), and a doomed context stops the read before
  /// that block's ids are used. The truncated answer is then a prefix of
  /// the complete one; callers must check ctx->status() before treating
  /// it as complete. Thread-safe against other readers; not against
  /// concurrent mutation.
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
  /// frequency (occurrence count), zipped from the block index and its tf
  /// sidecar — the raw material for tf-idf ranking. Ranking never ticks,
  /// so this read is ungoverned.
  std::vector<std::pair<DocId, uint32_t>> TermTfDocs(
      const std::string& term) const;

  /// Block-cache activity counters (stats.vm.* feeds from these).
  struct BlockStats {
    uint64_t built_lists = 0;    ///< term block indexes built so far
    uint64_t varint_blocks = 0;  ///< blocks resident in delta-varint form
    uint64_t bitset_blocks = 0;  ///< blocks resident in bitset form
    uint64_t block_bytes = 0;    ///< resident block bytes (docs payload)
    uint64_t skipped_blocks = 0; ///< blocks skipped by range disjointness
  };
  BlockStats block_stats() const;

  /// Bytes of the compressed postings representation actually resident:
  /// varint blobs plus whatever block indexes have been built.
  size_t CompressedPostingsBytes() const;

  /// Bytes a raw uncompressed postings layout would occupy (8 bytes per
  /// posting doc id + 4 bytes per position) — the Table 3 style baseline
  /// the compressed representation is measured against.
  size_t UncompressedPostingsBytes() const;

  size_t doc_count() const { return doc_terms_.size(); }
  size_t term_count() const { return lists_.size(); }
  uint64_t total_tokens() const { return total_tokens_; }

  /// Approximate memory footprint in bytes (posting blobs + dictionaries);
  /// used for the paper's Table 3 index-size accounting.
  size_t MemoryUsage() const;

  /// Deterministic binary image (term dictionary sorted by term, posting
  /// blobs verbatim, doc->terms map sorted by doc) for checkpoints.
  std::string Serialize() const;
  static Result<InvertedIndex> Deserialize(const std::string& data);

 private:
  struct TermList {
    uint32_t doc_count = 0;
    DocId last_doc = 0;  ///< highest doc id in the blob (append cursor)
    std::string blob;    ///< varint records, ascending doc order
  };

  /// One block of consecutive postings of a term: kBlockDocs when built,
  /// then one more or fewer per splice. [first, last] is the skip pointer;
  /// record_offset points at the block's first record in TermList::blob
  /// so position payloads can be decoded for exactly this block's docs
  /// without touching the rest of the list.
  struct PostingBlock {
    DocId first = 0;
    DocId last = 0;
    uint32_t count = 0;
    uint32_t record_offset = 0;
    bool dense = false;  ///< docs is a bitset over [first, last], else varints
    std::string docs;    ///< doc payload only — no positions
  };
  struct BlockIndex {
    std::vector<PostingBlock> blocks;
    /// Term frequency per doc, in list order across blocks — a sidecar
    /// captured during the build walk (and kept current by writes) so
    /// ranking never re-skips the blob's position varints. Counted in
    /// `bytes`.
    std::vector<uint32_t> tf;
    size_t bytes = 0;       ///< docs + tf payload bytes across blocks
    size_t dense_count = 0; ///< how many blocks chose the bitset form
  };

  uint32_t InternTerm(const std::string& term);
  const TermList* FindList(const std::string& raw_term) const;
  static void AppendRecord(TermList* list, DocId doc,
                           const std::vector<uint32_t>& positions);
  /// Removes \p doc's record from term \p tid's list (\p positions null)
  /// or inserts it with \p positions below the list's last doc, editing
  /// the blob and the term's block index in place. Returns the removed
  /// record's position count (0 for an insert or an absent doc).
  uint64_t Splice(uint32_t tid, DocId doc,
                  const std::vector<uint32_t>* positions);

  static BlockIndex BuildBlocks(const TermList& list);
  /// (Re-)encodes index->blocks[b] from its ascending, non-empty doc ids,
  /// keeping the index's byte and bitset totals current.
  static void EncodeBlock(const std::vector<DocId>& docs, BlockIndex* index,
                          size_t b);
  /// Adds an appended record (doc, tf, blob offset) to the tail block, or
  /// opens a new one when the tail is full.
  static void AppendToBlocks(BlockIndex* index, DocId doc, uint32_t tf,
                             size_t record_offset);
  static void AppendBlockDocs(const PostingBlock& block,
                              std::vector<DocId>* out);
  /// The block index of term id \p tid, built (and cached) on first use;
  /// with \p build false, only a resident one (else nullptr).
  BlockIndex* BlockedFor(uint32_t tid, bool build = true) const;
  /// Streaming position reader over one term's blob: Advance() moves
  /// forward-only through the record stream (docs must be requested in
  /// ascending order), decoding each record at most once and skipping
  /// whole blocks the target is past. Positions are decoded only for the
  /// requested doc; every other record's are varint-skipped.
  struct PositionCursor {
    const TermList* list = nullptr;
    const BlockIndex* blocks = nullptr;
    size_t block = 0;      ///< index into blocks->blocks
    uint32_t record = 0;   ///< records consumed in the current block
    size_t pos = 0;        ///< blob offset of the next record
    DocId current = 0;     ///< last decoded doc (valid when decoded)
    bool entered = false;  ///< pos/record primed for blocks[block]
    bool decoded = false;  ///< current holds a decoded doc

    /// Positions of \p doc, or false when the doc is not in the list (or
    /// the cursor has already streamed past it).
    bool Advance(DocId doc, std::vector<uint32_t>* out);
  };
  /// The doc ids of \p blocks, stopping before the first block \p ctx
  /// refuses (see the query section).
  static std::vector<DocId> BlockDocs(const BlockIndex& blocks,
                                      util::ExecContext* ctx);
  /// acc ∩ term-docs via block-range skipping; counts skipped blocks and
  /// charges \p ctx for the blocks it decodes.
  std::vector<DocId> IntersectWithBlocks(const std::vector<DocId>& acc,
                                         const BlockIndex& blocks,
                                         util::ExecContext* ctx) const;

  std::unordered_map<std::string, uint32_t> term_ids_;
  std::vector<TermList> lists_;
  // doc -> term ids it contributed (for removal/replacement).
  std::unordered_map<DocId, std::vector<uint32_t>> doc_terms_;
  uint64_t total_tokens_ = 0;

  /// Lazily built block indexes, keyed by term id. The mutex serializes
  /// concurrent readers racing to build the same term; mutations (which
  /// never run concurrently with queries) edit resident entries in place.
  mutable std::mutex blocks_mu_;
  mutable std::unordered_map<uint32_t, std::unique_ptr<BlockIndex>> blocks_;
  mutable std::atomic<uint64_t> blocks_built_{0};
  mutable std::atomic<uint64_t> blocks_skipped_{0};
};

}  // namespace idm::index

#endif  // IDM_INDEX_INVERTED_INDEX_H_
