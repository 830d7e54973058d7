#include "index/inverted_index.h"

#include <algorithm>

#include "index/analyzer.h"
#include "util/codec.h"

namespace idm::index {

namespace {

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

uint64_t GetVarint(const std::string& in, size_t* pos) {
  uint64_t value = 0;
  int shift = 0;
  while (*pos < in.size()) {
    uint8_t byte = static_cast<uint8_t>(in[(*pos)++]);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

/// One posting record: doc-id delta, position count, position deltas.
void PutRecord(std::string* out, DocId doc_delta,
               const std::vector<uint32_t>& positions) {
  PutVarint(out, doc_delta);
  PutVarint(out, positions.size());
  uint32_t prev = 0;
  for (uint32_t pos : positions) {
    PutVarint(out, pos - prev);
    prev = pos;
  }
}

/// Moves \p pos past one whole record; returns its position count.
uint64_t SkipRecord(const std::string& blob, size_t* pos) {
  GetVarint(blob, pos);
  uint64_t count = GetVarint(blob, pos);
  for (uint64_t j = 0; j < count; ++j) GetVarint(blob, pos);
  return count;
}

/// Postings per block: small enough that decoding one block for phrase
/// verification is cheap, large enough that skip pointers pay off.
constexpr uint32_t kBlockDocs = 128;

}  // namespace

void InvertedIndex::AppendRecord(TermList* list, DocId doc,
                                 const std::vector<uint32_t>& positions) {
  PutRecord(&list->blob, doc - (list->doc_count == 0 ? 0 : list->last_doc),
            positions);
  list->last_doc = doc;
  ++list->doc_count;
}

uint32_t InvertedIndex::InternTerm(const std::string& term) {
  auto it = term_ids_.find(term);
  if (it != term_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(lists_.size());
  term_ids_.emplace(term, id);
  lists_.emplace_back();
  return id;
}

const InvertedIndex::TermList* InvertedIndex::FindList(
    const std::string& raw_term) const {
  auto it = term_ids_.find(raw_term);
  return it == term_ids_.end() ? nullptr : &lists_[it->second];
}

InvertedIndex::InvertedIndex(const InvertedIndex& other)
    : term_ids_(other.term_ids_),
      lists_(other.lists_),
      doc_terms_(other.doc_terms_),
      total_tokens_(other.total_tokens_) {}

InvertedIndex& InvertedIndex::operator=(const InvertedIndex& other) {
  if (this == &other) return *this;
  term_ids_ = other.term_ids_;
  lists_ = other.lists_;
  doc_terms_ = other.doc_terms_;
  total_tokens_ = other.total_tokens_;
  std::lock_guard<std::mutex> lock(blocks_mu_);
  blocks_.clear();
  return *this;
}

InvertedIndex::InvertedIndex(InvertedIndex&& other) noexcept
    : term_ids_(std::move(other.term_ids_)),
      lists_(std::move(other.lists_)),
      doc_terms_(std::move(other.doc_terms_)),
      total_tokens_(other.total_tokens_) {}

InvertedIndex& InvertedIndex::operator=(InvertedIndex&& other) noexcept {
  if (this == &other) return *this;
  term_ids_ = std::move(other.term_ids_);
  lists_ = std::move(other.lists_);
  doc_terms_ = std::move(other.doc_terms_);
  total_tokens_ = other.total_tokens_;
  std::lock_guard<std::mutex> lock(blocks_mu_);
  blocks_.clear();
  return *this;
}

void InvertedIndex::AddDocument(DocId id, const std::string& text) {
  if (doc_terms_.count(id) > 0) RemoveDocument(id);

  std::vector<Token> tokens = Tokenize(text);
  total_tokens_ += tokens.size();
  // Group positions per term (tokens arrive in position order).
  std::unordered_map<std::string, std::vector<uint32_t>> term_positions;
  for (Token& token : tokens) {
    term_positions[std::move(token.term)].push_back(token.position);
  }

  std::vector<uint32_t> term_ids;
  term_ids.reserve(term_positions.size());
  for (auto& [term, positions] : term_positions) {
    uint32_t tid = InternTerm(term);
    TermList& list = lists_[tid];
    if (list.doc_count == 0 || list.last_doc < id) {
      // Fast path: in-order append; a resident block index grows its tail.
      const size_t offset = list.blob.size();
      AppendRecord(&list, id, positions);
      if (BlockIndex* blocks = BlockedFor(tid, /*build=*/false)) {
        AppendToBlocks(blocks, id, static_cast<uint32_t>(positions.size()),
                       offset);
      }
    } else {
      Splice(tid, id, &positions);
    }
    term_ids.push_back(tid);
  }
  std::sort(term_ids.begin(), term_ids.end());
  term_ids.shrink_to_fit();
  doc_terms_.emplace(id, std::move(term_ids));
}

void InvertedIndex::RemoveDocument(DocId id) {
  auto it = doc_terms_.find(id);
  if (it == doc_terms_.end()) return;
  for (uint32_t tid : it->second) total_tokens_ -= Splice(tid, id, nullptr);
  doc_terms_.erase(it);
}

size_t InvertedIndex::DocumentFrequency(const std::string& term) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return 0;
  const TermList* list = FindList(normalized[0]);
  return list == nullptr ? 0 : list->doc_count;
}

namespace {
constexpr uint64_t kContentMagic = 0x69444D31434E5431ULL;  // "iDM1CNT1"
constexpr uint32_t kContentFormatVersion = 1;
}  // namespace

std::string InvertedIndex::Serialize() const {
  std::string out;
  codec::PutU64(&out, kContentMagic);
  codec::PutU32(&out, kContentFormatVersion);
  codec::PutU64(&out, total_tokens_);
  // Term dictionary + posting blobs, sorted by term text so the image is
  // independent of hash-map iteration order. Term ids are preserved: the
  // blobs do not reference them, but doc_terms_ does.
  std::vector<const std::pair<const std::string, uint32_t>*> terms;
  terms.reserve(term_ids_.size());
  for (const auto& entry : term_ids_) terms.push_back(&entry);
  std::sort(terms.begin(), terms.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  codec::PutU64(&out, terms.size());
  for (const auto* entry : terms) {
    const TermList& list = lists_[entry->second];
    codec::PutString(&out, entry->first);
    codec::PutU32(&out, entry->second);
    codec::PutU32(&out, list.doc_count);
    codec::PutU64(&out, list.last_doc);
    codec::PutString(&out, list.blob);
  }
  std::vector<DocId> docs;
  docs.reserve(doc_terms_.size());
  for (const auto& [doc, term_list] : doc_terms_) docs.push_back(doc);
  std::sort(docs.begin(), docs.end());
  codec::PutU64(&out, docs.size());
  for (DocId doc : docs) {
    const std::vector<uint32_t>& term_list = doc_terms_.at(doc);
    codec::PutU64(&out, doc);
    codec::PutU64(&out, term_list.size());
    for (uint32_t term : term_list) codec::PutU32(&out, term);
  }
  return out;
}

Result<InvertedIndex> InvertedIndex::Deserialize(const std::string& data) {
  size_t pos = 0;
  uint64_t magic = 0;
  uint32_t version = 0;
  if (!codec::GetU64(data, &pos, &magic) || magic != kContentMagic) {
    return Status::ParseError("not a serialized content index");
  }
  if (!codec::GetU32(data, &pos, &version) ||
      version != kContentFormatVersion) {
    return Status::ParseError("unsupported content index format version");
  }
  InvertedIndex index;
  uint64_t n_terms = 0;
  if (!codec::GetU64(data, &pos, &index.total_tokens_) ||
      !codec::GetU64(data, &pos, &n_terms)) {
    return Status::ParseError("truncated content index");
  }
  if (n_terms > (data.size() - pos) / 24) {
    return Status::ParseError("truncated term table");
  }
  index.lists_.resize(n_terms);
  std::vector<bool> seen(n_terms, false);
  for (uint64_t i = 0; i < n_terms; ++i) {
    std::string term;
    uint32_t term_id = 0;
    TermList list;
    if (!codec::GetString(data, &pos, &term) ||
        !codec::GetU32(data, &pos, &term_id) ||
        !codec::GetU32(data, &pos, &list.doc_count) ||
        !codec::GetU64(data, &pos, &list.last_doc) ||
        !codec::GetString(data, &pos, &list.blob)) {
      return Status::ParseError("truncated term entry");
    }
    if (term_id >= n_terms || seen[term_id]) {
      return Status::ParseError("invalid term id");
    }
    seen[term_id] = true;
    index.lists_[term_id] = std::move(list);
    index.term_ids_.emplace(std::move(term), term_id);
  }
  uint64_t n_docs = 0;
  if (!codec::GetU64(data, &pos, &n_docs)) {
    return Status::ParseError("truncated doc table");
  }
  for (uint64_t i = 0; i < n_docs; ++i) {
    uint64_t doc = 0, n = 0;
    if (!codec::GetU64(data, &pos, &doc) || !codec::GetU64(data, &pos, &n)) {
      return Status::ParseError("truncated doc entry");
    }
    if (n > (data.size() - pos) / 4) {
      return Status::ParseError("truncated doc term list");
    }
    std::vector<uint32_t> term_list;
    term_list.reserve(n);
    for (uint64_t t = 0; t < n; ++t) {
      uint32_t term = 0;
      if (!codec::GetU32(data, &pos, &term)) {
        return Status::ParseError("truncated doc term list");
      }
      if (term >= n_terms) return Status::ParseError("invalid doc term id");
      term_list.push_back(term);
    }
    index.doc_terms_.emplace(doc, std::move(term_list));
  }
  if (pos != data.size()) return Status::ParseError("trailing bytes");
  return index;
}

// --- block indexes: build, in-place upkeep, blocked query path ---------

void InvertedIndex::EncodeBlock(const std::vector<DocId>& docs,
                                BlockIndex* index, size_t b) {
  PostingBlock& block = index->blocks[b];
  index->bytes -= block.docs.size();
  index->dense_count -= block.dense;
  block.first = docs.front();
  block.last = docs.back();
  block.count = static_cast<uint32_t>(docs.size());
  // Delta-varint form first; switch to a bitset when it is smaller (a
  // dense run of near-consecutive ids packs to one bit per slot).
  std::string varints;
  for (size_t i = 1; i < docs.size(); ++i) {
    PutVarint(&varints, docs[i] - docs[i - 1]);
  }
  const uint64_t span = block.last - block.first + 1;
  const size_t bitset_bytes = static_cast<size_t>((span + 7) / 8);
  block.dense = bitset_bytes < varints.size();
  if (block.dense) {
    block.docs.assign(bitset_bytes, '\0');
    for (DocId doc : docs) {
      uint64_t bit = doc - block.first;
      block.docs[bit >> 3] |= static_cast<char>(1u << (bit & 7));
    }
  } else {
    block.docs = std::move(varints);
  }
  index->bytes += block.docs.size();
  index->dense_count += block.dense;
}

InvertedIndex::BlockIndex InvertedIndex::BuildBlocks(const TermList& list) {
  BlockIndex index;
  if (list.doc_count == 0) return index;
  index.blocks.reserve((list.doc_count + kBlockDocs - 1) / kBlockDocs);
  index.tf.reserve(list.doc_count);

  std::vector<DocId> run;
  run.reserve(kBlockDocs);
  size_t pos = 0;
  DocId doc = 0;
  for (uint32_t i = 0; i < list.doc_count; ++i) {
    if (run.empty()) {
      index.blocks.emplace_back().record_offset = static_cast<uint32_t>(pos);
    }
    doc += GetVarint(list.blob, &pos);
    uint64_t count = GetVarint(list.blob, &pos);
    for (uint64_t j = 0; j < count; ++j) GetVarint(list.blob, &pos);
    run.push_back(doc);
    index.tf.push_back(static_cast<uint32_t>(count));
    if (run.size() == kBlockDocs || i + 1 == list.doc_count) {
      EncodeBlock(run, &index, index.blocks.size() - 1);
      run.clear();
    }
  }
  index.bytes += index.tf.size() * sizeof(uint32_t);
  return index;
}

void InvertedIndex::AppendToBlocks(BlockIndex* index, DocId doc, uint32_t tf,
                                   size_t record_offset) {
  std::vector<DocId> docs;
  if (index->blocks.empty() || index->blocks.back().count >= kBlockDocs) {
    index->blocks.emplace_back().record_offset =
        static_cast<uint32_t>(record_offset);
  } else {
    AppendBlockDocs(index->blocks.back(), &docs);
  }
  docs.push_back(doc);
  EncodeBlock(docs, index, index->blocks.size() - 1);
  index->tf.push_back(tf);
  index->bytes += sizeof(uint32_t);
}

uint64_t InvertedIndex::Splice(uint32_t tid, DocId doc,
                               const std::vector<uint32_t>* positions) {
  TermList& list = lists_[tid];
  BlockIndex& index = *BlockedFor(tid, /*build=*/true);
  std::vector<PostingBlock>& blocks = index.blocks;
  // The block holding doc — for an insert, the first block ending past it
  // (one exists: inserts land below last_doc).
  const size_t b =
      std::partition_point(blocks.begin(), blocks.end(),
                           [doc](const PostingBlock& block) {
                             return block.last < doc;
                           }) -
      blocks.begin();
  if (b == blocks.size()) return 0;
  std::vector<DocId> docs;
  AppendBlockDocs(blocks[b], &docs);
  const size_t slot =
      std::lower_bound(docs.begin(), docs.end(), doc) - docs.begin();
  const bool insert = positions != nullptr;
  if (!insert && docs[slot] != doc) return 0;

  // [start, end) is what the patch replaces: the removed record or, for an
  // insert, nothing — plus the doc delta of the record after the splice
  // point, which is re-based on the new predecessor.
  size_t start = blocks[b].record_offset;
  for (size_t i = 0; i < slot; ++i) SkipRecord(list.blob, &start);
  const DocId prev = slot > 0 ? docs[slot - 1]
                     : b > 0  ? blocks[b - 1].last
                              : 0;  // the list's first record: absolute id
  size_t end = start;
  uint64_t removed_tf = 0;
  std::string patch;
  if (insert) {
    PutRecord(&patch, doc - prev, *positions);
    GetVarint(list.blob, &end);
    PutVarint(&patch, docs[slot] - doc);
  } else {
    removed_tf = SkipRecord(list.blob, &end);
    if (end < list.blob.size()) {
      const DocId next =
          slot + 1 < docs.size() ? docs[slot + 1] : blocks[b + 1].first;
      GetVarint(list.blob, &end);
      PutVarint(&patch, next - prev);
    }
  }
  const int64_t shift =
      static_cast<int64_t>(patch.size()) - static_cast<int64_t>(end - start);
  list.blob.replace(start, end - start, patch);

  // Block index: one tf entry moves, later blocks' records move by
  // `shift` — except a successor that opens the next block, which now
  // starts where the removed record did — and this block re-encodes.
  size_t tf_at = slot;
  for (size_t k = 0; k < b; ++k) tf_at += blocks[k].count;
  size_t later = b + 1;
  if (insert) {
    docs.insert(docs.begin() + slot, doc);
    index.tf.insert(index.tf.begin() + tf_at,
                    static_cast<uint32_t>(positions->size()));
    index.bytes += sizeof(uint32_t);
    ++list.doc_count;
  } else {
    if (slot + 1 == docs.size() && later < blocks.size()) {
      blocks[later++].record_offset = static_cast<uint32_t>(start);
    }
    docs.erase(docs.begin() + slot);
    index.tf.erase(index.tf.begin() + tf_at);
    index.bytes -= sizeof(uint32_t);
    --list.doc_count;
    if (doc == list.last_doc) list.last_doc = prev;
  }
  for (; later < blocks.size(); ++later) {
    blocks[later].record_offset =
        static_cast<uint32_t>(blocks[later].record_offset + shift);
  }
  if (docs.empty()) {
    index.bytes -= blocks[b].docs.size();
    index.dense_count -= blocks[b].dense;
    blocks.erase(blocks.begin() + b);
  } else {
    EncodeBlock(docs, &index, b);
  }
  return removed_tf;
}

void InvertedIndex::AppendBlockDocs(const PostingBlock& block,
                                    std::vector<DocId>* out) {
  if (block.dense) {
    for (size_t byte = 0; byte < block.docs.size(); ++byte) {
      uint8_t bits = static_cast<uint8_t>(block.docs[byte]);
      while (bits != 0) {
        int bit = __builtin_ctz(bits);
        out->push_back(block.first + (byte << 3) + bit);
        bits &= bits - 1;
      }
    }
    return;
  }
  DocId doc = block.first;
  out->push_back(doc);
  size_t pos = 0;
  for (uint32_t i = 1; i < block.count; ++i) {
    doc += GetVarint(block.docs, &pos);
    out->push_back(doc);
  }
}

InvertedIndex::BlockIndex* InvertedIndex::BlockedFor(uint32_t tid,
                                                     bool build) const {
  {
    std::lock_guard<std::mutex> lock(blocks_mu_);
    auto it = blocks_.find(tid);
    if (it != blocks_.end()) return it->second.get();
  }
  if (!build) return nullptr;
  auto built = std::make_unique<BlockIndex>(BuildBlocks(lists_[tid]));
  std::lock_guard<std::mutex> lock(blocks_mu_);
  auto [it, inserted] = blocks_.emplace(tid, std::move(built));
  if (inserted) blocks_built_.fetch_add(1, std::memory_order_relaxed);
  return it->second.get();
}

bool InvertedIndex::PositionCursor::Advance(DocId doc,
                                            std::vector<uint32_t>* out) {
  const std::vector<PostingBlock>& skip = blocks->blocks;
  while (block < skip.size() && skip[block].last < doc) {
    ++block;
    entered = false;
  }
  if (block >= skip.size()) return false;
  const PostingBlock& here = skip[block];
  if (doc < here.first) return false;
  if (!entered) {
    // The skip pointer bounds the decode to this block's records.
    pos = here.record_offset;
    record = 0;
    entered = true;
    decoded = false;
  }
  // A record already streamed past the target means the doc is absent.
  if (decoded && current >= doc) return false;
  while (record < here.count) {
    DocId delta = GetVarint(list->blob, &pos);
    // Doc deltas are relative to the PREVIOUS record, which for the
    // block's first record lives outside the block; its absolute id is
    // the skip entry's `first`.
    current = (record == 0) ? here.first : current + delta;
    ++record;
    decoded = true;
    uint64_t count = GetVarint(list->blob, &pos);
    if (current == doc) {
      out->clear();
      out->reserve(count);
      uint32_t position = 0;
      for (uint64_t j = 0; j < count; ++j) {
        position += static_cast<uint32_t>(GetVarint(list->blob, &pos));
        out->push_back(position);
      }
      return true;
    }
    for (uint64_t j = 0; j < count; ++j) GetVarint(list->blob, &pos);
    if (current > doc) return false;
  }
  return false;
}

std::vector<DocId> InvertedIndex::BlockDocs(const BlockIndex& blocks,
                                            util::ExecContext* ctx) {
  std::vector<DocId> out;
  out.reserve(blocks.tf.size());
  for (const PostingBlock& block : blocks.blocks) {
    if (ctx != nullptr && !ctx->TickAlive(block.count)) break;
    AppendBlockDocs(block, &out);
  }
  return out;
}

std::vector<DocId> InvertedIndex::IntersectWithBlocks(
    const std::vector<DocId>& acc, const BlockIndex& blocks,
    util::ExecContext* ctx) const {
  std::vector<DocId> out;
  if (acc.empty() || blocks.blocks.empty()) return out;
  std::vector<DocId> scratch;
  auto acc_it = acc.begin();
  for (const PostingBlock& block : blocks.blocks) {
    // Skip pointers: fast-forward past blocks wholly below the accumulator
    // cursor and stop once blocks start past its end.
    if (block.last < *acc_it) {
      blocks_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (block.first > acc.back()) {
      blocks_skipped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (ctx != nullptr && !ctx->TickAlive(block.count)) break;
    scratch.clear();
    AppendBlockDocs(block, &scratch);
    auto lo = std::lower_bound(acc_it, acc.end(), block.first);
    auto hi = std::upper_bound(lo, acc.end(), block.last);
    std::set_intersection(lo, hi, scratch.begin(), scratch.end(),
                          std::back_inserter(out));
    acc_it = hi;
    if (acc_it == acc.end()) break;
  }
  return out;
}

std::vector<DocId> InvertedIndex::TermDocs(const std::string& term,
                                           util::ExecContext* ctx) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return AndDocs(normalized, ctx);
  auto it = term_ids_.find(normalized[0]);
  if (it == term_ids_.end()) return {};
  return BlockDocs(*BlockedFor(it->second), ctx);
}

std::vector<std::pair<DocId, uint32_t>> InvertedIndex::TermTfDocs(
    const std::string& term) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return {};  // single terms only
  auto it = term_ids_.find(normalized[0]);
  if (it == term_ids_.end()) return {};
  const BlockIndex* blocks = BlockedFor(it->second);
  std::vector<DocId> docs = BlockDocs(*blocks, nullptr);
  std::vector<std::pair<DocId, uint32_t>> out;
  out.reserve(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    out.emplace_back(docs[i], blocks->tf[i]);
  }
  return out;
}

std::vector<DocId> InvertedIndex::AndDocs(const std::vector<std::string>& terms,
                                          util::ExecContext* ctx) const {
  if (terms.empty()) return {};
  // Resolve all terms first (a missing term empties the intersection),
  // then fold starting from the rarest list — the accumulator can only
  // shrink, so the block-skip intersection does the least possible work.
  std::vector<uint32_t> tids;
  tids.reserve(terms.size());
  for (const std::string& term : terms) {
    for (const std::string& token : PhraseTerms(term)) {
      auto it = term_ids_.find(token);
      if (it == term_ids_.end()) return {};
      tids.push_back(it->second);
    }
  }
  if (tids.empty()) return {};
  std::sort(tids.begin(), tids.end(), [this](uint32_t a, uint32_t b) {
    return lists_[a].doc_count < lists_[b].doc_count;
  });
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  std::vector<DocId> acc = BlockDocs(*BlockedFor(tids[0]), ctx);
  for (size_t i = 1; i < tids.size() && !acc.empty(); ++i) {
    acc = IntersectWithBlocks(acc, *BlockedFor(tids[i]), ctx);
  }
  return acc;
}

std::vector<DocId> InvertedIndex::PhraseDocs(const std::string& phrase,
                                             util::ExecContext* ctx) const {
  std::vector<std::string> terms = PhraseTerms(phrase);
  if (terms.empty()) return {};
  if (terms.size() == 1) return TermDocs(terms[0], ctx);

  std::vector<uint32_t> tids;
  tids.reserve(terms.size());
  for (const std::string& term : terms) {
    auto it = term_ids_.find(term);
    if (it == term_ids_.end()) return {};  // a missing term kills the phrase
    tids.push_back(it->second);
  }

  // Candidate docs: block-skip intersection of all term doc sets, rarest
  // first. Only the survivors ever have positions decoded. A governed
  // read that stops early leaves a prefix of the candidates, and so a
  // prefix of the phrase's documents.
  std::vector<DocId> candidates = AndDocs(terms, ctx);
  if (candidates.empty()) return candidates;

  // One forward-only cursor per term: candidates are sorted, so each
  // record in each list is decoded at most once across the whole phrase.
  std::vector<PositionCursor> cursors(tids.size());
  for (size_t k = 0; k < tids.size(); ++k) {
    cursors[k].list = &lists_[tids[k]];
    cursors[k].blocks = BlockedFor(tids[k]);
  }
  std::vector<std::vector<uint32_t>> positions(tids.size());
  std::vector<DocId> out;
  for (DocId doc : candidates) {
    bool have_all = true;
    for (size_t k = 0; k < tids.size() && have_all; ++k) {
      have_all = cursors[k].Advance(doc, &positions[k]);
    }
    if (!have_all) continue;  // defensive: candidates came from these lists
    bool matched = false;
    for (uint32_t start : positions[0]) {
      bool consecutive = true;
      for (size_t k = 1; k < tids.size(); ++k) {
        if (!std::binary_search(positions[k].begin(), positions[k].end(),
                                start + static_cast<uint32_t>(k))) {
          consecutive = false;
          break;
        }
      }
      if (consecutive) {
        matched = true;
        break;
      }
    }
    if (matched) out.push_back(doc);
  }
  return out;
}

InvertedIndex::BlockStats InvertedIndex::block_stats() const {
  BlockStats stats;
  stats.built_lists = blocks_built_.load(std::memory_order_relaxed);
  stats.skipped_blocks = blocks_skipped_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(blocks_mu_);
  for (const auto& [tid, index] : blocks_) {
    stats.block_bytes += index->bytes;
    stats.bitset_blocks += index->dense_count;
    stats.varint_blocks += index->blocks.size() - index->dense_count;
  }
  return stats;
}

size_t InvertedIndex::CompressedPostingsBytes() const {
  size_t total = 0;
  for (const TermList& list : lists_) total += list.blob.size();
  std::lock_guard<std::mutex> lock(blocks_mu_);
  for (const auto& [tid, index] : blocks_) {
    total += index->bytes + index->blocks.size() * sizeof(PostingBlock);
  }
  return total;
}

size_t InvertedIndex::UncompressedPostingsBytes() const {
  size_t postings = 0;
  for (const TermList& list : lists_) postings += list.doc_count;
  return postings * sizeof(DocId) +
         static_cast<size_t>(total_tokens_) * sizeof(uint32_t);
}

size_t InvertedIndex::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [term, tid] : term_ids_) {
    total += sizeof(tid) + sizeof(term) + term.capacity() + 16;  // bucket
  }
  for (const TermList& list : lists_) {
    total += sizeof(TermList) + list.blob.capacity();
  }
  for (const auto& [id, term_ids] : doc_terms_) {
    total += sizeof(id) + sizeof(term_ids) +
             term_ids.capacity() * sizeof(uint32_t) + 16;  // bucket
  }
  return total;
}

}  // namespace idm::index
