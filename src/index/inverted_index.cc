#include "index/inverted_index.h"

#include <algorithm>
#include <string_view>

#include "index/analyzer.h"
#include "util/codec.h"

namespace idm::index {

namespace {

/// Postings per block: small enough that decoding one block for phrase
/// verification is cheap, large enough that skip pointers pay off.
constexpr uint32_t kBlockDocs = 128;

constexpr uint64_t kContentMagic = 0x69444D31434E5431ULL;  // "iDM1CNT1"
constexpr uint32_t kContentFormatVersion = 2;
/// Smallest encodings of a term entry and of a block (empty strings), the
/// bounds on counts read from an image.
constexpr size_t kMinTermBytes = 8 + 4 + 4 + 8;
constexpr size_t kMinBlockBytes = 8 + 8 + 4 + 4 + 4 + 2 * 8;

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

/// Bounds-checked: a truncated or overlong varint ends at the end of \p in.
uint64_t GetVarint(std::string_view in, size_t* pos) {
  uint64_t value = 0;
  for (int shift = 0; *pos < in.size(); shift += 7) {
    const uint8_t byte = static_cast<uint8_t>(in[(*pos)++]);
    if (shift < 64) value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
  }
  return value;
}

/// Moves *pos past \p n varints, stopping at the end of \p in.
void SkipVarints(std::string_view in, size_t* pos, uint64_t n) {
  while (n > 0 && *pos < in.size()) {
    if ((static_cast<uint8_t>(in[(*pos)++]) & 0x80) == 0) --n;
  }
}

/// The number of varints in \p in; UINT64_MAX when its last is cut short.
uint64_t VarintCount(std::string_view in) {
  if (!in.empty() && (static_cast<uint8_t>(in.back()) & 0x80) != 0) {
    return UINT64_MAX;
  }
  uint64_t count = 0;
  for (char byte : in) count += (static_cast<uint8_t>(byte) & 0x80) == 0;
  return count;
}

/// One doc's positions as deltas, the first from 0.
void PutPositions(std::string* out, const std::vector<uint32_t>& positions) {
  uint32_t prev = 0;
  for (uint32_t pos : positions) {
    PutVarint(out, pos - prev);
    prev = pos;
  }
}

/// \p s with bytes [at, end) replaced by \p patch, in a string sized to fit.
std::string Spliced(std::string_view s, size_t at, size_t end,
                    std::string_view patch) {
  std::string out;
  out.reserve(s.size() - (end - at) + patch.size());
  out.append(s.substr(0, at)).append(patch).append(s.substr(end));
  return out;
}

/// Frees \p s's spare capacity when it exceeds a quarter of its size.
void Trim(std::string* s) {
  if (s->capacity() - s->size() > s->size() / 4) s->shrink_to_fit();
}

/// Heap bytes behind \p s (none while it fits the inline buffer).
size_t HeapBytes(const std::string& s) {
  static const size_t kInline = std::string().capacity();
  return s.capacity() > kInline ? s.capacity() + 1 : 0;
}

size_t PayloadBytes(const PostingBlock& block) {
  return block.ids.size() + block.positions.size();
}

std::string_view TfStream(const PostingBlock& block) {
  return std::string_view(block.ids).substr(block.tf_at);
}

/// Calls \p fn with each doc id of \p block, ascending.
template <typename Fn>
void ForEachDoc(const PostingBlock& block, Fn&& fn) {
  if (block.dense) {
    for (size_t byte = 0; byte < block.tf_at; ++byte) {
      uint8_t bits = static_cast<uint8_t>(block.ids[byte]);
      while (bits != 0) {
        fn(block.first + (byte << 3) + __builtin_ctz(bits));
        bits &= bits - 1;
      }
    }
    return;
  }
  DocId doc = block.first;
  fn(doc);
  size_t pos = 0;
  for (uint32_t i = 1; i < block.count; ++i) {
    doc += GetVarint(block.ids, &pos);
    fn(doc);
  }
}

void AppendBlockDocs(const PostingBlock& block, std::vector<DocId>* out) {
  ForEachDoc(block, [out](DocId doc) { out->push_back(doc); });
}

/// Sets \p block's skip bounds and `ids` from its ascending doc ids and
/// its \p tf stream; the doc payload is delta varints, or a bitset over
/// [first, last] when \p dense_ok and that is smaller. \p tf may view the
/// old `ids`.
void EncodeBlock(const std::vector<DocId>& docs, std::string_view tf,
                 bool dense_ok, PostingBlock* block) {
  block->first = docs.front();
  block->last = docs.back();
  block->count = static_cast<uint32_t>(docs.size());
  size_t varint_bytes = 0;  // 7 bits a byte, at least one byte a delta
  for (size_t i = 1; i < docs.size(); ++i) {
    varint_bytes += (70 - __builtin_clzll((docs[i] - docs[i - 1]) | 1)) / 7;
  }
  const uint64_t bitset_bytes = (block->last - block->first) / 8 + 1;
  block->dense = dense_ok && bitset_bytes < varint_bytes;
  std::string ids;
  ids.reserve((block->dense ? bitset_bytes : varint_bytes) + tf.size());
  if (block->dense) {
    ids.assign(bitset_bytes, '\0');
    for (DocId doc : docs) {
      const uint64_t bit = doc - block->first;
      ids[bit >> 3] |= static_cast<char>(1u << (bit & 7));
    }
  } else {
    for (size_t i = 1; i < docs.size(); ++i) {
      PutVarint(&ids, docs[i] - docs[i - 1]);
    }
  }
  block->tf_at = static_cast<uint32_t>(ids.size());
  ids.append(tf);
  block->ids = std::move(ids);
}

/// True when \p block's doc payload decodes to exactly `count` ascending
/// ids running from `first` to `last`.
bool ValidDocs(const PostingBlock& block) {
  if (block.count == 0 || block.first > block.last ||
      block.tf_at > block.ids.size()) {
    return false;
  }
  const std::string_view docs = std::string_view(block.ids).substr(
      0, block.tf_at);
  const uint64_t span = block.last - block.first;
  if (block.dense) {
    if (docs.size() != span / 8 + 1) return false;
    uint64_t bits = 0;
    for (char byte : docs) {
      bits += __builtin_popcount(static_cast<uint8_t>(byte));
    }
    const uint8_t top = static_cast<uint8_t>(docs.back());
    return bits == block.count && (docs.front() & 1) != 0 &&
           (top >> (span & 7)) == 1;
  }
  if (VarintCount(docs) != block.count - 1) return false;
  uint64_t offset = 0;
  for (size_t pos = 0; pos < docs.size();) {
    const uint64_t delta = GetVarint(docs, &pos);
    if (delta == 0 || delta > span - offset) return false;
    offset += delta;
  }
  return offset == span;
}

/// True when \p block holds one tf varint per doc and as many positions
/// as those sum to, which is added to *tokens.
bool ValidRecords(const PostingBlock& block, uint64_t* tokens) {
  const std::string_view tf = TfStream(block);
  if (VarintCount(tf) != block.count) return false;
  uint64_t sum = 0;
  for (size_t pos = 0; pos < tf.size();) {
    const uint64_t n = GetVarint(tf, &pos);
    if (n > block.positions.size() - sum) return false;  // a byte each
    sum += n;
  }
  *tokens += sum;
  return VarintCount(block.positions) == sum;
}

/// Starts loading the tail of \p blocks into cache: its struct, or with
/// \p streams the bytes that an append writes.
void PrefetchTail(const std::vector<PostingBlock>& blocks, bool streams) {
  if (blocks.empty()) return;
  const PostingBlock& tail = blocks.back();
  if (streams) {
    __builtin_prefetch(tail.ids.data() + tail.tf_at);
    __builtin_prefetch(tail.positions.data() + tail.positions.size());
  } else {
    __builtin_prefetch(&tail);
    __builtin_prefetch(&tail.positions);
  }
}

/// The doc ids of \p blocks, stopping before the first block \p ctx
/// refuses (see the query section of the header).
std::vector<DocId> ListDocs(const std::vector<PostingBlock>& blocks,
                            size_t doc_count, util::ExecContext* ctx) {
  std::vector<DocId> out;
  out.reserve(doc_count);
  for (const PostingBlock& block : blocks) {
    if (ctx != nullptr && !ctx->TickAlive(block.count)) break;
    AppendBlockDocs(block, &out);
  }
  return out;
}

/// Forward-only reader of one term's records for phrase verification:
/// docs must be asked for in ascending order, so each block is entered
/// once and each record is walked at most once.
struct RecordCursor {
  const std::vector<PostingBlock>* blocks = nullptr;
  size_t block = 0;
  std::vector<DocId> docs;  ///< ids of blocks[block]; empty until entered
  size_t next = 0;          ///< records of the block walked so far
  size_t tf_at = 0;         ///< offsets of record `next` in ids, positions
  size_t pos_at = 0;

  /// Positions of \p doc into \p out, adding the records walked to
  /// \p walked; false when the doc is not in the list.
  bool Seek(DocId doc, std::vector<uint32_t>* out, uint64_t* walked) {
    while (block < blocks->size() && (*blocks)[block].last < doc) {
      ++block;
      docs.clear();
    }
    if (block == blocks->size() || doc < (*blocks)[block].first) return false;
    const PostingBlock& here = (*blocks)[block];
    if (docs.empty()) {
      AppendBlockDocs(here, &docs);
      next = pos_at = 0;
      tf_at = here.tf_at;
    }
    for (; next < docs.size() && docs[next] < doc; ++next, ++*walked) {
      SkipVarints(here.positions, &pos_at, GetVarint(here.ids, &tf_at));
    }
    if (next == docs.size() || docs[next] != doc) return false;
    const uint64_t tf = GetVarint(here.ids, &tf_at);
    ++next;
    ++*walked;
    out->clear();
    uint32_t position = 0;
    for (uint64_t j = 0; j < tf && pos_at < here.positions.size(); ++j) {
      position += static_cast<uint32_t>(GetVarint(here.positions, &pos_at));
      out->push_back(position);
    }
    return true;
  }
};

}  // namespace

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

void InvertedIndex::AddDocument(DocId id, const std::string& text) {
  if (doc_terms_.count(id) > 0) RemoveDocument(id);

  std::vector<Token> tokens = Tokenize(text);
  total_tokens_ += tokens.size();
  // Group positions per term (tokens arrive in position order).
  std::unordered_map<std::string, std::vector<uint32_t>> term_positions;
  for (Token& token : tokens) {
    term_positions[std::move(token.term)].push_back(token.position);
  }

  // Intern first, then write: a document's terms append to tails spread
  // over the heap, so each tail's struct is fetched four terms ahead and
  // its stream ends two ahead, overlapping the cache misses.
  std::vector<uint32_t> term_ids;
  term_ids.reserve(term_positions.size());
  for (const auto& entry : term_positions) {
    term_ids.push_back(InternTerm(entry.first));
    __builtin_prefetch(&lists_[term_ids.back()]);
  }
  size_t i = 0;
  for (const auto& entry : term_positions) {
    if (i + 4 < term_ids.size()) {
      PrefetchTail(lists_[term_ids[i + 4]].blocks, /*streams=*/false);
    }
    if (i + 2 < term_ids.size()) {
      PrefetchTail(lists_[term_ids[i + 2]].blocks, /*streams=*/true);
    }
    TermList& list = lists_[term_ids[i++]];
    if (list.blocks.empty() || list.blocks.back().last < id) {
      Append(&list, id, entry.second);
    } else {
      Splice(&list, id, &entry.second);
    }
  }
  std::sort(term_ids.begin(), term_ids.end());
  term_ids.shrink_to_fit();
  doc_terms_.emplace(id, std::move(term_ids));
}

void InvertedIndex::RemoveDocument(DocId id) {
  auto it = doc_terms_.find(id);
  if (it == doc_terms_.end()) return;
  for (uint32_t tid : it->second) {
    total_tokens_ -= Splice(&lists_[tid], id, nullptr);
  }
  doc_terms_.erase(it);
}

size_t InvertedIndex::DocumentFrequency(const std::string& term) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return 0;
  const TermList* list = FindList(normalized[0]);
  return list == nullptr ? 0 : list->doc_count;
}

// --- writes: tail appends and one-block splices ---------------------------

void InvertedIndex::Append(TermList* list, DocId doc,
                           const std::vector<uint32_t>& positions) {
  std::vector<PostingBlock>& blocks = list->blocks;
  if (blocks.empty()) {
    ++held_lists_;
    blocks.emplace_back();
  } else if (blocks.back().count >= kBlockDocs || blocks.back().dense) {
    // A full tail is sealed: its doc payload becomes a bitset when that is
    // smaller, strings more than a quarter spare are trimmed, and a new
    // tail opens with room for as much as the sealed block holds. Growing
    // in place rather than by doubling keeps ingest from leaving a trail
    // of freed buffers that later small allocations scatter into. A bitset
    // tail below kBlockDocs, left when an erase exposed a sealed block,
    // goes back to varints and grows.
    PostingBlock& old = blocks.back();
    const bool full = old.count >= kBlockDocs;
    const size_t ids_room = old.ids.size() + old.ids.size() / 8;
    const size_t positions_room =
        old.positions.size() + old.positions.size() / 8;
    if (old.dense || (old.last - old.first) / 8 + 1 < old.tf_at) {
      std::vector<DocId> docs;
      AppendBlockDocs(old, &docs);
      payload_bytes_ -= old.ids.size();
      EncodeBlock(docs, TfStream(old), /*dense_ok=*/full, &old);
      payload_bytes_ += old.ids.size();
    }
    if (full) {
      Trim(&old.ids);
      Trim(&old.positions);
      PostingBlock& fresh = blocks.emplace_back();
      fresh.ids.reserve(ids_room);
      fresh.positions.reserve(positions_room);
    }
  }
  PostingBlock& tail = blocks.back();
  const size_t before = PayloadBytes(tail);
  if (tail.count == 0) {
    tail.first = doc;
  } else {  // the delta goes at the end of the doc payload
    const size_t end = tail.ids.size();
    PutVarint(&tail.ids, doc - tail.last);
    std::rotate(tail.ids.begin() + tail.tf_at, tail.ids.begin() + end,
                tail.ids.end());
    tail.tf_at += static_cast<uint32_t>(tail.ids.size() - end);
  }
  tail.last = doc;
  ++tail.count;
  PutVarint(&tail.ids, positions.size());
  PutPositions(&tail.positions, positions);
  payload_bytes_ += PayloadBytes(tail) - before;
  ++list->doc_count;
}

uint64_t InvertedIndex::Splice(TermList* list, DocId doc,
                               const std::vector<uint32_t>* positions) {
  std::vector<PostingBlock>& blocks = list->blocks;
  // The block holding doc — for an insert, the first block ending past it
  // (one exists: inserts land below the list's last doc).
  const auto it = std::partition_point(
      blocks.begin(), blocks.end(),
      [doc](const PostingBlock& block) { return block.last < doc; });
  if (it == blocks.end()) return 0;
  PostingBlock& block = *it;
  const bool tail = it + 1 == blocks.end();
  std::vector<DocId> docs;
  AppendBlockDocs(block, &docs);
  const size_t slot =
      std::lower_bound(docs.begin(), docs.end(), doc) - docs.begin();
  const bool insert = positions != nullptr;
  if (!insert && (slot == docs.size() || docs[slot] != doc)) return 0;

  // The record's byte ranges in the tf and position streams, and what
  // replaces them: an insert's new record, or nothing.
  const std::string_view old_tf = TfStream(block);
  size_t tf_at = 0, pos_at = 0;
  for (size_t i = 0; i < slot; ++i) {
    SkipVarints(block.positions, &pos_at, GetVarint(old_tf, &tf_at));
  }
  size_t tf_end = tf_at, pos_end = pos_at;
  uint64_t removed = 0;
  std::string tf_patch, pos_patch;
  if (insert) {
    docs.insert(docs.begin() + slot, doc);
    PutVarint(&tf_patch, positions->size());
    PutPositions(&pos_patch, *positions);
    ++list->doc_count;
  } else {
    removed = GetVarint(old_tf, &tf_end);
    SkipVarints(block.positions, &pos_end, removed);
    docs.erase(docs.begin() + slot);
    --list->doc_count;
  }
  payload_bytes_ -= PayloadBytes(block);
  if (docs.empty()) {
    blocks.erase(it);
    held_lists_ -= blocks.empty();
    return removed;
  }
  const std::string tf = Spliced(old_tf, tf_at, tf_end, tf_patch);
  block.positions = Spliced(block.positions, pos_at, pos_end, pos_patch);
  if (docs.size() <= 2 * kBlockDocs) {
    EncodeBlock(docs, tf, /*dense_ok=*/!tail, &block);
    payload_bytes_ += PayloadBytes(block);
    return removed;
  }
  // Grown past two blocks' worth: the upper half moves to a new block.
  const size_t half = docs.size() / 2;
  size_t tf_half = 0, pos_half = 0;
  for (size_t i = 0; i < half; ++i) {
    SkipVarints(block.positions, &pos_half, GetVarint(tf, &tf_half));
  }
  PostingBlock upper;
  upper.positions = block.positions.substr(pos_half);
  block.positions = block.positions.substr(0, pos_half);
  EncodeBlock(std::vector<DocId>(docs.begin() + half, docs.end()),
              std::string_view(tf).substr(tf_half), /*dense_ok=*/!tail,
              &upper);
  docs.resize(half);
  EncodeBlock(docs, std::string_view(tf).substr(0, tf_half),
              /*dense_ok=*/true, &block);
  payload_bytes_ += PayloadBytes(block) + PayloadBytes(upper);
  blocks.insert(it + 1, std::move(upper));
  return removed;
}

// --- checkpoint image ------------------------------------------------------

std::string InvertedIndex::Serialize() const {
  std::string out;
  codec::PutU64(&out, kContentMagic);
  codec::PutU32(&out, kContentFormatVersion);
  codec::PutU64(&out, total_tokens_);
  // Term dictionary + blocks, sorted by term text so the image is
  // independent of hash-map iteration order. Term ids are preserved: the
  // blocks do not reference them, but doc_terms_ does.
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
    codec::PutU64(&out, list.blocks.size());
    for (const PostingBlock& block : list.blocks) {
      codec::PutU64(&out, block.first);
      codec::PutU64(&out, block.last);
      codec::PutU32(&out, block.count);
      codec::PutU32(&out, block.dense);
      codec::PutU32(&out, block.tf_at);
      codec::PutString(&out, block.ids);
      codec::PutString(&out, block.positions);
    }
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
  if (n_terms > (data.size() - pos) / kMinTermBytes) {
    return Status::ParseError("truncated term table");
  }
  index.lists_.resize(n_terms);
  std::vector<bool> seen(n_terms, false);
  uint64_t tokens = 0;  // tf counts of every block
  for (uint64_t i = 0; i < n_terms; ++i) {
    std::string term;
    uint32_t term_id = 0;
    TermList list;
    uint64_t n_blocks = 0;
    if (!codec::GetString(data, &pos, &term) ||
        !codec::GetU32(data, &pos, &term_id) ||
        !codec::GetU32(data, &pos, &list.doc_count) ||
        !codec::GetU64(data, &pos, &n_blocks)) {
      return Status::ParseError("truncated term entry");
    }
    if (term_id >= n_terms || seen[term_id] ||
        n_blocks > (data.size() - pos) / kMinBlockBytes) {
      return Status::ParseError("invalid term id or block count");
    }
    list.blocks.reserve(n_blocks);
    uint64_t postings = 0;
    for (uint64_t b = 0; b < n_blocks; ++b) {
      PostingBlock block;
      uint32_t dense = 0;
      if (!codec::GetU64(data, &pos, &block.first) ||
          !codec::GetU64(data, &pos, &block.last) ||
          !codec::GetU32(data, &pos, &block.count) ||
          !codec::GetU32(data, &pos, &dense) ||
          !codec::GetU32(data, &pos, &block.tf_at) ||
          !codec::GetString(data, &pos, &block.ids) ||
          !codec::GetString(data, &pos, &block.positions)) {
        return Status::ParseError("truncated posting block");
      }
      block.dense = dense == 1;
      if (dense > 1 || !ValidDocs(block) || !ValidRecords(block, &tokens) ||
          (b > 0 && block.first <= list.blocks.back().last)) {
        return Status::ParseError("inconsistent posting block");
      }
      postings += block.count;
      index.payload_bytes_ += PayloadBytes(block);
      list.blocks.push_back(std::move(block));
    }
    if (postings != list.doc_count) {
      return Status::ParseError("posting count mismatch");
    }
    index.held_lists_ += !list.blocks.empty();
    seen[term_id] = true;
    index.lists_[term_id] = std::move(list);
    index.term_ids_.emplace(std::move(term), term_id);
  }
  if (tokens != index.total_tokens_) {
    return Status::ParseError("token count mismatch");
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
    std::vector<uint32_t> term_list(n);
    for (uint32_t& term : term_list) {
      codec::GetU32(data, &pos, &term);  // in bounds: checked just above
      if (term >= n_terms) return Status::ParseError("invalid doc term id");
    }
    index.doc_terms_.emplace(doc, std::move(term_list));
  }
  if (pos != data.size()) return Status::ParseError("trailing bytes");
  return index;
}

// --- reads -----------------------------------------------------------------

std::vector<DocId> InvertedIndex::IntersectWithBlocks(
    const std::vector<DocId>& acc, const TermList& list,
    util::ExecContext* ctx) const {
  std::vector<DocId> out;
  if (acc.empty() || list.blocks.empty()) return out;
  std::vector<DocId> scratch;
  auto acc_it = acc.begin();
  for (const PostingBlock& block : list.blocks) {
    // Skip pointers: fast-forward past blocks wholly below the accumulator
    // cursor and stop once blocks start past its end.
    if (block.last < *acc_it || block.first > acc.back()) {
      blocks_skipped_.value.fetch_add(1, std::memory_order_relaxed);
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
  const TermList* list = FindList(normalized[0]);
  if (list == nullptr) return {};
  return ListDocs(list->blocks, list->doc_count, ctx);
}

std::vector<std::pair<DocId, uint32_t>> InvertedIndex::TermTfDocs(
    const std::string& term) const {
  std::vector<std::string> normalized = PhraseTerms(term);
  if (normalized.size() != 1) return {};  // single terms only
  const TermList* list = FindList(normalized[0]);
  if (list == nullptr) return {};
  std::vector<std::pair<DocId, uint32_t>> out;
  out.reserve(list->doc_count);
  for (const PostingBlock& block : list->blocks) {
    size_t at = block.tf_at;
    ForEachDoc(block, [&](DocId doc) {
      out.emplace_back(doc, static_cast<uint32_t>(GetVarint(block.ids, &at)));
    });
  }
  return out;
}

std::vector<DocId> InvertedIndex::AndDocs(const std::vector<std::string>& terms,
                                          util::ExecContext* ctx) const {
  if (terms.empty()) return {};
  // Resolve all terms first (a missing term empties the intersection),
  // then fold starting from the rarest list — the accumulator can only
  // shrink, so the block-skip intersection does the least possible work.
  std::vector<const TermList*> lists;
  lists.reserve(terms.size());
  for (const std::string& term : terms) {
    for (const std::string& token : PhraseTerms(term)) {
      const TermList* list = FindList(token);
      if (list == nullptr) return {};
      lists.push_back(list);
    }
  }
  if (lists.empty()) return {};
  std::sort(lists.begin(), lists.end(),
            [](const TermList* a, const TermList* b) {
              return a->doc_count < b->doc_count;
            });
  lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
  std::vector<DocId> acc =
      ListDocs(lists[0]->blocks, lists[0]->doc_count, ctx);
  for (size_t i = 1; i < lists.size() && !acc.empty(); ++i) {
    acc = IntersectWithBlocks(acc, *lists[i], ctx);
  }
  return acc;
}

std::vector<DocId> InvertedIndex::PhraseDocs(const std::string& phrase,
                                             util::ExecContext* ctx) const {
  std::vector<std::string> terms = PhraseTerms(phrase);
  if (terms.empty()) return {};
  if (terms.size() == 1) return TermDocs(terms[0], ctx);

  std::vector<RecordCursor> cursors(terms.size());
  for (size_t k = 0; k < terms.size(); ++k) {
    const TermList* list = FindList(terms[k]);
    if (list == nullptr) return {};  // a missing term kills the phrase
    cursors[k].blocks = &list->blocks;
  }

  // Candidate docs: block-skip intersection of all term doc sets, rarest
  // first. Only the survivors ever have positions decoded. A governed
  // read that stops early leaves a prefix of the candidates, and so a
  // prefix of the phrase's documents.
  std::vector<DocId> candidates = AndDocs(terms, ctx);
  std::vector<std::vector<uint32_t>> positions(terms.size());
  std::vector<DocId> out;
  for (DocId doc : candidates) {
    uint64_t walked = 0;
    bool have_all = true;
    for (size_t k = 0; k < cursors.size() && have_all; ++k) {
      have_all = cursors[k].Seek(doc, &positions[k], &walked);
    }
    // Charged before the candidate's verdict is used, so a doomed context
    // keeps the prefix of candidates verified so far.
    if (ctx != nullptr && !ctx->TickAlive(walked)) break;
    if (!have_all) continue;  // defensive: candidates came from these lists
    const auto starts_phrase = [&](uint32_t start) {
      for (size_t k = 1; k < positions.size(); ++k) {
        if (!std::binary_search(positions[k].begin(), positions[k].end(),
                                start + static_cast<uint32_t>(k))) {
          return false;
        }
      }
      return true;
    };
    if (std::any_of(positions[0].begin(), positions[0].end(), starts_phrase)) {
      out.push_back(doc);
    }
  }
  return out;
}

// --- accounting ------------------------------------------------------------

InvertedIndex::BlockStats InvertedIndex::block_stats() const {
  BlockStats stats;
  stats.built_lists = held_lists_;
  stats.block_bytes = payload_bytes_;
  stats.skipped_blocks = blocks_skipped_.value.load(std::memory_order_relaxed);
  return stats;
}

size_t InvertedIndex::CompressedPostingsBytes() const {
  size_t blocks = 0;
  for (const TermList& list : lists_) blocks += list.blocks.size();
  return payload_bytes_ + blocks * sizeof(PostingBlock);
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
    total += sizeof(TermList) + list.blocks.capacity() * sizeof(PostingBlock);
    for (const PostingBlock& block : list.blocks) {
      total += HeapBytes(block.ids) + HeapBytes(block.positions);
    }
  }
  for (const auto& [id, term_ids] : doc_terms_) {
    total += sizeof(id) + sizeof(term_ids) +
             term_ids.capacity() * sizeof(uint32_t) + 16;  // bucket
  }
  return total;
}

}  // namespace idm::index
