// Index-free reference evaluator for iQL: the oracle the VM is checked
// against (DESIGN.md §16). It evaluates the parsed AST by scanning the
// catalog's live views and testing each view's own components:
//
//   names        WildcardMatch over the name replica;
//   classes      the catalog entry plus ClassRegistry::IsSubclassOf;
//   comparisons  the tuple replica, resolving the attribute to a column
//                the way the tuple index does (normalized name, else the
//                smallest column it prefixes);
//   paths        breadth-first search over the group replica's children;
//   phrases      a contiguous run of Tokenize terms in the view's text;
//   set ops      plain set algebra; joins are nested loops;
//   tf-idf       summed per view in phrase-then-term order, as the VM
//                sums it, so scores compare bitwise.
//
// It shares no postings, block, name-index, tuple-column, planner or VM
// code with the engine under test. The content index does not keep text,
// so the evaluator reads it from the sources: it walks every registered
// source through the standard converters with the sync walk's stream
// window and keeps each finite content component that looks like text.
//
// Test-only; built for small dataspaces (every query is a full scan).

#ifndef IDM_TESTS_IQL_REFERENCE_EVALUATOR_H_
#define IDM_TESTS_IQL_REFERENCE_EVALUATOR_H_

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "index/analyzer.h"
#include "iql/dataspace.h"
#include "rvm/converter.h"
#include "util/string_util.h"

namespace idm::iql {

class ReferenceEvaluator {
 public:
  using DocId = index::DocId;

  /// Snapshots \p ds's live views and their texts; the dataspace must not
  /// change while the evaluator is in use.
  explicit ReferenceEvaluator(Dataspace* ds)
      : module_(ds->module()),
        classes_(ds->classes()),
        clock_(ds->clock()),
        live_(module_.catalog().LiveIds()) {
    std::unordered_map<std::string, std::string> texts = SourceTexts(ds);
    for (DocId id : live_) {
      auto text = texts.find(module_.catalog().Entry(id)->uri);
      if (text != texts.end()) terms_[id] = Terms(text->second);
      const core::TupleComponent& tuple = module_.tuples().TupleOf(id);
      for (size_t i = 0; i < tuple.schema().size(); ++i) {
        if (!tuple.values()[i].is_null()) {
          columns_.insert(Normalize(tuple.schema().at(i).name));
        }
      }
    }
  }

  Result<QueryResult> Evaluate(const Query& query) const {
    switch (query.kind) {
      case Query::Kind::kFilter: {
        std::vector<DocId> ids;
        for (DocId id : live_) {
          if (query.filter == nullptr || Holds(*query.filter, id)) {
            ids.push_back(id);
          }
        }
        QueryResult result = Unary(ids);
        if (query.filter != nullptr) Rank(*query.filter, &result);
        return result;
      }
      case Query::Kind::kPath:
        return Unary(Path(query.steps));
      case Query::Kind::kUnion:
      case Query::Kind::kIntersect:
      case Query::Kind::kExcept:
        return SetOp(query);
      case Query::Kind::kJoin:
        return Join(*query.join);
    }
    return Status::Unimplemented("unknown query kind");
  }

  /// Live views whose text holds the terms of \p phrase contiguously.
  std::vector<DocId> PhraseDocs(const std::string& phrase) const {
    std::vector<DocId> out;
    for (DocId id : live_) {
      if (HasPhrase(id, phrase)) out.push_back(id);
    }
    return out;
  }

  /// Each live view whose text holds \p term, with its occurrence count.
  std::vector<std::pair<DocId, uint32_t>> TermTf(
      const std::string& term) const {
    std::vector<std::pair<DocId, uint32_t>> out;
    for (DocId id : live_) {
      if (uint32_t tf = Tf(id, term); tf > 0) out.emplace_back(id, tf);
    }
    return out;
  }

 private:
  static std::vector<std::string> Terms(const std::string& text) {
    std::vector<std::string> terms;
    for (index::Token& token : index::Tokenize(text)) {
      terms.push_back(std::move(token.term));
    }
    return terms;
  }

  /// uri -> text of every view the sources expose, walked like a sync.
  static std::unordered_map<std::string, std::string> SourceTexts(
      Dataspace* ds) {
    const rvm::ConverterRegistry converters =
        rvm::ConverterRegistry::Standard();
    std::unordered_map<std::string, std::string> texts;
    for (const auto& source : ds->sync().sources()) {
      Result<core::ViewPtr> root = source->RootView();
      if (!root.ok() || *root == nullptr) continue;
      std::deque<core::ViewPtr> queue{converters.MaybeWrap(*root)};
      std::unordered_set<std::string> seen{queue.front()->uri()};
      while (!queue.empty()) {
        core::ViewPtr view = std::move(queue.front());
        queue.pop_front();
        core::ContentComponent content = view->GetContentComponent();
        if (!content.empty() && content.finite()) {
          Result<std::string> text = content.ToString();
          if (text.ok() && !text->empty() && index::LooksLikeText(*text)) {
            texts[view->uri()] = std::move(*text);
          }
        }
        for (core::ViewPtr child :
             view->GetGroupComponent().DirectlyRelated(64)) {
          if (child == nullptr) continue;
          child = converters.MaybeWrap(child);
          if (seen.insert(child->uri()).second) queue.push_back(child);
        }
      }
    }
    return texts;
  }

  static QueryResult Unary(const std::vector<DocId>& ids) {
    QueryResult result;
    result.columns = {""};
    for (DocId id : ids) result.rows.push_back({id});
    return result;
  }

  // --- per-view predicates --------------------------------------------------

  bool Holds(const PredNode& pred, DocId id) const {
    switch (pred.kind) {
      case PredNode::Kind::kAnd:
        for (const auto& child : pred.children) {
          if (!Holds(*child, id)) return false;
        }
        return true;
      case PredNode::Kind::kOr:
        for (const auto& child : pred.children) {
          if (Holds(*child, id)) return true;
        }
        return false;
      case PredNode::Kind::kNot:
        return !Holds(*pred.children[0], id);
      case PredNode::Kind::kPhrase:
        return HasPhrase(id, pred.text);
      case PredNode::Kind::kCompare:
        return Compares(pred, id);
      case PredNode::Kind::kClassEq: {
        const std::string& cls = module_.catalog().Entry(id)->class_name;
        return cls == pred.text || classes_.IsSubclassOf(cls, pred.text);
      }
      case PredNode::Kind::kNameEq:
        return NameMatches(pred.text, id);
    }
    return false;
  }

  bool NameMatches(const std::string& pattern, DocId id) const {
    return pattern.empty() || pattern == "*" ||
           WildcardMatch(pattern, module_.names().NameOf(id));
  }

  bool HasPhrase(DocId id, const std::string& phrase) const {
    const std::vector<std::string> want = Terms(phrase);
    auto it = terms_.find(id);
    if (want.empty() || it == terms_.end()) return false;
    const std::vector<std::string>& have = it->second;
    return std::search(have.begin(), have.end(), want.begin(), want.end()) !=
           have.end();
  }

  uint32_t Tf(DocId id, const std::string& term) const {
    auto it = terms_.find(id);
    if (it == terms_.end()) return 0;
    return static_cast<uint32_t>(
        std::count(it->second.begin(), it->second.end(), term));
  }

  static std::string Normalize(const std::string& name) {
    std::string out;
    for (char c : name) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    return out;
  }

  /// The column an attribute names: its normalized form when some view
  /// has it, else the smallest column that form prefixes.
  std::optional<std::string> Column(const std::string& attribute) const {
    const std::string key = Normalize(attribute);
    if (key.empty()) return std::nullopt;
    auto it = columns_.lower_bound(key);
    if (it != columns_.end() && it->compare(0, key.size(), key) == 0) {
      return *it;
    }
    return std::nullopt;
  }

  bool Compares(const PredNode& pred, DocId id) const {
    std::optional<std::string> column = Column(pred.attribute);
    if (!column.has_value()) return false;
    core::Value literal = pred.literal;
    if (pred.literal_kind == PredNode::LiteralKind::kYesterday) {
      literal = core::Value::Date(clock_->NowMicros() - 86400LL * 1000000);
    } else if (pred.literal_kind == PredNode::LiteralKind::kNow) {
      literal = core::Value::Date(clock_->NowMicros());
    }
    const core::TupleComponent& tuple = module_.tuples().TupleOf(id);
    for (size_t i = 0; i < tuple.schema().size(); ++i) {
      const core::Value& value = tuple.values()[i];
      if (value.is_null() || Normalize(tuple.schema().at(i).name) != *column) {
        continue;
      }
      const int cmp = value.Compare(literal);
      bool match = false;
      switch (pred.op) {
        case index::CompareOp::kEq: match = cmp == 0; break;
        case index::CompareOp::kNe: match = cmp != 0; break;
        case index::CompareOp::kLt: match = cmp < 0; break;
        case index::CompareOp::kLe: match = cmp <= 0; break;
        case index::CompareOp::kGt: match = cmp > 0; break;
        case index::CompareOp::kGe: match = cmp >= 0; break;
      }
      if (match) return true;
    }
    return false;
  }

  // --- paths ----------------------------------------------------------------

  std::set<DocId> ChildrenOf(const std::vector<DocId>& ids) const {
    std::set<DocId> out;
    for (DocId id : ids) {
      const auto& children = module_.groups().Children(id);
      out.insert(children.begin(), children.end());
    }
    return out;
  }

  /// Views reached from \p frontier over one or more child edges.
  std::set<DocId> DescendantsOf(const std::vector<DocId>& frontier) const {
    std::set<DocId> reached;
    std::deque<DocId> queue(frontier.begin(), frontier.end());
    std::set<DocId> enqueued(frontier.begin(), frontier.end());
    while (!queue.empty()) {
      DocId id = queue.front();
      queue.pop_front();
      for (DocId child : module_.groups().Children(id)) {
        reached.insert(child);
        if (enqueued.insert(child).second) queue.push_back(child);
      }
    }
    return reached;
  }

  std::vector<DocId> Path(const std::vector<PathStep>& steps) const {
    std::vector<DocId> frontier;
    for (size_t i = 0; i < steps.size(); ++i) {
      const PathStep& step = steps[i];
      // Candidates by axis; a first '//' step reaches every view.
      std::set<DocId> axis;
      if (i == 0 && !step.descendant) {
        // Children of the source roots: live views no live view contains.
        const std::set<DocId> contained = ChildrenOf(live_);
        std::vector<DocId> roots;
        for (DocId id : live_) {
          if (contained.count(id) == 0) roots.push_back(id);
        }
        axis = ChildrenOf(roots);
      } else if (i > 0) {
        axis = step.descendant ? DescendantsOf(frontier) : ChildrenOf(frontier);
      }
      std::vector<DocId> next;
      for (DocId id : live_) {
        if ((i > 0 || !step.descendant) && axis.count(id) == 0) continue;
        if (!NameMatches(step.name_pattern, id)) continue;
        if (step.predicate != nullptr && !Holds(*step.predicate, id)) continue;
        next.push_back(id);
      }
      frontier = std::move(next);
      if (frontier.empty()) break;
    }
    return frontier;
  }

  // --- set operations and joins ---------------------------------------------

  Result<QueryResult> SetOp(const Query& query) const {
    std::vector<DocId> acc;
    for (size_t i = 0; i < query.arms.size(); ++i) {
      IDM_ASSIGN_OR_RETURN(QueryResult arm, Evaluate(*query.arms[i]));
      if (arm.columns.size() != 1) {
        return Status::Unimplemented("set operators over join results");
      }
      std::vector<DocId> ids;
      for (const auto& row : arm.rows) ids.push_back(row[0]);
      std::sort(ids.begin(), ids.end());
      std::vector<DocId> next;
      if (i == 0) {
        next = ids;
      } else if (query.kind == Query::Kind::kUnion) {
        std::set_union(acc.begin(), acc.end(), ids.begin(), ids.end(),
                       std::back_inserter(next));
      } else if (query.kind == Query::Kind::kIntersect) {
        std::set_intersection(acc.begin(), acc.end(), ids.begin(), ids.end(),
                              std::back_inserter(next));
      } else {
        std::set_difference(acc.begin(), acc.end(), ids.begin(), ids.end(),
                            std::back_inserter(next));
      }
      acc = std::move(next);
    }
    return Unary(acc);
  }

  /// Join key of a view (names and tuple values compare case-insensitively).
  std::optional<std::string> JoinKey(DocId id, const JoinRef& ref) const {
    switch (ref.field) {
      case JoinRef::Field::kName: {
        const std::string& name = module_.names().NameOf(id);
        if (name.empty()) return std::nullopt;
        return ToLower(name);
      }
      case JoinRef::Field::kClass: {
        const std::string& cls = module_.catalog().Entry(id)->class_name;
        if (cls.empty()) return std::nullopt;
        return cls;
      }
      case JoinRef::Field::kTupleAttr: {
        auto value = module_.tuples().TupleOf(id).Get(ref.attribute);
        if (!value.has_value() || value->is_null()) return std::nullopt;
        return ToLower(value->ToString());
      }
      case JoinRef::Field::kContent:
        return std::nullopt;
    }
    return std::nullopt;
  }

  Result<QueryResult> Join(const JoinSpec& join) const {
    IDM_ASSIGN_OR_RETURN(QueryResult left, Evaluate(*join.left));
    IDM_ASSIGN_OR_RETURN(QueryResult right, Evaluate(*join.right));
    if (left.columns.size() != 1 || right.columns.size() != 1) {
      return Status::Unimplemented("nested join inputs must be unary");
    }
    if (join.left_ref.field == JoinRef::Field::kContent ||
        join.right_ref.field == JoinRef::Field::kContent) {
      return Status::Unimplemented("joins on content components");
    }
    QueryResult result;
    result.columns = {join.left_binding, join.right_binding};
    for (const auto& l : left.rows) {
      std::optional<std::string> lkey = JoinKey(l[0], join.left_ref);
      if (!lkey.has_value()) continue;
      for (const auto& r : right.rows) {
        if (JoinKey(r[0], join.right_ref) == lkey) {
          result.rows.push_back({l[0], r[0]});
        }
      }
    }
    std::sort(result.rows.begin(), result.rows.end());
    return result;
  }

  // --- tf-idf ranking (§5.1) ------------------------------------------------

  /// Phrases in predicate-tree order; false when a non-keyword leaf
  /// participates (the filter is then not ranked).
  static bool CollectPhrases(const PredNode& pred,
                             std::vector<std::string>* phrases) {
    if (pred.kind == PredNode::Kind::kPhrase) {
      phrases->push_back(pred.text);
      return true;
    }
    if (pred.kind != PredNode::Kind::kAnd && pred.kind != PredNode::Kind::kOr &&
        pred.kind != PredNode::Kind::kNot) {
      return false;
    }
    bool rankable = true;
    for (const auto& child : pred.children) {
      rankable = CollectPhrases(*child, phrases) && rankable;
    }
    return rankable;
  }

  void Rank(const PredNode& filter, QueryResult* result) const {
    std::vector<std::string> phrases;
    if (!CollectPhrases(filter, &phrases) || phrases.empty() ||
        result->rows.empty()) {
      return;
    }
    // Indexed documents: the views with text.
    const double n_docs =
        static_cast<double>(std::max<size_t>(terms_.size(), 1));
    std::vector<double> score(result->rows.size(), 0.0);
    for (const std::string& phrase : phrases) {
      for (const std::string& term : Terms(phrase)) {
        size_t df = 0;
        for (const auto& [id, terms] : terms_) {
          df += std::find(terms.begin(), terms.end(), term) != terms.end();
        }
        if (df == 0) continue;
        const double idf = std::log(1.0 + n_docs / static_cast<double>(df));
        for (size_t i = 0; i < score.size(); ++i) {
          if (uint32_t tf = Tf(result->rows[i][0], term); tf > 0) {
            score[i] += tf * idf;
          }
        }
      }
    }
    std::vector<size_t> order(score.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (score[a] != score[b]) return score[a] > score[b];
      return result->rows[a][0] < result->rows[b][0];
    });
    std::vector<std::vector<DocId>> rows;
    for (size_t i : order) {
      rows.push_back(result->rows[i]);
      result->scores.push_back(score[i]);
    }
    result->rows = std::move(rows);
  }

  const rvm::ReplicaIndexesModule& module_;
  const core::ClassRegistry& classes_;
  const Clock* clock_;
  const std::vector<DocId> live_;
  /// Tokenized text of every live view that has text (an indexed doc).
  std::unordered_map<DocId, std::vector<std::string>> terms_;
  /// Normalized attribute names holding a value in some live tuple.
  std::set<std::string> columns_;
};

}  // namespace idm::iql

#endif  // IDM_TESTS_IQL_REFERENCE_EVALUATOR_H_
