#include "ops/map_ops.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <unordered_set>

#include "common/date_util.h"
#include "common/string_util.h"
#include "io/csv.h"
#include "common/fingerprint.h"

namespace shareinsights {

// ---------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------

void Dictionary::Add(const std::string& alias, const std::string& canonical) {
  aliases_[ToLower(Trim(alias))] = canonical;
}

Result<Dictionary> Dictionary::LoadFile(const std::string& path) {
  SI_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  if (EndsWith(path, ".csv")) {
    Dictionary dict;
    for (const std::string& line : Split(text, '\n')) {
      std::string trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      std::vector<std::string> cells = Split(trimmed, ',');
      if (cells.size() < 2) {
        return Status::ParseError("dictionary row '" + trimmed +
                                  "' in " + path +
                                  " needs 'alias,canonical'");
      }
      if (Trim(cells[0]) == "alias" && Trim(cells[1]) == "canonical") {
        continue;  // header
      }
      dict.Add(cells[0], Trim(cells[1]));
    }
    return dict;
  }
  return FromText(text);
}

Result<Dictionary> Dictionary::FromText(const std::string& text) {
  Dictionary dict;
  for (const std::string& line : Split(text, '\n')) {
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    size_t colon = trimmed.find(':');
    if (colon == std::string::npos) {
      dict.Add(trimmed, trimmed);
      continue;
    }
    std::string canonical = Trim(trimmed.substr(0, colon));
    dict.Add(canonical, canonical);
    for (const std::string& alias : Split(trimmed.substr(colon + 1), ',')) {
      std::string a = Trim(alias);
      if (!a.empty()) dict.Add(a, canonical);
    }
  }
  return dict;
}

std::vector<std::string> Dictionary::Extract(const std::string& text) const {
  // Tokenize the text, then match aliases of 1..3 consecutive words
  // (multi-word aliases like "rohit sharma" are common in gazetteers).
  std::vector<std::string> words = ExtractWords(text);
  std::vector<std::string> found;
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < words.size(); ++i) {
    std::string candidate;
    for (size_t len = 1; len <= 3 && i + len <= words.size(); ++len) {
      if (len > 1) candidate += ' ';
      candidate += words[i + len - 1];
      auto it = aliases_.find(candidate);
      if (it != aliases_.end() && seen.insert(it->second).second) {
        found.push_back(it->second);
      }
    }
  }
  return found;
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

namespace {

Result<Schema> AppendColumnSchema(const std::vector<Schema>& inputs,
                                  const std::string& op_name,
                                  const std::string& transform_column,
                                  const std::string& output_column,
                                  ValueType output_type) {
  if (inputs.size() != 1) {
    return Status::SchemaError(op_name + " expects exactly 1 input");
  }
  SI_RETURN_IF_ERROR(inputs[0].RequireIndex(transform_column).status());
  Schema out = inputs[0];
  out.AddField(Field{output_column, output_type});
  return out;
}

// Row-preserving map: `fn` computes row `r`'s output cell from its
// transform cell, and the results replace or append `output_column`.
Result<TablePtr> MapRows(
    const TablePtr& input, const std::string& transform_column,
    const std::string& output_column, const ExecContext& ctx,
    const std::function<Result<Value>(const Value& cell, size_t r)>& fn) {
  SI_ASSIGN_OR_RETURN(size_t idx,
                      input->schema().RequireIndex(transform_column));
  const ColumnData& cells = input->typed_column(idx);
  std::vector<Value> out(input->num_rows());
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, input->num_rows(),
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t r = begin; r < end; ++r) {
          SI_ASSIGN_OR_RETURN(out[r], fn(cells.GetValue(r), r));
        }
        return Status::OK();
      }));
  return WithColumn(input, output_column, ValueType::kString,
                    std::move(out));
}

// Exploding map: `fn` lists the matches in a non-null transform cell's
// text. Every input row yields one output row per match, in order (rows
// without a match drop): the input columns are gathered by row index and
// the matches become `output_column`.
Result<TablePtr> ExplodeRows(
    const TablePtr& input, const std::string& transform_column,
    const std::string& output_column, const ExecContext& ctx,
    const std::function<std::vector<std::string>(const std::string& text)>&
        fn) {
  SI_ASSIGN_OR_RETURN(size_t idx,
                      input->schema().RequireIndex(transform_column));
  const ColumnData& cells = input->typed_column(idx);
  const size_t morsels = MorselRanges(input->num_rows(), ctx).size();
  std::vector<std::vector<size_t>> rows(morsels);
  std::vector<std::vector<Value>> matches(morsels);
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, input->num_rows(),
      [&](size_t m, size_t begin, size_t end) -> Status {
        for (size_t r = begin; r < end; ++r) {
          Value cell = cells.GetValue(r);
          if (cell.is_null()) continue;
          for (std::string& match : fn(cell.ToString())) {
            rows[m].push_back(r);
            matches[m].emplace_back(std::move(match));
          }
        }
        return Status::OK();
      }));
  std::vector<size_t> selection = ConcatSelections(rows);
  std::vector<Value> column;
  column.reserve(selection.size());
  for (std::vector<Value>& part : matches) {
    std::move(part.begin(), part.end(), std::back_inserter(column));
  }
  SI_ASSIGN_OR_RETURN(TablePtr gathered, GatherRows(input, selection, ctx));
  return WithColumn(gathered, output_column, ValueType::kString,
                    std::move(column));
}

const std::unordered_set<std::string>& Stopwords() {
  static const auto* words = new std::unordered_set<std::string>{
      "the", "and", "for", "are", "but", "not", "you", "all", "can", "had",
      "her", "was", "one", "our", "out", "day", "get", "has", "him", "his",
      "how", "now", "see", "two", "who", "with", "this", "that", "from",
      "they", "will", "have", "what", "when", "your", "just", "about",
      "there", "their", "them", "then", "than", "were", "been", "being",
      "http", "https", "www", "com"};
  return *words;
}

}  // namespace

// ---------------------------------------------------------------------
// MapDateOp
// ---------------------------------------------------------------------

Result<Schema> MapDateOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  return AppendColumnSchema(inputs, name(), transform_column_, output_column_,
                            ValueType::kString);
}

Result<TablePtr> MapDateOp::Execute(const std::vector<TablePtr>& inputs,
                                    const ExecContext& ctx) const {
  return MapRows(
      inputs[0], transform_column_, output_column_, ctx,
      [&](const Value& cell, size_t r) -> Result<Value> {
        if (cell.is_null()) return Value::Null();
        Result<DateTime> parsed = ParseDateTime(cell.ToString(), input_format_);
        if (!parsed.ok()) {
          return parsed.status().WithContext("map:date on column '" +
                                             transform_column_ + "' row " +
                                             std::to_string(r));
        }
        return Value(FormatDateTime(*parsed, output_format_));
      });
}

// ---------------------------------------------------------------------
// MapExtractOp
// ---------------------------------------------------------------------

Result<Schema> MapExtractOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  return AppendColumnSchema(inputs, name(), transform_column_, output_column_,
                            ValueType::kString);
}

Result<TablePtr> MapExtractOp::Execute(const std::vector<TablePtr>& inputs,
                                       const ExecContext& ctx) const {
  return ExplodeRows(inputs[0], transform_column_, output_column_, ctx,
                     [&](const std::string& text) {
                       return dict_.Extract(text);
                     });
}

// ---------------------------------------------------------------------
// MapExtractLocationOp
// ---------------------------------------------------------------------

Result<Schema> MapExtractLocationOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  return AppendColumnSchema(inputs, name(), transform_column_, output_column_,
                            ValueType::kString);
}

Result<TablePtr> MapExtractLocationOp::Execute(
    const std::vector<TablePtr>& inputs, const ExecContext& ctx) const {
  return ExplodeRows(inputs[0], transform_column_, output_column_, ctx,
                     [&](const std::string& text) {
                       // A location string geocodes to at most one
                       // region: first match wins.
                       std::vector<std::string> found =
                           gazetteer_.Extract(text);
                       found.resize(std::min<size_t>(found.size(), 1));
                       return found;
                     });
}

// ---------------------------------------------------------------------
// MapExtractWordsOp
// ---------------------------------------------------------------------

Result<Schema> MapExtractWordsOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  return AppendColumnSchema(inputs, name(), transform_column_, output_column_,
                            ValueType::kString);
}

Result<TablePtr> MapExtractWordsOp::Execute(
    const std::vector<TablePtr>& inputs, const ExecContext& ctx) const {
  return ExplodeRows(inputs[0], transform_column_, output_column_, ctx,
                     [&](const std::string& text) {
                       std::vector<std::string> words;
                       for (std::string& word : ExtractWords(text)) {
                         if (word.size() < min_length_) continue;
                         if (Stopwords().count(word) > 0) continue;
                         words.push_back(std::move(word));
                       }
                       return words;
                     });
}

// ---------------------------------------------------------------------
// MapScalarOp
// ---------------------------------------------------------------------

Result<Schema> MapScalarOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  return AppendColumnSchema(inputs, name(), transform_column_, output_column_,
                            ValueType::kString);
}

Result<TablePtr> MapScalarOp::Execute(const std::vector<TablePtr>& inputs,
                                      const ExecContext& ctx) const {
  return MapRows(inputs[0], transform_column_, output_column_, ctx,
                 [&](const Value& cell, size_t r) -> Result<Value> {
                   Result<Value> v = fn_(cell, config_);
                   if (!v.ok()) {
                     return v.status().WithContext(name() + " row " +
                                                   std::to_string(r));
                   }
                   return v;
                 });
}

// ---------------------------------------------------------------------
// ParallelOp
// ---------------------------------------------------------------------

Result<Schema> ParallelOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  if (inputs.size() != 1) {
    return Status::SchemaError("parallel expects exactly 1 input");
  }
  Schema schema = inputs[0];
  for (const TableOperatorPtr& member : members_) {
    SI_ASSIGN_OR_RETURN(schema, member->OutputSchema({schema}));
  }
  return schema;
}

Result<TablePtr> ParallelOp::Execute(const std::vector<TablePtr>& inputs,
                                     const ExecContext& ctx) const {
  // Members compose left-to-right (semantics, not a fork); each member's
  // own row loops run morsel-parallel through the shared context.
  TablePtr table = inputs[0];
  for (const TableOperatorPtr& member : members_) {
    Result<TablePtr> next = member->Execute({table}, ctx);
    if (!next.ok()) {
      return next.status().WithContext("in parallel member " +
                                       member->name());
    }
    table = std::move(*next);
  }
  return table;
}


uint64_t Dictionary::ContentsHash() const {
  Fingerprinter fp;
  fp.Add(static_cast<uint64_t>(aliases_.size()));
  for (const auto& [alias, canonical] : aliases_) {  // std::map: sorted
    fp.Add(std::string_view(alias));
    fp.Add(std::string_view(canonical));
  }
  return fp.Digest();
}

std::string MapDateOp::CacheKey() const {
  return "map_date(" + Fingerprinter::Field(transform_column_) +
         Fingerprinter::Field(input_format_) +
         Fingerprinter::Field(output_format_) +
         Fingerprinter::Field(output_column_) + ")";
}

std::string MapExtractOp::CacheKey() const {
  return "map_extract(" + Fingerprinter::Field(transform_column_) +
         Fingerprinter::Field(output_column_) + "," +
         std::to_string(dict_.ContentsHash()) + ")";
}

std::string MapExtractLocationOp::CacheKey() const {
  return "map_extract_location(" + Fingerprinter::Field(transform_column_) +
         Fingerprinter::Field(output_column_) + "," +
         std::to_string(gazetteer_.ContentsHash()) + ")";
}

std::string MapExtractWordsOp::CacheKey() const {
  return "map_words(" + Fingerprinter::Field(transform_column_) +
         Fingerprinter::Field(output_column_) + "," +
         std::to_string(min_length_) + ")";
}

std::string ParallelOp::CacheKey() const {
  std::string key = "parallel(";
  for (const TableOperatorPtr& member : members_) {
    std::string member_key = member->CacheKey();
    if (member_key.empty()) return "";  // opaque member: not fingerprintable
    key += Fingerprinter::Field(member_key) + ",";
  }
  key += ')';
  return key;
}

DeltaMode ParallelOp::delta_mode(
    const std::vector<bool>& input_changed) const {
  for (const TableOperatorPtr& member : members_) {
    if (member->delta_mode(input_changed) != DeltaMode::kPassThrough) {
      return DeltaMode::kNone;
    }
  }
  return DeltaMode::kPassThrough;
}

}  // namespace shareinsights
