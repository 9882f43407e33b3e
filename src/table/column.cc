#include "table/column.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "table/dict_interner.h"

namespace shareinsights {

const char* ColumnEncodingName(ColumnEncoding encoding) {
  switch (encoding) {
    case ColumnEncoding::kGeneric:
      return "generic";
    case ColumnEncoding::kBool:
      return "bool";
    case ColumnEncoding::kInt64:
      return "int64";
    case ColumnEncoding::kDouble:
      return "double";
    case ColumnEncoding::kDict:
      return "dict";
  }
  return "unknown";
}

namespace {

// Mirrors value.cc's CompareDoubles: total order with NaN equal to itself
// and after every number.
int CompareDoublesTotal(double a, double b) {
  bool a_nan = std::isnan(a);
  bool b_nan = std::isnan(b);
  if (a_nan || b_nan) {
    if (a_nan == b_nan) return 0;
    return a_nan ? 1 : -1;
  }
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

// Cross-type rank from value.cc: null < bool < numeric < string.
int ValueRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 2;
    case ValueType::kString:
      return 3;
  }
  return 4;
}

}  // namespace

int CompareInt64Cell(int64_t cell, const Value& other) {
  switch (other.type()) {
    case ValueType::kInt64: {
      int64_t o = other.int64_value();
      if (cell < o) return -1;
      if (cell > o) return 1;
      return 0;
    }
    case ValueType::kDouble:
      return CompareDoublesTotal(static_cast<double>(cell),
                                 other.double_value());
    default:
      return ValueRank(ValueType::kInt64) < ValueRank(other.type()) ? -1 : 1;
  }
}

int CompareDoubleCell(double cell, const Value& other) {
  switch (other.type()) {
    case ValueType::kInt64:
      return CompareDoublesTotal(cell,
                                 static_cast<double>(other.int64_value()));
    case ValueType::kDouble:
      return CompareDoublesTotal(cell, other.double_value());
    default:
      return ValueRank(ValueType::kDouble) < ValueRank(other.type()) ? -1 : 1;
  }
}

int CompareBoolCell(bool cell, const Value& other) {
  if (other.type() == ValueType::kBool) {
    return (cell ? 1 : 0) - (other.bool_value() ? 1 : 0);
  }
  return ValueRank(ValueType::kBool) < ValueRank(other.type()) ? -1 : 1;
}

ColumnData ColumnData::Encode(std::vector<Value> values, bool force_generic) {
  ColumnData col;
  col.size_ = values.size();

  bool has_null = false;
  bool has_bool = false, has_int = false, has_double = false,
       has_string = false;
  for (const Value& v : values) {
    switch (v.type()) {
      case ValueType::kNull:
        has_null = true;
        break;
      case ValueType::kBool:
        has_bool = true;
        break;
      case ValueType::kInt64:
        has_int = true;
        break;
      case ValueType::kDouble:
        has_double = true;
        break;
      case ValueType::kString:
        has_string = true;
        break;
    }
  }
  int kinds = (has_bool ? 1 : 0) + (has_int ? 1 : 0) + (has_double ? 1 : 0) +
              (has_string ? 1 : 0);
  if (force_generic || kinds > 1) {
    col.encoding_ = ColumnEncoding::kGeneric;
    col.generic_ = std::move(values);
    return col;
  }

  if (has_null) {
    col.nulls_.assign(values.size(), 0);
    for (size_t r = 0; r < values.size(); ++r) {
      if (values[r].is_null()) col.nulls_[r] = 1;
    }
  }

  if (has_string) {
    col.encoding_ = ColumnEncoding::kDict;
    Dictionary dict;
    {
      std::unordered_map<std::string, uint32_t> seen;
      seen.reserve(values.size());
      for (const Value& v : values) {
        if (!v.is_null()) seen.emplace(v.string_value(), 0);
      }
      dict.reserve(seen.size());
      for (auto& [s, unused] : seen) dict.push_back(s);
      std::sort(dict.begin(), dict.end());
      for (uint32_t c = 0; c < dict.size(); ++c) seen[dict[c]] = c;
      col.codes_.resize(values.size(), 0);
      for (size_t r = 0; r < values.size(); ++r) {
        if (!values[r].is_null()) {
          col.codes_[r] = seen.at(values[r].string_value());
        }
      }
    }
    // Dictionaries are deduplicated process-wide by content: columns over
    // the same distinct-string set share one instance, and downstream
    // packed-key kernels treat pointer equality as content equality.
    col.dict_ = DictionaryInterner::Process().Intern(std::move(dict));
    return col;
  }
  if (has_double) {
    col.encoding_ = ColumnEncoding::kDouble;
    col.doubles_.resize(values.size(), 0.0);
    for (size_t r = 0; r < values.size(); ++r) {
      if (!values[r].is_null()) col.doubles_[r] = values[r].double_value();
    }
    return col;
  }
  if (has_int) {
    col.encoding_ = ColumnEncoding::kInt64;
    col.ints_.resize(values.size(), 0);
    for (size_t r = 0; r < values.size(); ++r) {
      if (!values[r].is_null()) col.ints_[r] = values[r].int64_value();
    }
    return col;
  }
  if (has_bool) {
    col.encoding_ = ColumnEncoding::kBool;
    col.bools_.resize(values.size(), 0);
    for (size_t r = 0; r < values.size(); ++r) {
      if (!values[r].is_null()) col.bools_[r] = values[r].bool_value() ? 1 : 0;
    }
    return col;
  }
  // All-null (or empty) column: typed int64 storage with every row null
  // decodes back to all nulls and gives kernels a concrete layout.
  col.encoding_ = ColumnEncoding::kInt64;
  col.ints_.resize(values.size(), 0);
  if (!values.empty() && col.nulls_.empty()) {
    col.nulls_.assign(values.size(), 1);
  }
  return col;
}

ColumnData ColumnData::AllocateLike(const ColumnData& like, size_t rows,
                                    bool force_nulls) {
  ColumnData col;
  col.encoding_ = like.encoding_;
  col.size_ = rows;
  if (like.has_nulls() || force_nulls) col.nulls_.assign(rows, 0);
  switch (like.encoding_) {
    case ColumnEncoding::kGeneric:
      col.generic_.resize(rows);
      break;
    case ColumnEncoding::kBool:
      col.bools_.resize(rows, 0);
      break;
    case ColumnEncoding::kInt64:
      col.ints_.resize(rows, 0);
      break;
    case ColumnEncoding::kDouble:
      col.doubles_.resize(rows, 0.0);
      break;
    case ColumnEncoding::kDict:
      col.codes_.resize(rows, 0);
      col.dict_ = like.dict_;
      break;
  }
  return col;
}

namespace {

// An all-null column (every row null) carries no type information: its
// kInt64 storage is just the canonical layout Encode picks, so a concat
// may adopt the other side's encoding for it.
bool IsAllNull(const ColumnData& col) {
  if (col.size() == 0) return true;
  if (!col.has_nulls()) return false;
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) return false;
  }
  return true;
}

// Concatenated null map for `out` (empty when neither side has nulls).
std::vector<uint8_t> ConcatNulls(const ColumnData& base,
                                 const ColumnData& delta) {
  if (!base.has_nulls() && !delta.has_nulls()) return {};
  std::vector<uint8_t> nulls(base.size() + delta.size(), 0);
  if (base.has_nulls()) {
    std::copy(base.nulls().begin(), base.nulls().end(), nulls.begin());
  }
  if (delta.has_nulls()) {
    std::copy(delta.nulls().begin(), delta.nulls().end(),
              nulls.begin() + base.size());
  }
  return nulls;
}

// Reshapes `col` to `like`'s encoding assuming every row of `col` is
// null (payload default-filled; the null map carries the content — a
// GatherFromSigned over all-negative rows writes exactly that).
ColumnData AllNullAs(const ColumnData& col, const ColumnData& like) {
  ColumnData out = ColumnData::AllocateLike(like, col.size(),
                                            /*force_nulls=*/true);
  std::vector<ptrdiff_t> rows(col.size(), -1);
  out.GatherFromSigned(like, rows, 0, col.size());
  return out;
}

}  // namespace

ColumnData ColumnData::Concat(const ColumnData& base,
                              const ColumnData& delta) {
  // An all-null side has no type of its own; let it adopt the other
  // side's encoding so typed columns survive all-null batches.
  if (base.encoding_ != delta.encoding_) {
    if (IsAllNull(base) && delta.encoding_ != ColumnEncoding::kGeneric) {
      return Concat(AllNullAs(base, delta), delta);
    }
    if (IsAllNull(delta) && base.encoding_ != ColumnEncoding::kGeneric) {
      return Concat(base, AllNullAs(delta, base));
    }
  }

  if (base.encoding_ != delta.encoding_ ||
      base.encoding_ == ColumnEncoding::kGeneric) {
    // Mixed or generic: re-encode the concatenated values — exactly what
    // a cold build of the combined column would produce.
    std::vector<Value> values = base.Decode();
    std::vector<Value> tail = delta.Decode();
    values.insert(values.end(), std::make_move_iterator(tail.begin()),
                  std::make_move_iterator(tail.end()));
    return Encode(std::move(values),
                  base.encoding_ == ColumnEncoding::kGeneric &&
                      delta.encoding_ == ColumnEncoding::kGeneric);
  }

  ColumnData out;
  out.encoding_ = base.encoding_;
  out.size_ = base.size_ + delta.size_;
  out.nulls_ = ConcatNulls(base, delta);
  switch (base.encoding_) {
    case ColumnEncoding::kGeneric:
      break;  // handled above
    case ColumnEncoding::kBool:
      out.bools_ = base.bools_;
      out.bools_.insert(out.bools_.end(), delta.bools_.begin(),
                        delta.bools_.end());
      break;
    case ColumnEncoding::kInt64:
      out.ints_ = base.ints_;
      out.ints_.insert(out.ints_.end(), delta.ints_.begin(),
                       delta.ints_.end());
      break;
    case ColumnEncoding::kDouble:
      out.doubles_ = base.doubles_;
      out.doubles_.insert(out.doubles_.end(), delta.doubles_.begin(),
                          delta.doubles_.end());
      break;
    case ColumnEncoding::kDict: {
      if (base.dict_ == delta.dict_ || *base.dict_ == *delta.dict_) {
        out.dict_ = base.dict_;
        out.codes_ = base.codes_;
        out.codes_.insert(out.codes_.end(), delta.codes_.begin(),
                          delta.codes_.end());
        break;
      }
      // Sorted-union merge: the merged dictionary is exactly the sorted
      // distinct set a cold re-encode of base++delta would build, so the
      // interner dedups it against any such column.
      const Dictionary& a = *base.dict_;
      const Dictionary& b = *delta.dict_;
      Dictionary merged;
      merged.reserve(a.size() + b.size());
      std::vector<uint32_t> remap_a(a.size()), remap_b(b.size());
      size_t i = 0, j = 0;
      while (i < a.size() || j < b.size()) {
        if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
          remap_a[i++] = static_cast<uint32_t>(merged.size());
          merged.push_back(a[i - 1]);
        } else if (i >= a.size() || b[j] < a[i]) {
          remap_b[j++] = static_cast<uint32_t>(merged.size());
          merged.push_back(b[j - 1]);
        } else {
          remap_a[i++] = remap_b[j] = static_cast<uint32_t>(merged.size());
          merged.push_back(b[j]);
          ++j;
        }
      }
      out.dict_ = DictionaryInterner::Process().Intern(std::move(merged));
      out.codes_.reserve(out.size_);
      for (size_t r = 0; r < base.size_; ++r) {
        out.codes_.push_back(base.IsNull(r) ? 0 : remap_a[base.codes_[r]]);
      }
      for (size_t r = 0; r < delta.size_; ++r) {
        out.codes_.push_back(delta.IsNull(r) ? 0 : remap_b[delta.codes_[r]]);
      }
      break;
    }
  }
  return out;
}

void ColumnData::AppendValue(const Value& v) {
  auto ensure_nulls = [&](bool is_null) {
    if (nulls_.empty() && is_null) nulls_.assign(size_, 0);
    if (!nulls_.empty()) nulls_.push_back(is_null ? 1 : 0);
  };
  auto degrade_to_generic = [&] {
    generic_ = Decode();
    encoding_ = ColumnEncoding::kGeneric;
    nulls_.clear();
    ints_.clear();
    doubles_.clear();
    bools_.clear();
    codes_.clear();
    dict_.reset();
    generic_.push_back(v);
    ++size_;
  };
  switch (encoding_) {
    case ColumnEncoding::kGeneric:
      generic_.push_back(v);
      ++size_;
      return;
    case ColumnEncoding::kBool:
      if (!v.is_null() && !v.is_bool()) return degrade_to_generic();
      ensure_nulls(v.is_null());
      bools_.push_back(!v.is_null() && v.bool_value() ? 1 : 0);
      ++size_;
      return;
    case ColumnEncoding::kInt64:
      if (!v.is_null() && !v.is_int64()) return degrade_to_generic();
      ensure_nulls(v.is_null());
      ints_.push_back(v.is_null() ? 0 : v.int64_value());
      ++size_;
      return;
    case ColumnEncoding::kDouble:
      if (!v.is_null() && !v.is_double()) return degrade_to_generic();
      ensure_nulls(v.is_null());
      doubles_.push_back(v.is_null() ? 0.0 : v.double_value());
      ++size_;
      return;
    case ColumnEncoding::kDict: {
      if (!v.is_null() && !v.is_string()) return degrade_to_generic();
      ensure_nulls(v.is_null());
      if (v.is_null()) {
        codes_.push_back(0);
        ++size_;
        return;
      }
      uint32_t code = FindCode(v.string_value());
      assert(code != kNoCode && "AppendValue: string not in the dictionary");
      codes_.push_back(code);
      ++size_;
      return;
    }
  }
}

Value ColumnData::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (encoding_) {
    case ColumnEncoding::kGeneric:
      return generic_[row];
    case ColumnEncoding::kBool:
      return Value(bools_[row] != 0);
    case ColumnEncoding::kInt64:
      return Value(ints_[row]);
    case ColumnEncoding::kDouble:
      return Value(doubles_[row]);
    case ColumnEncoding::kDict:
      return Value((*dict_)[codes_[row]]);
  }
  return Value::Null();
}

std::vector<Value> ColumnData::Decode() const {
  if (encoding_ == ColumnEncoding::kGeneric) return generic_;
  std::vector<Value> out;
  out.reserve(size_);
  for (size_t r = 0; r < size_; ++r) out.push_back(GetValue(r));
  return out;
}

uint32_t ColumnData::FindCode(const std::string& s) const {
  const Dictionary& d = *dict_;
  auto it = std::lower_bound(d.begin(), d.end(), s);
  if (it != d.end() && *it == s) {
    return static_cast<uint32_t>(it - d.begin());
  }
  return kNoCode;
}

uint32_t ColumnData::LowerBoundCode(const std::string& s) const {
  const Dictionary& d = *dict_;
  return static_cast<uint32_t>(
      std::lower_bound(d.begin(), d.end(), s) - d.begin());
}

uint32_t ColumnData::UpperBoundCode(const std::string& s) const {
  const Dictionary& d = *dict_;
  return static_cast<uint32_t>(
      std::upper_bound(d.begin(), d.end(), s) - d.begin());
}

void ColumnData::GatherFrom(const ColumnData& src,
                            const std::vector<size_t>& rows, size_t begin,
                            size_t end) {
  if (!nulls_.empty()) {
    for (size_t i = begin; i < end; ++i) nulls_[i] = src.nulls_[rows[i]];
  }
  switch (encoding_) {
    case ColumnEncoding::kGeneric:
      for (size_t i = begin; i < end; ++i) generic_[i] = src.generic_[rows[i]];
      break;
    case ColumnEncoding::kBool:
      for (size_t i = begin; i < end; ++i) bools_[i] = src.bools_[rows[i]];
      break;
    case ColumnEncoding::kInt64:
      for (size_t i = begin; i < end; ++i) ints_[i] = src.ints_[rows[i]];
      break;
    case ColumnEncoding::kDouble:
      for (size_t i = begin; i < end; ++i) doubles_[i] = src.doubles_[rows[i]];
      break;
    case ColumnEncoding::kDict:
      for (size_t i = begin; i < end; ++i) codes_[i] = src.codes_[rows[i]];
      break;
  }
}

void ColumnData::GatherFromSigned(const ColumnData& src,
                                  const std::vector<ptrdiff_t>& rows,
                                  size_t begin, size_t end) {
  if (!nulls_.empty()) {
    const uint8_t* src_nulls =
        src.nulls_.empty() ? nullptr : src.nulls_.data();
    for (size_t i = begin; i < end; ++i) {
      ptrdiff_t r = rows[i];
      nulls_[i] = r < 0 ? 1 : (src_nulls != nullptr ? src_nulls[r] : 0);
    }
  }
  // Negative rows leave the zero-initialized payload; the null map (or
  // the in-band Value::Null for generic columns) is what GetValue reads.
  switch (encoding_) {
    case ColumnEncoding::kGeneric:
      for (size_t i = begin; i < end; ++i) {
        ptrdiff_t r = rows[i];
        generic_[i] = r < 0 ? Value::Null() : src.generic_[r];
      }
      break;
    case ColumnEncoding::kBool:
      for (size_t i = begin; i < end; ++i) {
        ptrdiff_t r = rows[i];
        if (r >= 0) bools_[i] = src.bools_[r];
      }
      break;
    case ColumnEncoding::kInt64:
      for (size_t i = begin; i < end; ++i) {
        ptrdiff_t r = rows[i];
        if (r >= 0) ints_[i] = src.ints_[r];
      }
      break;
    case ColumnEncoding::kDouble:
      for (size_t i = begin; i < end; ++i) {
        ptrdiff_t r = rows[i];
        if (r >= 0) doubles_[i] = src.doubles_[r];
      }
      break;
    case ColumnEncoding::kDict:
      for (size_t i = begin; i < end; ++i) {
        ptrdiff_t r = rows[i];
        if (r >= 0) codes_[i] = src.codes_[r];
      }
      break;
  }
}

size_t ColumnData::ApproxBytes() const {
  size_t bytes = nulls_.size();
  switch (encoding_) {
    case ColumnEncoding::kGeneric:
      for (const Value& v : generic_) {
        bytes += sizeof(Value);
        if (v.is_string()) bytes += v.string_value().size();
      }
      break;
    case ColumnEncoding::kBool:
      bytes += bools_.size();
      break;
    case ColumnEncoding::kInt64:
      bytes += ints_.size() * sizeof(int64_t);
      break;
    case ColumnEncoding::kDouble:
      bytes += doubles_.size() * sizeof(double);
      break;
    case ColumnEncoding::kDict:
      bytes += codes_.size() * sizeof(uint32_t);
      if (dict_ != nullptr) {
        for (const std::string& s : *dict_) {
          bytes += sizeof(std::string) + s.size();
        }
      }
      break;
  }
  return bytes;
}

}  // namespace shareinsights
