#ifndef SHAREINSIGHTS_TABLE_COLUMN_H_
#define SHAREINSIGHTS_TABLE_COLUMN_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace shareinsights {

/// Physical layout of one table column (MonetDB/X100-style typed vectors,
/// C-Store-style dictionary compression for strings):
///
///   kInt64 / kDouble / kBool  raw primitive arrays (+ null map)
///   kDict                     uint32 codes into a per-column sorted string
///                             dictionary (+ null map)
///   kGeneric                  the legacy std::vector<Value> — used when a
///                             column mixes cell types, and as the
///                             correctness oracle for the typed kernels
///
/// A column is encoded once at Table build time; operators with typed
/// kernels (filter compares, group-by / join / distinct hashing, gathers,
/// cube slices) read the raw arrays directly. Project and the map family
/// keep their input's encoded columns and shared dictionaries, encoding
/// only the column they add. The remaining Value readers go through the
/// decoded compatibility view cached on the Table.
enum class ColumnEncoding { kGeneric, kBool, kInt64, kDouble, kDict };

/// Canonical lowercase name ("generic", "bool", "int64", "double", "dict").
const char* ColumnEncodingName(ColumnEncoding encoding);

/// Replicates Value::Compare(Value(cell), other) for an int64 cell without
/// constructing the Value (cross-type ordering by rank, int64/double
/// numerically). `other` must not be compared against a null cell — the
/// caller handles nulls via the column's null map.
int CompareInt64Cell(int64_t cell, const Value& other);

/// Same for a double cell (NaN totally ordered: equal to itself, after
/// every number — matching Value::Compare).
int CompareDoubleCell(double cell, const Value& other);

/// Same for a bool cell.
int CompareBoolCell(bool cell, const Value& other);

/// Bit pattern used by packed hash keys for a double cell: -0.0 collapses
/// to +0.0 and every NaN to one canonical NaN, so bit-equality of packed
/// words coincides with Value::Compare(...) == 0 within a double column.
inline uint64_t PackDoubleBits(double d) {
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  if (d == 0.0) d = 0.0;  // collapse -0.0
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Encoded storage for one column. Immutable once built (like the Table
/// that owns it) except during the morsel-parallel gather fill, where each
/// morsel writes a disjoint row range.
class ColumnData {
 public:
  using Dictionary = std::vector<std::string>;
  using DictionaryPtr = std::shared_ptr<const Dictionary>;

  /// Sentinel code for "string not present in the dictionary" used by
  /// cross-table code translation (joins). Never a valid code.
  static constexpr uint32_t kNoCode = std::numeric_limits<uint32_t>::max();

  ColumnData() = default;

  /// Picks the narrowest encoding that can represent `values` losslessly:
  /// a single non-null cell type (plus nulls) encodes typed, anything
  /// mixed stays kGeneric. `force_generic` pins the legacy representation
  /// (the encoding-equivalence suite's oracle).
  static ColumnData Encode(std::vector<Value> values,
                           bool force_generic = false);

  /// An empty column shaped like `like` (same encoding, shared
  /// dictionary) with room for `rows` rows, ready for GatherFrom fills.
  /// `force_nulls` adds a null map even when `like` has none — required
  /// when the fill can write null cells the source doesn't have
  /// (outer-join emit).
  static ColumnData AllocateLike(const ColumnData& like, size_t rows,
                                 bool force_nulls = false);

  /// Encoding-preserving concatenation `base ++ delta` — the storage
  /// kernel of the streaming append path. Same-encoding primitives extend
  /// their raw arrays; two dictionary columns merge into the sorted union
  /// dictionary (the same distinct-set-sorted dictionary a cold re-encode
  /// would build, re-interned through the DictionaryInterner) with both
  /// code arrays remapped; an all-null side adopts the other side's
  /// encoding. Only genuinely mixed-type combinations fall back to a
  /// generic re-encode. Decoded content is always exactly
  /// `base.Decode() ++ delta.Decode()`.
  static ColumnData Concat(const ColumnData& base, const ColumnData& delta);

  /// Appends one cell in place, preserving the typed encoding: primitives
  /// push onto their raw arrays, and a dictionary column reuses the
  /// string's existing code. Precondition for a kDict column: a string
  /// cell must already be in the dictionary (the dictionary is shared and
  /// never grows here; a batch bringing new strings is encoded on its own
  /// and merged through Concat). A type-consistent append therefore NEVER
  /// degrades the column to kGeneric; only a cell whose type genuinely
  /// conflicts with the encoding converts the column to generic storage —
  /// the same representation a cold Encode of the mixed column would
  /// pick. Must only be called on a column not yet owned by a Table
  /// (tables are immutable).
  void AppendValue(const Value& v);

  ColumnEncoding encoding() const { return encoding_; }
  size_t size() const { return size_; }

  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t row) const {
    return !nulls_.empty() && nulls_[row] != 0;
  }

  /// Decodes one cell back to the exact Value that was encoded.
  Value GetValue(size_t row) const;

  /// Decodes the whole column (the Table's compatibility view).
  std::vector<Value> Decode() const;

  // Typed accessors; valid only for the matching encoding.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const Dictionary& dict() const { return *dict_; }
  const DictionaryPtr& shared_dict() const { return dict_; }
  const std::vector<Value>& generic() const { return generic_; }

  /// Null map (empty when the column has no nulls; byte-per-row so
  /// morsel-parallel gathers write disjoint ranges without word races).
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Index of `s` in the sorted dictionary, or kNoCode. kDict only.
  uint32_t FindCode(const std::string& s) const;

  /// First dictionary code whose string is >= / > `s` (lower/upper bound
  /// in the sorted dictionary). kDict only.
  uint32_t LowerBoundCode(const std::string& s) const;
  uint32_t UpperBoundCode(const std::string& s) const;

  /// Copies rows `rows[begin..end)` of `src` into this column's same
  /// range. `this` must come from AllocateLike(src, rows.size()). Ranges
  /// of distinct morsels are disjoint, so concurrent fills are safe.
  void GatherFrom(const ColumnData& src, const std::vector<size_t>& rows,
                  size_t begin, size_t end);

  /// GatherFrom over signed rows: a negative row writes a null cell (the
  /// missing side of an outer-join row). When any row can be negative,
  /// `this` must come from AllocateLike(src, n, /*force_nulls=*/true).
  void GatherFromSigned(const ColumnData& src,
                        const std::vector<ptrdiff_t>& rows, size_t begin,
                        size_t end);

  /// Encoded footprint: primitive/code arrays + dictionary payload + null
  /// map for typed columns; sizeof(Value) + string payloads for kGeneric.
  /// A shared dictionary is charged in full to each column referencing it
  /// (conservative, keeps the cost model monotone).
  size_t ApproxBytes() const;

 private:
  ColumnEncoding encoding_ = ColumnEncoding::kGeneric;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;  // empty = no nulls; else 1 byte per row

  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<uint32_t> codes_;
  DictionaryPtr dict_;
  std::vector<Value> generic_;
};

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_TABLE_COLUMN_H_
