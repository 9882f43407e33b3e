#include "ops/groupby.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "common/fingerprint.h"
#include "ops/packed_key.h"
#include "ops/spill.h"
#include "simd/kernels.h"

namespace shareinsights {

namespace {

/// Hash over a row's key columns, combined with boost-style mixing.
struct KeyHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0;
    for (const Value& v : key) {
      h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    return h;
  }
};

ValueType AggregateOutputType(const std::string& op, ValueType input_type) {
  if (op == "count" || op == "count_distinct") return ValueType::kInt64;
  if (op == "avg") return ValueType::kDouble;
  return input_type;
}

}  // namespace

Result<TableOperatorPtr> GroupByOp::Create(
    std::vector<std::string> keys, std::vector<AggregateSpec> aggregates,
    bool orderby_aggregates, AggregateRegistry* registry) {
  if (registry == nullptr) registry = &AggregateRegistry::Default();
  if (keys.empty()) {
    return Status::InvalidArgument("groupby requires at least one key");
  }
  if (aggregates.empty()) {
    aggregates.push_back(AggregateSpec{"count", "", "count"});
  }
  for (const AggregateSpec& spec : aggregates) {
    if (!registry->Contains(spec.op)) {
      return Status::NotFound("no aggregate operator named '" + spec.op +
                              "'");
    }
    if (spec.out_field.empty()) {
      return Status::InvalidArgument("aggregate '" + spec.op +
                                     "' needs an out_field");
    }
  }
  return TableOperatorPtr(new GroupByOp(std::move(keys), std::move(aggregates),
                                        orderby_aggregates, registry));
}

Result<Schema> GroupByOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  if (inputs.size() != 1) {
    return Status::SchemaError("groupby expects exactly 1 input");
  }
  const Schema& in = inputs[0];
  std::vector<Field> fields;
  for (const std::string& key : keys_) {
    SI_ASSIGN_OR_RETURN(size_t idx, in.RequireIndex(key));
    fields.push_back(in.field(idx));
  }
  for (const AggregateSpec& spec : aggregates_) {
    ValueType input_type = ValueType::kInt64;
    if (!spec.apply_on.empty()) {
      SI_ASSIGN_OR_RETURN(size_t idx, in.RequireIndex(spec.apply_on));
      input_type = in.field(idx).type;
    }
    fields.push_back(
        Field{spec.out_field, AggregateOutputType(spec.op, input_type)});
  }
  return Schema(std::move(fields));
}

namespace {

struct Group {
  /// First input row of the group in scan order; group keys materialize
  /// from it (ColumnData::GetValue round-trips the exact Value, so this
  /// matches materializing from a stored Value key).
  size_t first_row = 0;
  std::vector<std::unique_ptr<Aggregator>> aggs;
};

/// One morsel's partial aggregation state. `ordered_keys` records
/// first-encounter order within the morsel, so merging locals in morsel
/// order reproduces the global scan's first-encounter order exactly.
template <typename Key, typename Hash>
struct PartialGroups {
  std::unordered_map<Key, Group, Hash> groups;
  std::vector<const Key*> ordered_keys;
};

/// Decoded Value pointers for each aggregate's input column, hoisted out
/// of the per-row loop (Table::at re-checks the lazy decode cache on
/// every call; the pointers are stable for the table's lifetime).
std::vector<const Value*> AggregateInputs(const TablePtr& input,
                                          const std::vector<size_t>& agg_idx,
                                          size_t count_col) {
  std::vector<const Value*> agg_vals;
  agg_vals.reserve(agg_idx.size());
  for (size_t idx : agg_idx) {
    agg_vals.push_back(
        input->column(idx == SIZE_MAX ? count_col : idx).data());
  }
  return agg_vals;
}

/// Merge partials in morsel order. Each local's keys are visited in its
/// first-encounter order, so global first-encounter order equals the
/// sequential scan's, and Merge always receives later-row state.
template <typename Key, typename Hash>
Result<std::vector<Group>> MergePartials(
    std::vector<PartialGroups<Key, Hash>> partials) {
  std::unordered_map<Key, Group, Hash> groups;
  std::vector<const Key*> ordered_keys;
  for (PartialGroups<Key, Hash>& local : partials) {
    for (const Key* local_key : local.ordered_keys) {
      auto node = local.groups.extract(*local_key);
      auto [it, inserted] =
          groups.try_emplace(std::move(node.key()), std::move(node.mapped()));
      if (inserted) {
        ordered_keys.push_back(&it->first);
      } else {
        for (size_t a = 0; a < it->second.aggs.size(); ++a) {
          SI_RETURN_IF_ERROR(
              it->second.aggs[a]->Merge(*node.mapped().aggs[a]));
        }
      }
    }
  }
  std::vector<Group> ordered;
  ordered.reserve(ordered_keys.size());
  for (const Key* key : ordered_keys) {
    ordered.push_back(std::move(groups.at(*key)));
  }
  return ordered;
}

/// Rows per key block: a morsel turns its rows into hash-table keys one
/// block at a time.
constexpr size_t kKeyBlockRows = 1024;

/// Packed key with its hash precomputed by the batched kernel, so the
/// hash table never re-mixes words row by row.
struct PackedKey {
  std::vector<uint64_t> words;
  uint64_t hash = 0;
  bool operator==(const PackedKey& other) const {
    return words == other.words;
  }
};

struct PrecomputedHash {
  size_t operator()(const PackedKey& key) const {
    return static_cast<size_t>(key.hash);
  }
};

/// The Aggregator morsel loop: hash-aggregates the whole input, keyed by
/// what `fill_block(begin, end, keys)` makes of rows [begin, end) (keys[i]
/// for row begin + i; it runs on the morsel's thread). Returns the merged
/// groups in global first-encounter order — the same order for packed
/// and Value keys, since packed-word equality coincides with Value
/// equality.
template <typename Key, typename Hash, typename FillBlock>
Result<std::vector<Group>> AggregateByKey(
    const TablePtr& input, const ExecContext& ctx,
    const std::vector<AggregatorFactory>& factories,
    const std::vector<size_t>& agg_idx, size_t count_col,
    const FillBlock& fill_block) {
  std::vector<PartialGroups<Key, Hash>> partials(
      MorselRanges(input->num_rows(), ctx).size());
  std::vector<const Value*> agg_vals =
      AggregateInputs(input, agg_idx, count_col);
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, input->num_rows(),
      [&](size_t m, size_t begin, size_t end) -> Status {
        PartialGroups<Key, Hash>& local = partials[m];
        std::vector<Key> keys(std::min(kKeyBlockRows, end - begin));
        for (size_t start = begin; start < end; start += kKeyBlockRows) {
          const size_t n = std::min(kKeyBlockRows, end - start);
          fill_block(start, start + n, keys.data());
          for (size_t i = 0; i < n; ++i) {
            const size_t r = start + i;
            auto [it, inserted] = local.groups.try_emplace(keys[i]);
            if (inserted) {
              it->second.first_row = r;
              local.ordered_keys.push_back(&it->first);
              for (const AggregatorFactory& factory : factories) {
                it->second.aggs.push_back(factory());
              }
            }
            for (size_t a = 0; a < agg_idx.size(); ++a) {
              SI_RETURN_IF_ERROR(it->second.aggs[a]->Update(agg_vals[a][r]));
            }
          }
        }
        return Status::OK();
      }));
  return MergePartials(std::move(partials));
}

// ---------------------------------------------------------------------------
// Typed dense path, for a single low-cardinality dictionary key whose
// aggregates all have typed forms: groups index directly by dictionary
// code (nulls take the one-past-the-end slot), so the per-row cost is an
// array lookup instead of a hash-table probe, and the per-row Aggregator
// virtual calls (and the decoded Value arrays they consume) are compiled
// away. Each aggregate spec lowers to a typed
// accumulator over the column's raw array; commutative kinds (count,
// int64 sum, int64/code min-max) run on the striped simd kernels, while
// order-sensitive double accumulation (sum/avg/min-max ties like
// -0.0 vs 0.0) stays on in-order scalar loops. Group discovery order,
// morsel-order merging, and every Aggregator merge quirk (conditional vs
// unconditional double adds, strict-compare keep-first ties) are
// replicated exactly, so the output is byte-identical to the Aggregator
// path.
// ---------------------------------------------------------------------------

constexpr size_t kDenseDictGroups = 4096;

// Mirrors value.cc's CompareDoubles: total order with NaN equal to itself
// and after every number (what Value's min/max comparisons use).
int CompareDoublesTotalOrder(double a, double b) {
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

struct TypedAggSpec {
  enum class Kind {
    kCount,         // non-null rows (any typed encoding: needs only nulls)
    kSumInt64,      // striped wrap-add kernel
    kSumDouble,     // in-order scalar (double addition is order-sensitive)
    kAvgInt64,      // in-order scalar double sum + count
    kAvgDouble,
    kMinMaxInt64,   // striped kernel (ties are bit-identical)
    kMinMaxDouble,  // in-order scalar (keep-first ties: -0.0 vs 0.0)
    kMinMaxCode,    // striped kernel over sorted-dict codes
  };
  Kind kind = Kind::kCount;
  bool is_min = false;
  const ColumnData* col = nullptr;
};

/// Lowers the aggregate specs to typed accumulators, or nullopt when any
/// spec has no typed form (first/last/count_distinct, kGeneric or bool
/// inputs, sum/avg over strings, ...) — those take the Aggregator loop,
/// preserving its exact error behavior too.
std::optional<std::vector<TypedAggSpec>> CompileTypedAggs(
    const TablePtr& input, const std::vector<AggregateSpec>& aggregates,
    const std::vector<size_t>& agg_idx, size_t count_col) {
  std::vector<TypedAggSpec> typed;
  typed.reserve(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    TypedAggSpec spec;
    const ColumnData& col =
        input->typed_column(agg_idx[a] == SIZE_MAX ? count_col : agg_idx[a]);
    spec.col = &col;
    const ColumnEncoding enc = col.encoding();
    const std::string& op = aggregates[a].op;
    if (op == "count") {
      if (enc == ColumnEncoding::kGeneric) return std::nullopt;
      spec.kind = TypedAggSpec::Kind::kCount;
    } else if (op == "sum") {
      if (enc == ColumnEncoding::kInt64) {
        spec.kind = TypedAggSpec::Kind::kSumInt64;
      } else if (enc == ColumnEncoding::kDouble) {
        spec.kind = TypedAggSpec::Kind::kSumDouble;
      } else {
        return std::nullopt;
      }
    } else if (op == "avg") {
      if (enc == ColumnEncoding::kInt64) {
        spec.kind = TypedAggSpec::Kind::kAvgInt64;
      } else if (enc == ColumnEncoding::kDouble) {
        spec.kind = TypedAggSpec::Kind::kAvgDouble;
      } else {
        return std::nullopt;
      }
    } else if (op == "min" || op == "max") {
      spec.is_min = op == "min";
      if (enc == ColumnEncoding::kInt64) {
        spec.kind = TypedAggSpec::Kind::kMinMaxInt64;
      } else if (enc == ColumnEncoding::kDouble) {
        spec.kind = TypedAggSpec::Kind::kMinMaxDouble;
      } else if (enc == ColumnEncoding::kDict) {
        spec.kind = TypedAggSpec::Kind::kMinMaxCode;
      } else {
        return std::nullopt;
      }
    } else {
      return std::nullopt;
    }
    typed.push_back(spec);
  }
  return typed;
}

/// One aggregate's accumulator arrays, indexed by local (per-morsel) or
/// global group id. Which members are live depends on the kind.
struct TypedAccum {
  std::vector<int64_t> i64;    // count; int64 min/max
  std::vector<uint64_t> u64;   // int64 sum (wrap-add)
  std::vector<double> dbl;     // double sum; avg sum; double min/max
  std::vector<int64_t> cnt;    // avg count
  std::vector<uint32_t> code;  // code min/max
  std::vector<uint8_t> seen;
};

struct TypedDensePartial {
  std::vector<uint32_t> group_codes;  // per local group, encounter order
  std::vector<size_t> first_rows;
  std::vector<TypedAccum> aggs;  // one per spec
};

Result<TablePtr> AggregateDenseTyped(const TablePtr& input,
                                     const ExecContext& ctx,
                                     const Schema& out_schema,
                                     const std::vector<TypedAggSpec>& specs,
                                     const ColumnData& key_col,
                                     size_t num_out_cols) {
  const uint32_t null_code = static_cast<uint32_t>(key_col.dict().size());
  const size_t slots = null_code + 1;
  const uint32_t* key_codes = key_col.codes().data();
  const uint8_t* key_nulls =
      key_col.has_nulls() ? key_col.nulls().data() : nullptr;

  std::vector<MorselRange> ranges = MorselRanges(input->num_rows(), ctx);
  std::vector<TypedDensePartial> partials(ranges.size());
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, input->num_rows(),
      [&](size_t m, size_t begin, size_t end) -> Status {
        TypedDensePartial& local = partials[m];
        const size_t n = end - begin;
        // Pass 1 (kernel): group slot per row. Pass 2: compact slots to
        // local group ids in first-encounter order, rewriting the buffer
        // in place so the accumulation kernels index a dense range.
        std::vector<uint32_t> rows(n);
        simd::GroupIndexes(key_codes + begin,
                           key_nulls != nullptr ? key_nulls + begin : nullptr,
                           null_code, rows.data(), n);
        std::vector<int32_t> slot(slots, -1);
        for (size_t i = 0; i < n; ++i) {
          int32_t g = slot[rows[i]];
          if (g < 0) {
            g = static_cast<int32_t>(local.group_codes.size());
            slot[rows[i]] = g;
            local.group_codes.push_back(rows[i]);
            local.first_rows.push_back(begin + i);
          }
          rows[i] = static_cast<uint32_t>(g);
        }
        const size_t ng = local.group_codes.size();
        local.aggs.resize(specs.size());
        for (size_t a = 0; a < specs.size(); ++a) {
          const TypedAggSpec& spec = specs[a];
          TypedAccum& acc = local.aggs[a];
          const ColumnData& col = *spec.col;
          const uint8_t* nulls =
              col.has_nulls() ? col.nulls().data() + begin : nullptr;
          switch (spec.kind) {
            case TypedAggSpec::Kind::kCount:
              acc.i64.assign(simd::kDenseStripes * ng, 0);
              simd::DenseCount(rows.data(), nulls, n, ng, acc.i64.data());
              simd::ReduceStripesAddI64(acc.i64.data(), ng);
              acc.i64.resize(ng);
              break;
            case TypedAggSpec::Kind::kSumInt64:
              acc.u64.assign(simd::kDenseStripes * ng, 0);
              acc.seen.assign(ng, 0);
              simd::DenseSumInt64(rows.data(), col.ints().data() + begin,
                                  nulls, n, ng, acc.u64.data(),
                                  acc.seen.data());
              simd::ReduceStripesAddU64(acc.u64.data(), ng);
              acc.u64.resize(ng);
              break;
            case TypedAggSpec::Kind::kSumDouble: {
              acc.dbl.assign(ng, 0.0);
              acc.seen.assign(ng, 0);
              const double* v = col.doubles().data() + begin;
              for (size_t i = 0; i < n; ++i) {
                if (nulls != nullptr && nulls[i] != 0) continue;
                acc.dbl[rows[i]] += v[i];
                acc.seen[rows[i]] = 1;
              }
              break;
            }
            case TypedAggSpec::Kind::kAvgInt64: {
              acc.dbl.assign(ng, 0.0);
              acc.cnt.assign(ng, 0);
              const int64_t* v = col.ints().data() + begin;
              for (size_t i = 0; i < n; ++i) {
                if (nulls != nullptr && nulls[i] != 0) continue;
                acc.dbl[rows[i]] += static_cast<double>(v[i]);
                acc.cnt[rows[i]] += 1;
              }
              break;
            }
            case TypedAggSpec::Kind::kAvgDouble: {
              acc.dbl.assign(ng, 0.0);
              acc.cnt.assign(ng, 0);
              const double* v = col.doubles().data() + begin;
              for (size_t i = 0; i < n; ++i) {
                if (nulls != nullptr && nulls[i] != 0) continue;
                acc.dbl[rows[i]] += v[i];
                acc.cnt[rows[i]] += 1;
              }
              break;
            }
            case TypedAggSpec::Kind::kMinMaxInt64:
              acc.i64.assign(simd::kDenseStripes * ng,
                             spec.is_min ? INT64_MAX : INT64_MIN);
              acc.seen.assign(ng, 0);
              simd::DenseMinMaxInt64(rows.data(), col.ints().data() + begin,
                                     nulls, spec.is_min, n, ng,
                                     acc.i64.data(), acc.seen.data());
              simd::ReduceStripesMinMaxI64(acc.i64.data(), ng, spec.is_min);
              acc.i64.resize(ng);
              break;
            case TypedAggSpec::Kind::kMinMaxDouble: {
              acc.dbl.assign(ng, 0.0);
              acc.seen.assign(ng, 0);
              const double* v = col.doubles().data() + begin;
              for (size_t i = 0; i < n; ++i) {
                if (nulls != nullptr && nulls[i] != 0) continue;
                uint32_t g = rows[i];
                if (acc.seen[g] == 0) {
                  acc.dbl[g] = v[i];
                  acc.seen[g] = 1;
                } else {
                  int cmp = CompareDoublesTotalOrder(v[i], acc.dbl[g]);
                  if (spec.is_min ? cmp < 0 : cmp > 0) acc.dbl[g] = v[i];
                }
              }
              break;
            }
            case TypedAggSpec::Kind::kMinMaxCode:
              acc.code.assign(simd::kDenseStripes * ng,
                              spec.is_min ? UINT32_MAX : 0);
              acc.seen.assign(ng, 0);
              simd::DenseMinMaxCode(rows.data(), col.codes().data() + begin,
                                    nulls, spec.is_min, n, ng,
                                    acc.code.data(), acc.seen.data());
              simd::ReduceStripesMinMaxU32(acc.code.data(), ng, spec.is_min);
              acc.code.resize(ng);
              break;
          }
        }
        return Status::OK();
      }));

  // Merge partials in morsel order. First encounter copies the partial's
  // accumulator (the Aggregator path moves the first partial unmerged —
  // adding it to an identity element instead would turn e.g. a -0.0
  // double sum into +0.0); later partials merge with each Aggregator's
  // exact rule: double sums add conditionally on the peer having seen a
  // row, avg adds unconditionally, min/max strict-compares so the
  // earlier row's value wins ties.
  std::vector<int32_t> slot(slots, -1);
  std::vector<uint32_t> group_codes;
  std::vector<size_t> first_rows;
  std::vector<TypedAccum> global(specs.size());
  for (TypedDensePartial& local : partials) {
    const size_t lng = local.group_codes.size();
    for (size_t i = 0; i < lng; ++i) {
      int32_t g = slot[local.group_codes[i]];
      const bool fresh = g < 0;
      if (fresh) {
        g = static_cast<int32_t>(group_codes.size());
        slot[local.group_codes[i]] = g;
        group_codes.push_back(local.group_codes[i]);
        first_rows.push_back(local.first_rows[i]);
      }
      for (size_t a = 0; a < specs.size(); ++a) {
        const TypedAggSpec& spec = specs[a];
        TypedAccum& acc = global[a];
        const TypedAccum& part = local.aggs[a];
        switch (spec.kind) {
          case TypedAggSpec::Kind::kCount:
            if (fresh) {
              acc.i64.push_back(part.i64[i]);
            } else {
              acc.i64[g] += part.i64[i];
            }
            break;
          case TypedAggSpec::Kind::kSumInt64:
            if (fresh) {
              acc.u64.push_back(part.u64[i]);
              acc.seen.push_back(part.seen[i]);
            } else {
              acc.u64[g] += part.u64[i];
              acc.seen[g] |= part.seen[i];
            }
            break;
          case TypedAggSpec::Kind::kSumDouble:
            if (fresh) {
              acc.dbl.push_back(part.dbl[i]);
              acc.seen.push_back(part.seen[i]);
            } else if (part.seen[i] != 0) {
              acc.dbl[g] += part.dbl[i];
              acc.seen[g] = 1;
            }
            break;
          case TypedAggSpec::Kind::kAvgInt64:
          case TypedAggSpec::Kind::kAvgDouble:
            if (fresh) {
              acc.dbl.push_back(part.dbl[i]);
              acc.cnt.push_back(part.cnt[i]);
            } else {
              acc.dbl[g] += part.dbl[i];
              acc.cnt[g] += part.cnt[i];
            }
            break;
          case TypedAggSpec::Kind::kMinMaxInt64:
            if (fresh) {
              acc.i64.push_back(part.i64[i]);
              acc.seen.push_back(part.seen[i]);
            } else if (part.seen[i] != 0 &&
                       (acc.seen[g] == 0 ||
                        (spec.is_min ? part.i64[i] < acc.i64[g]
                                     : part.i64[i] > acc.i64[g]))) {
              acc.i64[g] = part.i64[i];
              acc.seen[g] = 1;
            }
            break;
          case TypedAggSpec::Kind::kMinMaxDouble:
            if (fresh) {
              acc.dbl.push_back(part.dbl[i]);
              acc.seen.push_back(part.seen[i]);
            } else if (part.seen[i] != 0) {
              int cmp = CompareDoublesTotalOrder(part.dbl[i], acc.dbl[g]);
              if (acc.seen[g] == 0 || (spec.is_min ? cmp < 0 : cmp > 0)) {
                acc.dbl[g] = part.dbl[i];
                acc.seen[g] = 1;
              }
            }
            break;
          case TypedAggSpec::Kind::kMinMaxCode:
            if (fresh) {
              acc.code.push_back(part.code[i]);
              acc.seen.push_back(part.seen[i]);
            } else if (part.seen[i] != 0 &&
                       (acc.seen[g] == 0 ||
                        (spec.is_min ? part.code[i] < acc.code[g]
                                     : part.code[i] > acc.code[g]))) {
              acc.code[g] = part.code[i];
              acc.seen[g] = 1;
            }
            break;
        }
      }
    }
  }

  // Finalize straight into the output table (same spill-aware tail as
  // the Aggregator paths).
  return MaterializeRowsWithSpill(
      out_schema, group_codes.size(), num_out_cols, ctx, "groupby",
      [&](size_t begin, size_t end, TableBuilder* builder) -> Status {
        for (size_t g = begin; g < end; ++g) {
          std::vector<Value> row;
          row.reserve(num_out_cols);
          row.push_back(key_col.GetValue(first_rows[g]));
          for (size_t a = 0; a < specs.size(); ++a) {
            const TypedAggSpec& spec = specs[a];
            const TypedAccum& acc = global[a];
            switch (spec.kind) {
              case TypedAggSpec::Kind::kCount:
                row.push_back(Value(acc.i64[g]));
                break;
              case TypedAggSpec::Kind::kSumInt64:
                row.push_back(acc.seen[g] != 0
                                  ? Value(static_cast<int64_t>(acc.u64[g]))
                                  : Value::Null());
                break;
              case TypedAggSpec::Kind::kSumDouble:
                row.push_back(acc.seen[g] != 0 ? Value(acc.dbl[g])
                                               : Value::Null());
                break;
              case TypedAggSpec::Kind::kAvgInt64:
              case TypedAggSpec::Kind::kAvgDouble:
                row.push_back(acc.cnt[g] == 0
                                  ? Value::Null()
                                  : Value(acc.dbl[g] /
                                          static_cast<double>(acc.cnt[g])));
                break;
              case TypedAggSpec::Kind::kMinMaxInt64:
                row.push_back(acc.seen[g] != 0 ? Value(acc.i64[g])
                                               : Value::Null());
                break;
              case TypedAggSpec::Kind::kMinMaxDouble:
                row.push_back(acc.seen[g] != 0 ? Value(acc.dbl[g])
                                               : Value::Null());
                break;
              case TypedAggSpec::Kind::kMinMaxCode:
                row.push_back(acc.seen[g] != 0
                                  ? Value(spec.col->dict()[acc.code[g]])
                                  : Value::Null());
                break;
            }
          }
          SI_RETURN_IF_ERROR(builder->AppendRow(std::move(row)));
        }
        return Status::OK();
      });
}

/// Input column positions and aggregator factories of one group-by,
/// resolved against the schema of the table it reads.
struct GroupByBinding {
  std::vector<size_t> key_idx;
  // apply_on column index per aggregate; SIZE_MAX = count over the first
  // key column (counts rows).
  std::vector<size_t> agg_idx;
  std::vector<AggregatorFactory> factories;
};

Result<GroupByBinding> BindGroupBy(const Schema& schema,
                                   const std::vector<std::string>& keys,
                                   const std::vector<AggregateSpec>& aggregates,
                                   AggregateRegistry* registry) {
  GroupByBinding binding;
  binding.key_idx.resize(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    SI_ASSIGN_OR_RETURN(binding.key_idx[k], schema.RequireIndex(keys[k]));
  }
  binding.agg_idx.assign(aggregates.size(), SIZE_MAX);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (!aggregates[a].apply_on.empty()) {
      SI_ASSIGN_OR_RETURN(binding.agg_idx[a],
                          schema.RequireIndex(aggregates[a].apply_on));
    }
    SI_ASSIGN_OR_RETURN(AggregatorFactory factory,
                        registry->Get(aggregates[a].op));
    binding.factories.push_back(std::move(factory));
  }
  return binding;
}

/// The `orderby_aggregates` tail: `result`'s rows stably re-sorted
/// descending by column `agg_col` (the first aggregate).
Result<TablePtr> SortByAggregateDescending(const TablePtr& result,
                                           size_t agg_col,
                                           const ExecContext& ctx) {
  std::vector<size_t> order(result->num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return result->at(b, agg_col) < result->at(a, agg_col);
  });
  return GatherRows(result, order, ctx);
}

}  // namespace

Result<TablePtr> GroupByOp::Execute(const std::vector<TablePtr>& inputs,
                                    const ExecContext& ctx) const {
  const TablePtr& input = inputs[0];
  SI_ASSIGN_OR_RETURN(Schema out_schema, OutputSchema({input->schema()}));
  SI_ASSIGN_OR_RETURN(
      GroupByBinding binding,
      BindGroupBy(input->schema(), keys_, aggregates_, registry_));
  const std::vector<size_t>& key_idx = binding.key_idx;
  const std::vector<size_t>& agg_idx = binding.agg_idx;
  const std::vector<AggregatorFactory>& factories = binding.factories;

  // User-registered aggregates may predate Merge; without it partials
  // cannot combine, so run those as a single morsel (sequential path).
  ExecContext effective = ctx;
  for (const AggregatorFactory& factory : factories) {
    if (!factory()->mergeable()) {
      effective.pool = nullptr;
      effective.morsel_rows = std::max<size_t>(input->num_rows(), 1);
      break;
    }
  }

  // A single low-cardinality dict key with fully typed aggregates runs
  // the kernel-backed dense path. Everything else runs the Aggregator
  // loop, hashing packed uint64 words, or Value vectors when KeyPacker
  // rejects a key column.
  const ColumnData& first_key = input->typed_column(key_idx[0]);
  const bool dense_key = key_idx.size() == 1 &&
                         first_key.encoding() == ColumnEncoding::kDict &&
                         first_key.dict().size() <= kDenseDictGroups;
  TablePtr result;
  std::optional<std::vector<TypedAggSpec>> typed;
  if (dense_key && registry_ == &AggregateRegistry::Default()) {
    typed = CompileTypedAggs(input, aggregates_, agg_idx, key_idx[0]);
  }
  if (typed.has_value()) {
    SI_ASSIGN_OR_RETURN(
        result, AggregateDenseTyped(input, effective, out_schema, *typed,
                                    first_key,
                                    keys_.size() + aggregates_.size()));
  } else {
    std::vector<Group> ordered;
    if (std::optional<KeyPacker> packer =
            KeyPacker::Create(*input, key_idx)) {
      // PackBlock hoists the per-column encoding switch out of the row
      // loop and HashPackedKeysBlock hashes the whole block in one pass,
      // leaving only the hash-table probe itself on the per-row path.
      const size_t stride = packer->stride();
      auto pack = [&](size_t begin, size_t end, PackedKey* keys) {
        std::vector<uint64_t> words((end - begin) * stride);
        std::vector<uint64_t> hashes(end - begin);
        packer->PackBlock(begin, end, words.data());
        simd::HashPackedKeysBlock(words.data(), stride, end - begin,
                                  hashes.data());
        for (size_t i = 0; i < end - begin; ++i) {
          keys[i].words.assign(words.begin() + i * stride,
                               words.begin() + (i + 1) * stride);
          keys[i].hash = hashes[i];
        }
      };
      SI_ASSIGN_OR_RETURN(ordered,
                          (AggregateByKey<PackedKey, PrecomputedHash>(
                              input, effective, factories, agg_idx,
                              key_idx[0], pack)));
    } else {
      auto decode = [&](size_t begin, size_t end, std::vector<Value>* keys) {
        for (size_t r = begin; r < end; ++r) {
          std::vector<Value>& key = keys[r - begin];
          key.resize(key_idx.size());
          for (size_t k = 0; k < key_idx.size(); ++k) {
            key[k] = input->at(r, key_idx[k]);
          }
        }
      };
      SI_ASSIGN_OR_RETURN(ordered,
                          (AggregateByKey<std::vector<Value>, KeyHash>(
                              input, effective, factories, agg_idx,
                              key_idx[0], decode)));
    }

    // Materialize rows in group-encounter order. The output (group keys +
    // finalized aggregates) is the operator's dominant allocation; charge
    // it before building so an over-budget aggregation fails with a named
    // kResourceExhausted — or, when the run has a spill area, degrades to
    // chunked compressed spill partitions merged back in group order.
    // Chunks partition the group range, so each Finalize still runs once.
    SI_ASSIGN_OR_RETURN(
        result,
        MaterializeRowsWithSpill(
            out_schema, ordered.size(), keys_.size() + aggregates_.size(),
            ctx, "groupby",
            [&](size_t begin, size_t end, TableBuilder* builder) -> Status {
              for (size_t g = begin; g < end; ++g) {
                Group& group = ordered[g];
                std::vector<Value> row;
                row.reserve(keys_.size() + aggregates_.size());
                for (size_t k = 0; k < key_idx.size(); ++k) {
                  row.push_back(input->typed_column(key_idx[k])
                                    .GetValue(group.first_row));
                }
                for (auto& agg : group.aggs) {
                  SI_ASSIGN_OR_RETURN(Value v, agg->Finalize());
                  row.push_back(std::move(v));
                }
                SI_RETURN_IF_ERROR(builder->AppendRow(std::move(row)));
              }
              return Status::OK();
            }));
  }

  if (orderby_aggregates_ && !aggregates_.empty()) {
    return SortByAggregateDescending(result, keys_.size(), ctx);
  }
  return result;
}


namespace {

/// Persistent accumulator state for the streaming append path, groups in
/// global first-encounter order. Keys are the materialized
/// first-encounter-row Values, so emission matches the cold path's
/// GetValue(first_row) bit for bit (0.0 vs -0.0 etc.).
///
/// Accumulation follows the cold path's morsel boundaries (multiples of
/// ctx.morsel_rows over the whole grown input). Each group keeps a
/// `closed` accumulator, its complete morsels merged exactly as
/// MergePartials merges them (first partial moved, later ones merged),
/// and an `open` one for the current morsel, updated in row order.
/// Double addition is not associative, so folding every row into one
/// accumulator would drift from the cold path in the low bits.
class GroupByDeltaState : public OperatorState {
 public:
  using Aggs = std::vector<std::unique_ptr<Aggregator>>;
  struct StateGroup {
    /// The group's output row: its key, then, once emitted, closed ⊕ open
    /// finalized. The aggregates stay until the group absorbs another row
    /// (closing a morsel leaves them unchanged).
    std::vector<Value> row;
    Aggs closed;  // empty until a morsel holding the group closes
    Aggs open;    // empty while the open morsel has no row of the group
  };

  std::unordered_map<std::vector<Value>, size_t, KeyHash> index;
  std::vector<StateGroup> ordered;
  std::vector<size_t> open_groups;  // groups with rows in the open morsel
  size_t rows = 0;                  // rows absorbed so far
  size_t num_cells = 0;  // groups * (keys + aggregates), for ApproxBytes

  size_t ApproxBytes() const override { return ApproxCellBytes(1, num_cells); }
};

/// Folds the open morsel's accumulators into the closed ones.
Status CloseMorsel(GroupByDeltaState& state) {
  for (size_t g : state.open_groups) {
    GroupByDeltaState::StateGroup& group = state.ordered[g];
    if (group.closed.empty()) {
      group.closed = std::move(group.open);
    } else {
      for (size_t a = 0; a < group.closed.size(); ++a) {
        SI_RETURN_IF_ERROR(group.closed[a]->Merge(*group.open[a]));
      }
    }
    group.open.clear();
  }
  state.open_groups.clear();
  return Status::OK();
}

/// Folds every row of `input` into the state, in row order, closing the
/// open morsel at each multiple of ctx.morsel_rows. With packed-word and
/// dense-code equality coinciding with Value equality, this reproduces
/// the cold path's group order and aggregate bits exactly.
Status AbsorbRows(GroupByDeltaState& state, const TablePtr& input,
                  const GroupByBinding& binding, const ExecContext& ctx) {
  const std::vector<size_t>& key_idx = binding.key_idx;
  const std::vector<size_t>& agg_idx = binding.agg_idx;
  const size_t morsel_rows = std::max<size_t>(1, ctx.morsel_rows);
  std::vector<const Value*> agg_vals =
      AggregateInputs(input, agg_idx, key_idx[0]);
  std::vector<Value> key(key_idx.size());
  for (size_t r = 0; r < input->num_rows(); ++r, ++state.rows) {
    if ((r & 4095) == 0) SI_RETURN_IF_ERROR(ctx.CheckCancelled());
    if (state.rows > 0 && state.rows % morsel_rows == 0) {
      SI_RETURN_IF_ERROR(CloseMorsel(state));
    }
    for (size_t k = 0; k < key_idx.size(); ++k) {
      key[k] = input->at(r, key_idx[k]);
    }
    auto [it, inserted] = state.index.try_emplace(key, state.ordered.size());
    if (inserted) {
      state.ordered.push_back(GroupByDeltaState::StateGroup{key, {}, {}});
      state.num_cells += key_idx.size() + agg_idx.size();
    }
    GroupByDeltaState::StateGroup& group = state.ordered[it->second];
    group.row.resize(key_idx.size());
    if (group.open.empty()) {
      for (const AggregatorFactory& factory : binding.factories) {
        group.open.push_back(factory());
      }
      state.open_groups.push_back(it->second);
    }
    for (size_t a = 0; a < agg_idx.size(); ++a) {
      SI_RETURN_IF_ERROR(group.open[a]->Update(agg_vals[a][r]));
    }
  }
  return Status::OK();
}

/// Aggregate `a` of `group` finalized as closed merged with open, leaving
/// both untouched: only a group with rows on both sides of the open
/// morsel's start needs a copy.
Result<Value> FinalizeAggregate(GroupByDeltaState::StateGroup& group,
                                size_t a) {
  if (group.open.empty()) return group.closed[a]->Finalize();
  if (group.closed.empty()) return group.open[a]->Finalize();
  SI_ASSIGN_OR_RETURN(std::unique_ptr<Aggregator> merged,
                      group.closed[a]->Clone());
  SI_RETURN_IF_ERROR(merged->Merge(*group.open[a]));
  return merged->Finalize();
}

}  // namespace

DeltaMode GroupByOp::delta_mode(const std::vector<bool>&) const {
  // Custom registries may bind aggregates with destructive Finalize; the
  // live-state re-emit calls Finalize once per append, so only the
  // default registry (audited non-destructive) accumulates.
  return registry_ == &AggregateRegistry::Default() ? DeltaMode::kAccumulate
                                                    : DeltaMode::kNone;
}

Result<OperatorStatePtr> GroupByOp::SeedDeltaState(
    const std::vector<TablePtr>& base_inputs, const ExecContext& ctx) const {
  const TablePtr& input = base_inputs[0];
  SI_ASSIGN_OR_RETURN(
      GroupByBinding binding,
      BindGroupBy(input->schema(), keys_, aggregates_, registry_));
  auto state = std::make_shared<GroupByDeltaState>();
  SI_RETURN_IF_ERROR(AbsorbRows(*state, input, binding, ctx));
  return OperatorStatePtr(std::move(state));
}

Result<TablePtr> GroupByOp::ExecuteDelta(const std::vector<TablePtr>& inputs,
                                         const std::vector<bool>&,
                                         OperatorState* state,
                                         const ExecContext& ctx) const {
  auto* gb_state = dynamic_cast<GroupByDeltaState*>(state);
  if (gb_state == nullptr) {
    return Status::Internal("groupby ExecuteDelta without seeded state");
  }
  const TablePtr& delta = inputs[0];
  SI_ASSIGN_OR_RETURN(Schema out_schema, OutputSchema({delta->schema()}));
  SI_ASSIGN_OR_RETURN(
      GroupByBinding binding,
      BindGroupBy(delta->schema(), keys_, aggregates_, registry_));
  SI_RETURN_IF_ERROR(AbsorbRows(*gb_state, delta, binding, ctx));

  // Re-emit the whole output from live state — the same materialization
  // (and optional descending re-sort) as the cold path's tail, including
  // its graceful degradation to spill under memory pressure.
  SI_ASSIGN_OR_RETURN(
      TablePtr result,
      MaterializeRowsWithSpill(
          out_schema, gb_state->ordered.size(),
          keys_.size() + aggregates_.size(), ctx, "groupby",
          [&](size_t begin, size_t end, TableBuilder* builder) -> Status {
            for (size_t g = begin; g < end; ++g) {
              GroupByDeltaState::StateGroup& group = gb_state->ordered[g];
              if (group.row.size() == keys_.size()) {
                std::vector<Value> finals;
                for (size_t a = 0; a < aggregates_.size(); ++a) {
                  SI_ASSIGN_OR_RETURN(Value v, FinalizeAggregate(group, a));
                  finals.push_back(std::move(v));
                }
                group.row.insert(group.row.end(), finals.begin(), finals.end());
              }
              SI_RETURN_IF_ERROR(builder->AppendRow(group.row));
            }
            return Status::OK();
          }));

  if (orderby_aggregates_ && !aggregates_.empty()) {
    return SortByAggregateDescending(result, keys_.size(), ctx);
  }
  return result;
}

std::string GroupByOp::CacheKey() const {
  // A custom aggregate registry may bind the same name ("sum") to
  // different semantics, so only default-registry group-bys fingerprint.
  if (registry_ != &AggregateRegistry::Default()) return "";
  std::string key = "groupby(";
  for (const std::string& k : keys_) key += Fingerprinter::Field(k) + ",";
  key += ';';
  for (const AggregateSpec& agg : aggregates_) {
    key += Fingerprinter::Field(agg.op) + Fingerprinter::Field(agg.apply_on) +
           Fingerprinter::Field(agg.out_field) + ",";
  }
  key += orderby_aggregates_ ? ";ob)" : ";)";
  return key;
}

}  // namespace shareinsights
