#include "ops/project.h"

#include <optional>

#include "common/fingerprint.h"

namespace shareinsights {

TableOperatorPtr ProjectOp::Keep(const std::vector<std::string>& columns) {
  std::vector<Mapping> mappings;
  mappings.reserve(columns.size());
  for (const std::string& c : columns) mappings.push_back(Mapping{c, c});
  return std::make_shared<ProjectOp>(std::move(mappings));
}

Result<Schema> ProjectOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  if (inputs.size() != 1) {
    return Status::SchemaError("project expects exactly 1 input");
  }
  std::vector<Field> fields;
  fields.reserve(mappings_.size());
  for (const Mapping& m : mappings_) {
    SI_ASSIGN_OR_RETURN(size_t idx, inputs[0].RequireIndex(m.input));
    fields.push_back(Field{m.output, inputs[0].field(idx).type});
  }
  return Schema(std::move(fields));
}

Result<TablePtr> ProjectOp::Execute(const std::vector<TablePtr>& inputs,
                                    const ExecContext&) const {
  const TablePtr& input = inputs[0];
  SI_ASSIGN_OR_RETURN(Schema out_schema, OutputSchema({input->schema()}));
  std::vector<ColumnData> columns;
  columns.reserve(mappings_.size());
  for (const Mapping& m : mappings_) {
    SI_ASSIGN_OR_RETURN(size_t idx, input->schema().RequireIndex(m.input));
    columns.push_back(input->typed_column(idx));
  }
  return Table::FromColumnData(std::move(out_schema), std::move(columns));
}

Result<TableOperatorPtr> ExpressionColumnOp::Create(
    const std::string& output_column, const std::string& expression) {
  if (output_column.empty()) {
    return Status::InvalidArgument("expression map requires an output column");
  }
  SI_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(expression));
  return TableOperatorPtr(
      new ExpressionColumnOp(output_column, std::move(expr)));
}

Result<Schema> ExpressionColumnOp::OutputSchema(
    const std::vector<Schema>& inputs) const {
  if (inputs.size() != 1) {
    return Status::SchemaError("map expects exactly 1 input");
  }
  SI_RETURN_IF_ERROR(BoundExpr::Bind(expr_, inputs[0]).status());
  Schema out = inputs[0];
  // Expression output type is data-dependent; publish as string unless it
  // already exists (overwrite keeps the prior declared type).
  if (!out.Contains(output_column_)) {
    out.AddField(Field{output_column_, ValueType::kString});
  }
  return out;
}

Result<TablePtr> ExpressionColumnOp::Execute(
    const std::vector<TablePtr>& inputs, const ExecContext& ctx) const {
  const TablePtr& input = inputs[0];
  SI_ASSIGN_OR_RETURN(BoundExpr bound,
                      BoundExpr::Bind(expr_, input->schema()));
  std::vector<Value> computed(input->num_rows());
  SI_RETURN_IF_ERROR(ForEachMorsel(
      ctx, input->num_rows(),
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t r = begin; r < end; ++r) {
          SI_ASSIGN_OR_RETURN(computed[r], bound.Eval(*input, r));
        }
        return Status::OK();
      }));
  // An overwritten column keeps its declared type (see OutputSchema).
  std::optional<size_t> existing = input->schema().IndexOf(output_column_);
  ValueType type = existing.has_value() ? input->schema().field(*existing).type
                                        : ValueType::kString;
  return WithColumn(input, output_column_, type, std::move(computed));
}


std::string ProjectOp::CacheKey() const {
  std::string key = "project(";
  for (const Mapping& m : mappings_) {
    key += Fingerprinter::Field(m.input) + Fingerprinter::Field(m.output) + ",";
  }
  key += ')';
  return key;
}

std::string ExpressionColumnOp::CacheKey() const {
  return "map_expr(" + Fingerprinter::Field(output_column_) + "," +
         Fingerprinter::Field(expr_->ToString()) + ")";
}

}  // namespace shareinsights
