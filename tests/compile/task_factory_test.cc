// Unit tests for task binding: config -> operator, including widget-state
// resolution, custom task types, and the built-in gazetteer.

#include "compile/task_factory.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "flow/flow_file.h"

namespace shareinsights {
namespace {

TaskDecl MakeTask(const std::string& yaml) {
  auto root = ParseConfig(yaml);
  EXPECT_TRUE(root.ok()) << root.status();
  TaskDecl task;
  task.name = root->entries()[0].first;
  task.config = root->entries()[0].second;
  task.type = task.config.GetString("type");
  if (task.type.empty() && task.config.Has("parallel")) {
    task.type = "parallel";
  }
  return task;
}

class FixedResolver : public WidgetValueResolver {
 public:
  Result<Selection> Resolve(const std::string& widget_name,
                            const std::string& widget_column) override {
    last_widget = widget_name;
    last_column = widget_column;
    return selection;
  }
  Selection selection;
  std::string last_widget;
  std::string last_column;
};

TablePtr Rows() {
  TableBuilder builder(Schema({Field{"team", ValueType::kString},
                               Field{"score", ValueType::kInt64}}));
  (void)builder.AppendRow({Value("CSK"), Value(static_cast<int64_t>(9))});
  (void)builder.AppendRow({Value("MI"), Value(static_cast<int64_t>(4))});
  return *builder.Finish();
}

TEST(TaskFactoryTest, FilterExpression) {
  TaskDecl task = MakeTask(
      "classification:\n"
      "  type: filter_by\n"
      "  filter_expression: 'score < 5'\n");
  FlowFile file;
  auto op = BuildTask(task, file, TaskBindContext{});
  ASSERT_TRUE(op.ok()) << op.status();
  auto out = (*op)->Execute({Rows()});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 1u);
}

TEST(TaskFactoryTest, FilterByWidgetSelection) {
  TaskDecl task = MakeTask(
      "filter_projects:\n"
      "  type: filter_by\n"
      "  filter_by: [team]\n"
      "  filter_source: W.team_list\n"
      "  filter_val: [text]\n");
  FlowFile file;
  FixedResolver resolver;
  resolver.selection.values = {Value("CSK")};
  TaskBindContext context;
  context.widgets = &resolver;
  auto op = BuildTask(task, file, context);
  ASSERT_TRUE(op.ok()) << op.status();
  EXPECT_EQ(resolver.last_widget, "team_list");
  EXPECT_EQ(resolver.last_column, "text");
  auto out = (*op)->Execute({Rows()});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 1u);
  EXPECT_EQ((*out)->at(0, 0), Value("CSK"));
}

TEST(TaskFactoryTest, FilterByWidgetWithoutResolverFails) {
  TaskDecl task = MakeTask(
      "f:\n"
      "  type: filter_by\n"
      "  filter_by: [team]\n"
      "  filter_source: W.x\n");
  FlowFile file;
  auto op = BuildTask(task, file, TaskBindContext{});
  ASSERT_FALSE(op.ok());
  EXPECT_NE(op.status().message().find("interaction flow"),
            std::string::npos);
}

TEST(TaskFactoryTest, GroupByConfigErrors) {
  FlowFile file;
  EXPECT_FALSE(
      BuildTask(MakeTask("g:\n  type: groupby\n"), file, TaskBindContext{})
          .ok());
  EXPECT_FALSE(BuildTask(MakeTask("g:\n"
                                  "  type: groupby\n"
                                  "  groupby: [team]\n"
                                  "  aggregates:\n"
                                  "    - operator: sum\n"),
                         file, TaskBindContext{})
                   .ok());  // missing out_field
}

TEST(TaskFactoryTest, JoinBindsAgainstFlowInputOrder) {
  TaskDecl task = MakeTask(
      "j:\n"
      "  type: join\n"
      "  left: a by k\n"
      "  right: b by k\n"
      "  join_condition: inner\n");
  FlowFile file;
  TaskBindContext context;
  context.input_names = {"a", "b"};
  EXPECT_TRUE(BuildTask(task, file, context).ok());
  context.input_names = {"b", "a"};
  auto swapped = BuildTask(task, file, context);
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kSchemaError);
  context.input_names = {"a"};
  EXPECT_FALSE(BuildTask(task, file, context).ok());
}

TEST(TaskFactoryTest, JoinProjectionPrefixValidation) {
  TaskDecl task = MakeTask(
      "j:\n"
      "  type: join\n"
      "  left: a by k\n"
      "  right: b by k\n"
      "  join_condition: inner\n"
      "  project:\n"
      "    c_k: k\n");  // neither a_* nor b_*
  FlowFile file;
  TaskBindContext context;
  context.input_names = {"a", "b"};
  auto op = BuildTask(task, file, context);
  ASSERT_FALSE(op.ok());
  EXPECT_NE(op.status().message().find("prefixed"), std::string::npos);
}

TEST(TaskFactoryTest, MapDateRequiresFormats) {
  FlowFile file;
  auto op = BuildTask(MakeTask("m:\n"
                               "  type: map\n"
                               "  operator: date\n"
                               "  transform: t\n"
                               "  output: d\n"),
                      file, TaskBindContext{});
  ASSERT_FALSE(op.ok());
  EXPECT_NE(op.status().message().find("input_format"), std::string::npos);
}

TEST(TaskFactoryTest, MapUnknownOperatorSuggestsRegistry) {
  FlowFile file;
  auto op = BuildTask(MakeTask("m:\n"
                               "  type: map\n"
                               "  operator: sentimentize\n"
                               "  transform: t\n"
                               "  output: s\n"),
                      file, TaskBindContext{});
  ASSERT_FALSE(op.ok());
  EXPECT_NE(op.status().message().find("neither built-in nor registered"),
            std::string::npos);
}

TEST(TaskFactoryTest, MapCustomScalarOperator) {
  ScalarOpRegistry registry;
  ASSERT_TRUE(registry
                  .Register("shout",
                            [](const Value& v,
                               const std::map<std::string, std::string>&)
                                -> Result<Value> {
                              return Value(ToUpper(v.ToString()));
                            })
                  .ok());
  FlowFile file;
  TaskBindContext context;
  context.scalars = &registry;
  auto op = BuildTask(MakeTask("m:\n"
                               "  type: map\n"
                               "  operator: shout\n"
                               "  transform: team\n"
                               "  output: loud\n"),
                      file, context);
  ASSERT_TRUE(op.ok()) << op.status();
  auto out = (*op)->Execute({Rows()});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->at(0, 2), Value("CSK"));
}

TEST(TaskFactoryTest, ExtractLocationUsesBuiltinGazetteer) {
  FlowFile file;
  auto op = BuildTask(MakeTask("m:\n"
                               "  type: map\n"
                               "  operator: extract_location\n"
                               "  transform: team\n"
                               "  match: city\n"
                               "  country: IND\n"
                               "  output: state\n"),
                      file, TaskBindContext{});
  ASSERT_TRUE(op.ok()) << op.status();
  TableBuilder builder(Schema::FromNames({"team"}));
  (void)builder.AppendRow({Value("Chennai, India")});
  auto out = (*op)->Execute({*builder.Finish()});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->at(0, 1), Value("Tamil Nadu"));
}

TEST(TaskFactoryTest, ParallelResolvesMembersAndRejectsSelfReference) {
  auto parsed = ParseFlowFile(R"(
T:
  pipeline:
    parallel: [T.add_one, T.add_two]
  add_one:
    type: map
    operator: expression
    expression: score + 1
    output: p1
  add_two:
    type: map
    operator: expression
    expression: score + 2
    output: p2
  self_ref:
    parallel: [T.self_ref]
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto op = BuildTask(*parsed->FindTask("pipeline"), *parsed,
                      TaskBindContext{});
  ASSERT_TRUE(op.ok()) << op.status();
  auto out = (*op)->Execute({Rows()});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_columns(), 4u);
  EXPECT_FALSE(BuildTask(*parsed->FindTask("self_ref"), *parsed,
                         TaskBindContext{})
                   .ok());
}

TEST(TaskFactoryTest, CustomTaskTypeViaRegistry) {
  // Register once (the default registry is process-global).
  static bool registered = [] {
    return TaskTypeRegistry::Default()
        .Register("row_doubler",
                  [](const TaskDecl&, const FlowFile&,
                     const TaskBindContext&) -> Result<TableOperatorPtr> {
                    class Doubler : public TableOperator {
                     public:
                      std::string name() const override {
                        return "row_doubler";
                      }
                      Result<Schema> OutputSchema(
                          const std::vector<Schema>& in) const override {
                        return in[0];
                      }
                      using TableOperator::Execute;
                      Result<TablePtr> Execute(
                          const std::vector<TablePtr>& in,
                          const ExecContext&) const override {
                        TableBuilder b(in[0]->schema());
                        for (size_t r = 0; r < in[0]->num_rows(); ++r) {
                          SI_RETURN_IF_ERROR(b.AppendRow(in[0]->Row(r)));
                          SI_RETURN_IF_ERROR(b.AppendRow(in[0]->Row(r)));
                        }
                        return b.Finish();
                      }
                    };
                    return TableOperatorPtr(std::make_shared<Doubler>());
                  })
        .ok();
  }();
  ASSERT_TRUE(registered);
  TaskDecl task = MakeTask("d:\n  type: row_doubler\n");
  FlowFile file;
  auto op = BuildTask(task, file, TaskBindContext{});
  ASSERT_TRUE(op.ok()) << op.status();
  auto out = (*op)->Execute({Rows()});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 4u);
}

TEST(TaskFactoryTest, UnknownTypeErrors) {
  TaskDecl task = MakeTask("x:\n  type: quantum_sort\n");
  FlowFile file;
  auto op = BuildTask(task, file, TaskBindContext{});
  ASSERT_FALSE(op.ok());
  EXPECT_EQ(op.status().code(), StatusCode::kNotFound);
}

TEST(TaskFactoryTest, TopNRequiresOrderAndLimit) {
  FlowFile file;
  EXPECT_FALSE(BuildTask(MakeTask("t:\n  type: topn\n  limit: 5\n"), file,
                         TaskBindContext{})
                   .ok());
  EXPECT_FALSE(BuildTask(MakeTask("t:\n"
                                  "  type: topn\n"
                                  "  orderby_column: [count DESC]\n"),
                         file, TaskBindContext{})
                   .ok());
}

}  // namespace
}  // namespace shareinsights
