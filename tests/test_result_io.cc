/** @file Tests for the JSON/CSV result emitters. */
#include <gtest/gtest.h>

#include <sstream>

#include "common/json.h"
#include "common/table.h"
#include "exp/result_io.h"
#include "exp/sweep_runner.h"

namespace smartinf::exp {
namespace {

RunRecord
sampleRecord()
{
    RunSpec spec;
    spec.model = train::ModelSpec::gpt2(0.34);
    spec.system.num_devices = 2;
    spec.label = "sample";
    SweepRunner runner;
    return runner.runOne(spec);
}

TEST(ResultIo, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ResultIo, JsonNumberIsRoundTrippable)
{
    EXPECT_EQ(jsonNumber(1.0), "1");
    const double v = 0.1 + 0.2;
    EXPECT_EQ(std::stod(jsonNumber(v)), v);
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
}

TEST(ResultIo, RecordJsonContainsTheStructuredFields)
{
    const auto record = sampleRecord();
    std::ostringstream oss;
    writeRecordJson(oss, record);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"spec\":"), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"sample\""), std::string::npos);
    EXPECT_NE(json.find("\"strategy\":\"BASE\""), std::string::npos);
    EXPECT_NE(json.find("\"num_devices\":2"), std::string::npos);
    EXPECT_NE(json.find("\"spec_hash\":\"" + record.spec.hashHex() + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"iteration_s\":"), std::string::npos);
    EXPECT_NE(json.find("\"traffic\":"), std::string::npos);
    // Balanced braces (cheap well-formedness check without a parser).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

TEST(ResultIo, RecordsJsonIsAnArray)
{
    const auto record = sampleRecord();
    std::ostringstream oss;
    writeRecordsJson(oss, {record, record});
    const std::string json = oss.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("},{"), std::string::npos);
}

TEST(ResultIo, TableJsonKeepsTitleHeaderRows)
{
    Table table("My Title");
    table.setHeader({"a", "b"});
    table.addRow({"1", "2"});
    table.addRow({"3", "4"});
    std::ostringstream oss;
    writeTableJson(oss, table);
    const std::string json = oss.str();
    EXPECT_NE(json.find("\"title\":\"My Title\""), std::string::npos);
    EXPECT_NE(json.find("\"header\":[\"a\",\"b\"]"), std::string::npos);
    EXPECT_NE(json.find("[\"1\",\"2\"],[\"3\",\"4\"]"), std::string::npos);
}

TEST(ResultIo, CsvHasOneLinePerRecordPlusHeader)
{
    const auto record = sampleRecord();
    std::ostringstream oss;
    writeRecordsCsv(oss, {record, record, record});
    std::istringstream lines(oss.str());
    std::string line;
    std::size_t count = 0;
    std::getline(lines, line);
    EXPECT_NE(line.find("label,workload,model,strategy"), std::string::npos);
    const auto columns =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) +
        1;
    while (std::getline(lines, line)) {
        ++count;
        EXPECT_EQ(static_cast<std::size_t>(
                      std::count(line.begin(), line.end(), ',')) +
                      1,
                  columns);
    }
    EXPECT_EQ(count, 3u);
}

} // namespace
} // namespace smartinf::exp
