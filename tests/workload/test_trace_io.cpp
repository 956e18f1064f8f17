#include "workload/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "workload/micro.hpp"

namespace src::workload {
namespace {

TEST(TraceIoTest, ParsesBasicCsv) {
  std::istringstream in(
      "timestamp_us,op,lba,bytes\n"
      "0,R,4096,8192\n"
      "10.5,W,0,4096\n");
  const Trace trace = read_csv_trace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].type, common::IoType::kRead);
  EXPECT_EQ(trace[0].lba, 4096u);
  EXPECT_EQ(trace[0].bytes, 8192u);
  EXPECT_EQ(trace[1].arrival, common::microseconds(10.5));
  EXPECT_EQ(trace[1].type, common::IoType::kWrite);
}

TEST(TraceIoTest, AcceptsWordOpsAndComments) {
  std::istringstream in(
      "# a comment\n"
      "0,read,0,4096\n"
      "\n"
      "5,WRITE,4096,4096\n");
  const Trace trace = read_csv_trace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].type, common::IoType::kRead);
  EXPECT_EQ(trace[1].type, common::IoType::kWrite);
}

TEST(TraceIoTest, SortsOutOfOrderTimestamps) {
  std::istringstream in(
      "20,R,0,4096\n"
      "10,W,0,4096\n");
  const Trace trace = read_csv_trace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_LT(trace[0].arrival, trace[1].arrival);
}

TEST(TraceIoTest, RejectsMalformedRows) {
  auto expect_throw = [](const char* text) {
    std::istringstream in(text);
    EXPECT_THROW(read_csv_trace(in), std::runtime_error) << text;
  };
  expect_throw("0,R,4096\n");            // too few columns
  expect_throw("0,R,4096,1,extra\n");    // too many columns
  expect_throw("0,X,4096,4096\n");       // unknown op
  expect_throw("abc,R,0,4096\n0,R,0,4096\nxyz,R,0,4096\n");  // bad number mid-file
  expect_throw("0,R,0,0\n");             // zero bytes
  expect_throw("-5,R,0,4096\n");         // negative timestamp
}

TEST(TraceIoTest, RoundTripPreservesTrace) {
  const Trace original =
      generate_micro(symmetric_micro(20.0, 16 * 1024, 300), 7);
  std::stringstream buffer;
  write_csv_trace(buffer, original);
  const Trace parsed = read_csv_trace(buffer);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].type, original[i].type);
    EXPECT_EQ(parsed[i].lba, original[i].lba);
    EXPECT_EQ(parsed[i].bytes, original[i].bytes);
    // Timestamps round-trip through decimal microseconds: sub-ns drift only.
    EXPECT_NEAR(static_cast<double>(parsed[i].arrival),
                static_cast<double>(original[i].arrival), 1000.0);
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const Trace original = generate_micro(symmetric_micro(20.0, 16 * 1024, 50), 9);
  const std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  write_csv_trace_file(path, original);
  const Trace parsed = read_csv_trace_file(path);
  EXPECT_EQ(parsed.size(), original.size());
}

TEST(TraceIoTest, FileErrorsNameThePathAndLine) {
  const std::string path = ::testing::TempDir() + "/trace_io_bad.csv";
  auto message_for = [&](const char* text) {
    {
      std::ofstream out(path);
      out << text;
    }
    try {
      read_csv_trace_file(path);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message_for("0,R,4096\n"), path + ":1: expected 4 columns");
  EXPECT_EQ(message_for("timestamp_us,op,lba,bytes\n0,R,0,0\n"),
            path + ":2: zero-byte request");
  EXPECT_EQ(message_for("# header\n0,R,0,4096\n\n5,X,0,4096\n"),
            path + ":4: unknown op 'X'");
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_csv_trace_file("/nonexistent/nowhere.csv"), std::runtime_error);
}

}  // namespace
}  // namespace src::workload
