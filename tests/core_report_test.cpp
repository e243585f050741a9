// Report-builder tests: table shapes/labels per study and file export.
#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace sfc::core {
namespace {

/// A toy study: one uniform sample, one Hilbert curve, p = 16.
Study tiny_study() {
  Study s;
  s.particles = 300;
  s.level = 5;
  s.seed = 3;
  s.particle_curves = {CurveKind::kHilbert};
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {16};
  return s;
}

TEST(Report, CombinationTableLayout) {
  Study s = tiny_study();
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kRowMajor};
  s.processor_curves = s.particle_curves;
  const StudyResult result = run_study(s);
  const auto table = combination_table(result, 0, /*far_field=*/false);
  const std::string csv = table.to_string(util::TableStyle::kCsv);
  EXPECT_NE(csv.find("Processor Order v,Hilbert,Row-Major"),
            std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_NE(table.title().find("Uniform"), std::string::npos);
  EXPECT_NE(table.title().find("NFI"), std::string::npos);
  EXPECT_NE(combination_table(result, 0, true).title().find("FFI"),
            std::string::npos);
}

TEST(Report, TopologyTableLayout) {
  Study s = tiny_study();
  s.radius = 4;
  s.topologies = {topo::TopologyKind::kBus, topo::TopologyKind::kTorus};
  const StudyResult result = run_study(s);
  const auto table = topology_table(result, false);
  const std::string csv = table.to_string(util::TableStyle::kCsv);
  EXPECT_NE(csv.find("Bus,"), std::string::npos);
  EXPECT_NE(csv.find("Torus,"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Report, ScalingTableLayout) {
  Study s = tiny_study();
  s.particle_curves = {CurveKind::kMorton};
  s.proc_counts = {4, 16};
  const StudyResult result = run_study(s);
  const auto table = scaling_table(result, true);
  const std::string csv = table.to_string(util::TableStyle::kCsv);
  EXPECT_NE(csv.find("p=4,"), std::string::npos);
  EXPECT_NE(csv.find("p=16,"), std::string::npos);
}

TEST(Report, AnnsTableLayout) {
  AnnsStudyConfig cfg;
  cfg.levels = {2, 3};
  cfg.curves = {CurveKind::kHilbert, CurveKind::kMorton};
  const auto result = run_anns_study(cfg);
  const auto avg = anns_table(result, false);
  const auto max = anns_table(result, true);
  EXPECT_NE(avg.to_string(util::TableStyle::kCsv).find("4x4,"),
            std::string::npos);
  EXPECT_NE(avg.to_string(util::TableStyle::kCsv).find("8x8,"),
            std::string::npos);
  EXPECT_NE(max.title().find("maximum"), std::string::npos);
}

TEST(Report, WriteFileRoundTrips) {
  AnnsStudyConfig cfg;
  cfg.levels = {2};
  cfg.curves = {CurveKind::kGray};
  const auto table = anns_table(run_anns_study(cfg));
  const std::string path = "/tmp/sfcacd_report_test.csv";
  write_file(path, table);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(buffer.str(), table.to_string(util::TableStyle::kCsv));
  std::remove(path.c_str());
}

TEST(Report, WriteFileToBadPathThrows) {
  util::Table table;
  EXPECT_THROW(write_file("/nonexistent-dir/x.csv", table),
               std::runtime_error);
}

}  // namespace
}  // namespace sfc::core
