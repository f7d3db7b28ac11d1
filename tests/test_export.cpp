#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "core/export.hpp"

namespace dwv::core {
namespace {

using geom::Box;
using interval::Interval;

TEST(Export, HistoryCsvFormat) {
  std::vector<IterationRecord> history(2);
  history[0].iter = 0;
  history[0].geo = {-1.5, -2.5};
  history[0].wass.w_goal = 3.0;
  history[0].wass.w_unsafe = 0.5;
  history[1].iter = 1;
  history[1].geo = {0.25, 0.75};
  history[1].feasible = true;

  std::stringstream ss;
  write_history_csv(ss, history);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "iter,d_u,d_g,w_goal,w_unsafe,feasible");
  std::getline(ss, line);
  EXPECT_EQ(line, "0,-1.5,-2.5,3,0.5,0");
  std::getline(ss, line);
  EXPECT_EQ(line, "1,0.25,0.75,0,0,1");
}

TEST(Export, FlowpipeCsvFormat) {
  reach::Flowpipe fp;
  fp.step_sets = {Box{Interval(0.0, 1.0), Interval(-1.0, 1.0)},
                  Box{Interval(0.5, 1.5), Interval(-0.5, 0.5)}};
  std::stringstream ss;
  write_flowpipe_csv(ss, fp, 0.1);
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "step,t,x0_lo,x0_hi,x1_lo,x1_hi");
  std::getline(ss, line);
  EXPECT_EQ(line, "0,0,0,1,-1,1");
  std::getline(ss, line);
  EXPECT_EQ(line, "1,0.1,0.5,1.5,-0.5,0.5");
}

TEST(Export, EmptyFlowpipe) {
  reach::Flowpipe fp;
  std::stringstream ss;
  write_flowpipe_csv(ss, fp, 0.1);
  EXPECT_EQ(ss.str(), "step,t\n");
}

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Splits a CSV data line and parses every field with strtod.
std::vector<double> parse_fields(const std::string& line) {
  std::vector<double> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) {
    char* end = nullptr;
    out.push_back(std::strtod(field.c_str(), &end));
    EXPECT_EQ(*end, '\0') << "unparsed text in field '" << field << "'";
  }
  return out;
}

// Doubles whose 12-significant-digit forms read back as other values.
const double kAwkward[] = {
    std::nextafter(0.1, 1.0),  0.12345678901234567,
    1.0 / 3.0,                 -std::nextafter(2.5, 0.0),
    1e-300 / 7.0,              std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::max(), 0.1 + 0.2};

TEST(Export, HistoryCsvRoundTripsEveryBit) {
  std::vector<IterationRecord> history;
  const std::size_t n = std::size(kAwkward);
  for (std::size_t k = 0; k < n; ++k) {
    IterationRecord r;
    r.iter = k;
    r.geo = {kAwkward[k], kAwkward[(k + 1) % n]};
    r.wass.w_goal = kAwkward[(k + 2) % n];
    r.wass.w_unsafe = kAwkward[(k + 3) % n];
    history.push_back(r);
  }
  std::stringstream ss;
  write_history_csv(ss, history);
  std::string line;
  std::getline(ss, line);  // header
  for (const auto& r : history) {
    ASSERT_TRUE(std::getline(ss, line));
    const std::vector<double> f = parse_fields(line);
    ASSERT_EQ(f.size(), 6u) << line;
    EXPECT_EQ(bits(f[1]), bits(r.geo.d_u)) << line;
    EXPECT_EQ(bits(f[2]), bits(r.geo.d_g)) << line;
    EXPECT_EQ(bits(f[3]), bits(r.wass.w_goal)) << line;
    EXPECT_EQ(bits(f[4]), bits(r.wass.w_unsafe)) << line;
  }
}

TEST(Export, FlowpipeCsvBoundsEncloseTheFlowpipe) {
  // Printed bounds parse back to the exact interval endpoints: never
  // rounded inward, so the exported boxes enclose the verified ones.
  reach::Flowpipe fp;
  const std::size_t n = std::size(kAwkward);
  for (std::size_t k = 0; k < n; ++k) {
    const double a = kAwkward[k];
    const double b = kAwkward[(k + 1) % n];
    fp.step_sets.push_back(Box{Interval(std::min(a, b), std::max(a, b)),
                               Interval(-std::abs(a), std::abs(a))});
  }
  const double delta = 0.1;
  std::stringstream ss;
  write_flowpipe_csv(ss, fp, delta);
  std::string line;
  std::getline(ss, line);  // header
  for (std::size_t k = 0; k < fp.step_sets.size(); ++k) {
    ASSERT_TRUE(std::getline(ss, line));
    const std::vector<double> f = parse_fields(line);
    ASSERT_EQ(f.size(), 6u) << line;
    EXPECT_EQ(bits(f[1]), bits(static_cast<double>(k) * delta)) << line;
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(bits(f[2 + 2 * d]), bits(fp.step_sets[k][d].lo())) << line;
      EXPECT_EQ(bits(f[3 + 2 * d]), bits(fp.step_sets[k][d].hi())) << line;
    }
  }
}

TEST(Export, FileRoundTrip) {
  std::vector<IterationRecord> history(1);
  write_history_csv_file("/tmp/dwv_history.csv", history);
  std::ifstream check("/tmp/dwv_history.csv");
  EXPECT_TRUE(check.good());
  EXPECT_THROW(write_history_csv_file("/nonexistent/x.csv", history),
               std::runtime_error);
}

}  // namespace
}  // namespace dwv::core
