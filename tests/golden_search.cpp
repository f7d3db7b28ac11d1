#include "golden_search.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>

#include "reach/serialize.hpp"

#ifndef DWV_GOLDEN_SEARCH_FILE
#error "DWV_GOLDEN_SEARCH_FILE must name the golden data file"
#endif

namespace dwv::golden {
namespace {

struct Golden {
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
};

// golden_search.txt: `<case> <byte length> <checksum64 in hex>` per line,
// `#` starts a comment line.
std::map<std::string, Golden> load_golden() {
  std::map<std::string, Golden> out;
  std::ifstream in(DWV_GOLDEN_SEARCH_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    Golden g;
    ls >> name >> g.bytes >> std::hex >> g.checksum;
    if (ls) out[name] = g;
  }
  return out;
}

}  // namespace

void expect_golden(const std::string& name, const core::InitialSetResult& r) {
  reach::ser::Writer w;
  core::put(w, r);
  const reach::ser::Bytes& b = w.bytes();
  const std::uint64_t sum = reach::ser::checksum64(b.data(), b.size());
  std::ostringstream got;
  got << name << ": " << b.size() << " bytes, checksum 0x" << std::hex << sum;
  static const std::map<std::string, Golden> golden = load_golden();
  const auto it = golden.find(name);
  ASSERT_NE(it, golden.end()) << "no golden entry; got " << got.str();
  EXPECT_EQ(b.size(), it->second.bytes) << got.str();
  EXPECT_EQ(sum, it->second.checksum) << got.str();
}

}  // namespace dwv::golden
