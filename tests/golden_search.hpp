// Golden-bytes check of an X_I search result against golden_search.txt.
//
// A case passes when the length and ser::checksum64 of
// core::put(InitialSetResult) — every certified and rejected box, the
// coverage and the call count, as exact IEEE-754 bits — equal the entry
// recorded under its name. Entries are recorded from the code path they
// pin before any rewrite of it, so later code is checked against those
// bits rather than against itself.
#pragma once

#include <string>

#include "core/initial_set.hpp"

namespace dwv::golden {

void expect_golden(const std::string& name, const core::InitialSetResult& r);

}  // namespace dwv::golden
