// Golden-bytes checks against golden_search.txt.
//
// A case passes when the length and ser::checksum64 of its serialized
// result equal the entry recorded under its name. For an X_I search the
// bytes are core::put(InitialSetResult): every certified and rejected box,
// the coverage and the call count, as exact IEEE-754 bits. Other results
// (flowpipes, gradient tangents) are serialized by the caller and checked
// as raw bytes. Entries are recorded from the code path they pin before
// any rewrite of it, so later code is checked against those bits rather
// than against itself.
#pragma once

#include <string>

#include "core/initial_set.hpp"
#include "reach/serialize.hpp"

namespace dwv::golden {

void expect_golden(const std::string& name, const reach::ser::Bytes& b);
void expect_golden(const std::string& name, const core::InitialSetResult& r);

}  // namespace dwv::golden
