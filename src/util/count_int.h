#ifndef SHARPCQ_UTIL_COUNT_INT_H_
#define SHARPCQ_UTIL_COUNT_INT_H_

#include <cstdint>
#include <string>

namespace sharpcq {

// Answer counts. The paper assumes unit-cost arithmetic. The counting
// accumulators are NOT overflow-checked: a count past 2^128 (easy to reach,
// e.g. 100^20 answers) wraps silently. Checked arithmetic with a distinct
// overflow status is an open ROADMAP item ("No silent wrong answers").
using CountInt = unsigned __int128;

// Decimal rendering of a 128-bit count (no std::to_string overload exists).
std::string CountToString(CountInt value);

// Parses a non-negative decimal string; returns false on malformed input.
bool ParseCount(const std::string& text, CountInt* out);

}  // namespace sharpcq

#endif  // SHARPCQ_UTIL_COUNT_INT_H_
