// Counter structs declared once (src/util).
//
// A counter struct (sim::SimMetrics, sb::ClientMetrics, sb::TransportStats)
// lists its u64 fields a second time only in one table,
//
//   static constexpr util::CounterField<T> kCounters[] = {{"name", &T::name}};
//
// and every sum, export and comparison loops over that table, so adding a
// counter is one member plus one table row. The hot paths still increment
// the members directly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sbp::util {

/// One named u64 counter of struct T: its export name and member.
template <class T>
struct CounterField {
  const char* name;
  std::uint64_t T::*member;
};

/// Field-wise `into += from` over T::kCounters.
template <class T>
T& add_counters(T& into, const T& from) noexcept {
  for (const CounterField<T>& field : T::kCounters) {
    into.*field.member += from.*field.member;
  }
  return into;
}

/// Exported counters: (name, value) pairs in the order they were appended.
using CounterList = std::vector<std::pair<std::string, std::uint64_t>>;

/// Appends one pair per row of T::kCounters, in table order.
template <class T>
void append_counters(CounterList& out, const T& from) {
  for (const CounterField<T>& field : T::kCounters) {
    out.emplace_back(field.name, from.*field.member);
  }
}

}  // namespace sbp::util
