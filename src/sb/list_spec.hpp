// Blacklist inventory of Google and Yandex Safe Browsing
// (paper Tables 1 and 3).
//
// Each provider ships named "shavar" lists of 32-bit SHA-256 prefixes. The
// paper's Table 1 (Google) and Table 3 (Yandex) give the list names,
// descriptions and prefix counts observed in 2015; the BlacklistFactory uses
// these cardinalities to synthesize databases of the real size and the
// Table 1/3 bench reprints the inventory next to the generated counts.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sbp::sb {

enum class Provider { kGoogle, kYandex };

struct ListSpec {
  std::string name;
  std::string description;
  Provider provider;
  /// Prefix count reported in the paper; 0 when the paper marks it (*) or
  /// the list was observed empty.
  std::size_t paper_prefix_count;
};

/// Table 1: the five Google lists.
[[nodiscard]] const std::vector<ListSpec>& google_lists();

/// Table 3: the Yandex lists (including the goog-* copies Yandex serves).
[[nodiscard]] const std::vector<ListSpec>& yandex_lists();

/// Looks a list up by name across both providers.
[[nodiscard]] std::optional<ListSpec> find_list(std::string_view name);

/// Cross-provider anomalies reported in Section 3: Yandex's copies of the
/// Google lists share only a fraction of their prefixes with Google's own.
struct SharedPrefixAnomaly {
  std::string google_list;
  std::string yandex_list;
  std::size_t shared_prefixes;  ///< paper: 36547 (malware), 195 (phishing)
};
[[nodiscard]] const std::vector<SharedPrefixAnomaly>& paper_anomalies();

}  // namespace sbp::sb
