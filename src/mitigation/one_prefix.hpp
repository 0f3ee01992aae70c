// One-prefix-at-a-time querying (the paper's proposed mitigation,
// Section 8).
//
// "When a URL has several decompositions matching in the prefixes'
// database, the prefix corresponding to the root node/decomposition is
// first queried. Meanwhile, the targeted URL is pre-fetched by the browser
// and crawled to find if it contains Type I URLs. If the answer from Google
// or Yandex is positive, a warning message is displayed. Otherwise if
// Type I URLs exist, then the browser can query the server for the other
// prefixes. In this case, Google and Yandex can only recover the domain but
// not the full URL."
//
// OnePrefixClient wraps the normal lookup pipeline: on a multi-hit it sends
// only the root-most hit prefix; it escalates to the remaining prefixes
// only when the root answer is inconclusive AND the (simulated) pre-fetch
// finds Type I URLs -- and reports how many prefixes the server ultimately
// saw, so the bench can compare leakage against the stock client.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/domain_hierarchy.hpp"
#include "sb/client.hpp"
#include "sb/transport.hpp"

namespace sbp::mitigation {

struct OnePrefixResult {
  sb::Verdict verdict = sb::Verdict::kInvalid;
  /// Prefixes the server received, in send order (<= stock client's count).
  std::vector<crypto::Prefix32> sent_prefixes;
  /// True when the warning fired after the first (root) query alone.
  bool resolved_by_root_query = false;
  /// True when escalation was suppressed because no Type I URLs exist (the
  /// user was warned that the service may learn the URL otherwise).
  bool escalation_suppressed = false;
  /// A full-hash request failed at the network level: the lookup stopped
  /// there and fails OPEN (verdict kSafe), as the stock client does, and
  /// the failed prefix is not in sent_prefixes (it never reached the
  /// server).
  bool unconfirmed = false;
};

class OnePrefixClient {
 public:
  OnePrefixClient(sb::Transport& transport, sb::ClientConfig config)
      : transport_(transport), client_(transport, std::move(config)) {}

  void subscribe(std::string_view list) { client_.subscribe(list); }

  /// Syncs the local database, as the stock client's update() does; a
  /// lookup only reads it.
  bool update() { return client_.update(); }

  /// Performs the mitigated lookup. `site_urls` simulates the pre-fetch
  /// crawl of the target's site (empty = crawl found nothing).
  [[nodiscard]] OnePrefixResult lookup(
      std::string_view url, const std::vector<std::string>& site_urls);

 private:
  sb::Transport& transport_;
  /// A stock client for its local stores and update loop only: lookup()
  /// tests its stores and sends the full-hash requests itself.
  sb::Client client_;
};

}  // namespace sbp::mitigation
