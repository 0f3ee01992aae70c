#include "sb/list_spec.hpp"

namespace sbp::sb {

const std::vector<ListSpec>& google_lists() {
  // Paper Table 1. goog-unwanted-shavar's count could not be obtained (*).
  static const std::vector<ListSpec> kLists = {
      {"goog-malware-shavar", "malware", Provider::kGoogle, 317807},
      {"goog-regtest-shavar", "test file", Provider::kGoogle, 29667},
      {"goog-unwanted-shavar", "unwanted softw.", Provider::kGoogle, 0},
      {"goog-whitedomain-shavar", "unused", Provider::kGoogle, 1},
      {"googpub-phish-shavar", "phishing", Provider::kGoogle, 312621},
  };
  return kLists;
}

const std::vector<ListSpec>& yandex_lists() {
  // Paper Table 3. Counts marked (*) in the paper are 0 here.
  static const std::vector<ListSpec> kLists = {
      {"goog-malware-shavar", "malware", Provider::kYandex, 283211},
      {"goog-mobile-only-malware-shavar", "mobile malware", Provider::kYandex,
       2107},
      {"goog-phish-shavar", "phishing", Provider::kYandex, 31593},
      {"ydx-adult-shavar", "adult website", Provider::kYandex, 434},
      {"ydx-adult-testing-shavar", "test file", Provider::kYandex, 535},
      {"ydx-imgs-shavar", "malicious image", Provider::kYandex, 0},
      {"ydx-malware-shavar", "malware", Provider::kYandex, 283211},
      {"ydx-mitb-masks-shavar", "man-in-the-browser", Provider::kYandex, 87},
      {"ydx-mobile-only-malware-shavar", "malware", Provider::kYandex, 2107},
      {"ydx-phish-shavar", "phishing", Provider::kYandex, 31593},
      {"ydx-porno-hosts-top-shavar", "pornography", Provider::kYandex, 99990},
      {"ydx-sms-fraud-shavar", "sms fraud", Provider::kYandex, 10609},
      {"ydx-test-shavar", "test file", Provider::kYandex, 0},
      {"ydx-yellow-shavar", "shocking content", Provider::kYandex, 209},
      {"ydx-yellow-testing-shavar", "test file", Provider::kYandex, 370},
      {"ydx-badcrxids-digestvar", ".crx file ids", Provider::kYandex, 0},
      {"ydx-badbin-digestvar", "malicious binary", Provider::kYandex, 0},
      {"ydx-mitb-uids", "man-in-the-browser android app UID",
       Provider::kYandex, 0},
      {"ydx-badcrxids-testing-digestvar", "test file", Provider::kYandex, 0},
  };
  return kLists;
}

std::optional<ListSpec> find_list(std::string_view name) {
  for (const auto& spec : google_lists()) {
    if (spec.name == name) return spec;
  }
  for (const auto& spec : yandex_lists()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

const std::vector<SharedPrefixAnomaly>& paper_anomalies() {
  static const std::vector<SharedPrefixAnomaly> kAnomalies = {
      {"goog-malware-shavar", "goog-malware-shavar", 36547},
      {"googpub-phish-shavar", "goog-phish-shavar", 195},
  };
  return kAnomalies;
}

}  // namespace sbp::sb
