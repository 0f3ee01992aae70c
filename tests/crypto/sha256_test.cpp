#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <span>

#include "util/hex.hpp"

namespace sbp::crypto {
namespace {

std::string hex_of(const Sha256::DigestBytes& digest) {
  return util::hex_encode(digest);
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(hex_of(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(hex_of(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte input exercises the padding path that needs a second block.
  const std::string input(64, 'x');
  EXPECT_EQ(hex_of(Sha256::hash(input)),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
  // Cross-check split updates against one-shot hashing at the boundary.
  Sha256 split;
  split.update(input.substr(0, 31));
  split.update(input.substr(31));
  EXPECT_EQ(hex_of(split.finalize()), hex_of(Sha256::hash(input)));
}

TEST(Sha256Test, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: length fits in the same block as padding; 56: it does not.
  for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string input(n, 'q');
    Sha256 split;
    split.update(input.substr(0, n / 2));
    split.update(input.substr(n / 2));
    EXPECT_EQ(hex_of(split.finalize()), hex_of(Sha256::hash(input)))
        << "length " << n;
  }
}

TEST(Sha256Test, IncrementalByteAtATime) {
  const std::string input = "petsymposium.org/2016/cfp.php";
  Sha256 h;
  for (char c : input) h.update(std::string_view(&c, 1));
  EXPECT_EQ(hex_of(h.finalize()), hex_of(Sha256::hash(input)));
}

// Ground truth from the paper (Table 4): SHA-256 of the canonicalized
// decomposition, first 4 bytes.
TEST(Sha256Test, PaperTable4PetsCfp) {
  const auto digest = Sha256::hash("petsymposium.org/2016/cfp.php");
  EXPECT_EQ(digest[0], 0xe7);
  EXPECT_EQ(digest[1], 0x0e);
  EXPECT_EQ(digest[2], 0xe6);
  EXPECT_EQ(digest[3], 0xd1);
}

TEST(Sha256Test, PaperTable4Pets2016) {
  const auto digest = Sha256::hash("petsymposium.org/2016/");
  EXPECT_EQ(digest[0], 0x1d);
  EXPECT_EQ(digest[1], 0x13);
  EXPECT_EQ(digest[2], 0xba);
  EXPECT_EQ(digest[3], 0x6a);
}

TEST(Sha256Test, PaperTable4PetsRoot) {
  const auto digest = Sha256::hash("petsymposium.org/");
  EXPECT_EQ(digest[0], 0x33);
  EXPECT_EQ(digest[1], 0xa0);
  EXPECT_EQ(digest[2], 0x2e);
  EXPECT_EQ(digest[3], 0xf5);
}

// ---- Both compressions, driven directly --------------------------------

using detail::Sha256Backend;

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// n bytes of "abc...zabc...": the inputs of the known-answer table.
std::string alphabet(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>('a' + i % 26);
  return out;
}

std::string streamed(Sha256Backend backend, const std::string& input,
                     std::size_t split) {
  Sha256 h(backend);
  h.update(std::string_view(input).substr(0, split));
  h.update(std::string_view(input).substr(split));
  return hex_of(h.finalize());
}

class Sha256BackendTest : public ::testing::TestWithParam<Sha256Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Sha256Backend::kShaNi && !detail::sha_ni_supported()) {
      GTEST_SKIP() << "CPUID reports no SHA-NI; the portable cases still run";
    }
  }
};

// Digests of alphabet(n), from Python's hashlib. The lengths straddle the
// one-block limit (55), the block size and the two-block padding limit.
TEST_P(Sha256BackendTest, KnownAnswers) {
  const struct {
    std::size_t length;
    const char* hex;
  } kAnswers[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"},
      {55, "595615dbe4f0f407ae397d08b4c2cb870cb9b0e11937416f950c5160acf9c005"},
      {56, "784f623b787495078e93ff28a25b581df0584055a7e71d8cd90c454716b92f51"},
      {63, "5ca3e1ef5207490eac01a795e5cc94d59582a5118bf9534665c8668d87aa647c"},
      {64, "2fcd5a0d60e4c941381fcc4e00a4bf8be422c3ddfafb93c809e8d1e2bfffae8e"},
      {65, "1b3cd1877ab2f2f19f7be001722554f336cb799df0329de0bb4c118dc6abc06d"},
      {119, "faef67da856d6fd9c8d12f9ed0a4fefd3cf0ce085ab43e2907418d457e3c354b"},
      {120, "c9512b08619c19fbb503c7da6b46ef20301e5f7a7a5f43989182398536f5c5c8"},
      {200, "8013a82140d916576e2cf550b27449a368abec66cc154a7d9f599019d33aa3d2"},
  };
  for (const auto& answer : kAnswers) {
    const std::string input = alphabet(answer.length);
    EXPECT_EQ(hex_of(Sha256::hash(GetParam(), bytes_of(input))), answer.hex)
        << "one-shot, length " << answer.length;
    EXPECT_EQ(streamed(GetParam(), input, 0), answer.hex)
        << "streaming, length " << answer.length;
  }
}

TEST_P(Sha256BackendTest, MillionA) {
  const char* kHex =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  const std::string input(1000000, 'a');
  EXPECT_EQ(hex_of(Sha256::hash(GetParam(), bytes_of(input))), kHex);
  Sha256 chunked(GetParam());
  for (int i = 0; i < 1000; ++i) {
    chunked.update(std::string_view(input).substr(0, 1000));
  }
  EXPECT_EQ(hex_of(chunked.finalize()), kHex);
}

// The one-block path (<= 55 bytes) against the streaming path, at every
// length to 256 and every split point to 130.
TEST_P(Sha256BackendTest, OneShotMatchesStreamingAtEverySplit) {
  std::mt19937 rng(19);
  std::string input;
  for (std::size_t n = 0; n <= 256; ++n) {
    const std::string one_shot =
        hex_of(Sha256::hash(GetParam(), bytes_of(input)));
    for (std::size_t split = 0; split <= std::min<std::size_t>(n, 130);
         ++split) {
      ASSERT_EQ(streamed(GetParam(), input, split), one_shot)
          << "length " << n << ", split " << split;
    }
    input.push_back(static_cast<char>(rng()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Compressions, Sha256BackendTest,
    ::testing::Values(Sha256Backend::kPortable, Sha256Backend::kShaNi),
    [](const ::testing::TestParamInfo<Sha256Backend>& info) {
      return info.param == Sha256Backend::kShaNi ? std::string("ShaNi")
                                                 : std::string("Portable");
    });

TEST(Sha256DispatchTest, ShaNiMatchesPortableOnRandomInputs) {
  if (!detail::sha_ni_supported()) {
    GTEST_SKIP() << "CPUID reports no SHA-NI; nothing to compare";
  }
  std::mt19937 rng(2016);
  std::uniform_int_distribution<std::size_t> length(0, 300);
  for (int i = 0; i < 4096; ++i) {
    std::string input(length(rng), '\0');
    for (char& c : input) c = static_cast<char>(rng());
    ASSERT_EQ(hex_of(Sha256::hash(Sha256Backend::kShaNi, bytes_of(input))),
              hex_of(Sha256::hash(Sha256Backend::kPortable, bytes_of(input))))
        << "input " << i << ", length " << input.size();
    const std::size_t split = input.size() / 3;
    ASSERT_EQ(streamed(Sha256Backend::kShaNi, input, split),
              streamed(Sha256Backend::kPortable, input, split))
        << "input " << i << ", length " << input.size();
  }
}

TEST(Sha256DispatchTest, CpuidChoosesTheBackend) {
  EXPECT_EQ(sha256_backend(),
            detail::sha_ni_supported() ? "sha-ni" : "portable");
}

}  // namespace
}  // namespace sbp::crypto
