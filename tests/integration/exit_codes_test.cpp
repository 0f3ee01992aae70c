// tools/sbsim exit-code contract, pinned end to end against the real
// binary: 0 ok, 1 usage/file/parse error, 2 golden/determinism/invariant
// failure, 3 loadgen transport failure. The codes are what CI scripts
// and the fuzz-smoke job branch on, so they are an API: any drift
// (a new command reusing a taken code, a failure path collapsing to 1)
// fails here, not in a workflow run.
//
// Compiled without SBP_SBSIM_PATH (e.g. the sanitizer legs build with
// SBP_BUILD_TOOLS=OFF) the suite skips rather than fakes a pass.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#ifdef SBP_SBSIM_PATH

#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

/// Runs `sbsim <args>` with stdout/stderr discarded; returns the exit
/// code (or -1 if the child did not exit normally).
int sbsim(const std::string& args) {
  const std::string command =
      std::string(SBP_SBSIM_PATH) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// A scratch directory per test run; fs::temp_directory_path is writable
/// in every CI leg.
fs::path scratch_dir() {
  const fs::path dir =
      fs::temp_directory_path() /
      ("sbsim-exit-codes-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  return dir;
}

void write(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Small scenario (sub-second run), no golden.
constexpr const char* kTinyScenario = R"({
  "name": "exit-code-tiny",
  "config": {
    "num_users": 8,
    "ticks": 3,
    "num_shards": 1,
    "seed": 5,
    "corpus": {"num_hosts": 50}
  }
})";

TEST(SbsimExitCodes, ZeroOnSuccess) {
  const fs::path dir = scratch_dir();
  const fs::path scenario = dir / "tiny.json";
  write(scenario, kTinyScenario);
  EXPECT_EQ(sbsim("print " + scenario.string()), 0);
  EXPECT_EQ(sbsim("run " + scenario.string()), 0);
  EXPECT_EQ(sbsim("list " + scenario.string()), 0);
  EXPECT_EQ(sbsim("fuzz --iterations 1 --seed 1 --threads 1,2 --out-dir " +
                  (dir / "fuzz").string()),
            0);
}

TEST(SbsimExitCodes, OneOnUsageAndFileErrors) {
  EXPECT_EQ(sbsim(""), 1);                        // missing command
  EXPECT_EQ(sbsim("no-such-command"), 1);
  EXPECT_EQ(sbsim("run"), 1);                     // missing scenario file
  EXPECT_EQ(sbsim("run --bogus-flag x.json"), 1);
  EXPECT_EQ(sbsim("run /no/such/scenario.json"), 1);
  EXPECT_EQ(sbsim("fuzz --iterations 0"), 1);
  EXPECT_EQ(sbsim("fuzz --doctor no-such-invariant"), 1);
  EXPECT_EQ(sbsim("verify"), 1);

  // Integer flags go through one strict reader: a sign or a trailing
  // letter is a usage error before any engine is built, never a wrapped
  // or truncated thread count.
  const std::string loopback =
      std::string(SBP_SCENARIOS_DIR) + "/net-loopback.json";
  EXPECT_EQ(sbsim("loadgen " + loopback + " --in-process --threads -1"), 1);
  EXPECT_EQ(sbsim("loadgen " + loopback + " --in-process --threads 2x"), 1);
  EXPECT_EQ(sbsim("run " + loopback + " --threads -1"), 1);
  EXPECT_EQ(sbsim("verify " + loopback + " --threads 1,-1"), 1);

  const fs::path dir = scratch_dir();
  const fs::path malformed = dir / "malformed.json";
  write(malformed, R"({"name": "x", "config": {"num_userz": 5}})");
  EXPECT_EQ(sbsim("run " + malformed.string()), 1);
  // An out-of-range value is a parse error too, never an engine abort.
  const fs::path flat_corpus = dir / "flat-corpus.json";
  write(flat_corpus, R"({"name": "x", "config": {"corpus": {"alpha": 1.0}}})");
  EXPECT_EQ(sbsim("run " + flat_corpus.string()), 1);
}

TEST(SbsimExitCodes, TwoOnGoldenDriftAndInvariantFailure) {
  const fs::path dir = scratch_dir();

  // A scenario whose golden block cannot match any honest run.
  const fs::path doctored = dir / "doctored.json";
  write(doctored, R"({
    "name": "exit-code-drift",
    "config": {
      "num_users": 8,
      "ticks": 3,
      "num_shards": 1,
      "seed": 5,
      "corpus": {"num_hosts": 50}
    },
    "golden": {
      "fingerprint": "0x0000000000000001",
      "entries": 999,
      "prefixes": 999,
      "multi_prefix_entries": 0,
      "lookups": 999,
      "wire_bytes_up": 1,
      "wire_bytes_down": 1
    }
  })");
  EXPECT_EQ(sbsim("run " + doctored.string()), 2);
  EXPECT_EQ(sbsim("verify " + doctored.string() + " --threads 1"), 2);

  // A doctored invariant: exit 2 plus a shrunken repro that re-fails
  // standalone with exit 2 (the fuzzer's acceptance contract).
  const fs::path out = dir / "repros";
  EXPECT_EQ(sbsim("fuzz --iterations 1 --seed 1 --threads 1,2 "
                  "--doctor thread-determinism --out-dir " +
                  out.string()),
            2);
  const fs::path repro = out / "fuzz-0x0000000000000001-0-repro.json";
  ASSERT_TRUE(fs::exists(repro)) << repro;
  EXPECT_EQ(sbsim("fuzz --repro " + repro.string()), 2);
}

// ---------------------------------------------------------------------------
// Snapshot fault injection (docs/persistence.md): a valid checkpoint
// corrupted six distinct ways must be REFUSED -- sbserved --restore exits
// with the pinned snapshot code 4 (never 0, never a crash, never serving
// partial state), and `sbsim snapshot` exits 1. The corruption classes
// mirror the SnapshotErrorKind catalog one-to-one.
// ---------------------------------------------------------------------------

std::vector<unsigned char> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Runs `sbsim run` on a tiny scenario with a snapshot block and returns
/// the checkpoint it wrote.
fs::path make_valid_snapshot(const fs::path& dir) {
  const fs::path snapshot = dir / "state.snap";
  const fs::path scenario = dir / "snapshot-scenario.json";
  write(scenario, std::string(R"({
    "name": "exit-code-snapshot",
    "config": {
      "num_users": 8,
      "ticks": 3,
      "num_shards": 1,
      "seed": 5,
      "corpus": {"num_hosts": 50}
    },
    "snapshot": {"path": ")") +
                    snapshot.string() + R"("}
  })");
  EXPECT_EQ(sbsim("run " + scenario.string()), 0);
  EXPECT_TRUE(fs::exists(snapshot));
  return snapshot;
}

/// The six corruption modes, applied to a fresh copy of `valid` each.
/// Returns the path of the corrupted variant.
fs::path corrupt(const fs::path& dir, const fs::path& valid, int mode) {
  auto bytes = read_bytes(valid);
  const fs::path out = dir / ("corrupt-" + std::to_string(mode) + ".snap");
  switch (mode) {
    case 0:  // truncated header
      bytes.resize(5);
      break;
    case 1:  // wrong magic
      bytes[0] ^= 0xFF;
      break;
    case 2:  // format version from the future
      bytes[4] = 0;
      bytes[5] = 0;
      bytes[6] = 0;
      bytes[7] = 0xFF;
      break;
    case 3:  // section payload flip -> checksum mismatch
      bytes.back() ^= 0x01;
      break;
    case 4:  // zero-length file
      bytes.clear();
      break;
    case 5:  // trailing garbage
      bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
      break;
  }
  write_bytes(out, bytes);
  return out;
}

TEST(SnapshotExitCodes, SbsimSnapshotZeroOnValidOneOnEveryCorruption) {
  const fs::path dir = scratch_dir();
  const fs::path valid = make_valid_snapshot(dir);
  EXPECT_EQ(sbsim("snapshot " + valid.string()), 0);
  EXPECT_EQ(sbsim("snapshot /no/such/state.snap"), 1);
  EXPECT_EQ(sbsim("snapshot"), 1);  // missing argument
  for (int mode = 0; mode < 6; ++mode) {
    EXPECT_EQ(sbsim("snapshot " + corrupt(dir, valid, mode).string()), 1)
        << "corruption mode " << mode;
  }
}

#ifdef SBP_SBSERVED_PATH

/// Runs `<wrapper>sbserved <args>` with output discarded; returns the
/// exit code.
int sbserved(const std::string& args, const std::string& wrapper = "") {
  const std::string command = wrapper + std::string(SBP_SBSERVED_PATH) +
                              " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(SnapshotExitCodes, SbservedRefusesEveryCorruptionWithFour) {
  const fs::path dir = scratch_dir();
  const fs::path valid = make_valid_snapshot(dir);
  const fs::path scenario = dir / "snapshot-scenario.json";
  const std::string base_args = scenario.string() + " --listen unix:" +
                                (dir / "served.sock").string();

  // Missing snapshot file: the restore path, not usage, so 4.
  EXPECT_EQ(
      sbserved(base_args + " --snapshot /no/such/state.snap --restore"), 4);
  // But --restore without --snapshot is a usage error: 1, not 4.
  EXPECT_EQ(sbserved(base_args + " --restore"), 1);

  for (int mode = 0; mode < 6; ++mode) {
    const fs::path bad = corrupt(dir, valid, mode);
    EXPECT_EQ(
        sbserved(base_args + " --snapshot " + bad.string() + " --restore"),
        4)
        << "corruption mode " << mode << " (" << bad << ")";
  }
}

TEST(SbservedExitCodes, OneOnMalformedDrainBudget) {
  const fs::path dir = scratch_dir();
  const fs::path scenario = dir / "tiny.json";
  write(scenario, kTinyScenario);
  // Rejected while parsing flags, before the daemon serves, never read as
  // a 0 ms drain. `timeout` turns a daemon that accepted the flag and
  // kept serving into exit 124 instead of a hung suite.
  EXPECT_EQ(sbserved("--drain-ms abc --listen unix:" +
                     (dir / "drain.sock").string() + " " + scenario.string(),
                     "timeout 20 "),
            1);
}

#endif  // SBP_SBSERVED_PATH

TEST(SbsimExitCodes, ThreeOnLoadgenTransportFailure) {
  const fs::path dir = scratch_dir();
  const fs::path scenario = dir / "tiny.json";
  write(scenario, kTinyScenario);
  // No daemon behind the endpoint: every request fails -> 3, distinct
  // from usage (1) and drift (2).
  EXPECT_EQ(sbsim("loadgen " + scenario.string() + " --connect unix:" +
                  (dir / "no-daemon.sock").string()),
            3);
}

}  // namespace

#else  // !SBP_SBSIM_PATH

TEST(SbsimExitCodes, RequiresSbsimBinary) {
  GTEST_SKIP() << "built without SBP_BUILD_TOOLS; sbsim path unavailable";
}

#endif  // SBP_SBSIM_PATH
