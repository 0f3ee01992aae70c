// bench_suite: the compiled half of the benchmark (benchsuite/README.md).
//
//   bench_suite sim     --workload FILE [--seed N] [--seconds T] [--traced]
//                       [--trace-out FILE]
//   bench_suite capture --workload FILE [--seed N] --capture-out TRACE
//                       [--traced] [--trace-out FILE]
//   bench_suite replay  --workload FILE [--seed N] [--seconds T]
//                       --trace-in TRACE --endpoint unix:PATH|tcp:HOST:PORT
//                       --rate R [--rungs R1,R2,...] [--traced]
//                       [--trace-out FILE]
//
// Progress goes to stderr; the last stdout line is one JSON object
// {correct, attempted, failed, metrics, problems, golden}. Exit codes:
// 0 = every check passed, 2 = a correctness check failed, 1 = usage or I/O.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "suite.hpp"

namespace {

using sbp::benchsuite::Options;

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_suite: %s\nusage: bench_suite sim|capture|replay "
               "--workload FILE [--seed N] [--seconds T] [--traced] "
               "[--trace-out FILE] [--capture-out TRACE] [--trace-in TRACE] "
               "[--endpoint E] [--rate R] [--rungs R1,R2,...]\n",
               message);
  return 1;
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && *out >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  const std::string command = argv[1];
  Options opts;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      opts.traced = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      opts.workload_path = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, &number)) return usage("bad --seed");
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      if (!parse_number(value, &opts.seconds)) return usage("bad --seconds");
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--capture-out") {
      opts.capture_out = value;
    } else if (flag == "--trace-in") {
      opts.trace_in = value;
    } else if (flag == "--endpoint") {
      opts.endpoint = value;
    } else if (flag == "--rate") {
      if (!parse_number(value, &opts.rate)) return usage("bad --rate");
    } else if (flag == "--rungs") {
      std::size_t start = 0;
      while (start <= value.size()) {
        const std::size_t comma = std::min(value.find(',', start), value.size());
        if (!parse_number(value.substr(start, comma - start), &number)) {
          return usage("bad --rungs");
        }
        opts.rungs.push_back(number);
        start = comma + 1;
      }
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload_path.empty()) return usage("--workload is required");
  if (command == "capture" && opts.capture_out.empty()) {
    return usage("capture needs --capture-out");
  }
  if (command == "replay" &&
      (opts.trace_in.empty() || opts.endpoint.empty() || opts.rate <= 0.0)) {
    return usage("replay needs --trace-in, --endpoint and --rate");
  }

  std::string error;
  const auto workload =
      sbp::benchsuite::load_workload(opts.workload_path, opts.seed, &error);
  if (!workload) {
    std::fprintf(stderr, "bench_suite: %s\n", error.c_str());
    return 1;
  }

  sbp::benchsuite::Result result;
  if (command == "sim") {
    if (!opts.capture_out.empty()) return usage("sim takes no --capture-out");
    sbp::benchsuite::run_sim(*workload, opts, result);
  } else if (command == "capture") {
    sbp::benchsuite::run_sim(*workload, opts, result);
  } else if (command == "replay") {
    sbp::benchsuite::run_replay(*workload, opts, result);
  } else {
    return usage(("unknown command " + command).c_str());
  }
  result.print();
  return result.correct ? 0 : 2;
}
