// Figure 3 on real threads: multiprocessor call throughput of the parallel
// engine (docs/concurrency.md, docs/EXPERIMENTS.md).
//
// Sweeps worker threads 1..N over {lock-free, single-lock} shared structures,
// measuring wall-clock Null calls/second per configuration, and writes the
// matrix as JSON (BENCH_throughput.json at the repo root is the committed
// snapshot; `cmake --build build --target bench-json` refreshes it). Worker
// w pins itself to the w-th CPU this process may run on (modulo their
// count) before its first call, so every run places its threads alike.
//
// The paper's Figure 3 shows call throughput scaling near-linearly to 4
// processors because the only shared state on the call path is guarded by
// per-interface A-stack list locks. This bench reproduces the *shape* on
// whatever host it runs: on a multi-core host the lock-free rows scale and
// the single-lock rows flatten; on a single-core host every multi-thread
// row is oversubscribed (flagged in the JSON) and only the lock-free vs
// single-lock ordering is meaningful.
//
// Measurement discipline (docs/EXPERIMENTS.md "anomaly" note): every
// configuration first runs an untimed warm-up window (cold page faults,
// allocator growth, branch training), then the timed window. The sweep
// runs in --repeat rounds, and round r runs every configuration once, so
// the two terms of a ratio come from the same moments of a host whose
// speed drifts over seconds. Each row reports its median over rounds. The
// first committed snapshot skipped the warm-up and the repeats, and
// recorded a 28% phantom gap between two configurations whose 1-thread
// fast paths are identical.
//
// Flags:
//   --json <path>    write the JSON matrix here (default: stdout only)
//   --wall-ms <n>    timed wall budget per configuration (default 300)
//   --warmup-ms <n>  untimed warm-up before each timed run (default 100)
//   --repeat <n>     rounds; each row reports its median (default 3)
//   --threads <n>    max worker threads (default: max(hardware_concurrency, 2))
//   --enforce        exit non-zero unless, in the median over rounds of
//                    each round's own ratios, lock-free >= single-lock at
//                    max threads, and (only when the host has >= 2 cores)
//                    max-thread lock-free > 1.5x single-thread lock-free

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/par/par_world.h"

namespace {

struct Row {
  int threads = 0;
  bool lock_free = false;
  bool oversubscribed = false;
  double calls_per_sec = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t cas_retries = 0;
};

// The CPUs this process may run on (on an unrestricted host, CPUs
// 0..hardware_concurrency-1), read once by the first worker to pin itself,
// before it does.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> found;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          found.push_back(c);
        }
      }
    }
    return found;
  }();
  return cpus;
}

// Pins the calling worker thread to allowed CPU `w` (modulo their count),
// once per thread.
void PinWorker(int w) {
  thread_local bool pinned = false;
  if (pinned) {
    return;
  }
  pinned = true;
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>(w) % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

Row RunConfigOnce(int threads, bool lock_free, int wall_ms, int warmup_ms,
                  unsigned hw) {
  lrpc::ParWorldOptions options;
  options.workers = threads;
  options.domains = 1;  // One shared binding: maximum free-list contention.
  options.lock_free = lock_free;
  options.astacks_per_group = std::max(8, 2 * threads);
  lrpc::ParWorld world(options);
  const auto call_null = [&world](int w) {
    PinWorker(w);
    return world.CallNull(w);
  };

  if (warmup_ms > 0) {
    // Untimed: absorbs first-touch page faults, allocator growth and branch
    // training so the timed window measures the steady state.
    world.par()->RunWorkers(std::chrono::milliseconds(warmup_ms), call_null);
  }
  lrpc::ParallelMachine::RunReport report =
      world.par()->RunWorkers(std::chrono::milliseconds(wall_ms), call_null);

  Row row;
  row.threads = threads;
  row.lock_free = lock_free;
  row.oversubscribed = static_cast<unsigned>(threads) > (hw == 0 ? 1u : hw);
  row.calls_per_sec = report.calls_per_second;
  row.calls = report.calls;
  row.failed = report.failures;
  row.cas_retries = world.par()->total_cas_retries();
  return row;
}

// The median of `values` (the upper one of an even count).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// The median-throughput trial of one configuration over the rounds: one
// hot trial (CPU frequency ramp, a scheduler hiccup) must not become the
// committed number.
Row MedianRow(std::vector<Row> trials) {
  std::sort(trials.begin(), trials.end(), [](const Row& a, const Row& b) {
    return a.calls_per_sec < b.calls_per_sec;
  });
  return trials[trials.size() / 2];
}

void WriteJson(std::ostream& out, const std::vector<Row>& rows, unsigned hw,
               int wall_ms, int warmup_ms, int repeat, int max_threads) {
  out << "{\n";
  out << "  \"bench\": \"mt_throughput\",\n";
  out << "  \"workload\": \"Null\",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
  out << "  \"wall_ms_per_config\": " << wall_ms << ",\n";
  out << "  \"warmup_ms_per_config\": " << warmup_ms << ",\n";
  out << "  \"repeat\": " << repeat << ",\n";
  out << "  \"max_threads\": " << max_threads << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"threads\": " << r.threads
        << ", \"lock_free\": " << (r.lock_free ? "true" : "false")
        << ", \"oversubscribed\": " << (r.oversubscribed ? "true" : "false")
        << ", \"calls_per_sec\": " << static_cast<std::uint64_t>(r.calls_per_sec)
        << ", \"calls\": " << r.calls << ", \"failed\": " << r.failed
        << ", \"cas_retries\": " << r.cas_retries << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int wall_ms = 300;
  int warmup_ms = 100;
  int repeat = 3;
  int max_threads = 0;
  bool enforce = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--wall-ms") == 0 && i + 1 < argc) {
      wall_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--warmup-ms") == 0 && i + 1 < argc) {
      warmup_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--enforce") == 0) {
      enforce = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (max_threads <= 0) {
    // Even on a single-core host, sweep to 2 so the lock-free vs
    // single-lock comparison under contention exists (flagged
    // oversubscribed).
    max_threads = static_cast<int>(std::max(hw, 2u));
  }

  std::printf("mt_throughput: hardware_concurrency=%u wall_ms=%d "
              "warmup_ms=%d repeat=%d max_threads=%d\n\n",
              hw, wall_ms, warmup_ms, repeat, max_threads);
  std::printf("%8s  %-10s  %12s  %8s  %6s\n", "threads", "structures",
              "calls/sec", "failed", "oversub");

  // trials[c][r]: configuration c in round r. Configuration c runs
  // 1 + c / 2 threads, lock-free when c is even.
  const int configs = 2 * max_threads;
  const auto threads_of = [](int c) { return 1 + c / 2; };
  const auto lock_free_of = [](int c) { return c % 2 == 0; };
  std::vector<std::vector<Row>> trials(static_cast<std::size_t>(configs));
  for (int r = 0; r < repeat; ++r) {
    for (int c = 0; c < configs; ++c) {
      trials[static_cast<std::size_t>(c)].push_back(RunConfigOnce(
          threads_of(c), lock_free_of(c), wall_ms, warmup_ms, hw));
    }
  }
  std::vector<Row> rows;
  for (const std::vector<Row>& config : trials) {
    const Row row = MedianRow(config);
    std::printf("%8d  %-10s  %12.0f  %8llu  %6s\n", row.threads,
                row.lock_free ? "lock-free" : "one-lock", row.calls_per_sec,
                static_cast<unsigned long long>(row.failed),
                row.oversubscribed ? "yes" : "no");
    rows.push_back(row);
  }

  // Each round's own ratios: max-thread lock-free over one-thread
  // lock-free, and over one-lock at max threads.
  const auto cps = [&trials](int c, int r) {
    return trials[static_cast<std::size_t>(c)][static_cast<std::size_t>(r)]
        .calls_per_sec;
  };
  const int lf_one = 0;
  const int lf_max = configs - 2;
  const int lk_max = configs - 1;
  std::vector<double> scaling;
  std::vector<double> versus_lock;
  std::printf("\n%8s  %14s  %18s\n", "round", "scaling",
              "lock-free/one-lock");
  for (int r = 0; r < repeat; ++r) {
    scaling.push_back(cps(lf_max, r) / std::max(cps(lf_one, r), 1.0));
    versus_lock.push_back(cps(lf_max, r) / std::max(cps(lk_max, r), 1.0));
    std::printf("%8d  %13.2fx  %17.2fx\n", r, scaling.back(),
                versus_lock.back());
  }
  const double median_scaling = Median(scaling);
  const double median_versus_lock = Median(versus_lock);
  std::printf("%8s  %13.2fx  %17.2fx\n", "median", median_scaling,
              median_versus_lock);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    WriteJson(out, rows, hw, wall_ms, warmup_ms, repeat, max_threads);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (enforce) {
    int rc = 0;
    // Lock-free must not lose to the single lock at peak contention (the
    // whole point of per-structure CAS paths).
    if (median_versus_lock < 1.0) {
      std::fprintf(stderr,
                   "ENFORCE FAIL: lock-free runs %.2fx single-lock at %d "
                   "threads (median over rounds), below 1x\n",
                   median_versus_lock, max_threads);
      rc = 1;
    }
    // Scaling is only a fair ask when the host actually has parallelism.
    if (hw >= 2 && max_threads >= 2) {
      if (median_scaling <= 1.5) {
        std::fprintf(stderr,
                     "ENFORCE FAIL: %d-thread lock-free runs %.2fx "
                     "single-thread (median over rounds), not > 1.5x\n",
                     max_threads, median_scaling);
        rc = 1;
      }
    } else {
      std::printf("scaling check skipped: host has %u core(s)\n", hw);
    }
    if (rc == 0) {
      std::printf("enforce: all throughput expectations hold\n");
    }
    return rc;
  }
  return 0;
}
