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
// allocator growth, branch training), then the timed window, and the whole
// thing repeats --repeat times with the median-throughput run reported.
// The first committed snapshot skipped both and recorded a 28% phantom gap
// between two configurations whose 1-thread fast paths are identical.
//
// Flags:
//   --json <path>    write the JSON matrix here (default: stdout only)
//   --wall-ms <n>    timed wall budget per configuration (default 300)
//   --warmup-ms <n>  untimed warm-up before each timed run (default 100)
//   --repeat <n>     runs per configuration; the median is reported
//                    (default 3)
//   --threads <n>    max worker threads (default: max(hardware_concurrency, 2))
//   --enforce        exit non-zero unless lock-free >= single-lock at max
//                    threads, and (only when the host has >= 2 cores)
//                    multi-thread > 1.5x single-thread

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

// Median-throughput run of `repeat` trials: one hot trial (CPU frequency
// ramp, a scheduler hiccup) must not become the committed number.
Row RunConfig(int threads, bool lock_free, int wall_ms, int warmup_ms,
              int repeat, unsigned hw) {
  std::vector<Row> trials;
  for (int r = 0; r < repeat; ++r) {
    trials.push_back(RunConfigOnce(threads, lock_free, wall_ms, warmup_ms, hw));
  }
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

const Row* FindRow(const std::vector<Row>& rows, int threads, bool lock_free) {
  for (const Row& r : rows) {
    if (r.threads == threads && r.lock_free == lock_free) {
      return &r;
    }
  }
  return nullptr;
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

  std::vector<Row> rows;
  for (int threads = 1; threads <= max_threads; ++threads) {
    for (const bool lock_free : {true, false}) {
      Row row = RunConfig(threads, lock_free, wall_ms, warmup_ms, repeat, hw);
      std::printf("%8d  %-10s  %12.0f  %8llu  %6s\n", row.threads,
                  row.lock_free ? "lock-free" : "one-lock", row.calls_per_sec,
                  static_cast<unsigned long long>(row.failed),
                  row.oversubscribed ? "yes" : "no");
      rows.push_back(row);
    }
  }

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
    const Row* lf = FindRow(rows, max_threads, true);
    const Row* lk = FindRow(rows, max_threads, false);
    if (lf == nullptr || lk == nullptr ||
        lf->calls_per_sec < lk->calls_per_sec) {
      std::fprintf(stderr,
                   "ENFORCE FAIL: lock-free (%.0f c/s) < single-lock "
                   "(%.0f c/s) at %d threads\n",
                   lf != nullptr ? lf->calls_per_sec : 0.0,
                   lk != nullptr ? lk->calls_per_sec : 0.0, max_threads);
      rc = 1;
    }
    // Scaling is only a fair ask when the host actually has parallelism.
    if (hw >= 2 && max_threads >= 2) {
      const Row* one = FindRow(rows, 1, true);
      const Row* many = FindRow(rows, max_threads, true);
      if (one == nullptr || many == nullptr ||
          many->calls_per_sec <= 1.5 * one->calls_per_sec) {
        std::fprintf(stderr,
                     "ENFORCE FAIL: %d-thread lock-free (%.0f c/s) is not "
                     "> 1.5x single-thread (%.0f c/s)\n",
                     max_threads, many != nullptr ? many->calls_per_sec : 0.0,
                     one != nullptr ? one->calls_per_sec : 0.0);
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
