// LRPC's data path between REAL protection domains on the host, measured
// on the same primitives the multi-process backend runs on (src/proc/,
// docs/multiprocess.md) — no private fork/mmap/doorbell copy.
//
// Three legs, all between genuinely separate address spaces:
//
//   doorbell    a bare ProcChannel in a ProcSegment behind FutexDoorbell:
//               the client writes arguments into the shared payload, rings
//               call_seq, the forked server computes against the shared
//               bytes and rings return_seq back. LRPC's "simple data
//               transfer" reduced to its essentials.
//   socketpair  the same Add over a UNIX-domain socketpair — the
//               conventional "message through the kernel" path.
//   lrpc        the full kMultiProcess backend (ProcWorld): binding,
//               supervision, the runtime's call path, then the same
//               channel. The difference to `doorbell` is the price of the
//               real RPC machinery on top of the raw transfer.
//
// Host wall-clock time, so machine-dependent; the interesting output is
// the ratio, and the --enforce gate is on the ratio: the doorbell leg must
// stay at least 2x faster than the socketpair leg (the 1989 gap, still
// here). Where fork is forbidden the benchmark skips cleanly (exit 0).
//
// Flags (the bench_latency.cc idiom):
//   --json <path>      write results (BENCH_processes.json at the repo
//                      root is the committed snapshot; `cmake --build
//                      build --target bench-json` refreshes it)
//   --baseline <path>  committed snapshot to regress against under
//                      --enforce
//   --samples <n>      timed batches per leg (default 200)
//   --batch <n>        calls per batch (default 64)
//   --warmup <n>       untimed calls per leg (default 1000)
//   --enforce          exit non-zero unless every call succeeded, the
//                      doorbell p50 is <= 0.5x the socketpair p50, and
//                      (with --baseline) each leg's p50 is within 2.0x of
//                      the committed p50.

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/proc/futex_doorbell.h"
#include "src/proc/proc_channel.h"
#include "src/proc/proc_host.h"
#include "src/proc/proc_segment.h"
#include "src/proc/proc_world.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Row {
  std::string workload;
  std::string path;  // "doorbell", "socketpair" or "lrpc"
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
};

struct BenchConfig {
  int samples = 200;
  int batch = 64;
  int warmup = 1000;
};

// Runs `call` warmup times untimed, then `samples` batches of `batch` timed
// calls; each batch's mean ns/call is one sample of the distribution.
template <typename Fn>
Row Measure(const std::string& workload, const std::string& path,
            const BenchConfig& cfg, Fn&& call) {
  Row row;
  row.workload = workload;
  row.path = path;
  for (int i = 0; i < cfg.warmup; ++i) {
    if (!call()) {
      ++row.failed;
    }
  }
  std::vector<double> ns_per_call;
  ns_per_call.reserve(static_cast<std::size_t>(cfg.samples));
  double total_ns = 0.0;
  for (int s = 0; s < cfg.samples; ++s) {
    const Clock::time_point begin = Clock::now();
    for (int i = 0; i < cfg.batch; ++i) {
      if (!call()) {
        ++row.failed;
      }
    }
    const Clock::time_point end = Clock::now();
    const double batch_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
            .count());
    ns_per_call.push_back(batch_ns / cfg.batch);
    total_ns += batch_ns;
  }
  row.calls = static_cast<std::uint64_t>(cfg.samples) *
              static_cast<std::uint64_t>(cfg.batch);
  row.mean_ns = total_ns / static_cast<double>(row.calls);
  std::sort(ns_per_call.begin(), ns_per_call.end());
  const std::size_t n = ns_per_call.size();
  row.p50_ns = ns_per_call[n / 2];
  row.p99_ns = ns_per_call[std::min(n - 1, (n * 99) / 100)];
  return row;
}

// --- The doorbell leg: a bare ProcChannel served by a forked child. ---

// Payload layout for the raw Add: a at 0, b at 4, sum at 8.
[[noreturn]] void ServeAdd(lrpc::ProcChannel* ch) {
  std::uint32_t handled = 0;
  for (;;) {
    std::uint32_t seen = ch->call_seq.load(std::memory_order_acquire);
    while (seen == handled) {
      if (ch->shutdown.load(std::memory_order_acquire) != 0) {
        _exit(0);
      }
      seen = lrpc::FutexDoorbell::WaitWhile(&ch->call_seq,
                                            &ch->call_sleepers, handled, 50);
    }
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::memcpy(&a, ch->payload, sizeof(a));
    std::memcpy(&b, ch->payload + 4, sizeof(b));
    const std::int32_t sum = a + b;
    std::memcpy(ch->payload + 8, &sum, sizeof(sum));
    handled = seen;
    ch->return_seq.fetch_add(1, std::memory_order_seq_cst);
    lrpc::FutexDoorbell::Wake(&ch->return_seq, &ch->return_sleepers);
  }
}

struct DoorbellLeg {
  lrpc::ProcSegment segment;
  lrpc::ProcChannel* channel = nullptr;
  pid_t child = -1;

  bool Start() {
    if (!segment.Map(sizeof(lrpc::ProcChannel)).ok()) {
      return false;
    }
    channel = new (segment.data()) lrpc::ProcChannel();
    child = fork();
    if (child < 0) {
      return false;
    }
    if (child == 0) {
      ServeAdd(channel);  // Never returns.
    }
    std::int32_t sum = 0;
    return CallAdd(19, 23, &sum) && sum == 42;
  }

  bool CallAdd(std::int32_t a, std::int32_t b, std::int32_t* sum) {
    std::memcpy(channel->payload, &a, sizeof(a));
    std::memcpy(channel->payload + 4, &b, sizeof(b));
    const std::uint32_t before =
        channel->return_seq.load(std::memory_order_acquire);
    channel->call_seq.fetch_add(1, std::memory_order_seq_cst);
    lrpc::FutexDoorbell::Wake(&channel->call_seq,
                              &channel->call_sleepers);
    std::uint32_t now = before;
    while (now == before) {
      now = lrpc::FutexDoorbell::WaitWhile(&channel->return_seq,
                                           &channel->return_sleepers, before,
                                           50);
    }
    std::memcpy(sum, channel->payload + 8, sizeof(*sum));
    return true;
  }

  void Stop() {
    if (child > 0) {
      channel->shutdown.store(1, std::memory_order_release);
      lrpc::FutexDoorbell::Wake(&channel->call_seq,
                              &channel->call_sleepers);
      waitpid(child, nullptr, 0);
      child = -1;
    }
  }
};

// --- The socketpair leg: the same Add as a kernel message round trip. ---

struct SocketpairLeg {
  int fd = -1;
  pid_t child = -1;

  bool Start() {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return false;
    }
    child = fork();
    if (child < 0) {
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (child == 0) {
      close(fds[0]);
      std::int32_t request[2];
      while (read(fds[1], request, sizeof(request)) ==
             static_cast<ssize_t>(sizeof(request))) {
        const std::int32_t sum = request[0] + request[1];
        if (write(fds[1], &sum, sizeof(sum)) !=
            static_cast<ssize_t>(sizeof(sum))) {
          break;
        }
      }
      _exit(0);
    }
    close(fds[1]);
    fd = fds[0];
    std::int32_t sum = 0;
    return CallAdd(19, 23, &sum) && sum == 42;
  }

  bool CallAdd(std::int32_t a, std::int32_t b, std::int32_t* sum) {
    const std::int32_t request[2] = {a, b};
    return write(fd, request, sizeof(request)) ==
               static_cast<ssize_t>(sizeof(request)) &&
           read(fd, sum, sizeof(*sum)) == static_cast<ssize_t>(sizeof(*sum));
  }

  void Stop() {
    if (fd >= 0) {
      close(fd);  // EOF stops the child's read loop.
      fd = -1;
    }
    if (child > 0) {
      waitpid(child, nullptr, 0);
      child = -1;
    }
  }
};

// --- JSON and baseline (the exact bench_latency.cc row shape). ---

void WriteJson(std::ostream& out, const std::vector<Row>& rows,
               bool fork_permitted, const BenchConfig& cfg) {
  out << "{\n";
  out << "  \"bench\": \"processes\",\n";
  out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"fork_permitted\": " << (fork_permitted ? "true" : "false")
      << ",\n";
  out << "  \"samples\": " << cfg.samples << ",\n";
  out << "  \"batch\": " << cfg.batch << ",\n";
  out << "  \"warmup\": " << cfg.warmup << ",\n";
  out << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"workload\": \"" << r.workload << "\", \"path\": \""
        << r.path << "\", \"p50_ns\": " << static_cast<std::uint64_t>(r.p50_ns)
        << ", \"p99_ns\": " << static_cast<std::uint64_t>(r.p99_ns)
        << ", \"mean_ns\": " << static_cast<std::uint64_t>(r.mean_ns)
        << ", \"calls\": " << r.calls << ", \"failed\": " << r.failed << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

const Row* FindRow(const std::vector<Row>& rows, const std::string& workload,
                   const std::string& path) {
  for (const Row& r : rows) {
    if (r.workload == workload && r.path == path) {
      return &r;
    }
  }
  return nullptr;
}

double BaselineP50(const std::string& json, const std::string& workload,
                   const std::string& path) {
  const std::string key =
      "\"workload\": \"" + workload + "\", \"path\": \"" + path + "\"";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) {
    return -1.0;
  }
  const std::string field = "\"p50_ns\": ";
  const std::size_t p = json.find(field, at);
  if (p == std::string::npos) {
    return -1.0;
  }
  return std::atof(json.c_str() + p + field.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  BenchConfig cfg;
  bool enforce = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      cfg.samples = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      cfg.batch = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      cfg.warmup = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--enforce") == 0) {
      enforce = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (cfg.samples < 1 || cfg.batch < 1 || cfg.warmup < 0) {
    std::fprintf(stderr, "bad --samples/--batch/--warmup\n");
    return 2;
  }

  std::printf("== Host hardware: LRPC between real processes ==\n");
  std::printf("(src/proc primitives; samples=%d batch=%d warmup=%d)\n\n",
              cfg.samples, cfg.batch, cfg.warmup);

  if (!lrpc::ProcHost::ForkPermitted()) {
    std::printf("environment does not permit fork; skipped\n");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (out) {
        WriteJson(out, {}, /*fork_permitted=*/false, cfg);
      }
    }
    return 0;  // A clean skip, even under --enforce.
  }

  std::vector<Row> rows;

  {
    DoorbellLeg leg;
    if (!leg.Start()) {
      std::fprintf(stderr, "doorbell leg failed to start\n");
      return 2;
    }
    rows.push_back(Measure("add", "doorbell", cfg, [&] {
      std::int32_t sum = 0;
      return leg.CallAdd(41, 1, &sum) && sum == 42;
    }));
    leg.Stop();
  }
  {
    SocketpairLeg leg;
    if (!leg.Start()) {
      std::fprintf(stderr, "socketpair leg failed to start\n");
      return 2;
    }
    rows.push_back(Measure("add", "socketpair", cfg, [&] {
      std::int32_t sum = 0;
      return leg.CallAdd(41, 1, &sum) && sum == 42;
    }));
    leg.Stop();
  }
  {
    lrpc::ProcWorld world;
    if (!world.ok()) {
      std::fprintf(stderr, "proc world failed to spawn: %s\n",
                   std::string(world.spawn_status().detail()).c_str());
      return 2;
    }
    rows.push_back(Measure("null", "lrpc", cfg,
                           [&] { return world.CallNull(0).ok(); }));
    rows.push_back(Measure("add", "lrpc", cfg, [&] {
      std::int32_t sum = 0;
      return world.CallAdd(41, 1, &sum, 0).ok() && sum == 42;
    }));
    std::uint8_t in[lrpc::kBigSize];
    std::uint8_t out[lrpc::kBigSize];
    std::memset(in, 0x5a, sizeof(in));
    rows.push_back(Measure("biginout", "lrpc", cfg, [&] {
      return world.CallBigInOut(in, out, 0).ok();
    }));
  }

  std::printf("%-10s  %-10s  %10s  %10s  %10s  %8s\n", "workload", "path",
              "p50 ns", "p99 ns", "mean ns", "failed");
  for (const Row& r : rows) {
    std::printf("%-10s  %-10s  %10.0f  %10.0f  %10.0f  %8llu\n",
                r.workload.c_str(), r.path.c_str(), r.p50_ns, r.p99_ns,
                r.mean_ns, static_cast<unsigned long long>(r.failed));
  }

  const Row* bell = FindRow(rows, "add", "doorbell");
  const Row* sock = FindRow(rows, "add", "socketpair");
  if (bell != nullptr && sock != nullptr && bell->p50_ns > 0.0) {
    std::printf("\nThe kernel-message path costs %.1fx the shared-region "
                "path between the same two processes — the 1989 gap, still "
                "here.\n",
                sock->p50_ns / bell->p50_ns);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    WriteJson(out, rows, /*fork_permitted=*/true, cfg);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (enforce) {
    int rc = 0;
    for (const Row& r : rows) {
      if (r.failed != 0) {
        std::fprintf(stderr, "ENFORCE FAIL: %s/%s had %llu failed calls\n",
                     r.workload.c_str(), r.path.c_str(),
                     static_cast<unsigned long long>(r.failed));
        rc = 1;
      }
    }
    // The shared-region transfer is the point of the paper; a doorbell
    // that is not at least 2x faster than the kernel-message path means
    // the data path degraded to message-passing cost.
    if (bell == nullptr || sock == nullptr ||
        2.0 * bell->p50_ns > sock->p50_ns) {
      std::fprintf(stderr,
                   "ENFORCE FAIL: doorbell p50 (%.0f ns) not 2x faster than "
                   "socketpair p50 (%.0f ns)\n",
                   bell != nullptr ? bell->p50_ns : 0.0,
                   sock != nullptr ? sock->p50_ns : 0.0);
      rc = 1;
    }
    if (!baseline_path.empty()) {
      std::ifstream in(baseline_path);
      if (!in) {
        std::fprintf(stderr, "ENFORCE FAIL: cannot read baseline %s\n",
                     baseline_path.c_str());
        rc = 1;
      } else {
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string baseline = buf.str();
        for (const Row& r : rows) {
          const double base = BaselineP50(baseline, r.workload, r.path);
          if (base <= 0.0) {
            std::fprintf(stderr,
                         "ENFORCE FAIL: baseline has no p50 for %s/%s\n",
                         r.workload.c_str(), r.path.c_str());
            rc = 1;
            continue;
          }
          if (r.p50_ns > 2.0 * base) {
            std::fprintf(stderr,
                         "ENFORCE FAIL: %s/%s p50 (%.0f ns) > 2.0x committed "
                         "baseline (%.0f ns)\n",
                         r.workload.c_str(), r.path.c_str(), r.p50_ns, base);
            rc = 1;
          }
        }
      }
    }
    if (rc == 0) {
      std::printf("enforce: all process-backend expectations hold\n");
    }
    return rc;
  }
  return 0;
}
