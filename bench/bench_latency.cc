// Host-time latency of one LRPC: the number the fast-path campaign drives
// down (docs/fast_path.md, docs/EXPERIMENTS.md).
//
// Runs a single worker on the parallel-host backend (lock-free structures,
// no contention) and measures wall-clock ns/call for the paper's workloads:
//
//   null      the Null call, both the general marshaling path and the
//             register-style inline path (zero-byte window)
//   add       a <=32-byte all-fixed procedure (two int32 in, one int32
//             out), general vs. inline — the pair the stub generator
//             specializes
//   biginout  200 bytes in + 200 bytes out, general path only (exceeds the
//             inline caps; this is the marshaled workload)
//
// Timing is batched: each sample is the mean ns/call over one batch, and
// the distribution of batch means gives p50/p99. A warm-up pass per
// workload absorbs cold caches, lazy allocation and branch training before
// any timed batch (the committed BENCH_throughput.json anomaly came from
// skipping exactly this).
//
// Flags:
//   --json <path>      write results here (BENCH_latency.json at the repo
//                      root is the committed snapshot; `cmake --build build
//                      --target bench-json` refreshes it)
//   --baseline <path>  committed snapshot to regress against under --enforce
//   --samples <n>      timed batches per workload (default 200)
//   --batch <n>        calls per batch (default 64)
//   --warmup <n>       untimed calls per workload (default 2000)
//   --enforce          exit non-zero unless (a) every call succeeded,
//                      (b) the inline path's p50 is no slower than 1.10x
//                      the general path's for null and add, and (c) when a
//                      baseline file is given, each workload's p50 is
//                      within 2.0x of the committed p50 (a coarse gate:
//                      CI hosts are noisy; the gate catches order-of-
//                      magnitude regressions, not percent drift).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/par/par_world.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Row {
  std::string workload;
  std::string path;  // "general" or "inline"
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double mean_ns = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
};

struct BenchConfig {
  int samples = 200;
  int batch = 64;
  int warmup = 2000;
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
    if (!call().ok()) {
      ++row.failed;
    }
  }
  std::vector<double> ns_per_call;
  ns_per_call.reserve(static_cast<std::size_t>(cfg.samples));
  double total_ns = 0.0;
  for (int s = 0; s < cfg.samples; ++s) {
    const Clock::time_point begin = Clock::now();
    for (int i = 0; i < cfg.batch; ++i) {
      if (!call().ok()) {
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

void WriteJson(std::ostream& out, const std::vector<Row>& rows, unsigned hw,
               const BenchConfig& cfg) {
  out << "{\n";
  out << "  \"bench\": \"latency\",\n";
  out << "  \"hardware_concurrency\": " << hw << ",\n";
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

// Hand-rolled scan of a committed BENCH_latency.json (the writer above is
// the only producer, so the match is on its exact row shape): returns the
// p50_ns recorded for (workload, path), or -1 if absent/unreadable.
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

  lrpc::ParWorldOptions options;
  options.workers = 1;
  options.domains = 1;
  options.lock_free = true;
  lrpc::ParWorld world(options);
  lrpc::LrpcRuntime& rt = world.runtime();
  lrpc::Processor& cpu = world.machine().processor(0);
  const lrpc::ThreadId thread = world.worker_thread(0);
  lrpc::ClientBinding& binding = world.worker_binding(0);

  // Slot offsets for the hand-packed Add window, from the same layout the
  // stub generator embeds (a at 0, b at 8, sum at 16; span 24).
  const lrpc::ProcedureDescriptor& add_pd =
      binding.interface_spec()->pd(world.add_proc());
  if (!add_pd.inline_eligible) {
    std::fprintf(stderr, "Add is not inline-eligible; layout rules changed?\n");
    return 2;
  }
  const std::size_t off_a = lrpc::ParamOffset(*add_pd.def, 0);
  const std::size_t off_b = lrpc::ParamOffset(*add_pd.def, 1);
  const std::size_t off_sum = lrpc::ParamOffset(*add_pd.def, 2);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("latency: hardware_concurrency=%u samples=%d batch=%d "
              "warmup=%d\n\n",
              hw, cfg.samples, cfg.batch, cfg.warmup);

  std::vector<Row> rows;

  rows.push_back(Measure("null", "general", cfg,
                         [&] { return world.CallNull(0); }));
  rows.push_back(Measure("null", "inline", cfg, [&] {
    return rt.CallInline(cpu, thread, binding, world.null_proc(), nullptr,
                         nullptr);
  }));
  rows.push_back(Measure("add", "general", cfg, [&] {
    std::int32_t sum = 0;
    return world.CallAdd(0, 41, 1, &sum);
  }));
  rows.push_back(Measure("add", "inline", cfg, [&] {
    unsigned char block[24] = {};
    const std::int32_t a = 41;
    const std::int32_t b = 1;
    std::memcpy(block + off_a, &a, sizeof(a));
    std::memcpy(block + off_b, &b, sizeof(b));
    lrpc::Status st =
        rt.CallInline(cpu, thread, binding, world.add_proc(), block, block);
    if (st.ok()) {
      std::int32_t sum = 0;
      std::memcpy(&sum, block + off_sum, sizeof(sum));
      if (sum != 42) {
        return lrpc::Status(lrpc::ErrorCode::kInvalidArgument, "bad sum");
      }
    }
    return st;
  }));
  {
    std::uint8_t in[lrpc::kParBigSize];
    std::uint8_t out[lrpc::kParBigSize];
    std::memset(in, 0x5a, sizeof(in));
    rows.push_back(Measure("biginout", "general", cfg, [&] {
      return world.CallBigInOut(0, in, out);
    }));
  }

  std::printf("%-10s  %-8s  %10s  %10s  %10s  %8s\n", "workload", "path",
              "p50 ns", "p99 ns", "mean ns", "failed");
  for (const Row& r : rows) {
    std::printf("%-10s  %-8s  %10.0f  %10.0f  %10.0f  %8llu\n",
                r.workload.c_str(), r.path.c_str(), r.p50_ns, r.p99_ns,
                r.mean_ns, static_cast<unsigned long long>(r.failed));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    WriteJson(out, rows, hw, cfg);
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
    // The inline path exists to be faster; allow 10% noise headroom but a
    // specialized path that loses to the general one is a regression.
    for (const char* workload : {"null", "add"}) {
      const Row* gen = FindRow(rows, workload, "general");
      const Row* inl = FindRow(rows, workload, "inline");
      if (gen == nullptr || inl == nullptr ||
          inl->p50_ns > 1.10 * gen->p50_ns) {
        std::fprintf(stderr,
                     "ENFORCE FAIL: %s inline p50 (%.0f ns) > 1.10x general "
                     "p50 (%.0f ns)\n",
                     workload, inl != nullptr ? inl->p50_ns : 0.0,
                     gen != nullptr ? gen->p50_ns : 0.0);
        rc = 1;
      }
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
      std::printf("enforce: all latency expectations hold\n");
    }
    return rc;
  }
  return 0;
}
