// The pipelining frontier (docs/async.md): simulated Null/Add call cost at
// async depths 1, 4 and 16 against the synchronous baseline.
//
// A synchronous Null call pays the trap pair and the domain-transfer pair
// every time — 36 us of traps plus 66 us of context switches out of the
// 157 us total (Table 4/5). An AsyncRing amortizes exactly those two costs
// across a batch, so per-call simulated time falls toward the residual
// (stub + kernel validation + server work) as depth grows. Depth 1 is one
// call per flush, no amortization: it costs exactly one sync call, which
// AsyncProperty.DepthOneCostsExactlyOneSyncCall pins tick for tick.
//
// Flags:
//   --calls <n>   calls per row (default 4096)
//   --json <path> write results here (BENCH_async.json at the repo root is
//                 the committed snapshot)
//   --enforce     exit non-zero unless every call succeeded and depth-16
//                 throughput is at least 2x sync for every workload — the
//                 headline the async path exists for.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/lrpc/async_call.h"
#include "src/lrpc/testbed.h"

namespace lrpc {
namespace {

struct Row {
  std::string workload;
  int depth = 0;  // 0 = synchronous baseline.
  int calls = 0;
  std::uint64_t failed = 0;
  double sim_ns_per_call = 0;
  double calls_per_sec = 0;  // Simulated-time throughput.
  double speedup = 1.0;      // sync sim ns / this row's sim ns.
};

Row MeasureSync(const char* workload, int calls) {
  Testbed bed;
  Row row;
  row.workload = workload;
  row.depth = 0;
  row.calls = calls;
  const bool is_add = std::strcmp(workload, "add") == 0;
  (void)bed.CallNull();  // Warm the context and the E-stack association.
  const SimTime start = bed.cpu(0).clock();
  for (int i = 0; i < calls; ++i) {
    Status status = Status::Ok();
    if (is_add) {
      std::int32_t sum = 0;
      status = bed.CallAdd(40, 2, &sum);
      if (status.ok() && sum != 42) {
        status = Status(ErrorCode::kInvalidArgument, "bad sum");
      }
    } else {
      status = bed.CallNull();
    }
    if (!status.ok()) {
      ++row.failed;
    }
  }
  const SimDuration elapsed = bed.cpu(0).clock() - start;
  row.sim_ns_per_call = static_cast<double>(elapsed) / calls;
  row.calls_per_sec = 1e9 / row.sim_ns_per_call;
  return row;
}

Row MeasureAsync(const char* workload, int depth, int calls) {
  Testbed bed;
  Row row;
  row.workload = workload;
  row.depth = depth;
  row.calls = calls;
  const bool is_add = std::strcmp(workload, "add") == 0;
  const int proc = is_add ? bed.add_proc() : bed.null_proc();

  AsyncRing ring(bed.runtime(), bed.binding(), bed.client_thread(), depth);
  std::vector<std::int32_t> lhs(static_cast<std::size_t>(depth), 40);
  std::vector<std::int32_t> rhs(static_cast<std::size_t>(depth), 2);
  std::vector<std::int32_t> sums(static_cast<std::size_t>(depth), 0);

  auto burst = [&](int n, bool count) {
    for (int i = 0; i < n; ++i) {
      Result<CallToken> token =
          is_add ? [&] {
            const CallArg args[] = {CallArg::Of(lhs[static_cast<std::size_t>(i)]),
                                    CallArg::Of(rhs[static_cast<std::size_t>(i)])};
            const CallRet rets[] = {
                CallRet::Of(&sums[static_cast<std::size_t>(i)])};
            return ring.Submit(bed.cpu(0), proc, args, rets);
          }()
                 : ring.Submit(bed.cpu(0), proc, {}, {});
      if (!token.ok() && count) {
        ++row.failed;
      }
    }
    ring.Drain(bed.cpu(0));
    for (const AsyncCompletion& done : ring.TakeResults()) {
      if (count && !done.status.ok()) {
        ++row.failed;
      }
    }
    if (count && is_add) {
      for (int i = 0; i < n; ++i) {
        if (sums[static_cast<std::size_t>(i)] != 42) {
          ++row.failed;
        }
        sums[static_cast<std::size_t>(i)] = 0;
      }
    }
  };

  // One warm-up burst: first-touch A-stack growth past the default pool
  // and the E-stack association are setup costs, not steady-state ones.
  burst(depth, /*count=*/false);

  const SimTime start = bed.cpu(0).clock();
  int issued = 0;
  while (issued < calls) {
    const int n = std::min(depth, calls - issued);
    burst(n, /*count=*/true);
    issued += n;
  }
  const SimDuration elapsed = bed.cpu(0).clock() - start;
  row.sim_ns_per_call = static_cast<double>(elapsed) / calls;
  row.calls_per_sec = 1e9 / row.sim_ns_per_call;
  return row;
}

void WriteJson(std::ofstream& out, const std::vector<Row>& rows, int calls) {
  out << "{\n"
      << "  \"bench\": \"async\",\n"
      << "  \"calls\": " << calls << ",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"workload\": \"%s\", \"depth\": %d, "
                  "\"sim_ns_per_call\": %.0f, \"calls_per_sec\": %.0f, "
                  "\"speedup\": %.2f, \"calls\": %d, \"failed\": %llu}%s\n",
                  r.workload.c_str(), r.depth, r.sim_ns_per_call,
                  r.calls_per_sec, r.speedup, r.calls,
                  static_cast<unsigned long long>(r.failed),
                  i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

const Row* FindRow(const std::vector<Row>& rows, const char* workload,
                   int depth) {
  for (const Row& r : rows) {
    if (r.workload == workload && r.depth == depth) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace
}  // namespace lrpc

int main(int argc, char** argv) {
  int calls = 4096;
  std::string json_path;
  bool enforce = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--calls") == 0 && i + 1 < argc) {
      calls = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--enforce") == 0) {
      enforce = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<lrpc::Row> rows;
  for (const char* workload : {"null", "add"}) {
    lrpc::Row sync = lrpc::MeasureSync(workload, calls);
    const double sync_ns = sync.sim_ns_per_call;
    rows.push_back(sync);
    for (const int depth : {1, 4, 16}) {
      lrpc::Row row = lrpc::MeasureAsync(workload, depth, calls);
      row.speedup = sync_ns / row.sim_ns_per_call;
      rows.push_back(row);
    }
  }

  std::printf("%-8s  %6s  %14s  %14s  %8s  %8s\n", "workload", "depth",
              "sim ns/call", "calls/sec", "speedup", "failed");
  for (const lrpc::Row& r : rows) {
    char depth_label[16];
    if (r.depth == 0) {
      std::snprintf(depth_label, sizeof(depth_label), "sync");
    } else {
      std::snprintf(depth_label, sizeof(depth_label), "%d", r.depth);
    }
    std::printf("%-8s  %6s  %14.0f  %14.0f  %7.2fx  %8llu\n",
                r.workload.c_str(), depth_label, r.sim_ns_per_call,
                r.calls_per_sec, r.speedup,
                static_cast<unsigned long long>(r.failed));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 2;
    }
    lrpc::WriteJson(out, rows, calls);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (enforce) {
    int rc = 0;
    for (const lrpc::Row& r : rows) {
      if (r.failed != 0) {
        std::fprintf(stderr, "ENFORCE FAIL: %s depth %d had %llu failures\n",
                     r.workload.c_str(), r.depth,
                     static_cast<unsigned long long>(r.failed));
        rc = 1;
      }
    }
    for (const char* workload : {"null", "add"}) {
      const lrpc::Row* d16 = lrpc::FindRow(rows, workload, 16);
      if (d16 == nullptr || d16->speedup < 2.0) {
        std::fprintf(stderr,
                     "ENFORCE FAIL: %s depth-16 throughput %.2fx sync, "
                     "need >= 2.0x\n",
                     workload, d16 != nullptr ? d16->speedup : 0.0);
        rc = 1;
      }
    }
    if (rc == 0) {
      std::printf("enforce: the pipelining frontier holds\n");
    }
    return rc;
  }
  return 0;
}
