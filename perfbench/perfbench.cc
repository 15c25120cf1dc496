// lrpc_perfbench: the host benchmark for LRPC on the par (threads) and proc
// (forked server domains) backends. README.md in this directory maps each
// metric to its layer and workload; run.py builds this program and runs it.
//
//   lrpc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>]
//   lrpc_perfbench --fingerprint
//
// Workloads (all closed loop: an LRPC caller blocks until its reply):
//   par_call    1 caller thread on par, seeded Null/Add/Add-inline/BigInOut
//   par_fanin   nproc caller threads on par, Null through one shared binding
//   proc_call   1 caller on proc, one forked server, the par_call mix
//   proc_async  1 caller on proc, AsyncRing depth 16, seeded Add/BigInOut
//
// --trace 0 measures the end-to-end metrics: every call is timed on its own
// into a fixed-bucket histogram, every result is checked, and set-up is
// timed over several fresh worlds. --trace 1 measures the per-layer
// metrics: an untraced window (the overhead reference), a traced window
// whose spans wrap the calls into each layer from outside the program, the
// isolated single-function timings on a second world, and the in-run
// references. The last line of stdout is one JSON object; the exit status
// is non-zero when any correctness check failed.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/lrpc/async_call.h"
#include "src/lrpc/proc_transport.h"
#include "src/par/par_world.h"
#include "src/proc/futex_doorbell.h"
#include "src/proc/proc_channel.h"
#include "src/proc/proc_host.h"
#include "src/proc/proc_segment.h"
#include "src/proc/proc_world.h"

namespace {

using lrpc::CallArg;
using lrpc::CallRet;
using lrpc::CallStats;
using lrpc::ErrorCode;
using lrpc::Histogram;
using lrpc::ParWorld;
using lrpc::ProcWorld;
using lrpc::Status;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kBig = lrpc::kBigSize;
static_assert(lrpc::kParBigSize == lrpc::kBigSize);
constexpr int kAsyncDepth = 16;
constexpr std::size_t kPlanCalls = std::size_t{1} << 16;  // Power of two.
constexpr std::size_t kPlanBuffers = 64;
constexpr int kSetupRepeats = 51;
// Spans kept in memory per thread: one call (or async round) in
// `sample_every` is kept, up to kSpanCapacity spans (see SampleEvery).
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
// Isolated functions are timed in batches; the clock pair is far slower
// than one ValidateCached, so one sample is the mean of a batch.
constexpr int kIsoBatch = 64;
constexpr std::int64_t kDoorbellSlowNs = 10'000;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// The CPUs this process may run on (what `nproc` counts), read once: main
// calls this before any thread is pinned.
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

int HostCpus() {
  return std::max(1, static_cast<int>(AllowedCpus().size()));
}

// CPU placement. Every timed thread is pinned, and the placement rotates
// from one sub-window to the next:
//   - Unpinned, the scheduler sometimes stacks the proc client and its
//     spinning server on one CPU, and each doorbell round trip then waits
//     out a poll window (~130 us instead of ~0.4 us).
//   - On a shared virtual host what a call costs depends on where the
//     hypervisor has put each CPU at the moment, and that drifts over
//     minutes; a run that keeps one placement inherits its luck, a run that
//     rotates through every placement samples them all.
// Slots index the allowed CPUs (modulo their count). A forked child inherits
// the affinity of the thread that forks it.
constexpr int kClientSlot = 0;
constexpr int kServerSlot = 1;

void PinProcess(pid_t pid, int slot) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &set);
  sched_setaffinity(pid, sizeof(set), &set);
}

void PinThisThread(int slot) {
  thread_local int pinned = -1;
  if (pinned != slot) {
    pinned = slot;
    PinProcess(0, slot);
  }
}

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// --- Latency histograms -----------------------------------------------------

// 1 ns buckets to 8 us (every sync call's median lives here), then 0.5%
// geometric buckets to 10 s. One histogram is ~180 KB however many samples
// it holds, so sample storage never shows in peak_rss_mb.
const std::vector<std::uint64_t>& LatencyEdges() {
  static const std::vector<std::uint64_t> edges = [] {
    std::vector<std::uint64_t> e;
    for (std::uint64_t v = 1; v <= 8192; ++v) {
      e.push_back(v);
    }
    double v = 8192.0;
    while (v < 1e10) {
      v *= 1.005;
      const auto next = static_cast<std::uint64_t>(v);
      if (next > e.back()) {
        e.push_back(next);
      }
    }
    return e;
  }();
  return edges;
}

Histogram NewLatencyHistogram() { return Histogram(LatencyEdges()); }

void AddNs(Histogram& h, std::int64_t ns) {
  h.Add(static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)));
}

// --- Outcome: metrics plus every correctness problem found ------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void Fail(std::string why) { problems.push_back(std::move(why)); }
  void Expect(bool ok, const std::string& why) {
    if (!ok) {
      Fail(why);
    }
  }
  void Put(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- Seeded call plans -------------------------------------------------------

enum class Kind : std::uint8_t { kNull, kAddGeneral, kAddInline, kBigInOut };

struct CallSpec {
  Kind kind = Kind::kNull;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::uint16_t buffer = 0;  // Index into CallPlan::buffers (BigInOut).
};

struct Buffer {
  std::uint8_t bytes[kBig] = {};
};

struct CallPlan {
  std::vector<CallSpec> calls;  // kPlanCalls entries, replayed cyclically.
  std::vector<Buffer> buffers;
};

// The argument-size mix is the paper's Figure 1, collapsed to the class
// weights src/scale/arrival.h uses for the fleet harness: small (a few
// words) 0.55, medium (tens of bytes) 0.35, large (the maximum packet) 0.10.
// The par and proc worlds export no medium-sized procedure, so the medium
// weight is left out and the other two are renormalised: small 0.55/0.65,
// large 0.10/0.65. Small is Null and Add (4+4 B in, 4 B out, the fleet's
// 8-byte small class); large is BigInOut (200 B in, 200 B out), the largest
// procedure these worlds export. The sync mix splits the small class evenly
// over its three call paths, with nothing to prefer one over another. In
// latency order (Null, inline Add, general Add, BigInOut) the classes span
// 0-28%, 28-56%, 56-85% and 85-100%, so the median falls inside the inline
// Add class, at its 77th percentile.
constexpr double kFigure1Small = 0.55;
constexpr double kFigure1Large = 0.10;

// Relative weights of Null, Add (general), Add (inline) and BigInOut.
struct Mix {
  double null_w;
  double add_general_w;
  double add_inline_w;
  double biginout_w;
};
constexpr Mix kSyncMix{kFigure1Small / 3, kFigure1Small / 3,
                       kFigure1Small / 3, kFigure1Large};
// AsyncRing submits through the general stub path only.
constexpr Mix kAsyncMix{0.0, kFigure1Small, 0.0, kFigure1Large};
constexpr Mix kNullOnly{1.0, 0.0, 0.0, 0.0};

CallPlan MakePlan(std::uint64_t seed, std::uint64_t stream, const Mix& mix) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  CallPlan plan;
  plan.buffers.resize(kPlanBuffers);
  for (Buffer& buffer : plan.buffers) {
    for (std::uint8_t& byte : buffer.bytes) {
      byte = static_cast<std::uint8_t>(rng());
    }
  }
  const double total =
      mix.null_w + mix.add_general_w + mix.add_inline_w + mix.biginout_w;
  const double null_end = mix.null_w / total;
  const double general_end = null_end + mix.add_general_w / total;
  const double inline_end = general_end + mix.add_inline_w / total;
  plan.calls.resize(kPlanCalls);
  for (CallSpec& spec : plan.calls) {
    // 53 random bits: a uniform double in [0, 1).
    const double pick = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    if (pick < null_end) {
      spec.kind = Kind::kNull;
    } else if (pick < general_end) {
      spec.kind = Kind::kAddGeneral;
    } else if (pick < inline_end) {
      spec.kind = Kind::kAddInline;
    } else {
      spec.kind = Kind::kBigInOut;
    }
    spec.a = static_cast<std::int32_t>(rng());
    spec.b = static_cast<std::int32_t>(rng());
    spec.buffer = static_cast<std::uint16_t>(rng() % kPlanBuffers);
  }
  return plan;
}

std::int32_t ExpectedSum(const CallSpec& spec) {
  // The handlers add with unsigned wraparound.
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(spec.a) +
                                   static_cast<std::uint32_t>(spec.b));
}

bool IsReversed(const std::uint8_t* in, const std::uint8_t* out) {
  for (std::size_t i = 0; i < kBig; ++i) {
    if (out[i] != in[kBig - 1 - i]) {
      return false;
    }
  }
  return true;
}

// Slot offsets of the inline Add window (a, b in; sum out).
struct InlineLayout {
  std::size_t a = 0;
  std::size_t b = 0;
  std::size_t sum = 0;
  std::size_t span = 0;
};
constexpr std::size_t kInlineBlockBytes = 64;

bool InlineAddLayout(const lrpc::ClientBinding& binding, int add_proc,
                     InlineLayout* layout) {
  const lrpc::ProcedureDescriptor& pd = binding.interface_spec()->pd(add_proc);
  if (!pd.inline_eligible || pd.slot_span > kInlineBlockBytes) {
    return false;
  }
  layout->a = lrpc::ParamOffset(*pd.def, 0);
  layout->b = lrpc::ParamOffset(*pd.def, 1);
  layout->sum = lrpc::ParamOffset(*pd.def, 2);
  layout->span = pd.slot_span;
  return true;
}

// --- Spans ---------------------------------------------------------------------

// One timed interval around a call into a layer. Children name their root
// by index in the same log; a root's self time is its duration minus the
// time its children cover.
struct Span {
  const char* name = "";
  std::uint64_t call_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

// Per-thread span store: preallocated, so recording never allocates, and
// only calls (or async rounds) whose id is a multiple of `sample_every` are
// kept.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t sample_every) : sample_every_(sample_every) {
    spans_.reserve(kSpanCapacity);
  }
  // A copy would lose the reservation; a move keeps it.
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;
  SpanLog(SpanLog&&) = default;
  SpanLog& operator=(SpanLog&&) = default;

  // Whether unit `id` (a call or an async round) is traced: it is sampled
  // and the log has room for all of its at most `spans` spans, so each unit
  // is recorded whole or not at all. A sampled unit that no longer fits is
  // counted in dropped().
  bool Traces(std::uint64_t id, std::size_t spans) {
    if (id % sample_every_ != 0) {
      return false;
    }
    if (spans_.size() + spans > kSpanCapacity) {
      ++dropped_;
      return false;
    }
    return true;
  }

  // Opens a root span (its children are recorded until Close) of a unit
  // Traces accepted.
  int Open(const char* name, std::uint64_t call_id) {
    open_ = static_cast<int>(spans_.size());
    spans_.push_back({name, call_id, 0, 0, -1});
    return open_;
  }
  void Close(int root, std::int64_t start, std::int64_t end) {
    if (root >= 0) {
      spans_[static_cast<std::size_t>(root)].start_ns = start;
      spans_[static_cast<std::size_t>(root)].end_ns = end;
    }
    open_ = -1;
  }
  // A child of the open root; dropped when no sampled root is open.
  void Child(const char* name, std::int64_t start, std::int64_t end) {
    if (open_ < 0) {
      return;
    }
    const Span& root = spans_[static_cast<std::size_t>(open_)];
    spans_.push_back({name, root.call_id, start, end, open_});
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t sample_every() const { return sample_every_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint64_t sample_every_;
  std::vector<Span> spans_;
  int open_ = -1;
  std::uint64_t dropped_ = 0;
};

// The sampling interval that fits a traced window in the log: `units_per_s`
// is the untraced window's rate of calls (or async rounds) per thread, each
// unit records up to `spans_per_unit` spans, and only half the log is
// planned for, so a traced window that runs faster than the untraced one
// still fits and covers every placement.
std::uint64_t SampleEvery(double units_per_s, double seconds,
                          std::size_t spans_per_unit) {
  const double spans =
      units_per_s * seconds * static_cast<double>(spans_per_unit);
  const double every = std::ceil(spans / (static_cast<double>(kSpanCapacity) / 2));
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(every));
}

void ReportSpans(const std::vector<SpanLog>& logs) {
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
  for (const SpanLog& log : logs) {
    kept += log.spans().size();
    dropped += log.dropped();
  }
  std::printf("spans: 1 unit in %llu traced, %llu spans kept, %llu sampled "
              "units dropped (log full)\n",
              static_cast<unsigned long long>(logs.front().sample_every()),
              static_cast<unsigned long long>(kept),
              static_cast<unsigned long long>(dropped));
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (std::size_t w = 0; w < logs.size(); ++w) {
    for (const Span& s : logs[w]->spans()) {
      out << "{\"worker\": " << w << ", \"name\": \"" << s.name
          << "\", \"call\": " << s.call_id << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
          << "}\n";
    }
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Forwards every ProcTransport operation to the ProcHost and records the
// proc layer's spans (proc.execute, proc.batch) as children of the open
// root. Installed with the public LrpcRuntime::AttachProcTransport; the
// guard re-attaches the host before the world is torn down.
class TracingTransport final : public lrpc::ProcTransport {
 public:
  TracingTransport(lrpc::ProcTransport& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  bool Serves(lrpc::DomainId server) const override {
    return inner_.Serves(server);
  }
  std::size_t payload_capacity() const override {
    return inner_.payload_capacity();
  }
  Status SpawnServer(lrpc::DomainId server,
                     const lrpc::Interface* iface) override {
    return inner_.SpawnServer(server, iface);
  }
  Status Execute(lrpc::DomainId server, lrpc::DomainId client, int procedure,
                 bool inline_window, std::uint8_t* window,
                 std::size_t window_len, Status* handler_status,
                 KillPhase kill) override {
    const std::int64_t start = NowNs();
    Status status = inner_.Execute(server, client, procedure, inline_window,
                                   window, window_len, handler_status, kill);
    log_.Child("proc.execute", start, NowNs());
    return status;
  }
  Status ExecuteBatch(lrpc::DomainId server, lrpc::DomainId client,
                      std::span<BatchCall> calls, KillPhase kill) override {
    const std::int64_t start = NowNs();
    Status status = inner_.ExecuteBatch(server, client, calls, kill);
    log_.Child("proc.batch", start, NowNs());
    return status;
  }
  void OnDomainTerminated(lrpc::DomainId domain) override {
    inner_.OnDomainTerminated(domain);
  }

 private:
  lrpc::ProcTransport& inner_;
  SpanLog& log_;
};

class TransportGuard {
 public:
  TransportGuard(lrpc::LrpcRuntime& runtime, lrpc::ProcTransport& tracer)
      : runtime_(runtime), original_(runtime.proc_transport()) {
    runtime_.AttachProcTransport(&tracer);
  }
  ~TransportGuard() { runtime_.AttachProcTransport(original_); }
  TransportGuard(const TransportGuard&) = delete;
  TransportGuard& operator=(const TransportGuard&) = delete;

 private:
  lrpc::LrpcRuntime& runtime_;
  lrpc::ProcTransport* original_;
};

// --- Sync calls on either backend ---------------------------------------------

struct Scratch {
  std::int32_t sum = 0;
  std::uint8_t out[kBig] = {};
  unsigned char block[kInlineBlockBytes] = {};
};

struct Timed {
  Status status;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Issues one planned call on worker `w`, timing only the runtime call
// itself; argument packing and the result check stay outside the pair.
template <typename Backend>
Timed Issue(Backend& backend, int w, const CallSpec& spec,
            const CallPlan& plan, Scratch& s, CallStats& cs) {
  Timed t;
  switch (spec.kind) {
    case Kind::kNull:
      t.start_ns = NowNs();
      t.status = backend.Null(w, cs);
      break;
    case Kind::kAddGeneral:
      s.sum = 0;
      t.start_ns = NowNs();
      t.status = backend.Add(w, spec.a, spec.b, &s.sum, cs);
      break;
    case Kind::kAddInline: {
      const InlineLayout& l = backend.layout();
      std::memset(s.block, 0, l.span);
      std::memcpy(s.block + l.a, &spec.a, sizeof(spec.a));
      std::memcpy(s.block + l.b, &spec.b, sizeof(spec.b));
      t.start_ns = NowNs();
      t.status = backend.AddInline(w, s.block, cs);
      break;
    }
    case Kind::kBigInOut: {
      std::memset(s.out, 0, kBig);
      t.start_ns = NowNs();
      t.status = backend.BigInOut(w, plan.buffers[spec.buffer].bytes, s.out,
                                  cs);
      break;
    }
  }
  t.end_ns = NowNs();
  return t;
}

template <typename Backend>
bool ResultCorrect(const Backend& backend, const CallSpec& spec,
                   const CallPlan& plan, const Scratch& s) {
  switch (spec.kind) {
    case Kind::kNull:
      return true;
    case Kind::kAddGeneral:
      return s.sum == ExpectedSum(spec);
    case Kind::kAddInline: {
      std::int32_t sum = 0;
      std::memcpy(&sum, s.block + backend.layout().sum, sizeof(sum));
      return sum == ExpectedSum(spec);
    }
    case Kind::kBigInOut:
      return IsReversed(plan.buffers[spec.buffer].bytes, s.out);
  }
  return false;
}

// The par backend: ParallelMachine::Call via ParWorld's stubs, and the
// inline path through LrpcRuntime::CallInlineParallel.
class ParBackend {
 public:
  explicit ParBackend(ParWorld& world) : world_(world) {
    inline_ok_ = InlineAddLayout(world.worker_binding(0), world.add_proc(),
                                 &layout_);
  }
  bool inline_ok() const { return inline_ok_; }
  const InlineLayout& layout() const { return layout_; }

  Status Null(int w, CallStats& cs) { return world_.CallNull(w, &cs); }
  Status Add(int w, std::int32_t a, std::int32_t b, std::int32_t* sum,
             CallStats& cs) {
    return world_.CallAdd(w, a, b, sum, &cs);
  }
  Status AddInline(int w, unsigned char* block, CallStats& cs) {
    return world_.runtime().CallInlineParallel(
        world_.machine().processor(w), world_.worker_thread(w),
        world_.worker_binding(w), world_.add_proc(), block, block, cs);
  }
  Status BigInOut(int w, const std::uint8_t (&in)[kBig],
                  std::uint8_t (&out)[kBig], CallStats& cs) {
    return world_.CallBigInOut(w, in, out, &cs);
  }

 private:
  ParWorld& world_;
  InlineLayout layout_;
  bool inline_ok_ = false;
};

// The proc backend: LrpcRuntime::Call / CallInline on processor 0, whose
// server leg crosses to the forked domain through the attached transport.
class ProcBackend {
 public:
  explicit ProcBackend(ProcWorld& world) : world_(world) {
    inline_ok_ = InlineAddLayout(world.binding(), world.add_proc(), &layout_);
  }
  bool inline_ok() const { return inline_ok_; }
  const InlineLayout& layout() const { return layout_; }

  Status Null(int, CallStats& cs) { return world_.CallNull(0, &cs); }
  Status Add(int, std::int32_t a, std::int32_t b, std::int32_t* sum,
             CallStats& cs) {
    return world_.CallAdd(a, b, sum, 0, &cs);
  }
  Status AddInline(int, unsigned char* block, CallStats& cs) {
    return world_.runtime().CallInline(world_.cpu(), world_.client_thread(),
                                       world_.binding(), world_.add_proc(),
                                       block, block, &cs);
  }
  Status BigInOut(int, const std::uint8_t (&in)[kBig],
                  std::uint8_t (&out)[kBig], CallStats& cs) {
    return world_.CallBigInOut(in, out, 0, &cs);
  }

 private:
  ProcWorld& world_;
  InlineLayout layout_;
  bool inline_ok_ = false;
};

// Per-worker tallies of one measurement window; line-aligned so workers
// never share a line.
struct alignas(64) WorkerTally {
  Histogram latency = NewLatencyHistogram();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // Non-ok status or a wrong result.
  std::uint64_t ok = 0;
  std::uint64_t bytes_copied = 0;
  std::size_t cursor = 0;
  std::uint64_t next_call_id = 0;
  Scratch scratch;
  CallStats stats;
  SpanLog* spans = nullptr;  // Non-null in the traced window.
};

// One sync call on worker `w`: issue, time, check, tally.
template <typename Backend>
Status OneSyncCall(Backend& backend, int w, const CallPlan& plan,
                   WorkerTally& tally) {
  const CallSpec& spec = plan.calls[tally.cursor++ & (kPlanCalls - 1)];
  const std::uint64_t id = tally.next_call_id++;
  // A sync call records its root and at most one proc.execute child.
  const int root = tally.spans != nullptr && tally.spans->Traces(id, 2)
                       ? tally.spans->Open("lrpc.call", id)
                       : -1;
  const Timed t = Issue(backend, w, spec, plan, tally.scratch, tally.stats);
  if (tally.spans != nullptr) {
    tally.spans->Close(root, t.start_ns, t.end_ns);
  }
  ++tally.attempted;
  AddNs(tally.latency, t.end_ns - t.start_ns);
  tally.bytes_copied += tally.stats.copies.bytes_copied;
  if (!t.status.ok() ||
      !ResultCorrect(backend, spec, plan, tally.scratch)) {
    ++tally.failed;
    return t.status.ok() ? Status(ErrorCode::kInvalidArgument, "wrong result")
                         : t.status;
  }
  ++tally.ok;
  return Status::Ok();
}

// One measured window, merged over its workers: the latency histogram plus
// the counters the per-layer metrics divide by the call count.
struct Window {
  double seconds = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // Non-ok status or a wrong result.
  std::uint64_t ok = 0;
  std::uint64_t bytes_copied = 0;
  double sim_charged_ns = 0.0;  // Simulated time added to the callers' clocks.
  std::uint64_t cas_retries = 0;
  std::uint64_t transfers = 0;
  Histogram latency = NewLatencyHistogram();
  std::vector<std::uint64_t> calls_per_worker;

  void AddTally(const WorkerTally& t) {
    attempted += t.attempted;
    failed += t.failed;
    ok += t.ok;
    bytes_copied += t.bytes_copied;
    calls_per_worker.push_back(t.attempted);
    (void)latency.Merge(t.latency);  // Same edges by construction.
  }

  void Pool(const Window& other) {
    seconds += other.seconds;
    attempted += other.attempted;
    failed += other.failed;
    ok += other.ok;
    bytes_copied += other.bytes_copied;
    sim_charged_ns += other.sim_charged_ns;
    cas_retries += other.cas_retries;
    transfers += other.transfers;
    calls_per_worker.resize(
        std::max(calls_per_worker.size(), other.calls_per_worker.size()));
    for (std::size_t i = 0; i < other.calls_per_worker.size(); ++i) {
      calls_per_worker[i] += other.calls_per_worker[i];
    }
    (void)latency.Merge(other.latency);
  }

  double PerCall(double total) const {
    return total / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
  }
};

// Measurement windows are split into sub-windows of a quarter second, and
// the CPU placement rotates from one sub-window to the next (see
// PinThisThread), so every run spends equal time on every placement. The
// end-to-end metrics are read from all sub-windows pooled; the spread of
// the per-sub-window figures is printed as a diagnostic only.
constexpr double kSubWindowSeconds = 0.25;

// What is kept of a sub-window once its histogram is read.
struct WindowStats {
  std::uint64_t ok = 0;
  double seconds = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

// Quantile q of a latency histogram, interpolated linearly inside the
// bucket that holds it (Histogram::Percentile returns the bucket's edge,
// which above 8 us moves in 0.5% steps).
double HistQuantile(const Histogram& h, double q) {
  const std::uint64_t n = h.total_count();
  if (n == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(n);
  double below = 0.0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const auto count = static_cast<double>(h.bucket_value(i));
    if (count > 0.0 && below + count >= target) {
      const double lo =
          i == 0 ? 0.0 : static_cast<double>(h.bucket_upper_edge(i - 1));
      const double hi = static_cast<double>(h.bucket_upper_edge(i));
      return lo + (hi - lo) * std::clamp((target - below) / count, 0.0, 1.0);
    }
    below += count;
  }
  return static_cast<double>(h.max());
}

struct Measured {
  std::vector<WindowStats> windows;
  Window pooled;  // Every sub-window merged (counts, histogram, counters).
};

// Runs `seconds` as sub-windows; run(seconds, k) measures sub-window k.
template <typename RunFn>
Measured RunSubWindows(double seconds, RunFn run) {
  const int count = std::clamp(
      static_cast<int>(std::lround(seconds / kSubWindowSeconds)), 1, 240);
  Measured m;
  for (int k = 0; k < count; ++k) {
    const Window w = run(seconds / count, k);
    m.windows.push_back({w.ok, w.seconds, HistQuantile(w.latency, 0.50),
                         HistQuantile(w.latency, 0.99)});
    m.pooled.Pool(w);
  }
  return m;
}

struct Summary {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double calls_per_s = 0.0;
};

// The end-to-end figures of a window: p50 and p99 of every sample, and
// checked-correct calls over the wall seconds of the timed window.
Summary Summarize(const Measured& m, const char* label) {
  Summary sum;
  sum.p50_ns = HistQuantile(m.pooled.latency, 0.50);
  sum.p99_ns = HistQuantile(m.pooled.latency, 0.99);
  sum.calls_per_s = m.pooled.seconds > 0.0
                        ? static_cast<double>(m.pooled.ok) / m.pooled.seconds
                        : 0.0;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  for (const WindowStats& w : m.windows) {
    p50.push_back(w.p50_ns);
    p99.push_back(w.p99_ns);
    rate.push_back(w.seconds > 0.0 ? static_cast<double>(w.ok) / w.seconds
                                   : 0.0);
  }
  std::printf("%s: %llu samples, p50 %.1f ns, p99 %.1f ns, %.0f calls/s; "
              "over %zu sub-windows min/median/max: p50 %.0f/%.0f/%.0f, "
              "p99 %.0f/%.0f/%.0f, calls/s %.0f/%.0f/%.0f\n",
              label, static_cast<unsigned long long>(m.pooled.attempted),
              sum.p50_ns, sum.p99_ns, sum.calls_per_s, m.windows.size(),
              Quantile(p50, 0.0), Median(p50), Quantile(p50, 1.0),
              Quantile(p99, 0.0), Median(p99), Quantile(p99, 1.0),
              Quantile(rate, 0.0), Median(rate), Quantile(rate, 1.0));
  return sum;
}

// --- Worlds and set-up ------------------------------------------------------------

lrpc::ParWorldOptions ParOptions(int workers) {
  lrpc::ParWorldOptions options;
  options.workers = workers;
  options.domains = 1;  // One binding, shared by every worker.
  options.parked = 0;
  options.lock_free = true;
  options.astacks_per_group = std::max(8, 2 * workers);
  return options;
}

// Builds kSetupRepeats worlds, each timed from construction to its first
// successful call, and keeps the last one; setup_s is the median. The
// building thread is pinned (outside the timing) to the slot place(r) names.
template <typename WorldT, typename PlaceFn, typename BuildFn,
          typename FirstCallFn>
std::unique_ptr<WorldT> TimedSetups(Outcome& out, double* median_s,
                                    PlaceFn place, BuildFn build,
                                    FirstCallFn first_call) {
  std::vector<double> seconds;
  std::unique_ptr<WorldT> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();  // Tear the previous world down outside the timing.
    PinThisThread(place(r));
    const std::int64_t start = NowNs();
    world = build();
    const Status first = first_call(*world);
    const std::int64_t end = NowNs();
    if (!first.ok()) {
      out.Fail("set-up: first call failed: " +
               std::string(lrpc::ErrorCodeName(first.code())));
      break;
    }
    seconds.push_back(static_cast<double>(end - start) * 1e-9);
  }
  *median_s = Median(seconds);
  return world;
}

// --- The par workloads ---------------------------------------------------------------

// One window of closed-loop calls on every worker via
// ParallelMachine::RunWorkers, worker w pinned to slot w + k; `spans` (one
// log per worker) traces it.
Window RunParWindow(ParWorld& world, ParBackend& backend,
                    const std::vector<CallPlan>& plans, double seconds, int k,
                    std::vector<SpanLog>* spans) {
  const int workers = world.options().workers;
  std::vector<WorkerTally> tallies(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    tallies[static_cast<std::size_t>(w)].spans =
        spans != nullptr ? &(*spans)[static_cast<std::size_t>(w)] : nullptr;
  }
  lrpc::SimTime clocks_before = 0;
  for (int w = 0; w < workers; ++w) {
    clocks_before += world.machine().processor(w).clock();
  }
  const std::uint64_t cas_before = world.par()->total_cas_retries();
  const auto report = world.par()->RunWorkers(
      std::chrono::milliseconds(static_cast<std::int64_t>(seconds * 1000)),
      [&](int w) {
        PinThisThread(w + k);
        return OneSyncCall(backend, w, plans[static_cast<std::size_t>(w)],
                           tallies[static_cast<std::size_t>(w)]);
      });
  Window win;
  win.seconds = report.seconds;
  for (const WorkerTally& t : tallies) {
    win.AddTally(t);
  }
  lrpc::SimTime clocks_after = 0;
  for (int w = 0; w < workers; ++w) {
    clocks_after += world.machine().processor(w).clock();
  }
  win.sim_charged_ns = static_cast<double>(clocks_after - clocks_before);
  win.cas_retries = world.par()->total_cas_retries() - cas_before;
  return win;
}

// --- The proc workloads ---------------------------------------------------------------

// Pins the client thread and the server process to the k-th ordered pair
// of distinct slots.
void PlaceProc(ProcWorld& world, int k) {
  const int n = HostCpus();
  int client = 0;
  int server = 0;
  if (n > 1) {
    const int pair = k % (n * (n - 1));
    client = pair / (n - 1);
    server = pair % (n - 1);
    server += server >= client ? 1 : 0;
  }
  PinThisThread(client);
  PinProcess(world.host().peer_pid(world.server_domain(0)), server);
}

Window RunProcSyncWindow(ProcWorld& world, ProcBackend& backend,
                         const CallPlan& plan, double seconds,
                         SpanLog* spans, std::size_t* cursor) {
  std::vector<WorkerTally> tallies(1);
  WorkerTally& tally = tallies[0];
  tally.spans = spans;
  tally.cursor = *cursor;
  const lrpc::SimTime clock_before = world.cpu().clock();
  const std::uint64_t transfers_before = world.host().transfers();
  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t now = start;
  while (now < deadline) {
    OneSyncCall(backend, 0, plan, tally);
    now = NowNs();
  }
  *cursor = tally.cursor;
  Window win;
  win.seconds = static_cast<double>(now - start) * 1e-9;
  win.AddTally(tally);
  win.sim_charged_ns =
      static_cast<double>(world.cpu().clock() - clock_before);
  win.transfers = world.host().transfers() - transfers_before;
  return win;
}

// One async round: kAsyncDepth seeded Submits, one Flush, one Reap. Each
// call's latency runs from its Submit to the end of the Reap that delivered
// its completion. A traced round records a span per Submit, the Flush with
// its proc.batch child, and the Reap.
constexpr std::size_t kAsyncRoundSpans = kAsyncDepth + 3;
struct AsyncState {
  lrpc::AsyncRing* ring = nullptr;
  std::size_t cursor = 0;
  std::uint64_t round = 0;
  std::int32_t sums[kAsyncDepth] = {};
  std::uint8_t outs[kAsyncDepth][kBig] = {};
  Status statuses[kAsyncDepth];
  bool completed[kAsyncDepth] = {};
  std::uint64_t bytes_copied = 0;
};

Window RunProcAsyncWindow(ProcWorld& world, const CallPlan& plan,
                          AsyncState& st, double seconds, SpanLog* spans) {
  lrpc::Processor& cpu = world.cpu();
  WorkerTally tally;
  const lrpc::SimTime clock_before = cpu.clock();
  const std::uint64_t transfers_before = world.host().transfers();
  const std::uint64_t bytes_before = st.bytes_copied;
  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t now = start;
  std::int64_t submitted_at[kAsyncDepth];
  const CallSpec* specs[kAsyncDepth];
  while (now < deadline) {
    const std::uint64_t round = st.round++;
    const bool traced =
        spans != nullptr && spans->Traces(round, kAsyncRoundSpans);
    int submitted = 0;
    for (int i = 0; i < kAsyncDepth; ++i) {
      const CallSpec& spec = plan.calls[st.cursor++ & (kPlanCalls - 1)];
      specs[i] = &spec;
      st.completed[i] = false;
      st.statuses[i] = Status(ErrorCode::kUnimplemented, "not completed");
      const bool add = spec.kind != Kind::kBigInOut;
      const CallArg add_args[] = {CallArg::Of(spec.a), CallArg::Of(spec.b)};
      const CallRet add_rets[] = {CallRet::Of(&st.sums[i])};
      const CallArg big_args[] = {
          CallArg(plan.buffers[spec.buffer].bytes, kBig)};
      const CallRet big_rets[] = {CallRet(st.outs[i], kBig)};
      st.sums[i] = 0;
      if (!add) {
        std::memset(st.outs[i], 0, kBig);
      }
      const int procedure = add ? world.add_proc() : world.biginout_proc();
      const std::span<const CallArg> args =
          add ? std::span<const CallArg>(add_args)
              : std::span<const CallArg>(big_args);
      const std::span<const CallRet> rets =
          add ? std::span<const CallRet>(add_rets)
              : std::span<const CallRet>(big_rets);
      const int root = traced ? spans->Open("lrpc.submit",
                                            round * kAsyncDepth + i)
                              : -1;
      submitted_at[i] = NowNs();
      lrpc::Result<lrpc::CallToken> token = st.ring->Submit(
          cpu, procedure, args, rets,
          [&st, i](const lrpc::AsyncCompletion& done) {
            st.statuses[i] = done.status;
            st.completed[i] = true;
            st.bytes_copied += done.stats.copies.bytes_copied;
          });
      if (traced) {
        spans->Close(root, submitted_at[i], NowNs());
      }
      if (!token.ok()) {
        st.statuses[i] = token.status();
        continue;
      }
      ++submitted;
    }
    const int flush_root =
        traced ? spans->Open("lrpc.flush", round * kAsyncDepth) : -1;
    const std::int64_t flush_start = traced ? NowNs() : 0;
    st.ring->Flush(cpu);
    const std::int64_t flush_end = traced ? NowNs() : 0;
    if (traced) {
      spans->Close(flush_root, flush_start, flush_end);
    }
    const int reap_root =
        traced ? spans->Open("lrpc.reap", round * kAsyncDepth) : -1;
    const int reaped = st.ring->Reap();
    now = NowNs();
    if (traced) {
      spans->Close(reap_root, flush_end, now);
    }
    if (reaped != submitted) {
      // Flush publishes every completion it executes; a shortfall fails
      // the whole round, and the ring is drained so no late completion can
      // land in the next round's slots.
      st.ring->Drain(cpu);
      std::fill(std::begin(st.completed), std::end(st.completed), false);
    }
    for (int i = 0; i < kAsyncDepth; ++i) {
      const CallSpec& spec = *specs[i];
      ++tally.attempted;
      AddNs(tally.latency, now - submitted_at[i]);
      const bool right =
          spec.kind == Kind::kBigInOut
              ? IsReversed(plan.buffers[spec.buffer].bytes, st.outs[i])
              : st.sums[i] == ExpectedSum(spec);
      if (st.completed[i] && st.statuses[i].ok() && right) {
        ++tally.ok;
      } else {
        ++tally.failed;
      }
    }
  }
  tally.bytes_copied = st.bytes_copied - bytes_before;
  Window win;
  win.seconds = static_cast<double>(now - start) * 1e-9;
  win.AddTally(tally);
  win.sim_charged_ns = static_cast<double>(cpu.clock() - clock_before);
  win.transfers = world.host().transfers() - transfers_before;
  return win;
}

// --- Isolated single-function timings (second world) -----------------------------

// Runs op(thread) in batches of kIsoBatch on `threads` threads at once for
// `seconds`; returns the median of the per-op batch means, in ns.
template <typename Op>
double IsolatedNs(int threads, double seconds, Op op) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> samples(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PinThisThread(t);
      std::vector<double>& mine = samples[static_cast<std::size_t>(t)];
      mine.reserve(1 << 16);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed) &&
             mine.size() < mine.capacity()) {
        const std::int64_t start = NowNs();
        for (int i = 0; i < kIsoBatch; ++i) {
          op(t);
        }
        mine.push_back(static_cast<double>(NowNs() - start) / kIsoBatch);
      }
    });
  }
  while (ready.load() < threads) {
  }
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : pool) {
    th.join();
  }
  std::vector<double> all;
  for (const auto& v : samples) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return Median(std::move(all));
}

void MeasureIsolated(double seconds, Outcome& out) {
  const int nproc = HostCpus();
  const double each = seconds / 5.0;
  {
    // Single-caller world, shaped like par_call's.
    ParWorld world(ParOptions(1));
    const lrpc::ShardedBindingTable& table = *world.runtime().sharded_bindings();
    const lrpc::BindingObject object = world.worker_binding(0).object();
    const lrpc::DomainId caller = world.client_domain(0);
    std::atomic<std::uint64_t> bad{0};
    out.Put("kern.validate_ns", IsolatedNs(1, each, [&](int) {
              const auto record = table.ValidateCached(object, caller);
              if (!record.ok()) {
                bad.fetch_add(1, std::memory_order_relaxed);
              }
              DoNotOptimize(record);
            }), "ns");
    out.Expect(bad.load() == 0, "isolated ValidateCached rejected the binding");

    lrpc::Processor& cpu = world.machine().processor(0);
    const std::uint64_t base =
        world.kernel().domain(world.client_domain(0)).page_base();
    // Five pages: the client-stub touch every call makes.
    out.Put("kern.touch_pages_ns", IsolatedNs(1, each, [&](int) {
              world.kernel().TouchPages(cpu, base, 5);
            }), "ns");
    out.Put("sim.charge_ns", IsolatedNs(1, each, [&](int) {
              cpu.Charge(lrpc::CostCategory::kClientStub, 1);
            }), "ns");
  }
  {
    // nproc-caller world, shaped like par_fanin's.
    ParWorld world(ParOptions(nproc));
    lrpc::Kernel& kernel = world.kernel();
    out.Put("kern.linkage_seq_ns", IsolatedNs(nproc, each, [&](int) {
              DoNotOptimize(kernel.NextLinkageSeq());
            }), "ns");
    lrpc::ParFreeList& list = *world.par()->free_lists().front();
    std::atomic<std::uint64_t> bad{0};
    out.Put("shm.freelist_pair_ns", IsolatedNs(nproc, each, [&](int t) {
              lrpc::Processor& cpu = world.machine().processor(t);
              lrpc::Result<lrpc::AStackRef> ref = list.Pop(cpu);
              if (ref.ok()) {
                list.Push(cpu, *ref);
              } else {
                bad.fetch_add(1, std::memory_order_relaxed);
              }
            }), "ns");
    out.Expect(bad.load() == 0, "isolated ParFreeList pop found it empty");
    out.Expect(world.par()->AuditConservation().ok(),
               "isolated ParFreeList lost or duplicated an A-stack");
  }
}

// --- In-run references ------------------------------------------------------------

// Mean cost of the timestamp pair wrapped around every timed call: the
// reading of an empty timed region.
double ClockPairNs(double seconds) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t total = 0;
  std::int64_t pairs = 0;
  while (true) {
    const std::int64_t t0 = NowNs();
    const std::int64_t t1 = NowNs();
    total += t1 - t0;
    ++pairs;
    if (t1 >= deadline) {
      break;
    }
  }
  return static_cast<double>(total) / static_cast<double>(pairs);
}

// A bare FutexDoorbell ping-pong with a forked child over a ProcChannel in a
// ProcSegment: the transfer under every proc call, with no LRPC on top.
[[noreturn]] void ServeDoorbellAdd(lrpc::ProcChannel* ch) {
  std::uint32_t handled = 0;
  for (;;) {
    std::uint32_t seen = ch->call_seq.load(std::memory_order_acquire);
    while (seen == handled) {
      if (ch->shutdown.load(std::memory_order_acquire) != 0) {
        _exit(0);
      }
      seen = lrpc::FutexDoorbell::WaitWhile(&ch->call_seq, &ch->call_sleepers,
                                            handled, 50);
    }
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::memcpy(&a, ch->payload, sizeof(a));
    std::memcpy(&b, ch->payload + 4, sizeof(b));
    const auto sum = static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                               static_cast<std::uint32_t>(b));
    std::memcpy(ch->payload + 8, &sum, sizeof(sum));
    handled = seen;
    ch->return_seq.fetch_add(1, std::memory_order_release);
    lrpc::FutexDoorbell::Wake(&ch->return_seq, &ch->return_sleepers);
  }
}

void MeasureDoorbell(double seconds, const CallPlan& plan, Outcome& out) {
  lrpc::ProcSegment segment;
  if (!segment.Map(sizeof(lrpc::ProcChannel)).ok()) {
    out.Fail("doorbell reference: cannot map the channel segment");
    return;
  }
  auto* ch = new (segment.data()) lrpc::ProcChannel();
  std::fflush(stdout);
  PinThisThread(kServerSlot);  // Inherited by the child.
  const pid_t child = fork();
  if (child < 0) {
    out.Fail("doorbell reference: fork failed");
    return;
  }
  if (child == 0) {
    ServeDoorbellAdd(ch);
  }
  PinThisThread(kClientSlot);
  Histogram rtt = NewLatencyHistogram();
  std::uint64_t wrong = 0;
  std::uint64_t slow = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t cursor = 0;
  std::int64_t now = NowNs();
  while (now < deadline) {
    const CallSpec& spec = plan.calls[cursor++ & (kPlanCalls - 1)];
    std::memcpy(ch->payload, &spec.a, sizeof(spec.a));
    std::memcpy(ch->payload + 4, &spec.b, sizeof(spec.b));
    const std::int64_t start = NowNs();
    const std::uint32_t before = ch->return_seq.load(std::memory_order_acquire);
    ch->call_seq.fetch_add(1, std::memory_order_release);
    lrpc::FutexDoorbell::Wake(&ch->call_seq, &ch->call_sleepers);
    std::uint32_t seen = before;
    while (seen == before) {
      seen = lrpc::FutexDoorbell::WaitWhile(&ch->return_seq,
                                            &ch->return_sleepers, before, 50);
    }
    now = NowNs();
    AddNs(rtt, now - start);
    if (now - start > kDoorbellSlowNs) {
      ++slow;
    }
    std::int32_t sum = 0;
    std::memcpy(&sum, ch->payload + 8, sizeof(sum));
    if (sum != ExpectedSum(spec)) {
      ++wrong;
    }
  }
  ch->shutdown.store(1, std::memory_order_release);
  lrpc::FutexDoorbell::Wake(&ch->call_seq, &ch->call_sleepers);
  waitpid(child, nullptr, 0);
  out.Expect(wrong == 0, "doorbell reference returned a wrong sum");
  out.Put("proc.doorbell_rtt_ns", static_cast<double>(rtt.Percentile(0.5)),
          "ns");
  out.Put("proc.doorbell_slow_frac",
          static_cast<double>(slow) /
              static_cast<double>(std::max<std::uint64_t>(rtt.total_count(), 1)),
          "ratio");
}

// --- Trace analysis -----------------------------------------------------------------

struct SyncTrace {
  std::vector<double> call_ns;
  std::vector<double> execute_ns;
  std::vector<double> self_ns;
  double call_total_ns = 0.0;
  double execute_total_ns = 0.0;
};

SyncTrace AnalyzeSync(const std::vector<SpanLog>& logs) {
  SyncTrace trace;
  for (const SpanLog& log : logs) {
    const std::vector<Span>& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        continue;
      }
      const double total =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      double children = 0.0;
      for (std::size_t j = i + 1;
           j < spans.size() && spans[j].parent == static_cast<int>(i); ++j) {
        const double d = static_cast<double>(spans[j].end_ns - spans[j].start_ns);
        children += d;
        trace.execute_ns.push_back(d);
      }
      trace.call_total_ns += total;
      trace.execute_total_ns += children;
      trace.call_ns.push_back(total);
      trace.self_ns.push_back(total - children);
    }
  }
  return trace;
}

struct AsyncTrace {
  std::vector<double> submit_ns;
  double calls = 0.0;
  double flush_ns = 0.0;
  double batch_ns = 0.0;
  double reap_ns = 0.0;
  double round_ns = 0.0;  // First Submit start to Reap end, summed.
};

AsyncTrace AnalyzeAsync(const SpanLog& log) {
  AsyncTrace trace;
  const std::vector<Span>& spans = log.spans();
  std::int64_t round_start = -1;
  for (const Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    const std::string_view name = s.name;
    if (name == "lrpc.submit") {
      if (round_start < 0) {
        round_start = s.start_ns;
      }
      trace.submit_ns.push_back(d);
      trace.calls += 1.0;
    } else if (name == "lrpc.flush") {
      trace.flush_ns += d;
    } else if (name == "proc.batch") {
      trace.batch_ns += d;
    } else if (name == "lrpc.reap") {
      trace.reap_ns += d;
      if (round_start >= 0) {
        trace.round_ns += static_cast<double>(s.end_ns - round_start);
      }
      round_start = -1;
    }
  }
  return trace;
}

// --- Reporting --------------------------------------------------------------------

void PutEndToEnd(const Measured& measured, const Summary& sum, double setup_s,
                 Outcome& out) {
  out.attempted = measured.pooled.attempted;
  out.failed = measured.pooled.failed;
  out.Put("call_p50_ns", sum.p50_ns, "ns");
  out.Put("call_p99_ns", sum.p99_ns, "ns");
  out.Put("calls_per_s", sum.calls_per_s, "1/s");
  out.Put("setup_s", setup_s, "s");
  out.Put("peak_rss_mb", PeakRssMb(), "MB");
}

// The per-layer metrics every workload reports; a layer the workload never
// calls reads 0 (README.md lists which apply where).
struct LayerMetrics {
  double lrpc_self_ns = 0.0;
  double lrpc_submit_ns = 0.0;
  double lrpc_flush_self_ns_per_call = 0.0;
  double lrpc_reap_ns_per_call = 0.0;
  double lrpc_bytes_copied_per_call = 0.0;
  double sim_charged_ns_per_call = 0.0;
  double shm_cas_retries_per_call = 0.0;
  double par_worker_imbalance = 0.0;
  double proc_execute_p50_ns = 0.0;
  double proc_execute_p99_ns = 0.0;
  double proc_execute_mean_ns = 0.0;
  double proc_share = 0.0;
  double proc_batch_ns_per_call = 0.0;
  double proc_transfers_per_call = 0.0;
  double trace_call_p50_ns = 0.0;
  double trace_call_mean_ns = 0.0;  // Traced per-call time the parts sum to.
  double trace_parts_ns = 0.0;      // Sum of the per-layer parts.
  double trace_overhead_frac = 0.0;
};

// Counter-based metrics, from the traced window's pooled counters.
LayerMetrics CounterLayers(const Window& w) {
  LayerMetrics m;
  m.lrpc_bytes_copied_per_call =
      w.PerCall(static_cast<double>(w.bytes_copied));
  m.sim_charged_ns_per_call = w.PerCall(w.sim_charged_ns);
  m.shm_cas_retries_per_call = w.PerCall(static_cast<double>(w.cas_retries));
  m.proc_transfers_per_call = w.PerCall(static_cast<double>(w.transfers));
  return m;
}

// Span-based metrics of a sync workload: the lrpc.call roots and their
// proc.execute children.
void SyncSpanLayers(const std::vector<SpanLog>& logs, LayerMetrics& m) {
  const SyncTrace trace = AnalyzeSync(logs);
  m.lrpc_self_ns = Mean(trace.self_ns);
  m.trace_call_mean_ns = Mean(trace.call_ns);
  const double roots =
      std::max(1.0, static_cast<double>(trace.call_ns.size()));
  // Per call: lrpc self time plus the proc.execute time it contained. The
  // self time is defined as the call minus its children, so on a sync
  // workload these parts sum to the mean call exactly and the gap is 0 by
  // construction; only the async parts are timed independently.
  m.trace_parts_ns = m.lrpc_self_ns + trace.execute_total_ns / roots;
  if (!trace.execute_ns.empty()) {
    m.proc_execute_p50_ns = Quantile(trace.execute_ns, 0.50);
    m.proc_execute_p99_ns = Quantile(trace.execute_ns, 0.99);
    m.proc_execute_mean_ns = Mean(trace.execute_ns);
    m.proc_share = trace.call_total_ns > 0.0
                       ? trace.execute_total_ns / trace.call_total_ns
                       : 0.0;
  }
}

void PutLayers(const LayerMetrics& m, Outcome& out) {
  out.Put("lrpc.self_ns", m.lrpc_self_ns, "ns");
  out.Put("lrpc.submit_ns", m.lrpc_submit_ns, "ns");
  out.Put("lrpc.flush_self_ns_per_call", m.lrpc_flush_self_ns_per_call, "ns");
  out.Put("lrpc.reap_ns_per_call", m.lrpc_reap_ns_per_call, "ns");
  out.Put("lrpc.bytes_copied_per_call", m.lrpc_bytes_copied_per_call,
          "count");
  out.Put("sim.charged_ns_per_call", m.sim_charged_ns_per_call, "sim_ns");
  out.Put("shm.cas_retries_per_call", m.shm_cas_retries_per_call, "count");
  out.Put("par.worker_imbalance", m.par_worker_imbalance, "ratio");
  out.Put("proc.execute_p50_ns", m.proc_execute_p50_ns, "ns");
  out.Put("proc.execute_p99_ns", m.proc_execute_p99_ns, "ns");
  out.Put("proc.execute_mean_ns", m.proc_execute_mean_ns, "ns");
  out.Put("proc.share", m.proc_share, "ratio");
  out.Put("proc.batch_ns_per_call", m.proc_batch_ns_per_call, "ns");
  out.Put("proc.transfers_per_call", m.proc_transfers_per_call, "count");
  out.Put("trace.call_p50_ns", m.trace_call_p50_ns, "ns");
  out.Put("trace.call_mean_ns", m.trace_call_mean_ns, "ns");
  out.Put("trace.parts_gap_frac",
          m.trace_call_mean_ns > 0.0
              ? 1.0 - m.trace_parts_ns / m.trace_call_mean_ns
              : 0.0,
          "ratio");
  out.Put("trace.overhead_frac", m.trace_overhead_frac, "ratio");
}

// Completes and reports the traced run: its p50 (read like call_p50_ns)
// against the untraced window's gives the tracing overhead.
void PutTraced(const Measured& traced, const Summary& untraced,
               LayerMetrics& m, Outcome& out) {
  out.attempted = traced.pooled.attempted;
  out.failed = traced.pooled.failed;
  m.trace_call_p50_ns = Summarize(traced, "traced").p50_ns;
  m.trace_overhead_frac = untraced.p50_ns > 0.0
                              ? m.trace_call_p50_ns / untraced.p50_ns - 1.0
                              : 0.0;
  PutLayers(m, out);
}

double Imbalance(const std::vector<std::uint64_t>& per_worker) {
  if (per_worker.empty()) {
    return 0.0;
  }
  const auto [lo, hi] = std::minmax_element(per_worker.begin(),
                                            per_worker.end());
  return *lo > 0 ? static_cast<double>(*hi) / static_cast<double>(*lo) : 0.0;
}

// Time split of one --seconds budget.
struct Budget {
  double warmup;  // Untimed, before any measured window.
  double measure;
  double traced;
  double isolated;
  double references;
};

Budget MakeBudget(double seconds, bool trace) {
  Budget b{};
  b.warmup = std::clamp(seconds * 0.05, 0.1, 1.0);
  if (!trace) {
    b.measure = seconds;
    return b;
  }
  b.measure = seconds * 0.3;
  b.traced = seconds * 0.4;
  b.isolated = seconds * 0.2;
  b.references = seconds * 0.1;
  return b;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

// --- Workload drivers ---------------------------------------------------------------

void RunPar(const Options& opt, bool fanin, Outcome& out) {
  const Budget budget = MakeBudget(opt.seconds, opt.trace);
  const int workers = fanin ? HostCpus() : 1;
  double setup_s = 0.0;
  std::unique_ptr<ParWorld> world = TimedSetups<ParWorld>(
      out, &setup_s, [](int r) { return r; },
      [&] { return std::make_unique<ParWorld>(ParOptions(workers)); },
      [](ParWorld& w) { return w.CallNull(0); });
  if (world == nullptr || !out.problems.empty()) {
    return;
  }
  std::uint64_t client_ok = 1;  // The set-up call.
  ParBackend backend(*world);
  if (!backend.inline_ok()) {
    out.Fail("Add is not inline-eligible on the par world");
    return;
  }
  std::vector<CallPlan> plans;
  for (int w = 0; w < workers; ++w) {
    plans.push_back(MakePlan(opt.seed, static_cast<std::uint64_t>(w),
                             fanin ? kNullOnly : kSyncMix));
  }

  client_ok +=
      RunParWindow(*world, backend, plans, budget.warmup, 0, nullptr).ok;
  const Measured measured =
      RunSubWindows(budget.measure, [&](double s, int k) {
        return RunParWindow(*world, backend, plans, s, k, nullptr);
      });
  client_ok += measured.pooled.ok;
  out.Expect(measured.pooled.failed == 0, "par calls failed or were wrong");
  const Summary untraced = Summarize(measured, "untraced");

  if (!opt.trace) {
    PutEndToEnd(measured, untraced, setup_s, out);
  } else {
    // A par call records only its root span.
    const std::uint64_t every =
        SampleEvery(untraced.calls_per_s / workers, budget.traced, 1);
    std::vector<SpanLog> logs;
    logs.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      logs.emplace_back(every);
    }
    const Measured traced =
        RunSubWindows(budget.traced, [&](double s, int k) {
          return RunParWindow(*world, backend, plans, s, k, &logs);
        });
    client_ok += traced.pooled.ok;
    out.Expect(traced.pooled.failed == 0, "traced par calls failed");
    LayerMetrics m = CounterLayers(traced.pooled);
    SyncSpanLayers(logs, m);
    m.par_worker_imbalance = Imbalance(traced.pooled.calls_per_worker);
    PutTraced(traced, untraced, m, out);
    ReportSpans(logs);
    std::vector<const SpanLog*> views;
    for (const SpanLog& log : logs) {
      views.push_back(&log);
    }
    WriteSpans(opt.spans_path, views);
  }

  out.Expect(world->server_calls_seen() == client_ok,
             "server-side call count (" +
                 std::to_string(world->server_calls_seen()) +
                 ") differs from client successes (" +
                 std::to_string(client_ok) + ")");
  out.Expect(world->par()->AuditConservation().ok(),
             "A-stack conservation audit failed after the par run");
}

std::unique_ptr<ProcWorld> ProcSetups(Outcome& out, double* setup_s) {
  if (!lrpc::ProcHost::ForkPermitted()) {
    out.Fail("this environment does not permit fork; proc workloads cannot run");
    return nullptr;
  }
  // The forked server inherits the server slot; the client moves off it
  // before the first call.
  std::unique_ptr<ProcWorld> world = TimedSetups<ProcWorld>(
      out, setup_s, [](int) { return kServerSlot; },
      [] {
        auto built = std::make_unique<ProcWorld>();
        PinThisThread(kClientSlot);
        return built;
      },
      [](ProcWorld& w) {
        return w.ok() ? w.CallNull(0) : w.spawn_status();
      });
  if (world != nullptr && !out.problems.empty()) {
    world.reset();
  }
  return world;
}

void CheckProcWorld(ProcWorld& world, std::uint64_t client_ok, Outcome& out) {
  const std::uint64_t served =
      world.counters().calls.load(std::memory_order_acquire);
  out.Expect(served == client_ok,
             "server-process call count (" + std::to_string(served) +
                 ") differs from client successes (" +
                 std::to_string(client_ok) + ")");
  out.Expect(world.host().live_endpoints() == world.host().mapped_segments(),
             "ProcHost live endpoints differ from mapped segments");
}

void RunProcCall(const Options& opt, Outcome& out) {
  const Budget budget = MakeBudget(opt.seconds, opt.trace);
  double setup_s = 0.0;
  std::unique_ptr<ProcWorld> world = ProcSetups(out, &setup_s);
  if (world == nullptr) {
    return;
  }
  std::uint64_t client_ok = 1;
  ProcBackend backend(*world);
  if (!backend.inline_ok()) {
    out.Fail("Add is not inline-eligible on the proc world");
    return;
  }
  const CallPlan plan = MakePlan(opt.seed, 0, kSyncMix);
  std::size_t cursor = 0;
  const auto window = [&](double s, int k, SpanLog* spans) {
    PlaceProc(*world, k);
    return RunProcSyncWindow(*world, backend, plan, s, spans, &cursor);
  };
  client_ok += window(budget.warmup, 0, nullptr).ok;
  const Measured measured = RunSubWindows(
      budget.measure, [&](double s, int k) { return window(s, k, nullptr); });
  client_ok += measured.pooled.ok;
  out.Expect(measured.pooled.failed == 0, "proc calls failed or were wrong");
  const Summary untraced = Summarize(measured, "untraced");

  if (!opt.trace) {
    PutEndToEnd(measured, untraced, setup_s, out);
  } else {
    std::vector<SpanLog> logs;
    logs.emplace_back(SampleEvery(untraced.calls_per_s, budget.traced, 2));
    TracingTransport tracer(*world->runtime().proc_transport(), logs[0]);
    Measured traced;
    {
      TransportGuard guard(world->runtime(), tracer);
      traced = RunSubWindows(budget.traced, [&](double s, int k) {
        return window(s, k, &logs[0]);
      });
    }
    client_ok += traced.pooled.ok;
    out.Expect(traced.pooled.failed == 0, "traced proc calls failed");
    LayerMetrics m = CounterLayers(traced.pooled);
    SyncSpanLayers(logs, m);
    PutTraced(traced, untraced, m, out);
    ReportSpans(logs);
    WriteSpans(opt.spans_path, {&logs[0]});
  }
  CheckProcWorld(*world, client_ok, out);
}

void RunProcAsync(const Options& opt, Outcome& out) {
  const Budget budget = MakeBudget(opt.seconds, opt.trace);
  double setup_s = 0.0;
  std::unique_ptr<ProcWorld> world = ProcSetups(out, &setup_s);
  if (world == nullptr) {
    return;
  }
  std::uint64_t client_ok = 1;
  const CallPlan plan = MakePlan(opt.seed, 0, kAsyncMix);
  lrpc::AsyncRing ring(world->runtime(), world->binding(),
                       world->client_thread(), kAsyncDepth);
  AsyncState state;
  state.ring = &ring;
  const auto window = [&](double s, int k, SpanLog* spans) {
    PlaceProc(*world, k);
    return RunProcAsyncWindow(*world, plan, state, s, spans);
  };
  client_ok += window(budget.warmup, 0, nullptr).ok;
  const Measured measured = RunSubWindows(
      budget.measure, [&](double s, int k) { return window(s, k, nullptr); });
  client_ok += measured.pooled.ok;
  out.Expect(measured.pooled.failed == 0, "async calls failed or were wrong");
  const Summary untraced = Summarize(measured, "untraced");

  if (!opt.trace) {
    PutEndToEnd(measured, untraced, setup_s, out);
  } else {
    std::vector<SpanLog> logs;
    logs.emplace_back(SampleEvery(untraced.calls_per_s / kAsyncDepth,
                                  budget.traced, kAsyncRoundSpans));
    SpanLog& log = logs[0];
    TracingTransport tracer(*world->runtime().proc_transport(), log);
    Measured traced;
    {
      TransportGuard guard(world->runtime(), tracer);
      traced = RunSubWindows(budget.traced, [&](double s, int k) {
        return window(s, k, &log);
      });
    }
    client_ok += traced.pooled.ok;
    out.Expect(traced.pooled.failed == 0, "traced async calls failed");
    const AsyncTrace trace = AnalyzeAsync(log);
    const double n = std::max(trace.calls, 1.0);
    LayerMetrics m = CounterLayers(traced.pooled);
    m.lrpc_submit_ns = Quantile(trace.submit_ns, 0.5);
    m.lrpc_flush_self_ns_per_call = (trace.flush_ns - trace.batch_ns) / n;
    m.lrpc_reap_ns_per_call = trace.reap_ns / n;
    m.proc_batch_ns_per_call = trace.batch_ns / n;
    m.lrpc_self_ns = Mean(trace.submit_ns) + m.lrpc_flush_self_ns_per_call +
                     m.lrpc_reap_ns_per_call;
    m.proc_share = trace.round_ns > 0.0 ? trace.batch_ns / trace.round_ns : 0.0;
    m.trace_call_mean_ns = trace.round_ns / n;
    m.trace_parts_ns = m.lrpc_submit_ns + m.lrpc_flush_self_ns_per_call +
                       m.lrpc_reap_ns_per_call + m.proc_batch_ns_per_call;
    PutTraced(traced, untraced, m, out);
    ReportSpans(logs);
    WriteSpans(opt.spans_path, {&log});
  }
  CheckProcWorld(*world, client_ok, out);
}

// --- Command line and output --------------------------------------------------------

void PrintFingerprint() {
  std::printf("{\"nproc\": %d, \"cpu_model\": %s, \"compiler\": %s, "
              "\"build_type\": %s}\n",
              HostCpus(), JsonString(CpuModel()).c_str(),
              JsonString(PERFBENCH_COMPILER).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: lrpc_perfbench --workload "
               "<par_call|par_fanin|proc_call|proc_async> [--seed n] "
               "[--seconds s] [--trace 0|1] [--spans path]\n"
               "       lrpc_perfbench --fingerprint\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  AllowedCpus();  // Before anything is pinned.
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--fingerprint") {
      PrintFingerprint();
      return 0;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::atoi(value) != 0;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      return Usage();
    }
  }
  if (opt.seconds <= 0.0) {
    return Usage();
  }

  Outcome out;
  if (opt.workload == "par_call") {
    RunPar(opt, /*fanin=*/false, out);
  } else if (opt.workload == "par_fanin") {
    RunPar(opt, /*fanin=*/true, out);
  } else if (opt.workload == "proc_call") {
    RunProcCall(opt, out);
  } else if (opt.workload == "proc_async") {
    RunProcAsync(opt, out);
  } else {
    return Usage();
  }

  if (opt.trace && out.problems.empty()) {
    const Budget budget = MakeBudget(opt.seconds, opt.trace);
    MeasureIsolated(budget.isolated, out);
    out.Put("ref.clock_ns", ClockPairNs(budget.references * 0.2), "ns");
    MeasureDoorbell(budget.references * 0.8,
                    MakePlan(opt.seed, 99, kAsyncMix), out);
  }

  const bool correct = out.problems.empty();
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("workload %s  seed %llu  trace %d  samples %llu  failed %llu  "
              "failed_frac %.6g ratio\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 0.0);
  for (const Metric& m : out.metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(out.attempted, 1));
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out.metrics[i].value);
    json += (i > 0 ? ", " : "") + JsonString(out.metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + JsonString(out.metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
