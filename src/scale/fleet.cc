#include "src/scale/fleet.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/lrpc/server_frame.h"

namespace lrpc {

namespace {

// Calibration calls per class (worker 0, before any measured scenario).
constexpr int kCalibrationCalls = 48;
// Default wait threshold as a multiple of the mean offered-call cost:
// far above the waits ordinary H2 burstiness produces at half load, far
// below what sustained overload accumulates over a long run.
constexpr double kDefaultThresholdFactor = 200.0;
// SLO margin over the threshold, in units of the large-class service cost:
// an admitted call's sojourn is its (bounded) wait plus one service time.
constexpr double kSloMarginServices = 8.0;

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FleetWorld::FleetWorld(FleetOptions options) : options_(options) {
  LRPC_CHECK(options_.server_domains >= 1);
  LRPC_CHECK(options_.client_domains >= 1);
  LRPC_CHECK(options_.imports_per_client >= 1);
  LRPC_CHECK(options_.workers >= 1);
  if (options_.backend == RuntimeBackend::kDeterministicSim) {
    LRPC_CHECK(options_.workers == 1);
  }

  machine_ = std::make_unique<Machine>(options_.model, options_.workers);
  kernel_ = std::make_unique<Kernel>(*machine_, options_.seed);
  runtime_ = std::make_unique<LrpcRuntime>(*kernel_, options_.backend);
  if (options_.backend == RuntimeBackend::kParallelHost) {
    // Before the imports: it fixes the free lists' lock discipline.
    par_ = std::make_unique<ParallelMachine>(
        *runtime_, ParallelOptions{.workers = options_.workers,
                                   .lock_free = options_.lock_free});
  }

  const int servers = options_.server_domains;
  const int clients = options_.client_domains;
  const int imports = options_.imports_per_client;

  // Client c imports servers (c + j) % S for j in [0, K): every server ends
  // up with about C*K/S bindings. Count them exactly first — the E-stack
  // budget is fixed at domain creation, and the parallel backend never
  // grows it under concurrent callers.
  std::vector<int> bindings_per_server(static_cast<std::size_t>(servers), 0);
  for (int c = 0; c < clients; ++c) {
    for (int j = 0; j < imports; ++j) {
      ++bindings_per_server[static_cast<std::size_t>((c + j) % servers)];
    }
  }
  const int small_astacks = options_.astacks_per_group;
  const int large_astacks = std::max(1, options_.astacks_per_group / 2);
  const int astacks_per_binding = 2 * small_astacks + large_astacks;

  for (int s = 0; s < servers; ++s) {
    DomainConfig config;
    config.name = "fleet.server" + std::to_string(s);
    config.estack_capacity =
        bindings_per_server[static_cast<std::size_t>(s)] *
            astacks_per_binding +
        4;
    servers_.push_back(kernel_->CreateDomain(config));
  }
  for (int c = 0; c < clients; ++c) {
    DomainConfig config;
    config.name = "fleet.client" + std::to_string(c);
    clients_.push_back(kernel_->CreateDomain(config));
  }

  // One interface per server, three procedures in Figure-1 class order.
  // Handlers are stateless (no shared counters): concurrent workers touch
  // only their own bindings' A-stacks.
  for (int s = 0; s < servers; ++s) {
    Interface* iface = runtime_->CreateInterface(
        servers_[static_cast<std::size_t>(s)], "fleet.svc" + std::to_string(s));
    {
      ProcedureDef def;
      def.name = "Small";
      def.simultaneous_calls = small_astacks;
      def.params.push_back({.name = "words",
                            .direction = ParamDirection::kIn,
                            .size = kSmallPayload});
      def.params.push_back(
          {.name = "ack", .direction = ParamDirection::kOut, .size = 4});
      def.handler = [](ServerFrame& frame) -> Status {
        Result<const std::uint8_t*> view = frame.ArgView(0);
        if (!view.ok()) {
          return view.status();
        }
        std::uint32_t sum = 0;
        for (std::size_t i = 0; i < kSmallPayload; ++i) {
          sum += (*view)[i];
        }
        return frame.Result_<std::uint32_t>(1, sum);
      };
      const int proc = iface->AddProcedure(std::move(def));
      procs_[static_cast<std::size_t>(CallClass::kSmall)] = proc;
    }
    {
      ProcedureDef def;
      def.name = "Medium";
      def.simultaneous_calls = small_astacks;
      def.params.push_back({.name = "record",
                            .direction = ParamDirection::kIn,
                            .size = kMediumPayload});
      def.params.push_back({.name = "echo",
                            .direction = ParamDirection::kOut,
                            .size = kMediumPayload});
      def.handler = [](ServerFrame& frame) -> Status {
        std::uint8_t buffer[kMediumPayload];
        Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
        if (!n.ok()) {
          return n.status();
        }
        return frame.WriteResult(1, buffer, kMediumPayload);
      };
      const int proc = iface->AddProcedure(std::move(def));
      procs_[static_cast<std::size_t>(CallClass::kMedium)] = proc;
    }
    {
      ProcedureDef def;
      def.name = "Large";
      def.simultaneous_calls = large_astacks;
      def.params.push_back({.name = "packet",
                            .direction = ParamDirection::kIn,
                            .size = kLargePayload});
      def.handler = [](ServerFrame& frame) -> Status {
        Result<const std::uint8_t*> view = frame.ArgView(0);
        if (!view.ok()) {
          return view.status();
        }
        // Touch both ends: a torn copy would be visible here.
        const std::uint8_t head = (*view)[0];
        const std::uint8_t tail = (*view)[kLargePayload - 1];
        return head == tail ? Status::Ok()
                            : Status(ErrorCode::kTypeCheckFailed,
                                     "fleet payload marker mismatch");
      };
      const int proc = iface->AddProcedure(std::move(def));
      procs_[static_cast<std::size_t>(CallClass::kLarge)] = proc;
    }
    LRPC_CHECK_OK(runtime_->Export(iface));
  }

  // One kernel thread per client domain: the kernel requires the calling
  // thread to be executing in the binding's client domain, and a worker
  // drives many client domains.
  for (int c = 0; c < clients; ++c) {
    const ThreadId t = kernel_->CreateThread(clients_[static_cast<std::size_t>(c)]);
    client_threads_.push_back(t);
    kernel_->thread(t).set_current_domain(clients_[static_cast<std::size_t>(c)]);
  }

  worker_bindings_.resize(static_cast<std::size_t>(options_.workers));
  for (int c = 0; c < clients; ++c) {
    for (int j = 0; j < imports; ++j) {
      const int s = (c + j) % servers;
      Result<ClientBinding*> bound = runtime_->Import(
          machine_->processor(0), clients_[static_cast<std::size_t>(c)],
          "fleet.svc" + std::to_string(s));
      LRPC_CHECK(bound.ok());
      const int index = static_cast<int>(bindings_.size());
      bindings_.push_back(*bound);
      binding_threads_.push_back(
          client_threads_[static_cast<std::size_t>(c)]);
      // Worker w owns every binding of the client domains { c : c % W == w }.
      worker_bindings_[static_cast<std::size_t>(c % options_.workers)]
          .push_back(index);
    }
  }
  for (const auto& wb : worker_bindings_) {
    LRPC_CHECK(!wb.empty());
  }

  machine_->processor(0).LoadContext(
      kernel_->domain(clients_[0]).vm_context());

}

Status FleetWorld::Dispatch(int w, int binding_index, CallClass c,
                            const std::uint8_t* payload,
                            std::uint8_t* reply) {
  static constexpr std::size_t kArgBytes[kCallClassCount] = {
      kSmallPayload, kMediumPayload, kLargePayload};
  static constexpr std::size_t kRetBytes[kCallClassCount] = {
      4, kMediumPayload, 0};
  const auto ci = static_cast<std::size_t>(c);
  const CallArg args[] = {CallArg(payload, kArgBytes[ci])};
  const CallRet rets[] = {CallRet(reply, kRetBytes[ci])};
  const std::span<const CallRet> ret_span =
      kRetBytes[ci] == 0 ? std::span<const CallRet>{}
                         : std::span<const CallRet>(rets);
  ClientBinding& binding =
      *bindings_[static_cast<std::size_t>(binding_index)];
  const ThreadId thread =
      binding_threads_[static_cast<std::size_t>(binding_index)];
  CallStats stats;
  return runtime_->Call(machine_->processor(w), thread, binding, procs_[ci],
                        args, ret_span, &stats);
}

double FleetWorld::MeanServiceNs() {
  if (mean_service_ns_ > 0.0) {
    return mean_service_ns_;
  }
  // Measure the modeled cost of each class on worker 0, rotating through
  // its bindings so the cross-client context-switch cost of real traffic is
  // in the average.
  Processor& cpu = machine_->processor(0);
  const std::vector<int>& wb = worker_bindings_[0];
  std::uint8_t payload[kLargePayload];
  std::uint8_t reply[kMediumPayload];
  std::memset(payload, 0x5a, sizeof(payload));
  for (int ci = 0; ci < kCallClassCount; ++ci) {
    const auto c = static_cast<CallClass>(ci);
    const SimTime begin = cpu.clock();
    for (int i = 0; i < kCalibrationCalls; ++i) {
      const int bi = wb[static_cast<std::size_t>(i) % wb.size()];
      LRPC_CHECK_OK(Dispatch(0, bi, c, payload, reply));
    }
    class_service_ns_[ci] =
        static_cast<double>(cpu.clock() - begin) / kCalibrationCalls;
  }
  const FleetTrafficModel model(1, options_.traffic);
  mean_service_ns_ = 0.0;
  for (int ci = 0; ci < kCallClassCount; ++ci) {
    mean_service_ns_ += model.class_probability(static_cast<CallClass>(ci)) *
                        class_service_ns_[ci];
  }
  LRPC_CHECK(mean_service_ns_ > 0.0);
  return mean_service_ns_;
}

void FleetWorld::WorkerLoop(int w, const ScenarioOptions& scenario,
                            AdmissionController& controller,
                            std::uint64_t calls, WorkerOutcome& outcome) {
  const std::vector<int>& wb = worker_bindings_[static_cast<std::size_t>(w)];
  const FleetTrafficModel model(static_cast<int>(wb.size()),
                                options_.traffic);
  Rng rng(MixSeed(scenario.seed, static_cast<std::uint64_t>(w) * 2));
  // Each worker is an independent open-loop queue offered load_factor of
  // its own capacity, so fleet throughput scales with the worker count
  // while per-worker utilization stays pinned at load_factor.
  const auto mean_gap =
      static_cast<SimDuration>(MeanServiceNs() / scenario.load_factor);
  OpenLoopArrivals arrivals(
      std::max<SimDuration>(mean_gap, 1),
      MixSeed(scenario.seed, static_cast<std::uint64_t>(w) * 2 + 1),
      options_.traffic);

  Processor& cpu = machine_->processor(w);
  const SimTime base = cpu.clock();
  SimTime degraded_clock = base;

  std::uint8_t payload[kLargePayload];
  std::uint8_t reply[kMediumPayload];
  std::memset(payload, 0x5a, sizeof(payload));

  for (std::uint64_t i = 0; i < calls; ++i) {
    const SimTime arrival = base + arrivals.Next();
    const int bi = wb[static_cast<std::size_t>(model.PickBinding(rng))];
    const CallClass c = model.PickClass(rng);
    cpu.AdvanceTo(arrival);  // Idle until the arrival, if ahead of it.
    const SimDuration wait = cpu.clock() - arrival;
    outcome.max_wait = std::max(outcome.max_wait, wait);
    const SimDuration degraded_wait =
        degraded_clock > arrival ? degraded_clock - arrival : 0;

    ClientBinding& binding = *bindings_[static_cast<std::size_t>(bi)];
    switch (controller.Decide(binding, cpu.clock(), wait, degraded_wait)) {
      case AdmissionDecision::kShed:
        // The decision is a register compare in the client stub; no trap,
        // no modeled cost.
        outcome.tracker.RecordShed(c);
        break;
      case AdmissionDecision::kDegrade: {
        const SimTime start = std::max(degraded_clock, arrival);
        const auto cost = static_cast<SimDuration>(
            options_.msg_rpc_cost_factor *
            class_service_ns_[static_cast<std::size_t>(c)]);
        degraded_clock = start + std::max<SimDuration>(cost, 1);
        outcome.tracker.RecordDegraded(c, degraded_clock - arrival);
        break;
      }
      case AdmissionDecision::kAdmit: {
        const Status status = Dispatch(w, bi, c, payload, reply);
        controller.OnOutcome(binding, cpu.clock(), status.ok());
        if (status.ok()) {
          outcome.tracker.RecordAdmitted(c, cpu.clock() - arrival);
          ++outcome.admitted;
        } else {
          outcome.tracker.RecordFailed(c);
        }
        break;
      }
    }
  }
  outcome.elapsed = cpu.clock() - base;
}

FleetReport FleetWorld::RunScenario(const ScenarioOptions& scenario) {
  LRPC_CHECK(scenario.load_factor > 0.0);
  const double mean_service = MeanServiceNs();

  ScenarioOptions run = scenario;
  if (run.admission.max_queue_delay == 0 &&
      run.admission.policy != AdmissionPolicy::kNone) {
    run.admission.max_queue_delay = static_cast<SimDuration>(
        kDefaultThresholdFactor * mean_service);
  }
  AdmissionController controller(run.admission, kernel_.get());

  if (run.admission.policy == AdmissionPolicy::kRejectAtBind) {
    // Materialise every breaker single-threaded: EnsureBreaker's lazy
    // allocation is not safe to race, the breaker itself is.
    for (ClientBinding* binding : bindings_) {
      binding->EnsureBreaker(run.admission.breaker);
    }
  }

  const int workers = options_.workers;
  std::vector<WorkerOutcome> outcomes(static_cast<std::size_t>(workers));
  std::vector<std::uint64_t> share(static_cast<std::size_t>(workers),
                                   scenario.calls /
                                       static_cast<std::uint64_t>(workers));
  share[0] += scenario.calls % static_cast<std::uint64_t>(workers);

  if (par_ != nullptr) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([this, w, &run, &controller, &share, &outcomes] {
        WorkerLoop(w, run, controller, share[static_cast<std::size_t>(w)],
                   outcomes[static_cast<std::size_t>(w)]);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  } else {
    WorkerLoop(0, run, controller, share[0], outcomes[0]);
  }

  auto merged = std::make_shared<SloTracker>();
  FleetReport report;
  for (const WorkerOutcome& outcome : outcomes) {
    LRPC_CHECK_OK(merged->Merge(outcome.tracker));
    report.max_wait = std::max(
        report.max_wait, static_cast<std::uint64_t>(outcome.max_wait));
    report.sim_seconds =
        std::max(report.sim_seconds,
                 static_cast<double>(outcome.elapsed) / 1e9);
  }

  Histogram aggregate = MakeLatencyHistogram();
  for (int ci = 0; ci < kCallClassCount; ++ci) {
    const auto c = static_cast<CallClass>(ci);
    FleetReport::PerClass& pc = report.per_class[ci];
    pc.offered = merged->offered(c);
    pc.admitted = merged->admitted(c);
    pc.shed = merged->shed(c);
    pc.degraded = merged->degraded(c);
    pc.failed = merged->failed(c);
    pc.p50 = merged->Percentile(c, 0.50);
    pc.p95 = merged->Percentile(c, 0.95);
    pc.p99 = merged->Percentile(c, 0.99);
    pc.degraded_p99 = merged->degraded_latency(c).Percentile(0.99);
    LRPC_CHECK_OK(aggregate.Merge(merged->latency(c)));
  }
  report.offered = merged->total_offered();
  report.admitted = merged->total_admitted();
  report.shed = merged->total_shed();
  report.degraded = merged->total_degraded();
  report.failed = merged->total_failed();
  report.shed_fraction = merged->shed_fraction();
  report.p50 = aggregate.Percentile(0.50);
  report.p95 = aggregate.Percentile(0.95);
  report.p99 = aggregate.Percentile(0.99);
  report.mean_service_ns = mean_service;
  report.max_queue_delay =
      static_cast<std::uint64_t>(run.admission.max_queue_delay);
  // An admitted call's true sojourn is at most the wait threshold plus a
  // few services; the histogram then rounds it up to a bucket edge, so the
  // target scales by kLatencyBucketRatio before the gates compare.
  report.slo_p99 = static_cast<std::uint64_t>(
      kLatencyBucketRatio *
      (static_cast<double>(run.admission.max_queue_delay) +
       kSloMarginServices *
           class_service_ns_[static_cast<std::size_t>(CallClass::kLarge)]));
  if (report.sim_seconds > 0.0) {
    report.admitted_per_second =
        static_cast<double>(report.admitted) / report.sim_seconds;
  }
  for (ClientBinding* binding : bindings_) {
    if (const CircuitBreaker* breaker = binding->breaker()) {
      report.breaker_rejections += breaker->rejected();
      report.breaker_transitions += breaker->transitions();
    }
  }
  report.tracker = std::move(merged);
  return report;
}

}  // namespace lrpc
