// SLO invariants of the fleet-scale traffic harness (docs/scale.md), run
// identically on the deterministic simulator and the real-thread parallel
// backend. The gates mirror what bench_scale --enforce checks in CI:
//
//   - no shedding at or below half capacity
//   - shed fraction monotone non-decreasing in offered load
//   - admitted p99 within the SLO target under 2x overload, for every
//     shedding policy — while the no-admission-control contrast run shows
//     the unbounded queueing the policies exist to prevent
//   - every shed decision audited by a kernel event
//
// Worlds are rebuilt per scenario where determinism across runs is being
// pinned; elsewhere one world runs several scenarios back to back (clocks
// carry forward, which the sojourn accounting is indifferent to).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/kern/invariant_checker.h"
#include "src/kern/kernel.h"
#include "src/kern/binding_table.h"
#include "src/scale/admission.h"
#include "src/scale/arrival.h"
#include "src/scale/fleet.h"
#include "src/scale/slo.h"

namespace lrpc {
namespace {

constexpr std::uint64_t kCalls = 30000;

class ScaleBackendTest : public ::testing::TestWithParam<RuntimeBackend> {
 protected:
  FleetOptions Options() const {
    FleetOptions options;
    options.backend = GetParam();
    options.server_domains = 10;
    options.client_domains = 10;
    options.imports_per_client = 10;  // 100 bindings.
    options.workers = GetParam() == RuntimeBackend::kParallelHost ? 4 : 1;
    return options;
  }

  ScenarioOptions Scenario(double load, AdmissionPolicy policy) const {
    ScenarioOptions scenario;
    scenario.load_factor = load;
    scenario.calls = kCalls;
    scenario.admission.policy = policy;
    return scenario;
  }
};

TEST_P(ScaleBackendTest, ZeroShedsAtHalfCapacity) {
  FleetWorld world(Options());
  const FleetReport report =
      world.RunScenario(Scenario(0.5, AdmissionPolicy::kRejectAtCall));
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.admitted, kCalls);
  EXPECT_DOUBLE_EQ(report.shed_fraction, 0.0);
}

TEST_P(ScaleBackendTest, TailBoundedUnderOverloadWithShedding) {
  FleetWorld world(Options());
  const FleetReport report =
      world.RunScenario(Scenario(2.0, AdmissionPolicy::kRejectAtCall));
  EXPECT_EQ(report.failed, 0u);
  // Real overload: roughly half the offered calls cannot be served.
  EXPECT_GT(report.shed_fraction, 0.25);
  EXPECT_LT(report.shed_fraction, 0.75);
  // The point of shedding: the admitted tail stays within the SLO.
  EXPECT_LE(report.p99, report.slo_p99);
  for (int c = 0; c < kCallClassCount; ++c) {
    EXPECT_LE(report.per_class[c].p99, report.slo_p99) << "class " << c;
  }
  // Bounded queueing: no offered call ever waited past the SLO envelope.
  EXPECT_LE(report.max_wait, 2 * report.slo_p99);
}

TEST_P(ScaleBackendTest, NoAdmissionControlQueuesWithoutBound) {
  FleetWorld world(Options());
  const FleetReport with_control =
      world.RunScenario(Scenario(2.0, AdmissionPolicy::kRejectAtCall));
  const FleetReport without =
      world.RunScenario(Scenario(2.0, AdmissionPolicy::kNone));
  EXPECT_EQ(without.shed, 0u);
  // Open-loop at 2x with nothing shed: the backlog grows with the run
  // length instead of staying near the threshold.
  EXPECT_GT(without.max_wait, 4 * with_control.max_wait);
  EXPECT_GT(without.p99, without.slo_p99);
}

TEST_P(ScaleBackendTest, ShedFractionMonotoneInLoad) {
  FleetWorld world(Options());
  double previous = -1.0;
  for (const double load : {0.5, 0.9, 1.5, 2.0}) {
    const FleetReport report =
        world.RunScenario(Scenario(load, AdmissionPolicy::kRejectAtCall));
    EXPECT_GE(report.shed_fraction, previous) << "load " << load;
    previous = report.shed_fraction;
  }
  EXPECT_GT(previous, 0.25);  // The 2x point really shed.
}

TEST_P(ScaleBackendTest, DegradePolicyRoutesOverflowToMsgRpc) {
  FleetWorld world(Options());
  const FleetReport report =
      world.RunScenario(Scenario(2.0, AdmissionPolicy::kDegradeToMsgRpc));
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.degraded, 0u);
  // The fast path's percentiles exclude degraded traffic and stay in SLO.
  EXPECT_LE(report.p99, report.slo_p99);
  // The fallback channel is itself bounded: past its own backlog limit the
  // controller sheds rather than queueing without bound.
  ASSERT_NE(report.tracker, nullptr);
  EXPECT_EQ(report.offered,
            report.admitted + report.shed + report.degraded);
}

TEST_P(ScaleBackendTest, RejectAtBindTripsBreakers) {
  FleetWorld world(Options());
  ScenarioOptions scenario = Scenario(2.0, AdmissionPolicy::kRejectAtBind);
  scenario.admission.breaker.open_cooldown = 2 * kMillisecond;
  const FleetReport report = world.RunScenario(scenario);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.shed, 0u);
  // Overload must actually reach the breakers: transitions happened and
  // open circuits refused calls at the binding.
  EXPECT_GT(report.breaker_transitions, 0u);
  EXPECT_GT(report.breaker_rejections, 0u);
  EXPECT_LE(report.p99, report.slo_p99);
}

// Every shed and degrade decision is audited through the kernel event
// stream, so the chaos testbed and the invariant checker can account for
// them. The listener only bumps atomic counters: it is installed while
// real-thread workers are calling NotifyEvent concurrently.
class AdmissionEventCounter : public KernelEventListener {
 public:
  void OnKernelEvent(Kernel&, KernelEventKind kind) override {
    if (kind == KernelEventKind::kAdmissionShed) {
      sheds_.fetch_add(1, std::memory_order_relaxed);
    } else if (kind == KernelEventKind::kAdmissionDegraded) {
      degrades_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::uint64_t sheds() const { return sheds_.load(); }
  std::uint64_t degrades() const { return degrades_.load(); }

 private:
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> degrades_{0};
};

TEST_P(ScaleBackendTest, ShedDecisionsEmitKernelEvents) {
  FleetWorld world(Options());
  AdmissionEventCounter counter;
  world.kernel().set_event_listener(&counter);
  const FleetReport shed_report =
      world.RunScenario(Scenario(2.0, AdmissionPolicy::kRejectAtCall));
  EXPECT_EQ(counter.sheds(), shed_report.shed);
  EXPECT_EQ(counter.degrades(), 0u);

  const std::uint64_t sheds_before = counter.sheds();
  const FleetReport degrade_report =
      world.RunScenario(Scenario(2.0, AdmissionPolicy::kDegradeToMsgRpc));
  EXPECT_EQ(counter.degrades(), degrade_report.degraded);
  EXPECT_EQ(counter.sheds() - sheds_before, degrade_report.shed);
  world.kernel().set_event_listener(nullptr);
}

TEST_P(ScaleBackendTest, ReportsAreDeterministicForASeed) {
  FleetReport first;
  FleetReport second;
  for (FleetReport* report : {&first, &second}) {
    FleetWorld world(Options());  // Fresh world: clocks start equal.
    *report = world.RunScenario(Scenario(2.0, AdmissionPolicy::kRejectAtCall));
  }
  EXPECT_EQ(first.admitted, second.admitted);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.max_wait, second.max_wait);
  EXPECT_EQ(first.p50, second.p50);
  EXPECT_EQ(first.p99, second.p99);
  for (int c = 0; c < kCallClassCount; ++c) {
    EXPECT_EQ(first.per_class[c].offered, second.per_class[c].offered);
    EXPECT_EQ(first.per_class[c].admitted, second.per_class[c].admitted);
    EXPECT_EQ(first.per_class[c].p99, second.per_class[c].p99);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ScaleBackendTest,
    ::testing::Values(RuntimeBackend::kDeterministicSim,
                      RuntimeBackend::kParallelHost),
    [](const ::testing::TestParamInfo<RuntimeBackend>& param_info) {
      return param_info.param == RuntimeBackend::kDeterministicSim ? "Sim"
                                                                   : "Par";
    });

// The kernel invariants (linkage stacks, E-stack ownership, revoked
// bindings) hold throughout an overloaded, shedding run. The checker is
// not thread-safe, so this audit arms on the simulator backend only.
TEST(ScaleInvariants, SimOverloadRunKeepsKernelInvariants) {
  FleetOptions options;
  options.server_domains = 10;
  options.client_domains = 10;
  options.imports_per_client = 10;
  FleetWorld world(options);
  InvariantChecker checker(world.kernel());
  ScenarioOptions scenario;
  scenario.load_factor = 2.0;
  scenario.calls = 8000;  // The checker sweeps all bindings per event.
  scenario.admission.policy = AdmissionPolicy::kRejectAtCall;
  const FleetReport report = world.RunScenario(scenario);
  EXPECT_GT(report.shed, 0u);
  checker.CheckNow("after overload run");
  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? std::string("no detail")
                                    : checker.violations().front());
  EXPECT_GT(checker.events_seen(), 0u);
}

// A 1000-domain-pair fleet (10k bindings) stands up and meets the same
// gates; the kernel's one binding table holds every binding, and each one
// validates.
TEST(ScaleFleet, TenThousandBindingsOnParallelBackend) {
  FleetOptions options;
  options.backend = RuntimeBackend::kParallelHost;
  options.server_domains = 1000;
  options.client_domains = 1000;
  options.imports_per_client = 10;  // 10,000 bindings.
  options.workers = 4;
  FleetWorld world(options);
  ASSERT_EQ(world.binding_count(), 10000);

  const BindingTable& table = world.kernel().bindings();
  EXPECT_EQ(table.size(), 10000u);
  for (int i = 0; i < world.binding_count(); ++i) {
    const ClientBinding& binding = world.binding(i);
    ASSERT_TRUE(table.Validate(binding.object(), binding.client()).ok())
        << "binding " << i;
  }

  ScenarioOptions scenario;
  scenario.load_factor = 2.0;
  scenario.calls = 20000;
  scenario.admission.policy = AdmissionPolicy::kRejectAtCall;
  const FleetReport report = world.RunScenario(scenario);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.shed_fraction, 0.25);
  EXPECT_LE(report.p99, report.slo_p99);
}

}  // namespace
}  // namespace lrpc
