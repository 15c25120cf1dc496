// Ablation benches for the design choices DESIGN.md calls out.
//
// Each ablation removes (or substitutes) one of LRPC's four techniques and
// measures what it costs, on the same C-VAX model as the main results:
//   1. Domain caching on/off (Section 3.4).
//   2. A tagged TLB instead of domain caching (Section 3.4's alternative).
//   3. A-stack sharing between similarly-sized procedures (Section 3.1).
//   4. Contiguous (primary) vs secondary A-stack validation (Section 5.2).
//   5. Lazy E-stack association + LIFO A-stack reuse (Section 3.2).
//   6. Shared A-stacks vs message copies for growing payloads (Section 3.5).

#include <cstdio>

#include "src/common/table_printer.h"
#include "src/lrpc/server_frame.h"
#include "src/lrpc/testbed.h"
#include "src/rpc/msg_rpc.h"
#include "src/rpc/register_rpc.h"

namespace lrpc {
namespace {

double NullMicros(Testbed& bed, int calls = 1000) {
  (void)bed.CallNull();
  const SimTime start = bed.cpu(0).clock();
  for (int i = 0; i < calls; ++i) {
    (void)bed.CallNull();
  }
  return ToMicros(bed.cpu(0).clock() - start) / calls;
}

void AblateDomainCaching() {
  Testbed with({.processors = 2, .park_idle_in_server = true});
  Testbed without;
  const double cached = NullMicros(with);
  const double switched = NullMicros(without);
  std::printf("1. Domain caching (idle-processor exchange):\n");
  std::printf("   Null with exchange: %.0f us; with context switches: %.0f us\n",
              cached, switched);
  std::printf("   -> the two TLB-invalidating switches cost %.0f us/call\n\n",
              switched - cached);
}

void AblateTaggedTlb() {
  // With a process tag in the TLB, a context switch need not invalidate:
  // the switch cost drops by the refill the invalidation induces. The
  // paper estimates 43 misses at 0.9 us spread over the call; a tagged TLB
  // avoids them but still reloads the mapping registers.
  Testbed untagged;
  const double base = NullMicros(untagged);

  TestbedOptions tagged_options;
  const double tlb_refill_per_switch = 43 * 0.9 / 2.0;
  tagged_options.model.context_switch =
      tagged_options.model.context_switch - Micros(tlb_refill_per_switch);
  Testbed tagged(tagged_options);
  const double tagged_null = NullMicros(tagged);

  std::printf("2. Tagged TLB (no invalidation on switch):\n");
  std::printf("   untagged C-VAX: %.0f us; tagged variant: %.0f us\n", base,
              tagged_null);
  std::printf(
      "   -> comparable saving to domain caching, but \"a single-processor\n"
      "   domain switch still requires that hardware mapping registers be\n"
      "   modified on the critical transfer path; domain caching does not.\"\n\n");
}

void AblateAStackSharing() {
  // Ten procedures with similar A-stack needs, 5 simultaneous calls each:
  // with sharing they draw from one group's pool; without, each procedure
  // would hold its own five A-stacks.
  Testbed bed;
  Interface* iface =
      bed.runtime().CreateInterface(bed.server_domain(), "ablate.Sharing");
  for (int i = 0; i < 10; ++i) {
    ProcedureDef def;
    def.name = "P" + std::to_string(i);
    def.params.push_back({.name = "v",
                          .direction = ParamDirection::kIn,
                          .size = static_cast<std::size_t>(16 + 4 * i)});
    def.handler = [](ServerFrame&) { return Status::Ok(); };
    iface->AddProcedure(std::move(def));
  }
  (void)bed.runtime().Export(iface);
  auto binding =
      bed.runtime().Import(bed.cpu(0), bed.client_domain(), "ablate.Sharing");

  int shared_total = 0;
  for (int g = 0; g < iface->astack_group_count(); ++g) {
    shared_total += iface->group_astack_count(g);
  }
  const int unshared_total = 10 * 5;
  std::printf("3. A-stack sharing across similarly-sized procedures:\n");
  std::printf(
      "   10 procedures x 5 calls: %d A-stacks with sharing (%d group%s), "
      "%d without\n",
      shared_total, iface->astack_group_count(),
      iface->astack_group_count() == 1 ? "" : "s", unshared_total);
  std::printf("   -> %.0f%% of the bind-time A-stack storage avoided\n\n",
              100.0 * (unshared_total - shared_total) / unshared_total);
  (void)binding;
}

void AblateSecondaryAStacks() {
  Testbed bed;
  const double primary = NullMicros(bed);
  // Drain the primary region so every call lands on a secondary A-stack.
  const int group = bed.interface_spec()->pd(bed.null_proc()).astack_group;
  while (bed.binding().free_list(group).Pop(bed.cpu(0)).ok()) {
  }
  (void)bed.CallNull();  // Grows a secondary region.
  const SimTime start = bed.cpu(0).clock();
  for (int i = 0; i < 1000; ++i) {
    (void)bed.CallNull();
  }
  const double secondary = ToMicros(bed.cpu(0).clock() - start) / 1000;
  std::printf("4. Contiguous (range-check) vs secondary A-stack validation:\n");
  std::printf("   primary: %.0f us; secondary: %.0f us (+%.0f us/call)\n\n",
              primary, secondary, secondary - primary);
}

void AblateEStackLaziness() {
  Testbed bed;
  for (int i = 0; i < 1000; ++i) {
    (void)bed.CallNull();
  }
  const int allocated = bed.kernel()
                            .domain(bed.server_domain())
                            .estacks()
                            .allocated();
  std::printf("5. Lazy E-stack association + LIFO A-stack reuse:\n");
  std::printf(
      "   1000 calls allocated %d E-stack%s (LIFO reuse keeps the same\n"
      "   A-stack/E-stack pair hot); static allocation would pin one\n"
      "   E-stack (tens of KB) to every A-stack of every binding.\n\n",
      allocated, allocated == 1 ? "" : "s");
}

void AblateSharedAStackVsMessages() {
  std::printf("6. Shared A-stack vs message copies, growing payload:\n");
  std::printf("   payload   LRPC (us)   SRC RPC (us)   ratio\n");
  for (std::size_t bytes : {0, 64, 200, 512, 1024}) {
    // LRPC side.
    Testbed bed;
    Interface* iface =
        bed.runtime().CreateInterface(bed.server_domain(), "ablate.Payload");
    ProcedureDef def;
    def.name = "Take";
    if (bytes > 0) {
      def.params.push_back(
          {.name = "data", .direction = ParamDirection::kIn, .size = bytes});
    }
    def.handler = [](ServerFrame&) { return Status::Ok(); };
    iface->AddProcedure(std::move(def));
    (void)bed.runtime().Export(iface);
    auto binding =
        bed.runtime().Import(bed.cpu(0), bed.client_domain(), "ablate.Payload");
    std::vector<std::uint8_t> payload(bytes);
    std::vector<CallArg> args;
    if (bytes > 0) {
      args.push_back(CallArg(payload.data(), payload.size()));
    }
    (void)bed.runtime().Call(bed.cpu(0), bed.client_thread(), **binding, 0,
                             args, {});
    SimTime start = bed.cpu(0).clock();
    for (int i = 0; i < 200; ++i) {
      (void)bed.runtime().Call(bed.cpu(0), bed.client_thread(), **binding, 0,
                               args, {});
    }
    const double lrpc_us = ToMicros(bed.cpu(0).clock() - start) / 200;

    // Message side.
    Machine machine(MachineModel::CVaxFirefly(), 1);
    Kernel kernel(machine);
    LrpcRuntime runtime(kernel);
    MsgRpcSystem system(kernel, MsgRpcMode::kSrcFirefly);
    const DomainId client = kernel.CreateDomain({.name = "client"});
    const DomainId server = kernel.CreateDomain({.name = "server"});
    const ThreadId thread = kernel.CreateThread(client);
    Interface* msg_iface = runtime.CreateInterface(server, "ablate.Msg");
    ProcedureDef msg_def;
    msg_def.name = "Take";
    if (bytes > 0) {
      msg_def.params.push_back(
          {.name = "data", .direction = ParamDirection::kIn, .size = bytes});
    }
    msg_def.handler = [](ServerFrame&) { return Status::Ok(); };
    msg_iface->AddProcedure(std::move(msg_def));
    msg_iface->Seal();
    MsgServer* msg_server = system.RegisterServer(server, msg_iface);
    MsgBinding msg_binding = system.Bind(client, msg_server);
    (void)system.Call(machine.processor(0), thread, msg_binding, 0, args, {});
    start = machine.processor(0).clock();
    for (int i = 0; i < 200; ++i) {
      (void)system.Call(machine.processor(0), thread, msg_binding, 0, args, {});
    }
    const double src_us = ToMicros(machine.processor(0).clock() - start) / 200;

    std::printf("   %5zu B   %8.0f   %11.0f   %5.2fx\n", bytes, lrpc_us,
                src_us, src_us / lrpc_us);
  }
  std::printf(
      "   -> the gap grows with payload: the message path copies each\n"
      "   byte twice even in SRC RPC's shared-buffer mode, the A-stack\n"
      "   path once.\n");
}

void AblateRegisterPassing() {
  // Section 2.2: "Karger describes compiler-driven techniques for passing
  // parameters in registers... these optimizations exhibit a performance
  // discontinuity once the parameters overflow the registers. The data in
  // Figure 1 indicates that this can be a frequent problem."
  const MachineModel cvax = MachineModel::CVaxFirefly();
  RegisterRpcModel reg;
  std::printf("7. Register-passing RPC vs LRPC (the Section 2.2 cliff):\n");
  std::printf("   payload   register RPC (us)   LRPC (us)\n");
  for (std::size_t bytes : {8, 24, 32, 33, 64, 200}) {
    std::printf("   %5zu B   %17.0f   %9.0f%s\n", bytes,
                ToMicros(reg.CallCost(cvax, bytes)),
                ToMicros(LrpcCallCostForBytes(cvax, bytes)),
                bytes == 33 ? "   <- one byte past the registers" : "");
  }
  CallSizeModel sizes;
  const auto expected = reg.ExpectedUnderFigure1(cvax, sizes, 1989);
  std::printf(
      "   under the Figure 1 size mix: %.0f%% of calls overflow the\n"
      "   registers; expected cost %.0f us/call vs LRPC's smooth curve.\n",
      100.0 * expected.overflow_fraction, expected.mean_us);
}

}  // namespace
}  // namespace lrpc

int main() {
  std::printf("== Ablations: what each LRPC design choice buys ==\n\n");
  lrpc::AblateDomainCaching();
  lrpc::AblateTaggedTlb();
  lrpc::AblateAStackSharing();
  lrpc::AblateSecondaryAStacks();
  lrpc::AblateEStackLaziness();
  lrpc::AblateSharedAStackVsMessages();
  std::printf("\n");
  lrpc::AblateRegisterPassing();
  return 0;
}
