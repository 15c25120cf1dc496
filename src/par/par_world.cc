#include "src/par/par_world.h"

#include <string>

#include "src/common/check.h"

namespace lrpc {

namespace {

// Group-size parity with Testbed's procedures: small-argument procedures
// share one A-stack group, the 200-byte ones another.
constexpr int kGroupBudgetFactor = 4;  // Over-provision E-stacks per group.

}  // namespace

ParWorld::ParWorld(ParWorldOptions options) : options_(options) {
  LRPC_CHECK(options_.workers >= 1);
  LRPC_CHECK(options_.domains >= 1);
  LRPC_CHECK(options_.parked == 0);
  if (options_.backend == RuntimeBackend::kDeterministicSim) {
    // The simulator is single-threaded by construction; multiple workers
    // only make sense on the parallel backend.
    LRPC_CHECK(options_.workers == 1);
  }

  machine_ = std::make_unique<Machine>(options_.model, options_.workers);
  kernel_ = std::make_unique<Kernel>(*machine_);
  runtime_ = std::make_unique<LrpcRuntime>(*kernel_, options_.backend);
  if (options_.backend == RuntimeBackend::kParallelHost) {
    // Before the imports: it fixes the free lists' lock discipline.
    par_ = std::make_unique<ParallelMachine>(
        *runtime_, ParallelOptions{.workers = options_.workers,
                                   .lock_free = options_.lock_free});
  }

  // Parallel mode never grows the E-stack pool on demand from concurrent
  // callers, so the server's budget must cover every A-stack that could be
  // associated: all bindings, all groups.
  DomainConfig server_config;
  server_config.name = "par.server";
  server_config.estack_capacity =
      options_.domains * kGroupBudgetFactor * options_.astacks_per_group;
  server_ = kernel_->CreateDomain(server_config);

  for (int d = 0; d < options_.domains; ++d) {
    DomainConfig client_config;
    client_config.name = "par.client" + std::to_string(d);
    clients_.push_back(kernel_->CreateDomain(client_config));
  }

  iface_ = runtime_->CreateInterface(server_, "par.Measures");
  AddPaperProcedures(iface_, &null_proc_, &add_proc_, &bigin_proc_,
                     &biginout_proc_, counters_, options_.astacks_per_group);
  LRPC_CHECK_OK(runtime_->Export(iface_));

  for (int d = 0; d < options_.domains; ++d) {
    Result<ClientBinding*> bound =
        runtime_->Import(machine_->processor(0), clients_[static_cast<
                             std::size_t>(d)],
                         iface_->name());
    LRPC_CHECK(bound.ok());
    bindings_.push_back(*bound);
  }

  for (int w = 0; w < options_.workers; ++w) {
    const DomainId dom =
        clients_[static_cast<std::size_t>(w % options_.domains)];
    const ThreadId t = kernel_->CreateThread(dom);
    threads_.push_back(t);
    machine_->processor(w).LoadContext(kernel_->domain(dom).vm_context());
    kernel_->thread(t).set_current_domain(dom);
  }
}

Status ParWorld::Dispatch(int w, ClientBinding& binding, int procedure,
                          std::span<const CallArg> args,
                          std::span<const CallRet> rets, CallStats* stats) {
  return runtime_->Call(machine_->processor(w), worker_thread(w), binding,
                        procedure, args, rets, stats);
}

Status ParWorld::CallNull(int w, CallStats* stats) {
  return Dispatch(w, worker_binding(w), null_proc_, {}, {}, stats);
}

Status ParWorld::CallAdd(int w, std::int32_t a, std::int32_t b,
                         std::int32_t* sum, CallStats* stats) {
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(sum)};
  return Dispatch(w, worker_binding(w), add_proc_, args, rets, stats);
}

Status ParWorld::CallBigIn(int w, const std::uint8_t (&data)[kParBigSize],
                           CallStats* stats) {
  const CallArg args[] = {CallArg(data, kParBigSize)};
  return Dispatch(w, worker_binding(w), bigin_proc_, args, {}, stats);
}

Status ParWorld::CallBigInOut(int w, const std::uint8_t (&in)[kParBigSize],
                              std::uint8_t (&out)[kParBigSize],
                              CallStats* stats) {
  const CallArg args[] = {CallArg(in, kParBigSize)};
  const CallRet rets[] = {CallRet(out, kParBigSize)};
  return Dispatch(w, worker_binding(w), biginout_proc_, args, rets, stats);
}

}  // namespace lrpc
