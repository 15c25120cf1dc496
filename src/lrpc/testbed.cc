#include "src/lrpc/testbed.h"

#include <algorithm>

#include "src/common/check.h"

namespace lrpc {

void AddPaperProcedures(Interface* iface, int* null_proc, int* add_proc,
                        int* bigin_proc, int* biginout_proc,
                        PaperCounters& counters, int simultaneous_calls) {
  {
    ProcedureDef def;
    def.name = "Null";
    def.simultaneous_calls = simultaneous_calls;
    def.handler = [&counters](ServerFrame& frame) {
      counters.CountCall(frame.cpu());
      return Status::Ok();
    };
    *null_proc = iface->AddProcedure(std::move(def));
  }
  {
    ProcedureDef def;
    def.name = "Add";
    def.simultaneous_calls = simultaneous_calls;
    def.params.push_back({.name = "a", .direction = ParamDirection::kIn,
                          .size = 4});
    def.params.push_back({.name = "b", .direction = ParamDirection::kIn,
                          .size = 4});
    def.params.push_back({.name = "sum", .direction = ParamDirection::kOut,
                          .size = 4});
    def.handler = [&counters](ServerFrame& frame) -> Status {
      Result<std::int32_t> a = frame.Arg<std::int32_t>(0);
      Result<std::int32_t> b = frame.Arg<std::int32_t>(1);
      if (!a.ok()) {
        return a.status();
      }
      if (!b.ok()) {
        return b.status();
      }
      counters.CountCall(frame.cpu());
      // Two's-complement wraparound; callers probe INT_MAX + 1, which is UB
      // on signed ints.
      const auto sum = static_cast<std::int32_t>(static_cast<std::uint32_t>(*a) +
                                                 static_cast<std::uint32_t>(*b));
      return frame.Result_<std::int32_t>(2, sum);
    };
    *add_proc = iface->AddProcedure(std::move(def));
  }
  {
    ProcedureDef def;
    def.name = "BigIn";
    def.simultaneous_calls = simultaneous_calls;
    def.params.push_back({.name = "data", .direction = ParamDirection::kIn,
                          .size = kBigSize});
    def.handler = [&counters](ServerFrame& frame) -> Status {
      Result<const std::uint8_t*> view = frame.ArgView(0);
      if (!view.ok()) {
        return view.status();
      }
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kBigSize; ++i) {
        sum += (*view)[i];
      }
      // Accumulate, not overwrite: concurrent handlers must not lose each
      // other's observation (the par stress test balances the grand total).
      counters.CountBigInBytes(frame.cpu(), sum);
      counters.CountCall(frame.cpu());
      return Status::Ok();
    };
    *bigin_proc = iface->AddProcedure(std::move(def));
  }
  {
    ProcedureDef def;
    def.name = "BigInOut";
    def.simultaneous_calls = simultaneous_calls;
    def.params.push_back({.name = "in", .direction = ParamDirection::kIn,
                          .size = kBigSize});
    def.params.push_back({.name = "out", .direction = ParamDirection::kOut,
                          .size = kBigSize});
    def.handler = [&counters](ServerFrame& frame) -> Status {
      std::uint8_t buffer[kBigSize];
      Result<std::size_t> n = frame.ReadArg(0, buffer, sizeof(buffer));
      if (!n.ok()) {
        return n.status();
      }
      counters.CountCall(frame.cpu());
      // Echo reversed, so tests can prove the server really transformed it.
      std::reverse(buffer, buffer + kBigSize);
      return frame.WriteResult(1, buffer, kBigSize);
    };
    *biginout_proc = iface->AddProcedure(std::move(def));
  }
}

Testbed::Testbed(TestbedOptions options) : options_(options) {
  machine_ = std::make_unique<Machine>(options_.model, options_.processors);
  kernel_ = std::make_unique<Kernel>(*machine_);
  kernel_->set_domain_caching(options_.domain_caching);
  runtime_ = std::make_unique<LrpcRuntime>(*kernel_);

  client_ = kernel_->CreateDomain({.name = "client"});
  server_ = kernel_->CreateDomain({.name = "server"});
  thread_ = kernel_->CreateThread(client_);

  iface_ = runtime_->CreateInterface(server_, "paper.Measures");
  AddPaperProcedures(iface_, &null_proc_, &add_proc_, &bigin_proc_,
                     &biginout_proc_, counters_);
  LRPC_CHECK_OK(runtime_->Export(iface_));

  Result<ClientBinding*> bound = runtime_->Import(cpu(0), client_, iface_->name());
  LRPC_CHECK(bound.ok());
  binding_ = *bound;

  // Put the calling processor in the client's context so the steady state
  // starts clean.
  cpu(0).LoadContext(kernel_->domain(client_).vm_context());
  kernel_->thread(thread_).set_current_domain(client_);

  if (options_.park_idle_in_server) {
    LRPC_CHECK(options_.processors >= 2);
    kernel_->ParkIdleProcessor(cpu(1), server_);
  }
}

Status Testbed::CallNull(CallStats* stats) {
  return runtime_->Call(cpu(0), thread_, *binding_, null_proc_, {}, {}, stats);
}

Status Testbed::CallAdd(std::int32_t a, std::int32_t b, std::int32_t* sum,
                        CallStats* stats) {
  const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet rets[] = {CallRet::Of(sum)};
  return runtime_->Call(cpu(0), thread_, *binding_, add_proc_, args, rets,
                        stats);
}

Status Testbed::CallBigIn(const std::uint8_t (&data)[kBigSize],
                          CallStats* stats) {
  const CallArg args[] = {CallArg(data, kBigSize)};
  return runtime_->Call(cpu(0), thread_, *binding_, bigin_proc_, args, {},
                        stats);
}

Status Testbed::CallBigInOut(const std::uint8_t (&in)[kBigSize],
                             std::uint8_t (&out)[kBigSize], CallStats* stats) {
  const CallArg args[] = {CallArg(in, kBigSize)};
  const CallRet rets[] = {CallRet(out, kBigSize)};
  return runtime_->Call(cpu(0), thread_, *binding_, biginout_proc_, args, rets,
                        stats);
}

}  // namespace lrpc
