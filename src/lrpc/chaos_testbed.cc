#include "src/lrpc/chaos_testbed.h"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/lrpc/async_call.h"
#include "src/lrpc/proc_transport.h"
#include "src/lrpc/testbed.h"

namespace lrpc {

namespace {

// Outcomes documented for the call path (docs/fault_injection.md): anything
// else escaping a call is a bug the schedule reports. Transient codes are
// whatever Status::Retryable() says they are — the classification lives in
// one place (src/common/status.h), not in a parallel list here.
bool DocumentedCallStatus(ErrorCode code, bool supervised) {
  if (code == ErrorCode::kOk || IsRetryable(code)) {
    return true;  // Success, or a transient (exhaustion/queue) outcome.
  }
  switch (code) {
    case ErrorCode::kRevokedBinding:    // Revocation, or a terminated party.
    case ErrorCode::kCallFailed:        // Server domain terminated mid-call.
    case ErrorCode::kCallAborted:       // The client abandoned the thread.
      return true;
    default:
      break;
  }
  if (supervised) {
    // The supervision layer's own verdicts (docs/supervision.md).
    switch (code) {
      case ErrorCode::kDeadlineExceeded:   // Watchdog or late-detected overrun.
      case ErrorCode::kCircuitOpen:        // Breaker rejected the call.
      case ErrorCode::kRetriesExhausted:   // Transients outlasted the budget.
      case ErrorCode::kDomainTerminated:   // Failover target died mid-call.
      case ErrorCode::kNoSuchInterface:    // No live fallback server remained.
        return true;
      default:
        break;
    }
  }
  return false;
}

bool DocumentedImportStatus(ErrorCode code) {
  return code == ErrorCode::kOk || code == ErrorCode::kBindingRefused;
}

}  // namespace

void RegisterAStackConservationCheck(InvariantChecker& checker,
                                     const LrpcRuntime& runtime) {
  checker.AddCheck([&runtime](Kernel&, std::vector<std::string>& found) {
    runtime.AuditAStacks(/*quiescent=*/false, found);
  });
}

ChaosResult RunChaosSchedule(const ChaosOptions& options) {
  ChaosResult result;

  Machine machine(MachineModel::CVaxFirefly(),
                  std::max(1, options.processors));
  Kernel kernel(machine, options.seed);
  LrpcRuntime runtime(kernel, options.backend);
  Processor& cpu = machine.processor(0);

  // The multi-process transport, when armed. Declared right after `runtime`
  // so it is destroyed first (it detaches itself and reaps its children).
  std::unique_ptr<ProcTransport> proc_host;

  struct ServerCtx {
    DomainId domain = kNoDomain;
    std::string name;
    Interface* iface = nullptr;
    bool alive = true;
  };
  struct ClientCtx {
    DomainId domain = kNoDomain;
    ThreadId thread = kNoThread;
    std::vector<ClientBinding*> bindings;
  };
  struct Procs {
    int null_proc = -1;
    int add_proc = -1;
    int bigin_proc = -1;
    int biginout_proc = -1;
  };

  // --- Build the world (no faults during setup: it always starts bound). ---
  std::vector<ServerCtx> servers;
  Procs procs;  // AddPaperProcedures assigns the same indices everywhere.
  PaperCounters counters;  // Shared by every server; the schedule checks
                           // call results, not these counts.
  for (int s = 0; s < options.servers; ++s) {
    ServerCtx ctx;
    ctx.name = "chaos.svc" + std::to_string(s);
    ctx.domain = kernel.CreateDomain({.name = ctx.name});
    Interface* iface = runtime.CreateInterface(ctx.domain, ctx.name);
    AddPaperProcedures(iface, &procs.null_proc, &procs.add_proc,
                       &procs.bigin_proc, &procs.biginout_proc, counters);
    if (!runtime.Export(iface).ok()) {
      result.undocumented.push_back("setup: export failed for " + ctx.name);
      return result;
    }
    ctx.iface = iface;
    servers.push_back(std::move(ctx));
  }

  if (options.proc_factory) {
    // Fork one real server process per exported interface. The children
    // inherit the sealed interfaces (and their handler closures) by fork,
    // so this runs after every export and before any call.
    proc_host = options.proc_factory(runtime);
    for (const ServerCtx& server : servers) {
      const Status status = proc_host->SpawnServer(server.domain,
                                                   server.iface);
      if (!status.ok()) {
        result.undocumented.push_back("setup: proc spawn failed for " +
                                      server.name + ": " +
                                      std::string(ErrorCodeName(status.code())));
        return result;
      }
    }
  }

  // The supervision layer (docs/supervision.md): one supervisor shepherds
  // every call, and a dedicated fallback domain — never terminated by the
  // stream — hosts each interface over message RPC as the failover target.
  std::unique_ptr<FallbackTransport> fallback;
  std::unique_ptr<SupervisedCall> supervisor;
  if (options.supervision) {
    supervisor = std::make_unique<SupervisedCall>(
        runtime, options.supervision_policy, options.seed ^ 0x5e1fca11ULL);
    if (options.fallback_factory) {
      const DomainId fallback_domain =
          kernel.CreateDomain({.name = "chaos.fallback"});
      fallback = options.fallback_factory(kernel);
      for (const ServerCtx& server : servers) {
        if (!fallback->ExportFallback(fallback_domain, server.iface).ok()) {
          result.undocumented.push_back("setup: fallback export failed for " +
                                        server.name);
          return result;
        }
      }
      supervisor->set_fallback(fallback.get());
    }
  }

  Rng rng(options.seed ^ 0xc4a05c4a05ULL);  // The schedule's own stream.
  std::vector<ClientCtx> clients;
  for (int c = 0; c < options.clients; ++c) {
    ClientCtx ctx;
    ctx.domain = kernel.CreateDomain({.name = "chaos.client" +
                                              std::to_string(c)});
    ctx.thread = kernel.CreateThread(ctx.domain);
    for (const ServerCtx& server : servers) {
      Result<ClientBinding*> bound = runtime.Import(cpu, ctx.domain,
                                                    server.name);
      if (!bound.ok()) {
        result.undocumented.push_back("setup: import failed for " +
                                      server.name);
        return result;
      }
      (*bound)->set_exhaustion_policy(rng.NextBool(0.5)
                                          ? AStackExhaustionPolicy::kFail
                                          : AStackExhaustionPolicy::kAllocateMore);
      ctx.bindings.push_back(*bound);
    }
    clients.push_back(std::move(ctx));
  }
  // Processor 1 idles in the first server's context (Section 3.4), which
  // only the simulator models.
  if (machine.simulates_costs() && options.processors >= 2 &&
      !servers.empty()) {
    kernel.ParkIdleProcessor(machine.processor(1), servers.front().domain);
  }

  // --- Arm the checker and the injector, then run the stream. ---
  InvariantChecker checker(kernel);
  RegisterAStackConservationCheck(checker, runtime);
  checker.CheckNow("setup");

  std::vector<FaultKind> armed_kinds = options.fault_kinds;
  if (armed_kinds.empty()) {
    armed_kinds = {FaultKind::kAStackExhaustion,
                   FaultKind::kBindingRevocation,
                   FaultKind::kDomainTermination,
                   FaultKind::kClerkRejection,
                   FaultKind::kCacheMiss,
                   FaultKind::kEStackExhaustion,
                   FaultKind::kThreadCapture};
  }
  FaultInjector injector(
      options.fault_injection
          ? FaultPlan::SeededRandom(options.fault_probability, armed_kinds)
          : FaultPlan(),
      options.seed);
  kernel.set_fault_injector(&injector);

  auto trace_line = [&result](std::string line) {
    result.trace += line;
    result.trace += '\n';
  };

  // After a kCallAborted outcome the captured thread died in the kernel;
  // adopt the replacement AbandonCapturedCall parked in the client domain
  // (highest thread id wins: the newest replacement).
  auto adopt_replacement_thread = [&](int op, ClientCtx& client) {
    Thread* old = kernel.FindThread(client.thread);
    if (old != nullptr && old->state() != ThreadState::kDead) {
      return;
    }
    ThreadId replacement = kNoThread;
    for (std::size_t i = 0; i < kernel.thread_count(); ++i) {
      Thread& cand = kernel.thread(static_cast<ThreadId>(i));
      if (cand.state() != ThreadState::kDead &&
          cand.home_domain() == client.domain) {
        replacement = cand.id();
      }
    }
    if (replacement == kNoThread) {
      result.undocumented.push_back(
          "op " + std::to_string(op) +
          ": aborted call left the client without a thread");
    } else {
      client.thread = replacement;
      kernel.thread(replacement).TakeException();
    }
  };

  for (int op = 0; op < options.operations; ++op) {
    // Refresh liveness: injected mid-call terminations kill servers without
    // going through the schedule's own terminate operation.
    int live_servers = 0;
    for (ServerCtx& server : servers) {
      server.alive = kernel.domain(server.domain).alive();
      live_servers += server.alive ? 1 : 0;
    }

    const std::uint64_t roll = rng.NextBelow(100);

    if (options.allow_termination && roll < 6 && live_servers > 1) {
      // Terminate a random live server outright.
      std::uint64_t pick = rng.NextBelow(static_cast<std::uint64_t>(live_servers));
      for (ServerCtx& server : servers) {
        if (!server.alive || pick-- != 0) {
          continue;
        }
        const Status status = runtime.TerminateDomain(server.domain);
        server.alive = false;
        ++result.terminations;
        trace_line("op=" + std::to_string(op) + " terminate server=" +
                   std::to_string(server.domain) + " status=" +
                   std::string(ErrorCodeName(status.code())));
        break;
      }
      continue;
    }

    ClientCtx& client =
        clients[rng.NextBelow(static_cast<std::uint64_t>(clients.size()))];

    if (roll < 14 && live_servers > 0) {
      // Import a live server's interface again (exercises the bind-time
      // clerk-rejection injection point).
      std::uint64_t pick = rng.NextBelow(static_cast<std::uint64_t>(live_servers));
      for (ServerCtx& server : servers) {
        if (!server.alive || pick-- != 0) {
          continue;
        }
        Result<ClientBinding*> bound = runtime.Import(cpu, client.domain,
                                                      server.name);
        ++result.imports_attempted;
        const ErrorCode code = bound.ok() ? ErrorCode::kOk
                                          : bound.status().code();
        if (bound.ok()) {
          (*bound)->set_exhaustion_policy(
              rng.NextBool(0.5) ? AStackExhaustionPolicy::kFail
                                : AStackExhaustionPolicy::kAllocateMore);
          client.bindings.push_back(*bound);
        } else if (!DocumentedImportStatus(code)) {
          result.undocumented.push_back(
              "op " + std::to_string(op) + ": import returned undocumented " +
              std::string(ErrorCodeName(code)));
        }
        trace_line("op=" + std::to_string(op) + " import client=" +
                   std::to_string(client.domain) + " server=" +
                   std::to_string(server.domain) + " status=" +
                   std::string(ErrorCodeName(code)));
        break;
      }
      continue;
    }

    // A call on a random binding — including bindings to dead servers,
    // which must fail with the documented revoked status (or, supervised,
    // recover through a rebind or the message-RPC fallback).
    const auto binding_index = static_cast<std::size_t>(rng.NextBelow(
        static_cast<std::uint64_t>(client.bindings.size())));
    ClientBinding& binding = *client.bindings[binding_index];

    if (options.async_depth > 0 && supervisor == nullptr) {
      // Async burst (docs/async.md): pipeline a seeded batch of calls
      // through an AsyncRing instead of issuing one synchronously, so the
      // armed fault kinds also fire inside the batched submit/flush legs.
      // The ring is per-burst: a poisoned ring (captured thread) dies with
      // the burst and the replacement thread is adopted below.
      struct BurstCall {
        std::uint64_t which = 0;
        std::int32_t a = 0;
        std::int32_t b = 0;
        std::int32_t sum = 0;
        std::array<std::uint8_t, kBigSize> in = {};
        std::array<std::uint8_t, kBigSize> out = {};
        CallToken token = 0;
        bool submitted = false;
        ErrorCode code = ErrorCode::kOk;
      };
      const auto burst = static_cast<int>(1 + rng.NextBelow(
          static_cast<std::uint64_t>(options.async_depth)));
      std::vector<BurstCall> burst_calls(static_cast<std::size_t>(burst));
      AsyncRing ring(runtime, binding, client.thread, options.async_depth);
      auto submit_one = [&](BurstCall& bc) -> Result<CallToken> {
        if (bc.which == 0) {
          return ring.Submit(cpu, procs.null_proc, {}, {});
        }
        if (bc.which == 1) {
          bc.a = static_cast<std::int32_t>(rng.NextInRange(-1000, 1000));
          bc.b = static_cast<std::int32_t>(rng.NextInRange(-1000, 1000));
          const CallArg args[] = {CallArg::Of(bc.a), CallArg::Of(bc.b)};
          const CallRet rets[] = {CallRet::Of(&bc.sum)};
          return ring.Submit(cpu, procs.add_proc, args, rets);
        }
        for (std::size_t i = 0; i < kBigSize; ++i) {
          bc.in[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
        }
        const CallArg args[] = {CallArg(bc.in.data(), kBigSize)};
        const CallRet rets[] = {CallRet(bc.out.data(), kBigSize)};
        return ring.Submit(cpu, procs.biginout_proc, args, rets);
      };
      for (BurstCall& bc : burst_calls) {
        bc.which = rng.NextBelow(3);
        ++result.calls_attempted;
        const Result<CallToken> token = submit_one(bc);
        if (token.ok()) {
          bc.token = *token;
          bc.submitted = true;
        } else {
          bc.code = token.status().code();
        }
      }
      ring.Drain(cpu);
      bool aborted = false;
      std::string statuses;
      for (BurstCall& bc : burst_calls) {
        if (bc.submitted) {
          const AsyncCompletion* done = ring.Find(bc.token);
          if (done == nullptr) {
            // Every drained submission must complete exactly once; a lost
            // completion is a ring bug, not a documented fault outcome.
            result.undocumented.push_back(
                "op " + std::to_string(op) + ": async completion lost");
            bc.code = ErrorCode::kCallFailed;
          } else {
            bc.code = done->status.code();
          }
          if (bc.code == ErrorCode::kOk) {
            if (bc.which == 1 && bc.sum != bc.a + bc.b) {
              result.undocumented.push_back(
                  "op " + std::to_string(op) +
                  ": async Add returned a wrong sum");
            } else if (bc.which == 2) {
              for (std::size_t i = 0; i < kBigSize; ++i) {
                if (bc.out[i] != bc.in[kBigSize - 1 - i]) {
                  result.undocumented.push_back(
                      "op " + std::to_string(op) +
                      ": async BigInOut echo corrupted");
                  break;
                }
              }
            }
          }
        }
        if (bc.code == ErrorCode::kOk) {
          ++result.calls_ok;
        } else {
          ++result.calls_failed;
        }
        if (!DocumentedCallStatus(bc.code, /*supervised=*/false)) {
          result.undocumented.push_back(
              "op " + std::to_string(op) +
              ": async call returned undocumented " +
              std::string(ErrorCodeName(bc.code)));
        }
        aborted |= bc.code == ErrorCode::kCallAborted;
        statuses += ' ';
        statuses += ErrorCodeName(bc.code);
      }
      ++result.async_bursts;
      trace_line("op=" + std::to_string(op) + " async client=" +
                 std::to_string(client.domain) + " binding=" +
                 std::to_string(binding.object().id) + " burst=" +
                 std::to_string(burst) + " status=[" + statuses.substr(1) +
                 "]");
      if (aborted) {
        adopt_replacement_thread(op, client);
      }
      continue;
    }

    const std::uint64_t which = rng.NextBelow(3);
    ++result.calls_attempted;
    int attempts = 1;
    auto issue = [&](int proc, std::span<const CallArg> args,
                     std::span<const CallRet> rets) -> Status {
      if (supervisor == nullptr) {
        return runtime.Call(cpu, client.thread, binding, proc, args, rets);
      }
      SupervisionOutcome out = supervisor->Call(
          cpu, client.thread, client.bindings[binding_index], proc, args,
          rets);
      // Continue on whatever identities supervision left us: a watchdog
      // abandonment replaced the thread, a rebind replaced the binding.
      client.thread = out.thread;
      if (out.binding != nullptr) {
        client.bindings[binding_index] = out.binding;
      }
      attempts = out.attempts;
      return out.status;
    };
    Status status = Status::Ok();
    std::string detail;
    if (which == 0) {
      status = issue(procs.null_proc, {}, {});
      detail = "Null";
    } else if (which == 1) {
      const std::int32_t a =
          static_cast<std::int32_t>(rng.NextInRange(-1000, 1000));
      const std::int32_t b =
          static_cast<std::int32_t>(rng.NextInRange(-1000, 1000));
      std::int32_t sum = 0;
      const CallArg args[] = {CallArg::Of(a), CallArg::Of(b)};
      const CallRet rets[] = {CallRet::Of(&sum)};
      status = issue(procs.add_proc, args, rets);
      if (status.ok() && sum != a + b) {
        result.undocumented.push_back("op " + std::to_string(op) +
                                      ": Add returned a wrong sum");
      }
      detail = "Add";
    } else {
      std::uint8_t in[kBigSize];
      std::uint8_t out[kBigSize] = {};
      for (std::size_t i = 0; i < kBigSize; ++i) {
        in[i] = static_cast<std::uint8_t>(rng.NextBelow(256));
      }
      const CallArg args[] = {CallArg(in, kBigSize)};
      const CallRet rets[] = {CallRet(out, kBigSize)};
      status = issue(procs.biginout_proc, args, rets);
      if (status.ok()) {
        for (std::size_t i = 0; i < kBigSize; ++i) {
          if (out[i] != in[kBigSize - 1 - i]) {
            result.undocumented.push_back(
                "op " + std::to_string(op) + ": BigInOut echo corrupted");
            break;
          }
        }
      }
      detail = "BigInOut";
    }

    if (status.ok()) {
      ++result.calls_ok;
    } else {
      ++result.calls_failed;
    }
    if (!DocumentedCallStatus(status.code(), supervisor != nullptr)) {
      result.undocumented.push_back(
          "op " + std::to_string(op) + ": call returned undocumented " +
          std::string(ErrorCodeName(status.code())));
    }
    trace_line("op=" + std::to_string(op) + " call client=" +
               std::to_string(client.domain) + " binding=" +
               std::to_string(binding.object().id) + " proc=" + detail +
               " status=" + std::string(ErrorCodeName(status.code())) +
               (supervisor != nullptr
                    ? " attempts=" + std::to_string(attempts)
                    : ""));

    if (status.code() == ErrorCode::kCallAborted) {
      adopt_replacement_thread(op, client);
    }
  }

  checker.CheckNow("teardown");
  kernel.set_fault_injector(nullptr);

  result.violations = checker.violations();
  result.violation_count = checker.violation_count();
  result.events_seen = checker.events_seen();
  result.faults_fired = injector.total_fired();
  result.distinct_fault_kinds = injector.distinct_kinds_fired();
  for (int k = 0; k < kFaultKindCount; ++k) {
    result.fired_by_kind[static_cast<std::size_t>(k)] =
        injector.fired(static_cast<FaultKind>(k));
  }
  if (supervisor != nullptr) {
    const SupervisedCall::Stats& stats = supervisor->stats();
    result.calls_recovered = static_cast<int>(stats.recovered_calls);
    result.rebinds = static_cast<int>(stats.rebinds);
    result.msg_failovers = static_cast<int>(stats.msg_failovers);
    result.deadline_expiries = static_cast<int>(stats.deadline_expiries);
    result.breaker_rejections = static_cast<int>(stats.breaker_rejections);
    result.watchdog_fires = kernel.watchdog_fires();
  }
  result.trace += "faults: " + injector.TraceString() + "\n";
  return result;
}

}  // namespace lrpc
