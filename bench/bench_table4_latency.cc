// Regenerates Table 4: LRPC Performance of Four Tests.
//
// "The measurements were made by performing 100,000 cross-domain calls in a
// tight loop, computing the elapsed time, and then dividing by 100,000."
// Three columns: LRPC/MP (idle-processor domain caching), LRPC (single
// processor), and Taos (SRC RPC, the Firefly's native system).

#include <cstdio>
#include <functional>

#include "src/common/table_printer.h"
#include "src/lrpc/testbed.h"
#include "src/rpc/msg_rpc.h"

namespace lrpc {
namespace {

constexpr int kCalls = 100000;

struct Row {
  const char* test;
  const char* description;
  double mp_us, lrpc_us, taos_us;
  double paper_mp, paper_lrpc, paper_taos;
};

double MeasureLrpc(bool multiprocessor, int proc_kind) {
  TestbedOptions options;
  if (multiprocessor) {
    options.processors = 2;
    options.park_idle_in_server = true;
  }
  Testbed bed(options);

  std::uint8_t big_in[kBigSize] = {};
  std::uint8_t big_out[kBigSize];
  std::int32_t sum = 0;
  auto call = [&]() {
    switch (proc_kind) {
      case 0:
        (void)bed.CallNull();
        break;
      case 1:
        (void)bed.CallAdd(1, 2, &sum);
        break;
      case 2:
        (void)bed.CallBigIn(big_in);
        break;
      default:
        (void)bed.CallBigInOut(big_in, big_out);
        break;
    }
  };
  call();  // Warm the context and E-stack association.
  const SimTime start = bed.cpu(0).clock();
  for (int i = 0; i < kCalls; ++i) {
    call();
  }
  return ToMicros(bed.cpu(0).clock() - start) / kCalls;
}

double MeasureTaos(int proc_kind) {
  Machine machine(MachineModel::CVaxFirefly(), 1);
  Kernel kernel(machine);
  MsgRpcSystem system(kernel, MsgRpcMode::kSrcFirefly);
  const DomainId client = kernel.CreateDomain({.name = "client"});
  const DomainId server = kernel.CreateDomain({.name = "server"});
  const ThreadId thread = kernel.CreateThread(client);
  Interface iface(0, "paper.Measures", server);
  int null_proc, add_proc, bigin_proc, biginout_proc;
  PaperCounters counters;
  AddPaperProcedures(&iface, &null_proc, &add_proc, &bigin_proc,
                     &biginout_proc, counters);
  iface.Seal();
  MsgServer* msg_server = system.RegisterServer(server, &iface);
  MsgBinding binding = system.Bind(client, msg_server);
  Processor& cpu = machine.processor(0);

  std::uint8_t big_in[kBigSize] = {};
  std::uint8_t big_out[kBigSize];
  std::int32_t a = 1, b = 2, sum = 0;
  const CallArg add_args[] = {CallArg::Of(a), CallArg::Of(b)};
  const CallRet add_rets[] = {CallRet::Of(&sum)};
  const CallArg big_args[] = {CallArg(big_in, kBigSize)};
  const CallRet big_rets[] = {CallRet(big_out, kBigSize)};
  auto call = [&]() {
    switch (proc_kind) {
      case 0:
        (void)system.Call(cpu, thread, binding, null_proc, {}, {});
        break;
      case 1:
        (void)system.Call(cpu, thread, binding, add_proc, add_args, add_rets);
        break;
      case 2:
        (void)system.Call(cpu, thread, binding, bigin_proc, big_args, {});
        break;
      default:
        (void)system.Call(cpu, thread, binding, biginout_proc, big_args,
                          big_rets);
        break;
    }
  };
  call();
  const SimTime start = cpu.clock();
  for (int i = 0; i < kCalls; ++i) {
    call();
  }
  return ToMicros(cpu.clock() - start) / kCalls;
}

}  // namespace
}  // namespace lrpc

int main() {
  using namespace lrpc;

  std::printf("== Table 4: LRPC Performance of Four Tests (microseconds) ==\n");
  std::printf("(%d calls per cell, C-VAX Firefly model)\n\n", kCalls);

  Row rows[] = {
      {"Null", "the Null cross-domain call", 0, 0, 0, 125, 157, 464},
      {"Add", "two 4-byte arguments, one 4-byte result", 0, 0, 0, 130, 164,
       480},
      {"BigIn", "one 200-byte argument", 0, 0, 0, 173, 192, 539},
      {"BigInOut", "200-byte argument and result", 0, 0, 0, 219, 227, 636},
  };
  for (int i = 0; i < 4; ++i) {
    rows[i].mp_us = MeasureLrpc(/*multiprocessor=*/true, i);
    rows[i].lrpc_us = MeasureLrpc(/*multiprocessor=*/false, i);
    rows[i].taos_us = MeasureTaos(i);
  }

  TablePrinter table({"Test", "LRPC/MP", "LRPC", "Taos", "paper MP",
                      "paper LRPC", "paper Taos"});
  for (const Row& row : rows) {
    table.AddRow({row.test, TablePrinter::Num(row.mp_us, 0),
                  TablePrinter::Num(row.lrpc_us, 0),
                  TablePrinter::Num(row.taos_us, 0),
                  TablePrinter::Num(row.paper_mp, 0),
                  TablePrinter::Num(row.paper_lrpc, 0),
                  TablePrinter::Num(row.paper_taos, 0)});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf(
      "LRPC is roughly %.1fx faster than SRC RPC on the Null call\n"
      "(paper: \"roughly 3 times faster\"); the idle-processor exchange\n"
      "saves the two TLB-invalidating context switches (157 -> 125 us).\n",
      rows[0].taos_us / rows[0].lrpc_us);
  return 0;
}
