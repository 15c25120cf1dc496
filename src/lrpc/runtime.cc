#include "src/lrpc/runtime.h"

#include <cstring>
#include <set>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/lrpc/proc_transport.h"
#include "src/lrpc/wire.h"

namespace lrpc {

Interface* LrpcRuntime::CreateInterface(DomainId server, std::string name) {
  const auto id = static_cast<InterfaceId>(interfaces_.size());
  interfaces_.push_back(
      std::make_unique<Interface>(id, std::move(name), server));
  return interfaces_.back().get();
}

Clerk& LrpcRuntime::clerk(DomainId domain) {
  const auto index = static_cast<std::size_t>(domain);
  if (index >= clerks_.size()) {
    clerks_.resize(index + 1);
  }
  if (!clerks_[index]) {
    clerks_[index] = std::make_unique<Clerk>(domain);
  }
  return *clerks_[index];
}

Status LrpcRuntime::Export(Interface* iface) {
  LRPC_CHECK(iface != nullptr);
  Domain* server = kernel_.FindDomain(iface->server());
  if (server == nullptr || !server->alive()) {
    return Status(ErrorCode::kNoSuchDomain, "exporting domain not alive");
  }
  if (!iface->sealed()) {
    iface->Seal();
  }
  Clerk& server_clerk = clerk(iface->server());
  server_clerk.AddExport(iface);

  ExportEntry entry;
  entry.name = iface->name();
  entry.interface_id = iface->id();
  entry.server = iface->server();
  entry.node = server->node();
  entry.clerk = &server_clerk;
  LRPC_RETURN_IF_ERROR(names_.Register(std::move(entry)));
  LRPC_LOG(kInfo) << "exported interface '" << iface->name() << "' ("
                  << iface->procedure_count() << " procedures) from domain "
                  << iface->server();
  return Status::Ok();
}

Result<ClientBinding*> LrpcRuntime::Import(Processor& cpu, DomainId client_id,
                                           std::string_view name) {
  Domain* client = kernel_.FindDomain(client_id);
  if (client == nullptr || !client->alive()) {
    return Status(ErrorCode::kNoSuchDomain, "importing domain not alive");
  }

  // The import call goes via the kernel: the importer waits while the
  // kernel notifies the server's waiting clerk (Section 3.1). Bind time is
  // off the critical path but still costs a pair of traps.
  kernel_.ChargeTrap(cpu);

  Result<ExportEntry> entry = names_.Lookup(name);
  if (!entry.ok()) {
    return entry.status();
  }

  const bool remote = entry->node != client->node();
  Result<const Interface*> iface_result =
      entry->clerk->HandleImport(client_id, entry->interface_id,
                                 kernel_.fault_injector());
  if (!iface_result.ok()) {
    return iface_result.status();
  }
  const Interface* iface = *iface_result;

  // The kernel creates the Binding Object...
  BindingRecord& record = kernel_.bindings().Create(
      client_id, entry->server, entry->interface_id, iface, remote);
  BindingObject object;
  object.id = record.id;
  object.nonce = record.nonce;
  object.remote = remote;

  auto binding =
      std::make_unique<ClientBinding>(client_id, object, iface, &record);
  if (backend_ == RuntimeBackend::kParallelHost) {
    // Growth registers free-list nodes, which only a single thread may do;
    // concurrent callers get the bind-time A-stacks and no more.
    binding->set_exhaustion_policy(AStackExhaustionPolicy::kFail);
  }

  // ...and, for each A-stack sharing group, pair-wise allocates the
  // bind-time A-stacks in a single contiguous region (fast validation) and
  // hands the client the A-stack list (Section 3.1), under the lock
  // discipline the kernel's binding table was given before the first
  // import. On a host machine each processor gets a slot in front of the
  // list; the simulator keeps the paper's list alone. Remote bindings have
  // no shared A-stacks: calls go through the network path.
  if (!remote) {
    const int slots =
        machine().simulates_costs() ? 0 : machine().processor_count();
    for (int group = 0; group < iface->astack_group_count(); ++group) {
      AStackRegion* region = kernel_.AllocateAStacks(
          record, iface->group_astack_size(group),
          iface->group_astack_count(group), /*secondary=*/false);
      auto list = std::make_unique<ParFreeList>(
          iface->name() + ".group" + std::to_string(group),
          kernel_.bindings().lock_free(), slots);
      list->AddRegion(cpu, region);
      binding->AddFreeList(std::move(list));
    }
  }

  kernel_.ChargeTrap(cpu);  // Return from the import call.
  LRPC_LOG(kInfo) << "domain " << client_id << " imported '" << name
                  << "' (binding " << object.id
                  << (remote ? ", remote)" : ")");
  if (tracer_ != nullptr) {
    TraceEvent event;
    event.kind = TraceEventKind::kBind;
    event.start = event.end = cpu.clock();
    event.client = client_id;
    event.server = entry->server;
    tracer_->Record(event);
  }
  bindings_.push_back(std::move(binding));
  return bindings_.back().get();
}

Status LrpcRuntime::GrowAStacks(Processor& cpu, ClientBinding& binding,
                                int group) {
  const Interface* iface = binding.interface_spec();
  const std::size_t size = iface->group_astack_size(group);
  const int count = iface->group_astack_count(group);
  // "It is unlikely that space contiguous to the original A-stacks will be
  // found, but other space can be used": the growth region is secondary and
  // will validate more slowly (Section 5.2).
  AStackRegion* region =
      kernel_.AllocateAStacks(*binding.record(), size, count, /*secondary=*/true);
  binding.free_list(group).AddRegion(cpu, region);
  LRPC_LOG(kDebug) << "grew binding " << binding.object().id << " group "
                   << group << " by " << count << " secondary A-stacks";
  return Status::Ok();
}

void LrpcRuntime::AuditAStacks(bool quiescent,
                               std::vector<std::string>& found) const {
  for (const auto& binding : bindings_) {
    const BindingRecord* record = binding->record();
    if (record == nullptr || record->revoked || record->remote) {
      // A revoked binding's unwind paths drop A-stacks by design; there is
      // nothing left to conserve.
      continue;
    }
    const auto report = [&](const std::string& what) {
      found.push_back("binding " + std::to_string(record->id) + what);
    };
    int free = 0;
    std::set<std::pair<const AStackRegion*, int>> seen;
    for (int group = 0; group < binding->free_list_count(); ++group) {
      const ParFreeList& list = binding->free_list(group);
      const std::vector<AStackRef> free_now = list.Snapshot();
      if (static_cast<int>(free_now.size()) > list.registered()) {
        report(" group " + std::to_string(group) +
               ": the free list is longer than its registered set "
               "(corrupted)");
      }
      for (const AStackRef& ref : free_now) {
        ++free;
        if (ref.linkage().in_use) {
          report(" frees A-stack " + std::to_string(ref.index) +
                 " that is still in use (double free)");
        }
        if (!seen.emplace(ref.region, ref.index).second) {
          report(" frees A-stack " + std::to_string(ref.index) + " twice");
        }
      }
    }
    int claimed = 0;
    for (const auto& region : record->regions) {
      for (int i = 0; i < region->count(); ++i) {
        claimed += region->linkage(i).in_use ? 1 : 0;
      }
    }
    if (quiescent && claimed > 0) {
      report(": " + std::to_string(claimed) +
             " A-stacks are still claimed with no call outstanding (lost)");
    }
    if (free + claimed != binding->allocated_astacks()) {
      report(" conservation: " + std::to_string(free) + " free + " +
             std::to_string(claimed) + " in use != " +
             std::to_string(binding->allocated_astacks()) +
             " allocated (leak or double free)");
    }
  }
}

SharedSegment* LrpcRuntime::OobSegment(std::uint64_t index) {
  MutexLock guard(oob_mutex_);
  if (index >= oob_segments_.size()) {
    return nullptr;
  }
  return oob_segments_[static_cast<std::size_t>(index)].get();
}

Result<std::uint64_t> LrpcRuntime::AllocateOobSegment(std::size_t size,
                                                      DomainId client,
                                                      DomainId server) {
  MutexLock guard(oob_mutex_);
  // Reuse a released segment when one is big enough: out-of-band transfers
  // are per-call, so without reuse a long-running client would leak a
  // segment per oversized call.
  for (std::size_t i = 0; i < oob_free_list_.size(); ++i) {
    const std::uint64_t index = oob_free_list_[i];
    SharedSegment* candidate =
        oob_segments_[static_cast<std::size_t>(index)].get();
    if (candidate->size() >= size) {
      oob_free_list_.erase(oob_free_list_.begin() +
                           static_cast<std::ptrdiff_t>(i));
      candidate->GrantMapping(client, MapRights::kReadWrite);
      candidate->GrantMapping(server, MapRights::kReadWrite);
      return index;
    }
  }
  auto segment = std::make_unique<SharedSegment>(size);
  segment->GrantMapping(client, MapRights::kReadWrite);
  segment->GrantMapping(server, MapRights::kReadWrite);
  oob_segments_.push_back(std::move(segment));
  return static_cast<std::uint64_t>(oob_segments_.size() - 1);
}

void LrpcRuntime::ReleaseOobSegment(std::uint64_t index) {
  MutexLock guard(oob_mutex_);
  if (index >= oob_segments_.size()) {
    return;
  }
  oob_free_list_.push_back(index);
}

std::size_t LrpcRuntime::LiveOobSegments() const {
  MutexLock guard(oob_mutex_);
  return oob_segments_.size() - oob_free_list_.size();
}

Status LrpcRuntime::MarshalArguments(Processor& cpu, DomainId client,
                                     const ProcedureDef& def, AStackRef astack,
                                     std::span<const CallArg> args,
                                     CallStats* stats,
                                     std::vector<std::uint64_t>* oob_used) {
  const MachineModel& model = cpu.machine()->model();
  SharedSegment& segment = astack.region->segment();
  std::size_t arg_index = 0;
  for (std::size_t i = 0; i < def.params.size(); ++i) {
    const ParamDesc& p = def.params[i];
    if (!p.is_in()) {
      continue;
    }
    if (arg_index >= args.size()) {
      return Status(ErrorCode::kInvalidArgument, "too few arguments");
    }
    const CallArg& arg = args[arg_index++];
    const std::size_t slot = astack.offset() + ParamOffset(def, i);

    if (p.size > 0) {
      if (arg.len != p.size) {
        return Status(ErrorCode::kInvalidArgument, "fixed argument size mismatch");
      }
      // Copy A: the only copy most arguments ever see — from the client's
      // stack straight onto the pair-wise shared A-stack.
      LRPC_RETURN_IF_ERROR(segment.Write(client, slot, arg.data, arg.len));
    } else if (arg.len <= p.ASlotSize() - sizeof(std::uint32_t)) {
      const auto prefix = static_cast<std::uint32_t>(arg.len);
      LRPC_RETURN_IF_ERROR(segment.WriteValue(client, slot, prefix));
      LRPC_RETURN_IF_ERROR(
          segment.Write(client, slot + sizeof(std::uint32_t), arg.data, arg.len));
    } else {
      // Too large for the A-stack: transfer through an out-of-band memory
      // segment and leave a descriptor in the slot (Section 5.2).
      Result<std::uint64_t> oob =
          AllocateOobSegment(arg.len, client, astack.region->server());
      if (!oob.ok()) {
        return oob.status();
      }
      // Through the locked accessor: the vector's storage moves whenever a
      // concurrent call allocates, so an unlocked element access is a race
      // (caught by -Wthread-safety once oob_segments_ became GUARDED_BY).
      LRPC_RETURN_IF_ERROR(
          OobSegment(*oob)->Write(client, 0, arg.data, arg.len));
      OobDescriptor descriptor;
      descriptor.marker = kOobMarker;
      descriptor.length = static_cast<std::uint32_t>(arg.len);
      descriptor.segment_index = *oob;
      if (oob_used != nullptr) {
        oob_used->push_back(*oob);
      }
      LRPC_RETURN_IF_ERROR(
          segment.Write(client, slot, &descriptor, sizeof(descriptor)));
      cpu.Charge(CostCategory::kArgumentCopy, model.lrpc_out_of_band_setup);
      if (stats != nullptr) {
        stats->used_out_of_band = true;
      }
    }
    cpu.Charge(
        CostCategory::kArgumentCopy,
        model.lrpc_copy_per_arg +
            Micros(model.lrpc_copy_per_byte_us * static_cast<double>(arg.len)));
    if (stats != nullptr) {
      stats->copies.Count(CopyOp::kA, arg.len);
      stats->astack_bytes += arg.len;
    }
  }
  if (arg_index != args.size()) {
    return Status(ErrorCode::kInvalidArgument, "too many arguments");
  }
  return Status::Ok();
}

Status LrpcRuntime::UnmarshalResults(Processor& cpu, DomainId client,
                                     const ProcedureDef& def, AStackRef astack,
                                     std::span<const CallRet> rets,
                                     CallStats* stats) {
  const MachineModel& model = cpu.machine()->model();
  SharedSegment& segment = astack.region->segment();
  std::size_t ret_index = 0;
  for (std::size_t i = 0; i < def.params.size(); ++i) {
    const ParamDesc& p = def.params[i];
    if (!p.is_out()) {
      continue;
    }
    if (ret_index >= rets.size()) {
      return Status(ErrorCode::kInvalidArgument, "too few result destinations");
    }
    const CallRet& ret = rets[ret_index++];
    const std::size_t slot = astack.offset() + ParamOffset(def, i);

    std::size_t copied = 0;
    if (p.size > 0) {
      if (ret.len < p.size) {
        return Status(ErrorCode::kInvalidArgument, "result buffer too small");
      }
      // Copy F: from the A-stack into the final destination the caller
      // specified — no intermediate hop adds safety (Section 3.5).
      LRPC_RETURN_IF_ERROR(segment.Read(client, slot, ret.data, p.size));
      copied = p.size;
    } else {
      std::uint32_t prefix = 0;
      LRPC_RETURN_IF_ERROR(segment.ReadValue(client, slot, &prefix));
      if (prefix == kOobMarker || prefix > ret.len) {
        return Status(ErrorCode::kInvalidArgument, "result larger than buffer");
      }
      LRPC_RETURN_IF_ERROR(
          segment.Read(client, slot + sizeof(std::uint32_t), ret.data, prefix));
      copied = prefix;
    }
    cpu.Charge(
        CostCategory::kArgumentCopy,
        model.lrpc_copy_per_arg +
            Micros(model.lrpc_copy_per_byte_us * static_cast<double>(copied)));
    if (stats != nullptr) {
      stats->copies.Count(CopyOp::kF, copied);
      stats->astack_bytes += copied;
    }
  }
  if (ret_index != rets.size()) {
    return Status(ErrorCode::kInvalidArgument, "too many result destinations");
  }
  return Status::Ok();
}

Status LrpcRuntime::TerminateDomain(DomainId domain) {
  names_.WithdrawAllFrom(domain);
  if (proc_ != nullptr) {
    // Kill/reap the real process and reclaim its shared segments before the
    // collector runs; idempotent when the process is already a corpse.
    proc_->OnDomainTerminated(domain);
  }
  const Status status = kernel_.TerminateDomain(domain);
  if (tracer_ != nullptr && status.ok()) {
    TraceEvent event;
    event.kind = TraceEventKind::kTerminate;
    event.server = domain;
    tracer_->Record(event);
  }
  return status;
}

}  // namespace lrpc
