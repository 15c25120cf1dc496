#include "src/lrpc/server_frame.h"

#include <cstring>

#include "src/common/fast_path.h"
#include "src/lrpc/runtime.h"
#include "src/lrpc/wire.h"

namespace lrpc {

bool ServerFrame::Alerted() const {
  if (runtime_ == nullptr) {
    return false;
  }
  Thread* t = runtime_->kernel().FindThread(thread_);
  return t != nullptr && t->alerted();
}

// The server stub's share of every call: no allocation unless a parameter
// needs a private copy or the procedure outgrows the inline slot table.
LRPC_FAST_PATH_BEGIN("server frame");

// Stores what it is given and nothing else: the slot table waits for
// PrepareArguments, so a Null frame touches no slot.
ServerFrame::ServerFrame(LrpcRuntime* runtime, Processor& cpu,
                         const ProcedureDef& def, AStackRef astack,
                         DomainId server, DomainId client, ThreadId thread,
                         CopyStats* copies)
    : runtime_(runtime),
      cpu_(cpu),
      def_(def),
      astack_(astack),
      server_(server),
      client_(client),
      thread_(thread),
      copies_(copies) {}

Status ServerFrame::DecodeSlot(int index, SlotInfo* info) const {
  const auto i = static_cast<std::size_t>(index);
  const ParamDesc& p = def_.params[i];
  info->private_copy = false;
  info->out_of_band = false;
  if (regs_ != nullptr) {
    // Register-window mode: fixed-size slots at their offsets within the
    // window; eligibility rules out everything else.
    if (p.size == 0) {
      return Status(ErrorCode::kInvalidArgument,
                    "variable-sized parameter in a register window");
    }
    info->data_offset = ParamOffset(def_, i);
    info->length = p.size;
    return Status::Ok();
  }
  const std::size_t base = astack_.offset() + ParamOffset(def_, i);
  SharedSegment& segment = astack_.region->segment();

  if (p.size > 0) {
    info->data_offset = base;
    info->length = p.size;
    return Status::Ok();
  }
  // Variable-sized: length prefix (or out-of-band descriptor).
  std::uint32_t prefix = 0;
  LRPC_RETURN_IF_ERROR(segment.ReadValue(server_, base, &prefix));
  if (prefix == kOobMarker) {
    OobDescriptor descriptor{};
    LRPC_RETURN_IF_ERROR(segment.Read(server_, base, &descriptor,
                                      sizeof(descriptor)));
    info->out_of_band = true;
    info->oob_index = descriptor.segment_index;
    info->length = descriptor.length;
    info->data_offset = 0;
    return Status::Ok();
  }
  if (prefix > p.ASlotSize() - sizeof(std::uint32_t)) {
    return Status(ErrorCode::kInvalidArgument, "corrupt length prefix");
  }
  info->length = prefix;
  info->data_offset = base + sizeof(std::uint32_t);
  return Status::Ok();
}

Status ServerFrame::PrepareArguments(bool already_private) {
  const std::size_t params = def_.params.size();
  if (params > kInlineSlots) {
    LRPC_FAST_PATH_ALLOW("more parameters than the inline slot table");
    spilled_.resize(params);
    slots_ = spilled_.data();
  } else {
    slots_ = inline_slots_;
  }
  const MachineModel& model = cpu_.machine()->model();
  for (std::size_t i = 0; i < params; ++i) {
    const ParamDesc& p = def_.params[i];
    if (!p.is_in()) {
      continue;
    }
    SlotInfo& slot = slots_[i];
    LRPC_RETURN_IF_ERROR(DecodeSlot(static_cast<int>(i), &slot));

    if (p.flags.by_ref) {
      // Recreate the reference on the E-stack rather than trusting a
      // client-supplied address; the data itself stays on the A-stack.
      cpu_.Charge(CostCategory::kServerStub, model.lrpc_byref_recreate);
    }

    const bool need_private_copy =
        (p.flags.immutable || p.flags.type_checked) && !already_private;
    if (!need_private_copy) {
      if (p.flags.type_checked && already_private) {
        // The transport privatized the bytes already; only the folded
        // conformance check remains.
        cpu_.Charge(CostCategory::kTypeCheck, model.lrpc_type_check_per_arg);
        if (p.conformance) {
          const std::size_t at = private_.size();
          LRPC_FAST_PATH_ALLOW("a type-checked parameter's conformance check");
          private_.resize(at + slot.length);
          Result<std::size_t> n =
              ReadSlot(slot, private_.data() + at, slot.length);
          if (!n.ok()) {
            return n.status();
          }
          if (!p.conformance(private_.data() + at, slot.length)) {
            return Status(ErrorCode::kTypeCheckFailed,
                          "conformance check failed");
          }
        }
      }
      continue;
    }
    // Copy E: off the shared A-stack into server-private memory, so the
    // client cannot change the value mid-call. The conformance check is
    // folded into this copy.
    const std::size_t at = private_.size();
    LRPC_FAST_PATH_ALLOW("copy E of an immutable or type-checked parameter");
    private_.resize(at + slot.length);
    std::uint8_t* copy = private_.data() + at;
    if (slot.out_of_band) {
      SharedSegment* oob =
          runtime_ != nullptr ? runtime_->OobSegment(slot.oob_index) : nullptr;
      if (oob == nullptr) {
        return Status(ErrorCode::kInvalidArgument, "bad out-of-band index");
      }
      LRPC_RETURN_IF_ERROR(oob->Read(server_, 0, copy, slot.length));
    } else {
      LRPC_RETURN_IF_ERROR(astack_.region->segment().Read(
          server_, slot.data_offset, copy, slot.length));
    }
    slot.private_copy = true;
    slot.data_offset = at;
    cpu_.Charge(
        CostCategory::kArgumentCopy,
        model.lrpc_copy_per_arg +
            Micros(model.lrpc_copy_per_byte_us * static_cast<double>(slot.length)));
    if (copies_ != nullptr) {
      copies_->Count(CopyOp::kE, slot.length);
    }
    if (p.flags.type_checked) {
      cpu_.Charge(CostCategory::kTypeCheck, model.lrpc_type_check_per_arg);
      if (p.conformance && !p.conformance(copy, slot.length)) {
        return Status(ErrorCode::kTypeCheckFailed, "conformance check failed");
      }
    }
  }
  prepared_ = true;
  return Status::Ok();
}

Result<std::size_t> ServerFrame::ArgSize(int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= def_.params.size()) {
    return Status(ErrorCode::kInvalidArgument, "no such parameter");
  }
  const ParamDesc& p = def_.params[static_cast<std::size_t>(index)];
  if (!p.is_in()) {
    return Status(ErrorCode::kInvalidArgument, "not an in-parameter");
  }
  if (prepared_) {
    return slots_[static_cast<std::size_t>(index)].length;
  }
  SlotInfo info{};
  LRPC_RETURN_IF_ERROR(DecodeSlot(index, &info));
  return info.length;
}

Result<const ServerFrame::SlotInfo*> ServerFrame::PreparedSlot(
    int index) const {
  if (index < 0 || static_cast<std::size_t>(index) >= def_.params.size()) {
    return Status(ErrorCode::kInvalidArgument, "no such parameter");
  }
  if (!def_.params[static_cast<std::size_t>(index)].is_in()) {
    return Status(ErrorCode::kInvalidArgument, "not an in-parameter");
  }
  if (!prepared_) {
    return Status(ErrorCode::kInvalidArgument, "arguments not prepared");
  }
  return &slots_[static_cast<std::size_t>(index)];
}

Result<std::size_t> ServerFrame::ReadArg(int index, void* out,
                                         std::size_t len) const {
  const Result<const SlotInfo*> slot = PreparedSlot(index);
  if (!slot.ok()) {
    return slot.status();
  }
  return ReadSlot(**slot, out, len);
}

Result<std::size_t> ServerFrame::ReadSlot(const SlotInfo& slot, void* out,
                                          std::size_t len) const {
  const std::size_t n = len < slot.length ? len : slot.length;
  if (regs_ != nullptr) {
    std::memcpy(out, regs_ + slot.data_offset, n);
    return n;
  }
  if (slot.private_copy) {
    std::memcpy(out, private_.data() + slot.data_offset, n);
    return n;
  }
  if (slot.out_of_band) {
    SharedSegment* oob =
        runtime_ != nullptr ? runtime_->OobSegment(slot.oob_index) : nullptr;
    if (oob == nullptr) {
      return Status(ErrorCode::kInvalidArgument, "bad out-of-band index");
    }
    LRPC_RETURN_IF_ERROR(oob->Read(server_, 0, out, n));
    return n;
  }
  LRPC_RETURN_IF_ERROR(
      astack_.region->segment().Read(server_, slot.data_offset, out, n));
  return n;
}

Result<const std::uint8_t*> ServerFrame::ArgView(int index) const {
  const Result<const SlotInfo*> found = PreparedSlot(index);
  if (!found.ok()) {
    return found.status();
  }
  const SlotInfo& slot = **found;
  if (regs_ != nullptr) {
    return regs_ + slot.data_offset;
  }
  if (slot.private_copy) {
    return private_.data() + slot.data_offset;
  }
  if (slot.out_of_band) {
    SharedSegment* oob =
        runtime_ != nullptr ? runtime_->OobSegment(slot.oob_index) : nullptr;
    if (oob == nullptr) {
      return Status(ErrorCode::kInvalidArgument, "bad out-of-band index");
    }
    if (!oob->CanRead(server_)) {
      return Status(ErrorCode::kPermissionDenied);
    }
    return oob->DataUnchecked();
  }
  SharedSegment& segment = astack_.region->segment();
  if (!segment.CanRead(server_)) {
    return Status(ErrorCode::kPermissionDenied);
  }
  return segment.DataUnchecked() + slot.data_offset;
}

Status ServerFrame::WriteResult(int index, const void* data, std::size_t len) {
  if (index < 0 || static_cast<std::size_t>(index) >= def_.params.size()) {
    return Status(ErrorCode::kInvalidArgument, "no such parameter");
  }
  const ParamDesc& p = def_.params[static_cast<std::size_t>(index)];
  if (!p.is_out()) {
    return Status(ErrorCode::kInvalidArgument, "not an out-parameter");
  }
  if (regs_ != nullptr) {
    if (len != p.size) {
      return Status(ErrorCode::kInvalidArgument, "result size mismatch");
    }
    std::memcpy(regs_ + ParamOffset(def_, static_cast<std::size_t>(index)),
                data, len);
    return Status::Ok();
  }
  const std::size_t base =
      astack_.offset() + ParamOffset(def_, static_cast<std::size_t>(index));
  SharedSegment& segment = astack_.region->segment();
  if (p.size > 0) {
    if (len != p.size) {
      return Status(ErrorCode::kInvalidArgument, "result size mismatch");
    }
    return segment.Write(server_, base, data, len);
  }
  if (len > p.ASlotSize() - sizeof(std::uint32_t)) {
    return Status(ErrorCode::kArgumentTooLarge, "result exceeds slot");
  }
  const auto prefix = static_cast<std::uint32_t>(len);
  LRPC_RETURN_IF_ERROR(segment.WriteValue(server_, base, prefix));
  return segment.Write(server_, base + sizeof(std::uint32_t), data, len);
}

LRPC_FAST_PATH_END("server frame");

}  // namespace lrpc
