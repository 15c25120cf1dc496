#include "src/lrpc/interface.h"

#include <algorithm>

#include "src/common/check.h"

namespace lrpc {

namespace {

constexpr std::size_t kSlotAlignment = 8;

std::size_t AlignSlot(std::size_t size) {
  return (size + kSlotAlignment - 1) & ~(kSlotAlignment - 1);
}

// Bucket A-stack sizes for sharing: procedures whose needs round up to the
// same power of two share a group ("procedures in the same interface having
// A-stacks of similar size can share A-stacks", Section 3.1).
std::size_t SizeBucket(std::size_t size) {
  std::size_t bucket = 64;
  while (bucket < size) {
    bucket <<= 1;
  }
  return bucket;
}

}  // namespace

Interface::Interface(InterfaceId id, std::string name, DomainId server)
    : id_(id), name_(std::move(name)), server_(server) {}

int Interface::AddProcedure(ProcedureDef def) {
  LRPC_CHECK(!sealed_);
  defs_.push_back(std::move(def));
  return static_cast<int>(defs_.size()) - 1;
}

std::size_t Interface::ComputeAStackSize(const ProcedureDef& def) {
  if (def.astack_size_override > 0) {
    return def.astack_size_override;
  }
  std::size_t total = 0;
  bool any_variable = false;
  for (const auto& p : def.params) {
    total += AlignSlot(p.ASlotSize());
    if (p.size == 0 && p.max_size > 0) {
      any_variable = true;
    }
  }
  if (any_variable) {
    // Variable-sized arguments default the stack to the Ethernet packet
    // size unless the computed need is already larger (Section 5.2).
    total = std::max(total, kDefaultVariableAStackSize);
  }
  // Even Null needs an A-stack slot to exist.
  return std::max<std::size_t>(total, kSlotAlignment);
}

std::size_t ParamOffset(const ProcedureDef& def, std::size_t param_index) {
  LRPC_CHECK(param_index < def.params.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < param_index; ++i) {
    offset += AlignSlot(def.params[i].ASlotSize());
  }
  return offset;
}

void Interface::Seal() {
  LRPC_CHECK(!sealed_);
  pdl_.clear();
  group_sizes_.clear();
  group_counts_.clear();

  std::vector<std::size_t> bucket_of_group;
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    const ProcedureDef& def = defs_[i];
    const std::size_t need = ComputeAStackSize(def);
    const std::size_t bucket = SizeBucket(need);

    int group = -1;
    for (std::size_t g = 0; g < bucket_of_group.size(); ++g) {
      if (bucket_of_group[g] == bucket) {
        group = static_cast<int>(g);
        break;
      }
    }
    if (group < 0) {
      group = static_cast<int>(bucket_of_group.size());
      bucket_of_group.push_back(bucket);
      group_sizes_.push_back(bucket);
      group_counts_.push_back(0);
    }
    // Sharing procedures draw from a common pool whose size bounds their
    // combined concurrency (a soft limit, raisable later; Section 5.2).
    group_counts_[static_cast<std::size_t>(group)] =
        std::max(group_counts_[static_cast<std::size_t>(group)],
                 def.simultaneous_calls);

    ProcedureDescriptor pd;
    pd.entry_address =
        0x10000ULL * static_cast<std::uint64_t>(id_ + 1) + 0x40ULL * i;
    pd.simultaneous_calls = def.simultaneous_calls;
    pd.window_bytes = need;
    pd.astack_size = bucket;
    pd.astack_group = group;
    pd.def = &defs_[i];

    // Inline ("register-style") eligibility: fixed sizes only, plain
    // marshaling only. Any immutability copy, conformance check or
    // by-reference re-creation needs the general path's per-parameter
    // machinery, and any variable-sized parameter needs the A-stack.
    std::size_t in_bytes = 0;
    std::size_t out_bytes = 0;
    std::size_t span = 0;
    bool eligible = true;
    for (const auto& p : def.params) {
      if (p.size == 0 || p.flags.immutable || p.flags.type_checked ||
          p.flags.by_ref || p.conformance) {
        eligible = false;
        break;
      }
      if (p.is_in()) {
        in_bytes += p.size;
      }
      if (p.is_out()) {
        out_bytes += p.size;
      }
      span += AlignSlot(p.size);
    }
    if (eligible && in_bytes <= kInlineBytesLimit &&
        out_bytes <= kInlineBytesLimit && span <= kInlineSlotSpanLimit) {
      pd.inline_eligible = true;
      pd.in_bytes = static_cast<std::uint32_t>(in_bytes);
      pd.out_bytes = static_cast<std::uint32_t>(out_bytes);
      pd.slot_span = static_cast<std::uint32_t>(span);
    }
    pdl_.push_back(pd);
  }
  astack_group_count_ = static_cast<int>(bucket_of_group.size());
  sealed_ = true;
}

Result<int> Interface::FindProcedure(std::string_view proc_name) const {
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == proc_name) {
      return static_cast<int>(i);
    }
  }
  return Status(ErrorCode::kNoSuchProcedure);
}

}  // namespace lrpc
