#include "src/shm/astack.h"

#include "src/common/check.h"

namespace lrpc {

AStackRegion::AStackRegion(DomainId client, DomainId server,
                           std::size_t astack_size, int count, bool secondary)
    : client_(client),
      server_(server),
      astack_size_(astack_size),
      count_(count),
      secondary_(secondary),
      segment_(astack_size * static_cast<std::size_t>(count)) {
  LRPC_CHECK(astack_size > 0);
  LRPC_CHECK(count > 0);
  linkages_.resize(static_cast<std::size_t>(count));
  slot_state_.assign(static_cast<std::size_t>(count), AStackSlotState{});
  // Pair-wise mapping: read-write in exactly the two party domains.
  segment_.GrantMapping(client, MapRights::kReadWrite);
  segment_.GrantMapping(server, MapRights::kReadWrite);
}

Result<int> AStackRegion::ValidateOffset(std::size_t offset) const {
  // Range check plus alignment to an A-stack base; this is the "simple
  // range check" the contiguous layout buys (Section 5.2).
  if (offset >= astack_size_ * static_cast<std::size_t>(count_)) {
    return Status(ErrorCode::kInvalidAStack, "offset outside region");
  }
  if (offset % astack_size_ != 0) {
    return Status(ErrorCode::kInvalidAStack, "offset not an A-stack base");
  }
  return static_cast<int>(offset / astack_size_);
}

void AStackRegion::InvalidateAllLinkages() {
  for (auto& linkage : linkages_) {
    linkage.valid = false;
  }
}

}  // namespace lrpc
