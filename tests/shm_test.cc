#include <gtest/gtest.h>

#include <cstring>

#include "src/shm/astack.h"
#include "src/shm/par_free_list.h"
#include "src/shm/segment.h"
#include "src/sim/machine.h"

namespace lrpc {
namespace {

constexpr DomainId kClient = 1;
constexpr DomainId kServer = 2;
constexpr DomainId kThirdParty = 3;

// --- SharedSegment: the pair-wise protection story of Section 3.5. ---

TEST(SegmentTest, PairWiseMappingGrantsAccess) {
  SharedSegment seg(128);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.GrantMapping(kServer, MapRights::kReadWrite);

  const std::uint32_t value = 0xdeadbeef;
  ASSERT_TRUE(seg.WriteValue(kClient, 0, value).ok());
  std::uint32_t readback = 0;
  ASSERT_TRUE(seg.ReadValue(kServer, 0, &readback).ok());
  EXPECT_EQ(readback, value);
}

TEST(SegmentTest, ThirdPartyDomainIsLockedOut) {
  SharedSegment seg(128);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.GrantMapping(kServer, MapRights::kReadWrite);

  std::uint8_t buf[4] = {};
  EXPECT_EQ(seg.Read(kThirdParty, 0, buf, 4).code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(seg.Write(kThirdParty, 0, buf, 4).code(),
            ErrorCode::kPermissionDenied);
}

TEST(SegmentTest, ReadOnlyMappingRejectsWrites) {
  SharedSegment seg(64);
  seg.GrantMapping(kClient, MapRights::kRead);
  std::uint8_t b = 1;
  EXPECT_EQ(seg.Write(kClient, 0, &b, 1).code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(seg.Read(kClient, 0, &b, 1).ok());
}

TEST(SegmentTest, RevokeMappingCutsOffAccess) {
  SharedSegment seg(64);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.RevokeMapping(kClient);
  std::uint8_t b = 0;
  EXPECT_EQ(seg.Read(kClient, 0, &b, 1).code(), ErrorCode::kPermissionDenied);
}

TEST(SegmentTest, BoundsChecked) {
  SharedSegment seg(16);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  std::uint8_t buf[8] = {};
  EXPECT_EQ(seg.Write(kClient, 12, buf, 8).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(seg.Read(kClient, 17, buf, 1).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(seg.Write(kClient, 8, buf, 8).ok());
}

TEST(SegmentTest, SharedBytesAreReallyShared) {
  // A write by the client is immediately visible to the server: the
  // asynchronous-change hazard the paper accepts for mutable parameters.
  SharedSegment seg(32);
  seg.GrantMapping(kClient, MapRights::kReadWrite);
  seg.GrantMapping(kServer, MapRights::kReadWrite);
  std::uint32_t v = 1;
  ASSERT_TRUE(seg.WriteValue(kClient, 0, v).ok());
  v = 2;
  ASSERT_TRUE(seg.WriteValue(kClient, 0, v).ok());  // Mid-call mutation.
  std::uint32_t seen = 0;
  ASSERT_TRUE(seg.ReadValue(kServer, 0, &seen).ok());
  EXPECT_EQ(seen, 2u);
}

// --- AStackRegion ---

TEST(AStackRegionTest, PairWiseMappingIsAutomatic) {
  AStackRegion region(kClient, kServer, 256, 5, /*secondary=*/false);
  EXPECT_TRUE(region.segment().CanWrite(kClient));
  EXPECT_TRUE(region.segment().CanWrite(kServer));
  EXPECT_FALSE(region.segment().CanRead(kThirdParty));
}

TEST(AStackRegionTest, ValidateOffsetAcceptsBases) {
  AStackRegion region(kClient, kServer, 256, 5, false);
  for (int i = 0; i < 5; ++i) {
    Result<int> idx = region.ValidateOffset(region.OffsetOf(i));
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(*idx, i);
  }
}

TEST(AStackRegionTest, ValidateOffsetRejectsMisaligned) {
  AStackRegion region(kClient, kServer, 256, 5, false);
  EXPECT_EQ(region.ValidateOffset(100).code(), ErrorCode::kInvalidAStack);
}

TEST(AStackRegionTest, ValidateOffsetRejectsOutOfRange) {
  AStackRegion region(kClient, kServer, 256, 5, false);
  EXPECT_EQ(region.ValidateOffset(256 * 5).code(), ErrorCode::kInvalidAStack);
  EXPECT_EQ(region.ValidateOffset(256 * 7).code(), ErrorCode::kInvalidAStack);
}

TEST(AStackRegionTest, LinkageLocatableFromAStack) {
  AStackRegion region(kClient, kServer, 128, 3, false);
  region.linkage(1).caller_thread = 42;
  AStackRef ref{&region, 1};
  EXPECT_EQ(ref.linkage().caller_thread, 42);
}

TEST(AStackRegionTest, InvalidateAllLinkages) {
  AStackRegion region(kClient, kServer, 128, 3, false);
  region.InvalidateAllLinkages();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(region.linkage(i).valid);
  }
}

TEST(AStackRegionTest, EStackAssociationPersists) {
  AStackRegion region(kClient, kServer, 128, 2, false);
  EXPECT_EQ(region.estack_of(0), -1);
  region.set_estack(0, 7);
  EXPECT_EQ(region.estack_of(0), 7);
}

// --- The A-stack free list on a simulated machine ---

class AStackFreeListTest : public ::testing::Test {
 protected:
  AStackFreeListTest()
      : machine_(MachineModel::CVaxFirefly(), 1),
        region_(kClient, kServer, 128, 5, false),
        list_("test", /*lock_free=*/true) {}

  Machine machine_;
  AStackRegion region_;
  ParFreeList list_;
};

TEST_F(AStackFreeListTest, LifoOrder) {
  Processor& cpu = machine_.processor(0);
  for (int i = 0; i < 3; ++i) {
    list_.Register({&region_, i});
  }
  for (int i = 2; i >= 0; --i) {
    ASSERT_EQ(list_.Pop(cpu)->index, i);
  }
  list_.Push(cpu, {&region_, 0});
  list_.Push(cpu, {&region_, 1});
  list_.Push(cpu, {&region_, 2});
  // "The stub manages the A-stacks ... as a LIFO queue" (Section 3.2):
  // the most recently pushed comes back first (it is the one whose E-stack
  // association and cache lines are warm).
  EXPECT_EQ(list_.Pop(cpu)->index, 2);
  EXPECT_EQ(list_.Pop(cpu)->index, 1);
  EXPECT_EQ(list_.Pop(cpu)->index, 0);
}

TEST_F(AStackFreeListTest, EmptyPopReportsExhaustion) {
  Processor& cpu = machine_.processor(0);
  EXPECT_EQ(list_.Pop(cpu).code(), ErrorCode::kAStacksExhausted);
}

TEST_F(AStackFreeListTest, HeldChargeDefinesLockHoldTime) {
  Processor& cpu = machine_.processor(0);
  list_.Register({&region_, 0});
  Result<AStackRef> ref = list_.Pop(cpu, Micros(1.5));
  ASSERT_TRUE(ref.ok());
  list_.Push(cpu, *ref, Micros(1.5));
  EXPECT_EQ(list_.sim_lock().total_hold(), Micros(3));
  EXPECT_EQ(list_.sim_lock().acquisitions(), 2u);
}

TEST_F(AStackFreeListTest, AddedRegionsGrowTheListInIndexOrder) {
  // Section 5.2 growth: a later region joins the list single-threaded, on
  // top of whatever is still free.
  Processor& cpu = machine_.processor(0);
  AStackRegion secondary(kClient, kServer, 128, 20, /*secondary=*/true);
  list_.AddRegion(cpu, &region_);
  list_.AddRegion(cpu, &secondary);
  EXPECT_EQ(list_.registered(), 25);
  EXPECT_EQ(list_.Pop(cpu)->region, &secondary);
  EXPECT_EQ(list_.Snapshot().size(), 24u);
  EXPECT_EQ(list_.Snapshot().back(), (AStackRef{&region_, 0}));
}

}  // namespace
}  // namespace lrpc
