// Ref-counted frame pool: one sealed frame per transmission, shared by
// every receiver, copied only when a channel fault actually corrupts a
// receiver's copy (copy-on-corrupt).
//
// Bus::transmit used to clone the frame once per receiver so channel
// faults could stay receiver-local — N-1 payload copies (and, before the
// kernel rewrite, N-1 heap allocations) per round for a property that is
// only needed in the rare instant a fault fires. The pool inverts that:
// the master frame is copied exactly once into a slab slot, the bus's
// broadcast record and every receiving node hold an intrusive ref-counted
// handle to that slot, and a receiver whose fault mutates the bytes gets
// its own private slot at that moment. Slots recycle through a free list
// with their payload capacity intact, so the steady-state transmit path
// allocates nothing (E22).
//
// Every acquire stamps its slot with a fresh number. Bytes are frozen once
// shared, so equal stamps mean equal bytes; a decoder can key a cache on
// the stamp where a slot index would not do, because slots recycle.
//
// Handles also pin the pool itself (shared_ptr), so a handle that is
// still held when the cluster is torn down is destroyed safely regardless
// of destruction order.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "tta/frame.hpp"

namespace decos::tta {

class FramePool;

/// Intrusive ref-counted view of one pooled frame. Copying a handle is
/// two counter increments; destroying the last handle returns the slot to
/// the pool's free list (payload capacity kept).
class FrameHandle {
 public:
  FrameHandle() = default;
  FrameHandle(const FrameHandle& other);
  FrameHandle& operator=(const FrameHandle& other);
  FrameHandle(FrameHandle&& other) noexcept;
  FrameHandle& operator=(FrameHandle&& other) noexcept;
  ~FrameHandle();

  [[nodiscard]] explicit operator bool() const { return pool_ != nullptr; }
  [[nodiscard]] const Frame& operator*() const;
  [[nodiscard]] const Frame* operator->() const { return &**this; }

  /// Mutable access to the pooled frame. Legal only while this handle is
  /// the slot's sole owner (before it was shared with receivers) — the
  /// corrupt path must privatize first, never scribble on a shared slot.
  [[nodiscard]] Frame& mutate();

  /// Content identity: the number FramePool::acquire gave this slot's
  /// bytes. Unique per acquire within one pool, never reused.
  [[nodiscard]] std::uint64_t stamp() const;

  /// True when no other handle shares the slot.
  [[nodiscard]] bool unique() const;

  void reset();

 private:
  friend class FramePool;
  FrameHandle(std::shared_ptr<FramePool> pool, std::uint32_t slot)
      : pool_(std::move(pool)), slot_(slot) {}

  std::shared_ptr<FramePool> pool_;
  std::uint32_t slot_ = 0;
};

class FramePool : public std::enable_shared_from_this<FramePool> {
 public:
  /// `soft_cap` bounds the slot count the pool considers healthy. Demand
  /// beyond it is still served (correctness first) but counted as a
  /// fallback acquire — the observable signal of pool exhaustion.
  [[nodiscard]] static std::shared_ptr<FramePool> create(
      std::size_t soft_cap = 256);

  /// Copies `src` into a recycled (or new) slot under a fresh stamp and
  /// returns the owning handle. Steady state: free-list pop + field copy +
  /// payload byte copy into retained capacity — no allocation.
  [[nodiscard]] FrameHandle acquire(const Frame& src);

  /// Copy-on-corrupt: clones the frame behind `shared` into a private
  /// slot the caller may mutate.
  [[nodiscard]] FrameHandle acquire_copy(const FrameHandle& shared) {
    return acquire(*shared);
  }

  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  [[nodiscard]] std::size_t soft_cap() const { return soft_cap_; }
  /// Acquires that had to grow the pool past the soft cap.
  [[nodiscard]] std::uint64_t fallback_acquires() const {
    return fallback_acquires_;
  }
  /// Private copies made because a fault actually corrupted a delivery.
  [[nodiscard]] std::uint64_t corrupt_copies() const { return corrupt_copies_; }
  void count_corrupt_copy() { ++corrupt_copies_; }

 private:
  friend class FrameHandle;
  explicit FramePool(std::size_t soft_cap) : soft_cap_(soft_cap) {}

  struct Slot {
    Frame frame;
    std::uint32_t refs = 0;
    std::uint64_t stamp = 0;
  };

  void add_ref(std::uint32_t slot) { ++slots_[slot]->refs; }
  void release(std::uint32_t slot);

  std::size_t soft_cap_;
  std::size_t in_use_ = 0;
  std::uint64_t fallback_acquires_ = 0;
  std::uint64_t corrupt_copies_ = 0;
  std::uint64_t last_stamp_ = 0;  // stamps start at 1
  /// Stable addresses: handles cache nothing, but Frame payload capacity
  /// must survive free-list recycling.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::uint32_t> free_;
};

inline FrameHandle::FrameHandle(const FrameHandle& other)
    : pool_(other.pool_), slot_(other.slot_) {
  if (pool_) pool_->add_ref(slot_);
}

inline FrameHandle& FrameHandle::operator=(const FrameHandle& other) {
  if (this == &other) return *this;
  reset();
  pool_ = other.pool_;
  slot_ = other.slot_;
  if (pool_) pool_->add_ref(slot_);
  return *this;
}

inline FrameHandle::FrameHandle(FrameHandle&& other) noexcept
    : pool_(std::move(other.pool_)), slot_(other.slot_) {
  other.pool_ = nullptr;
}

inline FrameHandle& FrameHandle::operator=(FrameHandle&& other) noexcept {
  if (this == &other) return *this;
  reset();
  pool_ = std::move(other.pool_);
  slot_ = other.slot_;
  other.pool_ = nullptr;
  return *this;
}

inline FrameHandle::~FrameHandle() { reset(); }

inline void FrameHandle::reset() {
  if (!pool_) return;
  pool_->release(slot_);
  pool_ = nullptr;
}

inline const Frame& FrameHandle::operator*() const {
  return pool_->slots_[slot_]->frame;
}

inline Frame& FrameHandle::mutate() {
  assert(unique() && "mutating a shared frame; privatise it first");
  return pool_->slots_[slot_]->frame;
}

inline std::uint64_t FrameHandle::stamp() const {
  return pool_->slots_[slot_]->stamp;
}

inline bool FrameHandle::unique() const {
  return pool_ != nullptr && pool_->slots_[slot_]->refs == 1;
}

}  // namespace decos::tta
