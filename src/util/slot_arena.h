// detlint: hot-path
//
// Pool of reusable T slots addressed by 32-bit index.
//
// Slots live in fixed-size blocks, so a slot never moves once allocated
// (references stay valid) and growth never copies: a doubling vector would
// briefly hold the old and new buffers at once, which shows in peak RSS.
// Released slots go on an intrusive LIFO freelist and are reused before a
// new block is touched, so storage stays bounded by the peak number of
// slots held at once.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace anyqos::util {

template <typename T, std::uint32_t kBlockSlots = 256>
class SlotArena {
  static_assert((kBlockSlots & (kBlockSlots - 1)) == 0, "block size must be a power of two");

 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// A free slot's index (its value is whatever the last holder left).
  std::uint32_t acquire() {
    if (free_head_ == kNoSlot) {
      add_block();
    }
    const std::uint32_t slot = free_head_;
    free_head_ = node(slot).next_free;
    return slot;
  }

  /// Returns `slot` to the freelist; the caller has reset its value.
  void release(std::uint32_t slot) {
    node(slot).next_free = free_head_;
    free_head_ = slot;
  }

  T& operator[](std::uint32_t slot) { return node(slot).value; }
  const T& operator[](std::uint32_t slot) const { return node(slot).value; }

  /// Slots allocated across all blocks (held plus free).
  [[nodiscard]] std::size_t capacity() const { return blocks_.size() * kBlockSlots; }

 private:
  struct Node {
    T value{};
    std::uint32_t next_free = kNoSlot;
  };

  Node& node(std::uint32_t slot) { return blocks_[slot / kBlockSlots][slot % kBlockSlots]; }
  const Node& node(std::uint32_t slot) const {
    return blocks_[slot / kBlockSlots][slot % kBlockSlots];
  }

  void add_block() {
    const auto first = static_cast<std::uint32_t>(capacity());
    blocks_.push_back(std::make_unique<Node[]>(kBlockSlots));
    // Thread the new block so slots are handed out in index order.
    for (std::uint32_t i = kBlockSlots; i > 0; --i) {
      release(first + i - 1);
    }
  }

  std::vector<std::unique_ptr<Node[]>> blocks_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace anyqos::util
