// detlint: hot-path
//
// Id -> slot index map for monotone 1-based ids (event ids, flow ids).
//
// Both the event queue and the flow table issue ids in increasing order and
// retire most of them in roughly the same order, so a hash map is overkill:
// a power-of-two ring of 4-byte slot indices, indexed by `id & mask`, covers
// the window of ids from the oldest possibly-live one to the newest one.
// Vacating the oldest id trims the window from the front.
//
// A few ids outlive the rest by far (a fault scheduled at the start of a
// run for late in it, a flow with a long holding time) and would pin the
// window's front, so that it spans every id issued since. When the ring is
// full but at most a quarter of it is still mapped, the window's front
// survivors spill into a short sorted side list instead of the ring
// growing. Storage is therefore bounded by a small multiple of the mapped
// ids, not by the ids ever issued. Positions outside the window always hold
// kNone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace anyqos::util {

class IdWindow {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// Slot of `id`, or kNone when the id is not mapped.
  [[nodiscard]] std::uint32_t find(std::uint64_t id) const {
    if (id >= begin_ && id < end_) {
      return ring_[id & mask_];
    }
    if (id < begin_) {
      const auto it = spilled(id);
      if (it != spill_.end() && it->first == id) {
        return it->second;
      }
    }
    return kNone;
  }

  /// Maps `id` (which must not be mapped) to `slot`. Ids are normally
  /// assigned in increasing order; an id below the window (a restored flow)
  /// goes to the side list.
  void assign(std::uint64_t id, std::uint32_t slot) {
    if (id < begin_) {
      spill_.insert(spilled(id), {id, slot});
      return;
    }
    if (begin_ == end_) {
      begin_ = end_ = id;  // empty: restart the window at `id`
    }
    const std::uint64_t end = std::max(end_, id + 1);
    if (end - begin_ > ring_.size()) {
      make_room(end);
    }
    end_ = end;
    ring_[id & mask_] = slot;
    ++mapped_;
  }

  /// Unmaps `id` (which must be mapped) and trims vacated ids off the front.
  void vacate(std::uint64_t id) {
    if (id < begin_) {
      spill_.erase(spilled(id));
      return;
    }
    ring_[id & mask_] = kNone;
    --mapped_;
    trim();
  }

  /// Calls `visit(id, slot)` for every mapped id in ascending id order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const auto& [id, slot] : spill_) {
      visit(id, slot);
    }
    for (std::uint64_t id = begin_; id != end_; ++id) {
      const std::uint32_t slot = ring_[id & mask_];
      if (slot != kNone) {
        visit(id, slot);
      }
    }
  }

  /// Ring entries plus side-list entries allocated (4 and 16 bytes each).
  [[nodiscard]] std::size_t capacity() const { return ring_.size() + spill_.capacity(); }

 private:
  using Spilled = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

  [[nodiscard]] Spilled::const_iterator spilled(std::uint64_t id) const {
    return std::lower_bound(spill_.begin(), spill_.end(), id,
                            [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  }

  void trim() {
    while (begin_ != end_ && ring_[begin_ & mask_] == kNone) {
      ++begin_;
    }
  }

  /// Makes the window [begin_, end) fit the ring: spills the front when the
  /// ring is mostly vacated, grows the ring otherwise.
  void make_room(std::uint64_t end) {
    if (!ring_.empty() && mapped_ * 4 <= ring_.size()) {
      // Keep the newest half of the ring; older survivors go to the side
      // list, which stays sorted because they are all above its ids.
      const std::uint64_t new_begin = end - ring_.size() / 2;
      for (std::uint64_t id = begin_; id < std::min(new_begin, end_); ++id) {
        std::uint32_t& entry = ring_[id & mask_];
        if (entry != kNone) {
          spill_.emplace_back(id, entry);
          entry = kNone;
          --mapped_;
        }
      }
      begin_ = new_begin;
      end_ = std::max(end_, begin_);
      trim();
      return;
    }
    std::size_t capacity = std::max<std::size_t>(ring_.size() * 2, 64);
    while (capacity < end - begin_) {
      capacity *= 2;
    }
    std::vector<std::uint32_t> ring(capacity, kNone);
    const std::uint64_t mask = capacity - 1;
    for (std::uint64_t id = begin_; id != end_; ++id) {
      ring[id & mask] = ring_[id & mask_];
    }
    ring_ = std::move(ring);
    mask_ = mask;
  }

  std::vector<std::uint32_t> ring_;
  std::uint64_t mask_ = 0;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
  std::size_t mapped_ = 0;  // ring entries != kNone
  Spilled spill_;           // mapped ids below begin_, ascending
};

}  // namespace anyqos::util
