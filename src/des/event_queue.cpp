#include "src/des/event_queue.h"

#include "src/util/require.h"

namespace anyqos::des {

EventHandle EventQueue::schedule(double time, Action action, EventCategory category,
                                 double scheduled_at) {
  util::require(static_cast<bool>(action), "cannot schedule an empty action");
  const std::uint64_t id = next_id_++;
  const std::uint32_t slot = slots_.acquire();
  Pending& pending = slots_[slot];
  pending.action = std::move(action);
  pending.id = id;
  pending.category = category;
  pending.scheduled_at = scheduled_at;
  window_.assign(id, slot);
  heap_.push(Entry{time, id, slot});
  ++live_;
  return EventHandle{id};
}

bool EventQueue::cancel(EventHandle handle) {
  EventCategory ignored;
  return cancel(handle, ignored);
}

bool EventQueue::cancel(EventHandle handle, EventCategory& category) {
  const std::uint32_t slot = window_.find(handle.id);
  if (slot == util::IdWindow::kNone) {
    return false;
  }
  category = slots_[slot].category;
  slots_[slot].action = Action{};
  retire(handle.id, slot);
  return true;
}

void EventQueue::retire(std::uint64_t id, std::uint32_t slot) {
  slots_[slot].id = 0;
  slots_.release(slot);
  window_.vacate(id);
  --live_;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() && slots_[heap_.top().slot].id != heap_.top().id) {
    heap_.pop();
    ++tombstones_popped_;
  }
}

double EventQueue::next_time() const {
  util::require(!empty(), "next_time on an empty event queue");
  drop_cancelled();
  util::ensure(!heap_.empty(), "live count positive but heap exhausted");
  return heap_.top().time;
}

EventQueue::Fired EventQueue::pop() {
  util::require(!empty(), "pop on an empty event queue");
  drop_cancelled();
  util::ensure(!heap_.empty(), "live count positive but heap exhausted");
  const Entry top = heap_.top();
  heap_.pop();
  Pending& pending = slots_[top.slot];
  Fired fired{top.time, top.id, std::move(pending.action), pending.category,
              pending.scheduled_at};
  retire(top.id, top.slot);
  return fired;
}

}  // namespace anyqos::des
