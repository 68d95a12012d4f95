// Chase–Lev work-stealing deque.
//
// The classic lock-free deque of Chase & Lev ("Dynamic circular
// work-stealing deque", SPAA 2005) with the C11 memory-ordering fixes of
// Lê, Pop, Cohen & Zappa Nardelli (PPoPP 2013):
//   * the OWNER pushes and pops at the bottom;
//   * THIEVES steal from the top with a CAS;
//   * the circular buffer grows geometrically; retired buffers are kept
//     until destruction so racing thieves never read freed memory.
//
// Elements are raw pointers (the scheduler stores Join*); ownership
// of the pointee stays with the scheduler's join records.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/common.hpp"

namespace rader::sched {

class WorkStealDeque {
 public:
  explicit WorkStealDeque(std::size_t initial_capacity = 64);
  ~WorkStealDeque() = default;

  WorkStealDeque(const WorkStealDeque&) = delete;
  WorkStealDeque& operator=(const WorkStealDeque&) = delete;

  /// Owner only: push a task at the bottom.
  void push(void* task);

  /// Owner only: pop the newest task, or nullptr if empty.
  void* pop();

  /// Any thread: steal the oldest task, or nullptr if empty/lost the race.
  void* steal();

  /// Approximate size (racy; scheduling heuristic only).
  std::size_t size_estimate() const;

  /// Approximately empty (racy; lets thieves skip drained victims without
  /// paying the steal CAS).
  bool empty() const { return size_estimate() == 0; }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<void*>[cap]) {}
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<void*>[]> slots;

    void* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, void* v) {
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
  };

  Buffer* grow(Buffer* buf, std::int64_t top, std::int64_t bottom);

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Buffer*> buffer_;
  std::vector<std::unique_ptr<Buffer>> retired_;  // owner-only access
};

}  // namespace rader::sched
