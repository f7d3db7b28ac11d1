// Work-stealing task runner for dynamic task trees (the refinement
// frontier of the X_I search, core/search_shard.cpp). There is no barrier
// per refinement level, so no level waits on its slowest cell: every
// worker owns a Chase-Lev deque, pushes spawned children to its own
// bottom (LIFO: deepest-first, keeping the frontier small) and steals
// from other workers' tops when empty.
//
// The deque is the classic Chase-Lev growable ring with the C11
// memory-order discipline of Le et al., "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP 2013): the owner pushes
// and pops at bottom, thieves CAS top; slots are relaxed atomics; retired
// ring buffers are kept alive until the deque dies so a racing thief can
// still read a stale buffer safely.
//
// Determinism: the runner makes NO ordering promises — callers that need
// deterministic output must tag items with sequence numbers and merge
// results afterwards (see DESIGN.md section 11).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace dwv::parallel {

/// Single-owner double-ended work queue with lock-free stealing.
template <typename T>
class WorkStealDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "deque slots are relaxed atomics; T must be trivially "
                "copyable (use a pointer or an index)");

 public:
  explicit WorkStealDeque(std::size_t initial_capacity = 256) {
    rings_.push_back(std::make_unique<Ring>(initial_capacity));
    ring_.store(rings_.back().get(), std::memory_order_relaxed);
  }

  /// Owner only: push at bottom.
  void push(T v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* a = ring_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) a = grow(b, t);
    a->put(b, v);
    // Release store (not fence + relaxed): the payload-publication edge to
    // steal()'s acquire load of bottom_ is the same, but standalone fences
    // are invisible to TSan, which would flag the stolen item's contents.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: pop at bottom (LIFO). False when empty.
  bool pop(T& out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* a = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    bool ok = false;
    if (t <= b) {
      out = a->get(b);
      ok = true;
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
          ok = false;
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return ok;
  }

  /// Any thread: steal from top (FIFO). False when empty or lost a race.
  bool steal(T& out) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    Ring* a = ring_.load(std::memory_order_acquire);
    T v = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return false;
    out = v;
    return true;
  }

 private:
  struct Ring {
    explicit Ring(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          slots(std::make_unique<std::atomic<T>[]>(cap)) {
      assert((cap & mask) == 0 && "capacity must be a power of two");
    }
    T get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T v) {
      slots[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<T>[]> slots;
  };

  // Owner only. The old ring stays in rings_ (alive, unmodified) because
  // a concurrent thief may still read from it after the ring_ swap.
  Ring* grow(std::int64_t b, std::int64_t t) {
    Ring* old = ring_.load(std::memory_order_relaxed);
    auto bigger = std::make_unique<Ring>(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    Ring* neu = bigger.get();
    rings_.push_back(std::move(bigger));
    ring_.store(neu, std::memory_order_release);
    return neu;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_{nullptr};
  std::vector<std::unique_ptr<Ring>> rings_;  // owner-mutated only
};

/// Per-worker handle passed to the work_steal_run body: spawn children,
/// drain the own deque (to fill a lane batch), identify the worker.
template <typename T>
class WorkStealContext {
 public:
  WorkStealContext(std::size_t worker, WorkStealDeque<T>* deque,
                   std::atomic<std::int64_t>* pending)
      : worker_(worker), deque_(deque), pending_(pending) {}

  /// Index of this worker in [0, threads).
  std::size_t worker() const { return worker_; }

  /// Makes a new work item visible (to this worker first — LIFO).
  void spawn(T v) {
    pending_->fetch_add(1, std::memory_order_relaxed);
    deque_->push(v);
  }

  /// Pops another item off this worker's own deque, e.g. to widen the
  /// current lane batch. False when the deque is empty.
  bool try_pop(T& out) {
    if (!deque_->pop(out)) return false;
    ++consumed_;
    return true;
  }

  // Runner internals.
  std::size_t take_consumed() {
    const std::size_t c = consumed_;
    consumed_ = 0;
    return c;
  }

 private:
  std::size_t worker_;
  WorkStealDeque<T>* deque_;
  std::atomic<std::int64_t>* pending_;
  std::size_t consumed_ = 0;
};

/// Runs `body(item, ctx)` over the task tree seeded with `roots` across
/// `threads` workers (the calling thread is worker 0). The body may call
/// ctx.spawn() to add work and ctx.try_pop() to drain its own deque.
/// Returns when every item has been processed.
template <typename T, typename Body>
void work_steal_run(std::size_t threads, const std::vector<T>& roots,
                    Body&& body) {
  if (threads < 1) threads = 1;
  std::atomic<std::int64_t> pending{
      static_cast<std::int64_t>(roots.size())};
  std::vector<std::unique_ptr<WorkStealDeque<T>>> deques;
  deques.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    deques.push_back(std::make_unique<WorkStealDeque<T>>());
  for (std::size_t i = 0; i < roots.size(); ++i)
    deques[i % threads]->push(roots[i]);

  const auto worker = [&](std::size_t id) {
    WorkStealContext<T> ctx(id, deques[id].get(), &pending);
    T item;
    for (;;) {
      bool got = deques[id]->pop(item);
      for (std::size_t v = 1; v < threads && !got; ++v)
        got = deques[(id + v) % threads]->steal(item);
      if (!got) {
        if (pending.load(std::memory_order_acquire) == 0) return;
        std::this_thread::yield();
        continue;
      }
      body(item, ctx);
      const std::int64_t done =
          static_cast<std::int64_t>(1 + ctx.take_consumed());
      pending.fetch_sub(done, std::memory_order_acq_rel);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t id = 1; id < threads; ++id)
    pool.emplace_back(worker, id);
  worker(0);
  for (std::thread& t : pool) t.join();
}

}  // namespace dwv::parallel
