#include "runtime/worker_pool.hpp"

#include <algorithm>
#include <system_error>

#if defined(__linux__)
#include <sched.h>
#endif

namespace edgeis::rt {

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool(available_lanes());
  return pool;
}

int WorkerPool::available_lanes() {
  int cpus = 1;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
#else
  cpus = static_cast<int>(std::thread::hardware_concurrency());
#endif
  return std::clamp(cpus, 1, kMaxLanes);
}

WorkerPool::WorkerPool(int lanes) : lanes_(std::clamp(lanes, 1, kMaxLanes)) {}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

void WorkerPool::start_workers() {
  // Each worker waits for the first generation after this one, so a
  // worker that starts late still takes part in the job about to be
  // published. A thread that cannot start leaves the pool smaller.
  const std::uint64_t seen = generation_;
  workers_.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int i = 1; i < lanes_; ++i) {
    try {
      workers_.emplace_back([this, seen] { work(seen); });
    } catch (const std::system_error&) {
      break;
    }
  }
}

void WorkerPool::run_job(std::size_t tasks, Call call, const void* fn) {
  if (tasks == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  if (tasks == 1 || lanes_ == 1 || busy_) {
    lock.unlock();
    for (std::size_t i = 0; i < tasks; ++i) call(fn, i);
    return;
  }
  busy_ = true;
  if (workers_.empty()) {
    lock.unlock();
    start_workers();
    lock.lock();
  }
  call_ = call;
  fn_ = fn;
  tasks_ = tasks;
  next_ = 0;
  running_ = workers_.size();
  error_ = nullptr;
  ++generation_;
  lock.unlock();
  wake_.notify_all();
  lock.lock();
  drain(lock);
  drained_.wait(lock, [this] { return running_ == 0; });
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  busy_ = false;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void WorkerPool::work(std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    drain(lock);
    if (--running_ == 0) drained_.notify_one();
  }
}

void WorkerPool::drain(std::unique_lock<std::mutex>& lock) {
  while (next_ < tasks_) {
    const std::size_t i = next_++;
    const Call call = call_;
    const void* fn = fn_;
    lock.unlock();
    std::exception_ptr error;
    try {
      call(fn, i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error) {
      if (!error_) error_ = std::move(error);
      next_ = tasks_;
    }
  }
}

}  // namespace edgeis::rt
