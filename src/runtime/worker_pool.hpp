// One process-wide pool of worker threads for the frame kernels that split
// into independent tasks: the scene renderer's row bands and the ORB front
// end's FAST bands and descriptor chunks (DESIGN.md §9, "Band
// parallelism"). Callers split their work so that the output does not
// depend on how many lanes run it or in which order the tasks finish.
//
// The pool starts its threads on the first job with more than one task,
// never at construction, so a process that never renders a frame stays
// single-threaded. Workers block on a condition variable between jobs and
// never spin. A job submitted while another is running (from inside a task,
// or from a second thread) runs its tasks inline on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace edgeis::rt {

class WorkerPool {
 public:
  /// Upper bound on the lane count: past it the frame kernels' bands get
  /// too thin to pay for their set-up.
  static constexpr int kMaxLanes = 8;

  /// The process-wide pool, with available_lanes() lanes.
  static WorkerPool& shared();

  /// The CPUs this process may run on (sched_getaffinity), capped at
  /// kMaxLanes; at least 1.
  static int available_lanes();

  /// A pool of `lanes` lanes: the caller of run() is one, and lanes − 1
  /// workers start on the first job that needs them.
  explicit WorkerPool(int lanes);
  ~WorkerPool();  // joins every worker
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  WorkerPool(WorkerPool&&) = delete;
  WorkerPool& operator=(WorkerPool&&) = delete;

  [[nodiscard]] int lanes() const noexcept { return lanes_; }

  /// Calls fn(i) once for every i in [0, tasks), on the caller and the
  /// workers, and returns when all have finished. Tasks are claimed in
  /// index order. If a task throws, tasks not yet claimed are skipped and
  /// the first exception is rethrown here once the others drain; the pool
  /// stays usable. fn must stay valid until run() returns; run() makes no
  /// heap allocation after the workers have started.
  template <typename Fn>
  void run(std::size_t tasks, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_job(
        tasks,
        [](const void* f, std::size_t i) {
          (*const_cast<F*>(static_cast<const F*>(f)))(i);
        },
        std::addressof(fn));
  }

 private:
  using Call = void (*)(const void*, std::size_t);

  void run_job(std::size_t tasks, Call call, const void* fn);
  void start_workers();
  void work(std::uint64_t seen);
  // Claims and runs tasks of the current job until none is left; entered
  // and left with `lock` held.
  void drain(std::unique_lock<std::mutex>& lock);

  const int lanes_;

  std::mutex mutex_;  // guards everything below except workers_
  std::condition_variable wake_;     // a new job, or stop_
  std::condition_variable drained_;  // running_ reached 0
  bool busy_ = false;                // a job owns the pool
  bool stop_ = false;
  std::uint64_t generation_ = 0;     // bumped once per job
  Call call_ = nullptr;
  const void* fn_ = nullptr;
  std::size_t tasks_ = 0;
  std::size_t next_ = 0;             // the next unclaimed task
  std::size_t running_ = 0;          // workers not done with the job
  std::exception_ptr error_;

  // Started and joined only by the job owner and the destructor.
  std::vector<std::thread> workers_;
};

}  // namespace edgeis::rt
