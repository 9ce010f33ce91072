// A test buffer that sits flush against an inaccessible page: by default
// its last byte is just before the page, so a kernel that reads or writes
// even one byte past it faults instead of passing silently; with
// Flush::kStart its first byte is just after one, so a read before it
// faults. Vector loads, masked loads and gathers are invisible to ASan;
// this is how the kernel tests check their bounds.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace edgeis::testutil {

enum class Flush { kEnd, kStart };

template <typename T>
class GuardedBuffer {
 public:
  explicit GuardedBuffer(std::size_t count, Flush flush = Flush::kEnd)
      : count_(count) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = count * sizeof(T);
    const std::size_t data_pages = (bytes + page - 1) / page;
    mapped_ = (data_pages + 1) * page;
    void* base = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::uint8_t*>(base);
    const bool at_end = flush == Flush::kEnd;
    std::uint8_t* guard = at_end ? base_ + data_pages * page : base_;
    if (mprotect(guard, page, PROT_NONE) != 0) {
      munmap(base_, mapped_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = reinterpret_cast<T*>(at_end ? guard - bytes : guard + page);
  }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;
  ~GuardedBuffer() { munmap(base_, mapped_); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  std::size_t count_;
  std::size_t mapped_ = 0;
  std::uint8_t* base_ = nullptr;
  T* data_ = nullptr;
};

}  // namespace edgeis::testutil
