// Name-lease table for the long-lived renaming service.
//
// The one-shot algorithm ends with a permutation of 1..n; a long-lived
// service instead *leases* names: a joining client acquires a free name,
// holds it, and releases it on departure, after which the name may be handed
// to a later client. This table owns that lifecycle and enforces the two
// lease invariants the service's safety argument rests on:
//   * a name is leased to at most one client at a time (acquire only hands
//     out members of the free pool, and moving a name between pools is the
//     only state transition);
//   * release returns exactly the leased names (releasing a free or
//     out-of-range name is a contract violation, not a no-op).
//
// Names are 1-based and dense in [1, namespace_size], matching the tight
// 1..n guarantee of the underlying algorithm. acquire() hands out the
// smallest free names in ascending order, which keeps the live set packed
// toward small names and makes shrinking the namespace (adaptive sizing,
// service.h) possible once departures thin out the top of the range.
//
// Representation: one bit per name (bit name-1 set = leased) in 64-bit
// words, a live count, and a hint below which every word is full. acquire()
// scans free bits upward from the hint with countr_zero, release() clears a
// bit and lowers the hint, and grow/shrink resize the word vector — so the
// table allocates only when the namespace grows, and a name costs one bit.
// Bits above namespace_size() in the last word are always clear and are
// never handed out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bil::service {

class NameLeaseTable {
 public:
  /// Starts with names 1..initial_size, all free. Requires initial_size >= 1.
  explicit NameLeaseTable(std::uint32_t initial_size);

  /// Leases the `count` smallest free names, in ascending order.
  /// Requires count <= free_count().
  [[nodiscard]] std::vector<std::uint64_t> acquire(std::uint32_t count);

  /// Returns a leased name to the free pool. Requires that `name` is
  /// currently leased.
  void release(std::uint64_t name);

  /// Grows the namespace to new_size, freeing names (old_size, new_size].
  /// Requires new_size > namespace_size().
  void grow(std::uint32_t new_size);

  /// Shrinks the namespace to new_size if no leased name exceeds it;
  /// returns false (and changes nothing) otherwise.
  /// Requires 1 <= new_size < namespace_size().
  [[nodiscard]] bool try_shrink(std::uint32_t new_size);

  [[nodiscard]] std::uint32_t namespace_size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t live() const noexcept { return live_; }
  [[nodiscard]] std::uint32_t free_count() const noexcept {
    return size_ - live_;
  }
  /// Largest currently-leased name (0 when nothing is leased); the bound
  /// adaptive shrinking must respect.
  [[nodiscard]] std::uint64_t max_leased() const noexcept;
  [[nodiscard]] bool is_leased(std::uint64_t name) const noexcept {
    return name >= 1 && name <= size_ &&
           ((words_[(name - 1) / 64] >> ((name - 1) % 64)) & 1U) != 0;
  }

 private:
  std::uint32_t size_;
  std::uint32_t live_ = 0;
  /// Every word below this index is fully leased.
  std::size_t hint_ = 0;
  /// Bit (name - 1) % 64 of word (name - 1) / 64 is set iff name is leased.
  std::vector<std::uint64_t> words_;
};

}  // namespace bil::service
