#include "service/lease_table.h"

#include <algorithm>
#include <bit>
#include <string>

#include "util/contract.h"

namespace bil::service {
namespace {

/// Words needed for names 1..size.
std::size_t words_for(std::uint32_t size) {
  return (std::size_t{size} + 63) / 64;
}

}  // namespace

NameLeaseTable::NameLeaseTable(std::uint32_t initial_size)
    : size_(initial_size) {
  BIL_REQUIRE(initial_size >= 1, "namespace must hold at least one name");
  words_.assign(words_for(initial_size), 0);
}

std::vector<std::uint64_t> NameLeaseTable::acquire(std::uint32_t count) {
  BIL_REQUIRE(count <= free_count(),
              "lease request for " + std::to_string(count) + " names but only " +
                  std::to_string(free_count()) + " are free");
  std::vector<std::uint64_t> names;
  names.reserve(count);
  // Words below hint_ are full, and count <= free_count() means the scan
  // finds enough free bits before the padding above size_ in the last word.
  std::size_t word = hint_;
  while (names.size() < count) {
    std::uint64_t free = ~words_[word];
    while (free != 0 && names.size() < count) {
      names.push_back(word * 64 + std::countr_zero(free) + 1);
      free &= free - 1;
    }
    words_[word] = ~free;
    if (free == 0) {
      ++word;
    }
  }
  BIL_ENSURE(names.empty() || names.back() <= size_,
             "acquire scanned past the namespace");
  hint_ = word;
  live_ += count;
  return names;
}

void NameLeaseTable::release(std::uint64_t name) {
  BIL_REQUIRE(is_leased(name), "release of name " + std::to_string(name) +
                                   " which is not currently leased");
  const std::size_t word = (name - 1) / 64;
  words_[word] &= ~(std::uint64_t{1} << ((name - 1) % 64));
  --live_;
  hint_ = std::min(hint_, word);
}

void NameLeaseTable::grow(std::uint32_t new_size) {
  BIL_REQUIRE(new_size > size_, "grow must enlarge the namespace");
  // Padding bits above the old size are clear, so they become free names.
  words_.resize(words_for(new_size), 0);
  size_ = new_size;
}

bool NameLeaseTable::try_shrink(std::uint32_t new_size) {
  BIL_REQUIRE(new_size >= 1 && new_size < size_,
              "shrink target must be in [1, namespace_size)");
  if (max_leased() > new_size) {
    return false;
  }
  // Every leased name fits, so the dropped words and the new padding bits
  // are all clear.
  words_.resize(words_for(new_size));
  size_ = new_size;
  hint_ = std::min(hint_, words_.size());
  return true;
}

std::uint64_t NameLeaseTable::max_leased() const noexcept {
  for (std::size_t word = words_.size(); word-- > 0;) {
    if (words_[word] != 0) {
      return word * 64 + 64 - std::countl_zero(words_[word]);
    }
  }
  return 0;
}

}  // namespace bil::service
