#include "api/registry.h"

#include <algorithm>
#include <sstream>

#include "util/contract.h"

namespace bil::api {

namespace {

/// The entry whose canonical name or alias is `name`; null when none is.
template <typename Registry>
const typename Registry::value_type* find_by_name(const Registry& registry,
                                                  std::string_view name) {
  for (const auto& info : registry) {
    if (info.name == name || std::find(info.aliases.begin(), info.aliases.end(),
                                       name) != info.aliases.end()) {
      return &info;
    }
  }
  return nullptr;
}

template <typename Registry>
std::string catalog(const Registry& registry) {
  std::ostringstream out;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    out << (i == 0 ? "" : "|") << registry[i].name;
    for (const auto& alias : registry[i].aliases) {
      out << '(' << alias << ')';
    }
  }
  return out.str();
}

}  // namespace

std::span<const AlgorithmInfo> algorithm_registry() noexcept {
  return harness::algorithm_table();
}

std::span<const AdversaryInfo> adversary_registry() noexcept {
  return harness::adversary_table();
}

const AlgorithmInfo& algorithm_info(harness::Algorithm algorithm) {
  return harness::algorithm_descriptor(algorithm);
}

const AdversaryInfo& adversary_info(harness::AdversaryKind kind) {
  return harness::adversary_descriptor(kind);
}

const AlgorithmInfo& parse_algorithm(std::string_view name) {
  const AlgorithmInfo* info = find_by_name(algorithm_registry(), name);
  BIL_REQUIRE(info != nullptr, "unknown algorithm '" + std::string(name) +
                                   "' (expected " + algorithm_catalog() + ")");
  return *info;
}

const AdversaryInfo& parse_adversary(std::string_view name) {
  const AdversaryInfo* info = find_by_name(adversary_registry(), name);
  BIL_REQUIRE(info != nullptr, "unknown adversary '" + std::string(name) +
                                   "' (expected " + adversary_catalog() + ")");
  return *info;
}

std::string algorithm_catalog() { return catalog(algorithm_registry()); }

std::string adversary_catalog() { return catalog(adversary_registry()); }

}  // namespace bil::api
