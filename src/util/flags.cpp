#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>

#include "util/contract.h"

namespace bil {

namespace {

/// Levenshtein edit distance, O(|a|·|b|) with two rolling rows — flag names
/// are short, so this is plenty.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> previous(b.size() + 1);
  std::vector<std::size_t> current(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) {
    previous[j] = j;
  }
  for (std::size_t i = 1; i <= a.size(); ++i) {
    current[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          previous[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      current[j] = std::min({previous[j] + 1, current[j - 1] + 1, substitution});
    }
    std::swap(previous, current);
  }
  return previous[b.size()];
}

}  // namespace

FlagSet::FlagSet(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void FlagSet::add_string(const std::string& name, std::string* value,
                         const std::string& help) {
  BIL_REQUIRE(value != nullptr, "flag target must not be null");
  BIL_REQUIRE(flags_.emplace(name, Flag{Kind::kString, value, help, *value})
                  .second,
              "duplicate flag --" + name);
}

void FlagSet::add_uint(const std::string& name, std::uint64_t* value,
                       const std::string& help) {
  BIL_REQUIRE(value != nullptr, "flag target must not be null");
  BIL_REQUIRE(flags_
                  .emplace(name, Flag{Kind::kUint, value, help,
                                      std::to_string(*value)})
                  .second,
              "duplicate flag --" + name);
}

void FlagSet::add_uint32(const std::string& name, std::uint32_t* value,
                         const std::string& help) {
  BIL_REQUIRE(value != nullptr, "flag target must not be null");
  BIL_REQUIRE(flags_
                  .emplace(name, Flag{Kind::kUint32, value, help,
                                      std::to_string(*value)})
                  .second,
              "duplicate flag --" + name);
}

void FlagSet::add_bool(const std::string& name, bool* value,
                       const std::string& help) {
  BIL_REQUIRE(value != nullptr, "flag target must not be null");
  BIL_REQUIRE(flags_
                  .emplace(name, Flag{Kind::kBool, value, help,
                                      *value ? "true" : "false"})
                  .second,
              "duplicate flag --" + name);
}

void FlagSet::set_value(const std::string& name, Flag& flag,
                        const std::string& value) {
  flag.given = true;
  switch (flag.kind) {
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = value;
      return;
    case Kind::kUint: {
      std::uint64_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      BIL_REQUIRE(ec == std::errc{} && ptr == value.data() + value.size(),
                  "--" + name + " expects an unsigned integer, got '" +
                      value + "'");
      *static_cast<std::uint64_t*>(flag.target) = parsed;
      return;
    }
    case Kind::kUint32: {
      std::uint64_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed);
      BIL_REQUIRE(ec == std::errc{} && ptr == value.data() + value.size(),
                  "--" + name + " expects an unsigned integer, got '" +
                      value + "'");
      // Explicit range check, not a narrowing cast: a wrapped value (e.g.
      // '-1' read as ~4 billion elsewhere) must fail loudly, not schedule
      // four billion crashes.
      BIL_REQUIRE(parsed <= std::numeric_limits<std::uint32_t>::max(),
                  "--" + name + " value '" + value +
                      "' exceeds the 32-bit range (max 4294967295)");
      *static_cast<std::uint32_t*>(flag.target) =
          static_cast<std::uint32_t>(parsed);
      return;
    }
    case Kind::kBool:
      BIL_REQUIRE(value == "true" || value == "false",
                  "--" + name + " expects true/false, got '" + value + "'");
      *static_cast<bool*>(flag.target) = value == "true";
      return;
  }
}

bool FlagSet::parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return false;
    }
    BIL_REQUIRE(arg.rfind("--", 0) == 0,
                "expected a --flag, got '" + arg + "'");
    arg = arg.substr(2);

    std::string name = arg;
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }

    // Boolean shorthand: --name / --no-name.
    if (!value.has_value()) {
      const bool negated = name.rfind("no-", 0) == 0;
      const std::string base = negated ? name.substr(3) : name;
      const auto it = flags_.find(base);
      if (it != flags_.end() && it->second.kind == Kind::kBool) {
        *static_cast<bool*>(it->second.target) = !negated;
        it->second.given = true;
        continue;
      }
    }

    const auto it = flags_.find(name);
    BIL_REQUIRE(it != flags_.end(),
                "unknown flag --" + name + suggestion_for(name));
    if (!value.has_value()) {
      BIL_REQUIRE(i + 1 < argc, "--" + name + " is missing its value");
      value = argv[++i];
    }
    set_value(name, it->second, *value);
  }
  return true;
}

bool FlagSet::given(const std::string& name) const {
  const auto it = flags_.find(name);
  BIL_REQUIRE(it != flags_.end(), "unknown flag --" + name);
  return it->second.given;
}

std::string FlagSet::suggestion_for(const std::string& name) const {
  // Candidates are every registered name plus the --no- spelling of every
  // boolean, so `--no-warmstart` suggests `--no-warm-start` instead of the
  // unnegated base.
  std::string best;
  std::size_t best_distance = std::numeric_limits<std::size_t>::max();
  const auto consider = [&](const std::string& candidate) {
    const std::size_t distance = edit_distance(name, candidate);
    if (distance < best_distance ||
        (distance == best_distance && candidate < best)) {
      best = candidate;
      best_distance = distance;
    }
  };
  for (const auto& [flag_name, flag] : flags_) {
    consider(flag_name);
    if (flag.kind == Kind::kBool) {
      consider("no-" + flag_name);
    }
  }
  // Only speak up when the typo is plausibly a near miss; a wild guess is
  // worse than silence.
  const std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
  if (best.empty() || best_distance > budget) {
    return "";
  }
  return " (did you mean --" + best + "?)";
}

std::string FlagSet::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nflags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    switch (flag.kind) {
      case Kind::kString:
        os << "=<string>";
        break;
      case Kind::kUint:
        os << "=<uint>";
        break;
      case Kind::kUint32:
        os << "=<uint32>";
        break;
      case Kind::kBool:
        os << " | --no-" << name;
        break;
    }
    os << "\n      " << flag.help << " (default: " << flag.default_repr
       << ")\n";
  }
  return os.str();
}

}  // namespace bil
