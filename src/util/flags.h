// Minimal command-line flag parsing (no external dependencies).
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags are an error; `--help` renders generated
// usage. Used by the tools/ binaries; deliberately tiny — if you need more,
// you need a real flags library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bil {

class FlagSet {
 public:
  /// `program` and `description` feed the generated --help text.
  FlagSet(std::string program, std::string description);

  /// Registers a flag; `value` holds the default and receives the parsed
  /// result. The pointer must outlive parse().
  void add_string(const std::string& name, std::string* value,
                  const std::string& help);
  void add_uint(const std::string& name, std::uint64_t* value,
                const std::string& help);
  /// Range-checked 32-bit variant: values above 2^32−1 (and anything
  /// non-numeric, including a leading '-') are rejected with a diagnostic
  /// naming the flag. Use this for any flag that feeds a uint32_t knob —
  /// a plain add_uint target narrowed by static_cast would silently wrap.
  void add_uint32(const std::string& name, std::uint32_t* value,
                  const std::string& help);
  void add_bool(const std::string& name, bool* value, const std::string& help);

  /// Parses argv (excluding argv[0]). Returns false (after printing usage)
  /// when --help was requested; throws ContractViolation on malformed or
  /// unknown flags.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// True when parse() saw --name (or its --no- spelling) on the command
  /// line, even at the flag's default value; throws ContractViolation for
  /// an unregistered name.
  [[nodiscard]] bool given(const std::string& name) const;

  /// The generated usage text.
  [[nodiscard]] std::string usage() const;

  /// " (did you mean --X?)" for the closest registered flag (including
  /// --no- spellings of booleans) within an edit-distance budget, or ""
  /// when nothing is plausibly close. Feeds the unknown-flag diagnostic.
  [[nodiscard]] std::string suggestion_for(const std::string& name) const;

 private:
  enum class Kind : std::uint8_t { kString, kUint, kUint32, kBool };
  struct Flag {
    Kind kind;
    void* target;
    std::string help;
    std::string default_repr;
    bool given = false;
  };

  void set_value(const std::string& name, Flag& flag,
                 const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
};

}  // namespace bil
