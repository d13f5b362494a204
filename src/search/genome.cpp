#include "search/genome.h"

#include <cctype>
#include <sstream>

#include "util/contract.h"

namespace bil::search {

namespace {

/// The genome JSON uses canonical harness names (not CLI aliases), so the
/// search layer needs no dependency on the api registry; parse_genome
/// rejects anything else.
harness::Algorithm parse_algorithm_name(std::string_view name) {
  for (const harness::AlgorithmDescriptor& row : harness::algorithm_table()) {
    if (name == row.name) {
      return row.algorithm;
    }
  }
  BIL_REQUIRE(false, "genome JSON: unknown algorithm '" + std::string(name) +
                         "' (expected a canonical harness name)");
  return harness::Algorithm::kBallsIntoLeaves;
}

}  // namespace

const char* genome_mode_name(harness::AdversaryKind mode) noexcept {
  return mode == harness::AdversaryKind::kNone ? "schedule"
                                                : harness::to_string(mode);
}

const char* to_string(sim::SubsetPolicy policy) noexcept {
  switch (policy) {
    case sim::SubsetPolicy::kSilent:
      return "silent";
    case sim::SubsetPolicy::kAlternating:
      return "alternating";
    case sim::SubsetPolicy::kRandomHalf:
      return "random-half";
    case sim::SubsetPolicy::kAll:
      return "all";
  }
  return "unknown";
}

sim::SubsetPolicy parse_subset_policy(std::string_view name) {
  for (const sim::SubsetPolicy policy :
       {sim::SubsetPolicy::kSilent, sim::SubsetPolicy::kAlternating,
        sim::SubsetPolicy::kRandomHalf, sim::SubsetPolicy::kAll}) {
    if (name == to_string(policy)) {
      return policy;
    }
  }
  BIL_REQUIRE(false, "unknown subset policy '" + std::string(name) +
                         "' (expected silent|alternating|random-half|all)");
  return sim::SubsetPolicy::kSilent;
}

harness::AdversaryKind parse_genome_mode(std::string_view name) {
  if (name == "schedule") {
    return harness::AdversaryKind::kNone;
  }
  std::string expected = "schedule";
  for (const harness::AdversaryDescriptor& row : harness::adversary_table()) {
    if (row.route != harness::FastSimRoute::kTrafficOracle) {
      continue;
    }
    if (row.name == name) {
      return row.kind;
    }
    expected.append("|").append(row.name);
  }
  BIL_REQUIRE(false, "unknown genome mode '" + std::string(name) +
                         "' (expected " + expected + ")");
  return harness::AdversaryKind::kNone;
}

std::string to_json(const GenomeRecord& record) {
  const ScheduleGenome& genome = record.genome;
  std::ostringstream out;
  out << "{\n"
      << "  \"algorithm\": \"" << harness::to_string(genome.algorithm)
      << "\",\n"
      << "  \"n\": " << genome.n << ",\n"
      << "  \"run_seed\": " << genome.run_seed << ",\n"
      << "  \"budget\": " << genome.budget << ",\n"
      << "  \"mode\": \"" << genome_mode_name(genome.mode) << "\",\n"
      << "  \"crashes\": [";
  for (std::size_t i = 0; i < genome.crashes.size(); ++i) {
    const CrashGene& gene = genome.crashes[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"round\": " << gene.round
        << ", \"victim_rank\": " << gene.victim_rank << ", \"subset\": \""
        << to_string(gene.subset) << "\"}";
  }
  out << (genome.crashes.empty() ? "]" : "\n  ]") << ",\n"
      << "  \"per_round\": " << genome.per_round << ",\n"
      << "  \"subset\": \"" << to_string(genome.subset) << "\",\n"
      << "  \"byzantine\": " << genome.byzantine << ",\n"
      << "  \"byzantine_start\": " << genome.byzantine_start << ",\n"
      << "  \"byzantine_rounds\": " << genome.byzantine_rounds << ",\n"
      << "  \"observed\": {\"rounds\": " << record.rounds
      << ", \"crashes\": " << record.crashes
      << ", \"deliveries\": " << record.deliveries << "}\n"
      << "}\n";
  return out.str();
}

namespace {

/// Minimal recursive-descent JSON reader for the genome schema: objects,
/// arrays, strings, unsigned integers. No floats, escapes beyond \" , or
/// nesting the schema doesn't use — a found schedule is machine-written and
/// at most hand-tweaked, and anything outside the schema fails loudly.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    BIL_REQUIRE(pos_ < text_.size(), "genome JSON truncated");
    return text_[pos_];
  }

  void expect(char c) {
    BIL_REQUIRE(peek() == c, std::string("genome JSON: expected '") + c +
                                 "' at offset " + std::to_string(pos_));
    ++pos_;
  }

  bool consume_if(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string() {
    expect('"');
    std::string value;
    while (true) {
      BIL_REQUIRE(pos_ < text_.size(), "genome JSON: unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        return value;
      }
      if (c == '\\') {
        BIL_REQUIRE(pos_ < text_.size(), "genome JSON: unterminated escape");
        value.push_back(text_[pos_++]);
      } else {
        value.push_back(c);
      }
    }
  }

  std::uint64_t number() {
    skip_ws();
    BIL_REQUIRE(pos_ < text_.size() &&
                    std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0,
                "genome JSON: expected an unsigned integer at offset " +
                    std::to_string(pos_));
    std::uint64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[pos_] - '0');
      BIL_REQUIRE(value <= (UINT64_MAX - digit) / 10,
                  "genome JSON: integer overflow");
      value = value * 10 + digit;
      ++pos_;
    }
    return value;
  }

  void done() {
    skip_ws();
    BIL_REQUIRE(pos_ == text_.size(),
                "genome JSON: trailing garbage at offset " +
                    std::to_string(pos_));
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

CrashGene parse_crash_gene(JsonReader& reader) {
  CrashGene gene;
  reader.expect('{');
  if (!reader.consume_if('}')) {
    do {
      const std::string key = reader.string();
      reader.expect(':');
      if (key == "round") {
        gene.round = static_cast<sim::RoundNumber>(reader.number());
      } else if (key == "victim_rank") {
        gene.victim_rank = static_cast<std::uint32_t>(reader.number());
      } else if (key == "subset") {
        gene.subset = parse_subset_policy(reader.string());
      } else {
        BIL_REQUIRE(false, "genome JSON: unknown crash-gene key '" + key + "'");
      }
    } while (reader.consume_if(','));
    reader.expect('}');
  }
  return gene;
}

}  // namespace

GenomeRecord parse_genome(std::string_view json) {
  GenomeRecord record;
  ScheduleGenome& genome = record.genome;
  JsonReader reader(json);
  reader.expect('{');
  if (!reader.consume_if('}')) {
    do {
      const std::string key = reader.string();
      reader.expect(':');
      if (key == "algorithm") {
        genome.algorithm = parse_algorithm_name(reader.string());
      } else if (key == "n") {
        genome.n = static_cast<std::uint32_t>(reader.number());
      } else if (key == "run_seed") {
        genome.run_seed = reader.number();
      } else if (key == "budget") {
        genome.budget = static_cast<std::uint32_t>(reader.number());
      } else if (key == "mode") {
        genome.mode = parse_genome_mode(reader.string());
      } else if (key == "crashes") {
        genome.crashes.clear();
        reader.expect('[');
        if (!reader.consume_if(']')) {
          do {
            genome.crashes.push_back(parse_crash_gene(reader));
          } while (reader.consume_if(','));
          reader.expect(']');
        }
      } else if (key == "per_round") {
        genome.per_round = static_cast<std::uint32_t>(reader.number());
      } else if (key == "subset") {
        genome.subset = parse_subset_policy(reader.string());
      } else if (key == "byzantine") {
        genome.byzantine = static_cast<std::uint32_t>(reader.number());
      } else if (key == "byzantine_start") {
        genome.byzantine_start =
            static_cast<sim::RoundNumber>(reader.number());
      } else if (key == "byzantine_rounds") {
        genome.byzantine_rounds =
            static_cast<sim::RoundNumber>(reader.number());
      } else if (key == "observed") {
        reader.expect('{');
        if (!reader.consume_if('}')) {
          do {
            const std::string field = reader.string();
            reader.expect(':');
            if (field == "rounds") {
              record.rounds = static_cast<std::uint32_t>(reader.number());
            } else if (field == "crashes") {
              record.crashes = static_cast<std::uint32_t>(reader.number());
            } else if (field == "deliveries") {
              record.deliveries = reader.number();
            } else {
              BIL_REQUIRE(false,
                          "genome JSON: unknown observed key '" + field + "'");
            }
          } while (reader.consume_if(','));
          reader.expect('}');
        }
      } else {
        BIL_REQUIRE(false, "genome JSON: unknown key '" + key + "'");
      }
    } while (reader.consume_if(','));
    reader.expect('}');
  }
  reader.done();
  BIL_REQUIRE(genome.n >= 1, "genome JSON: n must be at least 1");
  return record;
}

}  // namespace bil::search
