// End-to-end tests of the bil_run command line: the registry listings match
// their pinned fixtures byte for byte, and an adversary flag the chosen
// kind does not read is rejected by name instead of being dropped from the
// run, even when given at its default value.
//
// The fixtures (tests/fixtures/list_*.txt) pin the listing text exactly;
// regenerate them only for a deliberate change to a name, alias,
// description or column.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  /// stdout and stderr, interleaved.
  std::string output;
};

CliResult run_bil_run(const std::string& args) {
  const std::string command = std::string(BIL_RUN_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot start: " << command;
    return {};
  }
  CliResult result;
  char buffer[4096];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string read_fixture(const std::string& name) {
  const std::string path =
      std::string(BIL_SOURCE_DIR) + "/tests/fixtures/" + name;
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "cannot open fixture " << path;
  std::ostringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

TEST(Cli, ListAdversariesMatchesItsFixture) {
  const CliResult result = run_bil_run("--list-adversaries");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, read_fixture("list_adversaries.txt"));
}

TEST(Cli, ListAlgorithmsMatchesItsFixture) {
  const CliResult result = run_bil_run("--list-algorithms");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, read_fixture("list_algorithms.txt"));
}

TEST(Cli, UnreadBudgetsAreRejectedByFlagName) {
  struct Case {
    const char* args;
    const char* flag;
  };
  const Case cases[] = {
      {"--adversary=byzantine-liar --byzantine=4 --crashes=5", "--crashes"},
      {"--adversary=eager --crashes=4 --byzantine=4", "--byzantine"},
      {"--adversary=none --crashes=4", "--crashes"},
      {"--adversary=oblivious --crashes=4 --byzantine-rounds=3",
       "--byzantine-rounds"},
      {"--adversary=eager --crashes=4 --timeout=3", "--timeout"},
      {"--adversary=burst --crashes=4 --delay=3", "--delay"},
      {"--adversary=targeted-winner --crashes=4 --gst=8", "--gst"},
      {"--adversary=bounded-delay --gst=8", "--gst"},
      {"--delay=3 --crashes=2", "--crashes"},
      {"--adversary=burst --crashes=4 --horizon=4", "--horizon"},
      {"--adversary=sandwich --crashes=4 --burst-round=2", "--burst-round"},
      {"--adversary=none --horizon=8", "--horizon"},
      // An explicit none is a choice: --delay must not turn it into
      // bounded-delay.
      {"--adversary=none --delay=3", "--delay"},
      {"--adversary=none --gst=8", "--gst"},
      {"--adversary=none --subset=all", "--subset"},
      {"--adversary=byzantine-liar --byzantine=2 --subset=silent",
       "--subset"},
  };
  for (const Case& c : cases) {
    const CliResult result =
        run_bil_run(std::string("--n=16 --seeds=1 --json ") + c.args);
    EXPECT_NE(result.exit_code, 0) << c.args << "\n" << result.output;
    EXPECT_NE(result.output.find("contract violation"), std::string::npos)
        << c.args << "\n" << result.output;
    EXPECT_NE(result.output.find(std::string(c.flag) + " is not read"),
              std::string::npos)
        << c.args << "\n" << result.output;
  }
}

TEST(Cli, BareDelayStillSelectsBoundedDelay) {
  const CliResult result = run_bil_run("--n=16 --seeds=1 --json --delay=3");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"kind\":\"bounded-delay\""),
            std::string::npos)
      << result.output;
}

TEST(Cli, SubsetReachesTheSpec) {
  // Silent and all deliveries differ on the wire, so the flag must change
  // the run's deliveries, and an unknown policy is named.
  const std::string base =
      "--n=64 --seeds=1 --json --backend=engine --adversary=eager "
      "--crashes=8 --per-round=4 --subset=";
  const CliResult silent = run_bil_run(base + "silent");
  const CliResult all = run_bil_run(base + "all");
  EXPECT_EQ(silent.exit_code, 0) << silent.output;
  EXPECT_EQ(all.exit_code, 0) << all.output;
  EXPECT_NE(silent.output, all.output);
  const CliResult unknown = run_bil_run(base + "most");
  EXPECT_NE(unknown.exit_code, 0);
  EXPECT_NE(unknown.output.find("unknown subset policy 'most'"),
            std::string::npos)
      << unknown.output;
}

TEST(Cli, ReadBudgetsStillRun) {
  const char* const accepted[] = {
      "--adversary=eager --crashes=4",
      "--adversary=eager --crashes=4 --burst-round=2 --per-round=3",
      "--adversary=byzantine-liar --byzantine=2 --byzantine-rounds=3",
      "--delay=3 --timeout=2",
      "--delay=3 --gst=8 --timeout=2",
      "--adversary=eager --crashes=4 --subset=alternating",
      "--adversary=targeted-winner --crashes=4 --subset=all",
  };
  for (const char* args : accepted) {
    const CliResult result =
        run_bil_run(std::string("--n=16 --seeds=1 --json ") + args);
    EXPECT_EQ(result.exit_code, 0) << args << "\n" << result.output;
  }
}

}  // namespace
