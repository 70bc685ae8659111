// Campaign client: submits one campaign to a running campaign_server and
// prints the response.
//
//   campaign_client --port 4750 --spec scenario.conf --trials 20 --seed 1
//
// --spec - reads the spec from stdin. --artifact-only prints just the
// byte-stable block between OK and ENDARTIFACT (what the CI smoke test
// diffs across submissions). --expect-all-hits exits non-zero unless the
// server reports misses=0 executed=0 — i.e. the campaign was served
// entirely from the result store.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "rst/core/config_io.hpp"
#include "rst/server/campaign.hpp"
#include "rst/server/protocol.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--spec PATH|-] [--trials N] [--seed N]\n"
               "          [--artifact-only] [--expect-all-hits]\n",
               argv0);
  return 2;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_stream(std::FILE* f) {
  std::string text;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) text.append(chunk, n);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 4750;
  std::string spec_path;
  int trials = 1;
  std::uint64_t seed = 1;
  bool artifact_only = false;
  bool expect_all_hits = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument{arg + " needs a value"};
        return argv[++i];
      };
      const auto number = [&](std::int64_t lo, std::int64_t hi) {
        return rst::core::parse_spec_int_in(value(), arg, lo, hi);
      };
      if (arg == "--port") {
        port = static_cast<int>(number(1, 65535));
      } else if (arg == "--spec") {
        spec_path = value();
      } else if (arg == "--trials") {
        trials = static_cast<int>(number(1, std::numeric_limits<int>::max()));
      } else if (arg == "--seed") {
        seed = static_cast<std::uint64_t>(number(0, std::numeric_limits<std::int64_t>::max()));
      } else if (arg == "--artifact-only") {
        artifact_only = true;
      } else if (arg == "--expect-all-hits") {
        expect_all_hits = true;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }

  rst::server::CampaignRequest request;
  request.trials = trials;
  request.base_seed = seed;
  if (spec_path.empty() || spec_path == "-") {
    request.spec = read_stream(stdin);
  } else {
    std::FILE* f = std::fopen(spec_path.c_str(), "rb");
    if (!f) {
      std::fprintf(stderr, "campaign_client: cannot read %s\n", spec_path.c_str());
      return 1;
    }
    request.spec = read_stream(f);
    std::fclose(f);
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("connect");
    ::close(fd);
    return 1;
  }
  if (!send_all(fd, rst::server::format_campaign_request(request)) ||
      !send_all(fd, "QUIT\n")) {
    std::fprintf(stderr, "campaign_client: send failed\n");
    ::close(fd);
    return 1;
  }

  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) response.append(chunk, static_cast<std::size_t>(n));
  ::close(fd);

  // Walk the response line by line: OK opens the artifact block,
  // ENDARTIFACT closes it, the STATS trailer carries the hit accounting.
  bool in_artifact = false;
  bool saw_ok = false;
  bool all_hits = false;
  bool failed = false;
  std::size_t pos = 0;
  while (pos < response.size()) {
    const auto nl = response.find('\n', pos);
    const std::string line =
        response.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? response.size() : nl + 1;
    if (line.rfind("OK ", 0) == 0) {
      saw_ok = true;
      in_artifact = true;
      if (!artifact_only) std::printf("%s\n", line.c_str());
      continue;
    }
    if (line == "ENDARTIFACT") {
      in_artifact = false;
      if (!artifact_only) std::printf("%s\n", line.c_str());
      continue;
    }
    if (line.rfind("ERROR", 0) == 0) {
      failed = true;
      std::fprintf(stderr, "%s\n", line.c_str());
      continue;
    }
    if (line.rfind("STATS ", 0) == 0) {
      all_hits = line.find(" misses=0 ") != std::string::npos &&
                 line.find(" executed=0") != std::string::npos;
    }
    if (in_artifact || !artifact_only) std::printf("%s\n", line.c_str());
  }

  if (failed || !saw_ok) return 1;
  if (expect_all_hits && !all_hits) {
    std::fprintf(stderr, "campaign_client: expected an all-cache-hit campaign\n");
    return 3;
  }
  return 0;
}
