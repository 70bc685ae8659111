// Campaign server: thin POSIX TCP front-end over rst::server::LineSession.
//
// Serves one connection at a time and runs each campaign to completion
// before reading the next request: there is no admission queue, so a second
// client waits in the listen backlog until the first one disconnects.
// Parallelism lives in the engine's TrialPool worker fleet. Speaks the
// line-delimited protocol documented in rst/server/protocol.hpp.
//
//   campaign_server --port 4750 --store results.seg --threads 0
//
// --port 0 picks an ephemeral port; the bound port is printed as
// `LISTENING <port>` on stdout so scripts (and the CI smoke test) can
// discover it. --max-conns N exits after serving N connections, which lets
// the smoke test run the server without needing to kill it.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/server/campaign_engine.hpp"
#include "rst/server/protocol.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--store PATH] [--threads N] [--max-conns N]\n"
               "  --port N       TCP port to listen on (0 = ephemeral; default 4750)\n"
               "  --store PATH   result-store segment file (default: in-memory only)\n"
               "  --threads N    trial workers (0 = hardware concurrency; default 0)\n"
               "  --max-conns N  exit after serving N connections (0 = forever)\n"
               "Connections are served one at a time, each campaign to completion.\n",
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

/// Serves one connection: reads lines, feeds the session, writes responses.
void serve(int fd, rst::server::CampaignEngine& engine) {
  rst::server::LineSession session{engine};
  std::string inbuf;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    inbuf.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    std::size_t nl;
    while (open && (nl = inbuf.find('\n', pos)) != std::string::npos) {
      std::string line = inbuf.substr(pos, nl - pos);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      pos = nl + 1;
      std::string out;
      try {
        open = session.consume_line(line, [&](const std::string& reply) {
          out += reply;
          out += '\n';
        });
      } catch (const std::exception& e) {
        // An engine failure (e.g. a ResultStore append on a full disk) must
        // not take the whole server down. Tell this client and drop only its
        // connection — the response stream may already be mid-artifact, so
        // it cannot be safely resumed.
        out += "ERROR ";
        out += e.what();
        out += "\nDONE\n";
        open = false;
      }
      if (!out.empty() && !send_all(fd, out)) open = false;
    }
    inbuf.erase(0, pos);
  }
}

}  // namespace

int main(int argc, char** argv) {
  int port = 4750;
  unsigned threads = 0;
  std::string store_path;
  long max_conns = 0;
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
        port = static_cast<int>(number(0, 65535));
      } else if (arg == "--store") {
        store_path = value();
      } else if (arg == "--threads") {
        threads = rst::core::parse_thread_count(value(), arg);
      } else if (arg == "--max-conns") {
        max_conns = static_cast<long>(number(0, std::numeric_limits<int>::max()));
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }

  rst::server::CampaignEngineConfig config;
  config.threads = threads;
  config.store_path = store_path;
  rst::server::CampaignEngine engine{config};

  ::signal(SIGPIPE, SIG_IGN);  // a departed client must not kill the server
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("bind");
    ::close(listener);
    return 1;
  }
  if (::listen(listener, 16) != 0) {
    std::perror("listen");
    ::close(listener);
    return 1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  std::printf("LISTENING %d\n", static_cast<int>(ntohs(addr.sin_port)));
  std::fflush(stdout);

  long served = 0;
  while (max_conns == 0 || served < max_conns) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    serve(fd, engine);
    ::close(fd);
    ++served;
  }
  ::close(listener);
  std::printf("SERVED %ld\n", served);
  return 0;
}
