// Socket load generator for psd_serve.
//
//   psd_bench load --socket PATH --requests FILE --out FILE
//                  --mode closed|open [--conns N] [--timeout-s T]
//
// FILE holds one "<due_us>\t<conn>\t<tag>\t<json>" line per request.
//
// closed: N connections, each sending its next request as soon as the
// previous answer arrived (no think time). A request whose conn column is
// k >= 0 is sent on connection k, in file order; the rest are taken in file
// order by whichever connection is free.
//
// open: request i is sent at phase start + due_us on connection i mod N (or
// its pinned connection) whether or not earlier answers have arrived, so a
// stall delays later requests' answers rather than their sends.
//
// Both modes run one thread that busy-polls its non-blocking sockets: the
// generator costs exactly one core (run.py pins it to a core of its own)
// and never waits for a wakeup to send or to see an answer.
//
// OUT gets one line per request:
//   index  conn  due_ns  sent_ns  recv_ns  response
// with times in ns since phase start; an unsent or unanswered request has
// -1 there and an empty response. A last "#unexpected\tN" line counts
// answers that matched no outstanding request (duplicates, unknown ids).
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "args.hpp"
#include "spans.hpp"

namespace psdbench {

namespace {

struct Request {
  std::int64_t due_ns = 0;
  int conn = -1;
  std::string line;  // newline-terminated
  std::string id;
};

struct Record {
  int conn = -1;
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  std::string response;
};

/// One non-blocking connection: outgoing bytes not yet accepted by the
/// socket, and incoming bytes not yet framed into lines.
struct Conn {
  int fd = -1;
  std::string out;
  std::string in;
  std::size_t scanned = 0;
  bool alive = true;
  std::size_t inflight = 0;  // sent, not yet answered
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The value of the first "id" field of a response line.
std::string response_id(const std::string& line) {
  const auto k = line.find("\"id\":\"");
  if (k == std::string::npos) return {};
  const auto start = k + 6;
  const auto end = line.find('"', start);
  return end == std::string::npos ? std::string() : line.substr(start, end - start);
}

/// Pushes buffered output; false when the connection failed.
bool flush(Conn& c) {
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int run_load(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string socket_path = args.str("socket");
  const std::string requests_path = args.str("requests");
  const std::string out_path = args.str("out");
  const std::string mode = args.str("mode", "closed");
  const int conns = static_cast<int>(args.num("conns", 1));
  const double timeout_s = args.num("timeout-s", 120.0);
  if (socket_path.empty() || requests_path.empty() || out_path.empty() ||
      conns < 1 || (mode != "closed" && mode != "open")) {
    std::fprintf(stderr, "psd_bench load: bad arguments\n");
    return 2;
  }
  const bool closed = mode == "closed";
  std::ifstream in(requests_path);
  if (!in) {
    std::fprintf(stderr, "psd_bench load: cannot read %s\n", requests_path.c_str());
    return 3;
  }
  std::vector<Request> reqs;
  std::unordered_map<std::string, std::size_t> by_id;
  for (std::string raw; std::getline(in, raw);) {
    const auto t1 = raw.find('\t');
    const auto t2 = t1 == std::string::npos ? t1 : raw.find('\t', t1 + 1);
    const auto t3 = t2 == std::string::npos ? t2 : raw.find('\t', t2 + 1);
    if (t3 == std::string::npos) continue;
    Request r;
    r.due_ns = static_cast<std::int64_t>(std::stod(raw.substr(0, t1)) * 1000.0);
    r.conn = std::stoi(raw.substr(t1 + 1, t2 - t1 - 1));
    if (r.conn >= conns) r.conn %= conns;
    if (!closed && r.conn < 0) r.conn = static_cast<int>(reqs.size() % conns);
    r.line = raw.substr(t3 + 1) + "\n";
    r.id = response_id(r.line);
    by_id[r.id] = reqs.size();
    reqs.push_back(std::move(r));
  }

  std::vector<Conn> cs(static_cast<std::size_t>(conns));
  std::vector<pollfd> pfds;
  for (auto& c : cs) {
    c.fd = connect_unix(socket_path);
    if (c.fd < 0) {
      std::fprintf(stderr, "psd_bench load: cannot connect to %s\n", socket_path.c_str());
      for (const auto& o : cs) {
        if (o.fd >= 0) ::close(o.fd);
      }
      return 4;
    }
    pfds.push_back({c.fd, POLLIN, 0});
  }

  // Closed mode's queues: per pinned connection, and shared.
  std::vector<std::deque<std::size_t>> pinned(cs.size());
  std::deque<std::size_t> shared;
  if (closed) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].conn >= 0) {
        pinned[static_cast<std::size_t>(reqs[i].conn)].push_back(i);
      } else {
        shared.push_back(i);
      }
    }
  }

  // Allocate (and fault in) every buffer before the clock starts, so the
  // timed loop never stalls in the allocator.
  std::vector<Record> recs(reqs.size());
  for (auto& r : recs) r.response.reserve(1024);
  for (auto& c : cs) {
    c.out.reserve(1 << 20);
    c.in.reserve(1 << 20);
  }
  long long unexpected = 0;
  std::size_t next_open = 0;  // open mode: next request to send
  std::size_t answered = 0;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(timeout_s));
  const auto send_one = [&](std::size_t i, Conn& c, int conn) {
    Record& r = recs[i];
    r.conn = conn;
    r.sent_ns = ns_between(t0, Clock::now());
    ++c.inflight;
    c.out += reqs[i].line;
    if (!flush(c)) c.alive = false;
  };

  std::string line;
  while (answered < reqs.size()) {
    const auto now = Clock::now();
    if (now > deadline) break;
    if (closed) {
      for (std::size_t k = 0; k < cs.size(); ++k) {
        Conn& c = cs[k];
        while (c.alive && c.inflight == 0) {
          std::size_t i = 0;
          if (!pinned[k].empty()) {
            i = pinned[k].front();
            pinned[k].pop_front();
          } else if (!shared.empty()) {
            i = shared.front();
            shared.pop_front();
          } else {
            break;
          }
          send_one(i, c, static_cast<int>(k));
        }
      }
    } else {
      const auto due_now = ns_between(t0, now);
      while (next_open < reqs.size() && reqs[next_open].due_ns <= due_now) {
        const int k = reqs[next_open].conn;
        send_one(next_open, cs[static_cast<std::size_t>(k)], k);
        ++next_open;
      }
    }
    // Stop early when nothing more can arrive: every connection still open
    // has nothing in flight and nothing left to send.
    bool waiting = false;
    for (auto& c : cs) {
      if (c.alive && !c.out.empty() && !flush(c)) c.alive = false;
      waiting = waiting || (c.alive && c.inflight > 0);
    }
    const bool unsent = closed ? !shared.empty() || std::any_of(
                                     pinned.begin(), pinned.end(),
                                     [](const auto& q) { return !q.empty(); })
                               : next_open < reqs.size();
    if (!waiting && (!unsent || std::none_of(cs.begin(), cs.end(),
                                             [](const Conn& c) { return c.alive; }))) {
      break;
    }
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) continue;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      Conn& c = cs[k];
      if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[65536];
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          c.alive = false;
          pfds[k].fd = -1;
        }
        continue;
      }
      c.in.append(chunk, static_cast<std::size_t>(n));
      const auto recv_ns = ns_between(t0, Clock::now());
      for (auto nl = c.in.find('\n', c.scanned); nl != std::string::npos;
           nl = c.in.find('\n', c.scanned)) {
        line.assign(c.in, c.scanned, nl - c.scanned);
        c.scanned = nl + 1;
        const auto it = by_id.find(response_id(line));
        if (it == by_id.end() || recs[it->second].recv_ns >= 0 ||
            recs[it->second].sent_ns < 0) {
          ++unexpected;
          continue;
        }
        Record& r = recs[it->second];
        r.recv_ns = recv_ns;
        r.response = line;
        ++answered;
        --cs[static_cast<std::size_t>(r.conn)].inflight;
      }
      c.in.erase(0, c.scanned);
      c.scanned = 0;
    }
  }
  for (const auto& c : cs) ::close(c.fd);

  std::ofstream out(out_path);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Record& r = recs[i];
    out << i << '\t' << r.conn << '\t' << reqs[i].due_ns << '\t' << r.sent_ns << '\t'
        << r.recv_ns << '\t' << r.response << '\n';
  }
  out << "#unexpected\t" << unexpected << '\n';
  if (!out) {
    std::fprintf(stderr, "psd_bench load: cannot write %s\n", out_path.c_str());
    return 5;
  }
  return 0;
}

}  // namespace psdbench
