#include "serve/bench.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/flatjson.hpp"
#include "common/json_writer.hpp"

namespace laacad::serve {

namespace {

using Clock = BenchClock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

int op_index(const std::string& op) {
  for (std::size_t i = 0; i < kBenchOps.size(); ++i)
    if (op == kBenchOps[i]) return static_cast<int>(i);
  return -1;
}

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("bench: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bench: bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw std::runtime_error("bench: cannot connect to " + host + ":" +
                             std::to_string(port));
  }
  // Same reasoning as the server side: request/response turnarounds must
  // not wait out Nagle + delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// A response is a protocol success if it says so — except `health`, whose
/// response *is* a heartbeat line (`{"hb":...}`) rather than an ok object.
bool response_ok(int op_idx, std::string_view response) {
  if (op_idx >= 0 && kBenchOps[static_cast<std::size_t>(op_idx)] ==
                         std::string_view("health"))
    return response.rfind("{\"hb\"", 0) == 0;
  bool ok = false;
  return flatjson::get_bool(response, "ok", &ok) && ok;
}

/// The loop's bookkeeping for one DriveConn. Requests [answered, next) are
/// in flight; answers arrive in request order.
struct Live {
  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<Clock::time_point> sent;
  std::string out;  ///< queued bytes; [0, out_off) already written
  std::size_t out_off = 0;
  std::string in;
  bool closed = false;  ///< the socket failed or the server closed it
  bool write_shut = false;
};

void flush(int fd, Live& l) {
  while (l.out_off < l.out.size()) {
    // MSG_NOSIGNAL: a server that went away is a transport error, not a
    // SIGPIPE that kills the client.
    const ssize_t n = ::send(fd, l.out.data() + l.out_off,
                             l.out.size() - l.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      l.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) l.closed = true;
      return;
    }
  }
  l.out.clear();
  l.out_off = 0;
}

void receive(const DriveConn& c, Live& l,
             const std::function<void(const DriveAnswer&)>& on_answer) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0) {
      l.in.append(chunk, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      // EOF or a hard error ends the connection; EAGAIN ends this read.
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) l.closed = true;
      break;
    }
  }
  const Clock::time_point now = Clock::now();
  std::size_t pos = 0;
  for (std::size_t nl; (nl = l.in.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    if (l.answered == l.next) continue;  // a line nobody asked for
    std::string_view line(l.in.data() + pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::size_t i = l.answered++;
    on_answer({c.reqs[i], c.due.empty() ? l.sent[i] : c.due[i], l.sent[i],
               now, line});
  }
  l.in.erase(0, pos);
}

/// Closes a drive's sockets on every path out of run_bench.
struct CloseAll {
  const std::vector<DriveConn>& conns;
  ~CloseAll() {
    for (const DriveConn& c : conns)
      if (c.fd >= 0) ::close(c.fd);
  }
};

void write_percentile_pair(JsonWriter& w, const BenchVerbStats& v) {
  w.begin_object();
  w.key("latency");
  v.latency.write_percentiles_json(w);
  w.key("service");
  v.service.write_percentiles_json(w);
  // The full encoding stays on one line — sparse bucket pairs exploded
  // across the indented document would bury the readable part.
  std::ostringstream hist;
  JsonWriter hw(hist, /*indent=*/0);
  v.latency.write_json(hw);
  w.key("latency_hist").raw_value(hist.str());
  w.end_object();
}

}  // namespace

DriveTotals drive_requests(
    const std::vector<DriveConn>& conns,
    const std::function<void(const DriveAnswer&)>& on_answer) {
  constexpr std::size_t kMaxPendingBytes = 1 << 16;
  DriveTotals totals;
  std::vector<Live> live(conns.size());
  std::vector<pollfd> pfds(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    ::fcntl(conns[i].fd, F_SETFL, ::fcntl(conns[i].fd, F_GETFL) | O_NONBLOCK);
    live[i].sent.resize(conns[i].reqs.size());
  }
  for (;;) {
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + std::chrono::milliseconds(100);
    bool waiting = false;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const DriveConn& c = conns[i];
      Live& l = live[i];
      const bool open_loop = !c.due.empty();
      while (!l.closed && l.next < c.reqs.size() &&
             l.out.size() - l.out_off < kMaxPendingBytes &&
             (open_loop ? c.due[l.next] <= now : l.answered == l.next)) {
        l.sent[l.next] = now;
        l.out += c.reqs[l.next]->line;
        l.out += '\n';
        ++l.next;
        ++totals.sent;
      }
      if (!l.closed) flush(c.fd, l);
      if (open_loop && l.next < c.reqs.size())
        wake = std::min(wake, c.due[l.next]);
      // Everything written: half-close so the server sees end of input.
      if (!l.closed && !l.write_shut && l.next == c.reqs.size() &&
          l.out.empty()) {
        ::shutdown(c.fd, SHUT_WR);
        l.write_shut = true;
      }
      waiting = waiting || (!l.closed && l.answered < c.reqs.size());
      pfds[i].fd = l.closed ? -1 : c.fd;
      pfds[i].events =
          static_cast<short>(POLLIN | (l.out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    if (!waiting) break;
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error("bench: ppoll failed");
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (pfds[i].revents & POLLOUT) flush(conns[i].fd, live[i]);
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
        receive(conns[i], live[i], on_answer);
    }
  }
  for (std::size_t i = 0; i < conns.size(); ++i)
    totals.unanswered += conns[i].reqs.size() - live[i].answered;
  return totals;
}

BenchResult run_bench(const WorkloadSpec& spec, double side,
                      const std::string& host, int port, bool shutdown_after) {
  check_workload(spec);
  BenchResult r;
  r.spec = spec;
  r.side = side;

  const std::vector<ScheduledRequest> schedule = expand_schedule(spec, side);
  for (const ScheduledRequest& req : schedule) {
    const int idx = op_index(req.op);
    if (idx >= 0) ++r.per_op[static_cast<std::size_t>(idx)].scheduled;
  }

  // Round-robin the schedule across connections, preserving global order
  // within each connection.
  std::vector<DriveConn> conns(static_cast<std::size_t>(spec.connections));
  {
    const CloseAll closer{conns};
    for (DriveConn& c : conns) c.fd = connect_to(host, port);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      DriveConn& c = conns[i % conns.size()];
      c.reqs.push_back(&schedule[i]);
      if (spec.rate > 0.0) {
        const double offset_ns = 1e9 * static_cast<double>(i) / spec.rate;
        c.due.push_back(start + std::chrono::nanoseconds(
                                    static_cast<std::int64_t>(offset_ns)));
      }
    }

    // Wall clock spans the first due time to the last receive.
    Clock::time_point first_due = Clock::time_point::max();
    Clock::time_point last_recv = Clock::time_point::min();
    const DriveTotals totals = drive_requests(conns, [&](const DriveAnswer& a) {
      const int idx = op_index(a.req->op);
      BenchVerbStats& v = r.per_op[static_cast<std::size_t>(idx)];
      ++r.received;
      if (response_ok(idx, a.line)) ++v.ok;
      else ++v.errors;
      v.latency.record(ns_between(a.due, a.recv));
      v.service.record(ns_between(a.sent, a.recv));
      first_due = std::min(first_due, a.due);
      last_recv = std::max(last_recv, a.recv);
    });
    r.sent = totals.sent;
    r.transport_errors = totals.unanswered;
    r.wall_s =
        last_recv > first_due
            ? static_cast<double>(ns_between(first_due, last_recv)) / 1e9
            : 0.0;
    r.achieved_rate_per_s =
        r.wall_s > 0.0 ? static_cast<double>(r.received) / r.wall_s : 0.0;
  }

  // Control epilogue, one more closed-loop connection: make sure every
  // churn event is applied, then capture the server-side breakdown.
  const std::vector<ScheduledRequest> control = {
      {"drain", "{\"op\":\"drain\"}"},
      {"stats", "{\"op\":\"stats\"}"},
      {"shutdown", "{\"op\":\"shutdown\"}"}};
  std::vector<DriveConn> ctl(1);
  const CloseAll closer{ctl};
  ctl[0].fd = connect_to(host, port);
  for (std::size_t i = 0; i < (shutdown_after ? 3u : 2u); ++i)
    ctl[0].reqs.push_back(&control[i]);
  r.transport_errors +=
      drive_requests(ctl, [&](const DriveAnswer& a) {
        if (a.req->op == "stats") r.final_stats = a.line;
      }).unanswered;
  return r;
}

void write_bench_report(const BenchResult& r, std::ostream& out) {
  JsonWriter w(out, /*indent=*/2);
  w.begin_object();
  w.kv("name", r.spec.name);

  // Everything under "deterministic" is a pure function of the workload
  // spec on a healthy run: tests diff this subtree byte-for-byte across
  // runs and thread counts.
  w.key("deterministic").begin_object();
  w.key("workload").begin_object();
  w.kv("requests", r.spec.requests);
  w.kv("rate", r.spec.rate);
  w.kv("connections", r.spec.connections);
  w.kv("seed", static_cast<std::uint64_t>(r.spec.seed));
  w.kv("knn_k", r.spec.knn_k);
  w.key("mix").begin_object();
  w.kv("knn", r.spec.mix_knn);
  w.kv("coverage", r.spec.mix_coverage);
  w.kv("load", r.spec.mix_load);
  w.kv("stats", r.spec.mix_stats);
  w.kv("health", r.spec.mix_health);
  w.end_object();
  w.key("churn").begin_array();
  for (const ChurnSpec& c : r.spec.churn) {
    w.begin_object();
    w.kv("every", c.every);
    w.kv("body", c.body);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.kv("side", r.side);
  w.key("scheduled_per_op").begin_object();
  for (std::size_t op = 0; op < kBenchOps.size(); ++op)
    w.kv(kBenchOps[op], r.per_op[op].scheduled);
  w.end_object();
  std::uint64_t total_ok = 0, total_errors = 0;
  for (const BenchVerbStats& v : r.per_op) {
    total_ok += v.ok;
    total_errors += v.errors;
  }
  w.kv("responses_ok", total_ok);
  w.kv("protocol_errors", total_errors);
  w.kv("transport_errors", r.transport_errors);
  w.end_object();

  // Timing: wall-clock-derived, varies run to run by design.
  w.key("timing").begin_object();
  w.kv("wall_s", r.wall_s);
  w.kv("achieved_rate_per_s", r.achieved_rate_per_s);
  w.kv("offered_rate_per_s", r.spec.rate);
  w.key("per_op").begin_object();
  for (std::size_t op = 0; op < kBenchOps.size(); ++op) {
    if (r.per_op[op].scheduled == 0) continue;
    w.key(kBenchOps[op]);
    write_percentile_pair(w, r.per_op[op]);
  }
  w.end_object();
  // Server-side breakdown, spliced verbatim from the captured stats
  // response: "serve" (snapshot freshness + publish cost) and "latency"
  // (per-verb queue/query/serialize percentiles).
  std::string raw;
  w.key("server").begin_object();
  if (flatjson::get_raw(r.final_stats, "serve", &raw))
    w.key("serve").raw_value(raw);
  if (flatjson::get_raw(r.final_stats, "latency", &raw))
    w.key("latency").raw_value(raw);
  w.end_object();  // server
  w.end_object();  // timing
  w.end_object();
  out << '\n';
}

}  // namespace laacad::serve
