// serve_mix load generator and the serving-layer probes.
//
// The generator is open loop: request i of a segment is due at
// start + i / rate whatever the server does, and its latency is counted
// from that due time, so a stall is charged to every request scheduled
// during it. Each connection has a sender and a receiver thread; the
// protocol answers in order per connection. Event visibility pairs each
// event's acceptance id (from its response) with the first `stats`
// response whose events_applied count covers it.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/flatjson.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "harness/harness.hpp"
#include "scenario/spec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/workload.hpp"

namespace perfbench {

namespace {

using namespace laacad;

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    throw std::runtime_error("loadgen: cannot connect to port " +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line(int fd, std::string* buffer, std::string* line) {
  for (;;) {
    const auto nl = buffer->find('\n');
    if (nl != std::string::npos) {
      *line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    char chunk[8192];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

/// One request/response exchange on a fresh connection.
std::string control_request(int port, const std::string& request) {
  const int fd = connect_loopback(port);
  std::string buffer, line;
  const bool ok = write_all(fd, request + "\n") && read_line(fd, &buffer, &line);
  ::close(fd);
  if (!ok) throw std::runtime_error("loadgen: control request failed");
  return line;
}

struct Pending {
  Clock::time_point due, sent;
  bool is_event = false, is_stats = false, is_health = false;
};

struct StatsSeen {
  Clock::time_point at;
  double applied = 0.0;
};

struct EventSent {
  double id = 0.0;
  Clock::time_point sent;
};

/// One connection of the generator.
struct Conn {
  int fd = -1;
  std::vector<const serve::ScheduledRequest*> reqs;
  std::vector<Clock::time_point> due;
  std::size_t next = 0;  ///< first request not yet handed to the socket
  std::string out;       ///< bytes handed over but not yet written
  std::size_t out_off = 0;
  std::deque<Pending> inflight;
  std::string in;
  std::size_t answered = 0;
  bool closed = false;  ///< read side saw EOF or an error
  bool write_shut = false;
};

/// Everything the generator observed, over all connections.
struct Observed {
  std::uint64_t sent = 0, received = 0, ok = 0, protocol_errors = 0,
                transport_errors = 0, events_sent = 0;
  std::vector<double> latency_us, lag_us;
  std::vector<StatsSeen> stats;
  std::vector<EventSent> events;
  Clock::time_point last_recv{};
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return 1e-3 * static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                        .count());
}

void take_response(Conn& c, const std::string& line, Clock::time_point now,
                   Observed& o) {
  if (c.inflight.empty()) {  // a response nobody asked for
    ++o.protocol_errors;
    return;
  }
  const Pending p = c.inflight.front();
  c.inflight.pop_front();
  ++c.answered;
  ++o.received;
  o.last_recv = now;
  bool ok = false;
  if (p.is_health) ok = line.rfind("{\"hb\"", 0) == 0;
  else ok = flatjson::get_bool(line, "ok", &ok) && ok;
  if (ok) ++o.ok;
  else ++o.protocol_errors;
  o.latency_us.push_back(us_between(p.due, now));
  double v = 0.0;
  if (ok && p.is_event && flatjson::get_number(line, "id", &v))
    o.events.push_back({v, p.sent});
  if (ok && p.is_stats && flatjson::get_number(line, "events_applied", &v))
    o.stats.push_back({now, v});
}

/// Hand every due request of `c` to its output buffer (bounded, so a
/// server that stops reading pushes back on the schedule).
void queue_due(Conn& c, Clock::time_point now, Observed& o) {
  constexpr std::size_t kMaxPendingBytes = 1 << 16;
  while (c.next < c.reqs.size() && c.due[c.next] <= now &&
         c.out.size() - c.out_off < kMaxPendingBytes) {
    const serve::ScheduledRequest& r = *c.reqs[c.next];
    Pending p;
    p.due = c.due[c.next];
    p.sent = now;
    p.is_event = r.op == "event";
    p.is_stats = r.op == "stats";
    p.is_health = r.op == "health";
    c.inflight.push_back(p);
    c.out += r.line;
    c.out += '\n';
    ++o.sent;
    if (p.is_event) ++o.events_sent;
    o.lag_us.push_back(us_between(p.due, now));
    ++c.next;
  }
}

void pump_output(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n =
        ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.closed = true;  // the unanswered requests become transport errors
    return;
  }
  c.out.clear();
  c.out_off = 0;
}

void pump_input(Conn& c, Observed& o) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      c.closed = true;
      break;
    }
    c.in.append(chunk, static_cast<std::size_t>(n));
  }
  const Clock::time_point now = Clock::now();
  std::size_t pos = 0;
  for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos;
       pos = nl + 1)
    take_response(c, c.in.substr(pos, nl - pos), now, o);
  c.in.erase(0, pos);
}

/// The open loop, on the calling thread for every connection: one ppoll
/// loop writes whatever is due and reads whatever has arrived. A single
/// thread keeps the generator off the cores the daemon's connection
/// threads and round loop need, however far behind schedule it runs.
void run_open_loop(std::vector<Conn>& conns, Observed& o) {
  std::vector<pollfd> pfds(conns.size());
  for (;;) {
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = now + std::chrono::milliseconds(100);
    bool waiting = false;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!c.closed) {
        queue_due(c, now, o);
        if (c.next < c.reqs.size()) wake = std::min(wake, c.due[c.next]);
        if (c.next == c.reqs.size() && c.out_off == c.out.size() &&
            !c.write_shut) {
          ::shutdown(c.fd, SHUT_WR);
          c.write_shut = true;
        }
      }
      waiting = waiting || (!c.closed && c.answered < c.reqs.size());
      pfds[i].fd = c.closed ? -1 : c.fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    if (!waiting) break;
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error("loadgen: ppoll failed");
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (pfds[i].revents & POLLOUT) pump_output(conns[i]);
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
        pump_input(conns[i], o);
    }
  }
  for (const Conn& c : conns)
    o.transport_errors += c.reqs.size() - c.answered;
}

}  // namespace

LoadResult drive_load(const LoadOptions& opt) {
  serve::WorkloadSpec spec = serve::load_workload_file(opt.wl_path);
  spec.seed = opt.seed;
  spec.rate = opt.rate;
  spec.requests = opt.requests;
  if (spec.rate <= 0.0 || spec.connections < 1)
    throw std::runtime_error("loadgen: needs an open-loop rate and >= 1 connection");
  const std::vector<serve::ScheduledRequest> schedule =
      serve::expand_schedule(spec, opt.side);

  std::vector<Conn> conns(static_cast<std::size_t>(spec.connections));
  const auto close_all = [&conns] {
    for (const Conn& c : conns)
      if (c.fd >= 0) ::close(c.fd);
  };
  try {
    for (Conn& c : conns) {
      c.fd = connect_loopback(opt.port);
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
  } catch (...) {
    close_all();
    throw;
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Conn& c = conns[i % conns.size()];
    c.reqs.push_back(&schedule[i]);
    c.due.push_back(start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                1e9 * static_cast<double>(i) / spec.rate)));
  }
  Observed o;
  try {
    run_open_loop(conns, o);
  } catch (...) {
    close_all();
    throw;
  }
  close_all();

  LoadResult r;
  r.scheduled = schedule.size();
  r.sent = o.sent;
  r.received = o.received;
  r.ok = o.ok;
  r.protocol_errors = o.protocol_errors;
  r.transport_errors = o.transport_errors;
  r.events_sent = o.events_sent;
  r.latency_us = std::move(o.latency_us);
  r.lag_us = std::move(o.lag_us);
  std::vector<StatsSeen>& stats = o.stats;
  const std::vector<EventSent>& events = o.events;
  const Clock::time_point last = o.received > 0 ? o.last_recv : start;
  r.wall_s = seconds_between(start, last);
  r.achieved_rps = r.wall_s > 0.0 ? static_cast<double>(r.received) / r.wall_s
                                  : 0.0;
  std::sort(stats.begin(), stats.end(),
            [](const StatsSeen& a, const StatsSeen& b) { return a.at < b.at; });
  for (const EventSent& e : events) {
    for (const StatsSeen& s : stats) {
      if (s.at >= e.sent && s.applied >= e.id) {
        r.visible_ms.push_back(1e3 * seconds_between(e.sent, s.at));
        break;
      }
    }
  }
  return r;
}

void write_load_fields(const LoadResult& r, JsonLine& out) {
  out.integer("scheduled", static_cast<long long>(r.scheduled))
      .integer("sent", static_cast<long long>(r.sent))
      .integer("received", static_cast<long long>(r.received))
      .integer("ok", static_cast<long long>(r.ok))
      .integer("protocol_errors", static_cast<long long>(r.protocol_errors))
      .integer("transport_errors", static_cast<long long>(r.transport_errors))
      .integer("events_sent", static_cast<long long>(r.events_sent))
      .num("wall_s", r.wall_s)
      .num("achieved_rps", r.achieved_rps)
      .num("latency_p50_us", percentile(r.latency_us, 0.50))
      .num("latency_p99_us", percentile(r.latency_us, 0.99))
      .num("lag_p99_ms", 1e-3 * percentile(r.lag_us, 0.99))
      .integer("events_visible", static_cast<long long>(r.visible_ms.size()))
      .num("event_visible_p50_ms", percentile(r.visible_ms, 0.50));
}

int run_loadgen(const LoadOptions& opt) {
  const LoadResult r = drive_load(opt);
  JsonLine out;
  out.str("kind", "load");
  write_load_fields(r, out);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

void serve_layer_probes(const std::string& serve_scn,
                        const std::string& serve_wl,
                        const wsn::Network& net, JsonLine& out) {
  serve::ServeConfig cfg;
  cfg.spec = scenario::load_scenario_file(serve_scn);
  cfg.spec.num_threads = 1;
  const double side = cfg.spec.side;
  serve::CoverageService svc(std::move(cfg));
  const Clock::time_point c0 = Clock::now();
  svc.start();
  svc.drain();
  out.num("serve.converge_ms", 1e3 * seconds_between(c0, Clock::now()));
  serve::TcpServer server(svc, 0);
  std::thread serving([&] { server.serve(); });

  // A short segment of the serving workload: client-side and server-side
  // serving layers, far below the knee. The server thread must be joined
  // on every path out of here.
  LoadOptions lo;
  lo.port = server.port();
  lo.wl_path = serve_wl;
  lo.side = side;
  lo.rate = 4000.0;
  lo.requests = 4000;
  LoadResult load;
  try {
    load = drive_load(lo);
  } catch (...) {
    try {
      (void)control_request(server.port(), "{\"op\":\"shutdown\"}");
    } catch (const std::exception&) {
      // The join below then waits for the caller's timeout instead.
    }
    serving.join();
    throw;
  }
  svc.drain();
  out.num("client.lag_ms", 1e-3 * percentile(load.lag_us, 0.99))
      .num("serve.p50_us", percentile(load.latency_us, 0.50))
      .num("serve.p99_us", percentile(load.latency_us, 0.99))
      .num("serve.event_visible_ms", percentile(load.visible_ms, 0.50));
  const serve::RequestLatency::VerbSnapshot knn =
      svc.request_latency().snapshot(serve::Verb::kKnn);
  const auto us = [](std::uint64_t ns) { return 1e-3 * static_cast<double>(ns); };
  out.num("server.queue_us.p50", us(knn.queue.value_at(0.50)))
      .num("server.queue_us.p99", us(knn.queue.value_at(0.99)))
      .num("server.query_us.p50", us(knn.query.value_at(0.50)))
      .num("server.serialize_us.p50", us(knn.serialize.value_at(0.50)))
      .num("server.publish_us.p50", us(svc.publish_histogram().value_at(0.50)))
      .num("server.staleness_rounds", svc.snapshot_staleness_rounds());

  // In-process protocol handlers, one verb at a time.
  const auto time_verb = [&](const std::string& line, int reps) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i) (void)serve::handle_line(svc, line);
    return 1e6 * seconds_between(t0, Clock::now()) / reps;
  };
  const std::string mid = std::to_string(side / 2.0);
  out.num("protocol.knn_us",
          time_verb("{\"op\":\"knn\",\"x\":" + mid + ",\"y\":" + mid +
                        ",\"k\":3}", 2000))
      .num("protocol.coverage_us",
           time_verb("{\"op\":\"coverage\",\"x\":" + mid + ",\"y\":" + mid +
                         "}", 2000))
      .num("protocol.load_us", time_verb("{\"op\":\"load\"}", 2000))
      .num("protocol.stats_us", time_verb("{\"op\":\"stats\"}", 500));
  (void)control_request(server.port(), "{\"op\":\"shutdown\"}");
  serving.join();

  // One double through JsonWriter: the workload's own coordinates.
  std::vector<double> values;
  while (values.size() < 30000) {
    for (int i = 0; i < net.size(); ++i) {
      values.push_back(net.xs()[static_cast<std::size_t>(i)]);
      values.push_back(net.ys()[static_cast<std::size_t>(i)]);
      values.push_back(net.sensing_ranges()[static_cast<std::size_t>(i)]);
    }
  }
  {
    std::ostringstream sink;
    JsonWriter w(sink, /*indent=*/0);
    const Clock::time_point t0 = Clock::now();
    w.begin_array();
    for (const double v : values) w.value(v);
    w.end_array();
    out.num("json.number_ns", 1e9 * seconds_between(t0, Clock::now()) /
                                  static_cast<double>(values.size()));
  }

  // Snapshot build (publish) and the two snapshot queries at the workload's
  // own network size.
  const int publishes = std::max(3, 20000 / std::max(1, net.size()));
  std::unique_ptr<serve::Snapshot> snap;
  const Clock::time_point p0 = Clock::now();
  for (int i = 0; i < publishes; ++i)
    snap = std::make_unique<serve::Snapshot>(net.domain(), net,
                                             serve::Snapshot::Meta{});
  out.num("snapshot.publish_us",
          1e6 * seconds_between(p0, Clock::now()) / publishes);
  const geom::BBox bb = net.domain().bbox();
  Rng rng(7);
  std::vector<geom::Vec2> queries(4000);
  for (geom::Vec2& q : queries)
    q = {rng.uniform(bb.lo.x, bb.hi.x), rng.uniform(bb.lo.y, bb.hi.y)};
  std::size_t sink = 0;
  const Clock::time_point k0 = Clock::now();
  for (const geom::Vec2& q : queries) sink += snap->closest_nodes(q, 3).size();
  const Clock::time_point k1 = Clock::now();
  for (const geom::Vec2& q : queries)
    sink += static_cast<std::size_t>(snap->coverage_depth(q));
  const Clock::time_point k2 = Clock::now();
  const auto nq = static_cast<double>(queries.size());
  out.num("snapshot.knn_us", 1e6 * seconds_between(k0, k1) / nq)
      .num("snapshot.depth_us", 1e6 * seconds_between(k1, k2) / nq)
      .integer("snapshot.sink", static_cast<long long>(sink));
}

}  // namespace perfbench
