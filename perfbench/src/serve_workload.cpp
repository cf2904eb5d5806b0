// serve_mixed: `provmark cluster` with two members, driven by four
// closed-loop connections from this process, plus the serve half of the
// traced run.
#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <exception>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench_suite/program.h"
#include "bench_suite/program_text.h"
#include "common.h"
#include "serve/cluster.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "trace.h"
#include "util/rng.h"

extern "C" std::uint64_t provbench_fsync_calls(void);
extern char** environ;

namespace provbench {

namespace {

namespace serve = provmark::serve;
namespace fs = std::filesystem;

// -- the event mix ---------------------------------------------------------------
//
// A synthetic mix: nothing in ProvMark records real serve traffic, so
// the ratios below are assumptions, each chosen for what it exercises
// (README, "serve_mixed sessions and event mix").

constexpr int kMembers = 2;
/// Each connection owns two sessions, one on each member, so every
/// connection loads both members.
constexpr int kConnections = 4;
/// Nodes n0..n(kNodes-1) carry the `edge` facts; a fixed node set bounds
/// the `path` relation, so apply and query cost stop growing with the
/// run's length.
constexpr int kNodes = 48;
/// Requests per session per round: every kQueryEvery-th is a query (a
/// write-heavy stream with reads in every slice of the window), one per
/// round is a run event (the slow apply that queries wait behind), the
/// rest fact events (the very first event of a session is the `path`
/// rule). kRoundEvents events per round is also the checkpoint cadence,
/// so every round of every session ends in exactly one checkpoint.
constexpr int kRoundRequests = 40;
constexpr int kQueryEvery = 5;
constexpr int kRunEvery = 40;
constexpr int kRoundEvents = kRoundRequests - kRoundRequests / kQueryEvery;
/// Untimed rounds before the measured window (rule, first closure).
constexpr int kWarmupRounds = 2;
/// Cluster start-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Slices of the timed window; the end-to-end figures are slice medians.
constexpr int kWindows = 5;

const char* const kRunSystems[] = {"audit", "ebpf",  "opus",
                                   "spade", "camflow", "spade-camflow"};
const char* const kRunPrograms[] = {"open", "close", "creat", "dup",
                                    "rename", "unlink", "pipe", "fork"};
const char* const kPathRule =
    "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z).\n";

std::string node(int i) { return "n" + std::to_string(i); }

struct SessionStream {
  std::string id;
  int index = 0;
  std::uint64_t first_state = 0;  ///< rng state before round 0
  std::uint64_t rng_state = 0;
  std::set<std::pair<int, int>> edges;  // every edge sent so far
  int round = 0;
};

/// The request lines of one round of one session (and the edges the
/// round sends, for the closure check).
std::vector<std::string> next_round(SessionStream& s) {
  provmark::util::Rng rng(s.rng_state);
  std::vector<std::string> lines;
  for (int p = 0; p < kRoundRequests; ++p) {
    if (p % kQueryEvery == kQueryEvery - 1) {
      lines.push_back("query " + s.id + " 5000 path(n0,X)");
      continue;
    }
    std::string kind = "fact";
    std::string payload;
    if (s.round == 0 && p == 0) {
      kind = "rule";
      payload = kPathRule;
    } else if (p % kRunEvery == kRunEvery - 2) {
      kind = "run";
      // Systems rotate by session and round, so every run of the
      // workload carries the same mix of cheap and trial-heavy recorders.
      const char* system =
          kRunSystems[(s.index + s.round) % 6];
      const std::string program = kRunPrograms[rng.next_below(8)];
      payload = std::string(system) + "\n" +
                provmark::bench_suite::format_program(
                    provmark::bench_suite::benchmark_by_name(program));
    } else {
      const int a = static_cast<int>(rng.next_below(kNodes));
      const int b = static_cast<int>(rng.next_below(kNodes));
      s.edges.insert({a, b});
      payload = "edge(" + node(a) + "," + node(b) + ").";
    }
    lines.push_back("event " + s.id + " " + kind + " normal " +
                    serve::escape_field(payload));
  }
  s.rng_state = rng.next_u64();
  ++s.round;
  return lines;
}

/// path(n0,X) computed from the edges alone: the nodes reachable from
/// n0 by one or more edges, as the sorted "X=nK" lines a query answers.
std::string expected_paths(const SessionStream& s) {
  std::vector<std::vector<int>> out(kNodes);
  for (const auto& [a, b] : s.edges) out[a].push_back(b);
  std::vector<bool> seen(kNodes, false);
  std::vector<int> stack(out[0].begin(), out[0].end());
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (seen[v]) continue;
    seen[v] = true;
    stack.insert(stack.end(), out[v].begin(), out[v].end());
  }
  std::set<std::string> lines;
  for (int v = 0; v < kNodes; ++v) {
    if (seen[v]) lines.insert("X=" + node(v));
  }
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// The non-empty lines of a response body.
std::vector<std::string> lines_of(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// A query body as a sorted set of lines (the order is the engine's).
std::string sorted_lines(const std::string& body) {
  const std::vector<std::string> lines = lines_of(body);
  const std::set<std::string> sorted(lines.begin(), lines.end());
  std::string text;
  for (const std::string& line : sorted) text += line + "\n";
  return text;
}

/// Session ids named so that the router places exactly
/// kConnections sessions on each member.
std::vector<std::string> session_ids(std::uint64_t seed) {
  std::vector<std::vector<std::string>> by_member(kMembers);
  for (int j = 0; by_member[0].size() < kConnections ||
                  by_member[1].size() < kConnections;
       ++j) {
    const std::string id = "b" + std::to_string(seed) + "s" + std::to_string(j);
    auto& bucket = by_member[serve::member_for(id, kMembers)];
    if (bucket.size() < kConnections) bucket.push_back(id);
  }
  // Connection c owns sessions 2c (member 0) and 2c+1 (member 1).
  std::vector<std::string> ids;
  for (int c = 0; c < kConnections; ++c) {
    ids.push_back(by_member[0][c]);
    ids.push_back(by_member[1][c]);
  }
  return ids;
}

std::vector<SessionStream> make_streams(std::uint64_t seed) {
  std::vector<SessionStream> streams;
  for (const std::string& id : session_ids(seed)) {
    const std::uint64_t state = provmark::util::stable_hash(id) ^ seed;
    streams.push_back({id, static_cast<int>(streams.size()), state, state, {}, 0});
  }
  return streams;
}

// -- a line client ---------------------------------------------------------------

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("cannot open a socket for " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Send one request line, return the response line ("" on EOF).
  std::string call(const std::string& line) {
    std::string out = line + "\n";
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return "";
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = in_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = in_.substr(0, nl);
        in_.erase(0, nl + 1);
        return reply;
      }
      char buf[65536];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return "";
      in_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string in_;
};

/// key=value lines of a stats body.
std::map<std::string, std::string> parse_stats(const std::string& reply) {
  std::map<std::string, std::string> kv;
  for (const std::string& line : lines_of(serve::parse_response(reply).body)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

std::uint64_t stat_u64(const std::map<std::string, std::string>& kv,
                       const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? 0 : std::stoull(it->second);
}

// -- the cluster process ---------------------------------------------------------

/// The running router, for the signal handler: a benchmark process stopped by
/// SIGTERM/SIGINT takes the cluster down with it (the router drains and
/// reaps its members on SIGTERM).
volatile sig_atomic_t g_router_pid = 0;

void stop_router_and_die(int sig) {
  if (g_router_pid > 0) ::kill(static_cast<pid_t>(g_router_pid), SIGTERM);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// The fields of /proc/<pid>/stat after the parenthesised command name
/// (the state first, then the parent pid, ...); empty once it is gone.
std::vector<std::string> proc_stat_fields(const std::string& pid) {
  std::ifstream stat("/proc/" + pid + "/stat");
  const std::string text((std::istreambuf_iterator<char>(stat)),
                         std::istreambuf_iterator<char>());
  std::vector<std::string> fields;
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return fields;
  std::istringstream rest(text.substr(close + 1));
  for (std::string field; rest >> field;) fields.push_back(field);
  return fields;
}

/// Pids whose parent is `pid`.
std::vector<int> children_of(int pid) {
  std::vector<int> out;
  for (const auto& entry : fs::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::vector<std::string> fields = proc_stat_fields(name);
    if (fields.size() > 1 && std::stoi(fields[1]) == pid) {
      out.push_back(std::stoi(name));
    }
  }
  return out;
}

/// A process's user+system CPU seconds (stat fields 14 and 15) and peak
/// resident set in MiB (VmHWM); zeros once it is gone.
std::pair<double, double> cpu_rss_of(int pid) {
  const std::vector<std::string> fields = proc_stat_fields(std::to_string(pid));
  double cpu = 0;
  if (fields.size() > 12) {
    cpu = (std::stod(fields[11]) + std::stod(fields[12])) /
          static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  double rss = 0;
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) rss = std::stod(line.substr(6)) / 1024.0;
  }
  return {cpu, rss};
}

class Cluster {
 public:
  /// `probes`: one session id owned by each member.
  Cluster(const Args& args, const std::string& dir,
          const std::vector<std::string>& probes)
      : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    counter_path_ = dir_ + "/fsync.count";
    {
      std::ofstream counter(counter_path_, std::ios::binary);
      const std::uint64_t zero[2] = {0, 0};
      counter.write(reinterpret_cast<const char*>(zero), sizeof zero);
      if (!counter) throw std::runtime_error("cannot write " + counter_path_);
    }
    socket_ = dir_ + "/front.sock";
    const std::string cli = args.tools_dir + "/provmark_cli";
    std::vector<std::string> argv = {
        cli, "--seed", std::to_string(args.seed), "cluster", socket_,
        dir_ + "/root", "--members", std::to_string(kMembers),
        "--serve-workers", "1", "--queue-cap", "1000000", "--session-cap",
        "1000000", "--checkpoint-every", std::to_string(kRoundEvents)};
    std::vector<std::string> env = {
        "LD_PRELOAD=" + args.tools_dir + "/fsync_shim.so",
        "PROVBENCH_FSYNC_COUNTER=" + counter_path_};
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "LD_PRELOAD=", 11) != 0) env.emplace_back(*e);
    }
    std::vector<char*> cargv, cenv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    for (std::string& e : env) cenv.push_back(e.data());
    cenv.push_back(nullptr);
    // The cluster's own log goes to a file: stdout is the result line's.
    const std::string log = dir_ + "/cluster.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const double t0 = now_s();
    const int spawned = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                                    cargv.data(), cenv.data());
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) throw std::runtime_error("cannot start " + cli);
    g_router_pid = pid_;
    std::signal(SIGTERM, stop_router_and_die);
    std::signal(SIGINT, stop_router_and_die);
    try {
      wait_ready(probes);
    } catch (...) {
      stop();  // the destructor does not run for a throwing constructor
      throw;
    }
    ready_s_ = now_s() - t0;
    members_ = children_of(pid_);
  }

  ~Cluster() { stop(); }

  double ready_s() const { return ready_s_; }
  const std::string& socket() const { return socket_; }
  std::string member_socket(int k) const {
    return serve::member_socket_path(dir_ + "/root", k);
  }
  /// fsync + fdatasync calls made by the router and members so far.
  std::uint64_t fsyncs() const {
    std::uint64_t counts[2] = {0, 0};
    std::ifstream counter(counter_path_, std::ios::binary);
    counter.read(reinterpret_cast<char*>(counts), sizeof counts);
    if (!counter) throw std::runtime_error("cannot read " + counter_path_);
    return counts[0] + counts[1];
  }

  /// Router + member CPU seconds and summed peak RSS (MiB).
  std::pair<double, double> cpu_rss() const {
    auto [cpu, rss] = cpu_rss_of(static_cast<int>(pid_));
    for (int member : members_) {
      auto [c, r] = cpu_rss_of(member);
      cpu += c;
      rss += r;
    }
    return {cpu, rss};
  }

  /// Summed member stats counter.
  std::uint64_t member_stat(const std::string& key) {
    std::uint64_t sum = 0;
    for (int k = 0; k < kMembers; ++k) {
      Conn conn(member_socket(k));
      sum += stat_u64(parse_stats(conn.call("stats")), key);
    }
    return sum;
  }

  /// Wait until every member has applied everything it acked.
  void wait_applied() {
    const double deadline = now_s() + 60;
    while (member_stat("pending") != 0) {
      if (now_s() > deadline) throw std::runtime_error("members never drained");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  void stop() {
    if (pid_ <= 0) return;
    if (members_.empty()) members_ = children_of(pid_);
    ::kill(pid_, SIGTERM);
    int status = 0;
    const double deadline = now_s() + 30;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        for (int m : members_) ::kill(m, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    g_router_pid = 0;
  }

 private:
  /// Ready = a read-only request for a session of each member, sent
  /// through the router, is answered by that member (the router says
  /// `busy` until its link to the member is connected).
  void wait_ready(const std::vector<std::string>& probes) {
    const double deadline = now_s() + 60;
    for (;;) {
      if (now_s() > deadline) throw std::runtime_error("cluster never came up");
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        g_router_pid = 0;
        throw std::runtime_error("provmark cluster exited during start-up");
      }
      try {
        Conn front(socket_);
        bool all = true;
        for (const std::string& id : probes) {
          const std::string reply = front.call("digest " + id + " 1000");
          all = all && !reply.empty() && reply.rfind("busy", 0) != 0;
        }
        if (all) return;
      } catch (const std::exception&) {
        // not listening yet
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::string dir_;
  std::string counter_path_;
  std::string socket_;
  pid_t pid_ = -1;
  std::vector<int> members_;
  double ready_s_ = 0;
};

// -- load ------------------------------------------------------------------------

/// A timed reply: when it arrived (now_s) and how long it took (ms).
struct Reply {
  double at_s;
  double ms;
};

struct Samples {
  std::vector<Reply> acks, queries;
  std::uint64_t events = 0, requests = 0, failed = 0;
  std::exception_ptr error;  ///< what stopped the connection's thread
};

bool answered_ok(const std::string& line, const std::string& reply) {
  const bool event = line.rfind("event ", 0) == 0;
  return reply.rfind(event ? "ok " : "result ", 0) == 0;
}

/// One connection's closed loop: whole rounds of both its sessions,
/// alternating requests, until `until` (or `rounds` rounds when > 0).
void drive(const std::string& socket, SessionStream* a, SessionStream* b,
           double until, int rounds, Samples* out) try {
  Conn conn(socket);
  for (int r = 0; rounds > 0 ? r < rounds : now_s() < until; ++r) {
    const std::vector<std::string> la = next_round(*a);
    const std::vector<std::string> lb = next_round(*b);
    for (std::size_t i = 0; i < la.size(); ++i) {
      for (const std::string* line : {&la[i], &lb[i]}) {
        const bool event = line->rfind("event ", 0) == 0;
        const double t0 = now_s();
        const std::string reply = conn.call(*line);
        const double t1 = now_s();
        ++out->requests;
        if (event) ++out->events;
        (event ? out->acks : out->queries).push_back({t1, (t1 - t0) * 1e3});
        if (!answered_ok(*line, reply)) {
          if (out->failed == 0) {
            std::fprintf(stderr, "request failed: %.60s -> %.80s\n",
                         line->c_str(), reply.c_str());
          }
          ++out->failed;
        }
      }
    }
  }
} catch (...) {
  out->error = std::current_exception();
}

/// All connections in parallel; returns merged samples.
Samples drive_all(const std::string& socket, std::vector<SessionStream>& streams,
                  double until, int rounds) {
  std::vector<Samples> per(kConnections);
  {
    std::vector<std::jthread> threads;  // joined on every exit path
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(drive, socket, &streams[2 * c], &streams[2 * c + 1],
                           until, rounds, &per[c]);
    }
  }
  Samples all;
  for (Samples& s : per) {
    if (s.error) std::rethrow_exception(s.error);
    all.acks.insert(all.acks.end(), s.acks.begin(), s.acks.end());
    all.queries.insert(all.queries.end(), s.queries.begin(), s.queries.end());
    all.events += s.events;
    all.requests += s.requests;
    all.failed += s.failed;
  }
  return all;
}

/// Replay every session's stream into an in-process Service and return
/// its per-session digests (the cluster must match them).
std::map<std::string, std::string> reference_digests(
    const Args& args, const std::vector<SessionStream>& streams,
    const std::string& dir) {
  fs::remove_all(dir);
  serve::ServiceOptions options;
  options.root = dir;
  options.workers = kConnections;
  options.seed = args.seed;
  options.session_queue_cap = 1'000'000;
  options.global_queue_cap = 1'000'000;
  options.checkpoint_every = kRoundEvents;
  serve::Service service(options);
  for (const SessionStream& original : streams) {
    SessionStream s{original.id, original.index, original.first_state,
                    original.first_state, {}, 0};
    for (int r = 0; r < original.round; ++r) {
      for (const std::string& line : next_round(s)) {
        if (line.rfind("event ", 0) != 0) continue;
        const serve::Response response =
            service.submit(serve::parse_request(line));
        if (response.status != serve::Status::Ok) {
          throw std::runtime_error("reference service refused an event");
        }
      }
    }
  }
  service.flush();
  return service.session_digests();
}

/// Closure and digest checks of every session after the run.
void check_sessions(const Args& args, Cluster& cluster,
                    const std::vector<SessionStream>& streams, Outcome& out) {
  const std::map<std::string, std::string> expected =
      reference_digests(args, streams, args.work_dir + "/serve-reference");
  Conn conn(cluster.socket());
  for (const SessionStream& s : streams) {
    const serve::Response paths =
        serve::parse_response(conn.call("query " + s.id + " 60000 path(n0,X)"));
    if (paths.status != serve::Status::Result ||
        sorted_lines(paths.body) != expected_paths(s)) {
      out.wrong("session " + s.id + ": path(n0,X) differs from the closure");
    }
    const serve::Response digest =
        serve::parse_response(conn.call("digest " + s.id + " 60000"));
    auto it = expected.find(s.id);
    if (digest.status != serve::Status::Result || it == expected.end() ||
        digest.body != it->second) {
      out.wrong("session " + s.id + ": digest differs from the in-process service");
    }
  }
}

/// Refusal counters of the router and (summed) members; all stay zero
/// on a good run once the cluster is up.
const char* const kRouterCounters[] = {"busy_member_down", "busy_window_full",
                                       "route_drops"};
const char* const kMemberCounters[] = {"shed_low", "shed_normal", "busy"};

std::vector<std::uint64_t> refusal_counters(Cluster& cluster) {
  Conn front(cluster.socket());
  const auto router = parse_stats(front.call("stats"));
  std::vector<std::uint64_t> values;
  for (const char* key : kRouterCounters) values.push_back(stat_u64(router, key));
  for (const char* key : kMemberCounters) values.push_back(cluster.member_stat(key));
  return values;
}

/// Prints the counters' growth since `before` (the start-up probes are
/// answered `busy` until the router's member links connect).
void print_counters(Cluster& cluster, const std::vector<std::uint64_t>& before) {
  const std::vector<std::uint64_t> after = refusal_counters(cluster);
  std::string text = "router";
  std::size_t i = 0;
  for (const char* key : kRouterCounters) {
    text += " " + std::string(key) + "=" + std::to_string(after[i] - before[i]);
    ++i;
  }
  text += "; members";
  for (const char* key : kMemberCounters) {
    text += " " + std::string(key) + "=" + std::to_string(after[i] - before[i]);
    ++i;
  }
  std::fprintf(stderr, "%s\n", text.c_str());
}

/// Cluster start-ups until the last, which is kept; returns the median
/// start-up time.
std::unique_ptr<Cluster> start_cluster(const Args& args, double* setup_s) {
  const std::vector<std::string> ids = session_ids(args.seed);
  const std::vector<std::string> probes = {ids[0], ids[1]};
  std::vector<double> samples;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.reset();
    cluster = std::make_unique<Cluster>(args, args.work_dir + "/serve", probes);
    samples.push_back(cluster->ready_s());
  }
  *setup_s = median(samples);
  return cluster;
}

}  // namespace

Outcome run_serve_mixed(const Args& args) {
  Outcome out;
  double setup_s = 0;
  std::unique_ptr<Cluster> cluster = start_cluster(args, &setup_s);
  std::vector<SessionStream> streams = make_streams(args.seed);
  const std::vector<std::uint64_t> counters = refusal_counters(*cluster);

  Samples warm = drive_all(cluster->socket(), streams, 0, kWarmupRounds);
  cluster->wait_applied();

  const double cpu0 = cluster->cpu_rss().first;
  const double start = now_s();
  Samples timed = drive_all(cluster->socket(), streams, start + args.seconds, 0);
  const double acked_at = now_s();
  cluster->wait_applied();
  const double applied_at = now_s();
  const auto [cpu1, rss] = cluster->cpu_rss();

  out.attempted = warm.requests + timed.requests;
  out.failed = warm.failed + timed.failed;
  print_counters(*cluster, counters);
  check_sessions(args, *cluster, streams, out);
  cluster->stop();

  // An operation is an event; acks are timed at this client. The
  // window in which all four connections run, [start, start+seconds), is
  // cut into kWindows equal slices; each figure is the median over the
  // slices, so a stall of the shared machine that hits one slice does
  // not move it.
  const double slice = args.seconds / kWindows;
  std::vector<std::vector<double>> slice_ms(kWindows);
  for (const Reply& ack : timed.acks) {
    const int w = static_cast<int>((ack.at_s - start) / slice);
    if (w >= 0 && w < kWindows) slice_ms[static_cast<std::size_t>(w)].push_back(ack.ms);
  }
  std::vector<double> rate, p50, p90;
  for (const std::vector<double>& ms : slice_ms) {
    rate.push_back(static_cast<double>(ms.size()) / slice);
    p50.push_back(quantile(ms, 0.5));
    p90.push_back(quantile(ms, 0.9));
  }
  const double events = static_cast<double>(timed.events);
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", rss, "MiB");
  out.add("ops_per_s", median(rate), "1/s");
  out.add("cpu_ms_per_op", (cpu1 - cpu0) * 1e3 / events, "ms");
  out.add("op_ms_p90", median(p90), "ms");
  std::vector<double> query_ms;
  for (const Reply& q : timed.queries) query_ms.push_back(q.ms);
  std::fprintf(stderr,
               "serve_mixed: %llu events acked in %.2f s, all applied after "
               "%.2f s (applied_eps %.1f); ack_ms_p50 %.4f; %zu queries, "
               "query_ms_p50 %.4f\n",
               static_cast<unsigned long long>(timed.events), acked_at - start,
               applied_at - start, events / (applied_at - start), median(p50),
               query_ms.size(), quantile(query_ms, 0.5));
  return out;
}

// -- traced run ------------------------------------------------------------------

namespace {

/// Rounds of the fixed traced stream (in-process and through the cluster).
constexpr int kTraceRounds = 6;
/// Sequential events of the router-vs-direct ack probe.
constexpr int kProbeEvents = 200;

struct InProcess {
  double wall_s = 0;
  std::uint64_t events = 0, requests = 0, failed = 0, fsyncs = 0;
};

/// Feeds kTraceRounds rounds of every session through parse_request and
/// Service::submit on this thread, pumping after each event.
InProcess feed_in_process(const Args& args, const std::string& dir) {
  fs::remove_all(dir);
  serve::ServiceOptions options;
  options.root = dir;
  options.workers = 0;
  options.seed = args.seed;
  options.session_queue_cap = 1'000'000;
  options.global_queue_cap = 1'000'000;
  options.checkpoint_every = kRoundEvents;
  serve::Service service(options);
  std::vector<SessionStream> streams = make_streams(args.seed);
  InProcess run;
  const std::uint64_t fsync0 = provbench_fsync_calls();
  const double t0 = now_s();
  for (int r = 0; r < kTraceRounds; ++r) {
    for (SessionStream& s : streams) {
      for (const std::string& line : next_round(s)) {
        trace::set_operation(++run.requests);
        trace::Scope request_span("serve.request");
        const serve::Request request = serve::parse_request(line);
        serve::Response response;
        {
          trace::Scope admit(request.is_event ? "serve.service.admit"
                                              : "serve.service.read");
          response = service.submit(request);
        }
        if (request.is_event) {
          ++run.events;
          trace::Scope pump("serve.service.pump");
          service.pump();
        }
        if (!answered_ok(line, serve::format_response(response))) ++run.failed;
      }
    }
  }
  run.wall_s = now_s() - t0;
  run.fsyncs = provbench_fsync_calls() - fsync0;
  return run;
}

double mean_us(const std::vector<trace::Span>& spans, const char* name) {
  const trace::Total t = trace::total(spans, name);
  return t.calls == 0 ? 0 : t.ms * 1e3 / static_cast<double>(t.calls);
}

/// Median ack (ms) of kProbeEvents sequential fact events on `socket`.
double probe_ack_ms(const std::string& socket, const std::string& session) {
  Conn conn(socket);
  std::vector<double> ms;
  for (int i = 0; i < kProbeEvents; ++i) {
    const std::string line = "event " + session + " fact normal edge(p" +
                             std::to_string(i) + ",q).";
    const double t0 = now_s();
    const std::string reply = conn.call(line);
    ms.push_back((now_s() - t0) * 1e3);
    if (reply.rfind("ok ", 0) != 0) throw std::runtime_error("probe refused");
  }
  return median(ms);
}

}  // namespace

void run_serve_layers(const Args& args, Outcome& out) {
  // -- in-process service: untraced twin, then spans on --------------------
  const InProcess plain = feed_in_process(args, args.work_dir + "/serve-plain");
  trace::take();
  trace::set_recording(true);
  const InProcess traced = feed_in_process(args, args.work_dir + "/serve-traced");
  trace::set_recording(false);
  const std::vector<trace::Span> spans = trace::take();
  trace::write_spans(args.work_dir + "/spans.jsonl", spans);
  out.attempted += plain.requests + traced.requests;
  out.failed += plain.failed + traced.failed;

  const double events = static_cast<double>(traced.events);
  const trace::Total append = trace::total(spans, "serve.journal.append");
  const trace::Total checkpoint = trace::total(spans, "serve.checkpoint");
  out.add("serve.protocol.parse_us", mean_us(spans, "serve.protocol.parse"), "us");
  out.add("serve.service.admit_us", mean_us(spans, "serve.service.admit"), "us");
  out.add("serve.journal.append_us", mean_us(spans, "serve.journal.append"), "us");
  out.add("serve.journal.bytes_per_event", append.count / events, "B");
  out.add("serve.session.apply_us.fact", mean_us(spans, "serve.session.apply.fact"),
          "us");
  out.add("serve.session.apply_us.rule", mean_us(spans, "serve.session.apply.rule"),
          "us");
  out.add("serve.session.apply_us.run", mean_us(spans, "serve.session.apply.run"),
          "us");
  out.add("serve.checkpoints", static_cast<double>(checkpoint.calls), "count");
  out.add("serve.checkpoint_ms",
          checkpoint.calls == 0 ? 0 : checkpoint.ms / static_cast<double>(checkpoint.calls),
          "ms");
  out.add("datalog.query_us", mean_us(spans, "datalog.query"), "us");
  out.add("trace.serve_overhead_pct", (traced.wall_s / plain.wall_s - 1.0) * 100.0,
          "%");

  // -- the cluster: fsyncs, backlog and router cost of the same stream -----
  double setup_s = 0;
  std::unique_ptr<Cluster> cluster = start_cluster(args, &setup_s);
  std::vector<SessionStream> streams = make_streams(args.seed);
  Samples warm = drive_all(cluster->socket(), streams, 0, kWarmupRounds);
  cluster->wait_applied();
  const std::uint64_t fsync0 = cluster->fsyncs();

  std::uint64_t backlog_peak = 0;
  std::exception_ptr poll_error;
  std::jthread poller([&](std::stop_token stop) {
    try {
      while (!stop.stop_requested()) {
        backlog_peak = std::max(backlog_peak, cluster->member_stat("pending"));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (...) {
      poll_error = std::current_exception();
    }
  });
  Samples rounds = drive_all(cluster->socket(), streams, 0, kTraceRounds);
  cluster->wait_applied();
  poller.request_stop();
  poller.join();
  if (poll_error) std::rethrow_exception(poll_error);
  const std::uint64_t fsyncs = cluster->fsyncs() - fsync0;

  // A session of member 0 outside the checked streams: acks through the
  // router against acks sent straight to the member's own socket.
  std::string probe;
  for (int j = 0; probe.empty(); ++j) {
    const std::string id = "probe" + std::to_string(args.seed) + "x" + std::to_string(j);
    if (serve::member_for(id, kMembers) == 0) probe = id;
  }
  const double routed_ms = probe_ack_ms(cluster->socket(), probe);
  const double direct_ms = probe_ack_ms(cluster->member_socket(0), probe);
  out.attempted += warm.requests + rounds.requests + 2 * kProbeEvents;
  out.failed += warm.failed + rounds.failed;
  cluster->stop();

  out.add("serve.journal.fsyncs_per_event",
          static_cast<double>(fsyncs) / static_cast<double>(rounds.events), "count");
  out.add("serve.backlog_peak", static_cast<double>(backlog_peak), "count");
  out.add("serve.cluster.proxy_us", (routed_ms - direct_ms) * 1e3, "us");
  std::fprintf(stderr,
               "in-process: %llu events, %llu fsyncs; cluster: %llu events, "
               "%llu fsyncs\n",
               static_cast<unsigned long long>(traced.events),
               static_cast<unsigned long long>(traced.fsyncs),
               static_cast<unsigned long long>(rounds.events),
               static_cast<unsigned long long>(fsyncs));
}

}  // namespace provbench
