#include "client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>

#include "net/frame.h"
#include "net/net_client.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// ServerProcess
// ---------------------------------------------------------------------------

CpuTicks ReadCpuTicks() {
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice;
  // guest time is already inside user and nice.
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

ServerProcess::~ServerProcess() { Kill(); }

bool ServerProcess::Start(const std::string& binary, const std::string& root,
                          size_t max_resident) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) return false;
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }
  std::vector<std::string> args = {binary, "--root=" + root, "--listen=0"};
  if (max_resident > 0) {
    args.push_back("--max_resident=" + std::to_string(max_resident));
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // The server must not outlive the generator, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(in_pipe[0], 0);
    ::dup2(out_pipe[1], 1);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  pid_ = pid;
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
  // READY root=... listen=<port>
  std::string line;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t at = line.find("listen=");
  if (line.rfind("READY", 0) != 0 || at == std::string::npos) return false;
  port_ = std::atoi(line.c_str() + at + 7);
  return port_ > 0;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdin_fd_ = stdout_fd_ = -1;
}

void ServerProcess::Stop(double timeout_s) {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s);
  while (pid_ > 0 && Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      break;
    }
    ::usleep(10000);
  }
  Kill();
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  // Each thread's /proc/<pid>/task/<tid>/schedstat starts with its time on a
  // CPU in ns (which leaves out steal, unlike wall time).
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  std::error_code ec;
  double ns = 0.0;
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(task.path() / "schedstat");
    double on_cpu = 0.0;
    if (in >> on_cpu) ns += on_cpu;
  }
  return ns / 1e9;
}

// ---------------------------------------------------------------------------
// Pipelined frame client
// ---------------------------------------------------------------------------

namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  int fd = -1;
  std::vector<size_t> queue;  // positions in `order`, in send order
  size_t next = 0;
  std::deque<size_t> inflight;  // positions awaiting a reply
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  double slot_open_s = 0.0;  // closed loop: when a send slot last opened
  bool dead = false;
};

}  // namespace

void RunRequests(int port, const Workload& w, const std::vector<size_t>& order,
                 int conns, const RunOptions& options,
                 std::vector<Sample>* samples, Clock::time_point* started) {
  samples->assign(order.size(), Sample{});
  std::vector<Conn> cs(static_cast<size_t>(conns));
  for (size_t i = 0; i < order.size(); ++i) {
    (*samples)[i].request = order[i];
    cs[w.requests[order[i]].conn].queue.push_back(i);
  }
  for (Conn& c : cs) {
    c.fd = ConnectLoopback(port);
    if (c.fd < 0) c.dead = true;
  }
  const Clock::time_point t0 = Clock::now();
  if (started != nullptr) *started = t0;
  std::vector<pollfd> fds(cs.size());
  double host_read_s = -1.0;
  for (;;) {
    double now = Seconds(t0, Clock::now());
    if (options.host != nullptr && now - host_read_s >= 0.1) {
      options.host->push_back({now, ReadCpuTicks()});
      host_read_s = now;
    }
    bool pending = false;
    double next_due = 1e300;
    for (Conn& c : cs) {
      if (c.dead) continue;
      while (c.next < c.queue.size()) {
        const size_t pos = c.queue[c.next];
        const Request& r = w.requests[order[pos]];
        Sample& s = (*samples)[pos];
        if (options.open_loop) {
          if (r.due_s > now) {
            next_due = std::min(next_due, r.due_s);
            break;
          }
          s.due_s = r.due_s;
        } else {
          if (c.inflight.size() >= static_cast<size_t>(options.depth)) break;
          s.due_s = std::max(c.slot_open_s, 0.0);
        }
        s.sent_s = now;
        fdm::net::AppendFrame(r.text, &c.out);
        c.inflight.push_back(pos);
        ++c.next;
      }
      if (c.next < c.queue.size() || !c.inflight.empty()) pending = true;
    }
    if (!pending) break;
    for (size_t i = 0; i < cs.size(); ++i) {
      Conn& c = cs[i];
      fds[i] = {c.dead ? -1 : c.fd,
                static_cast<short>(POLLIN |
                                   (c.out_off < c.out.size() ? POLLOUT : 0)),
                0};
    }
    // An open loop polls without sleeping. On a shared 4-vCPU VM a sleeping
    // generator sent 0.09 ms late at the median (timer slack and the wakeup
    // of an idle virtual CPU) and woke late for replies as well: it measured
    // a single OBSERVE at 0.31 ms, against 0.17 ms polling, and that
    // wakeup cost was most of the p50's run-to-run spread. A closed loop
    // still sleeps: polling there took a CPU from the server's event loops
    // and slowed `ingest_bulk` by 9%.
    timespec timeout{0, 50'000'000};
    if (options.open_loop) {
      timeout.tv_nsec = 0;
    } else if (next_due < 1e299) {
      const double wait = std::max(0.0, next_due - now);
      if (wait < 0.05) {
        timeout.tv_nsec = static_cast<long>(wait * 1e9);
      }
    }
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      break;
    }
    for (size_t i = 0; i < cs.size(); ++i) {
      Conn& c = cs[i];
      if (c.dead) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        if (!(fds[i].revents & POLLIN)) c.dead = true;
      }
      if (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<size_t>(n);
          if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          c.dead = true;
        }
      }
      if (fds[i].revents & POLLIN) {
        char buf[65536];
        for (;;) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.in.append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            c.dead = true;
          }
          break;
        }
        const double done = Seconds(t0, Clock::now());
        for (;;) {
          std::string_view payload;
          size_t consumed = 0;
          const auto parse = fdm::net::ParseFrame(
              std::string_view(c.in).substr(c.in_off), &payload, &consumed);
          if (parse == fdm::net::FrameParse::kError) c.dead = true;
          if (parse != fdm::net::FrameParse::kFrame) break;
          if (c.inflight.empty()) {
            c.dead = true;  // a reply nobody asked for
            break;
          }
          const size_t pos = c.inflight.front();
          c.inflight.pop_front();
          Sample& s = (*samples)[pos];
          const std::string& expect = w.requests[order[pos]].expect;
          s.done_s = done;
          s.ok = expect.empty() ? payload.substr(0, 2) == "OK"
                                : payload == expect;
          if (options.keep_replies || !s.ok) s.reply.assign(payload);
          c.in_off += consumed;
          c.slot_open_s = done;
        }
        if (c.in_off > (1u << 20) || c.in_off == c.in.size()) {
          c.in.erase(0, c.in_off);
          c.in_off = 0;
        }
      }
    }
    // A dead connection's unanswered requests stay failed samples.
    for (Conn& c : cs) {
      if (!c.dead) continue;
      c.inflight.clear();
      c.next = c.queue.size();
    }
  }
  if (options.host != nullptr) {
    options.host->push_back({Seconds(t0, Clock::now()), ReadCpuTicks()});
  }
  for (Conn& c : cs) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

std::string CallOnce(int port, const std::string& request) {
  auto client = fdm::net::NetClient::Connect("127.0.0.1", port);
  if (!client.ok()) return "";
  auto reply = client->Call(request);
  return reply.ok() ? *reply : "";
}

// ---------------------------------------------------------------------------
// METRICS json
// ---------------------------------------------------------------------------

namespace {

/// Number following `"key":` at or after `from` (0 when absent).
double NumberAfter(const std::string& json, const std::string& key,
                   size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace

double MetricsScrape::Counter(const std::string& name) const {
  return NumberAfter(json, name);
}

double MetricsScrape::HistCount(const std::string& name) const {
  const size_t at = json.find("\"" + name + "\":{");
  return at == std::string::npos ? 0.0 : NumberAfter(json, "count", at);
}

double MetricsScrape::HistSum(const std::string& name) const {
  const size_t at = json.find("\"" + name + "\":{");
  return at == std::string::npos ? 0.0 : NumberAfter(json, "sum", at);
}

double MetricsScrape::HistMean(const std::string& name) const {
  const double n = HistCount(name);
  return n > 0 ? HistSum(name) / n : 0.0;
}

std::string MetricsScrape::Info(const std::string& name) const {
  const std::string needle = "\"" + name + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  return json.substr(start, json.find('"', start) - start);
}

}  // namespace perfbench
