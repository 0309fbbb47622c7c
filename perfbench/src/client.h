#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// The load generator's side of the wire: the server process it launches,
// a single-threaded pipelined frame client over up to four connections,
// and the METRICS scrape.

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (0 for no samples); failures are +inf, so they
/// miss every bound.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Median, the mean of the middle pair for an even count (0 for none).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Cumulative CPU time of the whole machine from the first line of
/// /proc/stat, in clock ticks: all states, and steal (time the hypervisor
/// ran other guests on this machine's virtual CPUs). Zero when unreadable.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks ReadCpuTicks();

/// Steal as a share of the machine's CPU time between two readings.
inline double StealShare(const CpuTicks& a, const CpuTicks& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : 0.0;
}

/// A reading of CpuTicks on a run's clock.
struct HostSample {
  double t_s = 0.0;
  CpuTicks ticks;
};

/// `fdm_serve --listen=0` as a child process. Its stdin stays open (EOF
/// would end the server); the READY line on its stdout gives the port.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();  // Kill()s a server still running

  /// Launches the server and waits for READY (false on failure).
  bool Start(const std::string& binary, const std::string& root,
             size_t max_resident);
  /// SIGKILL and reap.
  void Kill();
  /// Clean shutdown: closes stdin (the server snapshots and exits), waits
  /// up to `timeout_s`, then kills.
  void Stop(double timeout_s);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// VmHWM of the running server, MiB (0 when unreadable).
  double PeakRssMb() const;
  /// CPU time of the running server's threads so far, seconds (0 when
  /// unreadable).
  double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// One request's outcome as the generator saw it.
struct Sample {
  size_t request = 0;
  double due_s = 0.0;     // when it was due (phase clock)
  double sent_s = 0.0;    // when its first byte was queued
  double done_s = 0.0;    // when its whole reply had arrived
  bool ok = false;        // reply equals the reference
  std::string reply;      // kept only when asked for
};

struct RunOptions {
  bool open_loop = false;
  int depth = 1;            // closed loop: in flight per connection
  bool keep_replies = false;
  /// When given, receives a CpuTicks reading every 100 ms of the run (and
  /// at its start and end), on the same clock as the samples.
  std::vector<HostSample>* host = nullptr;
};

/// Sends `order` (indices into `w.requests`) over `conns` connections to
/// the server on `port`, each request on its own connection `conn`, in
/// list order per connection; open loop sends each request at its due
/// time, closed loop keeps `depth` in flight per connection. Returns one
/// sample per request (same order as `order`), `ok` set when the reply
/// equals `expect` (or merely starts with "OK" when `expect` is empty).
/// Requests left unanswered by a failed connection stay failed samples.
/// `*started` (when given) receives the moment the first request could go
/// out — the connections are open by then.
void RunRequests(int port, const Workload& w, const std::vector<size_t>& order,
                 int conns, const RunOptions& options,
                 std::vector<Sample>* samples,
                 Clock::time_point* started = nullptr);

/// Sends one request on a fresh connection and returns the reply ("" on
/// failure).
std::string CallOnce(int port, const std::string& request);

/// Counter / gauge / histogram fields pulled out of a `METRICS json` reply.
struct MetricsScrape {
  std::string json;
  double Counter(const std::string& name) const;      // counters and gauges
  double HistCount(const std::string& name) const;
  double HistMean(const std::string& name) const;     // ns
  double HistSum(const std::string& name) const;      // ns
  std::string Info(const std::string& name) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
