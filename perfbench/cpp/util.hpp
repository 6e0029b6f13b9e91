// Small helpers shared by the benchmark and its tests: clocks,
// child processes measured through wait4, files, order statistics and
// host provenance.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// A finished child process: exit status, wall time and the peak RSS
/// the kernel reported for it through wait4.
struct ChildRun {
  int exit_code = -1;  ///< -1 when killed by a signal or not started
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
};

/// Fork the spawner: a small helper process that starts every measured
/// child. Call first thing in main, while this process is still small:
/// Linux carries the spawning process's peak RSS into a child's wait4
/// figure across exec, so children started from a large benchmark would
/// all report at least its size. run_child and Daemon need it.
bool start_spawner();

/// Run `argv` to completion with a cleared TEMPEST_* environment, stdin
/// from /dev/null, stdout to `stdout_path` ("-" = discarded) and stderr
/// appended to `stderr_path`.
ChildRun run_child(const std::vector<std::string>& argv,
                   const std::string& stdout_path,
                   const std::string& stderr_path);

/// A child left running (the collector daemon). stop() sends SIGTERM,
/// waits (SIGKILL after a grace period) and returns the wait4 figures;
/// the destructor stops it too.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool start(const std::vector<std::string>& argv, const std::string& stderr_path);
  ChildRun stop();

 private:
  long pid_ = -1;
  ChildRun last_;
};

std::string read_file(const std::string& path);
bool write_file(const std::string& path, const std::string& text);
std::uint64_t file_size(const std::string& path);
void remove_file(const std::string& path);

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// splitmix64: the benchmark's own seeded generator, so inputs depend on
/// the seed alone and not on the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  /// Uniform double in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

struct Provenance {
  unsigned hardware_threads = 0;
  std::string cpu_model;
  std::string build_type;
  std::string git_sha;
};
Provenance host_provenance();

/// Escape `s` as a JSON string literal (quotes included).
std::string json_quote(const std::string& s);

/// Format a double with every significant digit (%.17g), as the result
/// line requires.
std::string json_number(double v);

}  // namespace perfbench
