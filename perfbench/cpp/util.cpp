#include "util.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

/// The environment for a measured child: ours minus every TEMPEST_*
/// variable.
std::vector<std::string> child_env() {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TEMPEST_", 8) == 0) continue;
    env.emplace_back(*e);
  }
  return env;
}

std::vector<char*> c_strings(std::vector<std::string>& v) {
  std::vector<char*> out;
  out.reserve(v.size() + 1);
  for (std::string& s : v) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

/// posix_spawn `argv` with stdin from /dev/null, stdout to
/// `stdout_path` ("-" = /dev/null) and stderr appended to `stderr_path`.
long spawn_local(const std::vector<std::string>& argv, const std::string& stdout_path,
                 const std::string& stderr_path) {
  std::vector<std::string> args = argv;
  std::vector<std::string> env = child_env();
  std::vector<char*> c_args = c_strings(args);
  std::vector<char*> c_env = c_strings(env);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  if (stdout_path == "-") {
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, c_args[0], &actions, nullptr, c_args.data(),
                             c_env.data());
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

ChildRun figures(int status, const struct rusage& usage, double wall_s) {
  ChildRun run;
  run.wall_s = wall_s;
  run.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

ChildRun run_local(const std::vector<std::string>& argv, const std::string& stdout_path,
                   const std::string& stderr_path) {
  const double t0 = now_s();
  const long pid = spawn_local(argv, stdout_path, stderr_path);
  if (pid <= 0) return {};
  int status = 0;
  struct rusage usage {};
  while (wait4(static_cast<pid_t>(pid), &status, 0, &usage) < 0) {
    if (errno != EINTR) return {};
  }
  return figures(status, usage, now_s() - t0);
}

/// SIGTERM, then SIGKILL once the grace period runs out; reaps the child.
ChildRun stop_local(long pid) {
  constexpr double kGraceS = 10.0;
  const double t0 = now_s();
  kill(static_cast<pid_t>(pid), SIGTERM);
  int status = 0;
  struct rusage usage {};
  for (;;) {
    const pid_t r = wait4(static_cast<pid_t>(pid), &status, WNOHANG, &usage);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) return {};
    if (now_s() - t0 > kGraceS) {
      kill(static_cast<pid_t>(pid), SIGKILL);
      while (wait4(static_cast<pid_t>(pid), &status, 0, &usage) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return figures(status, usage, now_s() - t0);
}

// -- spawner ------------------------------------------------------------
//
// Requests travel over a socketpair as an op byte followed by
// length-prefixed strings; every reply is one fixed-size Reply.

struct Reply {
  std::int32_t exit_code = -1;
  double wall_s = 0.0;
  double peak_rss_mib = 0.0;
  std::int64_t pid = -1;
};

int g_spawner_fd = -1;
pid_t g_spawner_pid = -1;

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

void put_string(std::string* out, const std::string& s) {
  const auto n = static_cast<std::uint32_t>(s.size());
  out->append(reinterpret_cast<const char*>(&n), sizeof n);
  out->append(s);
}

bool get_string(int fd, std::string* s) {
  std::uint32_t n = 0;
  if (!read_all(fd, &n, sizeof n) || n > (1u << 20)) return false;
  s->resize(n);
  return read_all(fd, s->data(), n);
}

/// op 'R' runs a child to completion, 'S' starts one and returns its
/// pid, 'K' stops a started one. Payload: stdout path, stderr path,
/// argc, argv... ('R'/'S'); the pid as a string ('K').
Reply ask_spawner(char op, const std::vector<std::string>& fields) {
  std::string msg(1, op);
  put_string(&msg, std::to_string(fields.size()));
  for (const std::string& f : fields) put_string(&msg, f);
  Reply reply;
  if (!write_all(g_spawner_fd, msg.data(), msg.size()) ||
      !read_all(g_spawner_fd, &reply, sizeof reply)) {
    return Reply{};
  }
  return reply;
}

Reply to_reply(const ChildRun& run, long pid) {
  Reply r;
  r.exit_code = run.exit_code;
  r.wall_s = run.wall_s;
  r.peak_rss_mib = run.peak_rss_mib;
  r.pid = pid;
  return r;
}

[[noreturn]] void serve_spawner(int fd) {
  std::vector<long> started;
  for (;;) {
    char op = 0;
    std::string count;
    if (!read_all(fd, &op, 1) || !get_string(fd, &count)) break;
    std::vector<std::string> fields(std::strtoul(count.c_str(), nullptr, 10));
    bool ok = true;
    for (std::string& f : fields) ok = ok && get_string(fd, &f);
    if (!ok) break;
    Reply reply;
    if ((op == 'R' || op == 'S') && fields.size() >= 3) {
      const std::vector<std::string> argv(fields.begin() + 2, fields.end());
      if (op == 'R') {
        reply = to_reply(run_local(argv, fields[0], fields[1]), -1);
      } else {
        reply.pid = spawn_local(argv, fields[0], fields[1]);
        if (reply.pid > 0) started.push_back(reply.pid);
      }
    } else if (op == 'K' && fields.size() == 1) {
      const long pid = std::strtol(fields[0].c_str(), nullptr, 10);
      const auto it = std::find(started.begin(), started.end(), pid);
      if (it != started.end()) {
        started.erase(it);
        reply = to_reply(stop_local(pid), pid);
      }
    }
    if (!write_all(fd, &reply, sizeof reply)) break;
  }
  // The benchmark went away: leave nothing running behind it.
  for (const long pid : started) stop_local(pid);
  _exit(0);
}

void stop_spawner() {
  if (g_spawner_fd < 0) return;
  close(g_spawner_fd);
  g_spawner_fd = -1;
  int status = 0;
  while (waitpid(g_spawner_pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool start_spawner() {
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(sv[0]);
    close(sv[1]);
    return false;
  }
  if (pid == 0) {
    close(sv[0]);
    serve_spawner(sv[1]);
  }
  close(sv[1]);
  g_spawner_fd = sv[0];
  g_spawner_pid = pid;
  std::atexit(stop_spawner);
  return true;
}

ChildRun run_child(const std::vector<std::string>& argv, const std::string& stdout_path,
                   const std::string& stderr_path) {
  std::vector<std::string> fields = {stdout_path, stderr_path};
  fields.insert(fields.end(), argv.begin(), argv.end());
  const Reply r = ask_spawner('R', fields);
  ChildRun run;
  run.exit_code = r.exit_code;
  run.wall_s = r.wall_s;
  run.peak_rss_mib = r.peak_rss_mib;
  return run;
}

bool Daemon::start(const std::vector<std::string>& argv, const std::string& stderr_path) {
  if (pid_ > 0) return false;
  std::vector<std::string> fields = {"-", stderr_path};
  fields.insert(fields.end(), argv.begin(), argv.end());
  pid_ = static_cast<long>(ask_spawner('S', fields).pid);
  return pid_ > 0;
}

ChildRun Daemon::stop() {
  if (pid_ <= 0) return last_;
  const Reply r = ask_spawner('K', {std::to_string(pid_)});
  last_.exit_code = r.exit_code;
  last_.wall_s = r.wall_s;
  last_.peak_rss_mib = r.peak_rss_mib;
  pid_ = -1;
  return last_;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return std::move(os).str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

void remove_file(const std::string& path) { std::remove(path.c_str()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

Provenance host_provenance() {
  Provenance p;
  p.hardware_threads = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        p.cpu_model = line.substr(colon + 1);
        p.cpu_model.erase(0, p.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  if (p.cpu_model.empty()) p.cpu_model = "unknown";
  p.build_type = PERFBENCH_BUILD_TYPE;
  return p;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out += "\"";
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
