// Tracer, statistics, oracle, hardware stamp and answer checking.
#include <poll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>

#include "bench.h"
#include "net/client.h"
#include "sql/sql.h"
#include "tpch/answers.h"
#include "tpch/dbgen.h"
#include "util/time.h"
#include "volcano/volcano.h"

namespace lb2::perfbench {

// ---------------------------------------------------------------------------
// Tracer.

namespace {

struct SpanRec {
  const char* name;
  int64_t begin_ns;
  int64_t end_ns;
  int64_t parent;  // index in the same thread's buffer, -1 for a root
  uint64_t request;
};

// One per thread that ever recorded a span. Owned by g_bufs so spans
// outlive their threads; written out only after every worker has joined.
struct ThreadBuf {
  int tid = 0;
  std::vector<SpanRec> spans;
  std::vector<int64_t> open;
};

std::atomic<bool> g_tracing{false};
std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_bufs_mu

ThreadBuf* Buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
    buf->tid = static_cast<int>(g_bufs.size());
    buf->spans.reserve(1 << 16);
  }
  return buf;
}

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

}  // namespace

void EnableTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  ThreadBuf* b = Buf();
  index_ = static_cast<int64_t>(b->spans.size());
  int64_t parent = b->open.empty() ? -1 : b->open.back();
  b->spans.push_back({name, NowNs(), 0, parent, request});
  b->open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuf* b = Buf();
  b->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  b->open.pop_back();
}

std::map<std::string, std::map<std::string, LayerSelf>> SelfTimes() {
  std::map<std::string, std::map<std::string, LayerSelf>> out;
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (const auto& b : g_bufs) {
    const auto& s = b->spans;
    std::vector<int64_t> child_ns(s.size(), 0);
    for (const SpanRec& r : s) {
      if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.begin_ns;
    }
    for (size_t i = 0; i < s.size(); ++i) {
      size_t root = i;
      while (s[root].parent >= 0) root = static_cast<size_t>(s[root].parent);
      LayerSelf& l = out[s[root].name][LayerOf(s[i].name)];
      double dur_ms = static_cast<double>(s[i].end_ns - s[i].begin_ns) / 1e6;
      l.spans += 1;
      l.total_ms += dur_ms;
      l.self_ms += dur_ms - static_cast<double>(child_ns[i]) / 1e6;
    }
  }
  return out;
}

bool WriteTrace(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  int64_t t0 = INT64_MAX;
  for (const auto& b : g_bufs) {
    for (const SpanRec& r : b->spans) t0 = std::min(t0, r.begin_ns);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const auto& b : g_bufs) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRec& r = b->spans[i];
      // Span ids are unique per process: thread id in the high bits.
      long long id = (static_cast<long long>(b->tid) << 32) |
                     static_cast<long long>(i);
      long long parent =
          r.parent < 0 ? -1
                       : (static_cast<long long>(b->tid) << 32) | r.parent;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%llu}}",
                   first ? "" : ",", r.name, LayerOf(r.name).c_str(), b->tid,
                   static_cast<double>(r.begin_ns - t0) / 1e3,
                   static_cast<double>(r.end_ns - r.begin_ns) / 1e3, id,
                   parent, static_cast<unsigned long long>(r.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Statistics.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Answers.

bool CheckAnswer(const std::string& oracle, bool order_sensitive,
                 const std::string& got, std::string* verified, Tally* t,
                 const std::string& label) {
  if (!verified->empty() && got == *verified) return true;
  std::string diff = tpch::DiffResults(oracle, got, order_sensitive);
  if (diff.empty()) {
    *verified = got;
    return true;
  }
  ++t->failed;
  ++t->wrong;
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1) < 5) {
    std::fprintf(stderr, "wrong answer for %s: %s\n", label.c_str(),
                 diff.c_str());
  }
  return false;
}

NetOutcome SendAndWait(net::BlockingClient* c, uint64_t id,
                       const std::string& sql) {
  NetOutcome o;
  net::Frame f;
  if (!c->SendQuery(id, sql) ||
      c->ReadFrame(&f, 30000) != net::BlockingClient::ReadStatus::kFrame ||
      f.type != net::FrameType::kResult) {
    return o;
  }
  net::ResultPayload p;
  if (!net::DecodeResultPayload(f.payload, &p)) return o;
  o.ok = true;
  o.text = std::move(p.text);
  return o;
}

// ---------------------------------------------------------------------------
// Inputs and oracles.

std::unique_ptr<rt::Database> MakeDatabase(double sf, uint64_t seed) {
  auto db = std::make_unique<rt::Database>();
  tpch::Generate(sf, seed, db.get());
  return db;
}

bool ParseAll(const rt::Database& db, std::vector<Stmt>* stmts,
              std::string* error) {
  for (Stmt& s : *stmts) {
    if (s.sql.empty()) continue;
    std::string err;
    if (!sql::ParseQueryOrError(s.sql, db, &s.query, &err)) {
      *error = s.label + " does not parse: " + err + " [" + s.sql + "]";
      return false;
    }
    s.order_sensitive = tpch::OrderSensitive(s.query);
  }
  return true;
}

namespace {

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

bool ComputeOracles(const rt::Database& db, std::vector<Stmt>* stmts,
                    int procs) {
  std::fflush(stdout);
  std::fflush(stderr);
  struct Child {
    pid_t pid = -1;
    int fd = -1;
    std::string bytes;
  };
  std::vector<Child> kids(static_cast<size_t>(procs));
  bool ok = true;
  for (int k = 0; k < procs && ok; ++k) {
    int p[2];
    if (pipe(p) != 0) {
      ok = false;
      break;
    }
    pid_t pid = fork();
    if (pid < 0) {
      close(p[0]);
      close(p[1]);
      ok = false;
      break;
    }
    if (pid == 0) {
      close(p[0]);
      // Records: u64 index, u64 length, answer bytes.
      for (size_t i = static_cast<size_t>(k); i < stmts->size();
           i += static_cast<size_t>(procs)) {
        std::string text = volcano::Execute((*stmts)[i].query, db);
        uint64_t hdr[2] = {i, text.size()};
        if (!WriteAll(p[1], hdr, sizeof(hdr)) ||
            !WriteAll(p[1], text.data(), text.size())) {
          _exit(1);
        }
      }
      _exit(0);
    }
    close(p[1]);
    kids[static_cast<size_t>(k)].pid = pid;
    kids[static_cast<size_t>(k)].fd = p[0];
  }
  // Drain every pipe concurrently so no child blocks on a full pipe.
  size_t open = 0;
  for (const Child& c : kids) open += c.fd >= 0 ? 1 : 0;
  while (open > 0) {
    std::vector<pollfd> fds;
    std::vector<Child*> owners;
    for (Child& c : kids) {
      if (c.fd >= 0) {
        fds.push_back({c.fd, POLLIN, 0});
        owners.push_back(&c);
      }
    }
    if (poll(fds.data(), fds.size(), -1) < 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      char buf[1 << 16];
      ssize_t n = read(fds[i].fd, buf, sizeof(buf));
      if (n > 0) {
        owners[i]->bytes.append(buf, static_cast<size_t>(n));
      } else {
        close(owners[i]->fd);
        owners[i]->fd = -1;
        --open;
      }
    }
  }
  size_t filled = 0;
  for (Child& c : kids) {
    if (c.pid < 0) continue;
    int status = 0;
    waitpid(c.pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ok = false;
    size_t off = 0;
    while (off + 16 <= c.bytes.size()) {
      uint64_t hdr[2];
      std::memcpy(hdr, c.bytes.data() + off, sizeof(hdr));
      off += sizeof(hdr);
      if (hdr[0] >= stmts->size() || off + hdr[1] > c.bytes.size()) {
        ok = false;
        break;
      }
      (*stmts)[hdr[0]].oracle = c.bytes.substr(off, hdr[1]);
      off += hdr[1];
      ++filled;
    }
  }
  return ok && filled == stmts->size();
}

// ---------------------------------------------------------------------------
// Hardware stamp.

HwStamp MeasureHardware() {
  HwStamp hw;
  hw.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) hw.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  // The scan buffer lives in a child process so it never shows in this
  // process's peak RSS. 256 MB is far beyond any last-level cache.
  std::fflush(stdout);
  int p[2];
  if (pipe(p) != 0) return hw;
  pid_t pid = fork();
  if (pid == 0) {
    close(p[0]);
    const size_t n = (256u << 20) / sizeof(int64_t);
    std::vector<int64_t> buf(n);
    for (size_t i = 0; i < n; ++i) buf[i] = static_cast<int64_t>(i);
    double best = 0.0;
    volatile int64_t sink = 0;  // keeps the sums live
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch sw;
      int64_t a = 0, b = 0, c = 0, d = 0;
      for (size_t i = 0; i < n; i += 4) {
        a += buf[i];
        b += buf[i + 1];
        c += buf[i + 2];
        d += buf[i + 3];
      }
      sink = sink + a + b + c + d;
      double gbps = static_cast<double>(n * sizeof(int64_t)) /
                    (sw.ElapsedSeconds() * 1e9);
      best = std::max(best, gbps);
    }
    WriteAll(p[1], &best, sizeof(best));
    _exit(0);
  }
  close(p[1]);
  if (pid > 0) {
    if (read(p[0], &hw.scan_gbps, sizeof(hw.scan_gbps)) !=
        static_cast<ssize_t>(sizeof(hw.scan_gbps))) {
      hw.scan_gbps = 0.0;
    }
    waitpid(pid, nullptr, 0);
  }
  close(p[0]);
  return hw;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Calibration.

double CalibrationMs() {
  // mmap rather than new: malloc may hand back pages the program already
  // faulted in, which would tie the calibration to the program's heap.
  const size_t bytes = 16u << 20;
  static std::vector<uint64_t> table(1 << 16);
  Stopwatch sw;
  void* m = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) return -1.0;
  uint64_t* a = static_cast<uint64_t*>(m);
  const size_t n = bytes / sizeof(uint64_t);
  uint64_t x = 88172645463325252ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    a[i] = x;
  }
  std::fill(table.begin(), table.end(), 0);
  for (size_t i = 0; i < n; ++i) {
    table[(a[i] * 0x9e3779b97f4a7c15ull) >> 48] += a[i] & 0xff;
  }
  munmap(m, bytes);
  static volatile uint64_t sink;  // keeps the table live
  sink = sink + table[x >> 48];
  return sw.ElapsedMs();
}

double SpeedScale(const std::vector<double>& cal_ms) {
  double med = Median(cal_ms);
  return med > 0.0 ? kCalRefMs / med : 0.0;
}

// ---------------------------------------------------------------------------
// Phases.

std::vector<Phase> Phases(const Args& args) {
  double s = static_cast<double>(args.seconds);
  if (!args.trace) return {{false, s}};
  return {{false, s / 2}, {true, s / 2}};
}

void AddTraceOverhead(const std::vector<double>& phase_p50, Report* report) {
  if (phase_p50.size() != 2 || phase_p50[0] <= 0.0) return;
  report->Add("trace.overhead_pct",
              (phase_p50[1] / phase_p50[0] - 1.0) * 100.0, "%");
}

}  // namespace lb2::perfbench
