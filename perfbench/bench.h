// Shared pieces of the repository benchmark (see README.md): command-line
// arguments, the in-memory span tracer, sample statistics, the Volcano
// oracle, the hardware stamp, the layer probe and the result report.
#ifndef LB2_PERFBENCH_BENCH_H_
#define LB2_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "plan/plan.h"
#include "runtime/database.h"
#include "service/service.h"

namespace lb2::net {
class BlockingClient;
}  // namespace lb2::net

namespace lb2::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

// ---------------------------------------------------------------------------
// Tracing. Spans are recorded only from this benchmark's own code, around
// calls into the library's public functions. A span's layer is the part of
// its name before the first '.' ("sql.parse" -> sql). Spans stay in memory
// (per-thread buffers) until WriteTrace at exit.

void EnableTracing(bool on);

class Span {
 public:
  Span(const char* name, uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;  // slot in the thread's buffer; -1 when tracing is off
};

struct LayerSelf {
  int64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Self time per (root span name, layer): a span's duration minus the time
/// its direct children cover.
std::map<std::string, std::map<std::string, LayerSelf>> SelfTimes();

/// Writes every recorded span as a Chrome trace_event document.
bool WriteTrace(const std::string& path);

/// splitmix64: a fixed, library-independent stream, so a seed names the
/// same inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed ^ 0x9e3779b97f4a7c15ull) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int Int(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
double GeoMean(const std::vector<double>& v);

/// Runs `fn` (which returns its own wall time in ms) at least `min_reps`
/// and at most `max_reps` times, stopping once `budget_ms` is spent.
template <typename Fn>
std::vector<double> Reps(Fn&& fn, int min_reps, int max_reps,
                         double budget_ms) {
  std::vector<double> out;
  double spent = 0.0;
  while (static_cast<int>(out.size()) < max_reps &&
         (static_cast<int>(out.size()) < min_reps || spent < budget_ms)) {
    out.push_back(fn());
    spent += out.back();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Outcomes and the report.

/// Request accounting shared by every workload: attempted, and failed
/// (errors, BUSY, timeouts, compile failures and wrong answers).
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  Tally tally;
  std::vector<Metric> metrics;  // the result line's metrics
  std::vector<Metric> extra;    // printed and saved, not in the result line
  std::vector<std::string> notes;
  void Add(const std::string& name, double v, const std::string& unit) {
    metrics.push_back({name, v, unit});
  }
  void Extra(const std::string& name, double v, const std::string& unit) {
    extra.push_back({name, v, unit});
  }
};

/// Compares an answer to its oracle (in order when the query's order is
/// defined) and counts it. `verified` caches the last answer that matched,
/// so repeated identical answers skip the diff.
bool CheckAnswer(const std::string& oracle, bool order_sensitive,
                 const std::string& got, std::string* verified, Tally* t,
                 const std::string& label);

/// One request over the wire protocol: sends `sql` and waits for its
/// RESULT frame. `ok` is false on a send error, timeout, BUSY or ERROR.
struct NetOutcome {
  bool ok = false;
  std::string text;
};
NetOutcome SendAndWait(net::BlockingClient* c, uint64_t id,
                       const std::string& sql);

// ---------------------------------------------------------------------------
// Inputs.

/// A statement with its parsed plan and Volcano answer.
struct Stmt {
  std::string label;
  std::string sql;  // empty for plans built directly (TPC-H)
  plan::Query query;
  bool order_sensitive = false;
  std::string oracle;
};

/// Generates the TPC-H database for a workload's scale factor from `seed`.
std::unique_ptr<rt::Database> MakeDatabase(double sf, uint64_t seed);

/// Fills each statement's oracle with volcano::Execute, computed in forked
/// child processes (up to `procs` at once) so the oracle's memory never
/// counts toward the measured process's peak RSS. Call before any thread
/// is started. Returns false on a child failure.
bool ComputeOracles(const rt::Database& db, std::vector<Stmt>* stmts,
                    int procs);

/// Parses every SQL statement into its plan; false with a message on error.
bool ParseAll(const rt::Database& db, std::vector<Stmt>* stmts,
              std::string* error);

/// Small SQL statements for olap_scan's front-end probe (one per shape):
/// catalog group-bys, an orders group-by, and one statement with seeded
/// literals.
std::vector<Stmt> FrontEndStatements(uint64_t seed);

/// new_shapes' generator: `n` structurally distinct SELECTs. Shape i takes
/// the next of 12 fixed patterns (table, key/aggregate/predicate counts);
/// the seed picks columns, functions and literals. Returns fewer than `n`
/// if a pattern runs out of distinct variants.
std::vector<Stmt> ShapeStatements(uint64_t seed, int n);

/// new_shapes' generator self-checks: the same seed gives identical
/// statements, and the (parsed) statements have distinct fingerprints.
bool SelfCheck(uint64_t seed, const rt::Database& db,
               const std::vector<Stmt>& stmts, std::string* error);

// ---------------------------------------------------------------------------
// Hardware stamp: nproc, CPU model, single-thread sequential-scan GB/s.

struct HwStamp {
  int nproc = 0;
  std::string cpu_model;
  double scan_gbps = 0.0;
};
HwStamp MeasureHardware();

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Machine-speed calibration. A shared host's speed drifts by tens of
// percent over minutes, so two runs of the same code can differ by more
// than any bound. Each workload runs CalibrationMs between its samples,
// while the program is idle, and reports its gated times scaled to a
// reference speed:
//   normalized = measured * kCalRefMs / median(calibration ms of the run).
// The calibration is the benchmark's own fixed, serial work (fault in
// 16 MB of fresh pages, fill them with a xorshift stream, hash every word
// into a 512 KB table): both workloads' samples are mostly serial CPU
// work on freshly faulted memory (olap_scan at 4 threads takes as long as
// at 1). No change to the program moves the calibration; the raw times
// and its median are reported next to the normalized ones.

/// The calibration's time at the reference speed: about its median on the
/// 4-vCPU VM the benchmark was built on, so normalized times read close
/// to that machine's milliseconds.
constexpr double kCalRefMs = 22.0;

/// Runs the calibration once; its wall time in ms, or -1 if it could not
/// map its buffers.
double CalibrationMs();

/// kCalRefMs / median(cal): multiply a time by it (divide a rate by it)
/// to normalize. 0 when no calibration succeeded.
double SpeedScale(const std::vector<double>& cal_ms);

// ---------------------------------------------------------------------------
// The layer probe (traced runs): times each layer's public entry points on
// the workload's own queries and fills the per-layer metrics.

struct ProbeInput {
  const rt::Database* db = nullptr;
  service::QueryService* svc = nullptr;
  /// Engine options the workload serves with (olap_scan: 4 threads).
  engine::EngineOptions serve_opts;
  /// Queries whose stage/jit/engine/volcano costs are probed.
  std::vector<const Stmt*> items;
  /// SQL statements for the front-end probe (parse, fingerprint, net).
  std::vector<const Stmt*> sql_items;
};

void RunLayerProbe(const ProbeInput& in, Report* report);

// ---------------------------------------------------------------------------
// Workloads. Each fills the report's metrics.

void RunNewShapes(const Args& args, Report* report);
void RunOlapScan(const Args& args, Report* report);

/// Deadline-driven phases: a traced run spends half its time untraced and
/// half traced, and reports the p50 gap as the tracing overhead.
struct Phase {
  bool traced = false;
  double seconds = 0.0;
};
std::vector<Phase> Phases(const Args& args);

/// Adds trace.overhead_pct from the per-phase medians, each normalized by
/// its own phase's calibrations (traced runs only).
void AddTraceOverhead(const std::vector<double>& phase_p50, Report* report);

}  // namespace lb2::perfbench

#endif  // LB2_PERFBENCH_BENCH_H_
