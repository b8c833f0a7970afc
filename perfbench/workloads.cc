// The two workloads. Each repeats its set-up (see MoreSetups) and reports
// the median (setup_s; untraced runs), measures for the run's seconds with
// a calibration between samples (see CalibrationMs), checks every answer
// against its Volcano oracle, and in a traced run adds the layer probe.
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "sql/sql.h"
#include "tpch/answers.h"
#include "tpch/queries.h"
#include "util/time.h"

namespace lb2::perfbench {

namespace {

constexpr int kClients = 4;
// Tail percentiles, fixed per workload so runs compare: the highest that
// leaves about ten samples beyond it on a slow 40 s run (~100 leaders,
// ~60 olap passes). tail_samples_beyond reports the count.
constexpr double kLeaderTail = 0.9;
constexpr double kPassTail = 0.8;

int OracleProcs() {
  return std::max(1, std::min(4, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN))));
}

uint64_t RequestId(int phase, int client, int64_t n) {
  return (static_cast<uint64_t>(phase) << 40) |
         (static_cast<uint64_t>(client) << 32) | static_cast<uint64_t>(n);
}

// Set-up runs at least three times and until four seconds of it have been
// timed (at most 40 times), so a cheap set-up still gives a steady median.
// A traced run does not report setup_s and sets up once.
bool MoreSetups(const Args& args, const std::vector<double>& setup_ms) {
  if (args.trace) return setup_ms.empty();
  double spent = 0.0;
  for (double ms : setup_ms) spent += ms;
  return setup_ms.size() < 3 || (spent < 4000.0 && setup_ms.size() < 40);
}

void AddSetup(const std::vector<double>& setup_ms, Report* rep) {
  rep->Add("setup_s", Median(setup_ms) / 1e3, "s");
}

// Runs the calibration once and keeps its time if it ran.
void Calibrate(std::vector<double>* cal_ms) {
  double ms = CalibrationMs();
  if (ms > 0.0) cal_ms->push_back(ms);
}

// The gated time metrics of an untraced run: the workload's latency
// samples and throughput at the reference speed (see CalibrationMs). The
// raw values are extras.
void AddTimes(const std::vector<double>& samples, double tail,
              double throughput, const std::vector<double>& cal_ms,
              Report* rep) {
  double k = SpeedScale(cal_ms);
  rep->Extra("throughput_per_s", throughput, "1/s");
  rep->Extra("calibration_ms", Median(cal_ms), "ms");
  rep->Extra("calibrations", static_cast<double>(cal_ms.size()), "count");
  if (k <= 0.0) {
    rep->notes.push_back("no calibration ran; times are not reported");
    ++rep->tally.failed;
    return;
  }
  rep->Add("p50_norm_ms", Median(samples) * k, "ms");
  rep->Add("tail_norm_ms", Quantile(samples, tail) * k, "ms");
  rep->Add("throughput_norm_per_s", throughput / k, "1/s");
}

// How many samples lie beyond the tail percentile.
double SamplesBeyond(const std::vector<double>& v, double tail) {
  return static_cast<double>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > tail; }));
}

}  // namespace

// ---------------------------------------------------------------------------
// new_shapes.

void RunNewShapes(const Args& args, Report* rep) {
  const double kSf = 0.02;
  // Enough shapes that the pool outlasts the run: a round takes several
  // hundred ms (one cc per shape), and each round uses two shapes.
  const int kPool = std::max(120, 10 * args.seconds);
  std::vector<Stmt> stmts = ShapeStatements(args.seed, kPool);
  if (static_cast<int>(stmts.size()) != kPool) {
    std::fprintf(stderr, "new_shapes: generated %zu of %d shapes\n",
                 stmts.size(), kPool);
    ++rep->tally.failed;
    return;
  }

  std::vector<double> setup_ms;
  std::unique_ptr<rt::Database> db;
  std::unique_ptr<service::QueryService> svc;
  for (int k = 0; MoreSetups(args, setup_ms); ++k) {
    svc.reset();
    db.reset();
    Stopwatch gen;
    db = MakeDatabase(kSf, args.seed);
    double gen_ms = gen.ElapsedMs();
    if (k == 0) {
      std::string err;
      if (!ParseAll(*db, &stmts, &err) ||
          !SelfCheck(args.seed, *db, stmts, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        ++rep->tally.failed;
        return;
      }
      if (!ComputeOracles(*db, &stmts, OracleProcs())) {
        std::fprintf(stderr, "oracle computation failed\n");
        ++rep->tally.failed;
        return;
      }
    }
    Stopwatch rest;
    svc = std::make_unique<service::QueryService>(*db);
    setup_ms.push_back(gen_ms + rest.ElapsedMs());
  }

  // Rounds of two new shapes, each sent to two clients at once (clients
  // 0,1 get the first, 2,3 the second). A round ends when all four have
  // their answer; then one client runs the calibration while the others
  // wait, and picks the next round's shapes.
  using Path = service::ServiceResult::Path;
  constexpr size_t kShapesPerRound = kClients / 2;
  std::vector<double> phase_p50;
  std::vector<double> leader, follower, cal;
  int64_t requests = 0, cached = 0, other_paths = 0;
  int64_t shapes_sent = 0;
  size_t next_shape = 0;
  double throughput = 0.0;
  int64_t compiles_before = svc->Stats().compiles;
  int phase_i = 0;
  for (const Phase& ph : Phases(args)) {
    EnableTracing(ph.traced);
    struct Req {
      double ms = 0.0;
      Path path = Path::kInterpreted;
    };
    std::vector<std::vector<Req>> reqs(kClients);
    std::vector<Tally> tallies(kClients);
    std::vector<double> cal_phase;
    double cal_total_ms = 0.0;
    size_t base = 0;  // the round's first shape; written between rounds
    bool stop = false;
    bool first_round = true;
    int64_t start = NowNs();
    int64_t deadline = start + static_cast<int64_t>(ph.seconds * 1e9);
    auto next_round = [&]() noexcept {
      if (!first_round) {
        Stopwatch sw;
        Calibrate(&cal_phase);
        cal_total_ms += sw.ElapsedMs();
      }
      first_round = false;
      base = next_shape;
      stop = NowNs() >= deadline || base + kShapesPerRound > stmts.size();
      if (!stop) {
        next_shape += kShapesPerRound;
        shapes_sent += kShapesPerRound;
      }
    };
    std::barrier sync(kClients, next_round);
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        for (int64_t n = 0;; ++n) {
          sync.arrive_and_wait();
          if (stop) return;
          const Stmt& s = stmts[base + static_cast<size_t>(t) / 2];
          uint64_t id = RequestId(phase_i, t, n);
          Stopwatch sw;
          service::ServiceResult r;
          bool parsed = false;
          {
            Span root("bench.request", id);
            plan::Query q;
            std::string err;
            {
              Span span("sql.parse", id);
              parsed = sql::ParseQueryOrError(s.sql, *db, &q, &err);
            }
            if (parsed) {
              Span span("service.execute", id);
              r = svc->Execute(q);
            }
          }
          double ms = sw.ElapsedMs();
          Tally& tl = tallies[t];
          ++tl.attempted;
          std::string verified;
          if (!parsed || r.status != service::ServiceResult::Status::kOk ||
              !r.compile_error.empty()) {
            ++tl.failed;
          } else if (CheckAnswer(s.oracle, s.order_sensitive, r.text,
                                 &verified, &tl, s.label)) {
            reqs[t].push_back({ms, r.path});
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    double wall_s = static_cast<double>(NowNs() - start) / 1e9 -
                    cal_total_ms / 1e3;
    EnableTracing(false);
    if (next_shape + kShapesPerRound > stmts.size()) {
      rep->notes.push_back("shape pool exhausted before the deadline");
    }
    std::vector<double> lead_phase;
    int64_t done = 0;
    for (int t = 0; t < kClients; ++t) {
      rep->tally.Add(tallies[t]);
      for (const Req& q : reqs[t]) {
        ++done;
        if (q.path == Path::kCompiledCold) {
          lead_phase.push_back(q.ms);
          leader.push_back(q.ms);
        } else if (q.path == Path::kInterpreted) {
          follower.push_back(q.ms);
        } else {
          ++other_paths;
          if (q.path == Path::kCompiledCached) ++cached;
        }
      }
    }
    requests += done;
    throughput = static_cast<double>(done) / wall_s;
    phase_p50.push_back(Median(lead_phase) * SpeedScale(cal_phase));
    cal.insert(cal.end(), cal_phase.begin(), cal_phase.end());
    ++phase_i;
  }
  int64_t compiles = svc->Stats().compiles - compiles_before;

  if (!args.trace) {
    AddSetup(setup_ms, rep);
    rep->Add("peak_rss_mb", PeakRssMb(), "MB");
    AddTimes(leader, kLeaderTail, throughput, cal, rep);
  } else {
    ProbeInput in;
    in.db = db.get();
    in.svc = svc.get();
    in.serve_opts = svc->options().engine;
    for (size_t i = 0; i < 6 && i < stmts.size(); ++i) {
      in.items.push_back(&stmts[i]);
    }
    in.sql_items = in.items;
    EnableTracing(true);
    RunLayerProbe(in, rep);
    EnableTracing(false);
    rep->Add("service.hit_ratio",
             requests > 0 ? static_cast<double>(cached) /
                                static_cast<double>(requests)
                          : 0.0,
             "ratio");
    rep->Add("service.compiles_per_shape",
             shapes_sent > 0 ? static_cast<double>(compiles) /
                                   static_cast<double>(shapes_sent)
                             : 0.0,
             "ratio");
    AddTraceOverhead(phase_p50, rep);
  }
  rep->Extra("cold_leader_p50_ms", Median(leader), "ms");
  rep->Extra("cold_leader_p90_ms", Quantile(leader, kLeaderTail), "ms");
  rep->Extra("tail_samples_beyond",
             SamplesBeyond(leader, Quantile(leader, kLeaderTail)), "count");
  rep->Extra("cold_follower_p50_ms", Median(follower), "ms");
  rep->Extra("cold_follower_p90_ms", Quantile(follower, 0.9), "ms");
  rep->Extra("leader_samples", static_cast<double>(leader.size()), "count");
  rep->Extra("follower_samples", static_cast<double>(follower.size()),
             "count");
  rep->Extra("other_path_samples", static_cast<double>(other_paths), "count");
  rep->Extra("shapes", static_cast<double>(shapes_sent), "count");
  rep->Extra("compiles", static_cast<double>(compiles), "count");
  rep->Extra("cache_evictions", static_cast<double>(svc->Stats().evictions),
             "count");
}

// ---------------------------------------------------------------------------
// olap_scan.

void RunOlapScan(const Args& args, Report* rep) {
  const double kSf = 0.25;
  const int kQueries[] = {1, 3, 4, 6, 13, 14, 18, 22};
  std::vector<Stmt> stmts;
  for (int qn : kQueries) {
    Stmt s;
    s.label = "Q" + std::to_string(qn);
    tpch::QueryOptions qo;
    qo.scale_factor = kSf;
    s.query = tpch::BuildQuery(qn, qo);
    s.order_sensitive = tpch::OrderSensitive(s.query);
    stmts.push_back(std::move(s));
  }
  // Traced runs also probe the SQL front end, with small SQL statements.
  std::vector<Stmt> front;
  if (args.trace) front = FrontEndStatements(args.seed);
  const size_t nq = stmts.size();

  std::vector<double> setup_ms;
  std::unique_ptr<rt::Database> db;
  std::unique_ptr<service::QueryService> svc;
  engine::EngineOptions e4;
  int64_t compiles = 0;
  for (int k = 0; MoreSetups(args, setup_ms); ++k) {
    svc.reset();
    db.reset();
    Stopwatch gen;
    db = MakeDatabase(kSf, args.seed);
    double gen_ms = gen.ElapsedMs();
    if (k == 0) {
      std::string err;
      if (!ParseAll(*db, &front, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        ++rep->tally.failed;
        return;
      }
      if (!ComputeOracles(*db, &stmts, OracleProcs()) ||
          !ComputeOracles(*db, &front, OracleProcs())) {
        std::fprintf(stderr, "oracle computation failed\n");
        ++rep->tally.failed;
        return;
      }
    }
    Stopwatch rest;
    svc = std::make_unique<service::QueryService>(*db);
    e4 = svc->options().engine;
    e4.num_threads = 4;
    std::vector<std::thread> warm;
    std::vector<Tally> tallies(kClients);
    for (int t = 0; t < kClients; ++t) {
      warm.emplace_back([&, t] {
        for (size_t i = t; i < nq; i += kClients) {
          service::ServiceResult r = svc->Execute(stmts[i].query, e4);
          std::string verified;
          ++tallies[t].attempted;
          if (r.path != service::ServiceResult::Path::kCompiledCold ||
              !r.compile_error.empty()) {
            ++tallies[t].failed;
          } else {
            CheckAnswer(stmts[i].oracle, stmts[i].order_sensitive, r.text,
                        &verified, &tallies[t], stmts[i].label);
          }
        }
      });
    }
    for (auto& th : warm) th.join();
    setup_ms.push_back(gen_ms + rest.ElapsedMs());
    for (const Tally& t : tallies) rep->tally.Add(t);
    compiles = svc->Stats().compiles;
  }

  // Passes over the query set in a seeded order, one client.
  std::vector<double> phase_p50, passes, cal;
  std::vector<std::string> verified(nq);
  int64_t done = 0, cached = 0;
  double throughput = 0.0;
  int phase_i = 0;
  for (const Phase& ph : Phases(args)) {
    EnableTracing(ph.traced);
    std::vector<double> pass_ms, cal_phase;
    double cal_total_ms = 0.0;
    int64_t done_phase = 0;
    int64_t start = NowNs();
    int64_t deadline = start + static_cast<int64_t>(ph.seconds * 1e9);
    for (int64_t pass = 0; NowNs() < deadline; ++pass) {
      std::vector<size_t> order(nq);
      for (size_t i = 0; i < nq; ++i) order[i] = i;
      Rng rng(args.seed * 7919 + static_cast<uint64_t>(pass));
      for (size_t i = nq - 1; i > 0; --i) {
        std::swap(order[i], order[rng.Next() % (i + 1)]);
      }
      uint64_t id = RequestId(phase_i, 0, pass);
      bool pass_ok = true;
      std::vector<service::ServiceResult> results(nq);
      Stopwatch sw;
      {
        Span root("bench.pass", id);
        for (size_t i : order) {
          Span span("service.execute", id);
          results[i] = svc->Execute(stmts[i].query, e4);
        }
      }
      double ms = sw.ElapsedMs();
      for (size_t i = 0; i < nq; ++i) {
        ++rep->tally.attempted;
        if (results[i].path == service::ServiceResult::Path::kCompiledCached) {
          ++cached;
        }
        pass_ok &= CheckAnswer(stmts[i].oracle, stmts[i].order_sensitive,
                               results[i].text, &verified[i], &rep->tally,
                               stmts[i].label);
      }
      done_phase += static_cast<int64_t>(nq);
      if (pass_ok) pass_ms.push_back(ms);
      Stopwatch cal_sw;
      Calibrate(&cal_phase);
      cal_total_ms += cal_sw.ElapsedMs();
    }
    double wall_s = static_cast<double>(NowNs() - start) / 1e9 -
                    cal_total_ms / 1e3;
    EnableTracing(false);
    throughput = static_cast<double>(done_phase) / wall_s;
    done += done_phase;
    phase_p50.push_back(Median(pass_ms) * SpeedScale(cal_phase));
    cal.insert(cal.end(), cal_phase.begin(), cal_phase.end());
    passes.insert(passes.end(), pass_ms.begin(), pass_ms.end());
    ++phase_i;
  }

  if (!args.trace) {
    AddSetup(setup_ms, rep);
    rep->Add("peak_rss_mb", PeakRssMb(), "MB");
    AddTimes(passes, kPassTail, throughput, cal, rep);
  } else {
    ProbeInput in;
    in.db = db.get();
    in.svc = svc.get();
    in.serve_opts = e4;
    for (const Stmt& s : stmts) in.items.push_back(&s);
    for (const Stmt& s : front) in.sql_items.push_back(&s);
    EnableTracing(true);
    RunLayerProbe(in, rep);
    EnableTracing(false);
    rep->Add("service.hit_ratio",
             done > 0 ? static_cast<double>(cached) / static_cast<double>(done)
                      : 0.0,
             "ratio");
    rep->Add("service.compiles_per_shape",
             static_cast<double>(compiles) / static_cast<double>(nq),
             "ratio");
    AddTraceOverhead(phase_p50, rep);
  }
  rep->Extra("olap_suite_p50_ms", Median(passes), "ms");
  rep->Extra("olap_suite_p80_ms", Quantile(passes, kPassTail), "ms");
  rep->Extra("olap_suite_p90_ms", Quantile(passes, 0.9), "ms");
  rep->Extra("tail_samples_beyond",
             SamplesBeyond(passes, Quantile(passes, kPassTail)), "count");
  rep->Extra("passes", static_cast<double>(passes.size()), "count");
}

}  // namespace lb2::perfbench
