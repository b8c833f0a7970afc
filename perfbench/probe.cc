// The layer probe of a traced run: calls each module's public entry points
// directly on the workload's own queries, so every per-layer number is
// timed where the work happens. Plans are canonicalized, compiled and run
// the way QueryService serves them (literals hoisted into parameters,
// morsel-driven runs), so the probe's artifact is the service's. Each
// metric is the median over the probe set of a per-query value; engine
// times and ratios are geometric means. Overheads found as a difference
// (service self, net round trip) subtract minima over alternating
// repetitions, since noise only adds time.
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "compile/lb2_compiler.h"
#include "engine/exec.h"
#include "engine/morsel.h"
#include "net/client.h"
#include "net/server.h"
#include "service/fingerprint.h"
#include "sql/sql.h"
#include "stage/jit.h"
#include "util/time.h"
#include "volcano/volcano.h"

namespace lb2::perfbench {

namespace {

constexpr uint64_t kProbeRequest = 1ull << 48;

template <typename Fn>
double TimedMs(Fn&& fn) {
  Stopwatch sw;
  fn();
  return sw.ElapsedMs();
}

// A query as QueryService::Execute serves it: the canonicalized plan and
// the literals it binds at run time.
struct Served {
  plan::Query query;
  plan::ParamVec params;
  const plan::ParamVec* bound() const {
    return params.empty() ? nullptr : &params;
  }
};

Served Canonical(const Stmt& s, const service::QueryService& svc,
                 const engine::EngineOptions& opts) {
  Served c;
  if (svc.options().parameterize) {
    service::ParameterizedQuery pq =
        service::ParameterizeQuery(s.query, opts.use_dict);
    c.query = std::move(pq.query);
    c.params = std::move(pq.params);
  } else {
    c.query = s.query;
  }
  return c;
}

struct Compiled {
  std::unique_ptr<compile::CompiledQuery> query;
  double codegen_ms = 0.0;
  double compile_ms = 0.0;
  double tu_bytes = 0.0;
};

Compiled StageAndCompile(const Stmt& s, const Served& c,
                         const rt::Database& db,
                         const engine::EngineOptions& opts, uint64_t req) {
  Compiled out;
  compile::StagedQuery staged;
  out.codegen_ms = TimedMs([&] {
    Span span("stage.stage_query", req);
    staged = compile::StageQuery(c.query, db, opts);
  });
  out.tu_bytes = static_cast<double>(staged.source.size());
  std::string err;
  out.compile_ms = TimedMs([&] {
    Span span("jit.try_compile_staged", req);
    out.query = compile::TryCompileStaged(staged, db, "probe", &err);
  });
  if (out.query == nullptr) {
    std::fprintf(stderr, "probe compile of %s failed: %s\n", s.label.c_str(),
                 err.c_str());
  }
  return out;
}

// One compiled run as the service makes it (QueryService::RunCompiled):
// with the bound literals, off a fresh morsel dispenser when morsels are on.
compile::CompiledQuery::RunResult RunServed(const compile::CompiledQuery& q,
                                            const Served& c,
                                            int64_t morsel_rows) {
  if (morsel_rows > 0) {
    engine::MorselRun run(morsel_rows);
    return q.Run(c.bound(), &run.source);
  }
  return q.Run(c.bound());
}

// dlopen cost of a fresh artifact: a copy of the compiled object under a
// new name, since dlopen of an already-loaded path only bumps a refcount.
// False (and no time) if the copy or the load fails.
bool DlopenMs(const compile::CompiledQuery& q, uint64_t req, double* ms) {
  std::string copy = q.so_path() + ".probe.so";
  std::error_code ec;
  std::filesystem::copy_file(q.so_path(), copy,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) {
    std::fprintf(stderr, "probe: cannot copy %s: %s\n", q.so_path().c_str(),
                 ec.message().c_str());
    return false;
  }
  std::string err;
  std::unique_ptr<stage::JitModule> mod;
  *ms = TimedMs([&] {
    Span span("jit.try_load", req);
    mod = stage::Jit::TryLoad(copy, q.source(), &err);
  });
  bool loaded = mod != nullptr;
  if (!loaded) std::fprintf(stderr, "probe: dlopen failed: %s\n", err.c_str());
  mod.reset();
  std::filesystem::remove(copy, ec);
  return loaded;
}

std::vector<double> RunReps(const compile::CompiledQuery& q, const Served& c,
                            int64_t morsel_rows, uint64_t req, const Stmt& s,
                            Tally* t) {
  std::string verified;
  return Reps(
      [&] {
        compile::CompiledQuery::RunResult r;
        double ms = TimedMs([&] {
          Span span("engine.compiled_run", req);
          r = RunServed(q, c, morsel_rows);
        });
        ++t->attempted;
        CheckAnswer(s.oracle, s.order_sensitive, r.text, &verified, t,
                    s.label + " (probe run)");
        return ms;
      },
      3, 50, 300.0);
}

}  // namespace

void RunLayerProbe(const ProbeInput& in, Report* rep) {
  Tally& t = rep->tally;
  uint64_t req = kProbeRequest;
  Span root("bench.probe", req);

  // Front end: parse and fingerprint.
  std::vector<double> parse_us, fp_us;
  for (const Stmt* s : in.sql_items) {
    auto v = Reps(
        [&] {
          plan::Query q;
          std::string err;
          return TimedMs([&] {
            Span span("sql.parse", req);
            sql::ParseQueryOrError(s->sql, *in.db, &q, &err);
          });
        },
        20, 500, 20.0);
    parse_us.push_back(Median(v) * 1e3);
  }
  for (const Stmt* s : in.items) {
    auto v = Reps(
        [&] {
          return TimedMs([&] {
            Span span("service.fingerprint_for", req);
            in.svc->FingerprintFor(s->query, in.serve_opts);
          });
        },
        20, 500, 20.0);
    fp_us.push_back(Median(v) * 1e3);
  }
  rep->Add("sql.parse_us", Median(parse_us), "us");
  rep->Add("service.fingerprint_us", Median(fp_us), "us");

  // Net: round trip on an idle server minus the in-process ExecuteSql of
  // the same warm statement.
  net::NetOptions no;
  no.admin_port = -1;
  net::NetServer server(in.svc, no);
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "probe server: %s\n", err.c_str());
    ++t.failed;
    return;
  }
  net::BlockingClient client;
  if (!client.Connect("127.0.0.1", server.port(), &err)) {
    std::fprintf(stderr, "probe connect: %s\n", err.c_str());
    ++t.failed;
    return;
  }
  std::vector<double> rtt_overhead_us;
  uint64_t id = 1;
  for (const Stmt* s : in.sql_items) {
    service::ServiceResult r;
    std::string verified_net, verified_local;
    in.svc->ExecuteSql(s->sql, &r, &err);  // warm both sides first
    SendAndWait(&client, id++, s->sql);
    std::vector<double> rtt, inproc;
    for (int rep_i = 0; rep_i < 30; ++rep_i) {
      NetOutcome o;
      rtt.push_back(TimedMs([&] {
        Span span("net.round_trip", req);
        o = SendAndWait(&client, id++, s->sql);
      }));
      ++t.attempted;
      if (!o.ok) {
        ++t.failed;
      } else {
        CheckAnswer(s->oracle, s->order_sensitive, o.text, &verified_net, &t,
                    s->label + " (probe round trip)");
      }
      inproc.push_back(TimedMs([&] {
        Span span("service.execute_sql", req);
        in.svc->ExecuteSql(s->sql, &r, &err);
      }));
      ++t.attempted;
      CheckAnswer(s->oracle, s->order_sensitive, r.text, &verified_local, &t,
                  s->label + " (probe in-process)");
    }
    rtt_overhead_us.push_back((Quantile(rtt, 0) - Quantile(inproc, 0)) * 1e3);
  }
  client.Close();
  server.BeginDrain();
  server.Wait();
  rep->Add("net.rtt_overhead_us", Median(rtt_overhead_us), "us");

  // Service self time on the front-end statements, where it is a visible
  // share: a warm Execute minus the bare compiled run of the same artifact,
  // both with the options the service serves SQL with, alternated so drift
  // hits both alike. Minima, since noise only ever adds time. The bare
  // run's median is the warm exec time.
  std::vector<double> self_us, warm_exec_us;
  const engine::EngineOptions& sql_opts = in.svc->options().engine;
  const int64_t morsel_rows = in.svc->options().morsel_rows;
  for (const Stmt* s : in.sql_items) {
    Served c = Canonical(*s, *in.svc, sql_opts);
    Compiled cq = StageAndCompile(*s, c, *in.db, sql_opts, req);
    ++t.attempted;
    if (cq.query == nullptr) {
      ++t.failed;
      continue;
    }
    in.svc->Execute(s->query, sql_opts);  // make sure it is cached
    std::string verified_exec, verified_bare;
    std::vector<double> exec, bare;
    Reps(
        [&] {
          service::ServiceResult r;
          compile::CompiledQuery::RunResult rr;
          exec.push_back(TimedMs([&] {
            Span span("service.execute", req);
            r = in.svc->Execute(s->query, sql_opts);
          }));
          bare.push_back(TimedMs([&] {
            Span span("engine.compiled_run", req);
            rr = RunServed(*cq.query, c, morsel_rows);
          }));
          t.attempted += 2;
          CheckAnswer(s->oracle, s->order_sensitive, r.text, &verified_exec,
                      &t, s->label + " (probe execute)");
          CheckAnswer(s->oracle, s->order_sensitive, rr.text, &verified_bare,
                      &t, s->label + " (probe bare run)");
          return exec.back() + bare.back();
        },
        3, 50, 300.0);
    self_us.push_back((Quantile(exec, 0) - Quantile(bare, 0)) * 1e3);
    warm_exec_us.push_back(Median(bare) * 1e3);
  }

  // Stage, jit and engine on each probed query.
  std::vector<double> codegen_ms, tu_bytes, cc_ms, dlopen_ms, so_bytes,
      interp_ms, interp_vs_volcano, t1_ms, t4_ms, speedup;
  for (const Stmt* s : in.items) {
    engine::EngineOptions o1 = in.serve_opts;
    o1.num_threads = 1;
    engine::EngineOptions o4 = in.serve_opts;
    o4.num_threads = 4;
    Served c = Canonical(*s, *in.svc, in.serve_opts);
    Compiled c1 = StageAndCompile(*s, c, *in.db, o1, req);
    Compiled c4 = StageAndCompile(*s, c, *in.db, o4, req);
    t.attempted += 2;
    if (c1.query == nullptr || c4.query == nullptr) {
      ++t.failed;
      continue;
    }
    codegen_ms.push_back(c1.codegen_ms);
    tu_bytes.push_back(c1.tu_bytes);
    cc_ms.push_back(c1.compile_ms);
    so_bytes.push_back(static_cast<double>(c1.query->so_bytes()));
    double load_ms = 0.0;
    ++t.attempted;
    if (DlopenMs(*c1.query, req, &load_ms)) {
      dlopen_ms.push_back(load_ms);
    } else {
      ++t.failed;
    }

    double run1 = Median(RunReps(*c1.query, c, morsel_rows, req, *s, &t));
    double run4 = Median(RunReps(*c4.query, c, morsel_rows, req, *s, &t));
    t1_ms.push_back(run1);
    t4_ms.push_back(run4);
    speedup.push_back(run1 / run4);
    rep->Extra("engine.exec_ms." + s->label + ".t1", run1, "ms");
    rep->Extra("engine.exec_ms." + s->label + ".t4", run4, "ms");
    rep->Extra("engine.speedup_t4." + s->label, run1 / run4, "x");

    // The interpreter as the service runs it for a cold follower: one
    // thread, literals bound at run time.
    std::string verified_interp;
    auto interp = Reps(
        [&] {
          engine::InterpResult ir;
          double ms = TimedMs([&] {
            Span span("engine.execute_interp", req);
            ir = engine::ExecuteInterp(c.query, *in.db, o1, c.bound());
          });
          ++t.attempted;
          CheckAnswer(s->oracle, s->order_sensitive, ir.text,
                      &verified_interp, &t, s->label + " (probe interp)");
          return ms;
        },
        1, 5, 500.0);
    auto volc = Reps(
        [&] {
          return TimedMs([&] {
            Span span("volcano.execute", req);
            volcano::Execute(s->query, *in.db);
          });
        },
        1, 5, 500.0);
    interp_ms.push_back(Median(interp));
    interp_vs_volcano.push_back(Median(interp) / Median(volc));
    rep->Extra("engine.interp_ms." + s->label, Median(interp), "ms");
    rep->Extra("volcano.ms." + s->label, Median(volc), "ms");
  }
  rep->Add("service.self_us", Median(self_us), "us");
  rep->Add("engine.warm_exec_us", Median(warm_exec_us), "us");
  rep->Add("stage.codegen_ms", Median(codegen_ms), "ms");
  rep->Add("stage.tu_bytes", Median(tu_bytes), "bytes");
  rep->Add("jit.cc_ms", Median(cc_ms), "ms");
  rep->Add("jit.dlopen_ms", Median(dlopen_ms), "ms");
  rep->Add("jit.so_bytes", Median(so_bytes), "bytes");
  rep->Add("engine.interp_exec_ms", Median(interp_ms), "ms");
  rep->Add("engine.interp_vs_volcano", GeoMean(interp_vs_volcano), "x");
  rep->Add("engine.exec_ms.t1", GeoMean(t1_ms), "ms");
  rep->Add("engine.exec_ms.t4", GeoMean(t4_ms), "ms");
  rep->Add("engine.speedup_t4", GeoMean(speedup), "x");
}

}  // namespace lb2::perfbench
