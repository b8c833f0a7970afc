#include "engine/exec.h"

#include "engine/interp_backend.h"
#include "plan/validate.h"

namespace lb2::engine {

InterpResult ExecuteInterp(const plan::Query& q, const rt::Database& db,
                           const EngineOptions& opts,
                           const plan::ParamVec* params, MorselRun* morsels) {
  plan::ValidateQuery(q, db);
  MorselRun own;  // morsel_rows 0: one morsel per thread
  if (morsels == nullptr) morsels = &own;
  InterpBackend b(&db);
  b.set_params(params);
  b.set_morsels(morsels);
  QueryCtx<InterpBackend> qctx;
  qctx.b = &b;
  qctx.db = &db;
  qctx.copts.use_dict = opts.use_dict;
  InterpResult r;
  if (opts.profile) qctx.prof = &r.prof_nodes;
  DriveQuery(b, qctx, q, opts);
  r.text = b.output();
  r.rows = b.rows();
  r.exec_ms = b.exec_ms();
  if (opts.profile) r.prof = b.prof_counters();
  return r;
}

int CountVecSites(const plan::Query& q, const rt::Database& db,
                  const EngineOptions& opts) {
  plan::ValidateQuery(q, db);
  InterpBackend b(&db);
  QueryCtx<InterpBackend> qctx;
  qctx.b = &b;
  qctx.db = &db;
  qctx.copts.use_dict = opts.use_dict;
  // Counting pass: build (never prepare or run) every operator tree with
  // the data-centric flavor, which numbers all sites without fusing any.
  qctx.flavor = Flavor::kDataCentric;
  for (const auto& sub : q.scalar_subqueries) {
    (void)BuildOp(&qctx, sub);
  }
  (void)BuildOp(&qctx, q.root);
  return qctx.vec_sites;
}

}  // namespace lb2::engine
