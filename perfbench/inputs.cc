// Seeded statement generators and their self-checks. The program under
// test receives only the generated SQL text.
#include <cstdio>
#include <set>

#include "bench.h"
#include "service/service.h"

namespace lb2::perfbench {

namespace {

std::string Fmt(const char* fmt, double a, double b = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// One table (or equi-join) a generated shape reads from. Each predicate
// template differs from the others in structure, not only in literals:
// literals are hoisted into parameters, so literal-only variants would
// fold onto one fingerprint. Literal ranges keep every pair of predicates
// satisfiable: the engines have no NULL, so a scalar aggregate over an
// empty input has no defined answer (Volcano prints min/max as 0, the
// compiled and interpreted engines as the type's extreme value).
struct Source {
  const char* from;
  const char* join;  // "" for one table
  std::vector<const char*> keys;
  std::vector<const char*> measures;
  std::vector<std::string (*)(Rng&)> preds;
};

const std::vector<Source>& Sources() {
  static const std::vector<Source> kSources = {
      {"lineitem", "",
       {"l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"},
       {"l_quantity", "l_extendedprice", "l_discount", "l_tax",
        "l_extendedprice * (1 - l_discount)"},
       {[](Rng& r) { return Fmt("l_quantity < %.0f", r.Int(10, 50)); },
        [](Rng& r) {
          return Fmt("l_discount between %.2f and %.2f", r.Int(1, 4) / 100.0,
                     r.Int(6, 10) / 100.0);
        },
        [](Rng& r) {
          return Fmt("l_shipdate >= date '%.0f-01-01'", r.Int(1993, 1996));
        },
        [](Rng& r) { return Fmt("l_tax < 0.0%.0f", r.Int(3, 8)); },
        [](Rng& r) {
          return Fmt("l_extendedprice > %.0f", r.Int(1, 9) * 1000);
        }}},
      {"orders", "",
       {"o_orderpriority", "o_orderstatus"},
       {"o_totalprice", "o_shippriority", "year(o_orderdate)"},
       {[](Rng& r) { return Fmt("o_totalprice > %.0f", r.Int(1, 150) * 1000); },
        [](Rng& r) {
          return Fmt("o_orderdate < date '%.0f-06-01'", r.Int(1993, 1998));
        },
        [](Rng&) { return std::string("o_orderstatus = 'F'"); }}},
      {"customer", "",
       {"c_mktsegment", "c_nationkey"},
       {"c_acctbal", "c_nationkey"},
       {[](Rng& r) { return Fmt("c_acctbal > %.0f", r.Int(-900, 5000)); },
        [](Rng& r) { return Fmt("c_nationkey < %.0f", r.Int(5, 24)); }}},
      {"part", "",
       {"p_mfgr", "p_container", "p_size"},
       {"p_retailprice", "p_size"},
       {[](Rng& r) { return Fmt("p_size < %.0f", r.Int(5, 50)); },
        [](Rng& r) {
          return Fmt("p_retailprice > %.0f", r.Int(900, 1500));
        }}},
      {"customer, orders", "c_custkey = o_custkey",
       {"c_mktsegment", "o_orderstatus", "o_orderpriority"},
       {"o_totalprice", "c_acctbal"},
       {[](Rng& r) { return Fmt("c_acctbal > %.0f", r.Int(-900, 5000)); },
        [](Rng& r) {
          return Fmt("o_orderdate < date '%.0f-06-01'", r.Int(1993, 1998));
        }}},
      {"orders, lineitem", "o_orderkey = l_orderkey",
       {"o_orderpriority", "l_shipmode", "o_orderstatus"},
       {"l_extendedprice", "o_totalprice", "l_quantity"},
       {[](Rng& r) { return Fmt("l_quantity < %.0f", r.Int(10, 50)); },
        [](Rng& r) {
          return Fmt("o_orderdate < date '%.0f-06-01'", r.Int(1993, 1998));
        }}},
  };
  return kSources;
}

Stmt SqlStmt(std::string label, std::string sql) {
  Stmt s;
  s.label = std::move(label);
  s.sql = std::move(sql);
  return s;
}

// Picks `k` distinct indexes below `n`, ascending.
std::vector<int> Subset(Rng& r, int n, int k) {
  std::set<int> s;
  while (static_cast<int>(s.size()) < k) s.insert(r.Int(0, n - 1));
  return {s.begin(), s.end()};
}

}  // namespace

std::vector<Stmt> FrontEndStatements(uint64_t seed) {
  // Small statements, so front-end and service overhead is a visible share
  // of each: catalog group-bys, an orders group-by and one statement with
  // seeded literals.
  static const std::pair<const char*, const char*> kFixed[] = {
      {"catalog.suppliers_by_nation",
       "select n_name, count(*) as suppliers from supplier, nation "
       "where s_nationkey = n_nationkey group by n_name "
       "order by suppliers desc, n_name"},
      {"catalog.nations_by_region",
       "select r_name, count(*) as nations from nation, region "
       "where n_regionkey = r_regionkey group by r_name order by r_name"},
      {"catalog.supplier_balance",
       "select s_nationkey, count(*) as n, sum(s_acctbal) as bal "
       "from supplier group by s_nationkey order by s_nationkey"},
      {"orders.by_priority",
       "select o_orderpriority, count(*) as n from orders "
       "group by o_orderpriority order by o_orderpriority"},
  };
  std::vector<Stmt> out;
  for (const auto& [label, sql] : kFixed) out.push_back(SqlStmt(label, sql));
  Rng r(seed * 2 + 1);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "select count(*) as n, sum(s_acctbal) as bal from supplier "
                "where s_acctbal < %d and s_nationkey < %d",
                r.Int(0, 9000), r.Int(5, 24));
  out.push_back(SqlStmt("catalog.literals", buf));
  return out;
}

std::vector<Stmt> ShapeStatements(uint64_t seed, int n) {
  // Shape i follows pattern i % 12, so every run sends the same mix of
  // sources, group keys, aggregate and predicate counts whatever its seed;
  // the seed picks columns, functions and literals inside each pattern.
  // Cold-compile cost follows the pattern, so runs with different seeds
  // stay comparable.
  struct Pattern {
    int source, keys, aggs, preds;
    bool order;
  };
  static const Pattern kPatterns[] = {
      {0, 1, 2, 1, true},  {0, 0, 2, 2, false}, {0, 2, 3, 1, false},
      {1, 1, 2, 1, true},  {1, 0, 2, 2, false}, {2, 1, 2, 1, true},
      {3, 1, 2, 1, false}, {4, 1, 2, 1, true},  {5, 1, 2, 1, false},
      {0, 1, 1, 2, true},  {3, 2, 2, 0, false}, {0, 2, 2, 0, true},
  };
  const char* fns[] = {"sum", "avg", "min", "max"};
  Rng r(seed * 2);
  std::set<std::string> seen;
  std::vector<Stmt> out;
  for (int i = 0; i < n; ++i) {
    const Pattern& pat = kPatterns[i % 12];
    const Source& src = Sources()[pat.source];
    // An aggregate is a (function, measure) pair, or count(*).
    int nagg = 4 * static_cast<int>(src.measures.size()) + 1;
    std::vector<int> keys, aggs, preds;
    std::string structure;
    for (int attempt = 0;; ++attempt) {
      if (attempt == 1000) return out;  // pattern exhausted; caller checks
      keys = Subset(r, static_cast<int>(src.keys.size()), pat.keys);
      aggs = Subset(r, nagg, pat.aggs);
      preds = Subset(r, static_cast<int>(src.preds.size()), pat.preds);
      structure = std::to_string(i % 12);
      for (int k : keys) structure += " k" + std::to_string(k);
      for (int a : aggs) structure += " a" + std::to_string(a);
      for (int p : preds) structure += " p" + std::to_string(p);
      if (seen.insert(structure).second) break;
    }
    std::string select, group;
    for (int k : keys) {
      select += std::string(select.empty() ? "" : ", ") + src.keys[k];
      group += std::string(group.empty() ? "" : ", ") + src.keys[k];
    }
    for (size_t j = 0; j < aggs.size(); ++j) {
      int a = aggs[j];
      std::string agg =
          a == nagg - 1
              ? std::string("count(*)")
              : std::string(fns[a % 4]) + "(" + src.measures[a / 4] + ")";
      select += std::string(select.empty() ? "" : ", ") + agg + " as a" +
                std::to_string(j);
    }
    std::string where = src.join;
    for (int p : preds) {
      where += std::string(where.empty() ? "" : " and ") + src.preds[p](r);
    }
    std::string sql = "select " + select + " from " + src.from;
    if (!where.empty()) sql += " where " + where;
    if (!group.empty()) sql += " group by " + group;
    if (pat.order) sql += " order by " + group;
    out.push_back(SqlStmt("shape." + std::to_string(i), sql));
  }
  return out;
}

bool SelfCheck(uint64_t seed, const rt::Database& db,
               const std::vector<Stmt>& stmts, std::string* error) {
  if (stmts.empty()) {
    *error = "new_shapes: no statements generated";
    return false;
  }
  std::vector<Stmt> again =
      ShapeStatements(seed, static_cast<int>(stmts.size()));
  for (size_t i = 0; i < stmts.size(); ++i) {
    if (i >= again.size() || again[i].sql != stmts[i].sql) {
      *error = "generator is not deterministic at " + stmts[i].label;
      return false;
    }
  }
  // Fingerprints as the service computes them with its default options.
  service::QueryService svc(db);
  std::set<uint64_t> all;
  for (const Stmt& s : stmts) all.insert(svc.FingerprintFor(s.query).hash);
  if (all.size() != stmts.size()) {
    *error = "new_shapes: " + std::to_string(stmts.size()) +
             " statements gave only " + std::to_string(all.size()) +
             " distinct fingerprints";
    return false;
  }
  return true;
}

}  // namespace lb2::perfbench
