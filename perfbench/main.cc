// Repository benchmark: runs one named workload of the paper's
// car-insurance schema and statement mix against the engine, checks every
// answer against a statistics-free reference replay, and prints one JSON
// result line (the last line of stdout).
//
//   jitsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   jitsbench --self-test [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics: whole episodes (fresh set-up,
// then every workload item in a closed loop) repeat until the timed part
// reaches --seconds. --trace 1 runs one untraced episode and one traced
// episode on the same seed and reports the per-layer metrics. Spans are
// recorded here, around calls into the engine's public layer functions;
// nothing inside src/ is instrumented. See README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/collector.h"
#include "core/query_analysis.h"
#include "core/sensitivity.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "feedback/feedback.h"
#include "optimizer/optimizer.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/datagen.h"
#include "workload/workload_gen.h"

namespace jitsbench {
namespace {

using jits::Database;
using jits::QueryResult;
using jits::Status;
using jits::WorkloadItem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  const char* name;
  double scale;           // fraction of the paper's table sizes
  size_t clients;         // closed-loop client threads
  bool jits;              // JITS on (paper settings)
  bool general_stats;     // full RUNSTATS in set-up (paper setting 2)
  bool serve;             // async collection + plan cache + persistence
  size_t archive_budget;  // QSS archive bucket budget
};

// Why each workload exists is documented in README.md.
const WorkloadSpec kWorkloads[] = {
    {"jits-inline-small", 0.02, 1, true, false, false, 4096},
    {"general-stats-large", 0.1, 1, false, true, false, 4096},
    {"serve-2c", 0.05, 2, true, false, true, 128},
};

// A timed run is a series of short episodes on distinct inputs: pooling
// many of them keeps the tails (select p99, q-error p95) from hanging on the
// one seed drawn. README.md has the measurements behind these sizes.
constexpr size_t kItemsPerEpisode = 350;
constexpr size_t kMinEpisodes = 3;
// Enough SELECTs that at least 10 latencies lie beyond the p99.
constexpr size_t kMinSelects = 1000;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<WorkloadItem> MakeItems(const WorkloadSpec& spec, uint64_t seed,
                                    size_t num_items = kItemsPerEpisode) {
  jits::WorkloadConfig config;
  config.num_items = num_items;
  config.scale = spec.scale;
  config.seed = seed * 1000003ULL + 99;
  return jits::GenerateWorkload(config);
}

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Statistics helpers.

/// Linear-interpolated quantile of an unsorted sample (q in [0,1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Mean of the sample without its largest `share` (in [0,1)) of values.
double TrimmedMean(std::vector<double> v, double share) {
  std::sort(v.begin(), v.end());
  v.resize(v.size() - static_cast<size_t>(share * static_cast<double>(v.size())));
  return Mean(v);
}

/// max(e/a, a/e) with estimate and actual both floored at one row.
double QError(const QueryResult::EstimateOutcome& o) {
  const double e = std::max(o.est_selectivity * o.table_rows, 1.0);
  const double a = std::max(o.actual_rows, 1.0);
  return std::max(e / a, a / e);
}

const char* const kEstSources[] = {"jits-exact", "archive",    "workload",  "catalog",
                                   "default",    "stale-async", "plan-cache"};
const char* const kCounterSources[] = {"exact", "archive", "workload", "catalog",
                                       "default"};

std::map<std::string, double> Shares(const std::map<std::string, double>& counts) {
  double total = 0;
  for (const auto& [k, v] : counts) total += v;
  std::map<std::string, double> out;
  for (const auto& [k, v] : counts) out[k] = total > 0 ? v / total : 0;
  return out;
}

std::map<std::string, double> EstSourceCounters(Database* db) {
  std::map<std::string, double> counts;
  for (const char* s : kCounterSources) {
    counts[s] = db->metrics()->CounterValue(std::string("optimizer.est_source{source=\"") +
                                            s + "\"}");
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t stmt = 0;
};

class SpanRecorder {
 public:
  int Begin(const char* name, int parent, uint64_t stmt) {
    spans_.push_back({name, Now(), 0, parent, stmt});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end_ns = Now(); }
  /// Adds a finished root span recorded elsewhere (another client thread).
  void AddRoot(Span span) {
    span.parent = -1;
    spans_.push_back(std::move(span));
  }

  template <typename F>
  auto Time(const char* name, int parent, uint64_t stmt, F&& f) {
    const int id = Begin(name, parent, stmt);
    auto r = f();
    End(id);
    return r;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals clipped to it.
  std::vector<int64_t> SelfTimes() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0;
      int64_t cur = s.start_ns;
      for (auto [a, b] : iv) {
        a = std::max(a, cur);
        b = std::min(b, s.end_ns);
        if (b > a) {
          covered += b - a;
          cur = b;
        }
      }
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  /// Roots for which the self times of the root and all its descendants do
  /// not add up to the root's duration.
  size_t InvariantViolations(const std::vector<int64_t>& self) const {
    std::vector<int64_t> subtree_self(self);
    // Children always follow their parent, so a reverse sweep folds each
    // subtree into its root.
    for (size_t i = spans_.size(); i-- > 0;) {
      const int p = spans_[i].parent;
      if (p >= 0) subtree_self[static_cast<size_t>(p)] += subtree_self[i];
    }
    size_t bad = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) continue;
      if (subtree_self[i] != spans_[i].end_ns - spans_[i].start_ns) ++bad;
    }
    return bad;
  }

  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"stmt\":%llu}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0), s.parent,
                   static_cast<unsigned long long>(s.stmt));
    }
    return std::fclose(f) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Set-up.

/// A freshly built database. The destructor drops it without a final
/// checkpoint and deletes its persistence directory.
struct Setup {
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    if (db != nullptr && db->persistence_open()) (void)db->ClosePersistence(false);
    db.reset();
    if (!data_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
    }
  }

  std::unique_ptr<Database> db;
  double setup_s = 0;
  double load_s = 0;
  double runstats_s = 0;
  std::string data_dir;  // persistence directory (serve workload)
};

/// Runs `f` inside a span when `rec` is set.
template <typename F>
auto MaybeTimed(SpanRecorder* rec, const char* name, int parent, F&& f) {
  return rec != nullptr ? rec->Time(name, parent, 0, f) : f();
}

/// Builds a database for `spec`. `reference` builds the correctness
/// reference instead: same data, JITS off, no statistics, nothing else on.
Status BuildDatabase(const WorkloadSpec& spec, uint64_t seed, bool reference,
                     const std::string& data_dir, SpanRecorder* rec, Setup* out) {
  const auto start = Clock::now();
  const int setup_span = rec != nullptr ? rec->Begin("setup", -1, 0) : -1;
  out->db = std::make_unique<Database>(seed);
  Database* db = out->db.get();
  db->set_row_limit(0);  // clients count rows; nothing is fetched
  jits::DataGenConfig datagen;
  datagen.scale = spec.scale;
  datagen.seed = seed;
  auto phase = Clock::now();
  JITS_RETURN_IF_ERROR(MaybeTimed(rec, "storage.load", setup_span,
                                  [&] { return jits::GenerateCarDatabase(db, datagen); }));
  out->load_s = Since(phase);
  if (!reference) {
    if (spec.general_stats) {
      phase = Clock::now();
      JITS_RETURN_IF_ERROR(MaybeTimed(rec, "catalog.runstats_all", setup_span,
                                      [&] { return db->CollectGeneralStats(); }));
      out->runstats_s = Since(phase);
    }
    jits::JitsConfig* config = db->jits_config();
    config->enabled = spec.jits;
    config->sensitivity_enabled = true;
    config->s_max = 0.5;
    config->sample_rows = 2000;
    config->archive_bucket_budget = spec.archive_budget;
  }
  if (!reference && spec.serve) {
    db->plan_cache()->set_enabled(true);
    jits::async::CollectorServiceOptions async_options;
    async_options.threads = 1;
    JITS_RETURN_IF_ERROR(db->EnableAsyncCollection(async_options));
    out->data_dir = data_dir;
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
    std::filesystem::create_directories(data_dir, ec);
    jits::persist::PersistenceOptions persist_options;
    persist_options.data_dir = data_dir;  // default auto-checkpoint and fsync
    JITS_RETURN_IF_ERROR(MaybeTimed(rec, "persist.open", setup_span,
                                    [&] { return db->OpenPersistence(persist_options); }));
  }
  if (rec != nullptr) rec->End(setup_span);
  out->setup_s = Since(start);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Answers and their check.

/// Fixed post-run check queries for the concurrent workload. They read only
/// columns the workload's DML never updates, so their answers do not depend
/// on how the clients' statements interleaved.
const char* const kCheckQueries[] = {
    "SELECT c.id FROM car c WHERE c.year = 2007",
    "SELECT a.id FROM accidents a WHERE a.year = 2007",
    "SELECT o.name FROM car c, owner o WHERE c.ownerid = o.id AND c.make = 'Toyota' "
    "AND o.age > 40",
    "SELECT c.id FROM car c, accidents a WHERE a.carid = c.id AND c.model = 'Camry' "
    "AND a.severity >= 3",
    "SELECT d.ownerid FROM demographics d, owner o WHERE d.ownerid = o.id "
    "AND d.gender = 'F' AND o.age BETWEEN 30 AND 50",
};
const char* const kTables[] = {"owner", "demographics", "car", "accidents"};

/// What a run answered: per-statement row counts in statement order and the
/// final state. A statement that failed has no answer (kNoAnswer); it is
/// counted as a failure already.
constexpr size_t kNoAnswer = SIZE_MAX;
struct Answers {
  std::vector<size_t> rows;   // SELECT result rows / DML affected rows
  std::vector<size_t> final;  // table row counts, then check-query rows
};

Status FinalAnswers(Database* db, std::vector<size_t>* out) {
  out->clear();
  for (const char* t : kTables) out->push_back(db->catalog()->FindTable(t)->num_rows());
  for (const char* sql : kCheckQueries) {
    QueryResult qr;
    Status status = db->Execute(sql, &qr);
    if (!status.ok()) return status;
    out->push_back(qr.num_rows);
  }
  return Status::OK();
}

/// Per-statement answers are comparable only when one client ran the
/// statements in reference order; concurrent runs compare the final state.
bool PerStatement(const WorkloadSpec& spec) { return spec.clients == 1; }

/// Number of answers that differ from the reference.
size_t CountMismatches(const Answers& got, const Answers& want, bool per_statement) {
  size_t bad = 0;
  if (per_statement) {
    const size_t n = std::max(got.rows.size(), want.rows.size());
    for (size_t i = 0; i < n; ++i) {
      if (i < got.rows.size() && got.rows[i] == kNoAnswer) continue;
      if (i >= got.rows.size() || i >= want.rows.size() || got.rows[i] != want.rows[i]) {
        ++bad;
      }
    }
  }
  const size_t n = std::max(got.final.size(), want.final.size());
  for (size_t i = 0; i < n; ++i) {
    if (i >= got.final.size() || i >= want.final.size() || got.final[i] != want.final[i]) {
      ++bad;
    }
  }
  return bad;
}

/// Replays `items` in order on the reference database. SELECTs change no
/// data, so they are skipped where only the final state is compared.
Status RunReference(const WorkloadSpec& spec, uint64_t seed,
                    const std::vector<WorkloadItem>& items, Answers* out) {
  Setup setup;
  JITS_RETURN_IF_ERROR(BuildDatabase(spec, seed, /*reference=*/true, "", nullptr, &setup));
  for (const WorkloadItem& item : items) {
    if (!PerStatement(spec) && !item.is_update) continue;
    for (const std::string& sql : item.statements) {
      QueryResult qr;
      JITS_RETURN_IF_ERROR(setup.db->Execute(sql, &qr));
      out->rows.push_back(qr.num_rows);
    }
  }
  return FinalAnswers(setup.db.get(), &out->final);
}

// ---------------------------------------------------------------------------
// One untraced episode: set-up, then every item in a closed loop.

struct Episode {
  double setup_s = 0;
  double load_s = 0;
  double runstats_s = 0;
  double wall_s = 0;  // timed loop only
  size_t statements = 0;
  size_t selects = 0;
  size_t errors = 0;
  std::vector<double> select_ms, compile_ms, execute_ms, dml_ms, qerrors;
  std::map<std::string, double> est_source_records;
  Answers answers;
  // Counters read after the timed loop.
  double tables_sampled = 0;
  double groups_materialized = 0;
  double groups_measured = 0;
  std::map<std::string, double> est_source_counters;
  size_t archive_buckets = 0;
  size_t archive_budget = 0;
  double archive_evictions = 0;
  jits::PlanCacheCounters plan_cache;
  jits::async::QueueCounters queue;
  double async_completed = 0;
  double async_wait_ms_p50 = 0;
  double wal_bytes = 0;
  double wal_records = 0;
  double checkpoint_ms = 0;
  std::map<std::string, double> engine_latency_s;  // latency.* histogram sums
};

struct ClientTally {
  std::vector<double> select_ms, compile_ms, execute_ms, dml_ms, qerrors;
  std::map<std::string, double> est_source_records;
  std::vector<std::pair<size_t, size_t>> rows;  // (statement ordinal, rows)
  size_t statements = 0;
  size_t selects = 0;
  size_t errors = 0;
  // Traced clients record their own spans (one recorder per thread).
  SpanRecorder spans;
};

/// Statement ordinal of the first statement of every item.
std::vector<size_t> FirstOrdinals(const std::vector<WorkloadItem>& items) {
  std::vector<size_t> first;
  size_t n = 0;
  for (const WorkloadItem& item : items) {
    first.push_back(n);
    n += item.statements.size();
  }
  first.push_back(n);
  return first;
}

void RunClient(Database* db, const std::vector<WorkloadItem>& items,
               const std::vector<size_t>& first, size_t tid, size_t clients, bool traced,
               ClientTally* tally) {
  for (size_t i = tid; i < items.size(); i += clients) {
    const WorkloadItem& item = items[i];
    for (size_t k = 0; k < item.statements.size(); ++k) {
      const size_t ordinal = first[i] + k;
      QueryResult qr;
      const int span =
          traced ? tally->spans.Begin(item.is_update ? "engine.dml" : "engine.select", -1,
                                      ordinal + 1)
                 : -1;
      const auto start = Clock::now();
      const Status status = db->Execute(item.statements[k], &qr);
      const double ms = Since(start) * 1e3;
      if (traced) tally->spans.End(span);
      ++tally->statements;
      if (!status.ok()) {
        ++tally->errors;
        std::fprintf(stderr, "statement failed: %s\n  %s\n", status.ToString().c_str(),
                     item.statements[k].c_str());
        continue;
      }
      tally->rows.push_back({ordinal, qr.num_rows});
      if (item.is_update) {
        tally->dml_ms.push_back(ms);
        continue;
      }
      ++tally->selects;
      tally->select_ms.push_back(ms);
      tally->compile_ms.push_back(qr.compile_seconds * 1e3);
      tally->execute_ms.push_back(qr.execute_seconds * 1e3);
      for (const auto& o : qr.estimate_outcomes) {
        tally->qerrors.push_back(QError(o));
        tally->est_source_records[o.est_source] += 1;
      }
    }
  }
}

template <typename T>
void Append(std::vector<T>* dst, const std::vector<T>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

/// Reads the counters every layer exposes, after the timed loop. On the
/// serve workload this drains the background collector and takes one timed
/// checkpoint first.
void ReadCounters(Database* db, Episode* ep) {
  if (db->async_collection_enabled()) {
    db->async_collector()->Drain();
    ep->queue = db->async_collector()->queue_counters();
    ep->async_completed = static_cast<double>(db->async_collector()->completed());
    (void)db->DisableAsyncCollection();
  }
  jits::MetricsRegistry* m = db->metrics();
  ep->tables_sampled = m->CounterValue("jits.tables_sampled");
  ep->groups_materialized = m->CounterValue("jits.groups_materialized");
  ep->groups_measured = m->CounterValue("jits.groups_measured");
  ep->archive_evictions = m->CounterValue("jits.archive.evictions");
  ep->est_source_counters = EstSourceCounters(db);
  ep->archive_buckets = db->archive()->total_buckets();
  ep->archive_budget = db->archive()->bucket_budget();
  ep->plan_cache = db->plan_cache()->counters();
  for (const jits::MetricSnapshot& s : m->Snapshot()) {
    if (s.kind != jits::MetricSnapshot::Kind::kHistogram) continue;
    if (s.name == "jits.async.wait") {
      ep->async_wait_ms_p50 =
          m->GetHistogram(s.name, jits::MetricBuckets::Latency())->Percentile(0.5) * 1e3;
    } else if (s.name.rfind("latency.", 0) == 0) {
      ep->engine_latency_s[s.name] = s.sum;
    }
  }
  if (db->persistence_open()) {
    ep->wal_bytes = static_cast<double>(db->persistence()->wal_bytes());
    ep->wal_records = static_cast<double>(db->persistence()->wal_records());
    const auto start = Clock::now();
    const Status status = db->Checkpoint();
    ep->checkpoint_ms = Since(start) * 1e3;
    if (!status.ok()) ++ep->errors;
  }
}

Status RunEpisode(const WorkloadSpec& spec, uint64_t seed,
                  const std::vector<WorkloadItem>& items, const std::string& data_dir,
                  bool traced, SpanRecorder* merged_spans, Episode* ep) {
  Setup setup;
  JITS_RETURN_IF_ERROR(
      BuildDatabase(spec, seed, false, data_dir, traced ? merged_spans : nullptr, &setup));
  ep->setup_s = setup.setup_s;
  ep->load_s = setup.load_s;
  ep->runstats_s = setup.runstats_s;
  Database* db = setup.db.get();

  const std::vector<size_t> first = FirstOrdinals(items);
  std::vector<ClientTally> tallies(spec.clients);
  const auto start = Clock::now();
  if (spec.clients == 1) {
    RunClient(db, items, first, 0, 1, traced, &tallies[0]);
  } else {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < spec.clients; ++t) {
      threads.emplace_back(RunClient, db, std::cref(items), std::cref(first), t,
                           spec.clients, traced, &tallies[t]);
    }
    for (std::thread& t : threads) t.join();
  }
  ep->wall_s = Since(start);

  ep->answers.rows.assign(first.back(), kNoAnswer);
  for (ClientTally& t : tallies) {
    ep->statements += t.statements;
    ep->selects += t.selects;
    ep->errors += t.errors;
    Append(&ep->select_ms, t.select_ms);
    Append(&ep->compile_ms, t.compile_ms);
    Append(&ep->execute_ms, t.execute_ms);
    Append(&ep->dml_ms, t.dml_ms);
    Append(&ep->qerrors, t.qerrors);
    for (const auto& [k, v] : t.est_source_records) ep->est_source_records[k] += v;
    for (const auto& [ordinal, n] : t.rows) ep->answers.rows[ordinal] = n;
    if (traced) {
      for (const Span& s : t.spans.spans()) merged_spans->AddRoot(s);
    }
  }

  ReadCounters(db, ep);
  return FinalAnswers(db, &ep->answers.final);
}

// ---------------------------------------------------------------------------
// Traced replay (single client): the benchmark drives each SELECT through
// the public layer functions in the order Database::Execute and
// JitsModule::Prepare call them, against the database's own catalog,
// archive, history, RNG and JitsConfig. DML goes through Database::Execute.

struct Replay {
  double load_s = 0, runstats_s = 0;
  size_t statements = 0, selects = 0, errors = 0;
  std::vector<double> select_ms;
  double tables_sampled = 0, groups_materialized = 0, groups_measured = 0;
  double node_rows = 0, result_rows = 0;
  std::map<std::string, double> est_source_records;
  std::map<std::string, double> est_source_counters;
  size_t archive_buckets = 0;
  double archive_evictions = 0;
  Answers answers;
};

Status ReplaySelect(Database* db, const jits::Optimizer& optimizer,
                    jits::FeedbackSystem* feedback, jits::InflightTableGuard* inflight,
                    const jits::ObsContext& obs, const std::string& sql, uint64_t now,
                    uint64_t stmt, SpanRecorder* rec, Replay* out, size_t* rows) {
  const int root = rec->Begin("engine.select", -1, stmt);
  jits::Result<jits::StatementAst> ast =
      rec->Time("sql.parse", root, stmt, [&] { return jits::ParseStatement(sql); });
  if (!ast.ok()) return ast.status();
  jits::Result<jits::BoundStatement> bound = rec->Time(
      "sql.bind", root, stmt, [&] { return jits::Bind(ast.value(), db->catalog()); });
  if (!bound.ok()) return bound.status();
  jits::QueryBlock* block = std::get_if<jits::QueryBlock>(&bound.value());
  if (block == nullptr) return Status::Internal("replayed statement is not a SELECT");

  const jits::JitsConfig& config = *db->jits_config();
  jits::QssExact exact;
  if (config.enabled) {
    db->archive()->set_bucket_budget(config.archive_bucket_budget);
    const std::vector<jits::PredicateGroup> groups = rec->Time(
        "core.analyze", root, stmt,
        [&] { return jits::AnalyzeQuery(*block, config.max_group_preds); });
    jits::SensitivityConfig sens_config;
    sens_config.s_max = config.s_max;
    sens_config.enabled = config.sensitivity_enabled;
    const jits::SensitivityAnalysis sensitivity(sens_config, db->catalog(), db->archive(),
                                                db->history());
    const std::vector<jits::TableDecision> decisions = rec->Time(
        "core.sensitivity", root, stmt, [&] { return sensitivity.Analyze(*block, groups); });
    jits::CollectorConfig coll_config;
    coll_config.sample_rows = config.sample_rows;
    coll_config.inflight = inflight;
    jits::StatisticsCollector collector(db->catalog(), db->archive(), coll_config);
    const jits::CollectionStats stats = rec->Time("core.collect", root, stmt, [&] {
      return collector.Collect(*block, groups, decisions, db->rng(), now, &exact, &obs);
    });
    out->tables_sampled += static_cast<double>(stats.tables_sampled);
    out->groups_materialized += static_cast<double>(stats.groups_materialized);
    out->groups_measured += static_cast<double>(stats.groups_measured);
  }

  jits::EstimationSources sources;
  sources.catalog = db->catalog();
  sources.archive = db->archive();
  sources.static_stats = db->workload_stats();
  sources.exact = &exact;
  sources.now = now;
  sources.history = db->history();
  sources.use_feedback_correction = db->leo_correction();
  jits::Result<jits::PhysicalPlan> plan = rec->Time(
      "optimizer.optimize", root, stmt, [&] { return optimizer.Optimize(*block, sources, &obs); });
  if (!plan.ok()) return plan.status();
  jits::Result<jits::ExecResult> exec = rec->Time("exec.execute", root, stmt, [&] {
    jits::Executor executor(block, nullptr, &obs);
    return executor.Execute(*plan.value().root);
  });
  if (!exec.ok()) return exec.status();
  *rows = exec.value().output.count();
  for (const auto& [node, actual] : exec.value().node_actuals) out->node_rows += actual;
  out->result_rows += static_cast<double>(*rows);

  const int fb_span = rec->Begin("feedback.record", root, stmt);
  for (const jits::EstimationRecord& record : plan.value().estimates) {
    for (const jits::AccessObservation& ob : exec.value().observations) {
      if (ob.table_idx != record.table_idx) continue;
      feedback->Record(record, ob.passed_rows, ob.denominator_rows);
      out->est_source_records[record.est_source] += 1;
      break;
    }
  }
  rec->End(fb_span);
  rec->End(root);
  out->select_ms.push_back(
      static_cast<double>(rec->spans()[static_cast<size_t>(root)].end_ns -
                          rec->spans()[static_cast<size_t>(root)].start_ns) /
      1e6);
  return Status::OK();
}

Status RunReplay(const WorkloadSpec& spec, uint64_t seed,
                 const std::vector<WorkloadItem>& items, SpanRecorder* rec, Replay* out) {
  Setup setup;
  JITS_RETURN_IF_ERROR(BuildDatabase(spec, seed, false, "", rec, &setup));
  out->load_s = setup.load_s;
  out->runstats_s = setup.runstats_s;
  Database* db = setup.db.get();
  const jits::ObsContext obs{db->metrics(), nullptr, db->events()};
  const jits::Optimizer optimizer;
  jits::FeedbackSystem feedback(db->history());
  feedback.set_metrics(db->metrics());
  feedback.set_drift(db->drift_monitor());
  feedback.set_stats_targets(db->archive(), db->catalog());
  jits::InflightTableGuard inflight;

  // The engine stamps statement k of the run with logical time base + k + 1;
  // replayed SELECTs take the same stamps.
  const uint64_t base = db->clock();
  uint64_t ordinal = 0;
  for (const WorkloadItem& item : items) {
    for (const std::string& sql : item.statements) {
      ++out->statements;
      Status status;
      size_t rows = kNoAnswer;
      if (item.is_update) {
        QueryResult qr;
        const int span = rec->Begin("engine.dml", -1, ordinal + 1);
        status = db->Execute(sql, &qr);
        rec->End(span);
        rows = qr.num_rows;
      } else {
        ++out->selects;
        status = ReplaySelect(db, optimizer, &feedback, &inflight, obs, sql,
                              base + ordinal + 1, ordinal + 1, rec, out, &rows);
      }
      out->answers.rows.push_back(status.ok() ? rows : kNoAnswer);
      if (!status.ok()) {
        ++out->errors;
        std::fprintf(stderr, "replayed statement failed: %s\n  %s\n",
                     status.ToString().c_str(), sql.c_str());
      }
      ++ordinal;
    }
  }
  out->est_source_counters = EstSourceCounters(db);
  out->archive_buckets = db->archive()->total_buckets();
  out->archive_evictions = db->metrics()->CounterValue("jits.archive.evictions");
  return FinalAnswers(db, &out->answers.final);
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
  bool self_test = false;
};

std::string DataDir(const Options& opt, size_t episode) {
  return opt.out_dir + "/persist-" + std::to_string(getpid()) + "-" +
         std::to_string(episode);
}

/// Seed of episode `e` of a run: distinct inputs per episode, all derived
/// from the run's seed (splitmix64).
uint64_t EpisodeSeed(uint64_t seed, size_t e) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (e + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL;
}

/// --trace 0: untraced episodes, each on its own inputs and each checked
/// against its own reference replay (outside the timed part), until the
/// timed part reaches --seconds and the minimum episodes and SELECTs ran.
int RunTimed(const WorkloadSpec& spec, const Options& opt) {
  const bool per_statement = PerStatement(spec);
  std::vector<Episode> episodes;
  size_t wrong = 0, selects = 0;
  double timed = 0;
  while (episodes.size() < kMinEpisodes || timed < opt.seconds || selects < kMinSelects) {
    const uint64_t seed = EpisodeSeed(opt.seed, episodes.size());
    const std::vector<WorkloadItem> items = MakeItems(spec, seed);
    Episode ep;
    Status status =
        RunEpisode(spec, seed, items, DataDir(opt, episodes.size()), false, nullptr, &ep);
    Answers reference;
    if (status.ok()) status = RunReference(spec, seed, items, &reference);
    if (!status.ok()) {
      std::fprintf(stderr, "episode failed: %s\n", status.ToString().c_str());
      return 1;
    }
    wrong += CountMismatches(ep.answers, reference, per_statement);
    timed += ep.wall_s;
    selects += ep.selects;
    episodes.push_back(std::move(ep));
  }
  const double peak_rss = PeakRssMb();

  size_t attempted = 0, errors = 0, statements = 0;
  double wall = 0;
  std::vector<double> select_ms, compile_ms, execute_ms, dml_ms, setups, qerror_p50,
      qerror_p95;
  for (const Episode& ep : episodes) {
    attempted += ep.statements;
    statements += ep.statements - ep.errors;
    errors += ep.errors;
    wall += ep.wall_s;
    Append(&select_ms, ep.select_ms);
    Append(&compile_ms, ep.compile_ms);
    Append(&execute_ms, ep.execute_ms);
    Append(&dml_ms, ep.dml_ms);
    setups.push_back(ep.setup_s);
    qerror_p50.push_back(Quantile(ep.qerrors, 0.5));
    qerror_p95.push_back(Quantile(ep.qerrors, 0.95));
  }
  const size_t failed = errors + wrong;
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);
  const Episode& last = episodes.back();

  std::printf("workload %s seed %llu: %zu episode(s), %zu statements (%zu SELECT, %zu DML) "
              "in %.3f s timed\n",
              spec.name, static_cast<unsigned long long>(opt.seed), episodes.size(),
              attempted, select_ms.size(), dml_ms.size(), wall);
  std::printf("failures: %zu / %zu statements attempted (%zu non-OK, %zu wrong answers)\n",
              failed, attempted, errors, wrong);
  std::printf("plan cache: %llu hits / %llu lookups (last episode)\n",
              static_cast<unsigned long long>(last.plan_cache.hits),
              static_cast<unsigned long long>(last.plan_cache.hits + last.plan_cache.misses));
  std::printf("archive: %zu / %zu buckets used (last episode)\n", last.archive_buckets,
              last.archive_budget);
  std::printf("groups: %.0f materialized / %.0f measured (last episode)\n",
              last.groups_materialized, last.groups_measured);
  const std::vector<Metric> metrics = {
      {"setup_s", Quantile(setups, 0.5), "s"},
      {"stmts_per_s", static_cast<double>(statements) / wall, "1/s"},
      {"select_p50_ms", Quantile(select_ms, 0.5), "ms"},
      {"select_p99_ms", Quantile(select_ms, 0.99), "ms"},
      // The slowest tenth is left out: on serve-2c it is mostly waiting for
      // statement locks, which grows three to four times faster than the
      // host slows down. README.md has the measurements.
      {"select_compile_trimmed_mean_ms", TrimmedMean(compile_ms, 0.1), "ms"},
      {"select_execute_mean_ms", Mean(execute_ms), "ms"},
      {"dml_p99_ms", Quantile(dml_ms, 0.99), "ms"},
      // Q-error per episode, then the median over episodes: on serve-2c an
      // occasional episode's tail (async timing, cached plans) is several
      // times the others', and the median keeps it from moving the run.
      {"qerror_p50", Quantile(qerror_p50, 0.5), "ratio"},
      {"qerror_p95", Quantile(qerror_p95, 0.5), "ratio"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  // failed_frac is 0 on a correct run, so it travels in the result line as
  // "failed" over "attempted" rather than as a metric. The plain compile
  // mean is printed for the paper's compile/execute split; BENCHMARK.json
  // lists the trimmed one.
  std::printf("metric %-40s %.6f %s\n", "failed_frac", failed_frac, "ratio");
  std::printf("metric %-40s %.6f %s\n", "select_compile_mean_ms", Mean(compile_ms), "ms");
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

/// Per-layer metrics of the traced run (besides the est_source shares), in
/// output order. README.md says what each measures and what it should move.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sql.parse_ms", "ms"},
    {"sql.bind_ms", "ms"},
    {"core.analyze_ms", "ms"},
    {"core.sensitivity_ms", "ms"},
    {"core.collect_ms", "ms"},
    {"core.tables_sampled_per_select", "ratio"},
    {"core.groups_materialized_per_select", "ratio"},
    {"core.groups_measured_per_select", "ratio"},
    {"storage.load_s", "s"},
    {"catalog.runstats_all_s", "s"},
    {"histogram.archive_buckets", "count"},
    {"histogram.archive_evictions", "count"},
    {"optimizer.optimize_ms", "ms"},
    {"exec.execute_ms", "ms"},
    {"exec.rows_per_result_row", "ratio"},
    {"feedback.record_ms", "ms"},
    {"engine.dml_ms", "ms"},
    {"engine.plan_cache_hits", "count"},
    {"engine.plan_cache_lookups", "count"},
    {"engine.plan_cache_invalidations", "count"},
    {"async.enqueued", "count"},
    {"async.coalesced", "count"},
    {"async.dropped", "count"},
    {"async.completed", "count"},
    {"async.wait_ms_p50", "ms"},
    {"persist.wal_bytes_per_stmt", "B"},
    {"persist.wal_records", "count"},
    {"persist.checkpoint_ms", "ms"},
};

/// --trace 1: one untraced episode, one traced episode on the same seed,
/// the reference check, and the per-layer metrics of the traced episode.
int RunTraced(const WorkloadSpec& spec, const Options& opt) {
  const uint64_t seed = EpisodeSeed(opt.seed, 0);
  const std::vector<WorkloadItem> items = MakeItems(spec, seed);
  Episode untraced;
  Status status = RunEpisode(spec, seed, items, DataDir(opt, 0), false, nullptr, &untraced);
  if (!status.ok()) {
    std::fprintf(stderr, "untraced episode failed: %s\n", status.ToString().c_str());
    return 1;
  }
  Answers reference;
  status = RunReference(spec, seed, items, &reference);
  if (!status.ok()) {
    std::fprintf(stderr, "reference replay failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const bool per_statement = PerStatement(spec);

  SpanRecorder rec;
  std::map<std::string, double> m;  // per-layer metrics
  size_t attempted = 0, errors = 0, wrong = 0, selects = 0, dml = 0;
  double setup_load_s = 0, setup_runstats_s = 0;
  std::map<std::string, double> est_records;
  if (spec.clients == 1) {
    Replay replay;
    status = RunReplay(spec, seed, items, &rec, &replay);
    if (!status.ok()) {
      std::fprintf(stderr, "traced replay failed: %s\n", status.ToString().c_str());
      return 1;
    }
    attempted = replay.statements;
    errors = replay.errors;
    wrong = CountMismatches(replay.answers, reference, per_statement);
    selects = replay.selects;
    setup_load_s = replay.load_s;
    setup_runstats_s = replay.runstats_s;
    est_records = replay.est_source_records;
    const double n = static_cast<double>(std::max<size_t>(selects, 1));
    m["core.tables_sampled_per_select"] = replay.tables_sampled / n;
    m["core.groups_materialized_per_select"] = replay.groups_materialized / n;
    m["core.groups_measured_per_select"] = replay.groups_measured / n;
    m["histogram.archive_buckets"] = static_cast<double>(replay.archive_buckets);
    m["histogram.archive_evictions"] = replay.archive_evictions;
    m["exec.rows_per_result_row"] =
        replay.result_rows > 0 ? replay.node_rows / replay.result_rows : 0;

    // Fidelity: does the replay cover the work the engine did untraced?
    std::printf("fidelity: tables sampled %.0f replay vs %.0f engine (gap %+.0f)\n",
                replay.tables_sampled, untraced.tables_sampled,
                replay.tables_sampled - untraced.tables_sampled);
    std::printf("fidelity: groups materialized %.0f replay vs %.0f engine (gap %+.0f)\n",
                replay.groups_materialized, untraced.groups_materialized,
                replay.groups_materialized - untraced.groups_materialized);
    const auto rc = Shares(replay.est_source_counters);
    const auto uc = Shares(untraced.est_source_counters);
    for (const char* s : kCounterSources) {
      std::printf("fidelity: optimizer.est_source{source=\"%s\"} share %.4f replay vs "
                  "%.4f engine (gap %+.4f)\n",
                  s, rc.at(s), uc.at(s), rc.at(s) - uc.at(s));
    }
    const auto rr = Shares(replay.est_source_records);
    const auto ur = Shares(untraced.est_source_records);
    for (const char* s : kEstSources) {
      const double a = rr.count(s) ? rr.at(s) : 0;
      const double b = ur.count(s) ? ur.at(s) : 0;
      if (a == 0 && b == 0) continue;
      std::printf("fidelity: est_source %s record share %.4f replay vs %.4f engine "
                  "(gap %+.4f)\n",
                  s, a, b, a - b);
    }
    const double traced_p50 = Quantile(replay.select_ms, 0.5);
    const double untraced_p50 = Quantile(untraced.select_ms, 0.5);
    std::printf("tracing overhead: select_p50_ms traced %.4f - untraced %.4f = %+.4f ms\n",
                traced_p50, untraced_p50, traced_p50 - untraced_p50);
  } else {
    Episode traced;
    status = RunEpisode(spec, seed, items, DataDir(opt, 1), true, &rec, &traced);
    if (!status.ok()) {
      std::fprintf(stderr, "traced episode failed: %s\n", status.ToString().c_str());
      return 1;
    }
    attempted = traced.statements;
    errors = traced.errors;
    wrong = CountMismatches(traced.answers, reference, per_statement);
    selects = traced.selects;
    setup_load_s = traced.load_s;
    setup_runstats_s = traced.runstats_s;
    est_records = traced.est_source_records;
    const double n = static_cast<double>(std::max<size_t>(selects, 1));
    m["core.tables_sampled_per_select"] = traced.tables_sampled / n;
    m["core.groups_materialized_per_select"] = traced.groups_materialized / n;
    m["core.groups_measured_per_select"] = traced.groups_measured / n;
    m["histogram.archive_buckets"] = static_cast<double>(traced.archive_buckets);
    m["histogram.archive_evictions"] = traced.archive_evictions;
    m["exec.rows_per_result_row"] = 0;  // node actuals are not visible from outside
    m["engine.plan_cache_hits"] = static_cast<double>(traced.plan_cache.hits);
    m["engine.plan_cache_lookups"] =
        static_cast<double>(traced.plan_cache.hits + traced.plan_cache.misses);
    m["engine.plan_cache_invalidations"] = static_cast<double>(traced.plan_cache.invalidations);
    m["async.enqueued"] = static_cast<double>(traced.queue.enqueued);
    m["async.coalesced"] = static_cast<double>(traced.queue.coalesced);
    m["async.dropped"] = static_cast<double>(traced.queue.dropped);
    m["async.completed"] = traced.async_completed;
    m["async.wait_ms_p50"] = traced.async_wait_ms_p50;
    m["persist.wal_bytes_per_stmt"] =
        traced.wal_bytes / static_cast<double>(std::max<size_t>(traced.statements, 1));
    m["persist.wal_records"] = traced.wal_records;
    m["persist.checkpoint_ms"] = traced.checkpoint_ms;
    // With concurrent clients the layers inside Database::Execute cannot be
    // timed from outside; their times come from the engine's own latency
    // histograms (exact sums). Parse and bind cover every statement, so they
    // are per statement here; the SELECT-only stages are per SELECT.
    const auto lat = [&](const char* name, size_t per) {
      const auto it = traced.engine_latency_s.find(name);
      return it == traced.engine_latency_s.end()
                 ? 0.0
                 : it->second * 1e3 / static_cast<double>(std::max<size_t>(per, 1));
    };
    m["sql.parse_ms"] = lat("latency.parse", traced.statements);
    m["sql.bind_ms"] = lat("latency.bind", traced.statements);
    m["core.collect_ms"] = lat("latency.jits", selects);
    m["optimizer.optimize_ms"] = lat("latency.optimize", selects);
    m["exec.execute_ms"] = lat("latency.execute", selects);
    m["feedback.record_ms"] = lat("latency.feedback", selects);
    std::printf("plan cache: %llu hits / %llu lookups\n",
                static_cast<unsigned long long>(traced.plan_cache.hits),
                static_cast<unsigned long long>(traced.plan_cache.hits +
                                                traced.plan_cache.misses));
  }

  // Self times per layer from the recorded spans.
  const std::vector<int64_t> self = rec.SelfTimes();
  const size_t violations = rec.InvariantViolations(self);
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    self_ms[rec.spans()[i].name] += static_cast<double>(self[i]) / 1e6;
    if (rec.spans()[i].name == "engine.dml") ++dml;
  }
  const double n = static_cast<double>(std::max<size_t>(selects, 1));
  if (spec.clients == 1) {
    for (const char* layer : {"sql.parse", "sql.bind", "core.analyze", "core.sensitivity",
                              "core.collect", "optimizer.optimize", "exec.execute",
                              "feedback.record"}) {
      m[std::string(layer) + "_ms"] = self_ms[layer] / n;
    }
  }
  m["engine.dml_ms"] = dml > 0 ? self_ms["engine.dml"] / static_cast<double>(dml) : 0;
  m["storage.load_s"] = setup_load_s;
  m["catalog.runstats_all_s"] = setup_runstats_s;
  const auto shares = Shares(est_records);
  for (const char* s : kEstSources) {
    m[std::string("optimizer.est_source_share.") + s] = shares.count(s) ? shares.at(s) : 0;
  }

  const std::string span_path = opt.out_dir + "/spans-" + spec.name + "-seed" +
                                std::to_string(opt.seed) + ".jsonl";
  if (!rec.Write(span_path)) {
    std::fprintf(stderr, "cannot write %s\n", span_path.c_str());
    return 1;
  }
  // The untraced episode's answers are checked too.
  attempted += untraced.statements;
  const size_t failed = errors + untraced.errors + wrong +
                        CountMismatches(untraced.answers, reference, per_statement) +
                        violations;
  std::printf("traced run: %zu spans written to %s; %zu statement(s) whose self times "
              "do not add up\n",
              rec.spans().size(), span_path.c_str(), violations);
  std::printf("failures: %zu / %zu statements attempted\n", failed, attempted);
  std::printf("archive: %.0f / %zu buckets used\n", m["histogram.archive_buckets"],
              untraced.archive_budget);
  std::printf("groups: %.3f materialized / %.3f measured per SELECT\n",
              m["core.groups_materialized_per_select"], m["core.groups_measured_per_select"]);

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) metrics.push_back({name, m[name], unit});
  for (const char* s : kEstSources) {
    const std::string name = std::string("optimizer.est_source_share.") + s;
    metrics.push_back({name, m[name], "ratio"});
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

/// Shows that the answer check catches wrong answers: a planted wrong
/// reference answer must turn a clean episode into a failing one.
int SelfTest(const Options& opt) {
  int bad = 0;
  for (const WorkloadSpec& base : kWorkloads) {
    WorkloadSpec spec = base;
    spec.scale = 0.02;
    const std::vector<WorkloadItem> items = MakeItems(spec, opt.seed, 120);
    Episode ep;
    Answers reference;
    Status status = RunEpisode(spec, opt.seed, items, DataDir(opt, 0), false, nullptr, &ep);
    if (status.ok()) status = RunReference(spec, opt.seed, items, &reference);
    if (!status.ok()) {
      std::printf("self-test %s: run failed: %s\n", spec.name, status.ToString().c_str());
      ++bad;
      continue;
    }
    const bool per_statement = PerStatement(spec);
    const size_t clean = CountMismatches(ep.answers, reference, per_statement) + ep.errors;
    Answers planted = reference;
    if (per_statement) {
      planted.rows[planted.rows.size() / 2] += 1;
    } else {
      planted.final.back() += 1;
    }
    const size_t caught = CountMismatches(ep.answers, planted, per_statement);
    const bool ok = clean == 0 && caught == 1;
    std::printf("self-test %s: %zu mismatch(es) against the reference, %zu against a "
                "reference with one planted wrong answer: %s\n",
                spec.name, clean, caught, ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      opt->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt->trace = std::atoi(value.c_str());
    } else if (arg == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace jitsbench

int main(int argc, char** argv) {
  jitsbench::Options opt;
  if (!jitsbench::ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: jitsbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] | --self-test\n");
    return 2;
  }
  if (opt.self_test) return jitsbench::SelfTest(opt);
  const jitsbench::WorkloadSpec* spec = jitsbench::FindWorkload(opt.workload);
  if (spec == nullptr || (opt.trace != 0 && opt.trace != 1) || !(opt.seconds > 0)) {
    std::fprintf(stderr, "unknown workload or bad --trace/--seconds\n");
    return 2;
  }
  return opt.trace == 1 ? jitsbench::RunTraced(*spec, opt) : jitsbench::RunTimed(*spec, opt);
}
