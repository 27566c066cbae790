// EVE end-to-end benchmark (eve_bench).
//
// Replays a seeded evolution stream (bench_util/scenario.h) through one
// EveSystem and a ServingFrontEnd as a single closed-loop client: apply an
// event, optionally run the monitor sweep, optionally issue blocking reads,
// then the next event.  Every call into the library is timed.  The untraced
// run (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// additionally shadows the schema-change pipeline step by step through the
// library's public functions and reports the per-layer breakdown.
//
//   eve_bench --workload {evolve|maintain|serve} --seed N --seconds S
//             --trace {0|1} [--trace-out FILE]
//
// Human-readable lines come first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
// when every operation applied and every correctness check passed.
// e2ebench/METRICS.md documents every metric, workload and check.

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "algebra/executor.h"
#include "bench_util/scenario.h"
#include "common/random.h"
#include "plan/planner.h"
#include "policy/policy.h"
#include "qc/ranking.h"
#include "serve/frontend.h"
#include "space/schema_change.h"
#include "synch/synchronizer.h"

namespace eve {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  int64_t rows;       ///< Rows per dimension replica and per fact.
  bool snowflake;     ///< Second-level replica chains (deeper PC closure).
  int mirrors;        ///< Partial-coverage subset mirrors per family.
  int sweep_every;    ///< Monitor sweep after every k-th event.
  int read_every;     ///< Blocking reads after every k-th event ...
  int reads;          ///< ... this many of them.
  int warmup_events;  ///< Untimed stream prefix, counted in setup_s.
  int timed_events;   ///< Timed events per round.
};

constexpr Workload kWorkloads[] = {
    {"evolve", 10000, true, 2, 1, 16, 1, 200, 2000},
    {"maintain", 40000, false, 0, 16, 32, 1, 200, 2000},
    {"serve", 10000, false, 0, 16, 1, 2, 100, 1000},
};

// Fixed run conditions shared by every workload.
constexpr int kFamilies = 6;
constexpr int kReplicas = 8;
constexpr int kViews = 32;
constexpr int kSweepHops = 4;
constexpr int kSynchronizeThreads = 1;
constexpr int kServeWorkers = 1;
/// Independent scenario worlds per run (round r replays world r % kWorlds),
/// so one run averages over many streams instead of one.
constexpr int kWorlds = 12;
/// Every k-th timed read is re-evaluated by the reference executor.
constexpr int kVerifyEvery = 64;
constexpr double kZipfExponent = 1.5;

ScenarioOptions ScenarioFor(const Workload& w, uint64_t seed) {
  ScenarioOptions o;
  o.seed = seed;
  o.families = kFamilies;
  o.replicas_per_family = kReplicas;
  o.views = kViews;
  o.dimension_rows = w.rows;
  o.fact_rows = w.rows;
  o.snowflake = w.snowflake;
  o.partial_mirrors = w.mirrors;
  return o;
}

EveOptions EveOptionsFor() {
  EveOptions o;
  o.materialize = true;
  o.synchronize_threads = kSynchronizeThreads;
  return o;
}

// --- Statistics --------------------------------------------------------------

/// Nearest-rank quantile of `values` (0 when empty).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

void Fold(uint64_t* hash, std::string_view bytes) {
  for (const char c : bytes) {
    *hash ^= static_cast<unsigned char>(c);
    *hash *= 1099511628211ULL;
  }
  *hash ^= 0xff;  // Separator, so ("ab","c") and ("a","bc") differ.
  *hash *= 1099511628211ULL;
}

void Fold(uint64_t* hash, int64_t value) {
  Fold(hash, std::string_view(reinterpret_cast<const char*>(&value),
                              sizeof(value)));
}

// --- Round transport ---------------------------------------------------------

/// Byte buffer in which a round's child process hands its results back to
/// the parent (see RunIsolatedRound).  Values are copied bytewise: both
/// sides are the same binary.
class Wire {
 public:
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const char* bytes = reinterpret_cast<const char*>(&value);
    bytes_.insert(bytes_.end(), bytes, bytes + sizeof(T));
  }

  template <typename T>
  void PutVector(const T* values, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    Put(n);
    const char* bytes = reinterpret_cast<const char*>(values);
    bytes_.insert(bytes_.end(), bytes, bytes + n * sizeof(T));
  }

  void PutString(const std::string& s) { PutVector(s.data(), s.size()); }

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Appends the next vector to `out`.
  template <typename T>
  bool GetVector(std::vector<T>* out) {
    size_t n = 0;
    if (!Get(&n) || (bytes_.size() - pos_) / sizeof(T) < n) return false;
    out->resize(out->size() + n);
    std::memcpy(out->data() + out->size() - n, bytes_.data() + pos_,
                n * sizeof(T));
    pos_ += n * sizeof(T);
    return true;
  }

  bool GetString(std::string* out) {
    std::vector<char> chars;
    if (!GetVector(&chars)) return false;
    out->assign(chars.begin(), chars.end());
    return true;
  }

  bool WriteTo(int fd) const {
    for (size_t done = 0; done < bytes_.size();) {
      const ssize_t n = write(fd, bytes_.data() + done, bytes_.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads until end of file.
  bool ReadFrom(int fd) {
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = read(fd, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return false;
      if (n == 0) return true;
      bytes_.insert(bytes_.end(), buffer, buffer + n);
    }
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::vector<char> bytes_;
  size_t pos_ = 0;
};

// --- Tracing -----------------------------------------------------------------

/// One timed interval around a call into the library.
struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;  ///< Index of the enclosing span, -1 for a root.
  int64_t op;  ///< Closed-loop operation the span belongs to.
};

/// In-memory span recorder of the traced run; written out once at the end
/// as Chrome trace-event JSON.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Starts a new closed-loop operation; spans begun until the next call
  /// share its id.
  void NextOp() { ++op_; }

  void Begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{name, Now(), 0, parent, op_});
  }

  void End() {
    spans_[static_cast<size_t>(open_.back())].end_us = Now();
    open_.pop_back();
  }

  std::vector<double> Durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_us - s.start_us);
    }
    return out;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"op\":%lld}}%s\n",
                    s.name, s.start_us, s.end_us - s.start_us, i, s.parent,
                    static_cast<long long>(s.op),
                    i + 1 < spans_.size() ? "," : "");
      os << line;
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(os);
  }

  size_t size() const { return spans_.size(); }

  /// Spans recorded from span `from` on, and the operation counter.  Span
  /// names are string literals, valid in every process of one binary.
  void Save(size_t from, Wire* wire) const {
    wire->PutVector(spans_.data() + from, spans_.size() - from);
    wire->Put(op_);
  }

  /// Appends what Save wrote.
  bool Load(Wire* wire) { return wire->GetVector(&spans_) && wire->Get(&op_); }

 private:
  double Now() const { return MicrosBetween(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t op_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Runs `call` inside a span named `name` and returns its result.
template <typename F>
auto Traced(Tracer* tracer, const char* name, F&& call) {
  ScopedSpan span(tracer, name);
  return call();
}

// --- One round ----------------------------------------------------------------

/// Per-call latencies (µs) of the timed windows, across rounds.
struct Samples {
  std::vector<double> schema_change;
  std::vector<double> data_update;
  std::vector<double> relink;
  std::vector<double> monitor;
  std::vector<double> query;
};

/// Counts gathered at the layer boundaries of traced rounds.
struct LayerCounters {
  int64_t schema_changes = 0;
  int64_t data_updates = 0;
  int64_t reads = 0;
  int64_t affected = 0;  ///< Views the VKB lookup returned.
  int64_t decisions = 0;
  int64_t skips = 0;
  int64_t considered = 0;
  int64_t truncated = 0;
  int64_t ranked = 0;
  int64_t messages = 0;
  int64_t tuples_changed = 0;
  int64_t rows_out = 0;
  MkbMemoStats memo;  ///< Deltas over the timed windows.
  PlanCacheStats plan;
  ServingStats serving;
  int64_t extent_rows = 0;  ///< Live materialized rows after the last round.
};

/// The deterministic outcome of one round's timed window: identical for
/// every round of one seed (and every process run with that seed).
struct Outcome {
  double qc_sum = 0;
  int64_t adoptions = 0;
  int64_t views_alive = 0;
  int64_t updates = 0;
  int64_t maint_ios = 0;
  int64_t maint_bytes = 0;
  /// Every ChangeReport, maintenance result and sweep result, in order.
  uint64_t checksum = kFnvOffset;

  bool operator==(const Outcome&) const = default;

  Outcome& operator+=(const Outcome& o) {
    qc_sum += o.qc_sum;
    adoptions += o.adoptions;
    views_alive += o.views_alive;
    updates += o.updates;
    maint_ios += o.maint_ios;
    maint_bytes += o.maint_bytes;
    Fold(&checksum, static_cast<int64_t>(o.checksum));
    return *this;
  }
};

struct RoundResult {
  double peak_rss_mb = 0;  ///< Of the round's own process.
  double setup_s = 0;
  double timed_s = 0;  ///< Wall time of the timed loop, checks excluded.
  double busy_s = 0;   ///< Sum of the timed calls into the library.
  int64_t ops = 0;
  Outcome outcome;
  int64_t checks = 0;
  int64_t failed = 0;
  std::string first_error;
};

/// The closed-loop client of one round: owns the system and front end.
class Client {
 public:
  /// `read_rng` draws the views to read; it outlives the round and keeps
  /// its state across rounds, so later rounds read other views.
  Client(const Workload& workload, uint64_t seed, Random* read_rng)
      : workload_(workload),
        scenario_(ScenarioFor(workload, seed)),
        seed_(seed),
        read_rng_(*read_rng) {
    double total = 0;
    for (int r = 0; r < kViews; ++r) {
      total += 1.0 / std::pow(r + 1.0, kZipfExponent);
      zipf_cdf_.push_back(total);
    }
  }

  ~Client() {
    if (frontend_ != nullptr) frontend_->Shutdown();
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Builds the space, starts the front end and replays the warm-up prefix.
  void Setup() {
    const Clock::time_point start = Clock::now();
    auto system = BuildScenarioSystem(scenario_, EveOptionsFor());
    if (!system.ok()) {
      Fail("build: " + system.status().ToString());
      return;
    }
    system_ = std::move(*system);
    ServingOptions serving;
    serving.workers = kServeWorkers;
    frontend_ = std::make_unique<ServingFrontEnd>(*system_, serving);
    views_ = system_->vkb().ViewNames();
    // Index order (V0, V1, ..., V31) is the Zipf rank order.
    std::sort(views_.begin(), views_.end(),
              [](const std::string& a, const std::string& b) {
                return a.size() != b.size() ? a.size() < b.size() : a < b;
              });
    stream_ = GenerateEventStream(
        scenario_, workload_.warmup_events + workload_.timed_events,
        seed_ + 1);
    for (int i = 0; i < workload_.warmup_events; ++i) Step(i);
    result_.setup_s =
        std::chrono::duration<double>(Clock::now() - start).count();
  }

  /// Replays the timed part of the stream.  With a tracer, every call is
  /// wrapped in spans and the schema-change pipeline is shadowed.
  void RunTimed(Samples* samples, Tracer* tracer, LayerCounters* layers) {
    if (system_ == nullptr) return;
    samples_ = samples;
    tracer_ = tracer;
    layers_ = layers;
    const MkbMemoStats memo0 = system_->mkb().memo_stats();
    const PlanCacheStats plan0 = frontend_->plan_cache().stats();
    const ServingStats serving0 = frontend_->stats();
    excluded_us_ = 0;
    const Clock::time_point start = Clock::now();
    for (int i = workload_.warmup_events; i < static_cast<int>(stream_.size());
         ++i) {
      Step(i);
    }
    result_.timed_s =
        std::chrono::duration<double>(Clock::now() - start).count() -
        excluded_us_ / 1e6;
    for (const std::string& name : views_) {
      auto entry = system_->GetViewEntry(name);
      if (entry.ok() && (*entry)->state == ViewState::kAlive) {
        ++result_.outcome.views_alive;
      }
    }
    if (layers_ != nullptr) {
      const MkbMemoStats memo1 = system_->mkb().memo_stats();
      layers_->memo.closure_hits += memo1.closure_hits - memo0.closure_hits;
      layers_->memo.closure_misses +=
          memo1.closure_misses - memo0.closure_misses;
      layers_->memo.memo_survivals +=
          memo1.memo_survivals - memo0.memo_survivals;
      layers_->memo.selective_drops +=
          memo1.selective_drops - memo0.selective_drops;
      const PlanCacheStats plan1 = frontend_->plan_cache().stats();
      layers_->plan.hits += plan1.hits - plan0.hits;
      layers_->plan.misses += plan1.misses - plan0.misses;
      layers_->plan.snapshot_hits += plan1.snapshot_hits - plan0.snapshot_hits;
      layers_->plan.epoch_replans += plan1.epoch_replans - plan0.epoch_replans;
      const ServingStats serving1 = frontend_->stats();
      layers_->serving.shed += serving1.shed - serving0.shed;
      layers_->serving.retries += serving1.retries - serving0.retries;
      layers_->serving.watchdog_kills +=
          serving1.watchdog_kills - serving0.watchdog_kills;
    }
    samples_ = nullptr;
    tracer_ = nullptr;
  }

  /// Outside any timed window: every live materialized extent must equal a
  /// from-scratch evaluation of its (evolved) definition on the final space.
  void CheckExtents() {
    if (system_ == nullptr) return;
    int64_t rows = 0;
    for (const std::string& name : views_) {
      auto entry = system_->GetViewEntry(name);
      if (!entry.ok() || (*entry)->state != ViewState::kAlive ||
          !(*entry)->materialized) {
        continue;
      }
      ++result_.checks;
      rows += (*entry)->extent.cardinality();
      auto extent = system_->GetViewExtent(name);
      auto fresh = ExecuteViewReference((*entry)->definition, system_->space());
      if (!extent.ok() || !fresh.ok() || !SetEquals(*extent, *fresh)) {
        Fail("extent of " + name + " differs from a from-scratch evaluation");
      }
    }
    if (layers_ != nullptr) layers_->extent_rows = rows;
  }

  const RoundResult& result() const { return result_; }

 private:
  bool Timed() const { return samples_ != nullptr; }

  void Fail(const std::string& what) {
    ++result_.failed;
    if (result_.first_error.empty()) result_.first_error = what;
  }

  /// Records one timed library call.
  void Record(std::vector<double> Samples::*series, double micros) {
    if (!Timed()) return;
    (samples_->*series).push_back(micros);
    result_.busy_s += micros / 1e6;
    ++result_.ops;
  }

  /// Runs one timed library call inside a span named `span`.
  template <typename F>
  auto Call(std::vector<double> Samples::*series, const char* span, F&& call) {
    ScopedSpan scoped(tracer_, span);
    const Clock::time_point start = Clock::now();
    auto result = call();
    Record(series, MicrosBetween(start, Clock::now()));
    return result;
  }

  /// Excludes benchmark bookkeeping from the timed window.
  class Excluded {
   public:
    explicit Excluded(Client* client)
        : client_(client), start_(Clock::now()) {}
    ~Excluded() { client_->excluded_us_ += MicrosBetween(start_, Clock::now()); }
    Excluded(const Excluded&) = delete;
    Excluded& operator=(const Excluded&) = delete;

   private:
    Client* client_;
    Clock::time_point start_;
  };

  void Step(int index) {
    const ScenarioEvent& event = stream_[static_cast<size_t>(index)];
    if (tracer_ != nullptr) tracer_->NextOp();
    if (const auto* change = std::get_if<SchemaChange>(&event.op)) {
      ApplySchemaChange(*change);
    } else if (const auto* update = std::get_if<DataUpdate>(&event.op)) {
      ApplyDataUpdate(*update);
    } else {
      ApplyRelink(std::get<PcConstraint>(event.op));
    }
    if (index % workload_.sweep_every == 0) Sweep();
    if (index % workload_.read_every == 0) {
      for (int r = 0; r < workload_.reads; ++r) Read();
    }
  }

  void ApplySchemaChange(const SchemaChange& change) {
    ScopedSpan op(tracer_, "op.schema_change");
    if (tracer_ != nullptr) ShadowSchemaChange(change);
    const Result<ChangeReport> report =
        Call(&Samples::schema_change, "eve.schema_change",
             [&] { return system_->NotifySchemaChange(change); });
    Publish();
    const Excluded excluded(this);
    if (!report.ok()) {
      Fail(SchemaChangeToString(change) + ": " + report.status().ToString());
      return;
    }
    Fold(&result_.outcome.checksum, report->ToString());
    if (!Timed()) return;
    for (const ViewSynchronizationReport& view : report->views) {
      if (view.affected && view.resulting_state == ViewState::kAlive &&
          !view.ranking.empty()) {
        result_.outcome.qc_sum += view.ranking.front().qc;
        ++result_.outcome.adoptions;
      }
    }
  }

  /// Steps 1-3 of NotifySchemaChange against the pre-change MKB, through
  /// public functions only; the results are discarded.
  void ShadowSchemaChange(const SchemaChange& change) {
    const EveOptions& options = system_->options();
    const std::vector<std::string> affected =
        Traced(tracer_, "vkb.lookup", [&] {
          return system_->vkb().ViewsReferencing(
              ChangedRelation(change), *system_->space().RelationSiteMap());
        });
    ++layers_->schema_changes;
    layers_->affected += static_cast<int64_t>(affected.size());
    const PolicyEngine policy(system_->mkb(), options.policy,
                              options.synchronizer);
    const QcModel model(options.qc, options.cost, options.workload);
    for (const std::string& name : affected) {
      auto entry = system_->GetViewEntry(name);
      if (!entry.ok()) continue;
      const ViewDefinition& view = (*entry)->definition;
      const PolicyDecision decision = Traced(
          tracer_, "policy.decide", [&] { return policy.Decide(view, change); });
      ++layers_->decisions;
      if (decision.action == PolicyAction::kSkipUnaffected ||
          decision.action == PolicyAction::kSkipDead) {
        ++layers_->skips;
        continue;
      }
      const ViewSynchronizer synchronizer(
          system_->mkb(), decision.action == PolicyAction::kCap
                              ? decision.options
                              : options.synchronizer);
      Result<CandidateSynchronizationResult> sync =
          Traced(tracer_, "synch.enumerate", [&] {
            return synchronizer.SynchronizeCandidates(view, change);
          });
      if (!sync.ok()) continue;
      layers_->considered += sync->candidates_considered;
      layers_->truncated += sync->truncated ? 1 : 0;
      if (!sync->affected || sync->candidates.empty()) continue;
      const auto ranking = Traced(tracer_, "qc.rank", [&] {
        return model.RankCandidates(view, std::move(sync->candidates),
                                    system_->mkb());
      });
      if (ranking.ok()) {
        layers_->ranked += static_cast<int64_t>(ranking->size());
      }
    }
  }

  void ApplyDataUpdate(const DataUpdate& update) {
    ScopedSpan op(tracer_, "op.data_update");
    const Result<MaintenanceCounters> counters =
        Call(&Samples::data_update, "eve.data_update",
             [&] { return system_->NotifyDataUpdate(update); });
    Publish();
    const Excluded excluded(this);
    if (!counters.ok()) {
      Fail(update.ToString() + ": " + counters.status().ToString());
      return;
    }
    Fold(&result_.outcome.checksum, counters->ToString());
    if (!Timed()) return;
    ++result_.outcome.updates;
    result_.outcome.maint_ios += counters->ios;
    result_.outcome.maint_bytes += counters->bytes;
    if (layers_ != nullptr) {
      ++layers_->data_updates;
      layers_->messages += counters->messages;
      layers_->tuples_changed += counters->tuples_added + counters->tuples_removed;
    }
  }

  void ApplyRelink(const PcConstraint& pc) {
    ScopedSpan op(tracer_, "op.relink");
    const Status status = Call(&Samples::relink, "eve.relink",
                               [&] { return system_->AddPcConstraint(pc); });
    Publish();
    if (!status.ok()) Fail("relink " + pc.ToString() + ": " + status.ToString());
  }

  /// Traced runs only: one timed republish after each mutation.
  void Publish() {
    if (tracer_ == nullptr) return;
    ScopedSpan span(tracer_, "serve.publish");
    const Status status = system_->RefreshSnapshot();
    if (!status.ok()) Fail("RefreshSnapshot: " + status.ToString());
  }

  /// The monitor: transitive PC replacement edges over every live view's
  /// FROM relations.
  void Sweep() {
    ScopedSpan op(tracer_, "misd.sweep");
    const Clock::time_point start = Clock::now();
    int64_t edges = 0;
    for (const std::string& name : views_) {
      auto entry = system_->GetViewEntry(name);
      if (!entry.ok() || (*entry)->state != ViewState::kAlive) continue;
      for (const FromItem& item : (*entry)->definition.from_items) {
        const Result<RelationId> id =
            item.site.empty()
                ? system_->mkb().ResolveName(item.relation)
                : Result<RelationId>(RelationId{item.site, item.relation});
        if (!id.ok()) continue;
        edges += static_cast<int64_t>(
            system_->mkb().PcEdgesFromTransitive(*id, kSweepHops).size());
      }
    }
    Record(&Samples::monitor, MicrosBetween(start, Clock::now()));
    const Excluded excluded(this);
    Fold(&result_.outcome.checksum, edges);
  }

  /// A seeded-Zipf pick over the views, ranked by view index.  A dead
  /// view's reads go to the next live view of its kind (even indices scan,
  /// odd ones join), so that deaths, which differ from world to world, keep
  /// the share of scans among reads.
  const std::string& PickView() {
    const double u = read_rng_.UniformDouble() * zipf_cdf_.back();
    size_t rank = static_cast<size_t>(
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    rank = std::min(rank, views_.size() - 1);
    for (const size_t kind : {0, 1}) {
      for (size_t k = kind; k < views_.size(); k += 2) {
        const std::string& name = views_[(rank + k) % views_.size()];
        auto entry = system_->GetViewEntry(name);
        if (entry.ok() && (*entry)->state == ViewState::kAlive) return name;
      }
    }
    return views_[rank];
  }

  void Read() {
    ScopedSpan op(tracer_, "op.read");
    const std::string& name = PickView();
    const ServeResult served = Call(&Samples::query, "serve.query",
                                    [&] { return frontend_->QueryView(name); });
    if (!served.status.ok()) {
      Fail("read " + name + ": " + served.status.ToString());
      return;
    }
    if (!Timed()) return;
    ++reads_;
    if (tracer_ != nullptr) ShadowRead(name);
    if (reads_ % kVerifyEvery == 0) {
      const Excluded excluded(this);
      VerifyRead(name, served);
    }
  }

  /// Plan and execute the read once more on the pinned snapshot, timing the
  /// planner and the executor separately.
  void ShadowRead(const std::string& name) {
    ++layers_->reads;
    const std::shared_ptr<const SystemSnapshot> snapshot =
        system_->snapshots().Current();
    const Result<ViewDefinition> view = snapshot->View(name);
    if (!view.ok()) return;
    const auto plan = Traced(tracer_, "plan.prepare",
                             [&] { return PrepareView(*view, *snapshot); });
    if (!plan.ok()) return;
    const Result<Relation> rows = Traced(
        tracer_, "algebra.execute", [&] { return ExecutePrepared(**plan); });
    if (rows.ok()) layers_->rows_out += rows->cardinality();
  }

  /// The served rows must equal the reference executor's on the same
  /// pinned epoch (the client is the only writer and is blocked on the
  /// read, so the current epoch is the one the read was served from).
  void VerifyRead(const std::string& name, const ServeResult& served) {
    ++result_.checks;
    const std::shared_ptr<const SystemSnapshot> snapshot =
        system_->snapshots().Current();
    if (snapshot == nullptr || snapshot->epoch() != served.epoch) {
      Fail("read " + name + " was not served from the current epoch");
      return;
    }
    const Result<ViewDefinition> view = snapshot->View(name);
    if (!view.ok()) {
      Fail("read " + name + ": " + view.status().ToString());
      return;
    }
    const Result<Relation> reference = ExecuteViewReference(*view, *snapshot);
    if (!reference.ok() || !SetEquals(served.relation, *reference)) {
      Fail("read " + name + " differs from the reference executor");
    }
  }

  const Workload& workload_;
  const ScenarioOptions scenario_;
  const uint64_t seed_;
  Random& read_rng_;
  std::vector<double> zipf_cdf_;
  std::unique_ptr<EveSystem> system_;
  std::unique_ptr<ServingFrontEnd> frontend_;  ///< Declared after system_.
  std::vector<std::string> views_;
  std::vector<ScenarioEvent> stream_;
  Samples* samples_ = nullptr;
  Tracer* tracer_ = nullptr;
  LayerCounters* layers_ = nullptr;
  double excluded_us_ = 0;
  int64_t reads_ = 0;
  RoundResult result_;
};

/// The scenario seed of `world` in a run with seed `seed`.
uint64_t WorldSeed(uint64_t seed, int world) {
  return seed * kWorlds + static_cast<uint64_t>(world);
}

RoundResult RunRound(const Workload& workload, uint64_t seed, Random* read_rng,
                     Samples* samples, Tracer* tracer, LayerCounters* layers) {
  Client client(workload, seed, read_rng);
  client.Setup();
  client.RunTimed(samples, tracer, layers);
  client.CheckExtents();
  return client.result();
}

void SaveRound(const RoundResult& r, Wire* wire) {
  wire->Put(r.setup_s);
  wire->Put(r.timed_s);
  wire->Put(r.busy_s);
  wire->Put(r.ops);
  wire->Put(r.outcome);
  wire->Put(r.checks);
  wire->Put(r.failed);
  wire->PutString(r.first_error);
}

bool LoadRound(Wire* wire, RoundResult* r) {
  return wire->Get(&r->setup_s) && wire->Get(&r->timed_s) &&
         wire->Get(&r->busy_s) && wire->Get(&r->ops) &&
         wire->Get(&r->outcome) && wire->Get(&r->checks) &&
         wire->Get(&r->failed) && wire->GetString(&r->first_error);
}

/// Runs RunRound in a child process and merges what it recorded into
/// `read_rng`, `samples`, `tracer` and `layers`.  Every round thus starts
/// from the same small heap, and its peak RSS is its own rather than the
/// high-water mark of every round before it.  The caller has no threads.
RoundResult RunIsolatedRound(const Workload& workload, uint64_t seed,
                             Random* read_rng, Samples* samples,
                             Tracer* tracer, LayerCounters* layers) {
  RoundResult result;
  const auto fail = [&](const std::string& what) {
    result.failed = 1;
    result.first_error = "round process: " + what;
    return result;
  };
  std::fflush(stdout);  // Else the child holds a copy of unwritten output.
  int fds[2];
  if (pipe(fds) != 0) return fail(std::strerror(errno));
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fail(std::strerror(errno));
  }
  if (pid == 0) {
    close(fds[0]);
    // A killed parent takes the round with it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    Samples own;
    const size_t spans = tracer != nullptr ? tracer->size() : 0;
    const RoundResult round =
        RunRound(workload, seed, read_rng, &own, tracer, layers);
    Wire wire;
    SaveRound(round, &wire);
    wire.Put(*read_rng);
    for (const std::vector<double>* series :
         {&own.schema_change, &own.data_update, &own.relink, &own.monitor,
          &own.query}) {
      wire.PutVector(series->data(), series->size());
    }
    if (tracer != nullptr) {
      tracer->Save(spans, &wire);
      wire.Put(*layers);
    }
    _exit(wire.WriteTo(fds[1]) ? 0 : 1);
  }
  close(fds[1]);
  Wire wire;
  const bool received = wire.ReadFrom(fds[0]);
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return fail(std::strerror(errno));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return fail(WIFSIGNALED(status)
                    ? "killed by signal " + std::to_string(WTERMSIG(status))
                    : "exit code " + std::to_string(WEXITSTATUS(status)));
  }
  bool loaded = received && LoadRound(&wire, &result) && wire.Get(read_rng);
  for (std::vector<double>* series :
       {&samples->schema_change, &samples->data_update, &samples->relink,
        &samples->monitor, &samples->query}) {
    loaded = loaded && wire.GetVector(series);
  }
  if (tracer != nullptr) {
    loaded = loaded && tracer->Load(&wire) && wire.Get(layers);
  }
  if (!loaded || !wire.AtEnd()) return fail("malformed result");
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB.
  return result;
}

// --- Output ------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

std::vector<Metric> EndToEndMetrics(const std::vector<RoundResult>& rounds,
                                    const Outcome& o, const Samples& s,
                                    double ok_frac) {
  std::vector<double> setup, peak_rss;
  double busy = 0;
  int64_t ops = 0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    peak_rss.push_back(r.peak_rss_mb);
    busy += r.busy_s;
    ops += r.ops;
  }
  return {
      {"setup_s", Median(setup), "s"},
      {"ops_per_s", Ratio(static_cast<double>(ops), busy), "1/s"},
      {"schema_change.p50_us", Quantile(s.schema_change, 0.5), "us"},
      {"schema_change.p90_us", Quantile(s.schema_change, 0.9), "us"},
      {"data_update.p50_us", Quantile(s.data_update, 0.5), "us"},
      {"data_update.p80_us", Quantile(s.data_update, 0.8), "us"},
      {"monitor.p50_us", Quantile(s.monitor, 0.5), "us"},
      {"query.p50_us", Quantile(s.query, 0.5), "us"},
      {"query.p90_us", Quantile(s.query, 0.9), "us"},
      {"adopted_qc.mean", Ratio(o.qc_sum, static_cast<double>(o.adoptions)),
       "qc"},
      {"views_alive",
       static_cast<double>(o.views_alive) / static_cast<double>(kWorlds),
       "count"},
      {"maint.ios_per_update",
       Ratio(static_cast<double>(o.maint_ios), static_cast<double>(o.updates)),
       "io/update"},
      {"maint.bytes_per_update",
       Ratio(static_cast<double>(o.maint_bytes),
             static_cast<double>(o.updates)),
       "B/update"},
      {"ops_ok.frac", ok_frac, "frac"},
      {"peak_rss_mb", Median(peak_rss), "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Tracer& t, const LayerCounters& c,
                                    double overhead_frac) {
  const auto p50 = [&](const char* span) { return Median(t.Durations(span)); };
  const auto p99 = [&](const char* span) {
    return Quantile(t.Durations(span), 0.99);
  };
  const auto count = [&](const char* span) {
    return static_cast<double>(t.Durations(span).size());
  };
  const auto per = [](int64_t num, int64_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  return {
      {"vkb.lookup_us", p50("vkb.lookup"), "us"},
      {"vkb.affected_per_change", per(c.affected, c.schema_changes), "views"},
      {"policy.decide_us", p50("policy.decide"), "us"},
      {"policy.skip_frac", per(c.skips, c.decisions), "frac"},
      {"synch.enumerate_us", p50("synch.enumerate"), "us"},
      {"synch.considered_per_change", per(c.considered, c.schema_changes),
       "candidates"},
      {"synch.truncated", static_cast<double>(c.truncated), "count"},
      {"qc.rank_us", p50("qc.rank"), "us"},
      {"qc.ranked_frac", per(c.ranked, c.considered), "frac"},
      {"misd.sweep_us", p50("misd.sweep"), "us"},
      {"misd.closure_hit_frac",
       per(c.memo.closure_hits, c.memo.closure_hits + c.memo.closure_misses),
       "frac"},
      {"misd.memo_survival_frac",
       per(c.memo.memo_survivals,
           c.memo.memo_survivals + c.memo.selective_drops),
       "frac"},
      {"eve.schema_change_us", p50("eve.schema_change"), "us"},
      {"eve.schema_change_p99_us", p99("eve.schema_change"), "us"},
      {"eve.schema_change_n", count("eve.schema_change"), "count"},
      {"eve.data_update_us", p50("eve.data_update"), "us"},
      {"eve.data_update_p99_us", p99("eve.data_update"), "us"},
      {"eve.data_update_n", count("eve.data_update"), "count"},
      {"eve.relink_us", p50("eve.relink"), "us"},
      {"eve.relink_p99_us", p99("eve.relink"), "us"},
      {"eve.relink_n", count("eve.relink"), "count"},
      {"serve.publish_us", p50("serve.publish"), "us"},
      {"serve.query_us", p50("serve.query"), "us"},
      {"serve.shed", static_cast<double>(c.serving.shed), "count"},
      {"serve.retries", static_cast<double>(c.serving.retries), "count"},
      {"serve.watchdog_kills", static_cast<double>(c.serving.watchdog_kills),
       "count"},
      {"plan.snapshot_hit_frac",
       per(c.plan.snapshot_hits, c.plan.hits + c.plan.misses), "frac"},
      {"plan.epoch_replans_per_read", per(c.plan.epoch_replans, c.reads),
       "replans/read"},
      {"plan.prepare_us", p50("plan.prepare"), "us"},
      {"algebra.execute_us", p50("algebra.execute"), "us"},
      {"algebra.rows_out_per_read", per(c.rows_out, c.reads), "rows/read"},
      {"maintenance.messages_per_update", per(c.messages, c.data_updates),
       "msg/update"},
      {"maintenance.tuples_changed_per_update",
       per(c.tuples_changed, c.data_updates), "tuples/update"},
      {"storage.extent_rows", static_cast<double>(c.extent_rows), "rows"},
      {"trace.overhead_frac", overhead_frac, "frac"},
  };
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name, m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// --- main --------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->workload != nullptr && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0 || !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: eve_bench --workload {evolve|maintain|serve} "
                 "--seed N --seconds S --trace {0|1} [--trace-out FILE]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "eve_bench: refusing a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(EVE_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "eve_bench: refusing a %s build (Release only)\n",
                 EVE_BENCH_BUILD_TYPE);
    return 2;
  }
  // Every library-internal parallel section follows EVE_THREADS; pin it so
  // the run never depends on the machine's core count.
  setenv("EVE_THREADS", std::to_string(kSynchronizeThreads).c_str(), 1);
  // One CPU for every thread of the process: the client and the serving
  // worker hand each read back and forth (never both running), so sharing
  // one CPU keeps caches warm and removes cross-CPU wake-ups from the
  // timings.  The CPU is the one the process started on.
  const int cpu = sched_getcpu();
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(cpu, &cpus);
  const bool pinned = cpu >= 0 && sched_setaffinity(0, sizeof(cpus), &cpus) == 0;
  const Workload& w = *args.workload;
  std::printf(
      "env nproc=%u pinned_cpu=%d compiler=\"%s\" build_type=%s "
      "native_kernels=%s "
      "synchronize_threads=%d EVE_THREADS=%s serve_workers=%d "
      "serve_watchdog=1 extent_rows=%lld views=%d reads_per_event=%.4f "
      "sweeps_per_event=%.4f warmup_events=%d timed_events=%d\n",
      std::thread::hardware_concurrency(), pinned ? cpu : -1, __VERSION__, EVE_BENCH_BUILD_TYPE,
      EVE_BENCH_NATIVE_KERNELS, kSynchronizeThreads, std::getenv("EVE_THREADS"),
      kServeWorkers, static_cast<long long>(w.rows), kViews,
      static_cast<double>(w.reads) / w.read_every, 1.0 / w.sweep_every,
      w.warmup_events, w.timed_events);

  // Untraced runs replay world r % kWorlds in round r, until `seconds` of
  // timed loop have run and every world has run, plus one repeat so the
  // determinism check always has a pair.  Traced runs replay each world
  // twice in a row, untraced then traced, for the tracing overhead.  Each
  // round runs in a process of its own (RunIsolatedRound).
  Random read_rng(args.seed ^ 0x5EEDF00DULL);
  Samples samples;
  Tracer tracer;
  LayerCounters layers;
  std::vector<RoundResult> rounds;
  std::vector<int> first_round(kWorlds, -1);
  std::vector<double> overheads;
  Outcome total;
  double measured = 0;
  const auto done = [&] {
    const int n = static_cast<int>(rounds.size());
    return measured >= args.seconds && (args.trace ? n % 2 == 0 : n > kWorlds);
  };
  while (!done()) {
    const int r = static_cast<int>(rounds.size());
    const bool traced = args.trace && r % 2 == 1;
    const int world = (args.trace ? r / 2 : r) % kWorlds;
    rounds.push_back(RunIsolatedRound(w, WorldSeed(args.seed, world),
                                      &read_rng, &samples,
                                      traced ? &tracer : nullptr,
                                      traced ? &layers : nullptr));
    measured += rounds.back().timed_s;
    if (traced) {
      overheads.push_back(rounds[r].timed_s / rounds[r - 1].timed_s - 1.0);
    }
    if (first_round[world] < 0) {
      first_round[world] = r;
      total += rounds.back().outcome;
    }
    if (rounds.back().failed > 0) break;  // The run has failed already.
  }

  int64_t attempted = 0, failed = 0;
  std::string first_error;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& round = rounds[r];
    const int world = static_cast<int>(args.trace ? r / 2 : r) % kWorlds;
    attempted += round.ops + round.checks;
    failed += round.failed;
    if (first_error.empty()) first_error = round.first_error;
    ++attempted;  // The round's determinism check.
    if (!(round.outcome == rounds[first_round[world]].outcome)) {
      ++failed;
      if (first_error.empty()) {
        first_error = "world " + std::to_string(world) +
                      " produced different outcomes in two rounds";
      }
    }
  }
  std::printf(
      "rounds=%zu seed=%llu checksum=%016llx adoptions=%lld updates=%lld "
      "attempted=%lld failed=%lld\n",
      rounds.size(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(total.checksum),
      static_cast<long long>(total.adoptions),
      static_cast<long long>(total.updates), static_cast<long long>(attempted),
      static_cast<long long>(failed));
  if (!first_error.empty()) {
    std::printf("first failure: %s\n", first_error.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(tracer, layers, Median(overheads));
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "eve_bench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  } else {
    metrics = EndToEndMetrics(
        rounds, total, samples,
        1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  }
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace eve

int main(int argc, char** argv) { return eve::Main(argc, argv); }
