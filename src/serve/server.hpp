#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/two_level_model.hpp"
#include "src/ingest/scheduler.hpp"
#include "src/obs/obs.hpp"
#include "src/registry/residency.hpp"
#include "src/serve/prediction_cache.hpp"
#include "src/serve/protocol.hpp"

/// \file server.hpp (serve)
/// The long-lived prediction server behind `hpcpredict_cli serve`: loads a
/// model archive once, then answers `hpcp-serve/1` request lines
/// (protocol.hpp) until EOF or a shutdown command.
///
/// Request flow: lines are read with a hard byte bound (an over-long line
/// is discarded and answered with a typed "too-large" error, never
/// buffered without limit), micro-batched (up to `batch_max`, flushed
/// early whenever the input would block so interactive clients never wait
/// on a timer), each batch resolves cache hits, runs the misses through
/// one batched InterpolationLevel::predict_curves call, fans the per-row
/// level-2 evaluation out over the worker pool, then renders responses
/// serially in request order.
///
/// Failure model (DESIGN.md "Failure model & degraded modes"):
///   - Admission control: at most `max_pending` admitted-but-unanswered
///     predict requests; overflow is shed immediately with a typed
///     "overloaded" error carrying a retry_after_ms hint. Shedding is a
///     pure function of the request stream and options, so it is as
///     replayable as everything else.
///   - Deadlines: with `request_deadline_ms` set, a request still
///     unanswered when its deadline passes is answered with a typed
///     "deadline" error instead of stale data. The clock is injectable
///     (`clock_ms`) so deadline behaviour is testable without wall time.
///   - Degraded cache-only mode: entered when reloads keep failing
///     (`degraded_reload_streak` consecutive failures) or admission stays
///     saturated (`degraded_shed_streak` consecutive sheds). While
///     degraded, cache hits are served normally and misses get a typed
///     "degraded" error; a successful reload or relieved queue exits the
///     mode. {"cmd":"health"} reports the current mode and counters.
///   - Reload retry: a failed reload (SIGHUP or {"cmd":"reload"}) is
///     retried with capped exponential backoff
///     (`reload_backoff_initial_ms` doubling up to
///     `reload_backoff_max_ms`) instead of being dropped; the old model
///     keeps serving throughout.
///
/// Determinism contract: the *non-degraded* response byte stream is
/// identical for any worker count and any cache configuration — per-row
/// predictions are independent of batch composition, cached values are the
/// exact doubles the batched path produced, rendering is canonical
/// (jsonlite writers), and all merges/inserts happen serially in request
/// order. Degraded responses (overloaded / degraded / deadline /
/// too-large) depend on the resilience options and injected clock by
/// design and are exempt.
///
/// Hot reload: SIGHUP (via reload_flag()) or {"cmd":"reload"} swaps in a
/// freshly loaded snapshot atomically — in-flight batches finish on the
/// old shared_ptr snapshot, so no request ever sees a torn model — bumps
/// the advertised model_version, and clears the prediction cache. A failed
/// reload (missing/corrupt/torn archive) reports a typed error, leaves the
/// old model serving, and schedules a backoff retry.
///
/// Registry mode (attach_registry): instead of one fixed model the server
/// fronts a registry::ModelPool — a predict request's optional "model"
/// field names the tenant to serve from (absent = "default"), resolved
/// per request against the LRU of resident models. Batches still share
/// micro-batch windows across tenants; the compute step groups rows by
/// resolved model, one batched level-1 call per distinct model, and every
/// cache insert stays serial in request order, so the response stream is
/// byte-identical to serving each tenant from its own single-model server.
/// A tenant whose archive fails to load degrades only that tenant (typed
/// error; pool keeps any old resident epoch serving); {"cmd":"reload",
/// "tenant":T} swaps one tenant, a tenant-less reload (or SIGHUP)
/// rescans the store and reloads every resident tenant. health/stats gain
/// a "registry" block with per-tenant counters.

namespace hpcp::serve {

struct ServeOptions {
  /// Worker threads for the batched level-2 fan-out: 0 = the process-global
  /// pool; N >= 1 builds a dedicated pool of that size (workers register
  /// as `serve-worker-<i>` in traces).
  std::size_t threads = 0;
  /// Micro-batch bound: at most this many request lines (admitted or
  /// already rendered) are grouped before a flush.
  std::size_t batch_max = 32;
  /// Prediction-cache capacity in entries ((params, scale) pairs);
  /// 0 disables caching.
  std::size_t cache_entries = 4096;
  std::size_t cache_shards = 8;

  /// Hard bound on one request line; longer lines are discarded and
  /// answered with a typed "too-large" error (default 1 MiB).
  std::size_t max_line_bytes = 1 << 20;
  /// Admission bound: max admitted-but-unanswered predict requests. A
  /// request arriving above the bound is shed with "overloaded". The
  /// effective in-flight bound is min(batch_max, max_pending) because a
  /// flush drains the queue; the default never sheds in normal operation.
  std::size_t max_pending = 256;
  /// Retry-After hint attached to overloaded/degraded responses.
  std::uint64_t retry_after_ms = 50;
  /// Per-request deadline in milliseconds; 0 disables (default). Checked
  /// at flush time against the injectable clock.
  std::uint64_t request_deadline_ms = 0;
  /// Consecutive reload failures that flip the server into degraded
  /// cache-only mode.
  std::size_t degraded_reload_streak = 3;
  /// Consecutive shed admissions that flip the server into degraded
  /// cache-only mode (relieved as soon as an admission succeeds).
  std::size_t degraded_shed_streak = 1024;
  /// Backoff schedule for automatic reload retries after a failure:
  /// initial, then doubling, capped.
  std::uint64_t reload_backoff_initial_ms = 1000;
  std::uint64_t reload_backoff_max_ms = 30000;
  /// Registry mode (attach_registry): resident-model LRU caps forwarded
  /// to the ModelPool — count cap and byte budget (0 = unlimited bytes).
  std::size_t max_resident_models = 4;
  std::uint64_t max_resident_bytes = 0;
  /// Continuous-learning triggers, forwarded to the IngestScheduler
  /// (registry mode only). `retrain_records` run records since the last
  /// attempt fire a background retrain; `retrain_interval_ms` retrains any
  /// tenant with new data on a wall-clock cadence. Both default off —
  /// {"cmd":"retrain"} always works regardless.
  std::size_t retrain_records = 0;
  std::uint64_t retrain_interval_ms = 0;
  /// Monotonic millisecond clock; unset = std::chrono::steady_clock. The
  /// chaos harness injects a deterministic skipping clock here.
  std::function<std::uint64_t()> clock_ms = {};
};

/// Process-wide asynchronous reload request, safe to set from a SIGHUP
/// handler (lock-free atomic store only). Server::run polls and clears it
/// between batches and reloads from the current model's source path.
[[nodiscard]] std::atomic<bool>& reload_flag() noexcept;

class Server {
 public:
  explicit Server(ServeOptions opts = {});

  /// Loads (or hot-reloads) the model from the `.hpcp` archive at `path`.
  /// On success the new snapshot is installed, model_version is bumped,
  /// and the cache is cleared; on failure (Io / BadData, including any
  /// file that is not an archive) the previous model keeps serving.
  [[nodiscard]] Expected<void> load_model_file(const std::string& path);

  /// Installs an in-process model (tests, benches). `source_path` is what
  /// a later {"cmd":"reload"} without an explicit path will re-read.
  void set_model(TwoLevelModel model, std::string source_path);

  /// Switches the server to registry mode: opens (or creates) the model
  /// store at `root` and builds the resident-model pool under the
  /// max_resident_models / max_resident_bytes options. Mutually exclusive
  /// with the single-model snapshot in practice (the CLI enforces
  /// --model XOR --registry); loading is lazy, so attaching an empty
  /// store succeeds and requests fail per-tenant until models appear.
  [[nodiscard]] Expected<void> attach_registry(const std::string& root);

  /// True once attach_registry succeeded.
  [[nodiscard]] bool registry_mode() const noexcept {
    return model_pool_ != nullptr;
  }
  /// The resident-model pool (nullptr outside registry mode).
  [[nodiscard]] registry::ModelPool* model_pool() noexcept {
    return model_pool_.get();
  }
  /// The continuous-learning scheduler (nullptr outside registry mode).
  /// Serving-thread confined, like the pool it feeds.
  [[nodiscard]] ingest::IngestScheduler* ingest_scheduler() noexcept {
    return ingest_.get();
  }

  /// 0 until the first successful load; bumped by every successful reload.
  [[nodiscard]] std::uint64_t model_version() const;

  /// Serves request lines from `in` until EOF, a dead output stream (the
  /// client vanished), or {"cmd":"shutdown"}; responses go to `out`, one
  /// line per request, in request order. Returns true iff a shutdown
  /// command ended the loop.
  bool run(std::istream& in, std::ostream& out);

  /// Processes exactly one request line (a batch of one) and returns its
  /// response line — byte-identical to what run() would emit. Test/bench
  /// entry point; shutdown is acknowledged but only run() loops can stop.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// One transport line submitted to handle_batch. `too_long` marks a line
  /// the transport already discarded for exceeding max_line_bytes; its
  /// text is ignored and a typed "too-large" error is rendered, exactly as
  /// run() does for an over-long stdio line.
  struct BatchLine {
    std::string text;
    bool too_long = false;
  };

  /// Result of handle_batch. responses[i] answers lines[i]; an empty
  /// string means "no response" (a blank line). `consumed` counts lines
  /// actually processed — it falls short of the input only when a
  /// shutdown command stopped the window, in which case `shutdown` is
  /// true and the later lines were never looked at.
  struct BatchOutcome {
    std::vector<std::string> responses;
    /// Lifecycle trace id per window slot (0 = the slot carried no
    /// admitted predict request). A transport that knows when a response
    /// actually left the process reports it via note_write_drained().
    std::vector<std::uint64_t> request_ids;
    std::size_t consumed = 0;
    bool shutdown = false;
  };

  /// Serves one window of request lines gathered by a concurrent
  /// transport: the epoll front-end drains every ready connection into a
  /// single call, so requests from different connections share micro-
  /// batches (chunked at batch_max) and one batched predict_curves call
  /// serves the whole flush window. Admission, control handling, and
  /// response bytes are identical to feeding the same lines through
  /// run() — position in the window is the only thing that matters, so
  /// per-connection response order and byte-identity are preserved no
  /// matter how many connections contributed.
  [[nodiscard]] BatchOutcome handle_batch(std::span<const BatchLine> lines);

  [[nodiscard]] const ServeOptions& options() const noexcept {
    return opts_;
  }
  [[nodiscard]] const PredictionCache& cache() const noexcept {
    return cache_;
  }
  /// Total predict requests answered (cached or computed) since start.
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_;
  }

  /// Currently in degraded cache-only mode (reload failures or admission
  /// saturation)?
  [[nodiscard]] bool degraded() const noexcept;
  /// Consecutive failed reloads since the last success.
  [[nodiscard]] std::uint64_t reload_failure_streak() const noexcept {
    return reload_failure_streak_;
  }
  /// Requests shed by admission control since start.
  [[nodiscard]] std::uint64_t sheds() const noexcept { return sheds_; }
  /// Over-long lines rejected since start.
  [[nodiscard]] std::uint64_t too_large_rejects() const noexcept {
    return too_large_;
  }
  /// Requests answered with a "deadline" error since start.
  [[nodiscard]] std::uint64_t deadline_rejects() const noexcept {
    return deadline_expired_;
  }

  // --- Live observability plane (DESIGN.md "Observability") -------------

  /// Slow-log capacity: the slowest-N completed requests are retained.
  static constexpr std::size_t kSlowLogEntries = 16;

  /// Lifecycle timestamps of one admitted predict request, microseconds on
  /// the raw steady clock (diagnostics; deliberately NOT the injectable
  /// clock, so stamping never perturbs deadline or chaos determinism).
  /// write_drained_us stays 0 until a transport reports the bytes gone.
  struct RequestTrace {
    std::uint64_t id = 0;
    std::uint64_t admit_us = 0;
    std::uint64_t dequeue_us = 0;
    std::uint64_t batch_start_us = 0;
    std::uint64_t predict_done_us = 0;
    std::uint64_t render_us = 0;
    std::uint64_t write_drained_us = 0;
    bool cache_hit = false;
    std::string code;  ///< response code; empty until rendered => "ok"

    /// admit -> write-drained when known, admit -> render otherwise.
    [[nodiscard]] std::uint64_t total_us() const noexcept {
      const std::uint64_t end =
          write_drained_us != 0 ? write_drained_us : render_us;
      return end > admit_us ? end - admit_us : 0;
    }
  };

  /// The `hpcp-stats/1` snapshot: uptime, model_version, per-code response
  /// counters, queue depth, batch occupancy, cache hit rate, 1s/10s/60s
  /// windowed aggregates, and the slow log. Served verbatim by the admin
  /// plane's GET /statsz and embedded in the {"cmd":"stats"} response.
  [[nodiscard]] std::string render_stats_json() const;

  /// The {"cmd":"health"} response body without a client id — what the
  /// admin plane's GET /healthz serves. Reading it never touches counters.
  [[nodiscard]] std::string render_health_json() const;

  /// Transport callback: the response for request `request_id` has been
  /// fully written to the peer (or flushed to the output stream). Stamps
  /// write_drained on the matching slow-log entry when it is retained.
  void note_write_drained(std::uint64_t request_id) noexcept;

  /// Slow log, slowest first (ties broken by id). Completed requests only.
  [[nodiscard]] std::vector<RequestTrace> slow_log() const;

  /// Milliseconds since construction on the injectable clock.
  [[nodiscard]] std::uint64_t uptime_ms() const;

 private:
  /// Immutable view of one loaded model; swapped wholesale on reload.
  struct Snapshot {
    TwoLevelModel model;
    std::uint64_t version = 0;
    std::string source_path;
    std::vector<std::size_t> default_scales;
    std::size_t num_features = 0;
  };

  /// One request line waiting in the current micro-batch.
  struct Pending {
    Request req;
    std::string response;  ///< pre-rendered (parse error, shed) when non-empty
    bool admitted = false;  ///< occupies an admission slot
    std::uint64_t arrival_ms = 0;  ///< set when deadlines are enabled
    obs::Stopwatch watch;  ///< started when the line was read
    RequestTrace trace;    ///< id != 0 once admitted; code set when rendered
  };

  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;
  void install(Snapshot snap);

  /// Monotonic milliseconds from opts_.clock_ms or steady_clock.
  [[nodiscard]] std::uint64_t now_ms() const;

  /// Reload `path`, tracking the failure streak and scheduling a capped
  /// exponential backoff retry on failure.
  Expected<void> try_reload(const std::string& path);
  /// SIGHUP flag and due backoff retries; called between batches.
  void poll_reloads();

  /// Parses a line into the batch, or returns the control request (ping /
  /// health / reload / stats / shutdown) that must flush the batch first.
  /// Applies admission control to predict requests.
  [[nodiscard]] std::optional<Request> enqueue(
      const std::string& line, std::vector<Pending>* batch);

  /// Predicts + renders every pending request in order: after resolve()
  /// every Pending carries its final response line. Shared by the stream
  /// loop (flush) and the window entry point (handle_batch).
  void resolve(std::vector<Pending>* batch);

  /// resolve() + emit to `out`, one line per request, then clear.
  void flush(std::vector<Pending>* batch, std::ostream& out);

  /// Ping / health / reload / stats / trace-dump / shutdown responses.
  [[nodiscard]] std::string handle_control(const Request& req);

  /// Health body shared by the control path and GET /healthz; `id_json`
  /// is prepended when non-empty.
  [[nodiscard]] std::string health_json(const std::string& id_json) const;

  /// Renders responses_by_code_ as a JSON object (keys sorted — std::map).
  void append_code_counters(std::string& out) const;

  /// Registry mode only: appends `,"registry":{...}` with pool totals and
  /// sorted per-tenant counters to a health/stats body.
  void append_registry_block(std::string& out) const;

  /// Registry mode only: appends `,"ingest":{...}` with the scheduler's
  /// session totals and sorted per-tenant verdict state.
  void append_ingest_block(std::string& out) const;

  /// Bumps the per-code response counter ("ok" or an error code); every
  /// rendered response line passes through here exactly once.
  void note_response(const std::string& code);

  /// Retains `trace` when it ranks among the slowest kSlowLogEntries.
  void slow_log_insert(const RequestTrace& trace);

  ServeOptions opts_;
  std::unique_ptr<ThreadPool> own_pool_;  ///< when opts_.threads >= 1
  ThreadPool* pool_ = nullptr;            ///< nullptr = global pool
  PredictionCache cache_;
  /// Registry mode: the resident-model LRU (serving-thread confined,
  /// like the resilience state). nullptr = classic single-model server.
  std::unique_ptr<registry::ModelPool> model_pool_;
  /// Registry mode: the continuous-learning loop (append / retrain /
  /// shadow-gated promote). Pumped between batches alongside reloads.
  std::unique_ptr<ingest::IngestScheduler> ingest_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_;

  std::uint64_t requests_served_ = 0;

  // Resilience state (all touched only from the serving thread).
  std::uint64_t reload_failure_streak_ = 0;
  std::uint64_t reload_backoff_ms_ = 0;
  std::uint64_t reload_retry_at_ms_ = 0;
  std::string reload_retry_path_;
  bool reload_retry_pending_ = false;
  std::uint64_t shed_streak_ = 0;
  bool degraded_saturated_ = false;
  std::uint64_t sheds_ = 0;
  std::uint64_t too_large_ = 0;
  std::uint64_t deadline_expired_ = 0;
  std::uint64_t degraded_rejects_ = 0;

  // Observability state (all touched only from the serving thread; the
  // admin plane shares that thread by construction — see tcp.hpp).
  std::uint64_t start_ms_ = 0;          ///< injectable-clock birth stamp
  std::uint64_t next_request_id_ = 0;   ///< monotonically increasing
  std::map<std::string, std::uint64_t> responses_by_code_;
  std::size_t last_queue_depth_ = 0;    ///< admitted entries at last flush
  std::size_t last_batch_lines_ = 0;    ///< batch size at last flush
  std::vector<RequestTrace> slow_log_;  ///< unordered; <= kSlowLogEntries

  // 1s buckets, 64 slots: windows up to 63s, so 1s/10s/60s all answerable.
  obs::RollingCounter roll_requests_{1000, 64};
  obs::RollingCounter roll_sheds_{1000, 64};
  obs::RollingCounter roll_cache_hits_{1000, 64};
  obs::RollingCounter roll_cache_misses_{1000, 64};
  obs::RollingHistogram roll_latency_{obs::default_time_bounds(), 1000, 64};
};

}  // namespace hpcp::serve
