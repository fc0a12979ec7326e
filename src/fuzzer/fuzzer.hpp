// Fuzzer — the engines under evaluation.
//
//   * Strategy::Peach        — the baseline generation-based loop of the
//     paper's Algorithm 1: choose a data model, instantiate it through the
//     per-type mutators, run the target, record crashes. No feedback use.
//   * Strategy::PeachStar    — the paper's contribution (Figure 3): the
//     same loop augmented with (1) coverage-based valuable-seed
//     identification, (2) the File Cracker feeding the puzzle corpus, and
//     (3) semantic-aware generation with File Fixup, including the
//     post-crack combinatorial batch of Algorithm 3.
//   * Strategy::ByteMutation — an AFL-style coverage-guided byte mutator
//     (the paper's related-work foil and its future-work direction of
//     porting the approach to mutation-based fuzzers): seeds are the
//     models' default instances, new-coverage packets join the pool, and
//     generation is stacked byte-level mutation with no format knowledge.
//
// The step loop runs on the executor's in-flight window (depth
// oop::kNumSlots on the fork-server backends, 1 elsewhere). Packets are
// generated ahead on a shadow of the generation inputs — a copy of the rng,
// read cursors into the import and batch queues, the window's own fresh
// dedup hashes — and submitted at once. Each step commits the oldest
// generation's effects in order, then adopts its result and runs the
// feedback code, so the dedup tables, the rng and the queues see exactly
// the sequence of a one-at-a-time loop. Feedback that changes a generation
// input (a crack, ByteMutation pool growth, auto-distill, an import, a
// corpus merge, a restore) bumps a revision; the next step then discards
// the rest of the window unseen and generates again from the committed
// state. A trajectory is therefore bit-identical at every depth.
#pragma once

#include <array>
#include <deque>
#include <functional>

#include "fuzzer/corpus.hpp"
#include "fuzzer/cracker.hpp"
#include "fuzzer/crash_db.hpp"
#include "fuzzer/dedup.hpp"
#include "fuzzer/executor.hpp"
#include "fuzzer/instantiator.hpp"
#include "fuzzer/semantic_gen.hpp"
#include "fuzzer/stats.hpp"
#include "model/data_model.hpp"
#include "session/sequencer.hpp"
#include "exec_oop/exec_protocol.hpp"
#include "telemetry/telemetry.hpp"

namespace icsfuzz::fuzz {

enum class Strategy : std::uint8_t { Peach, PeachStar, ByteMutation };

std::string to_string(Strategy strategy);

struct FuzzerConfig {
  Strategy strategy = Strategy::PeachStar;
  std::uint64_t rng_seed = 1;
  /// Checkpoint interval for the stats series.
  std::uint64_t stats_interval = 500;
  mutation::MutatorConfig mutators;
  SemanticGenConfig semantic;
  CorpusConfig corpus;
  ExecutorConfig executor;
  /// Ablation knob: crack every generated seed instead of only valuable
  /// ones (pollutes the corpus and pays the crack cost per execution; the
  /// default is the paper's coverage-gated design).
  bool crack_all_seeds = false;
  /// Auto-distillation: every `distill_interval` executions the retained
  /// valuable-seed pool is minimized in place with the greedy set-cover
  /// cmin of src/distill/ (replays run through a private executor and draw
  /// no randomness, so enabling this never changes the fuzzing trajectory
  /// — only the retained pool's size). 0 disables.
  std::uint64_t distill_interval = 0;
  /// Executed-packet dedup memory bound (GenerationalDedup capacity): at
  /// least the most recent dedup_capacity/2 distinct packets stay
  /// deduplicated; older generations are released. Campaigns shorter than
  /// dedup_capacity/2 unique packets behave as with unbounded dedup.
  std::size_t dedup_capacity = 1ULL << 21;
  /// Session sequencing (src/session/): when enabled, generation produces
  /// whole session *streams* from session templates instead of single
  /// packets — pair it with ExecutorConfig::backend.session.framing (and
  /// optionally BackendKind::kTcp) so execution splits the stream back
  /// into the same framed message list. Disabled by default: the classic
  /// single-exchange engines are untouched.
  session::SequencerConfig session;
  /// Telemetry sink (src/telemetry/): counters, histograms and journal
  /// events for this fuzzer's hot loop, bound to the process-wide hub by
  /// default — bench_telemetry holds the cost under 2% of the hot path, so
  /// it stays on. Assign a worker-specific sink for parallel campaigns
  /// (each worker must own its registry shard) or a default-constructed
  /// Sink to disable. The sink is write-only from the engine's point of
  /// view: enabling or disabling it never changes a campaign's trajectory.
  telem::Sink telemetry = telem::Sink::global(0);
};

/// One retained valuable seed.
struct RetainedSeed {
  Bytes bytes;
  std::string model_name;
  std::uint64_t execution = 0;
};

/// Complete mid-campaign state of a Fuzzer — everything its trajectory
/// depends on. A fresh Fuzzer constructed with the same target/models/
/// config and restored from this image continues the campaign bit-for-bit
/// as if it had never stopped (gated by tests/test_checkpoint_resume.cpp).
/// Captured only between step_fast() calls (scratch buffers hold no
/// trajectory state at iteration boundaries, and generations still in the
/// in-flight window are not part of it: they were never committed).
struct FuzzerCheckpoint {
  Rng::State rng{};
  /// Both dedup generations, separately — which set is current decides
  /// when the next rotation fires. Each lists its table in slot order
  /// (FlatU64Set::snapshot), so restoring rebuilds the same layout and a
  /// re-capture reproduces the same lists.
  std::vector<std::uint64_t> dedup_current;
  std::vector<std::uint64_t> dedup_previous;
  /// A delta capture (capture_checkpoint(/*delta=*/true), the form a
  /// checkpoint segment stores) leaves both lists empty and copies the
  /// dedup journal instead: the hashes inserted since it was last armed,
  /// in insert order. Restoring takes full captures only.
  bool dedup_delta = false;
  std::vector<std::uint64_t> dedup_journal;
  CorpusSnapshot corpus;
  std::vector<CrashRecord> crashes;  // full records, hits preserved
  std::vector<Checkpoint> stats_points;
  std::vector<RetainedSeed> retained;
  std::vector<Bytes> pending_batch;
  std::vector<Bytes> mutation_pool;
  std::vector<Bytes> imported;
  std::uint64_t total_retained = 0;
  std::uint64_t exported_retained = 0;
  std::uint64_t distill_passes = 0;
  std::uint64_t distill_dropped = 0;
  /// Executor campaign state: execution count, accumulated coverage map
  /// (cov::kMapSize bytes) and the path set (sorted).
  std::uint64_t executions = 0;
  std::vector<std::uint8_t> coverage;
  std::vector<std::uint64_t> path_hashes;
  /// Hashed session states reached (sorted; empty for sessionless
  /// campaigns — the common case costs nothing).
  std::vector<std::uint64_t> session_states;
};

class Fuzzer {
 public:
  /// `target` and `models` must outlive the fuzzer.
  Fuzzer(ProtocolTarget& target, const model::DataModelSet& models,
         FuzzerConfig config = {});

  /// Runs `iterations` executions. `on_exec` (optional) observes every
  /// execution (used by tests and live reporting).
  void run(std::uint64_t iterations,
           const std::function<void(const ExecResult&)>& on_exec = {});

  /// Runs a single fuzzing iteration; returns the execution's result.
  ExecResult step();

  /// Hot-path variant of step(): the returned reference points at internal
  /// scratch reused every iteration (valid until the next step), so the
  /// steady-state loop performs no per-iteration heap allocations for the
  /// packet, response or fault vectors. run() and the parallel workers use
  /// this; step() wraps it with a copy.
  const ExecResult& step_fast();

  // -- Observers. --
  [[nodiscard]] const Executor& executor() const { return executor_; }
  [[nodiscard]] const CrashDb& crashes() const { return crash_db_; }
  [[nodiscard]] const PuzzleCorpus& corpus() const { return corpus_; }
  [[nodiscard]] const StatsSeries& stats() const { return stats_; }
  [[nodiscard]] const std::vector<RetainedSeed>& retained_seeds() const {
    return retained_;
  }
  [[nodiscard]] std::size_t path_count() const {
    return executor_.path_count();
  }
  [[nodiscard]] const FuzzerConfig& config() const { return config_; }
  /// Auto-distill passes run so far (distill_interval > 0 only).
  [[nodiscard]] std::uint64_t distill_passes() const {
    return distill_passes_;
  }
  /// Retained seeds pruned by auto-distillation over the campaign.
  [[nodiscard]] std::uint64_t distill_dropped() const {
    return distill_dropped_;
  }

  /// Finalizes the stats series (records a last checkpoint) and drains the
  /// in-flight window.
  void finish();

  // -- Parallel-campaign hooks (src/parallel/). --
  //
  // These never perturb the fuzzer's own RNG stream: imports queue packets
  // for execution and exports only read. A worker with no peers therefore
  // behaves bit-for-bit like a sequential fuzzer, which is what keeps W=1
  // equal to the sequential engine.

  /// Queues a peer's valuable seed for execution ahead of generation, the
  /// way AFL instances re-execute synced seeds to update their own maps.
  /// Locally repeated packets are skipped by the usual dedup.
  void import_external_seed(Bytes packet);

  /// Seeds queued by import_external_seed and not yet executed.
  [[nodiscard]] std::size_t imported_pending() const {
    return imported_.size();
  }

  /// Returns the valuable seeds retained since the previous call (an
  /// export cursor over the retained pool; eviction-safe). The parallel
  /// worker publishes these to the seed exchange after each sync interval.
  std::vector<RetainedSeed> drain_new_retained();

  /// Mutable corpus access for in-place merges from the seed exchange
  /// (pair with an import-side RNG, never the generation stream). A merge
  /// changes what generation produces, so this stales the in-flight window.
  [[nodiscard]] PuzzleCorpus& mutable_corpus() {
    ++revision_;
    return corpus_;
  }

  // -- Crash-safe checkpoint/resume (src/supervise/). --

  /// Captures the complete trajectory-relevant state — or, when `delta`,
  /// everything but the dedup tables, whose journal it copies instead (the
  /// journal must be valid). Call only between iterations (never from
  /// inside an on_exec observer).
  [[nodiscard]] FuzzerCheckpoint capture_checkpoint(bool delta = false) const;

  /// Starts the dedup journal delta captures read, sized for `capacity`
  /// inserts (one checkpoint chunk); re-arm after every capture. A campaign
  /// that never arms it pays one predictable branch per insert.
  void arm_dedup_journal(std::size_t capacity) {
    executed_.arm_journal(capacity);
  }
  [[nodiscard]] const GenerationalDedup& dedup() const { return executed_; }

  /// Reinstates state captured by capture_checkpoint() on a fuzzer built
  /// with the same target, models and config. Subsequent iterations
  /// reproduce the captured campaign's uninterrupted trajectory
  /// bit-for-bit.
  void restore_checkpoint(const FuzzerCheckpoint& checkpoint);

 private:
  /// One generation in the in-flight window: the packet, and what
  /// committing it does to the generation inputs.
  struct Speculation {
    Bytes packet;
    const model::DataModel* model = nullptr;
    /// The generation rng's state after this packet.
    Rng::State rng_after{};
    /// Queue entries this generation read (accepted or skipped as repeats).
    std::uint32_t imported_taken = 0;
    std::uint32_t batch_taken = 0;
    /// The packet's hash joins the dedup tables on commit, through the
    /// probe seen_before() took (the fallback covers tables the window's
    /// earlier commits filled or grew meanwhile).
    bool fresh = false;
    std::uint64_t fresh_hash = 0;
    GenerationalDedup::Probe probe;
    /// Telemetry clock at submit when this execution's latency is sampled.
    std::uint64_t submit_ns = 0;
  };

  /// CHOOSE(SM): uniformly random model selection.
  const model::DataModel& choose_model(Rng& rng);

  /// Produces the next packet according to the active strategy into
  /// `entry`, drawing from the shadow inputs (gen_rng_ and the queue
  /// cursors) and leaving committed state alone.
  void generate(Speculation& entry);

  /// Returns true when `entry`'s packet ran before in this campaign or is
  /// already in flight; otherwise marks it as the entry's fresh hash.
  bool seen_before(Speculation& entry);

  /// Generates and submits until the window is full. Entry k is generated
  /// only while no dedup rotation can fire before it commits.
  void fill_window();

  /// Applies the head generation's effects to the committed state.
  void commit(const Speculation& head);

  /// Discards every in-flight generation.
  void drain_window();

  [[nodiscard]] Speculation& window_at(std::size_t offset) {
    return window_[(window_head_ + offset) % window_depth_];
  }

  /// Minimizes the retained pool in place (FuzzerConfig::distill_interval).
  void auto_distill();

  ProtocolTarget& target_;
  const model::DataModelSet& models_;
  FuzzerConfig config_;
  Rng rng_;
  /// Hashes of executed packets — rules out the "meaningless repetitions
  /// of path exploration" the paper's corpus design targets (§I). Bounded
  /// by the generational half-clear scheme (dedup.hpp).
  GenerationalDedup executed_;

  Executor executor_;
  /// Semantic-aware generation; its inherent instantiator also serves the
  /// plain Peach generation and the sequencer, so one set of per-model
  /// trees backs every generator of this fuzzer.
  SemanticGenerator semantic_;
  /// Session-stream generation (FuzzerConfig::session.enabled only).
  std::unique_ptr<session::SessionSequencer> sequencer_;
  FileCracker cracker_;
  PuzzleCorpus corpus_;
  CrashDb crash_db_;
  StatsSeries stats_;

  std::vector<RetainedSeed> retained_;
  /// Seeds scheduled by the post-crack combinatorial batch.
  std::deque<Bytes> pending_batch_;
  /// ByteMutation strategy's seed pool (AFL-style queue).
  std::vector<Bytes> mutation_pool_;

  /// Peer seeds queued by import_external_seed (drained before generation).
  std::deque<Bytes> imported_;
  /// The in-flight window: a ring of window_depth_ generations, the oldest
  /// at window_head_. Packet and result capacities converge after warm-up,
  /// making the steady-state loop allocation-free outside rare events (new
  /// coverage, crashes).
  std::array<Speculation, oop::kNumSlots> window_;
  std::size_t window_depth_ = 1;
  std::size_t window_head_ = 0;
  std::size_t window_size_ = 0;
  ExecResult exec_scratch_;
  /// Shadow generation state, just past the window's newest entry.
  Rng gen_rng_;
  std::size_t gen_imported_ = 0;
  std::size_t gen_batch_ = 0;
  /// Bumped whenever feedback changes a generation input; the window was
  /// generated at window_revision_.
  std::uint64_t revision_ = 0;
  std::uint64_t window_revision_ = 0;
  /// Lifetime count of retained seeds and how many have been exported —
  /// the eviction-safe cursor behind drain_new_retained().
  std::uint64_t total_retained_ = 0;
  std::uint64_t exported_retained_ = 0;
  /// Auto-distillation tallies (distill_interval > 0 only).
  std::uint64_t distill_passes_ = 0;
  std::uint64_t distill_dropped_ = 0;
};

}  // namespace icsfuzz::fuzz
