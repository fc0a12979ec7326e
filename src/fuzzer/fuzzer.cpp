#include "fuzzer/fuzzer.hpp"

#include <algorithm>
#include <cstdio>

#include "distill/distill.hpp"

namespace icsfuzz::fuzz {
namespace {

/// Retained valuable seeds cap (oldest evicted first).
constexpr std::size_t kMaxRetainedSeeds = 512;

/// Percentage of steady-state Peach* generations that use the
/// semantic-aware strategy once the corpus is non-empty. The paper employs
/// the semantic strategy "in the following iteration" after a valuable
/// seed (the batch) and keeps the inherent strategy otherwise; a small
/// steady-state share re-applies learned chunks between discoveries
/// without throttling value exploration.
constexpr unsigned kSteadySemanticPct = 25;

/// The executor inherits the fuzzer's telemetry sink so executor-level
/// observables (OOP restarts, kill reasons) land in the same shard. The
/// copy stays out of config_.executor, which is what auto_distill and the
/// final-distill paths hand to their private replay executors — those must
/// stay quiet or distillation would double-count campaign metrics.
ExecutorConfig executor_config_with_telemetry(const FuzzerConfig& config) {
  ExecutorConfig out = config.executor;
  out.telemetry = config.telemetry;
  return out;
}

/// Allocation-free twin of san::to_string for journal details (the event
/// path must not allocate even on the rare unique-crash transitions, so
/// the bench's zero-allocation delta holds exactly).
const char* fault_kind_name(san::FaultKind kind) {
  switch (kind) {
    case san::FaultKind::Segv: return "SEGV";
    case san::FaultKind::HeapBufferOverflow: return "heap-buffer-overflow";
    case san::FaultKind::HeapUseAfterFree: return "heap-use-after-free";
    case san::FaultKind::Hang: return "hang";
  }
  return "?";
}

}  // namespace

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::Peach: return "Peach";
    case Strategy::PeachStar: return "Peach*";
    case Strategy::ByteMutation: return "ByteMutation";
  }
  return "?";
}

Fuzzer::Fuzzer(ProtocolTarget& target, const model::DataModelSet& models,
               FuzzerConfig config)
    : target_(target),
      models_(models),
      config_(config),
      rng_(config.rng_seed),
      executed_(config.dedup_capacity),
      executor_(executor_config_with_telemetry(config)),
      semantic_(config.semantic, config.mutators),
      corpus_(config.corpus),
      stats_(config.stats_interval) {
  window_depth_ = std::min(executor_.window_depth(), window_.size());
  if (config_.session.enabled && !models.empty()) {
    sequencer_ = std::make_unique<session::SessionSequencer>(
        config_.session, models_, semantic_.instantiator());
  }
}

const model::DataModel& Fuzzer::choose_model(Rng& rng) {
  return models_.models()[rng.index(models_.size())];
}

bool Fuzzer::seen_before(Speculation& entry) {
  const std::uint64_t hash = fnv1a64(entry.packet);
  // Memory stays bounded via generational half-clears: at least the most
  // recent dedup_capacity/2 packets remain deduplicated at all times. The
  // probe's stopping slot is kept so commit() can store there directly.
  if (executed_.contains(hash, entry.probe)) return true;
  // The window's earlier generations commit first, so their fresh hashes
  // count as executed.
  for (std::size_t k = 0; k < window_size_; ++k) {
    const Speculation& earlier = window_at(k);
    if (earlier.fresh && earlier.fresh_hash == hash) return true;
  }
  entry.fresh = true;
  entry.fresh_hash = hash;
  return false;
}

void Fuzzer::generate(Speculation& entry) {
  entry.model = nullptr;
  entry.imported_taken = 0;
  entry.batch_taken = 0;
  entry.fresh = false;
  Bytes& out = entry.packet;
  Rng& rng = gen_rng_;
  // A few regeneration attempts skip packets already executed — the
  // "meaningless repetitions" the paper's design sets out to rule out.
  constexpr int kDedupAttempts = 4;
  // Peer seeds synced from the exchange run first (for every strategy):
  // executing them locally is what transfers the peer's coverage discovery
  // into this worker's map, corpus and pools.
  while (gen_imported_ < imported_.size()) {
    const Bytes& seed = imported_[gen_imported_++];
    ++entry.imported_taken;
    out.assign(seed.begin(), seed.end());
    if (!seen_before(entry)) return;
  }
  // Cracked-batch seeds run next under PeachStar, in session mode too.
  const auto next_batch_seed = [&] {
    while (config_.strategy == Strategy::PeachStar &&
           gen_batch_ < pending_batch_.size()) {
      const Bytes& seed = pending_batch_[gen_batch_++];
      ++entry.batch_taken;
      out.assign(seed.begin(), seed.end());
      if (!seen_before(entry)) return true;
    }
    return false;
  };
  if (sequencer_ != nullptr) {
    // Session mode replaces per-packet generation for every strategy: a
    // "packet" is a whole session stream from the sequencer, or a mutation
    // of a retained valuable session (the session-level analogue of the
    // seed-reuse loop). Cracked-batch seeds still run first under
    // PeachStar — they are session streams too, retained ones re-cracked.
    if (next_batch_seed()) return;
    for (int attempt = 0;; ++attempt) {
      if (!retained_.empty() && rng.chance(30, 100)) {
        const RetainedSeed& seed = rng.pick(retained_);
        sequencer_->mutate_stream_into(ByteSpan(seed.bytes), rng, out);
      } else {
        sequencer_->generate_into(rng, out);
      }
      if (attempt >= kDedupAttempts || !seen_before(entry)) return;
    }
  }
  if (config_.strategy == Strategy::PeachStar) {
    // Drain the combinatorial batch scheduled by the last crack first.
    if (next_batch_seed()) return;
    for (int attempt = 0;; ++attempt) {
      const model::DataModel& model = choose_model(rng);
      entry.model = &model;
      const bool semantic =
          !corpus_.empty() && rng.chance(kSteadySemanticPct, 100);
      if (semantic) {
        semantic_.generate_into(model, corpus_, rng, out);
      } else {
        semantic_.instantiator().generate_into(model, rng, out);
      }
      if (attempt >= kDedupAttempts || !seen_before(entry)) return;
    }
  }
  if (config_.strategy == Strategy::ByteMutation) {
    // AFL-style: pick a pool seed and stack 1..8 byte-level mutations.
    if (mutation_pool_.empty()) {
      for (const model::DataModel& model : models_.models()) {
        mutation_pool_.push_back(model::default_instance(model).serialize());
      }
    }
    for (int attempt = 0;; ++attempt) {
      const Bytes& seed = rng.pick(mutation_pool_);
      out.assign(seed.begin(), seed.end());
      const std::uint64_t stack = rng.between(1, 8);
      for (std::uint64_t i = 0; i < stack; ++i) {
        semantic_.instantiator().mutators().mutate_in_place(out, rng);
      }
      if (attempt >= kDedupAttempts || !seen_before(entry)) return;
    }
  }
  // Baseline Peach: inherent generation only.
  for (int attempt = 0;; ++attempt) {
    const model::DataModel& model = choose_model(rng);
    entry.model = &model;
    semantic_.instantiator().generate_into(model, rng, out);
    if (attempt >= kDedupAttempts || !seen_before(entry)) return;
  }
}

void Fuzzer::fill_window() {
  const telem::Sink& telemetry = config_.telemetry;
  // Entry k is generated only while committing the k entries ahead of it
  // cannot rotate the dedup generations: a rotation would drop hashes its
  // dedup check still counted as executed.
  const std::size_t rotation_at = executed_.capacity() / 2;
  while (window_size_ < window_depth_ &&
         (window_size_ == 0 ||
          executed_.current_generation().size() + window_size_ <
              rotation_at)) {
    if (window_size_ == 0) {
      gen_rng_.set_state(rng_.state());
      gen_imported_ = 0;
      gen_batch_ = 0;
    }
    Speculation& entry = window_at(window_size_);
    generate(entry);
    entry.rng_after = gen_rng_.state();
    // Latency is sampled once per 64 executions, decided on the execution
    // index this entry commits as — deterministic across repeats — so the
    // ~40ns clock-read pair amortizes to well under a nanosecond of
    // per-execution cost.
    entry.submit_ns =
        telemetry.enabled() &&
                telem::latency_sampled(executor_.executions() + window_size_)
            ? telemetry.now_ns()
            : 0;
    executor_.submit(target_, ByteSpan(entry.packet));
    ++window_size_;
  }
}

void Fuzzer::commit(const Speculation& head) {
  rng_.set_state(head.rng_after);
  for (std::uint32_t i = 0; i < head.imported_taken; ++i) {
    imported_.pop_front();
  }
  for (std::uint32_t i = 0; i < head.batch_taken; ++i) {
    pending_batch_.pop_front();
  }
  gen_imported_ -= head.imported_taken;
  gen_batch_ -= head.batch_taken;
  if (head.fresh) executed_.insert(head.fresh_hash, head.probe);
  window_head_ = (window_head_ + 1) % window_depth_;
  --window_size_;
}

void Fuzzer::drain_window() {
  for (; window_size_ > 0; --window_size_) {
    executor_.discard();
    window_head_ = (window_head_ + 1) % window_depth_;
  }
}

ExecResult Fuzzer::step() { return step_fast(); }

const ExecResult& Fuzzer::step_fast() {
  const telem::Sink& telemetry = config_.telemetry;
  if (window_revision_ != revision_) {
    drain_window();
    window_revision_ = revision_;
  }
  fill_window();
  // commit() retires the head from the ring; its entry stays intact until
  // the next step refills it.
  const Speculation& head = window_at(0);
  commit(head);
  const Bytes& packet = head.packet;
  const model::DataModel* used_model = head.model;
  const bool sample_latency =
      telemetry.enabled() && telem::latency_sampled(executor_.executions());
  executor_.complete_into(exec_scratch_);
  ExecResult& result = exec_scratch_;

  if (telemetry.enabled()) {
    if (sample_latency) {
      telemetry.observe(telem::Histogram::kExecLatencyNs,
                        telemetry.now_ns() - head.submit_ns);
    }
    telemetry.add(telem::Counter::kExecutions);
    telemetry.observe(telem::Histogram::kPacketBytes, packet.size());
    // The dirty list survives finalize_execution until the next run, so
    // this reads the trace's dirty-word count without an extra sweep.
    telemetry.observe(telem::Histogram::kTraceDirtyWords,
                      executor_.coverage().dirty_word_count());
    if (result.new_path) telemetry.add(telem::Counter::kNewPaths);
    if (result.new_coverage) {
      telemetry.add(telem::Counter::kNewCoverageSeeds);
    }
    // Gauges move only on discoveries, so writing them here (not per
    // execution) keeps the steady-state cost at the branch alone.
    if (result.new_path || result.new_coverage) {
      telemetry.set(telem::Gauge::kPathsCovered, executor_.path_count());
      telemetry.set(telem::Gauge::kEdgesCovered, executor_.edge_count());
    }
  }

  for (const san::FaultReport& fault : result.faults) {
    const bool fresh = crash_db_.record(fault, packet, executor_.executions(),
                                        result.trace_hash);
    if (telemetry.enabled()) {
      const bool hang = fault.kind == san::FaultKind::Hang;
      telemetry.add(hang ? telem::Counter::kHangFaults
                         : telem::Counter::kCrashFaults);
      if (fresh) {
        telemetry.add(telem::Counter::kUniqueCrashes);
        char detail[48];
        std::snprintf(detail, sizeof detail, "%s site=%08x",
                      fault_kind_name(fault.kind), fault.site);
        telemetry.event(hang ? telem::EventType::kHang
                             : telem::EventType::kCrash,
                        content_hash(packet), detail);
      }
    }
  }

  if (config_.strategy == Strategy::ByteMutation && result.new_coverage) {
    // AFL-style queue growth: interesting inputs become future seeds.
    ++revision_;
    constexpr std::size_t kPoolCap = 2048;
    if (mutation_pool_.size() >= kPoolCap) {
      mutation_pool_[rng_.index(mutation_pool_.size())] = packet;
    } else {
      mutation_pool_.push_back(packet);
    }
  }

  const bool crack_now =
      config_.strategy == Strategy::PeachStar &&
      (result.new_coverage || config_.crack_all_seeds);
  if (crack_now) {
    // Valuable seed: retain it, crack it into puzzles, and schedule the
    // combinatorial batch against the *other* data models so the donated
    // pieces transfer across packet types.
    ++revision_;
    if (result.new_coverage) {
      if (retained_.size() >= kMaxRetainedSeeds) {
        retained_.erase(retained_.begin());
      }
      retained_.push_back(RetainedSeed{
          packet, used_model != nullptr ? used_model->name() : std::string{},
          executor_.executions()});
      ++total_retained_;
    }

    const CrackStats crack_stats =
        cracker_.crack(models_, packet, corpus_, rng_);
    if (telemetry.enabled()) telemetry.add(telem::Counter::kCrackRuns);

    // Schedule the combinatorial batch only when the crack contributed new
    // puzzles: a crack that changed nothing would replay known material.
    if (result.new_coverage && crack_stats.puzzles_added > 0) {
      const model::DataModel& donor_target = choose_model(rng_);
      std::vector<Bytes> batch =
          semantic_.generate_batch(donor_target, corpus_, rng_);
      if (telemetry.enabled()) {
        telemetry.add(telem::Counter::kBatchSeeds, batch.size());
      }
      for (Bytes& seed : batch) pending_batch_.push_back(std::move(seed));
    }
    if (telemetry.enabled()) {
      telemetry.set(telem::Gauge::kRetainedSeeds, retained_.size());
      telemetry.set(telem::Gauge::kCorpusPuzzles, corpus_.size());
    }
  }

  // The interval check runs here (due()) so the telemetry clock is read
  // only at checkpoint boundaries, never per execution.
  if (stats_.due(executor_.executions())) {
    stats_.tick(executor_.executions(), executor_.path_count(),
                executor_.edge_count(), crash_db_.unique_count(),
                corpus_.size(), telemetry.now_ns());
  }

  if (config_.distill_interval != 0 && retained_.size() > 1 &&
      executor_.executions() % config_.distill_interval == 0) {
    auto_distill();
  }
  return result;
}

void Fuzzer::auto_distill() {
  // Replays go through a private executor: the campaign's accumulated map,
  // path set and execution counter stay untouched, and cmin draws no
  // randomness, so the fuzzing trajectory is identical with or without
  // auto-distillation.
  std::vector<Bytes> seeds;
  seeds.reserve(retained_.size());
  for (const RetainedSeed& seed : retained_) seeds.push_back(seed.bytes);

  distill::CminConfig config;
  config.executor = config_.executor;  // telemetry-free replay executor
  const distill::CminResult result = distill::cmin(target_, seeds, config);
  ++distill_passes_;
  const telem::Sink& telemetry = config_.telemetry;
  if (telemetry.enabled()) {
    telemetry.add(telem::Counter::kDistillPasses);
    char detail[48];
    std::snprintf(detail, sizeof detail, "kept=%zu dropped=%zu",
                  result.kept.size(), retained_.size() - result.kept.size());
    telemetry.event(telem::EventType::kDistill, 0, detail);
  }
  if (result.kept.size() == retained_.size()) return;

  ++revision_;  // session-mode generation reads the retained pool
  std::vector<RetainedSeed> kept;
  kept.reserve(result.kept.size());
  for (const std::size_t index : result.kept) {
    kept.push_back(std::move(retained_[index]));
  }
  distill_dropped_ += retained_.size() - kept.size();
  if (telemetry.enabled()) {
    telemetry.add(telem::Counter::kDistillDroppedSeeds,
                  retained_.size() - kept.size());
  }
  // Order (and therefore the newest-at-the-back property the export cursor
  // relies on) is preserved: kept indices are ascending. A pruned
  // not-yet-exported seed may cause one extra re-publish of an older seed;
  // the exchange's content dedup absorbs it.
  retained_ = std::move(kept);
}

void Fuzzer::run(std::uint64_t iterations,
                 const std::function<void(const ExecResult&)>& on_exec) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const ExecResult& result = step_fast();
    if (on_exec) on_exec(result);
  }
  finish();
}

void Fuzzer::finish() {
  drain_window();
  stats_.finalize(executor_.executions(), executor_.path_count(),
                  executor_.edge_count(), crash_db_.unique_count(),
                  corpus_.size(), config_.telemetry.now_ns());
}

void Fuzzer::import_external_seed(Bytes packet) {
  config_.telemetry.add(telem::Counter::kImportedSeeds);
  imported_.push_back(std::move(packet));
  ++revision_;
}

FuzzerCheckpoint Fuzzer::capture_checkpoint(bool delta) const {
  FuzzerCheckpoint cp;
  cp.rng = rng_.state();
  cp.dedup_delta = delta;
  if (delta) {
    cp.dedup_journal.assign(executed_.journal().begin(),
                            executed_.journal().end());
  } else {
    cp.dedup_current = executed_.current_generation().snapshot();
    cp.dedup_previous = executed_.previous_generation().snapshot();
  }
  cp.corpus = corpus_.snapshot();
  for (const CrashRecord* record : crash_db_.records()) {
    cp.crashes.push_back(*record);
  }
  cp.stats_points = stats_.checkpoints();
  cp.retained = retained_;
  cp.pending_batch.assign(pending_batch_.begin(), pending_batch_.end());
  cp.mutation_pool = mutation_pool_;
  cp.imported.assign(imported_.begin(), imported_.end());
  cp.total_retained = total_retained_;
  cp.exported_retained = exported_retained_;
  cp.distill_passes = distill_passes_;
  cp.distill_dropped = distill_dropped_;
  cp.executions = executor_.executions();
  cp.coverage = executor_.coverage().snapshot_accumulated();
  cp.path_hashes = executor_.paths().snapshot();
  std::sort(cp.path_hashes.begin(), cp.path_hashes.end());
  cp.session_states = executor_.session_states_snapshot();
  return cp;
}

void Fuzzer::restore_checkpoint(const FuzzerCheckpoint& cp) {
  ++revision_;
  rng_.set_state(cp.rng);
  executed_.restore_generations(cp.dedup_current, cp.dedup_previous);
  corpus_.restore(cp.corpus);
  crash_db_.clear();
  for (const CrashRecord& record : cp.crashes) crash_db_.restore(record);
  stats_.restore(cp.stats_points);
  retained_ = cp.retained;
  pending_batch_.assign(cp.pending_batch.begin(), cp.pending_batch.end());
  mutation_pool_ = cp.mutation_pool;
  imported_.assign(cp.imported.begin(), cp.imported.end());
  total_retained_ = cp.total_retained;
  exported_retained_ = cp.exported_retained;
  distill_passes_ = cp.distill_passes;
  distill_dropped_ = cp.distill_dropped;
  executor_.restore_campaign(
      cp.executions, cp.coverage.empty() ? nullptr : cp.coverage.data(),
      cp.path_hashes, cp.session_states);
}

std::vector<RetainedSeed> Fuzzer::drain_new_retained() {
  // `retained_` may have evicted old entries since the last drain, but the
  // newest seeds are always at the back; the lifetime counters say how many
  // of them are unexported.
  const std::uint64_t fresh = total_retained_ - exported_retained_;
  exported_retained_ = total_retained_;
  const std::size_t take =
      std::min(retained_.size(), static_cast<std::size_t>(fresh));
  return std::vector<RetainedSeed>(retained_.end() - take, retained_.end());
}

}  // namespace icsfuzz::fuzz
