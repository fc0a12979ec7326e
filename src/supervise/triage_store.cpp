#include "supervise/triage_store.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "distill/distill.hpp"
#include "distill/replay.hpp"
#include "telemetry/export.hpp"
#include "util/json.hpp"

namespace icsfuzz::supervise {

namespace {

namespace fs = std::filesystem;

/// Strict hex: the whole string, digits only, no overflow.
template <typename T>
bool parse_hex(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const std::from_chars_result parsed =
      std::from_chars(text.data(), end, out, 16);
  return !text.empty() && parsed.ec == std::errc() && parsed.ptr == end;
}

/// One journal line; nullopt drops it: torn, malformed, or naming a bucket
/// its fields do not derive (a bucket becomes a file name under repro/).
std::optional<TriageRecord> parse_record(std::string_view line) {
  const std::optional<JsonValue> doc = json_parse(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* bucket = doc->find("bucket");
  const JsonValue* kind = doc->find("kind");
  const JsonValue* site = doc->find("site");
  const JsonValue* trace = doc->find("trace_hash");
  const JsonValue* hits = doc->find("hits");
  const JsonValue* first = doc->find("first_execution");
  if (bucket == nullptr || !bucket->is_string() || kind == nullptr ||
      !kind->is_string() || site == nullptr || !site->is_string() ||
      hits == nullptr || !hits->is_u64 || first == nullptr ||
      !first->is_u64) {
    return std::nullopt;
  }
  const std::optional<san::FaultKind> parsed_kind =
      san::kind_from_slug(kind->string);
  if (!parsed_kind) return std::nullopt;

  TriageRecord record;
  record.bucket = bucket->string;
  record.kind = *parsed_kind;
  if (!parse_hex(site->string, record.site) ||
      (trace != nullptr &&
       (!trace->is_string() || !parse_hex(trace->string, record.trace_hash))) ||
      record.bucket !=
          triage_bucket_id(record.kind, record.site, record.trace_hash)) {
    return std::nullopt;
  }
  record.hits = hits->u64;
  record.first_execution = first->u64;
  if (const JsonValue* v = doc->find("ingests"); v != nullptr && v->is_u64) {
    record.ingests = v->u64;
  }
  if (const JsonValue* v = doc->find("verified");
      v != nullptr && v->kind == JsonValue::Kind::kBool) {
    record.verified = v->boolean;
  }
  if (const JsonValue* v = doc->find("minimized");
      v != nullptr && v->kind == JsonValue::Kind::kBool) {
    record.minimized = v->boolean;
  }
  if (const JsonValue* v = doc->find("bytes"); v != nullptr && v->is_u64) {
    record.reproducer_bytes = static_cast<std::size_t>(v->u64);
  }
  if (const JsonValue* v = doc->find("original_bytes");
      v != nullptr && v->is_u64) {
    record.original_bytes = static_cast<std::size_t>(v->u64);
  }
  if (const JsonValue* v = doc->find("detail");
      v != nullptr && v->is_string()) {
    record.detail = v->string;
  }
  return record;
}

/// True when the replay raised the bucket's own fault (same kind + site),
/// not merely any fault.
bool reproduces(const distill::CrashReplay& replay, san::FaultKind kind,
                std::uint32_t site) {
  for (const san::FaultReport& fault : replay.faults) {
    if (fault.kind == kind && fault.site == site) return true;
  }
  return false;
}

}  // namespace

std::string triage_bucket_id(san::FaultKind kind, std::uint32_t site,
                             std::uint64_t trace_hash) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "%s-%08x-%016llx",
                san::to_slug(kind).c_str(), site,
                static_cast<unsigned long long>(trace_hash));
  return buffer;
}

std::string render_record(const TriageRecord& record) {
  char head[192];
  std::snprintf(head, sizeof head,
                "{\"bucket\":\"%s\",\"kind\":\"%s\",\"site\":\"%08x\","
                "\"trace_hash\":\"%016llx\",\"hits\":%llu,"
                "\"first_execution\":%llu,\"ingests\":%llu,",
                record.bucket.c_str(), san::to_slug(record.kind).c_str(),
                record.site,
                static_cast<unsigned long long>(record.trace_hash),
                static_cast<unsigned long long>(record.hits),
                static_cast<unsigned long long>(record.first_execution),
                static_cast<unsigned long long>(record.ingests));
  char tail[128];
  std::snprintf(tail, sizeof tail,
                "\"verified\":%s,\"minimized\":%s,\"bytes\":%zu,"
                "\"original_bytes\":%zu,\"detail\":\"",
                record.verified ? "true" : "false",
                record.minimized ? "true" : "false", record.reproducer_bytes,
                record.original_bytes);
  return std::string(head) + tail + json_escape(record.detail) + "\"}";
}

TriageStore::TriageStore(std::string directory)
    : directory_(std::move(directory)) {}

bool TriageStore::open() {
  records_.clear();
  error_.clear();
  std::ifstream in(fs::path(directory_) / "index.jsonl", std::ios::binary);
  if (!in) {
    std::error_code ec;
    if (fs::exists(fs::path(directory_) / "index.jsonl", ec)) {
      error_ = "cannot read index.jsonl";
      return false;
    }
    return true;  // no store yet — empty index
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // A killed writer can leave a torn trailing line; complete journals
  // always end with '\n', so an unterminated tail is dropped whole — and
  // truncated away on disk (best effort), else the NEXT append would fuse
  // with the fragment and corrupt a good record.
  std::string_view view(text);
  if (!view.empty() && view.back() != '\n') {
    const std::size_t last = view.rfind('\n');
    view = last == std::string_view::npos ? std::string_view()
                                          : view.substr(0, last + 1);
    std::error_code ec;
    fs::resize_file(fs::path(directory_) / "index.jsonl", view.size(), ec);
  }
  std::size_t start = 0;
  while (start < view.size()) {
    std::size_t end = view.find('\n', start);
    if (end == std::string_view::npos) end = view.size();
    const std::string_view line = view.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (std::optional<TriageRecord> record = parse_record(line)) {
      upsert(*record);
    }
  }
  return true;
}

const TriageRecord* TriageStore::find(std::string_view bucket) const {
  for (const TriageRecord& record : records_) {
    if (record.bucket == bucket) return &record;
  }
  return nullptr;
}

std::optional<Bytes> TriageStore::load_reproducer(
    std::string_view bucket) const {
  // Only an indexed bucket names a side file: its id is validated.
  if (find(bucket) == nullptr) return std::nullopt;
  std::ifstream in(
      fs::path(directory_) / "repro" / (std::string(bucket) + ".bin"),
      std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

TriageRecord& TriageStore::upsert(const TriageRecord& record) {
  // Journal replay: each line is the bucket's complete state at append
  // time, so the latest line wins while the bucket keeps its first-seen
  // position.
  for (TriageRecord& existing : records_) {
    if (existing.bucket == record.bucket) {
      existing = record;
      return existing;
    }
  }
  records_.push_back(record);
  return records_.back();
}

bool TriageStore::persist(const TriageRecord& record,
                          const Bytes* reproducer) {
  std::error_code ec;
  fs::create_directories(fs::path(directory_) / "repro", ec);
  if (ec) {
    error_ = "cannot create store directory: " + ec.message();
    return false;
  }
  if (reproducer != nullptr) {
    if (auto error = telem::write_text_atomic(
            (fs::path(directory_) / "repro" / (record.bucket + ".bin"))
                .string(),
            std::string(reproducer->begin(), reproducer->end()))) {
      error_ = *error;
      return false;
    }
  }
  std::ofstream journal(fs::path(directory_) / "index.jsonl",
                        std::ios::binary | std::ios::app);
  journal << render_record(record) << '\n';
  if (!journal) {
    error_ = "cannot append to index.jsonl";
    return false;
  }
  upsert(record);
  return true;
}

TriageStore::IngestOutcome TriageStore::ingest(
    const fuzz::CrashRecord& crash, ProtocolTarget* target, bool minimize,
    const fuzz::ExecutorConfig& executor) {
  IngestOutcome outcome;
  outcome.bucket =
      triage_bucket_id(crash.kind, crash.site, crash.trace_hash);

  const TriageRecord* existing = find(outcome.bucket);
  outcome.is_new = existing == nullptr;

  TriageRecord record;
  Bytes reproducer = crash.reproducer;
  bool write_reproducer = true;
  if (existing == nullptr) {
    record.bucket = outcome.bucket;
    record.kind = crash.kind;
    record.site = crash.site;
    record.trace_hash = crash.trace_hash;
    record.detail = crash.detail;
    record.hits = crash.hits;
    record.first_execution = crash.first_execution;
    record.ingests = 1;
    record.original_bytes = crash.reproducer.size();
  } else {
    record = *existing;
    record.hits += crash.hits;
    record.first_execution =
        std::min(record.first_execution, crash.first_execution);
    ++record.ingests;
    // Keep the stored reproducer unless the incoming one is smaller (or
    // the side file went missing) — a re-ingest must never replace a
    // minimized reproducer with a bigger duplicate.
    std::optional<Bytes> stored = load_reproducer(outcome.bucket);
    if (stored && stored->size() <= crash.reproducer.size()) {
      reproducer = std::move(*stored);
      write_reproducer = false;
    } else {
      record.minimized = false;
    }
  }

  if (target != nullptr) {
    const distill::CrashReplay replay =
        distill::replay_crash(*target, reproducer, executor);
    outcome.reproduced = reproduces(replay, record.kind, record.site);
    outcome.verify_failed = !outcome.reproduced;
    record.verified = outcome.reproduced;
    if (outcome.reproduced && minimize) {
      distill::TminResult trimmed =
          distill::tmin(*target, reproducer, executor);
      if (trimmed.shrunk()) {
        reproducer = std::move(trimmed.seed);
        record.minimized = true;
        outcome.minimized = true;
        write_reproducer = true;
      }
    }
  }
  record.reproducer_bytes = reproducer.size();

  outcome.persisted =
      persist(record, write_reproducer ? &reproducer : nullptr);
  return outcome;
}

std::optional<TriageStore::IngestOutcome> TriageStore::reverify(
    std::string_view bucket, ProtocolTarget& target, bool minimize,
    const fuzz::ExecutorConfig& executor) {
  const TriageRecord* existing = find(bucket);
  if (existing == nullptr) return std::nullopt;
  std::optional<Bytes> reproducer = load_reproducer(bucket);
  if (!reproducer) return std::nullopt;

  IngestOutcome outcome;
  outcome.bucket = existing->bucket;
  TriageRecord record = *existing;

  const distill::CrashReplay replay =
      distill::replay_crash(target, *reproducer, executor);
  outcome.reproduced = reproduces(replay, record.kind, record.site);
  outcome.verify_failed = !outcome.reproduced;
  record.verified = outcome.reproduced;
  bool write_reproducer = false;
  if (outcome.reproduced && minimize) {
    distill::TminResult trimmed = distill::tmin(target, *reproducer, executor);
    if (trimmed.shrunk()) {
      *reproducer = std::move(trimmed.seed);
      record.minimized = true;
      outcome.minimized = true;
      write_reproducer = true;
    }
  }
  record.reproducer_bytes = reproducer->size();

  outcome.persisted =
      persist(record, write_reproducer ? &*reproducer : nullptr);
  return outcome;
}

}  // namespace icsfuzz::supervise
