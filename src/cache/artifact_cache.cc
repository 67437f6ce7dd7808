#include "cache/artifact_cache.h"

#include <set>

#include "common/strings.h"

namespace bauplan::cache {

namespace {
/// Payload format version; unknown versions decode as corrupt (miss).
/// Version 1 entries carried a serialized table; version 2 names files.
constexpr uint8_t kFormatVersion = 2;
}  // namespace

uint64_t CachedArtifact::FileBytes() const {
  uint64_t bytes = 0;
  for (const auto& file : files) bytes += file.file_size_bytes;
  return bytes;
}

Bytes CachedArtifact::Serialize() const {
  BinaryWriter w;
  w.PutU8(kFormatVersion);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutBool(expectation_passed);
  w.PutString(details);
  w.PutI64(output_rows);
  if (kind == pipeline::NodeKind::kSqlModel) {
    schema.Serialize(&w);
    w.PutString(manifest_key);
    w.PutU32(static_cast<uint32_t>(files.size()));
    for (const auto& file : files) file.Serialize(&w);
  }
  return w.TakeBuffer();
}

Result<CachedArtifact> CachedArtifact::Deserialize(const Bytes& bytes) {
  BinaryReader r(bytes);
  BAUPLAN_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kFormatVersion) {
    return Status::IOError("unknown cached-artifact format version");
  }
  CachedArtifact artifact;
  BAUPLAN_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind > static_cast<uint8_t>(pipeline::NodeKind::kExpectation)) {
    return Status::IOError("invalid node kind in cached artifact");
  }
  artifact.kind = static_cast<pipeline::NodeKind>(kind);
  BAUPLAN_ASSIGN_OR_RETURN(artifact.expectation_passed, r.GetBool());
  BAUPLAN_ASSIGN_OR_RETURN(artifact.details, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(artifact.output_rows, r.GetI64());
  if (artifact.kind == pipeline::NodeKind::kSqlModel) {
    BAUPLAN_ASSIGN_OR_RETURN(artifact.schema,
                             columnar::Schema::Deserialize(&r));
    BAUPLAN_ASSIGN_OR_RETURN(artifact.manifest_key, r.GetString());
    BAUPLAN_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
    if (n > r.Remaining()) {
      return Status::IOError("implausible file count in cached artifact");
    }
    for (uint32_t i = 0; i < n; ++i) {
      BAUPLAN_ASSIGN_OR_RETURN(table::DataFile file,
                               table::DataFile::Deserialize(&r));
      artifact.files.push_back(std::move(file));
    }
  }
  if (r.Remaining() != 0) {
    return Status::IOError("trailing bytes in cached artifact");
  }
  return artifact;
}

ArtifactCache::ArtifactCache(storage::ObjectStore* store,
                             uint64_t budget_bytes,
                             observability::MetricsRegistry* registry,
                             std::string prefix)
    : store_(store), budget_bytes_(budget_bytes),
      prefix_(std::move(prefix)) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<observability::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("cache.hits");
  misses_ = registry->GetCounter("cache.misses");
  inserts_ = registry->GetCounter("cache.inserts");
  evictions_ = registry->GetCounter("cache.evictions");
  bytes_ = registry->GetGauge("cache.bytes");
}

std::string ArtifactCache::ObjectKey(const std::string& key) const {
  return StrCat(prefix_, "/", key);
}

void ArtifactCache::LoadIndex() {
  if (!enabled()) return;
  auto objects = store_->List(StrCat(prefix_, "/"));
  if (!objects.ok()) return;  // degrade: start cold
  std::vector<std::string> keys;
  std::vector<std::string> object_keys;
  for (const auto& object : *objects) {
    std::string key = object.key.substr(prefix_.size() + 1);
    if (key.empty()) continue;
    keys.push_back(std::move(key));
    object_keys.push_back(object.key);
  }
  std::vector<Result<Bytes>> payloads = store_->GetMany(object_keys);
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
  used_bytes_ = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!payloads[i].ok() || entries_.count(keys[i]) > 0) continue;
    auto artifact = CachedArtifact::Deserialize(*payloads[i]);
    if (!artifact.ok()) {
      (void)store_->Delete(object_keys[i]);
      continue;
    }
    // List order is key order; LRU recency is not persisted.
    lru_.push_back(Entry{keys[i], payloads[i]->size() + artifact->FileBytes()});
    entries_[keys[i]] = std::prev(lru_.end());
    used_bytes_ += lru_.back().bytes;
  }
  // The budget may have shrunk since these were written.
  EvictUntilFits(0);
  bytes_->Set(static_cast<int64_t>(used_bytes_));
}

std::map<std::string, CacheHit> ArtifactCache::Probe(
    const std::vector<std::string>& keys, const table::TableOps& ops) {
  std::map<std::string, CacheHit> hits;
  if (!enabled()) return hits;

  // Keys the index holds; the rest miss without a request.
  std::vector<std::string> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::string> seen;
    for (const auto& key : keys) {
      if (key.empty() || !seen.insert(key).second) continue;
      if (entries_.count(key) > 0) {
        candidates.push_back(key);
      } else {
        misses_->Increment();
      }
    }
  }
  if (candidates.empty()) return hits;

  // Batch 1: the entries.
  std::vector<std::string> object_keys;
  for (const auto& key : candidates) object_keys.push_back(ObjectKey(key));
  std::vector<Result<Bytes>> payloads = store_->GetMany(object_keys);
  std::vector<bool> valid(candidates.size(), false);
  std::vector<CachedArtifact> artifacts(candidates.size());
  std::vector<table::FileSet> sets;
  std::vector<size_t> set_owner;  // sets[j] belongs to candidates[owner]
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!payloads[i].ok()) continue;
    auto artifact = CachedArtifact::Deserialize(*payloads[i]);
    if (!artifact.ok()) continue;
    valid[i] = true;
    artifacts[i] = std::move(*artifact);
    if (artifacts[i].kind == pipeline::NodeKind::kSqlModel) {
      sets.push_back({artifacts[i].schema, artifacts[i].files});
      set_owner.push_back(i);
    }
  }

  // Batch 2: the data files the SQL-model entries name.
  std::vector<Result<columnar::Table>> tables = ops.ReadFileSets(sets);
  std::vector<columnar::Table> decoded(candidates.size());
  for (size_t j = 0; j < sets.size(); ++j) {
    const size_t i = set_owner[j];
    if (!tables[j].ok() ||
        tables[j]->num_rows() != artifacts[i].output_rows) {
      valid[i] = false;
      continue;
    }
    decoded[i] = std::move(*tables[j]);
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::string& key = candidates[i];
    if (!valid[i]) {
      // Unreadable, corrupt, or naming a file the lake no longer serves:
      // drop it so later probes skip the store.
      DropEntry(key, /*count_eviction=*/false);
      misses_->Increment();
      continue;
    }
    auto it = entries_.find(key);
    if (it != entries_.end()) lru_.splice(lru_.begin(), lru_, it->second);
    hits_->Increment();
    hits.emplace(key, CacheHit{std::move(artifacts[i]), std::move(decoded[i])});
  }
  return hits;
}

void ArtifactCache::Insert(const std::string& key,
                           const CachedArtifact& artifact) {
  if (!enabled() || key.empty()) return;
  Bytes payload = artifact.Serialize();
  const uint64_t charge = payload.size() + artifact.FileBytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) > 0) return;  // content-addressed: immutable
  if (charge > budget_bytes_) return;
  EvictUntilFits(charge);
  if (!store_->Put(ObjectKey(key), std::move(payload)).ok()) {
    return;  // degrade: just not cached
  }
  lru_.push_front(Entry{key, charge});
  entries_[key] = lru_.begin();
  used_bytes_ += charge;
  inserts_->Increment();
  bytes_->Set(static_cast<int64_t>(used_bytes_));
}

void ArtifactCache::EvictUntilFits(uint64_t incoming) {
  while (!lru_.empty() && used_bytes_ + incoming > budget_bytes_) {
    DropEntry(lru_.back().key, /*count_eviction=*/true);
  }
}

void ArtifactCache::DropEntry(const std::string& key,
                              bool count_eviction) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  used_bytes_ -= it->second->bytes;
  // Only the entry object goes; the lake files it names stay. Delete
  // failures leave an orphan entry behind; the index forgets it either
  // way, and LoadIndex would re-adopt it in a later process.
  (void)store_->Delete(ObjectKey(key));
  lru_.erase(it->second);
  entries_.erase(it);
  if (count_eviction) evictions_->Increment();
  bytes_->Set(static_cast<int64_t>(used_bytes_));
}

Result<size_t> ArtifactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Clear everything listed in the store, not just this process's index:
  // `bauplan cache clear` should empty a lake another session filled.
  BAUPLAN_ASSIGN_OR_RETURN(auto objects, store_->List(StrCat(prefix_, "/")));
  size_t dropped = 0;
  for (const auto& object : objects) {
    BAUPLAN_RETURN_NOT_OK(store_->Delete(object.key));
    ++dropped;
  }
  lru_.clear();
  entries_.clear();
  used_bytes_ = 0;
  bytes_->Set(0);
  return dropped;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot;
  snapshot.hits = hits_->Value();
  snapshot.misses = misses_->Value();
  snapshot.inserts = inserts_->Value();
  snapshot.evictions = evictions_->Value();
  snapshot.bytes = used_bytes_;
  snapshot.entries = entries_.size();
  return snapshot;
}

uint64_t ArtifactCache::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_bytes_;
}

size_t ArtifactCache::entry_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace bauplan::cache
