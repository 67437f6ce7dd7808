#ifndef BAUPLAN_STORAGE_OBJECT_STORE_H_
#define BAUPLAN_STORAGE_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace bauplan::storage {

/// Key and size of one stored object.
struct ObjectMeta {
  std::string key;
  uint64_t size = 0;
};

/// S3-style flat key/value blob store: the data lake's storage layer.
/// Keys are opaque strings ('/' is only a listing convention). All
/// operations are atomic per key; Put overwrites.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  virtual Status Put(const std::string& key, Bytes data) = 0;
  virtual Result<Bytes> Get(const std::string& key) const = 0;
  /// Fetches `keys` as one batch of concurrent GETs (a scan's manifests,
  /// or its data files); results are in key order, and a failed key
  /// fails only its own slot. The default issues one Get per key.
  virtual std::vector<Result<Bytes>> GetMany(
      const std::vector<std::string>& keys) const;
  /// Size of the object without fetching it (S3 HEAD).
  virtual Result<uint64_t> Head(const std::string& key) const = 0;
  virtual Status Delete(const std::string& key) = 0;
  /// All objects whose key starts with `prefix`, sorted by key.
  virtual Result<std::vector<ObjectMeta>> List(
      const std::string& prefix) const = 0;

  bool Exists(const std::string& key) const { return Head(key).ok(); }
};

/// In-process hash-map store; the default substrate for tests and
/// simulation (latency is modeled by MeteredObjectStore, not here).
/// Thread-safe: per-key atomicity holds under concurrent callers (the
/// parallel wavefront executor spills from many function bodies at once).
class MemoryObjectStore : public ObjectStore {
 public:
  MemoryObjectStore() = default;

  Status Put(const std::string& key, Bytes data) override;
  Result<Bytes> Get(const std::string& key) const override;
  Result<uint64_t> Head(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  Result<std::vector<ObjectMeta>> List(
      const std::string& prefix) const override;

  size_t object_count() const;
  uint64_t total_bytes() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Bytes> objects_;
};

/// Durable store mapping keys to files under a root directory. Used by the
/// CLI so lakes survive process restarts.
class FileSystemObjectStore : public ObjectStore {
 public:
  /// Creates the root directory if needed; IOError when that fails.
  static Result<std::unique_ptr<FileSystemObjectStore>> Open(
      const std::string& root);

  Status Put(const std::string& key, Bytes data) override;
  Result<Bytes> Get(const std::string& key) const override;
  Result<uint64_t> Head(const std::string& key) const override;
  Status Delete(const std::string& key) override;
  Result<std::vector<ObjectMeta>> List(
      const std::string& prefix) const override;

 private:
  explicit FileSystemObjectStore(std::string root) : root_(std::move(root)) {}

  Result<std::string> PathFor(const std::string& key) const;

  std::string root_;
};

}  // namespace bauplan::storage

#endif  // BAUPLAN_STORAGE_OBJECT_STORE_H_
