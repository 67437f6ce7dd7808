#include "storage/object_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/strings.h"

namespace bauplan::storage {

namespace fs = std::filesystem;

std::vector<Result<Bytes>> ObjectStore::GetMany(
    const std::vector<std::string>& keys) const {
  std::vector<Result<Bytes>> results;
  results.reserve(keys.size());
  for (const auto& key : keys) results.push_back(Get(key));
  return results;
}

// ------------------------------------------------------ MemoryObjectStore

Status MemoryObjectStore::Put(const std::string& key, Bytes data) {
  if (key.empty()) return Status::InvalidArgument("empty object key");
  std::lock_guard<std::mutex> lock(mu_);
  objects_[key] = std::move(data);
  return Status::OK();
}

Result<Bytes> MemoryObjectStore::Get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound(StrCat("no object with key '", key, "'"));
  }
  return it->second;
}

Result<uint64_t> MemoryObjectStore::Head(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound(StrCat("no object with key '", key, "'"));
  }
  return static_cast<uint64_t>(it->second.size());
}

Status MemoryObjectStore::Delete(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return Status::NotFound(StrCat("no object with key '", key, "'"));
  }
  objects_.erase(it);
  return Status::OK();
}

Result<std::vector<ObjectMeta>> MemoryObjectStore::List(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ObjectMeta> out;
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    out.push_back({it->first, static_cast<uint64_t>(it->second.size())});
  }
  return out;
}

size_t MemoryObjectStore::object_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return objects_.size();
}

uint64_t MemoryObjectStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, data] : objects_) total += data.size();
  return total;
}

// -------------------------------------------------- FileSystemObjectStore

Result<std::unique_ptr<FileSystemObjectStore>> FileSystemObjectStore::Open(
    const std::string& root) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return Status::IOError(
        StrCat("cannot create store root '", root, "': ", ec.message()));
  }
  return std::unique_ptr<FileSystemObjectStore>(
      new FileSystemObjectStore(root));
}

Result<std::string> FileSystemObjectStore::PathFor(
    const std::string& key) const {
  if (key.empty()) return Status::InvalidArgument("empty object key");
  // Reject traversal outside the root.
  for (const auto& part : StrSplit(key, '/')) {
    if (part == "..") {
      return Status::InvalidArgument(
          StrCat("object key must not contain '..': ", key));
    }
  }
  return StrCat(root_, "/", key);
}

Status FileSystemObjectStore::Put(const std::string& key, Bytes data) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) {
    return Status::IOError(StrCat("mkdir failed for '", key, "'"));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError(StrCat("cannot open '", path, "'"));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return Status::IOError(StrCat("write failed for '", path, "'"));
  return Status::OK();
}

Result<Bytes> FileSystemObjectStore::Get(const std::string& key) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound(StrCat("no object with key '", key, "'"));
  std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return Status::IOError(StrCat("read failed for '", path, "'"));
  return data;
}

Result<uint64_t> FileSystemObjectStore::Head(const std::string& key) const {
  BAUPLAN_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  std::error_code ec;
  auto size = fs::file_size(path, ec);
  if (ec) return Status::NotFound(StrCat("no object with key '", key, "'"));
  return static_cast<uint64_t>(size);
}

Status FileSystemObjectStore::Delete(const std::string& key) {
  BAUPLAN_ASSIGN_OR_RETURN(std::string path, PathFor(key));
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) {
    return Status::NotFound(StrCat("no object with key '", key, "'"));
  }
  return Status::OK();
}

Result<std::vector<ObjectMeta>> FileSystemObjectStore::List(
    const std::string& prefix) const {
  std::vector<ObjectMeta> out;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root_, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) return Status::IOError(StrCat("list failed: ", ec.message()));
    if (!it->is_regular_file()) continue;
    std::string rel =
        fs::relative(it->path(), root_, ec).generic_string();
    if (ec || !StartsWith(rel, prefix)) continue;
    out.push_back({rel, static_cast<uint64_t>(it->file_size())});
  }
  std::sort(out.begin(), out.end(),
            [](const ObjectMeta& a, const ObjectMeta& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace bauplan::storage
