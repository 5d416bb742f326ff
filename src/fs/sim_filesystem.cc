#include "src/fs/sim_filesystem.h"

#include <algorithm>

#include "src/base/compress.h"
#include "src/base/hash.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"

namespace flux {

uint64_t Blob::Hash() const {
  if (!hash_.has_value()) {
    hash_ = FluxHash64(span());
  }
  return *hash_;
}

uint64_t Blob::CompressedSize() const {
  if (!compressed_size_.has_value()) {
    // A large Blob is counted on the shared pool; the count equals the
    // serial one (LzCompressedSize), so the pool changes no byte.
    compressed_size_ = LzCompressedSize(
        span(), ThreadPool::Shared(ThreadPool::DefaultThreads()));
  }
  return *compressed_size_;
}

SimFilesystem::SimFilesystem() { root_.is_dir = true; }

Result<std::vector<std::string>> SimFilesystem::SplitPath(
    std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgument(StrFormat("path must be absolute: '%.*s'",
                                     static_cast<int>(path.size()),
                                     path.data()));
  }
  std::vector<std::string> components = StrSplitSkipEmpty(path, '/');
  for (const auto& c : components) {
    if (c == "." || c == "..") {
      return InvalidArgument("path must not contain '.' or '..'");
    }
  }
  return components;
}

const SimFilesystem::Node* SimFilesystem::FindNode(
    std::string_view path) const {
  auto components = SplitPath(path);
  if (!components.ok()) {
    return nullptr;
  }
  const Node* node = &root_;
  for (const auto& c : components.value()) {
    if (!node->is_dir) {
      return nullptr;
    }
    auto it = node->children.find(c);
    if (it == node->children.end()) {
      return nullptr;
    }
    node = &it->second;
  }
  return node;
}

SimFilesystem::Node* SimFilesystem::FindNode(std::string_view path) {
  return const_cast<Node*>(
      static_cast<const SimFilesystem*>(this)->FindNode(path));
}

Result<SimFilesystem::Node*> SimFilesystem::EnsureDir(
    const std::vector<std::string>& components) {
  Node* node = &root_;
  for (const auto& c : components) {
    if (!node->is_dir) {
      return FailedPrecondition("path component is a file: " + c);
    }
    auto [it, inserted] = node->children.try_emplace(c);
    if (inserted) {
      it->second.is_dir = true;
    }
    node = &it->second;
  }
  if (!node->is_dir) {
    return FailedPrecondition("target exists and is a file");
  }
  return node;
}

Status SimFilesystem::Mkdirs(std::string_view path) {
  FLUX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  FLUX_ASSIGN_OR_RETURN(Node * node, EnsureDir(components));
  (void)node;
  return OkStatus();
}

Status SimFilesystem::WriteFile(std::string_view path,
                                std::shared_ptr<const Blob> blob,
                                bool create_parents) {
  if (blob == nullptr) {
    return InvalidArgument("no content for " + std::string(path));
  }
  FLUX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  if (components.empty()) {
    return InvalidArgument("cannot write to '/'");
  }
  const std::string name = components.back();
  components.pop_back();

  Node* dir = nullptr;
  if (create_parents) {
    FLUX_ASSIGN_OR_RETURN(dir, EnsureDir(components));
  } else {
    std::string parent = "/" + StrJoin(components, "/");
    dir = FindNode(parent);
    if (dir == nullptr || !dir->is_dir) {
      return NotFound("parent directory missing: " + parent);
    }
  }

  auto it = dir->children.find(name);
  if (it != dir->children.end()) {
    if (it->second.is_dir) {
      return FailedPrecondition("is a directory: " + std::string(path));
    }
    // Rewriting a hard-linked file breaks the link (copy-on-write), matching
    // how rsync replaces files.
    if (it->second.inode->link_count() > 1) {
      it->second.inode->DropLink();
      it->second.inode = std::make_shared<Inode>(std::move(blob));
      it->second.inode->AddLink();
    } else {
      it->second.inode->SetBlob(std::move(blob));
    }
    return OkStatus();
  }

  Node node;
  node.is_dir = false;
  node.inode = std::make_shared<Inode>(std::move(blob));
  node.inode->AddLink();
  dir->children.emplace(name, std::move(node));
  return OkStatus();
}

Status SimFilesystem::WriteFile(std::string_view path, Bytes content,
                                bool create_parents) {
  return WriteFile(path, std::make_shared<const Blob>(std::move(content)),
                   create_parents);
}

Status SimFilesystem::WriteFile(std::string_view path,
                                std::string_view content,
                                bool create_parents) {
  return WriteFile(path, Bytes(content.begin(), content.end()),
                   create_parents);
}

Result<std::shared_ptr<const Blob>> SimFilesystem::ReadFile(
    std::string_view path) const {
  const Node* node = FindNode(path);
  if (node == nullptr) {
    return NotFound("no such file: " + std::string(path));
  }
  if (node->is_dir) {
    return FailedPrecondition("is a directory: " + std::string(path));
  }
  return node->inode->blob();
}

Status SimFilesystem::Link(std::string_view existing,
                           std::string_view link_path, bool create_parents) {
  Node* src = FindNode(existing);
  if (src == nullptr || src->is_dir) {
    return NotFound("link source missing or is a directory: " +
                    std::string(existing));
  }
  FLUX_ASSIGN_OR_RETURN(auto components, SplitPath(link_path));
  if (components.empty()) {
    return InvalidArgument("cannot link at '/'");
  }
  const std::string name = components.back();
  components.pop_back();

  Node* dir = nullptr;
  if (create_parents) {
    FLUX_ASSIGN_OR_RETURN(dir, EnsureDir(components));
  } else {
    std::string parent = "/" + StrJoin(components, "/");
    dir = FindNode(parent);
    if (dir == nullptr || !dir->is_dir) {
      return NotFound("parent directory missing: " + parent);
    }
  }
  if (dir->children.count(name) > 0) {
    return AlreadyExists("link target exists: " + std::string(link_path));
  }
  Node node;
  node.is_dir = false;
  node.inode = src->inode;
  node.inode->AddLink();
  dir->children.emplace(name, std::move(node));
  return OkStatus();
}

Status SimFilesystem::Remove(std::string_view path) {
  FLUX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  if (components.empty()) {
    return InvalidArgument("cannot remove '/'");
  }
  const std::string name = components.back();
  components.pop_back();
  std::string parent = "/" + StrJoin(components, "/");
  Node* dir = FindNode(parent);
  if (dir == nullptr || !dir->is_dir) {
    return NotFound("no such path: " + std::string(path));
  }
  auto it = dir->children.find(name);
  if (it == dir->children.end()) {
    return NotFound("no such path: " + std::string(path));
  }
  if (it->second.is_dir && !it->second.children.empty()) {
    return FailedPrecondition("directory not empty: " + std::string(path));
  }
  if (!it->second.is_dir) {
    it->second.inode->DropLink();
  }
  dir->children.erase(it);
  return OkStatus();
}

Status SimFilesystem::RemoveTree(std::string_view path) {
  FLUX_ASSIGN_OR_RETURN(auto components, SplitPath(path));
  if (components.empty()) {
    root_.children.clear();
    return OkStatus();
  }
  const std::string name = components.back();
  components.pop_back();
  std::string parent = "/" + StrJoin(components, "/");
  Node* dir = FindNode(parent);
  if (dir == nullptr || !dir->is_dir) {
    return OkStatus();
  }
  auto it = dir->children.find(name);
  if (it == dir->children.end()) {
    return OkStatus();
  }
  // Drop link counts of every file in the subtree before erasing.
  std::function<void(Node&)> drop = [&](Node& node) {
    if (!node.is_dir) {
      node.inode->DropLink();
      return;
    }
    for (auto& [child_name, child] : node.children) {
      (void)child_name;
      drop(child);
    }
  };
  drop(it->second);
  dir->children.erase(it);
  return OkStatus();
}

bool SimFilesystem::Exists(std::string_view path) const {
  return FindNode(path) != nullptr;
}

bool SimFilesystem::IsDirectory(std::string_view path) const {
  const Node* node = FindNode(path);
  return node != nullptr && node->is_dir;
}

bool SimFilesystem::IsFile(std::string_view path) const {
  const Node* node = FindNode(path);
  return node != nullptr && !node->is_dir;
}

Result<uint64_t> SimFilesystem::FileSize(std::string_view path) const {
  const Node* node = FindNode(path);
  if (node == nullptr || node->is_dir) {
    return NotFound("no such file: " + std::string(path));
  }
  return node->inode->size();
}

Result<uint64_t> SimFilesystem::FileHash(std::string_view path) const {
  const Node* node = FindNode(path);
  if (node == nullptr || node->is_dir) {
    return NotFound("no such file: " + std::string(path));
  }
  return node->inode->ContentHash();
}

bool SimFilesystem::SameInode(std::string_view a, std::string_view b) const {
  const Node* na = FindNode(a);
  const Node* nb = FindNode(b);
  return na != nullptr && nb != nullptr && !na->is_dir && !nb->is_dir &&
         na->inode == nb->inode;
}

Result<std::vector<std::string>> SimFilesystem::List(
    std::string_view path) const {
  const Node* node = FindNode(path);
  if (node == nullptr) {
    return NotFound("no such directory: " + std::string(path));
  }
  if (!node->is_dir) {
    return FailedPrecondition("not a directory: " + std::string(path));
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    (void)child;
    names.push_back(name);
  }
  return names;
}

void SimFilesystem::WalkFilesImpl(const Node& node, std::string& path,
                                  std::vector<FileInfo>& out) const {
  for (const auto& [name, child] : node.children) {
    const size_t saved = path.size();
    path += '/';
    path += name;
    if (child.is_dir) {
      WalkFilesImpl(child, path, out);
    } else {
      FileInfo info;
      info.path = path;
      info.size = child.inode->size();
      info.content_hash = child.inode->ContentHash();
      info.link_count = child.inode->link_count();
      out.push_back(std::move(info));
    }
    path.resize(saved);
  }
}

Result<std::vector<FileInfo>> SimFilesystem::WalkFiles(
    std::string_view root) const {
  const Node* node = FindNode(root);
  if (node == nullptr) {
    return NotFound("no such path: " + std::string(root));
  }
  std::vector<FileInfo> out;
  if (!node->is_dir) {
    FileInfo info;
    info.path = std::string(root);
    info.size = node->inode->size();
    info.content_hash = node->inode->ContentHash();
    info.link_count = node->inode->link_count();
    out.push_back(std::move(info));
    return out;
  }
  std::string path(root == "/" ? "" : root);
  WalkFilesImpl(*node, path, out);
  return out;
}

Result<uint64_t> SimFilesystem::TreeSize(std::string_view root,
                                         bool unique_inodes) const {
  FLUX_ASSIGN_OR_RETURN(auto files, WalkFiles(root));
  if (!unique_inodes) {
    uint64_t total = 0;
    for (const auto& f : files) {
      total += f.size;
    }
    return total;
  }
  // Deduplicate by (hash, size); adequate for the simulation's content.
  uint64_t total = 0;
  std::vector<std::pair<uint64_t, uint64_t>> seen;
  for (const auto& f : files) {
    std::pair<uint64_t, uint64_t> key{f.content_hash, f.size};
    if (f.link_count > 1) {
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        continue;
      }
      seen.push_back(key);
    }
    total += f.size;
  }
  return total;
}

Result<uint64_t> SimFilesystem::TreeFileCount(std::string_view root) const {
  FLUX_ASSIGN_OR_RETURN(auto files, WalkFiles(root));
  return files.size();
}

}  // namespace flux
