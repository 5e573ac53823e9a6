#include "src/registry/registry.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <system_error>

#include "src/common/io.hpp"
#include "src/obs/jsonlite.hpp"
#include "src/registry/archive.hpp"

namespace hpcp::registry {

namespace fs = std::filesystem;

namespace {

/// "<version>.hpcp" -> version; 0 when the stem is not a positive integer.
std::uint64_t parse_version_stem(const std::string& stem) {
  if (stem.empty() || stem.size() > 19) return 0;
  std::uint64_t v = 0;
  for (const char c : stem) {
    if (c < '0' || c > '9') return 0;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

bool Registry::valid_tenant(const std::string& name) {
  if (name.empty() || name.size() > 64 || name.front() == '.') return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '_' || c == '.' || c == '-';
  });
}

Expected<Registry> Registry::open(const std::string& root) {
  Registry registry;
  registry.root_ = root;
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) {
    return Error{ErrorCode::Io, "cannot create registry root: " + ec.message(),
                 root};
  }
  auto scanned = registry.rescan();
  if (!scanned) return scanned.error();
  return registry;
}

Expected<void> Registry::rescan() {
  tenants_.clear();
  std::error_code ec;
  fs::directory_iterator it(root_, ec);
  if (ec) {
    return Error{ErrorCode::Io, "cannot read registry root: " + ec.message(),
                 root_};
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    const std::string tenant = entry.path().filename().string();
    if (!valid_tenant(tenant)) continue;
    TenantInfo info;
    info.tenant = tenant;
    fs::directory_iterator files(entry.path(), ec);
    if (ec) continue;
    for (const fs::directory_entry& file : files) {
      if (!file.is_regular_file(ec) || ec) continue;
      const fs::path& p = file.path();
      if (p.extension() != kArchiveExtension) continue;
      const std::uint64_t version = parse_version_stem(p.stem().string());
      if (version == 0) continue;
      info.versions.push_back(version);
      info.bytes += static_cast<std::uint64_t>(file.file_size(ec));
    }
    if (info.versions.empty()) continue;
    std::sort(info.versions.begin(), info.versions.end());
    info.latest = info.versions.back();
    tenants_.emplace(tenant, std::move(info));
  }
  return {};
}

std::string Registry::manifest_path() const {
  return (fs::path(root_) / kManifestFile).string();
}

std::vector<TenantInfo> Registry::list() const {
  std::vector<TenantInfo> out;
  out.reserve(tenants_.size());
  for (const auto& [_, info] : tenants_) out.push_back(info);
  return out;
}

bool Registry::has_tenant(const std::string& tenant) const {
  return tenants_.count(tenant) > 0;
}

std::uint64_t Registry::latest_version(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  return it != tenants_.end() ? it->second.latest : 0;
}

std::string Registry::version_path(const std::string& tenant,
                                   std::uint64_t version) const {
  return (fs::path(root_) / tenant /
          (std::to_string(version) + kArchiveExtension))
      .string();
}

Expected<std::uint64_t> Registry::add_model(const std::string& tenant,
                                            const TwoLevelModel& model) {
  if (!valid_tenant(tenant)) {
    return Error{ErrorCode::BadData, "invalid tenant name", tenant};
  }
  std::error_code ec;
  fs::create_directories(fs::path(root_) / tenant, ec);
  if (ec) {
    return Error{ErrorCode::Io,
                 "cannot create tenant directory: " + ec.message(), tenant};
  }
  const std::uint64_t version = latest_version(tenant) + 1;
  ArchiveMeta meta;
  meta.tenant = tenant;
  meta.version = version;
  auto written = write_model_archive(version_path(tenant, version), model,
                                     meta);
  if (!written) return written.error();

  TenantInfo& info = tenants_[tenant];
  info.tenant = tenant;
  info.versions.push_back(version);
  info.latest = version;
  info.bytes += static_cast<std::uint64_t>(
      fs::file_size(version_path(tenant, version), ec));
  auto manifest = write_manifest();
  if (!manifest) return manifest.error();
  return version;
}

Expected<std::uint64_t> Registry::add_from_file(
    const std::string& tenant, const std::string& model_path) {
  auto archive = ModelArchive::open(model_path);
  if (!archive) return archive.error();
  auto model = archive->load_model();
  if (!model) return model.error();
  return add_model(tenant, *model);
}

Expected<std::size_t> Registry::gc(std::size_t keep) {
  if (keep == 0) {
    return Error{ErrorCode::BadData,
                 "gc keep must be >= 1 (0 would delete every model)", root_};
  }
  std::size_t removed = 0;
  for (auto& [tenant, info] : tenants_) {
    while (info.versions.size() > keep) {
      const std::uint64_t victim = info.versions.front();
      const std::string path = version_path(tenant, victim);
      std::error_code ec;
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(fs::file_size(path, ec));
      if (!fs::remove(path, ec) || ec) {
        return Error{ErrorCode::Io, "cannot remove archive: " + ec.message(),
                     path};
      }
      info.versions.erase(info.versions.begin());
      info.bytes -= std::min(info.bytes, bytes);
      ++removed;
    }
  }
  auto manifest = write_manifest();
  if (!manifest) return manifest.error();
  return removed;
}

Expected<void> Registry::annotate(const std::string& tenant,
                                  const std::string& key,
                                  const std::string& value) {
  if (!valid_tenant(tenant)) {
    return Error{ErrorCode::BadData, "invalid tenant name", tenant};
  }
  notes_[tenant][key] = value;
  return write_manifest();
}

const std::map<std::string, std::string>* Registry::annotations(
    const std::string& tenant) const {
  const auto it = notes_.find(tenant);
  return it != notes_.end() ? &it->second : nullptr;
}

Expected<void> Registry::write_manifest() const {
  // tenants_ is a std::map, so the manifest's tenant order (and therefore
  // its bytes) is deterministic — the golden registry test pins it.
  std::string out = "{\"schema\":\"";
  out += kManifestSchema;
  out += "\",\"tenants\":{";
  bool first_tenant = true;
  for (const auto& [tenant, info] : tenants_) {
    if (!first_tenant) out += ',';
    first_tenant = false;
    out += '"';
    out += tenant;  // valid_tenant guarantees no JSON-special bytes
    out += "\":{\"latest\":";
    out += std::to_string(info.latest);
    out += ",\"versions\":[";
    for (std::size_t i = 0; i < info.versions.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(info.versions[i]);
    }
    out += ']';
    // Annotations render only when present, so un-annotated stores keep
    // their exact historical manifest bytes (the golden test pins them).
    if (const auto notes = notes_.find(tenant);
        notes != notes_.end() && !notes->second.empty()) {
      out += ",\"notes\":{";
      bool first_note = true;
      for (const auto& [key, value] : notes->second) {
        if (!first_note) out += ',';
        first_note = false;
        out += obs::json_quote(key);
        out += ':';
        out += obs::json_quote(value);
      }
      out += '}';
    }
    out += '}';
  }
  out += "}}\n";
  return atomic_write_file(manifest_path(), [&out](std::ostream& stream) {
    stream << out;
  });
}

}  // namespace hpcp::registry
