// Shared corpus bootstrapping for the command-line tools (sm_survey,
// sm_notaryd): the load-or-simulate path behind `--in bundle.smwb`,
// `--archive archive.smar` (plus its optional `archive.smar.rev`
// revocation sidecar), and the `--seed/--devices/--websites/--scale`
// simulation fallback. One implementation so both tools accept the same
// flags, print the same diagnostics, and exit 2 on bad input.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "corpus/live.h"
#include "flags.h"
#include "net/route_table.h"
#include "notary/reshard.h"
#include "scan/archive.h"
#include "scan/archive_io.h"
#include "simworld/world.h"
#include "simworld/world_io.h"
#include "util/thread_pool.h"

namespace sm::tools {

/// Where the corpus comes from: a world bundle, a bare binary archive, or
/// (when both paths are empty) a fresh simulation.
struct CorpusSpec {
  std::string in_path;       ///< world bundle (.smwb): archive + routing + truth
  std::string archive_path;  ///< bare archive (.smar): observations only
  std::uint64_t seed = 42;
  std::size_t devices = 5000;
  std::size_t websites = 1700;
  double scale = 0.45;
};

/// The loaded corpus. Exactly one of `world` (bundle / simulation) or the
/// standalone `archive` (bare .smar) is populated.
struct LoadedCorpus {
  std::optional<simworld::WorldResult> world;
  scan::ScanArchive archive;
  /// A bare archive's revocation statuses, from its `.rev` sidecar.
  corpus::RevocationStatusMap archive_statuses;

  const scan::ScanArchive& archive_ref() const {
    return world.has_value() ? world->archive : archive;
  }
  /// Known revocation statuses (empty when the corpus carries none).
  const corpus::RevocationStatusMap& statuses() const {
    return world.has_value() ? world->revocation.statuses : archive_statuses;
  }
  /// Routing history for AS resolution; null for bare archives.
  const net::RoutingHistory* routing() const {
    return world.has_value() ? &world->routing : nullptr;
  }
};

/// Revocation sidecar I/O: `path` holds the slice-sidecar binary format
/// (notary/reshard.h) with statuses only. `ARCHIVE.smar.rev` travels next
/// to an archive or ingest segment and carries the statuses known for its
/// certificates.
inline bool save_revocation_sidecar(
    const std::string& path, const corpus::RevocationStatusMap& statuses) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::string blob = notary::serialize_slice_sidecar({}, statuses);
  return static_cast<bool>(
      out.write(blob.data(), static_cast<std::streamsize>(blob.size())));
}

inline bool load_revocation_sidecar(const std::string& path,
                                    corpus::RevocationStatusMap& statuses,
                                    std::string& error) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  if (!in) {
    error = "unreadable";
    return false;
  }
  corpus::KeyCountMap unused_counts;
  return notary::parse_slice_sidecar(bytes.view(), unused_counts, statuses,
                                     error);
}

/// Loads `spec.in_path` or `spec.archive_path`, or simulates a world from
/// the seed parameters when both are empty. Prints progress diagnostics to
/// stderr; exits 2 when an input file (or an archive's `.rev` sidecar) is
/// unreadable or corrupt.
inline LoadedCorpus load_or_simulate(const CorpusSpec& spec) {
  LoadedCorpus corpus;
  if (!spec.in_path.empty()) {
    auto world = simworld::load_world_bundle_file(spec.in_path);
    if (!world.has_value()) {
      std::fprintf(stderr, "failed to load bundle %s\n", spec.in_path.c_str());
      std::exit(2);
    }
    corpus.world.emplace(std::move(*world));
    std::fprintf(stderr, "loaded %s: %zu scans, %zu certs, %zu observations\n",
                 spec.in_path.c_str(),
                 corpus.world->archive.scans().size(),
                 corpus.world->archive.certs().size(),
                 corpus.world->archive.observation_count());
    return corpus;
  }
  if (!spec.archive_path.empty()) {
    auto archive = scan::load_archive_file(spec.archive_path);
    if (!archive.has_value()) {
      std::fprintf(stderr, "failed to load archive %s\n",
                   spec.archive_path.c_str());
      std::exit(2);
    }
    corpus.archive = std::move(*archive);
    std::fprintf(stderr, "loaded %s: %zu scans, %zu certs, %zu observations\n",
                 spec.archive_path.c_str(), corpus.archive.scans().size(),
                 corpus.archive.certs().size(),
                 corpus.archive.observation_count());
    const std::string rev_path = spec.archive_path + ".rev";
    std::error_code ec;
    if (std::filesystem::exists(rev_path, ec)) {
      std::string error;
      if (!load_revocation_sidecar(rev_path, corpus.archive_statuses,
                                   error)) {
        std::fprintf(stderr, "bad revocation sidecar %s: %s\n",
                     rev_path.c_str(), error.c_str());
        std::exit(2);
      }
      std::fprintf(stderr, "loaded %s: %zu revocation statuses\n",
                   rev_path.c_str(), corpus.archive_statuses.size());
    }
    return corpus;
  }

  simworld::WorldConfig config;
  config.seed = spec.seed;
  config.device_count = spec.devices;
  config.website_count = spec.websites;
  config.schedule.scale = spec.scale;
  std::fprintf(stderr,
               "simulating %zu devices + %zu websites (seed %llu, %zu "
               "threads)...\n",
               config.device_count, config.website_count,
               static_cast<unsigned long long>(config.seed),
               util::ThreadPool::global_thread_count());
  const auto begin = std::chrono::steady_clock::now();
  corpus.world.emplace(simworld::World(config).run());
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  std::fprintf(stderr, "world built in %.2fs\n", seconds);
  const auto& world = *corpus.world;
  std::fprintf(stderr,
               "verified %llu certs: %llu signature checks computed, %llu "
               "memoized\n",
               static_cast<unsigned long long>(world.verify_stats.verified),
               static_cast<unsigned long long>(world.verify_stats.sig_checks),
               static_cast<unsigned long long>(
                   world.verify_stats.sig_cache_hits));
  if (world.dropped_lease_intervals > 0) {
    std::fprintf(stderr,
                 "warning: %llu lease intervals dropped by the per-replica "
                 "cap (degenerate lease config)\n",
                 static_cast<unsigned long long>(
                     world.dropped_lease_intervals));
  }
  return corpus;
}

}  // namespace sm::tools
